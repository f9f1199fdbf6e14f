"""Git history mining.

Walks the default branch's first-parent chain of a repository and emits one
CommitRecord per non-merge commit, carrying the before/after texts of every
changed ``.py`` file.  All repository access goes through the ``git``
executable: one ``git log --raw -z`` pass gives every change with its old
and new blob ids and its paths verbatim, and a persistent
``git cat-file --batch`` subprocess reads each distinct blob once by id.

Identity and ordering decisions:

* Contributors are keyed by the git *author* by default (``committer``
  available as a mode); the anonymized ID is the first 8 hex digits of
  SHA-256 over the lowercased, trimmed email.
* Merge commits are skipped outright; the first-parent chain keeps the
  history linear so each commit diffs against exactly one parent.
* Renames count as modifications with the before text taken from the old
  path; blobs containing NUL bytes are treated as absent (binary policy).
* Changes whose sides share a blob id share one decoded text object, so
  text memory grows with the distinct blobs, not with the changes.
"""

from __future__ import annotations

import hashlib
import logging
import os
import subprocess
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

log = logging.getLogger(__name__)

_FIELD_SEP = "\x1f"

CACHE_ENV_VAR = "CEFR_PROGRESS_CACHE"


class RepoError(Exception):
    """Repository access failure.

    `kind` is one of "clone_failed", "shallow", "empty", "bad_sha", "git_missing".
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class RepoSpec:
    """Where the repository comes from and where clones may be cached."""

    source: str
    workdir: Path | None = None


@dataclass(frozen=True)
class ContributorId:
    raw_name: str
    raw_email: str
    anon_id: str

    @classmethod
    def from_identity(cls, name: str, email: str) -> "ContributorId":
        normalized = email.strip().lower()
        digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()
        return cls(raw_name=name, raw_email=email, anon_id=digest[:8])


@dataclass(frozen=True)
class FileChange:
    """One changed .py file within a commit.

    `path` is the repository-relative path after the commit (the old path for
    deletions); `old_path` is set for renames.  Absent texts mean the file
    did not exist on that side, or the blob was binary.
    """

    path: str
    change_type: str  # added | modified | deleted | renamed
    before_text: str | None = None
    after_text: str | None = None
    old_path: str | None = None


@dataclass(frozen=True)
class CommitRecord:
    sha: str
    parent_sha: str | None
    contributor: ContributorId
    timestamp: int
    changes: tuple[FileChange, ...] = field(default=())


def _run_git(*args: str) -> subprocess.CompletedProcess:
    """Run ``git`` with `args` and capture its output as text."""
    try:
        return subprocess.run(["git", *args], capture_output=True, text=True)
    except OSError as exc:
        raise RepoError("git_missing", f"cannot run git: {exc}") from exc


def _start_git(*args: str, **pipes) -> subprocess.Popen:
    try:
        return subprocess.Popen(["git", *args], **pipes)
    except OSError as exc:
        raise RepoError("git_missing", f"cannot run git: {exc}") from exc


class Repo:
    """Read handle on a local git repository.

    Holds one lazily started ``cat-file --batch`` subprocess for blob reads;
    concurrent readers should each hold their own Repo.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._batch: subprocess.Popen | None = None

    def git(self, *args: str) -> str:
        proc = _run_git("-C", str(self.path), "-c", "core.quotepath=off", *args)
        if proc.returncode != 0:
            raise RepoError("clone_failed", f"git {args[0]} failed: {proc.stderr.strip()}")
        return proc.stdout

    def git_fields(self, *args: str) -> Iterator[bytes]:
        """The NUL-terminated fields of a ``git ... -z`` command's output, as git writes them.

        git's own messages go to stderr, like the rest of the progress output.
        """
        with _start_git("-C", str(self.path), *args, stdout=subprocess.PIPE) as proc:
            rest = b""
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                *fields, rest = (rest + chunk).split(b"\0")
                yield from fields
        if proc.returncode != 0:
            raise RepoError("clone_failed", f"git {args[0]} exited with status {proc.returncode}")

    def _batch_proc(self) -> subprocess.Popen:
        if self._batch is None or self._batch.poll() is not None:
            self._batch = _start_git(
                "-C", str(self.path), "cat-file", "--batch",
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
        return self._batch

    def read_blob(self, oid: str) -> bytes | None:
        """Raw bytes of the blob named `oid`, or None when it is no blob here."""
        proc = self._batch_proc()
        proc.stdin.write(f"{oid}\n".encode("ascii"))
        proc.stdin.flush()
        header = proc.stdout.readline().split()
        if len(header) != 3:
            return None  # "<oid> missing" or "<oid> ambiguous"
        data = proc.stdout.read(int(header[2]))
        proc.stdout.read(1)  # trailing newline
        return data if header[1] == b"blob" else None

    def close(self) -> None:
        if self._batch is not None:
            self._batch.stdin.close()
            self._batch.wait(timeout=10)
            self._batch.stdout.close()
        self._batch = None

    def __enter__(self) -> "Repo":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _cache_root(spec: RepoSpec) -> Path:
    if spec.workdir is not None:
        return Path(spec.workdir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cefr-progress"


def _assert_not_shallow(repo: Repo) -> None:
    if repo.git("rev-parse", "--is-shallow-repository").strip() == "true":
        raise RepoError("shallow", f"{repo.path} is a shallow clone; full history is required")


def prepare_repo(spec: RepoSpec) -> Repo:
    """Local passthrough for paths; cached bare clone for URLs."""
    candidate = Path(spec.source)
    if candidate.exists():
        if _run_git("-C", str(candidate), "rev-parse", "--git-dir").returncode != 0:
            raise RepoError("clone_failed", f"{spec.source} exists but is not a git repository")
        repo = Repo(candidate)
        _assert_not_shallow(repo)
        return repo

    key = hashlib.sha256(spec.source.encode("utf-8")).hexdigest()[:16]
    clone_dir = _cache_root(spec) / "clones" / key
    if not clone_dir.exists():
        log.info("cloning %s into %s", spec.source, clone_dir)
        clone_dir.parent.mkdir(parents=True, exist_ok=True)
        proc = _run_git("clone", "--bare", spec.source, str(clone_dir))
        if proc.returncode != 0:
            raise RepoError("clone_failed", f"clone of {spec.source} failed: {proc.stderr.strip()}")
    else:
        log.info("reusing cached clone %s", clone_dir)
    repo = Repo(clone_dir)
    _assert_not_shallow(repo)
    return repo


def _decode_blob(data: bytes | None) -> str | None:
    if data is None or b"\x00" in data:
        return None
    return data.decode("utf-8", errors="replace")


def _side(mode: str, oid: str) -> str | None:
    """The blob id on one side of a raw diff entry; None when that side is absent
    (the null id) or a submodule (gitlink mode 160000)."""
    return None if mode == "160000" or not oid.strip("0") else oid


_KINDS = {"A": "added", "C": "added", "D": "deleted", "M": "modified", "T": "modified", "R": "renamed"}


def _change(
    status: str, paths: list[str], old: str | None, new: str | None, text_of: Callable
) -> FileChange | None:
    """The .py FileChange for one raw diff entry, or None when it touches no .py file.

    A copy counts as added (its source still exists), a rename out of .py as
    a deletion, and a typechange (T) as a modification.
    """
    path = paths[-1]
    if status == "C":
        old = None
    elif status == "R" and not path.endswith(".py"):
        status, path, new = "D", paths[0], None
    kind = _KINDS.get(status)
    if kind is None or not path.endswith(".py"):
        return None
    return FileChange(path, kind, text_of(old), text_of(new), paths[0] if kind == "renamed" else None)


def _raw_log(fields: Iterator[bytes]) -> Iterator[tuple[str, list]]:
    """(header, [(status, paths, old blob id, new blob id)]) per commit of ``git log --raw -z``.

    Each header, raw entry and unquoted path ends in NUL.  A raw entry starts with
    ":" ("\\n:" for a commit's first) and is followed by its one or two paths.
    """
    header, entries = None, []
    for field in fields:
        entry = field.lstrip(b"\n")
        if entry.startswith(b":"):
            old_mode, new_mode, old_oid, new_oid, status = entry[1:].decode("ascii").split()
            count = 2 if status[0] in "RC" else 1
            paths = [next(fields).decode("utf-8", errors="surrogateescape") for _ in range(count)]
            entries.append((status[0], paths, _side(old_mode, old_oid), _side(new_mode, new_oid)))
        elif field:
            if header is not None:
                yield header, entries
            header, entries = field.decode("utf-8", errors="replace"), []
    if header is not None:
        yield header, entries


def extract_commits(repo: Repo, *, identity: str = "author") -> list[CommitRecord]:
    """CommitRecords for the default branch's first-parent chain, oldest first.

    Merge commits are dropped; every remaining record carries the changed
    .py files with their before/after texts.  `identity` selects whether the
    author or the committer is credited.
    """
    if identity not in ("author", "committer"):
        raise ValueError(f"identity must be 'author' or 'committer', not {identity!r}")
    if _run_git("-C", str(repo.path), "rev-parse", "--verify", "--quiet", "HEAD").returncode != 0:
        raise RepoError("empty", f"{repo.path} has no commits on its default branch")

    texts: dict[str | None, str | None] = {None: None}  # blob id -> decoded text

    def text_of(oid: str | None) -> str | None:
        if oid not in texts:
            texts[oid] = _decode_blob(repo.read_blob(oid))
        return texts[oid]

    fmt = _FIELD_SEP.join(["%H", "%P", "%an", "%ae", "%at", "%cn", "%ce"])
    fields = repo.git_fields(
        "log", "--first-parent", "--topo-order", "--reverse", "--raw", "-z",
        "--no-abbrev", "-M", f"--format={fmt}", "HEAD",
    )
    records: list[CommitRecord] = []
    for header, entries in _raw_log(fields):
        sha, parents_raw, a_name, a_email, a_time, c_name, c_email = header.split(_FIELD_SEP)
        parents = parents_raw.split()
        if len(parents) >= 2:
            log.debug("skipping merge commit %s", sha)
            continue
        changes = [change for entry in entries if (change := _change(*entry, text_of)) is not None]
        name, email = (a_name, a_email) if identity == "author" else (c_name, c_email)
        records.append(
            CommitRecord(
                sha=sha,
                parent_sha=parents[0] if parents else None,
                contributor=ContributorId.from_identity(name, email),
                timestamp=int(a_time),
                changes=tuple(changes),
            )
        )
    if not records:
        raise RepoError("empty", f"{repo.path} has no non-merge commits")
    return records
