"""Git history mining.

Walks the default branch's first-parent chain of a repository in one pass.
All repository access goes through the ``git`` executable: one
``git log --first-parent --no-merges --raw -z`` gives every change with its
old and new blob ids and its paths verbatim.  `walk_history` hands over
every commit as its changes' blob ids and, while ``git log`` still runs,
names each distinct ``.py`` blob once, in bounded batches.  The caller
reads the blobs it needs by id from one ``git cat-file --batch`` process
with `ask`, so `analyze` keeps one vector per blob, never the texts, and
starts ``cat-file`` only when some blob is to be read.  `extract_commits`
is the text view of the same walk: it reads and decodes each blob and
gives CommitRecords with before/after texts.  No git process outlives the
call that starts it.

A commit id fixes its whole first-parent ancestry, so the walk below a
commit is the same on every run of the same code, git and identity mode.
`store` alone decides whether the analysis store keeps a walk's cells, and
keys them by those three and the tip, the newest non-merge commit of the
chain.  The config settings that would change ``git log``'s answer
(``log.showRoot``, ``diff.renameLimit``, ``i18n.logOutputEncoding``,
``log.showSignature``) are pinned on its command line.

Identity and ordering decisions:

* Contributors are keyed by the git *author* by default (``committer``
  available as a mode); the anonymized ID is the first 8 hex digits of
  SHA-256 over the lowercased, trimmed email.
* git's walk picks the non-merge commits of the first-parent chain, newest
  first; each diffs against its one parent; text view records are oldest first.
* Renames count as modifications with the before text taken from the old
  path; symlinks and submodules, whose blobs hold no source text, count as
  absent.  Other blobs go through `analyzer.blob_text`: one with a NUL byte is
  absent too, and the rest decode as Python decodes a source file.
* Changes whose sides share a blob id share one decoded text object, so
  text memory grows with the distinct blobs, not with the changes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import NamedTuple

log = logging.getLogger(__name__)

CACHE_ENV_VAR = "CEFR_PROGRESS_CACHE"


class RepoError(Exception):
    """Repository access failure.

    `kind` is one of "clone_failed", "git_failed" (a git command on an existing
    repository failed), "shallow", "empty", "git_missing".
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class RepoSpec(NamedTuple):
    """Where the repository comes from and where clones may be cached."""

    source: str
    workdir: Path | None = None


class ContributorId(NamedTuple):
    raw_name: str
    raw_email: str
    anon_id: str

    @classmethod
    def from_identity(cls, name: str, email: str) -> "ContributorId":
        normalized = email.strip().lower()
        digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()
        return cls(raw_name=name, raw_email=email, anon_id=digest[:8])


class FileChange(NamedTuple):
    """One changed .py file within a commit: its path, and its text before and
    after the commit.

    `path` is the repository-relative path after the commit (the old path for
    deletions).  A renamed file's before text is read from its old path.  An
    absent text means the file did not exist on that side, or it was binary,
    a symlink or a submodule.  A change with no text on either side holds
    nothing to analyze, so `extract_commits` leaves it out.
    """

    path: str
    before_text: str | None = None
    after_text: str | None = None


class CommitRecord(NamedTuple):
    sha: str
    contributor: ContributorId
    timestamp: int
    changes: tuple[FileChange, ...] = ()


class CommitBlobs(NamedTuple):
    """One non-merge commit as `walk_history` hands it over: each changed .py file
    as (path, old blob id, new blob id), with None for a side that holds no
    blob (absent, a symlink or a submodule).  Paths follow FileChange."""

    sha: str
    contributor: ContributorId
    timestamp: int
    changes: tuple[tuple[str, str | None, str | None], ...]


def _run_git(*args: str) -> subprocess.CompletedProcess:
    """Run ``git`` with `args` and capture its output as text, with each byte
    that is not UTF-8 as a surrogate escape, as in a path from argv."""
    try:
        return subprocess.run(["git", *args], capture_output=True, text=True, errors="surrogateescape")
    except OSError as exc:
        raise RepoError("git_missing", f"cannot run git: {exc}") from exc


def _start_git(*args: str, **pipes) -> subprocess.Popen:
    try:
        return subprocess.Popen(["git", *args], **pipes)
    except OSError as exc:
        raise RepoError("git_missing", f"cannot run git: {exc}") from exc


def _nul_fields(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The NUL-terminated fields of the bytes `chunks` hold, one after another."""
    rest = b""
    for chunk in chunks:
        *fields, rest = (rest + chunk).split(b"\0")
        yield from fields


#: Blob ids per batch the walk names and per request to ``git cat-file``.
#: An id and its newline take at most 65 bytes (SHA-256), so a request stays
#: under the 4 KiB a pipe holds at the least.  Each request's replies are
#: read before the next is written, so git never waits on this process to
#: read while this process waits on git.
_BATCH = 60


def ask(proc: subprocess.Popen, oids: list[str]) -> Iterator[tuple[str, bytes | None]]:
    """(oid, raw bytes) for each of `oids` in order from the ``cat-file --batch``
    process `proc`, each as its reply arrives; None when an id names no blob."""
    for start in range(0, len(oids), _BATCH):
        batch = oids[start:start + _BATCH]
        try:
            proc.stdin.write("".join(f"{oid}\n" for oid in batch).encode("ascii"))
            proc.stdin.flush()
        except BrokenPipeError:
            raise RepoError("git_failed", "git cat-file ended early") from None
        for oid in batch:
            header = proc.stdout.readline().split()
            if not header:
                raise RepoError("git_failed", f"git cat-file ended before {oid}")
            if len(header) != 3:
                yield oid, None  # "<oid> missing" or "<oid> ambiguous"
                continue
            data = proc.stdout.read(int(header[2]))
            if len(data) != int(header[2]) or proc.stdout.read(1) != b"\n":  # short, or no trailing newline
                raise RepoError("git_failed", f"git cat-file ended inside {oid}")
            yield oid, data if header[1] == b"blob" else None


class Repo:
    """Read handle on a local git repository.

    `rewritten` tells that replace refs or a grafts file may give an object
    id other content here: a commit id another history, a blob id other bytes.
    """

    def __init__(self, path: Path, rewritten: bool = False):
        self.path = Path(path)
        self.rewritten = rewritten

    def git(self, *args: str) -> str:
        proc = _run_git("-C", str(self.path), *args)
        if proc.returncode != 0:
            raise RepoError("git_failed", f"git {args[0]} failed: {proc.stderr.strip()}")
        return proc.stdout

    def git_fields(self, *args: str) -> Iterator[bytes]:
        """The NUL-terminated fields of a ``git ... -z`` command's output, as git writes them.

        Each read takes what git has written so far, so the fields come while
        git still runs.  git's own messages go to stderr, like the rest of the
        progress output.  A caller that stops early, by an exception or by
        closing the generator, kills git: a process forked meanwhile may hold
        the pipe open, and git would wait on it to read.
        """
        with _start_git("-C", str(self.path), *args, stdout=subprocess.PIPE) as proc:
            try:
                yield from _nul_fields(iter(lambda: proc.stdout.read1(1 << 16), b""))
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0:
            raise RepoError("git_failed", f"git {args[0]} exited with status {proc.returncode}")

    @functools.cached_property
    def tip(self) -> str:
        """The id of the newest non-merge commit of the default branch's
        first-parent chain, probed once, so that every walk of this handle
        walks the same history."""
        probe = _run_git("-C", str(self.path), "rev-list", "--first-parent", "--no-merges", "-n1", "HEAD")
        newest = probe.stdout.strip()
        if probe.returncode != 0 or not newest:
            raise RepoError("empty", f"{self.path} has no non-merge commits on its default branch")
        return newest

    def cat_file(self) -> subprocess.Popen:
        """A ``git cat-file --batch`` process to ask for blobs with `ask`."""
        return _start_git(
            "-C", str(self.path), "cat-file", "--batch", stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def read_blob(self, oid: str) -> bytes | None:
        """Raw bytes of the blob named `oid`, or None when it is no blob here."""
        with self.cat_file() as proc:
            return next(ask(proc, [oid]))[1]

    def close(self) -> None:
        """Nothing to release: each git process ends within the call that starts it."""

    def __enter__(self) -> "Repo":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def cache_root() -> Path:
    """Where clones and analyses are cached: $CEFR_PROGRESS_CACHE, else
    ~/.cache/cefr-progress.  Raises RuntimeError when there is no home directory."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cefr-progress"


def _open(path: Path) -> Repo:
    """The repository at `path`, after one probe for a non-repository, a shallow
    clone, a grafts file and replace refs."""
    replace_base = os.environ.get("GIT_REPLACE_REF_BASE", "refs/replace/")
    proc = _run_git("-C", str(path), "rev-parse", "--is-shallow-repository", "--git-path", "info/grafts",
                    f"--glob={replace_base}*")
    if proc.returncode != 0:
        raise RepoError("clone_failed", f"{path} exists but is not a git repository")
    shallow, grafts, *replaced = proc.stdout.splitlines()
    if shallow == "true":
        raise RepoError("shallow", f"{path} is a shallow clone; full history is required")
    return Repo(path, rewritten=bool(replaced) or (path / grafts).exists())


def prepare_repo(spec: RepoSpec) -> Repo:
    """Local passthrough for paths; cached bare clone for URLs, fetched on reuse."""
    candidate = Path(spec.source)
    if candidate.exists():
        return _open(candidate)

    key = hashlib.sha256(spec.source.encode("utf-8", "surrogateescape")).hexdigest()[:16]
    try:
        clone_dir = Path(spec.workdir if spec.workdir is not None else cache_root()) / "clones" / key
    except RuntimeError as exc:  # no home directory
        raise RepoError("clone_failed",
                        f"no cache root to clone {spec.source} into: set {CACHE_ENV_VAR}") from exc
    if clone_dir.exists():
        log.info("fetching %s into cached clone %s", spec.source, clone_dir)
        # a bare clone has no fetch refspec of its own, and its remote's name
        # follows clone.defaultRemoteName, so the URL names what to fetch
        Repo(clone_dir).git("fetch", "--prune", spec.source, "+refs/heads/*:refs/heads/*")
    else:
        log.info("cloning %s into %s", spec.source, clone_dir)
        _clone_into_place(spec.source, clone_dir)
    return _open(clone_dir)


def _clone_into_place(url: str, clone_dir: Path) -> None:
    """Bare-clone `url` beside `clone_dir` and rename it into place, so that a
    concurrent run never sees a partial clone."""
    try:
        clone_dir.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=f"{clone_dir.name}.", dir=clone_dir.parent))
    except OSError as exc:
        raise RepoError("clone_failed", f"cannot clone {url} into {clone_dir.parent}: {exc.strerror}") from exc
    try:
        proc = _run_git("clone", "--bare", url, str(staging))
        if proc.returncode != 0:
            raise RepoError("clone_failed", f"clone of {url} failed: {proc.stderr.strip()}")
        try:
            staging.rename(clone_dir)
        except OSError as exc:
            # another run may have put its clone in place first
            if not clone_dir.exists():
                raise RepoError("clone_failed", f"cannot move clone into {clone_dir}: {exc}") from exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)


#: Modes whose blob is no file text: a symlink's blob holds its target path,
#: and a submodule's id names a commit.
_NOT_TEXT_MODES = ("120000", "160000")


def _side(mode: str, oid: str) -> str | None:
    """The blob id on one side of a raw diff entry; None when that side is absent
    (the null id), a symlink or a submodule."""
    return None if mode in _NOT_TEXT_MODES or not oid.strip("0") else oid


def _change(
    status: str, paths: list[str], old: str | None, new: str | None
) -> tuple[str, str | None, str | None] | None:
    """(path, old blob id, new blob id) of the .py FileChange for one raw diff
    entry, or None when the entry touches no .py file.

    A copy counts as added (its source still exists), a rename out of .py as
    a deletion, and a typechange (T) as a modification.  A rename's old blob
    is its old path's.  Unmerged (U) and unknown (X) entries change nothing.
    """
    path = paths[-1]
    if status == "C":
        old = None
    elif status == "R" and not path.endswith(".py"):
        path, new = paths[0], None
    if status not in "ACDMRT" or not path.endswith(".py"):
        return None
    return path, old, new


def _raw_log(fields: Iterator[bytes]) -> Iterator[tuple[tuple[bytes, ...], list]]:
    """((sha, time, name, email), [(path, old blob id, new blob id)]) per commit of
    ``git log --raw -z`` with four NUL-separated format fields: the commit's
    .py changes, each as `_change` makes it from one raw entry.

    Each field, raw entry and unquoted path ends in NUL.  A raw entry starts with ":"
    ("\\n:" for a commit's first) and is followed by its one or two paths.  Any
    other field starts a header of four fields, empty ones included.
    """
    header, changes = None, []
    for field in fields:
        entry = field.lstrip(b"\n")
        if entry.startswith(b":"):
            old_mode, new_mode, old_oid, new_oid, status = entry[1:].decode("ascii").split()
            paths = [next(fields).decode("utf-8", errors="surrogateescape")
                     for _ in range(2 if status[0] in "RC" else 1)]
            change = _change(status[0], paths, _side(old_mode, old_oid), _side(new_mode, new_oid))
            if change is not None:
                changes.append(change)
        else:
            if header is not None:
                yield header, changes
            header, changes = (field, next(fields), next(fields), next(fields)), []
    if header is not None:
        yield header, changes


def walk_history(repo: Repo, *, identity: str = "author") -> Iterator[tuple[list[str], list[CommitBlobs]]]:
    """Walk the non-merge commits of the default branch's first-parent chain once.

    Yields each distinct .py blob id the changes name once, in lists of at
    most `_BATCH` ids, while ``git log`` still runs, each with the CommitBlobs
    of the commits walked since the list before, newest first, which may name
    ids of a later list; the last list may be empty.  The caller reads the
    blobs it needs with `ask`.  A side with no blob id (absent, a symlink or
    a submodule) is None in the changes and is never yielded.  `identity`
    selects whether the author or the committer is credited.
    """
    if identity not in ("author", "committer"):
        raise ValueError(f"identity must be 'author' or 'committer', not {identity!r}")
    who = identity[0]  # %an/%ae or %cn/%ce
    # --root, -l1000, --encoding and --no-show-signature pin what log.showRoot,
    # diff.renameLimit, i18n.logOutputEncoding and log.showSignature would
    # change; NUL separates the fields because no git identity can contain it
    fields = repo.git_fields(
        "log", "--first-parent", "--no-merges", "--raw", "-z", "--no-abbrev", "-M", "-l1000", "--root",
        "--encoding=UTF-8", "--no-show-signature", f"--format=%H%x00%at%x00%{who}n%x00%{who}e", repo.tip,
    )

    identities: dict[tuple[bytes, bytes], ContributorId] = {}
    named: set[str | None] = {None}  # every blob id named, and the absent side
    wanted: list[str] = []  # blob ids named and not yet yielded
    commits: list[CommitBlobs] = []  # walked and not yet yielded
    with contextlib.closing(fields):
        for header, changes in _raw_log(fields):
            for _, old, new in changes:
                for oid in (old, new):
                    if oid not in named:
                        named.add(oid)
                        wanted.append(oid)
            sha, time, name, email = header
            contributor = identities.get((name, email))
            if contributor is None:
                identity_text = (field.decode("utf-8", errors="replace") for field in (name, email))
                contributor = identities[name, email] = ContributorId.from_identity(*identity_text)
            commits.append(CommitBlobs(sha.decode("ascii"), contributor, int(time), tuple(changes)))
            while len(wanted) >= _BATCH:
                yield wanted[:_BATCH], commits
                del wanted[:_BATCH]
                commits = []
    yield wanted, commits


def extract_commits(repo: Repo, *, identity: str = "author") -> list[CommitRecord]:
    """CommitRecords for the non-merge commits of the default branch's first-parent
    chain, oldest first, each with its changed .py files' before/after texts.

    The text view of `walk_history`: each blob is read and decoded once, and
    a change with no text on either side is left out.  `identity` selects
    whether the author or the committer is credited.
    """
    from .analyzer import blob_text

    commits: list[CommitBlobs] = []  # newest first, as the walk hands them over
    # one decoded text per blob id, so equal sides share one object
    texts: dict[str | None, str | None] = {None: None}
    with repo.cat_file() as git:
        for oids, walked in walk_history(repo, identity=identity):
            commits += walked
            texts.update((oid, blob_text(data)) for oid, data in ask(git, oids))
    return [
        CommitRecord(
            sha=sha,
            contributor=contributor,
            timestamp=timestamp,
            changes=tuple(
                FileChange(path, texts[old], texts[new])
                for path, old, new in changes
                if texts[old] is not None or texts[new] is not None
            ),
        )
        for sha, contributor, timestamp, changes in reversed(commits)
    ]
