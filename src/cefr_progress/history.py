"""Git repository access.

Opens a repository at a local path, or a cached bare clone of a URL, and
probes the tip of its default branch's first-parent chain.  All repository
access goes through the ``git`` executable, and no git process outlives
the call that starts it.  The walk that `analyze` runs lives in `walk`;
`extract_commits` is its text view: it reads and decodes each blob and
gives CommitRecords with before/after texts, in the walk's order.

Contributors are keyed by the git *author* by default (``committer``
available as a mode); the anonymized ID is the first 8 hex digits of
SHA-256 over the lowercased, trimmed email.  Changes whose sides share a
blob id share one decoded text object, so text memory grows with the
distinct blobs, not with the changes.
"""

from __future__ import annotations

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


def _run_git(*args: str) -> subprocess.CompletedProcess:
    """Run ``git`` with `args` and capture its output as text, with each byte
    that is not UTF-8 as a surrogate escape, as in a path from argv, and each
    carriage return as git wrote it."""
    try:
        proc = subprocess.run(["git", *args], capture_output=True)
    except OSError as exc:
        raise RepoError("git_missing", f"cannot run git: {exc}") from exc
    proc.stdout, proc.stderr = (out.decode("utf-8", "surrogateescape") for out in (proc.stdout, proc.stderr))
    return proc


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
        """A ``git cat-file --batch`` process to ask for blobs with `walk.ask`."""
        return _start_git(
            "-C", str(self.path), "cat-file", "--batch", stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def read_blob(self, oid: str) -> bytes | None:
        """Raw bytes of the blob named `oid`, or None when it is no blob here."""
        from .walk import ask

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
    # only a newline ends a line: a path may hold any other line break
    shallow, grafts, *replaced = proc.stdout.removesuffix("\n").split("\n")
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
        clone = Repo(clone_dir)
        clone.git("fetch", "--prune", spec.source, "+refs/heads/*:refs/heads/*")
        # the clone's HEAD follows the remote's default branch, when the remote names one
        for line in clone.git("ls-remote", "--symref", spec.source, "HEAD").split("\n"):
            if line.startswith("ref: ") and line.endswith("\tHEAD"):
                clone.git("symbolic-ref", "HEAD", line[len("ref: "):-len("\tHEAD")])
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


def extract_commits(repo: Repo) -> list[CommitRecord]:
    """CommitRecords for the non-merge commits of the default branch's first-parent
    chain, newest first as `walk.walk_history` hands them over, each with its
    changed .py files' before/after texts and crediting its author.

    The text view of the walk: each blob is read and decoded once, and a
    change with no text on either side is left out.
    """
    from .analyzer import blob_text
    from .walk import ask, walk_history

    commits = []
    # one decoded text per blob id, so equal sides share one object
    texts: dict[str | None, str | None] = {None: None}
    with repo.cat_file() as git:
        for oids, walked in walk_history(repo):
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
        for sha, contributor, timestamp, changes in commits
    ]
