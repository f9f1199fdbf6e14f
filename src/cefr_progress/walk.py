"""The cold path: a history walked with git and folded into the report's cells.

`walk_history` runs one ``git log --first-parent --no-merges --raw -z``,
which gives every change with its blob ids and paths verbatim, and names
each distinct ``.py`` blob once, in bounded batches, while git still runs;
`ask` reads blobs by id from one ``git cat-file --batch``.  `walk_cells`
analyzes the blobs the analysis store lacks, scores each commit from its
blobs' memo entries (`score_blobs`) and sums the scores into cells by
contributor and UTC month (`fold`).  A run that reads stored cells never
imports this module.  A commit id fixes its whole first-parent ancestry,
so the cells below a commit are the same on every run of the same code
(`store.cells_key` hashes this file), git and identity mode, and the git
settings that would change the walk are pinned on its command line.  A
rename's before side is its old path's; a symlink, a submodule and a blob
with a NUL byte count as absent.  Each distinct stored form folds once into
one shared entry, and every commit that adds nothing shares one zero delta.
"""

from __future__ import annotations

import contextlib
import subprocess
from array import array
from collections import Counter, deque
from collections.abc import Callable, Iterable, Iterator

from .catalog import Catalog, level_counter
from .history import CommitRecord, ContributorId, Repo, RepoError
from .scoring import CELL, Cells, CommitScore, Stored


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
            raise RepoError("git cat-file ended early") from None
        for oid in batch:
            header = proc.stdout.readline().split()
            if not header:
                raise RepoError(f"git cat-file ended before {oid}")
            if len(header) != 3:
                yield oid, None  # "<oid> missing" or "<oid> ambiguous"
                continue
            data = proc.stdout.read(int(header[2]))
            if len(data) != int(header[2]) or proc.stdout.read(1) != b"\n":  # short, or no trailing newline
                raise RepoError(f"git cat-file ended inside {oid}")
            yield oid, data if header[1] == b"blob" else None


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


def walk_history(repo: Repo, *, identity: str = "author") -> Iterator[tuple[list[str], list[CommitRecord]]]:
    """Walk the non-merge commits of the default branch's first-parent chain once.

    Yields each distinct .py blob id the changes name once, in lists of at
    most `_BATCH` ids, while ``git log`` still runs, each with the CommitRecords
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
    commits: list[CommitRecord] = []  # walked and not yet yielded
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
            commits.append(CommitRecord(sha.decode("ascii"), contributor, int(time), tuple(changes)))
            while len(wanted) >= _BATCH:
                yield wanted[:_BATCH], commits
                del wanted[:_BATCH]
                commits = []
    yield wanted, commits


#: A blob's memo entry when it has no text: binary or missing.  Any other
#: entry is the blob's six level counts, or None (SKIPPED) when it does not
#: parse or nests too deep.  Entries compare by value, so they survive pickling.
ABSENT = ()
SKIPPED = None
#: The counts of a side that does not exist, and the delta of every commit
#: `score_blobs` finds adding nothing, which `fold` passes over by identity
_ZERO = (0,) * 6

Entry = tuple[int, ...] | None


def entry_folder(catalog: Catalog) -> Callable[[Stored], Entry]:
    """The function that folds a stored form into its memo entry under `catalog`."""
    levels = level_counter(catalog)
    entries: dict[bytes, tuple[int, ...]] = {}  # stored bytes -> entry
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # entry -> the one equal entry handed out

    def fold(stored: Stored) -> Entry:
        if type(stored) is str:
            return SKIPPED if stored else ABSENT
        entry = entries.get(stored)
        if entry is None:
            counts = tuple(levels(array("I", stored))[:6])  # the uncataloged kinds' count is dropped
            entry = entries[stored] = shared.setdefault(counts, counts)
        return entry

    return fold


def score_blobs(commit: CommitRecord, memo: dict[str, Entry]) -> CommitScore:
    """Sum the per-file clamped deltas of one commit recorded by blob ids,
    from the memo entries of its blobs.

    A side with no blob id, or whose blob has no text, counts as the zero
    vector, and a change with no text on either side is left out.  A change
    with a SKIPPED side is skipped and contributes nothing.  Each level's
    delta is clamped at zero per file before the files are summed as ints.
    An id the memo lacks raises KeyError.
    """
    if not commit.changes:
        return CommitScore(commit.sha, commit.contributor, commit.timestamp, _ZERO, 0, 0)
    total = [0] * 6
    analyzed = skipped = 0
    for _, old, new in commit.changes:
        before = ABSENT if old is None else memo[old]
        after = ABSENT if new is None else memo[new]
        if before is SKIPPED or after is SKIPPED:
            skipped += 1
        elif before or after:  # ABSENT is the one empty entry
            analyzed += 1
            # an absent after side adds nothing, and an absent before side is zero
            for level, (was, now) in enumerate(zip(before or _ZERO, after)):
                if now > was:
                    total[level] += now - was
    delta = tuple(total) if any(total) else _ZERO
    return CommitScore(commit.sha, commit.contributor, commit.timestamp, delta, analyzed, skipped)


def _month(timestamp: int) -> int:
    """The UTC calendar month of a unix timestamp, as 12 * year + month - 1.

    The proleptic Gregorian date comes from integer arithmetic (Howard
    Hinnant's ``civil_from_days``), so every timestamp git records has one,
    past year 9999 too.
    """
    era, day = divmod(timestamp // 86400 + 719468, 146097)  # 400-year eras from 0000-03-01
    year_of_era = (day - day // 1460 + day // 36524 - day // 146096) // 365
    march_month = (5 * (day - 365 * year_of_era - year_of_era // 4 + year_of_era // 100) + 2) // 153
    year = era * 400 + year_of_era + (march_month >= 10)  # January and February end the March year
    return 12 * year + (march_month + 2) % 12


def fold(scores: Iterable[CommitScore]) -> Cells:
    """Sum per-commit scores, read in one pass, into cells by contributor and UTC month.

    The scores come in the walk's order, newest first, and each anon_id is
    named by the ContributorId of its last score, its oldest commit: this is
    the one rule that names a contributor.  Each commit's month comes from a
    memo keyed by UTC day, which never straddles a month.  A CommitScore is
    unpacked by position.
    """
    months: dict[int, int] = {}  # UTC day -> month
    people: dict[str, list] = {}  # anon_id -> [ContributorId, {month: cell}]
    for _, contributor, timestamp, delta, files_analyzed, files_skipped in scores:
        day = timestamp // 86400
        month = months.get(day)
        if month is None:
            month = months[day] = _month(timestamp)
        person = people.get(contributor.anon_id)
        if person is None:
            person = people[contributor.anon_id] = [contributor, {}]
        person[0] = contributor
        cell = person[1].get(month)
        if cell is None:
            cell = person[1][month] = [month, timestamp] + [0] * (CELL - 2)
        elif timestamp > cell[1]:
            cell[1] = timestamp
        if delta is not _ZERO:
            for level, count in enumerate(delta, 2):
                cell[level] += count
        cell[8] += 1
        cell[9] += files_analyzed
        cell[10] += files_skipped
    return {anon_id: (contributor, [n for month in sorted(cells) for n in cells[month]])
            for anon_id, (contributor, cells) in people.items()}


#: Raw blob bytes per task sent to a worker: small, so that the workers share
#: the last blobs of a history evenly.
_CHUNK_BYTES = 1 << 16


def _analyses(blobs: list[tuple[str, bytes | None]]) -> list[Stored]:
    from .analyzer import blob_analysis

    return [blob_analysis(data) for _, data in blobs]


def walk_cells(repo: Repo, store, catalog: Catalog, identity: str, jobs: int) -> tuple[Cells, int, int, Counter]:
    """The cells of the history of `repo` under `catalog`, the count of blobs
    the walk named and of those this run analyzed, and the skip reasons' counts.

    The analysis store `store` answers for the blobs an earlier run analyzed.
    At the first blob it lacks, the analyzer and (at `jobs` > 1) the worker
    pool's modules are imported, ``git cat-file`` starts, and each pool after
    it, so that each pool shuts down before ``cat-file``'s input closes.
    Each blob is analyzed as git reads it, inline or by workers that get raw
    bytes in small chunks and return stored forms.  The chunks in flight
    when a worker dies are analyzed again one blob per task in fresh pools,
    and a blob whose worker dies is skipped.  Each commit folds into the
    cells in walk order once the memo holds its blobs, so `fold` names each
    anon_id as in its oldest commit.  One store write keeps what holds for
    any run, and drops the cells of each older tip of this history the walk
    lists.
    """
    memo: dict[str, Entry] = {}
    made: list[tuple[str, Stored | None]] = []  # this run's analyses, None for an id that names no blob
    skipped: Counter = Counter()  # reason -> blobs
    entry = entry_folder(catalog)
    waiting: deque = deque()  # the commits walked and not yet scored, newest first
    walked: set[str] = set()  # the commits listed, among which an older tip's cells go

    def remember(oid: str, stored: Stored) -> None:
        memo[oid] = entry(stored)
        if type(stored) is str and stored:
            skipped[stored] += 1

    def analyzed(oid: str, data: bytes | None, stored: Stored) -> None:
        remember(oid, stored)
        made.append((oid, None if data is None else stored))  # no data: the id names no blob in this repository

    sent: deque = deque()  # ((blob id, bytes) pairs, future of their stored forms), oldest first

    def send(chunk: list[tuple[str, bytes | None]]) -> None:
        try:
            sent.append((chunk, pool.submit(_analyses, chunk)))
        except BrokenProcessPool:
            rescue(chunk)

    def took(chunk: list[tuple[str, bytes | None]], future) -> bool:
        """Whether `future` gave the stored forms of `chunk`, which are kept, before its pool broke."""
        try:
            analyses = future.result()
        except BrokenProcessPool:
            return False
        for (oid, data), stored in zip(chunk, analyses):
            analyzed(oid, data, stored)
        return True

    def collect() -> None:
        chunk, future = sent.popleft()
        if not took(chunk, future):
            rescue(chunk)

    def rescue(chunk: list[tuple[str, bytes | None]]) -> None:
        """Analyze the blobs of `chunk` and of each chunk in flight that the broken pool lost, one per task."""
        nonlocal pool
        lost = deque(chunk)
        while sent:
            chunk, future = sent.popleft()
            if not took(chunk, future):
                lost.extend(chunk)
        while True:  # until a pool outlives the lost blobs, to take the walk's next chunks
            pool.shutdown()  # so that none of its threads runs while the next pool forks
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            with contextlib.suppress(BrokenProcessPool):  # from submit: no verdict on the blob
                while lost:
                    future = pool.submit(_analyses, [lost[0]])
                    blob = lost.popleft()
                    if not took([blob], future):  # its worker died
                        analyzed(*blob, BrokenProcessPool.__name__)
                        break
                else:
                    return

    def scores(last: bool = False) -> Iterator[CommitScore]:
        """The waiting commits' scores up to the first whose blobs the memo lacks; at the `last`, all, or KeyError."""
        while waiting and (last or all(oid in memo for _, *sides in waiting[0].changes for oid in sides if oid)):
            yield score_blobs(waiting.popleft(), memo)

    def walk() -> Iterator[CommitScore]:
        """The score of each commit of the history, newest first, as soon as the memo holds its blobs."""
        nonlocal git, pool, ProcessPoolExecutor, BrokenProcessPool
        for oids, commits in walk_history(repo, identity=identity):
            waiting.extend(commits)
            walked.update(commit.sha for commit in commits)
            found = store.lookup(oids)
            for oid, stored in found.items():
                remember(oid, stored)
            oids = [oid for oid in oids if oid not in found]
            if oids and git is None:  # the first blob the store lacks
                from .analyzer import blob_analysis  # before any fork, so no worker compiles it
                git = stack.enter_context(repo.cat_file())  # before any pool, which the stack then ends first
                if jobs > 1:
                    from concurrent.futures import ProcessPoolExecutor
                    from concurrent.futures.process import BrokenProcessPool
                    pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            chunk, size = [], 0
            for oid, data in ask(git, oids):
                if pool is None:
                    analyzed(oid, data, blob_analysis(data))
                    continue
                chunk.append((oid, data))
                size += len(data or b"")
                if size >= _CHUNK_BYTES:
                    send(chunk)
                    chunk, size = [], 0
                    if len(sent) > 4 * jobs:  # bounds the bytes waiting for a worker
                        collect()
            if chunk:  # a batch ends its chunk, and the chunks done are taken: commits wait on them
                send(chunk)
            while sent and sent[0][1].done():
                collect()
            yield from scores()
        while sent:
            collect()
        yield from scores(last=True)

    git = pool = ProcessPoolExecutor = BrokenProcessPool = None  # once a blob is to be read
    with contextlib.ExitStack() as stack:
        cells = fold(walk())
        store.keep(made, cells, walked)
    return cells, len(memo), len(made), skipped
