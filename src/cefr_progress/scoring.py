"""Added-proficiency scoring and aggregation.

A commit's contribution is the per-file clamped difference between the
six-level vector after and before the change: components that shrink
(deletion) are floored at zero, per file and per level, before summing
across the commit's files.  Scores then fold into cells, one per
contributor and UTC month, which `finish` rolls up by contributor and by
calendar period under any report options; the analysis store keeps them.

A blob's analysis is kept in a catalog-free stored form: the count of each
analyzer kind, or why there are none.  The catalog folds it into the blob's
six level counts, so one stored analysis serves every catalog.  Only the
functions that analyze a source import `analyzer`, so a run that finds
every analysis stored loads no AST code.

A history repeats few values many times, so each is made once: a folder
folds each distinct stored form once and hands out one tuple per distinct
entry, every commit that adds nothing shares one zero delta, and a report
shares one tuple per distinct count among its period buckets.  Six level
counts, A1 first, are a plain tuple of ints from the memo to the report;
all of them are immutable.  Each record here is a NamedTuple, which pickles
by value; `fold` unpacks a CommitScore by position.
"""

from __future__ import annotations

import enum
import re
import sys
from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .catalog import KINDS, Catalog, Level, level_counter
from .history import CommitBlobs, CommitRecord, ContributorId

if TYPE_CHECKING:
    from .analyzer import AnalysisResult

DEFAULT_BOT_PATTERNS = (r"\[bot\]$",)


class Granularity(str, enum.Enum):
    MONTHLY = "monthly"
    YEARLY = "yearly"


class CommitScore(NamedTuple):
    sha: str
    contributor: ContributorId
    timestamp: int
    delta: tuple[int, ...]
    files_analyzed: int
    files_skipped: int


class ContributorProfile(NamedTuple):
    contributor: ContributorId
    total: tuple[int, ...]
    by_period: dict[str, tuple[int, ...]]
    commit_count: int


class TopContributor(NamedTuple):
    contributor: ContributorId
    # (period key, C1 count, C2 count) rows over the contributor's active periods
    periods: tuple[tuple[str, int, int], ...]


class ProjectReport(NamedTuple):
    repo: str
    generated_at: int
    period: Granularity
    project_total: tuple[int, ...]
    project_by_period: dict[str, tuple[int, ...]]
    profiles: tuple[ContributorProfile, ...]
    excluded_total: tuple[int, ...]
    top_contributor: TopContributor | None
    commit_count: int
    files_analyzed: int
    files_skipped: int


#: The ints of one cell: its month (12 * year + month - 1), its newest
#: commit timestamp, its six level counts, and its commits, files analyzed
#: and files skipped
CELL = 11
#: A history's commit scores summed by contributor and UTC month, which
#: every report of that history is made from: each anon_id's first
#: ContributorId and its cells, in time order, in one sequence of ints
Cells = dict[str, tuple[ContributorId, Sequence[int]]]


#: A blob's memo entry when it has no text: binary or missing.  Any other
#: entry is the blob's six level counts, or None (SKIPPED) when it does not
#: parse or nests too deep.  Entries compare by value, so they survive pickling.
ABSENT = ()
SKIPPED = None
#: The counts of a side that does not exist, and the delta of every commit
#: `score_blobs` finds adding nothing, which `fold` passes over by identity
_ZERO = (0,) * 6

Entry = tuple[int, ...] | None

#: The stored form of one blob's analysis.  Bytes hold the count of each of
#: the analyzer's KINDS, in that order, as native unsigned 32-bit ints.  A
#: str says why there are none: NO_TEXT for a blob with no text (binary or
#: missing), else the name of the exception that refused the source.
Stored = bytes | str
NO_TEXT = ""
_PACKED_SIZE = array("I").itemsize * len(KINDS)
#: What else a stored form depends on: the packing's byte order and int size,
#: the interpreter, whose grammar and compiler decide the verdict, and the
#: kind list, which the default catalog's table sets and the bytes follow.
STORED_FORM_KEY = f"{sys.byteorder} {array('I').itemsize} {sys.version} {' '.join(KINDS)}"
#: Skip reasons that tell of the run, not only of the source: free memory,
#: the recursion limit and call depth the parser and compiler start from,
#: and a worker process that died analyzing it.  A blob refused for one of
#: them is analyzed again by the next run.
PASSING = frozenset({"MemoryError", "RecursionError", "BrokenProcessPool"})


def source_analysis(source: str) -> Stored:
    """The stored form of one source text's analysis.

    Raises RuntimeError when the walk emits a kind that KINDS lacks, which
    the stored form could not hold.
    """
    from .analyzer import ParseError, find_constructs

    try:
        found = find_constructs(source)
    except ParseError as exc:
        return type(exc.__cause__).__name__
    tally = Counter(map(itemgetter(0), found))
    counts = array("I", [tally.pop(kind, 0) for kind in KINDS])
    if tally:
        raise RuntimeError(f"kinds missing from catalog.KINDS: {sorted(tally)}")
    return counts.tobytes()


def blob_analysis(data: bytes | None) -> Stored:
    """The stored form of one blob's analysis from its raw bytes (None for no blob)."""
    from .analyzer import blob_text

    text = blob_text(data)
    return NO_TEXT if text is None else source_analysis(text)


def is_stored(value: object) -> bool:
    """Whether `value`, read back from outside this process, is a stored form."""
    if type(value) is bytes:
        return len(value) == _PACKED_SIZE
    return type(value) is str and (value == NO_TEXT or value.isidentifier())


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


def score_blobs(commit: CommitBlobs, memo: dict[str, Entry]) -> CommitScore:
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


def analyze_source(source: str, catalog: Catalog) -> AnalysisResult:
    """`analyzer.analyze_source`, imported at the first call; `score_commit` calls it by this name."""
    from . import analyzer

    return analyzer.analyze_source(source, catalog)


def score_commit(record: CommitRecord, catalog: Catalog) -> CommitScore:
    """`score_blobs` for a commit recorded by its texts: each distinct text
    of the record stands in for a blob id and is analyzed once."""
    memo: dict[str, Entry] = {}
    for change in record.changes:
        for text in (change.before_text, change.after_text):
            if text is not None and text not in memo:
                result = analyze_source(text, catalog)
                memo[text] = result.vector if result.parse_ok else SKIPPED
    changes = tuple((change.path, change.before_text, change.after_text) for change in record.changes)
    return score_blobs(CommitBlobs(record.sha, record.contributor, record.timestamp, changes), memo)


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


def _period_key(month: int, period: Granularity) -> str:
    year, month = divmod(month, 12)
    return str(year) if period is Granularity.YEARLY else f"{year}-{month + 1:02d}"


def period_key(timestamp: int, period: Granularity) -> str:
    """UTC calendar bucket for a unix timestamp: "YYYY" or "YYYY-MM", where
    the year has more digits past year 9999."""
    return _period_key(_month(timestamp), period)


def _profile_sort_key(profile: ContributorProfile):
    total = profile.total
    return (-(total[Level.C1] + total[Level.C2]), -sum(total), profile.contributor.anon_id)


def _vector_sum(rows) -> tuple[int, ...]:
    """The component-wise sum of 6-int rows; a zero row keeps six columns when there are none."""
    return tuple(map(sum, zip(*rows, [0] * 6)))


def is_bot(contributor: ContributorId, patterns: tuple[str, ...]) -> bool:
    return any(re.search(pattern, contributor.raw_name) for pattern in patterns)


def fold(scores: Iterable[CommitScore]) -> Cells:
    """Sum per-commit scores, read in one pass, into cells by contributor and UTC month.

    Each anon_id keeps the ContributorId of its first score.  Each commit's
    month comes from a memo keyed by UTC day, which never straddles a month.
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


def finish(cells: Cells, *, repo: str, period: Granularity = Granularity.YEARLY,
           bot_patterns: tuple[str, ...] = DEFAULT_BOT_PATTERNS) -> ProjectReport:
    """Assemble the full project report from a history's cells.

    Contributor profiles are ordered by C1+C2, then total, then anon_id.
    Bot-matching identities stay in the project totals but are dropped from
    the contributor list; their sum lands in `excluded_total` so that
    project_total == sum(profile totals) + excluded_total holds exactly.
    generated_at is the newest analyzed commit timestamp (0 with no commits),
    which keeps emission byte-deterministic for a fixed repository state.

    Every dict of periods is in time order, which is string order only
    while years have four digits.  Buckets with equal counts share one tuple.
    A profile's buckets are made in bulk from its cells' level columns: its
    cells are in time order, so each period's are adjacent, and a period with
    more than one cell sums them once.  The project's buckets sum each
    period's profile buckets once.
    """
    months = sorted(set().union(*(rows[::CELL] for _, rows in cells.values())))
    keys = {month: _period_key(month, period) for month in months}
    project: dict[str, list] = {pkey: [] for pkey in keys.values()}  # in time order: period -> its buckets
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # counts -> the one equal tuple handed out
    all_profiles = []
    analyzed = skipped = 0
    for contributor, rows in cells.values():
        columns = [rows[level::CELL] for level in range(2, 8)]
        counts = list(zip(*columns))  # each cell's
        # period -> the index past its last cell, as a period's cells are adjacent
        ends = dict(zip(map(keys.__getitem__, rows[::CELL]), range(1, len(counts) + 1)))
        if len(ends) < len(counts):  # some period has more than one cell
            counts = [_vector_sum(counts[start:end]) for start, end in zip((0, *ends.values()), ends.values())]
        by_period = dict(zip(ends, map(shared.setdefault, counts, counts)))
        for pkey, levels in by_period.items():
            project[pkey].append(levels)
        all_profiles.append(ContributorProfile(
            contributor=contributor,
            total=tuple(map(sum, columns)),
            by_period=by_period,
            commit_count=sum(rows[8::CELL]),
        ))
        analyzed += sum(rows[9::CELL])
        skipped += sum(rows[10::CELL])
    all_profiles.sort(key=_profile_sort_key)
    profiles, bot_totals = [], []
    for profile in all_profiles:
        if is_bot(profile.contributor, bot_patterns):
            bot_totals.append(profile.total)
        else:
            profiles.append(profile)

    top = None
    if profiles:
        # the most proficient (by C1+C2) sorts first, its periods in time order
        best = profiles[0]
        rows = tuple((pkey, vec[Level.C1], vec[Level.C2]) for pkey, vec in best.by_period.items())
        top = TopContributor(contributor=best.contributor, periods=rows)
    sums = list(map(_vector_sum, project.values()))
    return ProjectReport(
        repo=repo,
        generated_at=max((rows[1 - CELL] for _, rows in cells.values()), default=0),  # each one's last cell
        period=period,
        project_total=_vector_sum(sums),
        project_by_period=dict(zip(project, map(shared.setdefault, sums, sums))),
        profiles=tuple(profiles),
        excluded_total=_vector_sum(bot_totals),
        top_contributor=top,
        commit_count=sum(profile.commit_count for profile in all_profiles),
        files_analyzed=analyzed,
        files_skipped=skipped,
    )


def build_report(scores: Iterable[CommitScore], **options) -> ProjectReport:
    """The project report of per-commit scores, read in one pass: `finish`, under `options`, of their `fold`."""
    return finish(fold(scores), **options)
