"""Added-proficiency scoring and aggregation.

A commit's contribution is the per-file clamped difference between the
six-level vector after and before the change: components that shrink
(deletion) are floored at zero, per file and per level, before summing
across the commit's files.  `walk` scores the commits and folds the scores
into cells, one per contributor and UTC month, which the analysis store
keeps with each blob's catalog-free stored form; `finish` rolls the cells
up by contributor and by calendar period under any report options.  Six
level counts, A1 first, are a plain tuple of ints from the memo to the
report.  Each record here is a NamedTuple, which pickles by value.
"""

from __future__ import annotations

import enum
import re
import sys
from array import array
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from .catalog import KINDS, Catalog, Level
from .history import CommitRecord, ContributorId

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
#: every report of that history is made from: each anon_id's oldest
#: ContributorId and its cells, in time order, in one sequence of ints
Cells = dict[str, tuple[ContributorId, Sequence[int]]]


#: The stored form of one blob's analysis, which `analyzer.blob_analysis`
#: makes.  Bytes hold the count of each of the analyzer's KINDS, in that
#: order, as native unsigned 32-bit ints.  A str says why there are none:
#: NO_TEXT for a blob with no text (binary or missing), else the name of the
#: exception that refused the source.
Stored = bytes | str
NO_TEXT = ""
_PACKED_SIZE = array("I").itemsize * len(KINDS)
#: Skip reasons that tell of the run, not only of the source: free memory,
#: the recursion limit and call depth the parser and compiler start from,
#: and a worker process that died analyzing it.  A blob refused for one of
#: them is analyzed again by the next run.
PASSING = frozenset({"MemoryError", "RecursionError", "BrokenProcessPool"})
#: What else a stored form depends on: the packing's byte order and int size,
#: the interpreter, whose grammar and compiler decide the verdict, the mark
#: of no text, the reasons never kept, and the kind list, which the default
#: catalog's table sets and the bytes follow.
STORED_FORM_KEY = f"{sys.byteorder} {array('I').itemsize} {sys.version} {NO_TEXT!r} {sorted(PASSING)} {' '.join(KINDS)}"


def is_stored(value: object) -> bool:
    """Whether `value`, read back from outside this process, is a stored form."""
    if type(value) is bytes:
        return len(value) == _PACKED_SIZE
    return type(value) is str and (value == NO_TEXT or value.isidentifier())


def analyze_source(source: str, catalog: Catalog) -> AnalysisResult:
    """`analyzer.analyze_source`, imported at the first call; `score_commit` calls it by this name."""
    from . import analyzer

    return analyzer.analyze_source(source, catalog)


def score_commit(record: CommitRecord, catalog: Catalog) -> CommitScore:
    """`score_blobs` for a commit recorded by its texts: each distinct text
    of the record stands in for a blob id and is analyzed once, as a
    FileChange lines up with a change of `walk.CommitBlobs`."""
    from .walk import SKIPPED, score_blobs

    memo: dict[str, tuple[int, ...] | None] = {}
    for change in record.changes:
        for text in (change.before_text, change.after_text):
            if text is not None and text not in memo:
                result = analyze_source(text, catalog)
                memo[text] = result.vector if result.parse_ok else SKIPPED
    return score_blobs(record, memo)


def _period_key(month: int, period: Granularity) -> str:
    """The calendar bucket of a cell's month: "YYYY" or "YYYY-MM", where the
    year has more digits past year 9999."""
    year, month = divmod(month, 12)
    return str(year) if period is Granularity.YEARLY else f"{year}-{month + 1:02d}"


def _profile_sort_key(profile: ContributorProfile):
    total = profile.total
    return (-(total[Level.C1] + total[Level.C2]), -sum(total), profile.contributor.anon_id)


def _vector_sum(rows) -> tuple[int, ...]:
    """The component-wise sum of 6-int rows; a zero row keeps six columns when there are none."""
    return tuple(map(sum, zip(*rows, [0] * 6)))


def is_bot(contributor: ContributorId, patterns: tuple[str, ...]) -> bool:
    return any(re.search(pattern, contributor.raw_name) for pattern in patterns)


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
    """The project report of per-commit scores in the walk's order, newest
    first as the text view gives them: `finish`, under `options`, of `walk.fold`."""
    from .walk import fold

    return finish(fold(scores), **options)
