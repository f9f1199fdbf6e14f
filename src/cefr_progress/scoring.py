"""Added-proficiency scoring and aggregation.

A commit's contribution is the per-file clamped difference between the
six-level vector after and before the change: components that shrink
(deletion) are floored at zero, per file and per level, before summing
across the commit's files.  Scores then roll up by contributor and by
UTC calendar period.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime, timezone

from .analyzer import LevelVector, analyze_source, source_text
from .catalog import Catalog, Level
from .history import CommitBlobs, CommitRecord, ContributorId

DEFAULT_BOT_PATTERNS = (r"\[bot\]$",)


class Granularity(str, enum.Enum):
    MONTHLY = "monthly"
    YEARLY = "yearly"


@dataclass(frozen=True)
class CommitScore:
    sha: str
    contributor: ContributorId
    timestamp: int
    delta: LevelVector
    files_analyzed: int
    files_skipped: int


@dataclass(frozen=True)
class ContributorProfile:
    contributor: ContributorId
    total: LevelVector
    by_period: dict[str, LevelVector]
    commit_count: int


@dataclass(frozen=True)
class TopContributor:
    contributor: ContributorId
    # (period key, C1 count, C2 count) rows over the contributor's active periods
    periods: tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class ProjectReport:
    repo: str
    generated_at: int
    period: Granularity
    project_total: LevelVector
    project_by_period: dict[str, LevelVector]
    profiles: tuple[ContributorProfile, ...]
    excluded_total: LevelVector
    top_contributor: TopContributor | None
    commit_count: int
    files_analyzed: int
    files_skipped: int


def level_vector(text: str, catalog: Catalog) -> LevelVector | None:
    """The level vector of one file text, or None when it does not parse."""
    result = analyze_source(text, catalog)
    return result.vector if result.parse_ok else None


#: A blob's memo entry when it has no text: binary or missing.  Any other
#: entry is the blob's six level counts, or None (SKIPPED) when it does not
#: parse or nests too deep.  Entries compare by value, so they survive pickling.
ABSENT = ()
SKIPPED = None

Entry = tuple[int, ...] | None


def blob_entry(data: bytes | None, catalog: Catalog) -> Entry:
    """The memo entry of one blob from its raw bytes; `data` is None for a blob with no text."""
    if data is None:
        return ABSENT
    vector = level_vector(source_text(data), catalog)
    return SKIPPED if vector is None else vector.counts


_ZERO = (0,) * 6  # the counts of a side that does not exist


def _score(sha: str, contributor: ContributorId, timestamp: int, sides) -> CommitScore:
    """Sum the per-file clamped deltas of one commit's (before, after) count pairs.

    A pair with a SKIPPED side is skipped and contributes nothing.
    """
    total = [0] * 6
    analyzed = 0
    skipped = 0
    for before, after in sides:
        if before is SKIPPED or after is SKIPPED:
            skipped += 1
            continue
        analyzed += 1
        for level, (old, new) in enumerate(zip(before, after)):
            if new > old:
                total[level] += new - old
    return CommitScore(sha, contributor, timestamp, LevelVector(tuple(total)), analyzed, skipped)


def score_commit(
    record: CommitRecord, catalog: Catalog, memo: dict[str, LevelVector | None] | None = None
) -> CommitScore:
    """Sum the per-file clamped deltas of one commit.

    A file whose present side fails to parse is skipped and contributes
    nothing; absent sides (added/deleted/binary/symlink) count as the zero
    vector.  The deltas are summed as ints into one LevelVector per commit.
    `memo` maps texts to their `level_vector` under `catalog`; texts it
    lacks are analyzed and added, so a memo shared across commits analyzes
    each distinct text once.
    """
    if memo is None:
        memo = {}

    def counts(text: str | None) -> tuple[int, ...] | None:
        if text is None:
            return _ZERO
        if text not in memo:
            memo[text] = level_vector(text, catalog)
        vector = memo[text]
        return SKIPPED if vector is None else vector.counts

    sides = [(counts(change.before_text), counts(change.after_text)) for change in record.changes]
    return _score(record.sha, record.contributor, record.timestamp, sides)


def score_blobs(commit: CommitBlobs, memo: dict[str, Entry]) -> CommitScore:
    """`score_commit` for a commit recorded by blob ids, from the memo entries
    of its blobs.  A side with no blob id is absent; an id the memo lacks
    raises KeyError.  A change with no text on either side is left out, as
    `extract_commits` leaves it out."""
    sides = []
    for _, old, new in commit.changes:
        before = ABSENT if old is None else memo[old]
        after = ABSENT if new is None else memo[new]
        if before == ABSENT:
            if after == ABSENT:
                continue
            before = _ZERO
        elif after == ABSENT:
            after = _ZERO
        sides.append((before, after))
    return _score(commit.sha, commit.contributor, commit.timestamp, sides)


def period_key(timestamp: int, period: Granularity) -> str:
    """UTC calendar bucket for a unix timestamp: "YYYY" or "YYYY-MM"."""
    moment = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return moment.strftime("%Y" if period is Granularity.YEARLY else "%Y-%m")


def _profile_sort_key(profile: ContributorProfile):
    return (-profile.total.c1_plus_c2(), -profile.total.total(), profile.contributor.anon_id)


def _vector_sum(rows) -> LevelVector:
    """The component-wise sum of 6-int rows; a zero row keeps six columns when there are none."""
    return LevelVector(tuple(map(sum, zip(*rows, [0] * 6))))


def is_bot(contributor: ContributorId, patterns: tuple[str, ...]) -> bool:
    return any(re.search(pattern, contributor.raw_name) for pattern in patterns)


def build_report(
    scores: Iterable[CommitScore],
    *,
    repo: str,
    period: Granularity = Granularity.YEARLY,
    bot_patterns: tuple[str, ...] = DEFAULT_BOT_PATTERNS,
) -> ProjectReport:
    """Assemble the full project report from per-commit scores, read in one pass.

    Contributor profiles are ordered by C1+C2, then total, then anon_id.
    Bot-matching identities stay in the project totals but are dropped from
    the contributor list; their sum lands in `excluded_total` so that
    project_total == sum(profile totals) + excluded_total holds exactly.
    generated_at is the newest analyzed commit timestamp (0 with no scores),
    which keeps emission byte-deterministic for a fixed repository state.

    Buckets are plain 6-int lists until the pass ends, and each commit's
    period key comes from a memo keyed by UTC day, which never straddles a
    month or a year.
    """
    keys: dict[int, str] = {}  # UTC day -> period key
    project: dict[str, list[int]] = {}
    people: dict[str, list] = {}  # anon_id -> [ContributorId, commit count, {period key: counts}]
    analyzed = skipped = 0
    newest = float("-inf")
    for score in scores:
        timestamp = score.timestamp
        analyzed += score.files_analyzed
        skipped += score.files_skipped
        if timestamp > newest:
            newest = timestamp
        day = timestamp // 86400
        pkey = keys.get(day)
        if pkey is None:
            pkey = keys[day] = period_key(timestamp, period)
        contributor = score.contributor
        person = people.get(contributor.anon_id)
        if person is None:
            person = people[contributor.anon_id] = [contributor, 0, {}]
        person[1] += 1
        mine = person[2].get(pkey)
        if mine is None:
            mine = person[2][pkey] = [0] * 6
        ours = project.get(pkey)
        if ours is None:
            ours = project[pkey] = [0] * 6
        for level, count in enumerate(score.delta.counts):
            if count:
                mine[level] += count
                ours[level] += count

    all_profiles = [
        ContributorProfile(
            contributor=contributor,
            total=_vector_sum(periods.values()),
            by_period={pkey: LevelVector(tuple(counts)) for pkey, counts in sorted(periods.items())},
            commit_count=commit_count,
        )
        for contributor, commit_count, periods in people.values()
    ]
    all_profiles.sort(key=_profile_sort_key)
    profiles = []
    excluded = LevelVector.zero()
    for profile in all_profiles:
        if is_bot(profile.contributor, bot_patterns):
            excluded = excluded + profile.total
        else:
            profiles.append(profile)

    top = None
    if profiles:
        # the most proficient (by C1+C2) sorts first, its periods sorted
        best = profiles[0]
        rows = tuple((pkey, vec[Level.C1], vec[Level.C2]) for pkey, vec in best.by_period.items())
        top = TopContributor(contributor=best.contributor, periods=rows)
    return ProjectReport(
        repo=repo,
        generated_at=newest if people else 0,
        period=period,
        project_total=_vector_sum(project.values()),
        project_by_period={pkey: LevelVector(tuple(counts)) for pkey, counts in sorted(project.items())},
        profiles=tuple(profiles),
        excluded_total=excluded,
        top_contributor=top,
        commit_count=sum(profile.commit_count for profile in all_profiles),
        files_analyzed=analyzed,
        files_skipped=skipped,
    )
