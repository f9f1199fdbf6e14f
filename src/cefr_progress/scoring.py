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
from dataclasses import dataclass
from datetime import datetime, timezone

from .analyzer import LevelVector, analyze_source
from .catalog import Catalog, Level
from .history import CommitRecord, ContributorId

DEFAULT_BOT_PATTERNS = (r"\[bot\]$",)


class Granularity(str, enum.Enum):
    MONTHLY = "monthly"
    YEARLY = "yearly"


class EmptyInput(Exception):
    """An aggregate query was asked of zero profiles."""


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


def commit_delta(before: LevelVector, after: LevelVector) -> LevelVector:
    """Component-wise max(after - before, 0)."""
    return LevelVector(tuple(max(a - b, 0) for a, b in zip(after.counts, before.counts)))


def level_vector(text: str, catalog: Catalog) -> LevelVector | None:
    """The level vector of one file text, or None when it does not parse."""
    result = analyze_source(text, catalog)
    return result.vector if result.parse_ok else None


def score_commit(
    record: CommitRecord, catalog: Catalog, memo: dict[str, LevelVector | None] | None = None
) -> CommitScore:
    """Sum the per-file clamped deltas of one commit.

    A file whose present side fails to parse is skipped and contributes
    nothing; absent sides (added/deleted/binary) count as the zero vector.
    `memo` maps texts to their `level_vector` under `catalog`; texts it
    lacks are analyzed and added, so a memo shared across commits analyzes
    each distinct text once.
    """
    if memo is None:
        memo = {}
    total = LevelVector.zero()
    analyzed = 0
    skipped = 0
    for change in record.changes:
        sides = []
        for text in (change.before_text, change.after_text):
            if text is not None and text not in memo:
                memo[text] = level_vector(text, catalog)
            sides.append(LevelVector.zero() if text is None else memo[text])
        before_vec, after_vec = sides
        if before_vec is None or after_vec is None:
            skipped += 1
            continue
        analyzed += 1
        total = total + commit_delta(before_vec, after_vec)
    return CommitScore(
        sha=record.sha,
        contributor=record.contributor,
        timestamp=record.timestamp,
        delta=total,
        files_analyzed=analyzed,
        files_skipped=skipped,
    )


def period_key(timestamp: int, period: Granularity) -> str:
    """UTC calendar bucket for a unix timestamp: "YYYY" or "YYYY-MM"."""
    moment = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return moment.strftime("%Y" if period is Granularity.YEARLY else "%Y-%m")


def _profile_sort_key(profile: ContributorProfile):
    return (-profile.total.c1_plus_c2(), -profile.total.total(), profile.contributor.anon_id)


def build_profiles(scores: list[CommitScore], period: Granularity) -> list[ContributorProfile]:
    """Per-contributor period buckets, ordered by C1+C2, then total, then anon_id."""
    buckets: dict[str, dict[str, LevelVector]] = {}
    counts: dict[str, int] = {}
    identities: dict[str, ContributorId] = {}
    for score in scores:
        key = score.contributor.anon_id
        identities.setdefault(key, score.contributor)
        counts[key] = counts.get(key, 0) + 1
        periods = buckets.setdefault(key, {})
        pkey = period_key(score.timestamp, period)
        periods[pkey] = periods.get(pkey, LevelVector.zero()) + score.delta

    profiles = []
    for key, periods in buckets.items():
        total = LevelVector.zero()
        for vec in periods.values():
            total = total + vec
        ordered = dict(sorted(periods.items()))
        profiles.append(
            ContributorProfile(
                contributor=identities[key],
                total=total,
                by_period=ordered,
                commit_count=counts[key],
            )
        )
    profiles.sort(key=_profile_sort_key)
    return profiles


def most_proficient_contributor(profiles: list[ContributorProfile]) -> TopContributor:
    """The contributor maximizing total C1+C2, with their per-period C1/C2 rows.

    Expects `build_profiles` order (or a filtered subsequence of it), whose
    first profile is the maximum and whose periods are already sorted.
    """
    if not profiles:
        raise EmptyInput("no contributor profiles")
    best = profiles[0]
    rows = tuple((pkey, vec[Level.C1], vec[Level.C2]) for pkey, vec in best.by_period.items())
    return TopContributor(contributor=best.contributor, periods=rows)


def project_rollup(
    scores: list[CommitScore], period: Granularity
) -> tuple[dict[str, LevelVector], LevelVector]:
    """Per-period sums across all contributors, plus the grand total."""
    by_period: dict[str, LevelVector] = {}
    total = LevelVector.zero()
    for score in scores:
        pkey = period_key(score.timestamp, period)
        by_period[pkey] = by_period.get(pkey, LevelVector.zero()) + score.delta
        total = total + score.delta
    return dict(sorted(by_period.items())), total


def is_bot(contributor: ContributorId, patterns: tuple[str, ...]) -> bool:
    return any(re.search(pattern, contributor.raw_name) for pattern in patterns)


def build_report(
    scores: list[CommitScore],
    *,
    repo: str,
    period: Granularity = Granularity.YEARLY,
    bot_patterns: tuple[str, ...] = DEFAULT_BOT_PATTERNS,
) -> ProjectReport:
    """Assemble the full project report from per-commit scores.

    Bot-matching identities stay in the project totals but are dropped from
    the contributor list; their sum lands in `excluded_total` so that
    project_total == sum(profile totals) + excluded_total holds exactly.
    generated_at is the newest analyzed commit timestamp, which keeps
    emission byte-deterministic for a fixed repository state.
    """
    all_profiles = build_profiles(scores, period)
    profiles = []
    excluded = LevelVector.zero()
    for profile in all_profiles:
        if is_bot(profile.contributor, bot_patterns):
            excluded = excluded + profile.total
        else:
            profiles.append(profile)

    by_period, total = project_rollup(scores, period)
    top = most_proficient_contributor(profiles) if profiles else None
    return ProjectReport(
        repo=repo,
        generated_at=max((s.timestamp for s in scores), default=0),
        period=period,
        project_total=total,
        project_by_period=by_period,
        profiles=tuple(profiles),
        excluded_total=excluded,
        top_contributor=top,
        commit_count=len(scores),
        files_analyzed=sum(s.files_analyzed for s in scores),
        files_skipped=sum(s.files_skipped for s in scores),
    )
