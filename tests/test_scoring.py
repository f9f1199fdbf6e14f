import calendar
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cefr_progress.analyzer import LevelVector
from cefr_progress.catalog import Level, default_catalog
from cefr_progress.history import CommitRecord, ContributorId, FileChange
from cefr_progress.scoring import (
    DEFAULT_BOT_PATTERNS,
    CommitScore,
    ContributorProfile,
    EmptyInput,
    Granularity,
    ProjectReport,
    TopContributor,
    build_profiles,
    build_report,
    commit_delta,
    is_bot,
    most_proficient_contributor,
    period_key,
    project_rollup,
    score_commit,
)

CATALOG = default_catalog()

ALICE = ContributorId.from_identity("Alice", "alice@example.com")
BOB = ContributorId.from_identity("Bob", "bob@example.com")
BOT = ContributorId.from_identity("dep[bot]", "dep-bot@example.com")

TS_2014 = 1400000000  # 2014-05-13 UTC
TS_2015 = 1430000000  # 2015-04-25 UTC


def make_score(contributor, ts, counts, sha="f" * 40):
    return CommitScore(
        sha=sha,
        contributor=contributor,
        timestamp=ts,
        delta=LevelVector(tuple(counts)),
        files_analyzed=1,
        files_skipped=0,
    )


def test_commit_delta_clamped_difference():
    before = LevelVector((46, 41, 25, 14, 12, 3))
    after = LevelVector((57, 49, 31, 12, 13, 8))
    assert commit_delta(before, after).as_list() == [11, 8, 6, 0, 1, 5]


def test_commit_delta_identity_is_zero():
    v = LevelVector((4, 0, 2, 1, 0, 9))
    assert commit_delta(v, v) == LevelVector.zero()


def test_commit_delta_pure_deletion_is_zero():
    assert commit_delta(LevelVector((5, 0, 0, 0, 0, 0)), LevelVector.zero()) == LevelVector.zero()


vectors = st.tuples(*[st.integers(min_value=0, max_value=500)] * 6).map(LevelVector)


@settings(max_examples=200, deadline=None)
@given(before=vectors, after=vectors)
def test_commit_delta_clamp_property(before, after):
    delta = commit_delta(before, after)
    for i in range(6):
        assert delta.counts[i] >= 0
        if after.counts[i] <= before.counts[i]:
            assert delta.counts[i] == 0
        else:
            assert delta.counts[i] == after.counts[i] - before.counts[i]


def _record(changes, contributor=ALICE, ts=TS_2014, sha="a" * 40):
    return CommitRecord(sha=sha, parent_sha=None, contributor=contributor, timestamp=ts, changes=tuple(changes))


def test_score_commit_added_file_counts_fully():
    record = _record([FileChange("new.py", "added", after_text="x = 1\ny = [1, 2]\n")])
    score = score_commit(record, CATALOG)
    # two assignments and one list literal, all A1
    assert score.delta.as_list() == [3, 0, 0, 0, 0, 0]
    assert (score.files_analyzed, score.files_skipped) == (1, 0)


def test_score_commit_deletion_contributes_nothing():
    record = _record([FileChange("old.py", "deleted", before_text="x = 1\n")])
    score = score_commit(record, CATALOG)
    assert score.delta == LevelVector.zero()
    assert score.files_analyzed == 1


def test_score_commit_sums_across_files():
    record = _record([
        FileChange("a.py", "added", after_text="x = 1\n"),
        FileChange("b.py", "added", after_text="d = {'k': 1}\ns = {1}\n"),
    ])
    score = score_commit(record, CATALOG)
    assert score.delta.as_list() == [3, 2, 0, 0, 0, 0]


def test_score_commit_clamps_per_file_before_summing():
    # one file loses two assignments, the other gains one: the loss must not
    # cancel the gain
    record = _record([
        FileChange("shrink.py", "modified", before_text="a = 1\nb = 2\nc = 3\n", after_text="a = 1\n"),
        FileChange("grow.py", "added", after_text="n = 1\n"),
    ])
    score = score_commit(record, CATALOG)
    assert score.delta.as_list() == [1, 0, 0, 0, 0, 0]


def test_score_commit_skips_parse_failures():
    record = _record([
        FileChange("bad.py", "added", after_text="def broken(:\n"),
        FileChange("good.py", "added", after_text="x = 1\n"),
    ])
    score = score_commit(record, CATALOG)
    assert score.delta.as_list() == [1, 0, 0, 0, 0, 0]
    assert (score.files_analyzed, score.files_skipped) == (1, 1)


def test_score_commit_skips_when_before_side_fails():
    record = _record([
        FileChange("was_py2.py", "modified", before_text='print "x"\n', after_text="print('x')\n"),
    ])
    score = score_commit(record, CATALOG)
    assert score.delta == LevelVector.zero()
    assert (score.files_analyzed, score.files_skipped) == (0, 1)


def test_score_commit_identical_rename_is_zero():
    text = "def f():\n    return 1\n"
    record = _record([FileChange("new.py", "renamed", before_text=text, after_text=text, old_path="old.py")])
    assert score_commit(record, CATALOG).delta == LevelVector.zero()


def test_period_key_uses_utc():
    # 2014-12-31T23:30:00Z
    assert period_key(1420068600, Granularity.YEARLY) == "2014"
    assert period_key(1420068600, Granularity.MONTHLY) == "2014-12"
    # half an hour later it is 2015 in UTC
    assert period_key(1420068600 + 3600, Granularity.YEARLY) == "2015"


def test_build_profiles_buckets_by_period():
    d1, d2 = (1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0)
    scores = [make_score(ALICE, TS_2014, d1), make_score(ALICE, TS_2015, d2)]
    (profile,) = build_profiles(scores, Granularity.YEARLY)
    assert profile.by_period == {
        "2014": LevelVector(d1),
        "2015": LevelVector(d2),
    }
    assert profile.total == LevelVector(d1) + LevelVector(d2)
    assert profile.commit_count == 2


def test_build_profiles_empty():
    assert build_profiles([], Granularity.YEARLY) == []


def test_build_profiles_ordering():
    scores = [
        make_score(ALICE, TS_2014, (9, 0, 0, 0, 0, 0)),   # big total, no C1/C2
        make_score(BOB, TS_2014, (0, 0, 0, 0, 1, 1)),     # small total, C1+C2 = 2
    ]
    profiles = build_profiles(scores, Granularity.YEARLY)
    assert [p.contributor.anon_id for p in profiles] == [BOB.anon_id, ALICE.anon_id]


def test_build_profiles_order_independent():
    rng = random.Random(7)
    scores = [
        make_score(ALICE, TS_2014, (1, 0, 0, 0, 1, 0), sha=f"{i:040x}") for i in range(5)
    ] + [
        make_score(BOB, TS_2015, (0, 2, 0, 0, 0, 1), sha=f"{i + 5:040x}") for i in range(5)
    ]
    reference = build_profiles(scores, Granularity.MONTHLY)
    for _ in range(5):
        shuffled = scores[:]
        rng.shuffle(shuffled)
        assert build_profiles(shuffled, Granularity.MONTHLY) == reference


def test_most_proficient_singleton():
    profiles = build_profiles([make_score(ALICE, TS_2014, (1, 0, 0, 0, 0, 0))], Granularity.YEARLY)
    top = most_proficient_contributor(profiles)
    assert top.contributor.anon_id == ALICE.anon_id
    assert top.periods == (("2014", 0, 0),)


def test_most_proficient_argmax_on_c1_c2():
    scores = [
        make_score(ALICE, TS_2014, (0, 0, 0, 0, 6, 4)),   # C1+C2 = 10
        make_score(BOB, TS_2014, (50, 0, 0, 0, 2, 1)),    # C1+C2 = 3
    ]
    top = most_proficient_contributor(build_profiles(scores, Granularity.YEARLY))
    assert top.contributor.anon_id == ALICE.anon_id
    assert top.periods == (("2014", 6, 4),)


def test_most_proficient_empty_raises():
    with pytest.raises(EmptyInput):
        most_proficient_contributor([])


def test_argmax_invariant_under_uniform_scaling():
    base = [
        make_score(ALICE, TS_2014, (2, 0, 0, 0, 3, 0)),
        make_score(BOB, TS_2015, (9, 0, 0, 0, 1, 1)),
    ]
    chosen = most_proficient_contributor(build_profiles(base, Granularity.YEARLY))
    for k in (2, 5, 17):
        scaled = [
            make_score(s.contributor, s.timestamp, tuple(c * k for c in s.delta.counts))
            for s in base
        ]
        top = most_proficient_contributor(build_profiles(scaled, Granularity.YEARLY))
        assert top.contributor.anon_id == chosen.contributor.anon_id


def test_project_rollup_single_period_equals_total():
    scores = [make_score(ALICE, TS_2014, (1, 2, 0, 0, 0, 0)), make_score(BOB, TS_2014, (3, 0, 1, 0, 0, 0))]
    by_period, total = project_rollup(scores, Granularity.YEARLY)
    assert list(by_period) == ["2014"]
    assert by_period["2014"] == total == LevelVector((4, 2, 1, 0, 0, 0))


def test_rollup_total_equals_profile_totals():
    scores = [
        make_score(ALICE, TS_2014, (1, 0, 0, 0, 1, 0)),
        make_score(BOB, TS_2015, (0, 2, 0, 0, 0, 1)),
        make_score(ALICE, TS_2015, (0, 0, 3, 0, 0, 0)),
    ]
    _, total = project_rollup(scores, Granularity.YEARLY)
    profile_sum = LevelVector.zero()
    for profile in build_profiles(scores, Granularity.YEARLY):
        profile_sum = profile_sum + profile.total
    assert profile_sum == total


def test_build_report_bot_residual_keeps_sum_identity():
    scores = [
        make_score(ALICE, TS_2014, (1, 0, 0, 0, 0, 0)),
        make_score(BOT, TS_2014, (0, 0, 0, 0, 0, 7)),
    ]
    report = build_report(scores, repo="fixture")
    assert [p.contributor.anon_id for p in report.profiles] == [ALICE.anon_id]
    assert report.excluded_total == LevelVector((0, 0, 0, 0, 0, 7))
    total = report.excluded_total
    for profile in report.profiles:
        total = total + profile.total
    assert total == report.project_total
    # bots never win the top-contributor query
    assert report.top_contributor.contributor.anon_id == ALICE.anon_id


def test_build_report_empty_scores():
    report = build_report([], repo="empty")
    assert report.project_total == LevelVector.zero()
    assert report.profiles == ()
    assert report.top_contributor is None
    assert report.generated_at == 0


def reference_report(scores, period):
    """`build_report` the plain way: a `period_key` and `LevelVector` sums for every score."""
    people = {}
    project = {}
    total = LevelVector.zero()
    for score in scores:
        pkey = period_key(score.timestamp, period)
        contributor, commits, periods = people.get(score.contributor.anon_id, (score.contributor, 0, {}))
        periods[pkey] = periods.get(pkey, LevelVector.zero()) + score.delta
        people[score.contributor.anon_id] = (contributor, commits + 1, periods)
        project[pkey] = project.get(pkey, LevelVector.zero()) + score.delta
        total = total + score.delta
    profiles = sorted(
        (
            ContributorProfile(contributor, sum(periods.values(), LevelVector.zero()),
                               dict(sorted(periods.items())), commits)
            for contributor, commits, periods in people.values()
        ),
        key=lambda p: (-p.total.c1_plus_c2(), -p.total.total(), p.contributor.anon_id),
    )
    kept = [p for p in profiles if not is_bot(p.contributor, DEFAULT_BOT_PATTERNS)]
    excluded = sum((p.total for p in profiles if p not in kept), LevelVector.zero())
    top = None
    if kept:
        rows = tuple((pkey, vec[Level.C1], vec[Level.C2]) for pkey, vec in kept[0].by_period.items())
        top = TopContributor(kept[0].contributor, rows)
    return ProjectReport(
        repo="fixture",
        generated_at=max((s.timestamp for s in scores), default=0),
        period=period,
        project_total=total,
        project_by_period=dict(sorted(project.items())),
        profiles=tuple(kept),
        excluded_total=excluded,
        top_contributor=top,
        commit_count=len(scores),
        files_analyzed=sum(s.files_analyzed for s in scores),
        files_skipped=sum(s.files_skipped for s in scores),
    )


# a second spelling of Alice's email: same anon_id, the first one seen names the profile
ALICE_UPPER = ContributorId.from_identity("A. Dev", "ALICE@example.com ")
# the first and last second of UTC months between 1900 and 2100, and their neighbours
month_edges = st.builds(
    lambda year, month, offset: calendar.timegm((year, month, 1, 0, 0, 0)) + offset,
    st.integers(min_value=1900, max_value=2100),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([-1, 0, 1]),
)
scores_strategy = st.lists(
    st.builds(
        CommitScore,
        sha=st.just("f" * 40),
        contributor=st.sampled_from([ALICE, ALICE_UPPER, BOB, BOT]),
        timestamp=st.one_of(month_edges, st.integers(min_value=-2_208_988_800, max_value=4_102_444_800)),
        delta=st.tuples(*[st.integers(min_value=0, max_value=3)] * 6).map(LevelVector),
        files_analyzed=st.integers(min_value=0, max_value=3),
        files_skipped=st.integers(min_value=0, max_value=2),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(scores=scores_strategy, period=st.sampled_from(list(Granularity)))
def test_build_report_matches_per_score_reference(scores, period):
    # repr also compares the order of every dict, which the emitted files follow
    assert repr(build_report(scores, repo="fixture", period=period)) == repr(reference_report(scores, period))
