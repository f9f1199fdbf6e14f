import calendar
import pickle
import random
from array import array
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cefr_progress.analyzer import analyze_source
from cefr_progress.catalog import KINDS, Level, default_catalog, load_catalog
from cefr_progress.analyzer import blob_analysis, source_analysis
from cefr_progress.history import CommitRecord, ContributorId, FileChange, RepoSpec, extract_commits, prepare_repo
from cefr_progress.scoring import (
    DEFAULT_BOT_PATTERNS,
    CommitScore,
    ContributorProfile,
    Granularity,
    ProjectReport,
    TopContributor,
    build_report,
    is_bot,
    score_commit,
)
from cefr_progress.walk import SKIPPED, CommitBlobs, ask, entry_folder, score_blobs, walk_history

from conftest import GitFixture
from oracle import vector_sum

CATALOG = default_catalog()

ALICE = ContributorId.from_identity("Alice", "alice@example.com")
BOB = ContributorId.from_identity("Bob", "bob@example.com")
BOT = ContributorId.from_identity("dep[bot]", "dep-bot@example.com")

TS_2014 = 1400000000  # 2014-05-13 UTC
TS_2015 = 1430000000  # 2015-04-25 UTC


def profiles_of(scores, period=Granularity.YEARLY):
    """The report's contributor profiles, with no identity excluded as a bot."""
    return list(build_report(scores, repo="r", period=period, bot_patterns=()).profiles)


def make_score(contributor, ts, counts, sha="f" * 40):
    return CommitScore(
        sha=sha,
        contributor=contributor,
        timestamp=ts,
        delta=tuple(counts),
        files_analyzed=1,
        files_skipped=0,
    )


def assert_level_counts(*values):
    """Each value is level counts as the library hands them out: a plain tuple of six ints."""
    for value in values:
        assert type(value) is tuple and len(value) == 6 and all(type(c) is int for c in value), value


def _record(changes, contributor=ALICE, ts=TS_2014, sha="a" * 40):
    return CommitRecord(sha=sha, contributor=contributor, timestamp=ts, changes=tuple(changes))


def commit_delta(before, after):
    """The per-file reference rule: component-wise max(after - before, 0)."""
    return tuple(max(a - b, 0) for a, b in zip(after, before))


def _commit(changes, contributor=ALICE, ts=TS_2014, sha="a" * 40):
    return CommitBlobs(sha=sha, contributor=contributor, timestamp=ts, changes=tuple(changes))


def scored_delta(before, after):
    """`score_blobs`'s delta for one modified file whose blobs have the vectors `before` and `after`."""
    commit = _commit([("f.py", "b" * 40, "c" * 40)])
    return score_blobs(commit, {"b" * 40: before, "c" * 40: after}).delta


def test_commit_delta_clamped_difference():
    before = (46, 41, 25, 14, 12, 3)
    after = (57, 49, 31, 12, 13, 8)
    assert scored_delta(before, after) == (11, 8, 6, 0, 1, 5)


def test_commit_delta_identity_is_zero():
    v = (4, 0, 2, 1, 0, 9)
    assert scored_delta(v, v) == (0,) * 6


def test_commit_delta_pure_deletion_is_zero():
    assert scored_delta((5, 0, 0, 0, 0, 0), (0,) * 6) == (0,) * 6


vectors = st.tuples(*[st.integers(min_value=0, max_value=500)] * 6)


@settings(max_examples=200, deadline=None)
@given(before=vectors, after=vectors)
def test_commit_delta_clamp_property(before, after):
    delta = scored_delta(before, after)
    for i in range(6):
        assert delta[i] >= 0
        if after[i] <= before[i]:
            assert delta[i] == 0
        else:
            assert delta[i] == after[i] - before[i]


def test_score_commit_added_file_counts_fully():
    record = _record([FileChange("new.py", after_text="x = 1\ny = [1, 2]\n")])
    score = score_commit(record, CATALOG)
    # two assignments and one list literal, all A1
    assert score.delta == (3, 0, 0, 0, 0, 0)
    assert (score.files_analyzed, score.files_skipped) == (1, 0)


def test_score_commit_deletion_contributes_nothing():
    record = _record([FileChange("old.py", before_text="x = 1\n")])
    score = score_commit(record, CATALOG)
    assert score.delta == (0,) * 6
    assert score.files_analyzed == 1


def test_score_commit_sums_across_files():
    record = _record([
        FileChange("a.py", after_text="x = 1\n"),
        FileChange("b.py", after_text="d = {'k': 1}\ns = {1}\n"),
    ])
    score = score_commit(record, CATALOG)
    assert score.delta == (3, 2, 0, 0, 0, 0)


def test_score_commit_clamps_per_file_before_summing():
    # one file loses two assignments, the other gains one: the loss must not
    # cancel the gain
    record = _record([
        FileChange("shrink.py", before_text="a = 1\nb = 2\nc = 3\n", after_text="a = 1\n"),
        FileChange("grow.py", after_text="n = 1\n"),
    ])
    score = score_commit(record, CATALOG)
    assert score.delta == (1, 0, 0, 0, 0, 0)


def test_score_commit_skips_parse_failures():
    record = _record([
        FileChange("bad.py", after_text="def broken(:\n"),
        FileChange("good.py", after_text="x = 1\n"),
    ])
    score = score_commit(record, CATALOG)
    assert score.delta == (1, 0, 0, 0, 0, 0)
    assert (score.files_analyzed, score.files_skipped) == (1, 1)


def test_score_commit_skips_when_before_side_fails():
    record = _record([
        FileChange("was_py2.py", before_text='print "x"\n', after_text="print('x')\n"),
    ])
    score = score_commit(record, CATALOG)
    assert score.delta == (0,) * 6
    assert (score.files_analyzed, score.files_skipped) == (0, 1)


def test_score_commit_identical_rename_is_zero():
    text = "def f():\n    return 1\n"
    # a rename carries the old path's text as its before text
    record = _record([FileChange("new.py", before_text=text, after_text=text)])
    assert score_commit(record, CATALOG).delta == (0,) * 6


sides = st.one_of(st.none(), st.just("unparseable"), vectors)


@settings(max_examples=200, deadline=None)
@given(files=st.lists(st.tuples(sides, sides), max_size=5))
def test_score_blobs_matches_per_file_reference(files):
    memo = {}  # blob id -> its counts, or SKIPPED when it does not parse
    changes = []
    for i, pair in enumerate(files):
        oids = []
        for side, value in zip("ba", pair):
            oid = None if value is None else f"{side}{i}"
            if oid is not None:
                memo[oid] = SKIPPED if value == "unparseable" else value
            oids.append(oid)
        changes.append((f"f{i}.py", *oids))
    # the reference: one clamped delta per file with a side, added up;
    # a file with no side holds no text and is left out
    total, analyzed, skipped = vector_sum(), 0, 0
    for before, after in files:
        if "unparseable" in (before, after):
            skipped += 1
        elif (before, after) != (None, None):
            analyzed += 1
            total = vector_sum(total, commit_delta(before or (0,) * 6, after or (0,) * 6))
    score = score_blobs(_commit(changes), memo)
    assert score.delta == total
    assert_level_counts(score.delta)
    assert (score.files_analyzed, score.files_skipped) == (analyzed, skipped)


def test_score_blobs_of_a_commit_with_no_changes():
    score = score_blobs(_commit([]), {})
    assert type(score) is CommitScore
    assert score == CommitScore("a" * 40, ALICE, TS_2014, (0,) * 6, 0, 0)


def test_commit_score_keeps_its_fields_and_pickles():
    score = make_score(BOB, TS_2015, [1, 0, 2, 0, 0, 3], sha="b" * 40)  # by keyword
    # build_report unpacks scores by position, and worker processes pickle them
    assert tuple(score) == ("b" * 40, BOB, TS_2015, (1, 0, 2, 0, 0, 3), 1, 0)
    copied = pickle.loads(pickle.dumps(score))
    assert type(copied) is CommitScore and copied == score


def test_a_folder_folds_each_stored_form_under_its_own_catalog(tmp_path):
    rules = tmp_path / "rules.cat"
    rules.write_text("if_statement C2\nsimple_assignment B1\nlist_literal A2\n")
    override = load_catalog(rules)
    source = "x = [1]\nif x:\n    pass\n"
    stored = source_analysis(source)
    entries = []
    for catalog in (CATALOG, override):
        fold = entry_folder(catalog)
        entry = fold(stored)
        assert entry == analyze_source(source, catalog).vector
        assert_level_counts(analyze_source(source, catalog).vector)
        assert fold(bytes(bytearray(stored))) is entry  # equal bytes, another object
        entries.append(entry)
    assert entries[0] != entries[1]


def test_a_folder_hands_out_one_tuple_per_distinct_entry():
    level_kinds = {}  # level -> the indexes in KINDS of its kinds
    for index, kind in enumerate(KINDS):
        level_kinds.setdefault(CATALOG.levels.get(kind), []).append(index)
    first, second = next(kinds for level, kinds in level_kinds.items() if level is not None and len(kinds) > 1)[:2]
    packed = []
    for index in (first, second):
        counts = array("I", [0] * len(KINDS))
        counts[index] = 1
        packed.append(counts.tobytes())
    fold = entry_folder(CATALOG)
    assert packed[0] != packed[1]
    assert fold(packed[0]) is fold(packed[1])


YEAR_ONE = datetime(1, 1, 1, tzinfo=timezone.utc)
FOUR_CENTURIES_S = 146_097 * 86_400  # the Gregorian calendar repeats every 400 years


def period_key(timestamp, period):
    """The UTC period of `timestamp` by datetime's calendar, moved by whole
    400-year cycles so that years past 9999 have one too."""
    cycles, rest = divmod(timestamp - int(YEAR_ONE.timestamp()), FOUR_CENTURIES_S)
    moment = YEAR_ONE + timedelta(seconds=rest)
    year = moment.year + 400 * cycles
    return str(year) if period is Granularity.YEARLY else f"{year}-{moment.month:02d}"


def reported_period(timestamp, period):
    """The period `finish` puts a cell at `timestamp` in: the one period of a one-commit report."""
    (key,) = build_report([make_score(ALICE, timestamp, (1, 0, 0, 0, 0, 0))], repo="r", period=period).project_by_period
    return key


def test_finish_buckets_each_cell_by_its_utc_period():
    # finish, and the reference that the report tests compare it against
    for key in (reported_period, period_key):
        # 2014-12-31T23:30:00Z
        assert key(1420068600, Granularity.YEARLY) == "2014"
        assert key(1420068600, Granularity.MONTHLY) == "2014-12"
        # half an hour later it is 2015 in UTC
        assert key(1420068600 + 3600, Granularity.YEARLY) == "2015"
        # past 9999, as far as git records: the year has more than four digits
        assert key(253402300800, Granularity.YEARLY) == "10000"
        assert key(253402300800, Granularity.MONTHLY) == "10000-01"
        assert key(2**63 - 1, Granularity.YEARLY) == "292277026596"
        assert key(2**63 - 1, Granularity.MONTHLY) == "292277026596-12"
    # every date datetime represents keeps the key datetime gives it: in one
    # report, one A1 construct per date counts each date in its own period
    first = int(YEAR_ONE.timestamp())
    rng = random.Random(7)
    timestamps = [first, 253402300800 - 1, 951782400, 951868800] + [
        rng.randrange(first, 253402300800) for _ in range(20_000)]
    scores = [make_score(ALICE, timestamp, (1, 0, 0, 0, 0, 0)) for timestamp in timestamps]
    for period, layout in ((Granularity.YEARLY, "%Y"), (Granularity.MONTHLY, "%Y-%m")):
        keys = Counter(datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime(layout) for timestamp in timestamps)
        by_period = build_report(scores, repo="r", period=period).project_by_period
        assert {pkey: counts[0] for pkey, counts in by_period.items()} == keys


def test_build_profiles_buckets_by_period():
    d1, d2 = (1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0)
    scores = [make_score(ALICE, TS_2014, d1), make_score(ALICE, TS_2015, d2)]
    (profile,) = profiles_of(scores)
    assert profile.by_period == {
        "2014": d1,
        "2015": d2,
    }
    assert profile.total == vector_sum(d1, d2)
    assert profile.commit_count == 2


def test_build_profiles_empty():
    assert profiles_of([]) == []


def test_build_profiles_ordering():
    scores = [
        make_score(ALICE, TS_2014, (9, 0, 0, 0, 0, 0)),   # big total, no C1/C2
        make_score(BOB, TS_2014, (0, 0, 0, 0, 1, 1)),     # small total, C1+C2 = 2
    ]
    profiles = profiles_of(scores)
    assert [p.contributor.anon_id for p in profiles] == [BOB.anon_id, ALICE.anon_id]


def test_build_profiles_order_independent():
    rng = random.Random(7)
    scores = [
        make_score(ALICE, TS_2014, (1, 0, 0, 0, 1, 0), sha=f"{i:040x}") for i in range(5)
    ] + [
        make_score(BOB, TS_2015, (0, 2, 0, 0, 0, 1), sha=f"{i + 5:040x}") for i in range(5)
    ]
    reference = profiles_of(scores, Granularity.MONTHLY)
    for _ in range(5):
        shuffled = scores[:]
        rng.shuffle(shuffled)
        assert profiles_of(shuffled, Granularity.MONTHLY) == reference


def top_contributor(scores):
    """The report's most proficient contributor, with no identity excluded as a bot."""
    return build_report(scores, repo="r", bot_patterns=()).top_contributor


def test_most_proficient_singleton():
    top = top_contributor([make_score(ALICE, TS_2014, (1, 0, 0, 0, 0, 0))])
    assert top.contributor.anon_id == ALICE.anon_id
    assert top.periods == (("2014", 0, 0),)


def test_most_proficient_argmax_on_c1_c2():
    scores = [
        make_score(ALICE, TS_2014, (0, 0, 0, 0, 6, 4)),   # C1+C2 = 10
        make_score(BOB, TS_2014, (50, 0, 0, 0, 2, 1)),    # C1+C2 = 3
    ]
    top = top_contributor(scores)
    assert top.contributor.anon_id == ALICE.anon_id
    assert top.periods == (("2014", 6, 4),)


def test_argmax_invariant_under_uniform_scaling():
    base = [
        make_score(ALICE, TS_2014, (2, 0, 0, 0, 3, 0)),
        make_score(BOB, TS_2015, (9, 0, 0, 0, 1, 1)),
    ]
    chosen = top_contributor(base)
    for k in (2, 5, 17):
        scaled = [
            make_score(s.contributor, s.timestamp, tuple(c * k for c in s.delta))
            for s in base
        ]
        top = top_contributor(scaled)
        assert top.contributor.anon_id == chosen.contributor.anon_id


def test_project_rollup_single_period_equals_total():
    scores = [make_score(ALICE, TS_2014, (1, 2, 0, 0, 0, 0)), make_score(BOB, TS_2014, (3, 0, 1, 0, 0, 0))]
    report = build_report(scores, repo="r", bot_patterns=())
    assert list(report.project_by_period) == ["2014"]
    assert report.project_by_period["2014"] == report.project_total == (4, 2, 1, 0, 0, 0)


def test_rollup_total_equals_profile_totals():
    scores = [
        make_score(ALICE, TS_2014, (1, 0, 0, 0, 1, 0)),
        make_score(BOB, TS_2015, (0, 2, 0, 0, 0, 1)),
        make_score(ALICE, TS_2015, (0, 0, 3, 0, 0, 0)),
    ]
    report = build_report(scores, repo="r", bot_patterns=())
    profile_sum = vector_sum(*(profile.total for profile in report.profiles))
    assert profile_sum == report.project_total


def test_build_report_bot_residual_keeps_sum_identity():
    scores = [
        make_score(ALICE, TS_2014, (1, 0, 0, 0, 0, 0)),
        make_score(BOT, TS_2014, (0, 0, 0, 0, 0, 7)),
    ]
    report = build_report(scores, repo="fixture")
    assert [p.contributor.anon_id for p in report.profiles] == [ALICE.anon_id]
    assert report.excluded_total == (0, 0, 0, 0, 0, 7)
    total = vector_sum(report.excluded_total, *(profile.total for profile in report.profiles))
    assert total == report.project_total
    # bots never win the top-contributor query
    assert report.top_contributor.contributor.anon_id == ALICE.anon_id


def test_build_report_empty_scores():
    report = build_report([], repo="empty")
    assert report.project_total == (0,) * 6
    assert report.profiles == ()
    assert report.top_contributor is None
    assert report.generated_at == 0


def by_time(periods):
    """`periods` sorted by time: by the year, then the month, of each "YYYY" or "YYYY-MM" key."""
    return dict(sorted(periods.items(), key=lambda item: [int(part) for part in item[0].split("-")]))


def reference_report(scores, period):
    """`build_report` the plain way: a `period_key` and `vector_sum` for every
    score, and every dict of periods sorted by the numbers in its keys."""
    people = {}
    project = {}
    total = vector_sum()
    for score in scores:
        pkey = period_key(score.timestamp, period)
        _, commits, periods = people.get(score.contributor.anon_id, (None, 0, {}))
        periods[pkey] = vector_sum(periods.get(pkey, (0,) * 6), score.delta)
        people[score.contributor.anon_id] = (score.contributor, commits + 1, periods)
        project[pkey] = vector_sum(project.get(pkey, (0,) * 6), score.delta)
        total = vector_sum(total, score.delta)
    profiles = sorted(
        (
            ContributorProfile(contributor, vector_sum(*periods.values()), by_time(periods), commits)
            for contributor, commits, periods in people.values()
        ),
        key=lambda p: (-(p.total[Level.C1] + p.total[Level.C2]), -sum(p.total), p.contributor.anon_id),
    )
    kept = [p for p in profiles if not is_bot(p.contributor, DEFAULT_BOT_PATTERNS)]
    excluded = vector_sum(*(p.total for p in profiles if p not in kept))
    top = None
    if kept:
        rows = tuple((pkey, vec[Level.C1], vec[Level.C2]) for pkey, vec in kept[0].by_period.items())
        top = TopContributor(kept[0].contributor, rows)
    return ProjectReport(
        repo="fixture",
        generated_at=max((s.timestamp for s in scores), default=0),
        period=period,
        project_total=total,
        project_by_period=by_time(project),
        profiles=tuple(kept),
        excluded_total=excluded,
        top_contributor=top,
        commit_count=len(scores),
        files_analyzed=sum(s.files_analyzed for s in scores),
        files_skipped=sum(s.files_skipped for s in scores),
    )


# a second spelling of Alice's email: same anon_id, the last one seen (the oldest commit) names the profile
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
        # 1900-2100, where time order is string order, and year 1 to past year 12000, where it is not
        timestamp=st.one_of(month_edges, st.integers(min_value=-2_208_988_800, max_value=4_102_444_800),
                            st.integers(min_value=-62_135_596_800, max_value=316_592_409_600)),
        delta=st.tuples(*[st.integers(min_value=0, max_value=3)] * 6),
        files_analyzed=st.integers(min_value=0, max_value=3),
        files_skipped=st.integers(min_value=0, max_value=2),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(scores=scores_strategy, period=st.sampled_from(list(Granularity)))
def test_build_report_matches_per_score_reference(scores, period):
    report = build_report(scores, repo="fixture", period=period)
    # repr also compares the order of every dict, which the emitted files follow
    assert repr(report) == repr(reference_report(scores, period))
    assert_level_counts(report.project_total, report.excluded_total, *report.project_by_period.values())
    for profile in report.profiles:
        assert_level_counts(profile.total, *profile.by_period.values())


@settings(max_examples=100, deadline=None)
@given(scores=scores_strategy, period=st.sampled_from(list(Granularity)))
def test_build_report_reads_a_one_shot_stream(scores, period):
    once = build_report((score for score in scores), repo="fixture", period=period)
    assert repr(once) == repr(build_report(scores, repo="fixture", period=period))


def _walked(repo, catalog) -> tuple[dict, list]:
    """The memo entry under `catalog` of each blob the walk of `repo` names, and its commits, newest first."""
    fold, memo, commits = entry_folder(catalog), {}, []
    with repo.cat_file() as git:
        for oids, walked in walk_history(repo):
            memo.update((oid, fold(blob_analysis(data))) for oid, data in ask(git, oids))
            commits += walked
    return memo, commits


def test_a_pickled_memo_scores_like_the_original(tmp_path):
    # worker processes send memo entries back pickled, so each entry, the
    # one of a blob with no text included, must keep its meaning by value
    fixture = GitFixture(tmp_path / "repo")
    identity = ("Alice", "alice@example.com")
    fixture.write("a.py", "x = [1, 2]\n")
    fixture.write("b.py", b"\x00binary\x00")
    fixture.commit(identity, "2020-01-01T00:00:00Z", "a text and a binary blob")
    fixture.write("a.py", b"\x00binary now\x00")
    fixture.write("b.py", "def broken(:\n")
    fixture.commit(identity, "2020-02-01T00:00:00Z", "swap text and binary")
    with prepare_repo(RepoSpec(str(fixture.path))) as repo:
        memo, commits = _walked(repo, CATALOG)
    copied = pickle.loads(pickle.dumps(memo))
    scores = [score_blobs(commit, memo) for commit in commits]
    assert [score_blobs(commit, copied) for commit in commits] == scores
    # the binary b.py added holds no text on either side, so it is left out;
    # a.py turning binary scores as a deletion and b.py turning into
    # unparseable text is skipped
    assert [(s.delta, s.files_analyzed, s.files_skipped) for s in scores] == [
        ((0,) * 6, 1, 1),
        (analyze_source("x = [1, 2]\n", CATALOG).vector, 1, 0),
    ]
    with pytest.raises(KeyError):
        score_blobs(commits[-1], {})


@pytest.mark.parametrize("override", [False, True], ids=["default-catalog", "catalog-override"])
@pytest.mark.parametrize(
    "fixture", ["linear_repo", "merge_repo", "rename_repo", "quoted_repo", "symlink_repo", "big_repo"])
def test_the_text_view_scores_as_the_blob_path(fixture, override, request, tmp_path):
    catalog = CATALOG
    if override:
        rules = tmp_path / "rules.cat"
        rules.write_text("if_statement C2\nsimple_assignment B1\nlist_literal A2\n")
        catalog = load_catalog(rules)
    with prepare_repo(RepoSpec(str(request.getfixturevalue(fixture)))) as repo:
        texts = [score_commit(record, catalog) for record in extract_commits(repo)]
        memo, commits = _walked(repo, catalog)
    assert texts == [score_blobs(commit, memo) for commit in commits]
