"""Acceptance suite: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v`; the terminal summary prints
one PASS/FAIL line per criterion (see conftest's terminal-summary hook).
"""

import json
import random
import time
from collections import Counter

import pytest

from cefr_progress.analyzer import count_constructs
from cefr_progress.catalog import Level, default_catalog
from cefr_progress.cli import main
from cefr_progress.history import ContributorId, RepoSpec, extract_commits, prepare_repo
from cefr_progress.scoring import Granularity, build_report, score_commit
from cefr_progress.walk import CommitBlobs, score_blobs

from corpus import SNIPPETS
from oracle import oracle_commit_deltas, oracle_rollups, vector_sum

CATALOG = default_catalog()
ONE_FILE = CommitBlobs("0" * 40, ContributorId.from_identity("A", "a@example.com"), 0,
                       (("f.py", "1" * 40, "2" * 40),))


def scored_delta(before, after):
    """`score_blobs`'s delta for one modified file whose blobs have the vectors `before` and `after`."""
    return score_blobs(ONE_FILE, {"1" * 40: before, "2" * 40: after}).delta


def test_criterion_1_clamped_delta_rule():
    before = (46, 41, 25, 14, 12, 3)
    after = (57, 49, 31, 12, 13, 8)
    assert scored_delta(before, after) == (11, 8, 6, 0, 1, 5)


def test_criterion_2_catalog_seed_constructs():
    seeds = {
        "if_statement": Level.A1,
        "nested_list": Level.A2,
        "break_statement": Level.B1,
        "list_comprehension": Level.B2,
        "generator_function": Level.C1,
        "metaclass": Level.C2,
    }
    for kind, level in seeds.items():
        assert CATALOG.levels.get(kind) is level, kind


def test_criterion_3_analyzer_matches_hand_labels():
    assert len(SNIPPETS) >= 20
    covered = {kind for snippet in SNIPPETS for kind, _ in snippet.expected}
    assert covered == set(CATALOG.levels)
    discrepancies = []
    for snippet in SNIPPETS:
        got = Counter(count_constructs(snippet.source))
        expected = Counter(snippet.expected)
        if got != expected:
            discrepancies.append((snippet.name, expected - got, got - expected))
    assert not discrepancies, discrepancies


def _pipeline_outputs(repo_path, period=Granularity.YEARLY):
    with prepare_repo(RepoSpec(str(repo_path))) as repo:
        records = extract_commits(repo)
    scores = [score_commit(record, CATALOG) for record in records]
    for record, score in zip(records, scores):
        assert score.files_analyzed + score.files_skipped == len(record.changes)
    # bot filtering off: the oracle attributes every identity
    report = build_report(scores, repo=str(repo_path), period=period, bot_patterns=())
    return records, scores, report


def _assert_matches_oracle(repo_path):
    records, scores, report = _pipeline_outputs(repo_path)
    entries = oracle_commit_deltas(repo_path, CATALOG)[::-1]  # newest first, as the walk goes
    rollups = oracle_rollups(entries, "yearly")

    assert [r.sha for r in records] == [e["sha"] for e in entries]
    for score, entry in zip(scores, entries):
        assert score.delta == entry["delta"], f"commit {score.sha}"

    assert report.project_total == rollups["project_total"]
    assert report.project_by_period == rollups["project_by_period"]

    by_email = {
        profile.contributor.raw_email.strip().lower(): profile for profile in report.profiles
    }
    assert set(by_email) == set(rollups["by_contributor"])
    for email, expected_total in rollups["by_contributor"].items():
        profile = by_email[email]
        assert profile.total == expected_total
        assert profile.commit_count == rollups["commit_counts"][email]
        assert profile.by_period == rollups[
            "contributor_periods"
        ][email]


def test_criterion_4_brute_force_equivalence(linear_repo, merge_repo, rename_repo, quoted_repo, symlink_repo):
    started = time.monotonic()
    for fixture in (linear_repo, merge_repo, rename_repo, quoted_repo, symlink_repo):
        _assert_matches_oracle(fixture)
    assert time.monotonic() - started < 30.0


@pytest.mark.parametrize(
    "fixture_name", ["linear_repo", "merge_repo", "rename_repo", "quoted_repo", "symlink_repo"]
)
def test_criterion_5_conservation_identity(fixture_name, request):
    repo_path = request.getfixturevalue(fixture_name)
    _, scores, report = _pipeline_outputs(repo_path)

    delta_sum = vector_sum(*(score.delta for score in scores))
    profile_sum = vector_sum(report.excluded_total, *(profile.total for profile in report.profiles))
    period_sum = vector_sum(*report.project_by_period.values())

    assert report.project_total == delta_sum == profile_sum == period_sum


def test_criterion_6_parallel_determinism(linear_repo, tmp_path):
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    assert main(["analyze", str(linear_repo), "--out", str(out_serial), "--jobs", "1"]) == 0
    assert main(["analyze", str(linear_repo), "--out", str(out_parallel), "--jobs", "8"]) == 0
    assert (out_serial / "report.json").read_bytes() == (out_parallel / "report.json").read_bytes()
    assert (out_serial / "report.csv").read_bytes() == (out_parallel / "report.csv").read_bytes()


def test_criterion_7_clamp_property_10k():
    rng = random.Random(0xCEF2)
    for _ in range(10_000):
        before = tuple(rng.randrange(0, 400) for _ in range(6))
        after = tuple(rng.randrange(0, 400) for _ in range(6))
        delta = scored_delta(before, after)
        for i in range(6):
            assert delta[i] >= 0
            if after[i] <= before[i]:
                assert delta[i] == 0


def test_criterion_8_output_contracts(linear_repo, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", str(linear_repo), "--out", str(out)]) == 0

    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "period,A1,A2,B1,B2,C1,C2"
    assert csv_lines[-1].startswith("total,")
    for line in csv_lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        assert all(cell.isdigit() for cell in cells[1:])

    html_text = (out / "report.html").read_text()
    for needle in ("http://", "https://", "href=", "src=", "url(", "<script", "<link"):
        assert needle not in html_text

    payload = json.loads((out / "report.json").read_text())
    totals = payload["project_total"]
    assert csv_lines[-1] == "total," + ",".join(str(c) for c in totals)
    period_sums = [0] * 6
    for vec in payload["project_by_period"].values():
        for i, value in enumerate(vec):
            period_sums[i] += value
    contributor_sums = list(payload["excluded_total"])
    for contributor in payload["contributors"]:
        for i, value in enumerate(contributor["total"]):
            contributor_sums[i] += value
    assert totals == period_sums == contributor_sums


def test_criterion_9_desk_scale_performance(big_repo, tmp_path):
    with prepare_repo(RepoSpec(str(big_repo))) as repo:
        commit_total = len(repo.git("rev-list", "HEAD").split())
    assert commit_total >= 450

    started = time.monotonic()
    code = main(["analyze", str(big_repo), "--out", str(tmp_path / "out")])
    elapsed = time.monotonic() - started
    assert code == 0
    assert elapsed < 60.0, f"analysis took {elapsed:.1f}s"
