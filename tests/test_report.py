import html
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cefr_progress.cli import main
from cefr_progress.history import ContributorId
from cefr_progress.report import (
    _HTML_ESCAPES,
    emit_csv,
    emit_html,
    _json,
    emit_json,
    radar_svg,
    report_payload,
    write_report_bundle,
)
from cefr_progress.scoring import CommitScore, Granularity, build_report

ALICE = ContributorId.from_identity("Alice <script>", "alice@example.com")
BOB = ContributorId.from_identity("Bob", "bob@example.com")

TS_2014 = 1400000000
TS_2015 = 1430000000


def make_score(contributor, ts, counts, sha="c" * 40):
    return CommitScore(sha, contributor, ts, tuple(counts), 1, 0)


def emitted(emit, report, path, **options):
    """`path`, after `emit` wrote `report` there under `options`."""
    emit(report, path, **options)
    return path


def sample_report():
    scores = [
        make_score(ALICE, TS_2014, (5495, 6453, 640, 51, 137, 131)),
        make_score(BOB, TS_2015, (773, 962, 81, 10, 14, 31)),
    ]
    return build_report(scores, repo="sample", period=Granularity.YEARLY)


def test_json_empty_report(tmp_path):
    report = build_report([], repo="empty")
    path = emitted(emit_json, report, tmp_path / "r.json")
    payload = json.loads(path.read_text())
    assert payload["project_total"] == [0, 0, 0, 0, 0, 0]
    assert payload["contributors"] == []
    assert payload["top_contributor"] is None
    assert payload["schema_version"] == "1"


def test_json_reemission_is_byte_identical(tmp_path):
    report = sample_report()
    a = emitted(emit_json, report, tmp_path / "a.json").read_bytes()
    b = emitted(emit_json, report, tmp_path / "b.json").read_bytes()
    assert a == b
    assert a.endswith(b"\n")


def test_json_round_trip_reconstructs_numbers(tmp_path):
    report = sample_report()
    payload = json.loads(emitted(emit_json, report, tmp_path / "r.json").read_text())
    assert payload["project_total"] == list(report.project_total)
    assert payload["generated_at"] == report.generated_at
    assert payload["commit_count"] == report.commit_count
    for key, vec in report.project_by_period.items():
        assert payload["project_by_period"][key] == list(vec)
    assert [c["anon_id"] for c in payload["contributors"]] == [
        p.contributor.anon_id for p in report.profiles
    ]
    for got, profile in zip(payload["contributors"], report.profiles):
        assert got["total"] == list(profile.total)
        assert got["commit_count"] == profile.commit_count
        assert got["by_period"] == {k: list(v) for k, v in profile.by_period.items()}
    top = payload["top_contributor"]
    assert top["anon_id"] == report.top_contributor.contributor.anon_id
    assert [(r["period"], r["c1"], r["c2"]) for r in top["periods"]] == list(
        report.top_contributor.periods
    )


def test_json_hides_names_unless_asked(tmp_path):
    report = sample_report()
    anon = json.loads(emitted(emit_json, report, tmp_path / "anon.json").read_text())
    assert all(c["name"] is None and c["email"] is None for c in anon["contributors"])
    named = json.loads(
        emitted(emit_json, report, tmp_path / "named.json", show_names=True).read_text()
    )
    assert {c["name"] for c in named["contributors"]} == {"Alice <script>", "Bob"}


def test_csv_layout_and_rows(tmp_path):
    path = emitted(emit_csv, sample_report(), tmp_path / "r.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "period,A1,A2,B1,B2,C1,C2"
    assert lines[1] == "2014,5495,6453,640,51,137,131"
    assert lines[2] == "2015,773,962,81,10,14,31"
    assert lines[3] == "total,6268,7415,721,61,151,162"
    assert path.read_bytes().endswith(b"\n")
    assert b"\r" not in path.read_bytes()


def test_csv_total_row_sums_period_rows(tmp_path):
    path = emitted(emit_csv, sample_report(), tmp_path / "r.csv")
    rows = [line.split(",") for line in path.read_text().splitlines()]
    body, total = rows[1:-1], rows[-1]
    for col in range(1, 7):
        assert sum(int(r[col]) for r in body) == int(total[col])


def test_csv_empty_report(tmp_path):
    report = build_report([], repo="empty")
    path = emitted(emit_csv, report, tmp_path / "r.csv")
    assert path.read_text() == "period,A1,A2,B1,B2,C1,C2\ntotal,0,0,0,0,0,0\n"


def test_csv_matches_json_totals(tmp_path):
    report = sample_report()
    payload = json.loads(emitted(emit_json, report, tmp_path / "r.json").read_text())
    last = emitted(emit_csv, report, tmp_path / "r.csv").read_text().splitlines()[-1]
    assert last == "total," + ",".join(str(c) for c in payload["project_total"])


def _data_polygon_points(svg: str) -> list[tuple[float, float]]:
    match = re.search(r'class="data" points="([^"]+)"', svg)
    assert match, "no data polygon found"
    return [tuple(map(float, pair.split(","))) for pair in match.group(1).split()]


def test_uniform_vector_gives_regular_hexagon():
    svg = radar_svg((1, 1, 1, 1, 1, 1), "uniform")
    points = _data_polygon_points(svg)
    cx = sum(x for x, _ in points) / 6
    cy = sum(y for _, y in points) / 6
    radii = [math.hypot(x - cx, y - cy) for x, y in points]
    assert max(radii) - min(radii) < 0.05
    assert min(radii) > 10


def test_zero_vector_degenerates_to_point():
    svg = radar_svg((0,) * 6, "empty")
    points = _data_polygon_points(svg)
    assert len(set(points)) == 1


def test_html_zero_report_renders(tmp_path):
    report = build_report([], repo="empty")
    html_text = emitted(emit_html, report, tmp_path / "r.html").read_text()
    assert "<svg" in html_text
    assert "Contributors (top 0 of 0)" in html_text


def test_html_contributor_section_count(tmp_path):
    report = sample_report()
    html_text = emitted(emit_html, report, tmp_path / "r.html", top_n=10).read_text()
    assert html_text.count('class="contributor-section"') == 2
    capped = emitted(emit_html, report, tmp_path / "r1.html", top_n=1).read_text()
    assert capped.count('class="contributor-section"') == 1


def test_html_has_no_external_references(tmp_path):
    report = sample_report()
    html_text = emitted(emit_html, report, tmp_path / "r.html", show_names=True).read_text()
    for needle in ("http://", "https://", "href=", "src=", "url(", "<script", "<link"):
        assert needle not in html_text


def test_html_escapes_names(tmp_path):
    report = sample_report()
    html_text = emitted(emit_html, report, tmp_path / "r.html", show_names=True).read_text()
    assert "<script>" not in html_text
    assert "&lt;script&gt;" in html_text


#: Text that holds each character html.escape replaces, other non-ASCII ones and lone surrogates
escapable_text = st.text(st.one_of(st.sampled_from("&<>\"'"), st.characters(), st.characters(categories=["Cs"])))


@settings(max_examples=500)
@given(escapable_text)
def test_the_escape_table_is_html_escape(text):
    assert text.translate(_HTML_ESCAPES) == html.escape(text, quote=True)


class _EachByHtmlEscape(dict):
    """A translate table that escapes each character with `html.escape`."""

    def __getitem__(self, code):
        return html.escape(chr(code), quote=True)


def test_html_with_every_escaped_character_is_what_html_escape_writes(tmp_path, monkeypatch):
    special = "&<>\"'"
    who = ContributorId.from_identity(f"Zoë {special} <b>x</b>", "zoe@example.com")
    built = build_report([make_score(who, TS_2014, (1, 2, 3, 4, 5, 6))], repo=f"/repos/{special}/é")
    written = emitted(emit_html, built, tmp_path / "table.html", show_names=True).read_bytes()
    text = written.decode("utf-8")
    assert f"<h3>{html.escape(who.raw_name)} ({who.anon_id})</h3>" in text
    assert f"<title>{html.escape(who.raw_name)} ({who.anon_id})</title>" in text  # the radar's
    assert f"repository: {html.escape(built.repo)} &middot;" in text
    assert f'<p class="meta">{html.escape(who.raw_name)} (by total C1+C2 added)</p>' in text
    monkeypatch.setattr("cefr_progress.report._HTML_ESCAPES", _EachByHtmlEscape())
    assert emitted(emit_html, built, tmp_path / "escape.html", show_names=True).read_bytes() == written


def test_html_anonymous_by_default(tmp_path):
    report = sample_report()
    html_text = emitted(emit_html, report, tmp_path / "r.html").read_text()
    assert "Alice" not in html_text
    assert ALICE.anon_id in html_text


def test_emitters_are_pure_functions_of_inputs(tmp_path):
    report = sample_report()
    write_report_bundle(report, tmp_path / "one")
    write_report_bundle(report, tmp_path / "two")
    for name in ("report.json", "report.csv", "report.html"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_payload_contributor_order_matches_profiles():
    report = sample_report()
    payload = report_payload(report)
    assert [c["anon_id"] for c in payload["contributors"]] == [
        p.contributor.anon_id for p in report.profiles
    ]


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


NAMED = [
    ContributorId.from_identity("Zo\u00eb \u00dcn\u00efc\u00f8d\u00e9 \u540d\u524d", "zoe@example.com"),
    ContributorId.from_identity('Quote " back\\slash\ttab\x1f', "q@example.com"),
    ContributorId.from_identity("Emoji \U0001F600 and a line separator \u2028", "s@example.com"),
]


# the last day of year 999, the first of 1000, the last of 9999, the first of
# 10000 and a day in 10001: string order is not time order across them
FAR_YEARS = (-30_610_310_400, -30_610_224_000, 253_402_214_400, 253_402_300_800, 253_450_000_000)


@pytest.mark.parametrize("show_names", [False, True], ids=["anonymous", "names"])
def test_json_is_what_json_dumps_writes(tmp_path, show_names):
    scores = [make_score(who, TS_2014 + i * 3_000_000, (i, 0, 2 * i, 0, 1, i % 2)) for i, who in enumerate(NAMED * 4)]
    # many contributors with the same counts in each of the far years
    crowd = [*NAMED, *(ContributorId.from_identity(f"Dev {n}", f"dev{n}@example.com") for n in range(12))]
    far = [make_score(who, ts, (n % 3, 0, 1, 0, 2 * (n % 2), 0)) for who in crowd for n, ts in enumerate(FAR_YEARS)]
    for period in Granularity:
        for each in (scores, scores + far):
            report = build_report(each, repo="r\u00e9po \"x\"", period=period)
            path = emitted(emit_json, report, tmp_path / "r.json", show_names=show_names)
            assert path.read_text(encoding="utf-8") == _dumps(report_payload(report, show_names=show_names))
    empty = build_report([], repo="empty")
    assert emitted(emit_json, empty, tmp_path / "e.json").read_text(encoding="utf-8") == _dumps(report_payload(empty))


@pytest.mark.parametrize("repo", ["linear_repo", "merge_repo", "rename_repo", "quoted_repo", "symlink_repo"])
@pytest.mark.parametrize("show_names", [[], ["--show-names"]], ids=["anonymous", "names"])
def test_fixture_reports_are_what_json_dumps_writes(request, tmp_path, repo, show_names):
    for period in ("yearly", "monthly"):
        out = tmp_path / period
        assert main(["analyze", str(request.getfixturevalue(repo)), "--out", str(out), "--period", period,
                     *show_names]) == 0
        text = (out / "report.json").read_text(encoding="utf-8")
        assert text == _dumps(json.loads(text))


_json_values = st.recursive(
    st.none() | st.integers() | st.text() | st.lists(st.integers(), max_size=6).map(tuple),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(value=_json_values)
def test_the_json_writer_matches_json_dumps(value):
    parts: list[str] = []
    _json(value, "", parts, {})
    assert "".join(parts) + "\n" == _dumps(value)


def test_the_json_writer_refuses_what_no_payload_holds():
    with pytest.raises(TypeError):
        _json({"flag": True}, "", [], {})
