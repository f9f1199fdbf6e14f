"""The expected report, computed from a workload's plan without the program.

A report is checked row by row; one checked row is one operation of the
benchmark.  The rows are: every contributor, every period of
`project_by_period`, each project-level field of `report.json`, every line
of `report.csv`, and the summary figures and sections of `report.html`.

Rows whose expected value includes a change to a path that git C-quotes
are marked `faulty`: the program reads `git log --name-status` without
`-z`, so such a path arrives quoted, no longer ends in `.py`, and its
change is dropped.  A faulty row that does not match counts as failed; any
other row that does not match makes the run incorrect.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import logging
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import ZERO, Blob, Change, Plan, Vector, git_quotes, vec_add

LEVELS = ("A1", "A2", "B1", "B2", "C1", "C2")
BOT_PATTERN = re.compile(r"\[bot\]$")
JSON_KEYS = sorted([
    "schema_version", "repo", "generated_at", "period", "project_total", "project_by_period",
    "contributors", "excluded_total", "top_contributor", "commit_count", "files_analyzed",
    "files_skipped",
])
HTML_META = re.compile(r"commits scored: (\d+) &middot; files analyzed: (\d+) &middot; files skipped: (\d+)")
HTML_HEADING = re.compile(r"<h2>Contributors \(top (\d+) of (\d+)\)</h2>")
HTML_TOP_ROW = re.compile(r"<tr><td>([^<]*)</td><td>(\d+)</td><td>(\d+)</td></tr>")
EXTERNAL = ("http://", "https://", "href=", "src=", "url(", "<script", "<link")


@dataclass(frozen=True)
class Row:
    key: str
    value: object
    faulty: bool = False


@dataclass
class Expected:
    rows: list[Row]
    stdout: str
    # contributors whose rows the known fault changes; left out of the order row
    faulty_ids: frozenset[str]


def anon_id(email: str) -> str:
    return hashlib.sha256(email.strip().lower().encode("utf-8")).hexdigest()[:8]


def period_key(timestamp: int, period: str) -> str:
    return time.strftime("%Y" if period == "yearly" else "%Y-%m", time.gmtime(timestamp))


def clamped_delta(change: Change) -> Vector:
    before = change.before.vector if change.before is not None else ZERO
    after = change.after.vector if change.after is not None else ZERO
    return tuple(max(a - b, 0) for a, b in zip(after, before))  # type: ignore[return-value]


class _Bucket:
    def __init__(self) -> None:
        self.total: Vector = ZERO
        self.by_period: dict[str, Vector] = {}
        self.commits = 0
        self.faulty_periods: set[str] = set()

    def add(self, pkey: str, delta: Vector, faulty: bool) -> None:
        self.total = vec_add(self.total, delta)
        self.by_period[pkey] = vec_add(self.by_period.get(pkey, ZERO), delta)
        self.commits += 1
        if faulty:
            self.faulty_periods.add(pkey)


def _rank_key(anon: str, total: Vector) -> tuple:
    return (-(total[4] + total[5]), -sum(total), anon)


def expected_report(plan: Plan, *, repo: str, period: str, top_n: int) -> Expected:
    """Every row of the three report files, from the plan's vectors alone."""
    project = _Bucket()
    people: dict[str, _Bucket] = {}
    bots = _Bucket()
    analyzed = skipped = 0
    for commit in plan.commits:
        delta = ZERO
        faulty = False
        for change in commit.changes:
            if not change.path.endswith(".py") or change.is_noop:
                continue
            faulty = faulty or git_quotes(change.path)
            if any(not side.parse_ok for side in (change.before, change.after) if side is not None):
                skipped += 1
                continue
            analyzed += 1
            delta = vec_add(delta, clamped_delta(change))
        pkey = period_key(commit.timestamp, period)
        project.add(pkey, delta, faulty)
        if BOT_PATTERN.search(commit.name):
            bots.add(pkey, delta, faulty)
        else:
            people.setdefault(anon_id(commit.email), _Bucket()).add(pkey, delta, faulty)

    faulty_ids = frozenset(anon for anon, b in people.items() if b.faulty_periods)
    any_fault = bool(project.faulty_periods)
    ranked = sorted(people, key=lambda anon: _rank_key(anon, people[anon].total))
    top = None
    if ranked:
        best = people[ranked[0]]
        top = {
            "anon_id": ranked[0],
            "name": None,
            "periods": [{"period": k, "c1": v[4], "c2": v[5]} for k, v in sorted(best.by_period.items())],
        }
    generated_at = max((c.timestamp for c in plan.commits), default=0)
    rows = [
        Row("json.keys", JSON_KEYS),
        Row("json.meta", ["1", repo, period, generated_at]),
        Row("json.project_total", list(project.total), any_fault),
        Row("json.excluded_total", list(bots.total), bool(bots.faulty_periods)),
        Row("json.commit_count", project.commits),
        Row("json.files_analyzed", analyzed, any_fault),
        Row("json.files_skipped", skipped),
        Row("json.top_contributor", top),
        Row("json.contributor_order", [a for a in ranked if a not in faulty_ids]),
    ]
    for anon in sorted(people):
        bucket = people[anon]
        rows.append(Row(f"json.contributor:{anon}", {
            "anon_id": anon, "name": None, "email": None, "commit_count": bucket.commits,
            "total": list(bucket.total),
            "by_period": {k: list(v) for k, v in sorted(bucket.by_period.items())},
        }, bool(bucket.faulty_periods)))
    for pkey, vec in sorted(project.by_period.items()):
        faulty = pkey in project.faulty_periods
        rows.append(Row(f"json.period:{pkey}", list(vec), faulty))
        rows.append(Row(f"csv.period:{pkey}", [str(c) for c in vec], faulty))
    rows += [
        Row("csv.header", ["period", *LEVELS]),
        Row("csv.order", sorted(project.by_period) + ["total"]),
        Row("csv.total", [str(c) for c in project.total], any_fault),
        Row("html.meta", [project.commits, analyzed, skipped], any_fault),
        Row("html.contributors", [min(top_n, len(people)), len(people), min(top_n, len(people))]),
        Row("html.top", [[p["period"], p["c1"], p["c2"]] for p in top["periods"]] if top else []),
        Row("html.self_contained", True),
    ]
    stdout = (f"commits analyzed: {project.commits}; files skipped: {skipped}; "
              f"top contributor: {ranked[0] if ranked else '-'}")
    return Expected(rows, stdout, faulty_ids)


def actual_rows(out_dir: Path, faulty_ids: frozenset[str]) -> dict[str, object]:
    """The program's report files, cut into the same rows as `expected_report`."""
    payload = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    rows: dict[str, object] = {
        "json.keys": sorted(payload),
        "json.meta": [payload.get("schema_version"), payload.get("repo"), payload.get("period"),
                      payload.get("generated_at")],
        "json.top_contributor": payload.get("top_contributor"),
        "json.contributor_order": [c.get("anon_id") for c in payload.get("contributors", [])
                                   if c.get("anon_id") not in faulty_ids],
    }
    for name in ("project_total", "excluded_total", "commit_count", "files_analyzed", "files_skipped"):
        rows[f"json.{name}"] = payload.get(name)
    for contributor in payload.get("contributors", []):
        rows[f"json.contributor:{contributor.get('anon_id')}"] = contributor
    for pkey, vec in payload.get("project_by_period", {}).items():
        rows[f"json.period:{pkey}"] = vec

    lines = (out_dir / "report.csv").read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        lines.append("<missing final newline>")
    rows["csv.header"] = lines[0].split(",") if lines else []
    rows["csv.order"] = [line.split(",")[0] for line in lines[1:]]
    for line in lines[1:]:
        label, *cells = line.split(",")
        rows["csv.total" if label == "total" else f"csv.period:{label}"] = cells

    page = (out_dir / "report.html").read_text(encoding="utf-8")
    meta = HTML_META.search(page)
    heading = HTML_HEADING.search(page)
    top_table = page.partition('<table id="top-contributor">')[2].partition("</table>")[0]
    rows["html.meta"] = [int(g) for g in meta.groups()] if meta else None
    rows["html.contributors"] = ([int(g) for g in heading.groups()] if heading else [None, None]) + [
        page.count('<div class="contributor-section">')]
    rows["html.top"] = [[p, int(c1), int(c2)] for p, c1, c2 in HTML_TOP_ROW.findall(top_table)]
    rows["html.self_contained"] = not any(needle in page for needle in EXTERNAL)
    return rows


_MISSING = object()


@dataclass
class Tally:
    """Operations attempted and failed, and rows that failed unexpectedly."""

    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)

    def check(self, expected: Expected, out_dir: Path | None) -> None:
        """Count one round: every expected row, plus any row the program added.

        `out_dir` None means the run produced no report: every row fails.
        """
        if out_dir is None:
            self.attempted += len(expected.rows)
            self.failed += len(expected.rows)
            self.unexpected.append("no report")
            return
        try:
            actual = actual_rows(out_dir, expected.faulty_ids)
        except (OSError, ValueError, AttributeError, TypeError) as exc:
            actual = {}
            self.unexpected.append(f"unreadable report: {exc!r}")
        keys = {row.key for row in expected.rows}
        for row in expected.rows:
            self.attempted += 1
            if actual.get(row.key, _MISSING) != row.value:
                self.failed += 1
                if not row.faulty:
                    self.unexpected.append(row.key)
        for key in sorted(set(actual) - keys):
            self.attempted += 1
            self.failed += 1
            self.unexpected.append(f"extra {key}")


# -- stdlib_import: vectors from `cefr-progress classify` ---------------

ONE_NODE_KINDS = {
    "import_statement": ("Import", "ImportFrom"),
    "class_definition": ("ClassDef",),
    "return_statement": ("Return",),
    "lambda_expression": ("Lambda",),
    "global_declaration": ("Global",),
    "await_expression": ("Await",),
}


def classify_file(path: Path) -> dict | None:
    """`cefr-progress classify FILE` run in this process: its JSON, or None
    when it rejects the file."""
    from cefr_progress.cli import main

    buffer = io.StringIO()
    logging.disable(logging.CRITICAL)
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(["classify", str(path)])
    finally:
        logging.disable(logging.NOTSET)
    return json.loads(buffer.getvalue()) if code == 0 else None


def classify_plan(plan: Plan, sample: list[str]) -> list[str]:
    """Fill every stdlib file's vector from `classify` on its copy on disk.

    For the files named in `sample` that classify accepts, the counts of the
    one-node kinds must equal plain `ast.walk` node counts; the mismatches
    are returned.
    """
    verdicts: dict[str, dict | None] = {rel: classify_file(path) for rel, path in plan.disk_files.items()}
    for commit in plan.commits:
        for i, change in enumerate(commit.changes):
            verdict = verdicts[change.path]
            vector = tuple(verdict["levels"][label] for label in LEVELS) if verdict else ZERO
            commit.changes[i] = Change(change.path, None, Blob(change.after.data, vector, verdict is not None))

    mismatches = []
    for rel in sample:
        verdict = verdicts[rel]
        if verdict is None:
            continue
        text = plan.disk_files[rel].read_text(encoding="utf-8", errors="replace")
        nodes = Counter(type(node).__name__ for node in ast.walk(ast.parse(text)))
        kinds = Counter(occ["kind"] for occ in verdict["occurrences"])
        for kind, node_types in ONE_NODE_KINDS.items():
            if kinds[kind] != sum(nodes[t] for t in node_types):
                mismatches.append(f"{rel}: {kind} {kinds[kind]} != {sum(nodes[t] for t in node_types)}")
    return mismatches
