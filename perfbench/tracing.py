"""The traced run: the README's library sequence with a span around each call.

Spans are kept in memory as (name, start, end, parent, attrs) and written to
a trace file when the run ends; every per-layer metric is derived from that
file by `layer_metrics`.  The program is not modified: the benchmark wraps
the public functions it calls, plus `Repo.read_blob` and the
`analyze_source` that `score_commit` calls, for the length of one round.
Counts that need extra work (text sizes, distinct texts, AST nodes, pickled
sizes) are computed after the timed calls return and stored as span attrs.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import hashlib
import json
import multiprocessing
import pickle
import statistics
import symtable
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from cefr_progress import catalog, history, report, scoring


class Tracer:
    """In-memory spans; `parent` is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, {}]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            yield record[4]
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}), encoding="utf-8")


@contextlib.contextmanager
def _patched(tracer: Tracer, sources: list):
    """Route the calls between layers through spans for the block's length."""
    original_analyze = scoring.analyze_source

    def analyze_source(source, cat):
        with tracer.span("analyzer.analyze") as attrs:
            result = original_analyze(source, cat)
        sources.append((attrs, source, result.parse_ok))
        return result

    targets = [
        (history.Repo, "read_blob", tracer.wrap("history.read_blob", history.Repo.read_blob)),
        (scoring, "analyze_source", analyze_source),
        (report, "emit_json", tracer.wrap("report.emit_json", report.emit_json)),
        (report, "emit_csv", tracer.wrap("report.emit_csv", report.emit_csv)),
        (report, "emit_html", tracer.wrap("report.emit_html", report.emit_html)),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    for owner, name, replacement in targets:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8", "surrogatepass"), digest_size=12).hexdigest()


_COMPILE_ERRORS = (SyntaxError, ValueError, RecursionError, MemoryError)


def _ast_nodes(source: str) -> int:
    try:
        return sum(1 for _ in ast.walk(ast.parse(source)))
    except _COMPILE_ERRORS:
        return 0


def traced_round(tracer: Tracer, *, url: str, cache: Path, repo_label: str, out_dir: Path,
                 period: str, top_n: int, jobs: int) -> None:
    """One pass of the library sequence, writing the report into `out_dir`."""
    sources: list = []
    load_catalog = tracer.wrap("catalog.load", catalog.load_catalog)
    prepare_repo = tracer.wrap("history.prepare", history.prepare_repo)
    extract_commits = tracer.wrap("history.extract", history.extract_commits)
    score_commit = tracer.wrap("scoring.score", scoring.score_commit)
    build_report = tracer.wrap("scoring.build_report", scoring.build_report)
    write_bundle = tracer.wrap("report.write", report.write_report_bundle)

    with tracer.span("round"):
        with _patched(tracer, sources):
            with tracer.span("analyze") as counts:
                cat = load_catalog()
                with prepare_repo(history.RepoSpec(url, workdir=cache)) as repo:
                    records = extract_commits(repo)
                scores = [score_commit(record, cat) for record in records]
                result = build_report(scores, repo=repo_label, period=scoring.Granularity(period))
                write_bundle(result, out_dir, top_n=top_n)

        texts = [text for record in records for change in record.changes
                 for text in (change.before_text, change.after_text) if text is not None]
        counts.update(commits=len(records), texts=len(texts), distinct_texts=len(set(texts)),
                      text_bytes=sum(len(t.encode("utf-8", "surrogatepass")) for t in texts),
                      profiles=len(result.profiles), periods=len(result.project_by_period),
                      report_bytes=sum(p.stat().st_size for p in out_dir.iterdir()))
        for attrs, source, parse_ok in sources:
            attrs.update(bytes=len(source.encode("utf-8", "surrogatepass")), digest=_digest(source),
                         parse_ok=parse_ok)

        with tracer.span("scoring.parallel_score") as attrs:
            context = multiprocessing.get_context("spawn")
            scorer = functools.partial(scoring.score_commit, catalog=cat)
            with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
                parallel = list(pool.map(scorer, records, chunksize=max(1, len(records) // (jobs * 4))))
        attrs["ipc_bytes"] = sum(len(pickle.dumps(r)) for r in records) + sum(len(pickle.dumps(s)) for s in parallel)
        if parallel != scores:
            attrs["mismatch"] = True

        with tracer.span("analyzer.parse_floor"):
            for _, source, _ in sources:
                with contextlib.suppress(*_COMPILE_ERRORS):
                    ast.parse(source)
        with tracer.span("analyzer.symtable_floor"):
            for _, source, _ in sources:
                with contextlib.suppress(*_COMPILE_ERRORS):
                    symtable.symtable(source, "<floor>", "exec")
        nodes = {}
        for attrs, source, _ in sources:
            if attrs["digest"] not in nodes:
                nodes[attrs["digest"]] = _ast_nodes(source)
            attrs["nodes"] = nodes[attrs["digest"]]


# -- metrics from the trace file ----------------------------------------

LAYER_UNITS = {
    "catalog.load_s": "s",
    "history.prepare_s": "s",
    "history.extract_s": "s",
    "history.log_s": "s",
    "history.commits": "count",
    "history.read_blob_s": "s",
    "history.read_blob_calls": "count",
    "history.texts": "count",
    "history.text_mb": "MB",
    "history.distinct_texts": "count",
    "history.distinct_text_ratio": "ratio",
    "analyzer.analyze_s": "s",
    "analyzer.calls": "count",
    "analyzer.distinct_sources": "count",
    "analyzer.distinct_source_ratio": "ratio",
    "analyzer.mb_per_s": "MB/s",
    "analyzer.nodes_per_s": "nodes/s",
    "analyzer.parse_floor_s": "s",
    "analyzer.symtable_floor_s": "s",
    "analyzer.parse_failures": "count",
    "scoring.score_s": "s",
    "scoring.self_s": "s",
    "scoring.build_report_s": "s",
    "scoring.profiles": "count",
    "scoring.periods": "count",
    "scoring.parallel_score_s": "s",
    "scoring.ipc_mb": "MB",
    "report.emit_json_s": "s",
    "report.emit_csv_s": "s",
    "report.emit_html_s": "s",
    "report.bytes": "B",
    "trace.overhead_s": "s",
}


def _round_metrics(spans: list[list], root: int, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced round, given the untraced CLI wall time."""
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    parents = {root}
    analyzed = []
    for index in range(root + 1, len(spans)):  # a round's spans follow its root
        name, start, end, parent, attrs = spans[index]
        if parent not in parents:
            break
        parents.add(index)
        busy[name] += end - start
        calls[name] += 1
        if name == "analyze":
            counts = attrs
        elif name == "scoring.parallel_score":
            ipc_bytes = attrs["ipc_bytes"]
        elif name == "analyzer.analyze":
            analyzed.append(attrs)

    analyze_s = busy["analyzer.analyze"]
    distinct_sources = len({a["digest"] for a in analyzed})
    return {
        "catalog.load_s": busy["catalog.load"],
        "history.prepare_s": busy["history.prepare"],
        "history.extract_s": busy["history.extract"],
        "history.log_s": busy["history.extract"] - busy["history.read_blob"],
        "history.commits": counts["commits"],
        "history.read_blob_s": busy["history.read_blob"],
        "history.read_blob_calls": calls["history.read_blob"],
        "history.texts": counts["texts"],
        "history.text_mb": counts["text_bytes"] / 1e6,
        "history.distinct_texts": counts["distinct_texts"],
        "history.distinct_text_ratio": counts["distinct_texts"] / max(1, counts["texts"]),
        "analyzer.analyze_s": analyze_s,
        "analyzer.calls": len(analyzed),
        "analyzer.distinct_sources": distinct_sources,
        "analyzer.distinct_source_ratio": distinct_sources / max(1, len(analyzed)),
        "analyzer.mb_per_s": sum(a["bytes"] for a in analyzed) / 1e6 / analyze_s if analyze_s else 0.0,
        "analyzer.nodes_per_s": sum(a["nodes"] for a in analyzed) / analyze_s if analyze_s else 0.0,
        "analyzer.parse_floor_s": busy["analyzer.parse_floor"],
        "analyzer.symtable_floor_s": busy["analyzer.symtable_floor"],
        "analyzer.parse_failures": sum(1 for a in analyzed if not a["parse_ok"]),
        "scoring.score_s": busy["scoring.score"],
        "scoring.self_s": busy["scoring.score"] - analyze_s,
        "scoring.build_report_s": busy["scoring.build_report"],
        "scoring.profiles": counts["profiles"],
        "scoring.periods": counts["periods"],
        "scoring.parallel_score_s": busy["scoring.parallel_score"],
        "scoring.ipc_mb": ipc_bytes / 1e6,
        "report.emit_json_s": busy["report.emit_json"],
        "report.emit_csv_s": busy["report.emit_csv"],
        "report.emit_html_s": busy["report.emit_html"],
        "report.bytes": counts["report_bytes"],
        # the traced equivalent of `analyze` on a local path: no clone
        "trace.overhead_s": busy["analyze"] - busy["history.prepare"] - wall,
    }


def layer_metrics(trace_file: Path) -> dict[str, float]:
    """Median over the file's rounds of every per-layer metric."""
    data = json.loads(trace_file.read_text(encoding="utf-8"))
    spans = data["spans"]
    walls = [s[2] - s[1] for s in spans if s[0] == "cli.analyze"]
    wall = statistics.median(walls)
    rounds = [_round_metrics(spans, i, wall) for i, s in enumerate(spans) if s[0] == "round"]
    return {name: statistics.median(r[name] for r in rounds) for name in LAYER_UNITS}
