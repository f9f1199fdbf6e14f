"""Time a warm ``analyze`` in two checkouts of this repository, stage by stage.

    python tests/report_ab.py PARENT CHANGE REPO [--period yearly] [--top 10] [--runs 5] [--jobs 1]

Loads ``cefr_progress`` from each checkout's ``src`` directory under a name
of its own, as ``tests/analyzer_ab.py`` does, and runs the steps of
``analyze`` on the repository at REPO in this process at ``--jobs`` jobs:
``history``, the call that reads the history (``cli._analyze_history``),
``report``, the call that makes the report of what it read, and
``emit_json``, ``emit_csv`` and ``emit_html``.  Each checkout keeps each
history's cells in the analysis store: its ``history`` stage reads them
and its ``report`` stage is ``scoring.finish``.  Then each run times one
whole ``python -m cefr_progress analyze`` of each checkout in a child
process (the ``cli`` row), whose start-up and imports the in-process
stages do not show.  The analysis store lives in a temporary cache root,
and one untimed run of each checkout fills it, so every timed run is
warm.  The checkouts take turns, and which goes first alternates from run
to run.  It prints each stage's median and quartile
seconds per checkout, the change/parent ratio of the medians, and the
runs in which the change took less time than the parent.  A gain holds
when the change wins at least nine runs in ten and the medians differ by
more than the parent's quartile distance.  The exit status is 1
unless both checkouts write byte-identical report.json, report.csv and
report.html on every run, in this process and in the child processes.

The benchmark's per-layer metrics time the library's text view, which
``analyze`` no longer takes; this times the path it does take.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from analyzer_ab import load_analyzer

STAGES = ("history", "report", "emit_json", "emit_csv", "emit_html")
REPORTS = ("report.json", "report.csv", "report.html")


def load(checkout: Path, name: str):
    """The package in `checkout`, imported as package `name` with its ``cli`` module."""
    load_analyzer(checkout, name)
    importlib.import_module(f"{name}.cli")
    return sys.modules[name]


def run(package, repo: str, period: str, top: int, jobs: int, out: Path) -> dict[str, float]:
    """Seconds each stage of one ``analyze`` of `repo` at `jobs` jobs took, writing the reports into `out`."""
    cli, scoring, report = package.cli, package.scoring, package.report
    catalog = package.catalog.load_catalog(None)
    times = {}
    gc.collect()
    start = time.perf_counter()
    read = cli._analyze_history(repo, catalog, "author", jobs)
    times["history"] = time.perf_counter() - start

    start = time.perf_counter()
    built = scoring.finish(read, repo=repo, period=scoring.Granularity(period))
    times["report"] = time.perf_counter() - start

    out.mkdir(parents=True, exist_ok=True)
    for stage, emit, options in (("emit_json", report.emit_json, {}),
                                 ("emit_csv", report.emit_csv, {}),
                                 ("emit_html", report.emit_html, {"top_n": top})):
        start = time.perf_counter()
        emit(built, out / f"report.{stage[5:]}", **options)
        times[stage] = time.perf_counter() - start
    return times


def run_cli(checkout: Path, repo: str, period: str, top: int, jobs: int, out: Path) -> float:
    """Seconds one ``python -m cefr_progress analyze`` of `repo` took in a child
    process that imports the package from `checkout`, writing the reports into `out`."""
    command = [sys.executable, "-m", "cefr_progress", "analyze", repo, "--out", str(out),
               "--period", period, "--top", str(top), "--jobs", str(jobs)]
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    start = time.perf_counter()
    child = subprocess.run(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    if child.returncode != 0:
        raise SystemExit(f"analyze with {checkout} exited {child.returncode}: {child.stderr}")
    return seconds


def quartiles(seconds: list[float]) -> list[float]:
    """The three quartiles of `seconds`, which are all its one time when it holds one."""
    return statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds * 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("repo", help="path of the git repository to analyze")
    parser.add_argument("--period", choices=["yearly", "monthly"], default="yearly",
                        help="time bucket granularity (default: %(default)s)")
    parser.add_argument("--top", type=int, default=10, help="contributor radars in the HTML (default: %(default)s)")
    parser.add_argument("--runs", type=int, default=5, help="timed runs of each checkout (default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=1, help="jobs of each analyze (default: %(default)s)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="report-ab-") as scratch:
        root = Path(scratch)
        os.environ["CEFR_PROGRESS_CACHE"] = str(root / "cache")
        checkouts = (args.parent, args.change)
        sides = (load(args.parent, "parent_cefr_progress"), load(args.change, "change_cefr_progress"))
        outs = (root / "parent", root / "change")
        cli_outs = (root / "parent-cli", root / "change-cli")
        for package, out in zip(sides, outs):  # fills each checkout's store
            run(package, args.repo, args.period, args.top, args.jobs, out)
        times = tuple({stage: [] for stage in (*STAGES, "cli")} for _ in sides)  # side -> stage -> seconds per run
        differing = set()
        for number in range(args.runs):
            order = (0, 1) if number % 2 == 0 else (1, 0)
            for side in order:
                timed = run(sides[side], args.repo, args.period, args.top, args.jobs, outs[side])
                for stage, seconds in timed.items():
                    times[side][stage].append(seconds)
            for side in order:
                times[side]["cli"].append(
                    run_cli(checkouts[side], args.repo, args.period, args.top, args.jobs, cli_outs[side]))
            for name in REPORTS:
                for where, (parent, change) in (("", outs), (" in the child processes", cli_outs)):
                    if (parent / name).read_bytes() != (change / name).read_bytes() and name + where not in differing:
                        differing.add(name + where)
                        print(f"{name}: the checkouts' reports differ{where} (run {number + 1})")

    print(f"Python {platform.python_version()}, {args.repo}, --period {args.period} --top {args.top} "
          f"--jobs {args.jobs}, {args.runs} runs; wins: runs in which the change took less time")
    print(f"{'stage':<10} {'parent s':>9} {'q1':>8} {'q3':>8} {'change s':>9} {'q1':>8} {'q3':>8} "
          f"{'change/parent':>14} {'wins':>7}")
    rows = [(stage, [side[stage] for side in times]) for stage in STAGES]
    rows.append(("total", [list(map(sum, zip(*(side[stage] for stage in STAGES)))) for side in times]))
    rows.append(("cli", [side["cli"] for side in times]))
    for stage, (parent, change) in rows:
        spreads = [quartiles(runs) for runs in (parent, change)]  # the middle quartile is the median
        ratio = spreads[1][1] / spreads[0][1] if spreads[0][1] else float("nan")
        wins = sum(ours < theirs for theirs, ours in zip(parent, change))
        columns = "".join(f" {median:>9.4f} {q1:>8.4f} {q3:>8.4f}" for q1, median, q3 in spreads)
        print(f"{stage:<10}{columns} {ratio:>14.3f} {wins:>4}/{len(parent)}")
    print("reports: " + (f"{', '.join(sorted(differing))} differ" if differing else "byte-identical"))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
