"""Benchmark for `cefr-progress analyze` on seeded, locally generated histories.

    python3 perfbench/run.py --workload {churn,stdlib_import,wide,all}
                             [--seed N] [--seconds S] [--trace {0,1}]

Run from anywhere; the program is taken from the `src/` directory next to
this one.  The workload's repository is generated from the seed, the
expected report is computed from the generator's plan, and then, for
`--seconds` seconds:

* `--trace 0`: rounds of one `load_catalog` + `prepare_repo(file://...)`
  into an empty clone cache (`setup_s`) and one `python3 -m cefr_progress
  analyze` subprocess, at least five rounds; every report is checked and
  the end-to-end metrics are medians over the rounds.
  Times are scaled to the reference host's speed (see `calibrate`).
* `--trace 1`: each round is one untraced subprocess run plus one traced
  in-process run of the library sequence.  The spans go to
  `.perfbench-traces/<workload>.json` and the per-layer metrics are derived
  from that file.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; an operation is one checked report
row.  Scratch files live in `.perfbench-work/` and are removed at exit, and
every process the run started has ended by then.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import ctypes
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACES = ROOT / ".perfbench-traces"
WORKLOADS = ("churn", "stdlib_import", "wide")
MIN_ROUNDS = 5
CLASSIFY_SAMPLE = 25
CLI_TIMEOUT_S = 120
STOP_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36
# Median time of one `calibrate()` call on the reference host (see README).
REFERENCE_CALIBRATION_S = 0.035

END_TO_END_UNITS = {
    "setup_s": "s",
    "analyze_wall_s": "s",
    "commits_per_s": "commits/s",
    "source_mb_per_s": "MB/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _calibration_source() -> str:
    from workloads import SNIPPETS

    return "\n".join(template.format(n=i) for i in range(40) for template, _ in SNIPPETS)


def calibrate(source: str) -> float:
    """Seconds this host now takes for a fixed parse-and-walk task.

    The speed of a shared host drifts by up to half from one minute to the
    next, and differs between its CPUs.  The task is timed before and after
    every measured call, and a run's times are scaled by
    REFERENCE_CALIBRATION_S / (median of those timings), which cancels most
    of the drift.  The task runs on each CPU this process may use (at most
    four); the median of three tries per CPU is averaged over the CPUs.
    """
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(allowed)[:4]:
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(2):
                    sum(1 for _ in ast.walk(ast.parse(source)))
                times.append(time.perf_counter() - start)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(per_cpu)


class CliRun:
    """One `analyze` subprocess: its times, resource use and outcome."""

    def __init__(self, command: list[str], out_dir: Path, env: dict[str, str]) -> None:
        shutil.rmtree(out_dir, ignore_errors=True)
        stdout_path = out_dir.with_suffix(".stdout")
        stderr_path = out_dir.with_suffix(".stderr")
        with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
            self.start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=stdout, stderr=stderr, env=env)
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                # wait4 reports the child's own usage plus that of every process
                # it waited for: its scoring workers and its git subprocesses
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            self.end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.cpu = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
        self.stdout = stdout_path.read_text(encoding="utf-8", errors="replace").strip()
        self.stderr = stderr_path.read_text(encoding="utf-8", errors="replace")

    @property
    def wall(self) -> float:
        return self.end - self.start


def _setup(url: str, cache: Path) -> float:
    """Seconds for what a URL user pays once: the catalog and a bare clone."""
    from cefr_progress import RepoSpec, load_catalog, prepare_repo

    start = time.perf_counter()
    load_catalog()
    repo = prepare_repo(RepoSpec(url, workdir=cache))
    elapsed = time.perf_counter() - start
    repo.close()
    return elapsed


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from expected import Tally, classify_plan, expected_report
    from workloads import make_plan, source_bytes, write_repository

    # no user or system git configuration: the same repository bytes everywhere
    os.environ.update(GIT_CONFIG_GLOBAL=os.devnull, GIT_CONFIG_NOSYSTEM="1")
    env = dict(os.environ)
    cli_env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])))
    jobs = min(2, os.cpu_count() or 1)

    plan = make_plan(workload, seed, jobs, work / "files")
    repo = work / "repo.git"
    write_repository(plan, repo, env)
    problems: list[str] = []
    if plan.disk_files:
        sample = random.Random(seed).sample(sorted(plan.disk_files), min(CLASSIFY_SAMPLE, len(plan.disk_files)))
        problems += classify_plan(plan, sample)
    expected = expected_report(plan, repo=str(repo), period=plan.period, top_n=plan.top_n)
    out_dir = work / "out"
    command = [sys.executable, "-m", "cefr_progress", "analyze", str(repo), "--out", str(out_dir),
               "--jobs", str(plan.jobs), "--period", plan.period, "--top", str(plan.top_n)]
    tally = Tally()

    def analyze() -> CliRun:
        run = CliRun(command, out_dir, cli_env)
        if run.code != 0:
            problems.append(f"analyze exited {run.code}: {run.stderr[-2000:]}")
            tally.check(expected, None)
        else:
            tally.check(expected, out_dir)
            if run.stdout != expected.stdout:
                problems.append(f"stdout {run.stdout!r} != {expected.stdout!r}")
        return run

    if trace:
        from tracing import LAYER_UNITS, Tracer, layer_metrics, traced_round

        tracer = Tracer()
        traced_out = work / "traced-out"
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            run = analyze()
            tracer.spans.append(["cli.analyze", run.start, run.end, -1, {}])
            cache = work / f"cache-trace-{rounds}"
            traced_round(tracer, url=repo.as_uri(), cache=cache, repo_label=str(repo), out_dir=traced_out,
                         period=plan.period, top_n=plan.top_n, jobs=plan.jobs)
            shutil.rmtree(cache)
            tally.check(expected, traced_out)
            rounds += 1
        if any(span[4].get("mismatch") for span in tracer.spans):
            problems.append("scores from the process pool differ from the serial scores")
        trace_file = TRACES / f"{workload}.json"
        tracer.write(trace_file, workload=workload, seed=seed)
        metrics = {name: (value, LAYER_UNITS[name]) for name, value in layer_metrics(trace_file).items()}
    else:
        source = _calibration_source()
        calibrations: list[float] = []
        setups: list[float] = []
        runs: list[CliRun] = []
        deadline = time.perf_counter() + seconds
        # The host's speed moves in phases of a few seconds, so each round
        # pairs one set-up with one `analyze` run: the set-ups are spread
        # over the whole run instead of falling into one phase.
        while len(runs) < MIN_ROUNDS or time.perf_counter() < deadline:
            calibrations.append(calibrate(source))
            cache = work / f"cache-setup-{len(setups)}"
            setups.append(_setup(repo.as_uri(), cache))
            shutil.rmtree(cache)
            runs.append(analyze())
            calibrations.append(calibrate(source))
        scale = REFERENCE_CALIBRATION_S / statistics.median(calibrations)
        wall = statistics.median(run.wall for run in runs) * scale
        values = {
            "setup_s": statistics.median(setups) * scale,
            "analyze_wall_s": wall,
            "commits_per_s": len(plan.commits) / wall,
            "source_mb_per_s": source_bytes(plan) / 1e6 / wall,
            "cpu_s": statistics.median(run.cpu for run in runs) * scale,
            "peak_rss_mb": statistics.median(run.peak_rss_mb for run in runs),
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
        print(f"{workload}: {len(runs)} rounds; unscaled medians: setup {statistics.median(setups):.4f} s, "
              f"wall {wall / scale:.3f} s, cpu {values['cpu_s'] / scale:.3f} s; scale {scale:.3f}", file=sys.stderr)

    for problem in list(dict.fromkeys(problems + tally.unexpected))[:20]:
        print(f"{workload}: {problem}", file=sys.stderr)
    return {
        "correct": not problems and not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _adopt_orphans() -> None:
    """Make this process the parent of every orphaned descendant.

    A process whose parent ended (a git child of a killed `analyze`, a
    daemonised `git gc`) then waits here for `_stop_descendants` instead of
    outliving the benchmark.
    """
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            with contextlib.suppress(OSError, ValueError, IndexError):
                ppid = int((entry / "stat").read_text().rsplit(")", 1)[1].split()[1])
                if ppid == os.getpid():
                    pids.append(int(entry.name))
    return pids


def _stop_descendants() -> None:
    """Stop every process this run started and wait until each has ended."""
    from multiprocessing import resource_tracker

    # the tracker a spawn-context pool starts lives until its parent exits
    with contextlib.suppress(Exception):
        resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + STOP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline + STOP_GRACE_S:
            return  # a child that ignores SIGKILL this long is stuck in the kernel
        if time.monotonic() > deadline:
            for child in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


def _exit_on_signal(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cefr_progress" / "__init__.py").is_file():
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    _adopt_orphans()
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)

    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        work = WORK / f"{workload}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
        finally:
            _stop_descendants()
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()  # left alone while another run uses it
        if args.workload == "all":
            result = {"workload": workload, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
