"""Time whole ``analyze`` runs of two checkouts of this repository, cold or after new commits.

    python tests/walk_ab.py PARENT CHANGE REPO [--back K] [--jobs N] [--runs R]

Each run is one ``analyze`` of the repository at REPO at ``--jobs`` jobs, in
a child process that imports the package from a checkout's ``src``
directory.  The checkouts take turns, and which goes first alternates from
run to run.  Without ``--back``, every run starts from an empty cache root,
so it walks the whole history and analyzes every blob.  With ``--back K``,
every run starts from a copy of a cache root that one untimed run of the
same checkout filled by analyzing a clone of REPO reset to ``HEAD~K``: the
tip has no stored cells, and every blob but those of the last K commits
is stored; each checkout also analyzes REPO once, untimed, from an empty
cache root.  It prints each checkout's median and quartile seconds, the
change/parent ratio of the medians, the runs in which the change took less
time than the parent, and the peak memory (``VmHWM``) of each run's main
process, which the child reads from ``/proc/self/status`` as it ends, so
this needs Linux.  The exit status is 1 unless both checkouts write
byte-identical report.json, report.csv, report.html and stdout on every run,
and, with ``--back``, each run writes what its checkout's cold run wrote.
"""

from __future__ import annotations

import argparse
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from report_ab import quartiles

REPORTS = ("report.json", "report.csv", "report.html")
#: The child: what ``python -m cefr_progress`` runs, the checkout's
#: ``__main__.py``, on its arguments, then its VmHWM in kB as the last line on stderr
CHILD = """import runpy, sys
try:
    runpy.run_module("cefr_progress", run_name="__main__")
except SystemExit as exit:
    code = exit.code
with open("/proc/self/status") as status:
    print(*(line.split()[1] for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def analyze(checkout: Path, repo: str, jobs: int, cache: Path, out: Path) -> tuple[float, float, bytes]:
    """Seconds, main-process VmHWM in MB and stdout of one ``analyze`` of `repo`
    by the package in `checkout`, with the cache root `cache`, writing the reports into `out`."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"), CEFR_PROGRESS_CACHE=str(cache))
    command = [sys.executable, "-c", CHILD, "analyze", repo, "--out", str(out), "--jobs", str(jobs)]
    start = time.perf_counter()
    child = subprocess.run(command, env=env, capture_output=True)
    seconds = time.perf_counter() - start
    if child.returncode != 0:
        raise SystemExit(f"analyze with {checkout} exited {child.returncode}: {child.stderr.decode(errors='replace')}")
    return seconds, int(child.stderr.splitlines()[-1]) / 1024, child.stdout


def outputs(out: Path, stdout: bytes) -> dict[str, bytes]:
    """The reports one ``analyze`` wrote into `out`, and its stdout, by name."""
    return {**{name: (out / name).read_bytes() for name in REPORTS}, "stdout": stdout}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("repo", help="path of the git repository to analyze")
    parser.add_argument("--back", type=int, default=None, metavar="K",
                        help="start each run from the store of HEAD~K (default: from an empty cache root)")
    parser.add_argument("--jobs", type=int, default=1, help="jobs of each analyze (default: %(default)s)")
    parser.add_argument("--runs", type=int, default=5, help="timed runs of each checkout (default: %(default)s)")
    args = parser.parse_args()

    checkouts = (args.parent, args.change)
    with tempfile.TemporaryDirectory(prefix="walk-ab-") as scratch:
        root = Path(scratch)
        filled = [None, None]  # each checkout's cache root after its run on HEAD~K
        cold = [None, None]  # each checkout's outputs from an empty cache root, with --back
        if args.back is not None:
            older = root / "older"
            subprocess.run(["git", "clone", "-q", "--bare", args.repo, str(older)], check=True)
            subprocess.run(["git", "-C", str(older), "update-ref", "HEAD", f"HEAD~{args.back}"], check=True)
            for side, checkout in enumerate(checkouts):
                filled[side] = root / f"filled-{side}"
                analyze(checkout, str(older), args.jobs, filled[side], root / "older-out")
                stdout = analyze(checkout, args.repo, args.jobs, root / f"cold-cache-{side}", root / "cold")[2]
                cold[side] = outputs(root / "cold", stdout)
        times, peaks = ([], []), ([], [])  # per checkout, per run
        differing = set()
        for number in range(args.runs):
            outs = (root / "parent", root / "change")
            stdouts = [b"", b""]
            for side in (0, 1) if number % 2 == 0 else (1, 0):
                cache = root / "cache"
                shutil.rmtree(cache, ignore_errors=True)
                if filled[side] is not None:
                    shutil.copytree(filled[side], cache)
                seconds, peak, stdouts[side] = analyze(checkouts[side], args.repo, args.jobs, cache, outs[side])
                times[side].append(seconds)
                peaks[side].append(peak)
            got = [outputs(outs[side], stdouts[side]) for side in (0, 1)]
            pairs = [("the checkouts'", *got)] + [
                (f"the {('parent', 'change')[side]}'s and its cold run's", got[side], cold[side])
                for side in (0, 1) if cold[side] is not None]
            for which, ours, theirs in pairs:
                for name in ours:
                    if ours[name] != theirs[name] and f"{name} ({which})" not in differing:
                        differing.add(f"{name} ({which})")
                        print(f"{name}: {which} differ (run {number + 1})")

    start = "an empty cache root" if args.back is None else f"the store of HEAD~{args.back}"
    print(f"Python {platform.python_version()}, {args.repo}, --jobs {args.jobs}, {args.runs} runs, each from "
          f"{start}; wins: runs in which that checkout took less time than the other")
    print(f"{'checkout':<9} {'median s':>9} {'q1':>8} {'q3':>8} {'wins':>7} {'VmHWM MB':>9} {'min':>7} {'max':>7}")
    for side, name in enumerate(("parent", "change")):
        seconds, peak = times[side], peaks[side]
        q1, median, q3 = quartiles(seconds)
        wins = sum(ours < theirs for ours, theirs in zip(seconds, times[1 - side]))
        print(f"{name:<9} {median:>9.4f} {q1:>8.4f} {q3:>8.4f} {wins:>4}/{len(seconds)} "
              f"{statistics.median(peak):>9.1f} {min(peak):>7.1f} {max(peak):>7.1f}")
    ratio = statistics.median(times[1]) / statistics.median(times[0])
    print(f"change/parent: {ratio:.3f} of the parent's median")
    print("reports: " + (f"{', '.join(sorted(differing))} differ" if differing else "byte-identical"))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
