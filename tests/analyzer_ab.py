"""Time cold analysis in two checkouts of this repository, file by file.

Loads ``cefr_progress`` from each checkout's ``src`` directory under a name
of its own.  Each run times ``find_constructs`` on every 3rd ``.py`` file
of the running interpreter's standard library, site-packages left out.  The
two checkouts take turns per file, and which goes first alternates from
file to file and from run to run.  Both must give each file the same
verdict (whether it raises ParseError) and equal sorted occurrences; each
difference is printed, and so is each file that ``blob_text`` finds no
source text in, which neither side analyzes.  The exit status is 1 when
there is one of either.  Then it prints each run's change/parent ratio of
summed times, and their median:

    python tests/analyzer_ab.py PARENT CHANGE [--runs 5]

No run reads the analysis store, so this measures what a first ``analyze``
of new blobs pays, which the benchmark's warm rounds do not show.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import platform
import statistics
import sys
import sysconfig
import time
from pathlib import Path


def load_analyzer(checkout: Path, name: str):
    """The ``analyzer`` module of the package in `checkout`, imported as package `name`."""
    package = checkout / "src" / "cefr_progress"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.analyzer")


def outcome(analyzer, text: str) -> tuple[float, list | None]:
    """Seconds `analyzer.find_constructs` took on `text`, and its sorted
    occurrences (None for a ParseError)."""
    start = time.perf_counter()
    try:
        found = analyzer.find_constructs(text)
    except analyzer.ParseError:
        found = None
    seconds = time.perf_counter() - start
    return seconds, None if found is None else sorted(found)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--runs", type=int, default=5, help="timed runs over the files (default: %(default)s)")
    args = parser.parse_args()

    analyzers = (load_analyzer(args.parent, "parent_cefr_progress"),
                 load_analyzer(args.change, "change_cefr_progress"))
    root = Path(sysconfig.get_paths()["stdlib"])
    paths = sorted(path for path in root.rglob("*.py") if "site-packages" not in path.relative_to(root).parts)
    blobs = [(path, path.read_bytes()) for path in paths[::3]]
    texts = [(path, analyzers[0].blob_text(data)) for path, data in blobs]
    size = sum(len(data) for _, data in blobs)
    textless = [path for path, text in texts if text is None]
    for path in textless:
        print(f"{path}: no source text (it has a NUL byte), so neither side analyzes it")
    texts = [(path, text) for path, text in texts if text is not None]

    ratios = []
    differing = set()
    for run in range(args.runs):
        totals = [0.0, 0.0]
        for index, (path, text) in enumerate(texts):
            results = [None, None]
            for side in ((0, 1) if (index + run) % 2 == 0 else (1, 0)):
                seconds, results[side] = outcome(analyzers[side], text)
                totals[side] += seconds
            if results[0] != results[1] and path not in differing:
                differing.add(path)
                parent, change = ("ParseError" if found is None else f"{len(found)} occurrences" for found in results)
                print(f"{path}: parent {parent}, change {change}, and they differ")
        ratios.append(totals[1] / totals[0])
        print(f"run {run + 1}: parent {totals[0]:.3f} s, change {totals[1]:.3f} s, "
              f"change/parent {ratios[-1]:.3f}")
    print(f"Python {platform.python_version()}, {len(blobs)} files ({size / 1e6:.1f} MB): "
          f"median change/parent ratio {statistics.median(ratios):.3f} over {args.runs} runs, "
          f"{len(differing)} file(s) differ, {len(textless)} without source text")
    return 1 if differing or textless else 0


if __name__ == "__main__":
    sys.exit(main())
