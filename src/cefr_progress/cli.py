"""Command-line front end.

Subcommands:
  analyze   mine a repository and write JSON/CSV/HTML reports
  classify  print one file's construct occurrences and level vector as JSON

Exit codes: 0 success, 2 repository or usage error, 3 catalog error, 4 I/O
error, 5 parse failure and 6 no source text (classify only).  Progress goes
to stderr; machine output goes to files or stdout only.  `store` alone
decides whether a history uses the analysis store, and under which key.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import os
import re
import sys
from pathlib import Path

from .catalog import Catalog, CatalogError, load_catalog, LEVEL_LABELS
from .history import RepoError, RepoSpec, prepare_repo
from .report import write_report_bundle
from .scoring import CELL, DEFAULT_BOT_PATTERNS, Cells, Granularity, finish

log = logging.getLogger("cefr_progress")

EXIT_OK = 0
EXIT_REPO = 2
EXIT_CATALOG = 3
EXIT_IO = 4
EXIT_PARSE = 5
EXIT_NO_TEXT = 6


def _shown(text: str) -> str:
    """`text` as stderr and the outputs show it: each byte that argv, a path or
    git's output could not decode (a surrogate escape) as ``\\xNN``."""
    return text.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


class _ShownFormatter(logging.Formatter):
    """Formats each stderr line through `_shown`, git's messages included."""

    def format(self, record: logging.LogRecord) -> str:
        return _shown(super().format(record))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _regex(text: str) -> str:
    try:
        re.compile(text)
    except re.error as exc:
        raise argparse.ArgumentTypeError(f"invalid regular expression {text!r}: {exc}") from None
    return text


def _analyze_history(source: str, catalog: Catalog, identity: str, jobs: int) -> Cells:
    """The cells of the history of the repository at `source` under `catalog`.

    A re-run on an unchanged history reads them from the analysis store, which
    alone decides whether a history uses it and under which key.  Any other
    run imports `walk` and walks the whole history with git.  A line on stderr
    sums up where the blobs' analyses and the commits came from.
    """
    from .store import AnalysisStore  # sqlite3 would add 1.5 MB to the peak memory of `classify`

    named = analyzed = 0
    skipped: dict[str, int] = {}  # reason -> blobs analyzed in this run
    with prepare_repo(RepoSpec(source)) as repo:
        with contextlib.closing(AnalysisStore.open(repo, identity, catalog)) as store:
            cells = kept = store.cells()
            if kept is None:  # no stored cells: walk
                from .walk import walk_cells

                cells, named, analyzed, skipped = walk_cells(repo, store, catalog, identity, jobs)

    commits, files = (sum(sum(ints[column::CELL]) for _, ints in cells.values()) for column in (8, 10))
    reasons = (f"{files} file{'s' * (files > 1)}, reasons not stored" if kept and files  # the cells keep no reasons
               else ", ".join(f"{count} {reason}" for reason, count in sorted(skipped.items())))
    log.info(
        "blobs: %d named, %d analyzed, %d from the analysis store; skipped: %s; "
        "commits: %d from git log, %d from stored cells; %s",
        named, analyzed, named - analyzed, reasons or "none", *((0, commits) if kept else (commits, 0)),
        f"store: {store.path}" if store.path else "no store",
    )
    return cells


def cmd_analyze(args: argparse.Namespace, catalog: Catalog) -> int:
    repo = _shown(args.repo)  # the repository as the reports name it
    try:
        log.info("analyzing the commit history of %s with %d job(s)", repo, args.jobs)
        cells = _analyze_history(args.repo, catalog, args.identity, args.jobs)
    except RepoError as exc:
        log.error("repository error: %s", exc)
        return EXIT_REPO

    report = finish(cells, repo=repo, period=Granularity(args.period),
                    bot_patterns=tuple(args.bot_pattern) if args.bot_pattern else DEFAULT_BOT_PATTERNS)

    try:
        write_report_bundle(report, Path(args.out), top_n=args.top, show_names=args.show_names)
    except OSError as exc:
        log.error("cannot write reports into %s: %s", args.out, exc.strerror)
        return EXIT_IO

    top = report.top_contributor.contributor.anon_id if report.top_contributor else "-"
    print(
        f"commits analyzed: {report.commit_count}; files skipped: {report.files_skipped}; "
        f"top contributor: {top}"
    )
    log.info("wrote report.json, report.csv and report.html into %s", args.out)
    return EXIT_OK


def cmd_classify(path: Path, catalog: Catalog) -> int:
    """Decode and judge the file at `path` as `analyze` does a blob."""
    from .analyzer import analyze_source, blob_text

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        log.error("cannot read %s: %s", path, exc.strerror)
        return EXIT_IO

    text = blob_text(data)
    if text is None:
        log.error("%s holds no source text: it has a NUL byte", path)
        return EXIT_NO_TEXT
    result = analyze_source(text, catalog)
    if not result.parse_ok:
        log.error("%s does not parse under the running Python grammar", path)
        return EXIT_PARSE

    payload = {
        "file": _shown(str(path)),
        "levels": dict(zip(LEVEL_LABELS, result.vector)),
        "total": sum(result.vector),
        "occurrences": [{"kind": kind, "line": line} for kind, line in result.occurrences],
        "unclassified_count": result.unclassified_count,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cefr-progress",
        description="Track six-level code proficiency progression across a git history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="mine a repository and write reports")
    analyze.add_argument("repo", help="local path or clone URL of a git repository")
    analyze.add_argument("--out", default="cefr-report", help="output directory (default: %(default)s)")
    analyze.add_argument(
        "--period", choices=[g.value for g in Granularity], default="yearly",
        help="time bucket granularity (default: %(default)s)",
    )
    analyze.add_argument("--catalog", default=None, help="catalog file overriding default rules")
    analyze.add_argument("--top", type=_positive_int, default=10, help="contributor radars in the HTML (default: %(default)s)")
    analyze.add_argument("--show-names", action="store_true", help="show real names instead of anonymized IDs")
    analyze.add_argument(
        "--bot-pattern", action="append", type=_regex, default=None, metavar="REGEX",
        help="identity-name regex treated as a bot; repeatable; replaces the default (\\[bot\\]$)",
    )
    analyze.add_argument(
        "--identity", choices=["author", "committer"], default="author",
        help="which git identity is credited (default: %(default)s)",
    )
    analyze.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes analyzing distinct file versions (default: %(default)s)",
    )

    classify = sub.add_parser("classify", help="classify a single Python file")
    classify.add_argument("file", help="Python source file")
    classify.add_argument("--catalog", default=None, help="catalog file overriding default rules")

    return parser


def main(argv: list[str] | None = None) -> int:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_ShownFormatter("%(levelname)s %(message)s"))
    logging.basicConfig(level=logging.INFO, handlers=[handler])
    args = build_parser().parse_args(argv)
    try:
        catalog = load_catalog(args.catalog or None)
    except CatalogError as exc:
        log.error("catalog error: %s", exc)
        return EXIT_CATALOG

    try:
        code = cmd_classify(Path(args.file), catalog) if args.command == "classify" else cmd_analyze(args, catalog)
        sys.stdout.flush()  # a reader that closed the pipe early is found here, not at exit
    except BrokenPipeError:  # as the "Note on SIGPIPE" in the docs of `signal` says:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the flush at exit cannot raise again
        log.error("cannot write to stdout: its reader has closed it")
        return EXIT_IO
    return code


def run() -> int:
    """`main` for a process that exits once it returns (``python -m cefr_progress``, the
    ``cefr-progress`` script): the frozen collector skips its last collection at exit."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
