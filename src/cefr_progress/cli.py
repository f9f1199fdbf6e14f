"""Command-line front end.

Subcommands:
  analyze   mine a repository and write JSON/CSV/HTML reports
  classify  print one file's construct occurrences and level vector as JSON

Exit codes: 0 success, 2 repository error, 3 catalog error, 4 I/O error,
5 parse failure (classify only).  Progress goes to stderr; machine output
goes to files or stdout only.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from .analyzer import LevelVector, analyze_source
from .catalog import Catalog, CatalogError, load_catalog, LEVEL_LABELS
from .history import RepoError, RepoSpec, extract_commits, prepare_repo
from .report import write_report_bundle
from .scoring import DEFAULT_BOT_PATTERNS, Granularity, build_report, level_vector, score_commit

log = logging.getLogger("cefr_progress")

EXIT_OK = 0
EXIT_REPO = 2
EXIT_CATALOG = 3
EXIT_IO = 4
EXIT_PARSE = 5


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _score_all(records, catalog: Catalog, jobs: int):
    memo: dict[str, LevelVector | None] = {}
    if jobs > 1:
        # workers get each distinct text once and return its vector, in input order
        texts = list(dict.fromkeys(
            text
            for record in records
            for change in record.changes
            for text in (change.before_text, change.after_text)
            if text is not None
        ))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            vectors = pool.map(
                partial(level_vector, catalog=catalog), texts,
                chunksize=max(1, len(texts) // (jobs * 4)),
            )
            memo.update(zip(texts, vectors))
    return [score_commit(record, catalog, memo) for record in records]


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        catalog = load_catalog(args.catalog or None)
    except CatalogError as exc:
        log.error("catalog error: %s", exc)
        return EXIT_CATALOG

    try:
        with prepare_repo(RepoSpec(source=args.repo)) as repo:
            log.info("extracting commit history of %s", args.repo)
            records = extract_commits(repo, identity=args.identity)
    except RepoError as exc:
        log.error("repository error: %s", exc)
        return EXIT_REPO

    log.info("scoring %d commits with %d job(s)", len(records), args.jobs)
    scores = _score_all(records, catalog, args.jobs)
    report = build_report(
        scores,
        repo=args.repo,
        period=Granularity(args.period),
        bot_patterns=tuple(args.bot_pattern) if args.bot_pattern else DEFAULT_BOT_PATTERNS,
    )

    try:
        bundle = write_report_bundle(
            report, Path(args.out), top_n=args.top, show_names=args.show_names
        )
    except OSError as exc:
        log.error("cannot write reports: %s", exc)
        return EXIT_IO

    top = report.top_contributor.contributor.anon_id if report.top_contributor else "-"
    print(
        f"commits analyzed: {report.commit_count}; files skipped: {report.files_skipped}; "
        f"top contributor: {top}"
    )
    log.info("wrote %s, %s, %s", bundle.json_path, bundle.csv_path, bundle.html_path)
    return EXIT_OK


def cmd_classify(path: Path, catalog_path: str | None) -> int:
    try:
        catalog = load_catalog(catalog_path)
    except CatalogError as exc:
        log.error("catalog error: %s", exc)
        return EXIT_CATALOG
    try:
        source = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        log.error("cannot read %s: %s", path, exc)
        return EXIT_IO

    result = analyze_source(source, catalog)
    if not result.parse_ok:
        log.error("%s does not parse under the running Python grammar", path)
        return EXIT_PARSE

    payload = {
        "file": str(path),
        "levels": dict(zip(LEVEL_LABELS, result.vector.as_list())),
        "total": result.vector.total(),
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
        "--bot-pattern", action="append", default=None, metavar="REGEX",
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
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)

    if args.command == "classify":
        return cmd_classify(Path(args.file), args.catalog or None)

    return cmd_analyze(args)


if __name__ == "__main__":
    sys.exit(main())
