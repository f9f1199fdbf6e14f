"""Command-line front end.

Subcommands:
  analyze   mine a repository and write JSON/CSV/HTML reports
  classify  print one file's construct occurrences and level vector as JSON

Exit codes: 0 success, 2 repository or usage error, 3 catalog error, 4 I/O
error, 5 parse failure (classify only).  Progress goes to stderr; machine output
goes to files or stdout only.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .analyzer import analyze_source, source_text
from .catalog import Catalog, CatalogError, load_catalog, LEVEL_LABELS
from .history import CommitBlobs, RepoError, RepoSpec, prepare_repo, walk_history
from .report import write_report_bundle
from .scoring import DEFAULT_BOT_PATTERNS, Entry, Granularity, blob_entry, build_report, score_blobs

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


def _regex(text: str) -> str:
    try:
        re.compile(text)
    except re.error as exc:
        raise argparse.ArgumentTypeError(f"invalid regular expression {text!r}: {exc}") from None
    return text


#: Raw blob bytes per task sent to a worker: small, so that the workers share
#: the last blobs of a history evenly.
_CHUNK_BYTES = 1 << 16


def _entries(blobs: list[bytes | None], catalog: Catalog) -> list[Entry]:
    return [blob_entry(data, catalog) for data in blobs]


def _analyze_history(
    source: str, catalog: Catalog, identity: str, jobs: int
) -> tuple[list[CommitBlobs], dict[str, Entry]]:
    """The commits of the repository at `source`, and the memo entry of each blob they name.

    Each blob is analyzed as git reads it, while the history walk goes on:
    here at one job; with more, by worker processes, which get raw blob bytes
    in small chunks and return memo entries.
    """
    commits: list[CommitBlobs] = []
    memo: dict[str, Entry] = {}
    if jobs == 1:
        with prepare_repo(RepoSpec(source)) as repo:
            for oid, data in walk_history(repo, commits, identity=identity):
                memo[oid] = blob_entry(data, catalog)
        return commits, memo

    sent: deque = deque()  # (blob ids, future of their entries), oldest first

    def collect() -> None:
        oids, future = sent.popleft()
        memo.update(zip(oids, future.result()))

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # Under the fork start method the first task forks every worker.  Forked
        # before git starts, no worker holds a pipe to git: one holding
        # cat-file's input open would keep git from ever seeing its end.
        pool.submit(int)
        oids, chunk, size = [], [], 0
        with prepare_repo(RepoSpec(source)) as repo:
            for oid, data in walk_history(repo, commits, identity=identity):
                oids.append(oid)
                chunk.append(data)
                size += len(data or b"")
                if size >= _CHUNK_BYTES:
                    sent.append((oids, pool.submit(_entries, chunk, catalog)))
                    oids, chunk, size = [], [], 0
                    if len(sent) > 4 * jobs:  # bounds the bytes waiting for a worker
                        collect()
        sent.append((oids, pool.submit(_entries, chunk, catalog)))
        while sent:
            collect()
    return commits, memo


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        catalog = load_catalog(args.catalog or None)
    except CatalogError as exc:
        log.error("catalog error: %s", exc)
        return EXIT_CATALOG

    try:
        log.info("analyzing the commit history of %s with %d job(s)", args.repo, args.jobs)
        commits, memo = _analyze_history(args.repo, catalog, args.identity, args.jobs)
    except RepoError as exc:
        log.error("repository error: %s", exc)
        return EXIT_REPO

    log.info("scoring %d commits", len(commits))
    report = build_report(
        (score_blobs(commit, memo) for commit in commits),
        repo=args.repo,
        period=Granularity(args.period),
        bot_patterns=tuple(args.bot_pattern) if args.bot_pattern else DEFAULT_BOT_PATTERNS,
    )

    try:
        write_report_bundle(report, Path(args.out), top_n=args.top, show_names=args.show_names)
    except OSError as exc:
        log.error("cannot write reports: %s", exc)
        return EXIT_IO

    top = report.top_contributor.contributor.anon_id if report.top_contributor else "-"
    print(
        f"commits analyzed: {report.commit_count}; files skipped: {report.files_skipped}; "
        f"top contributor: {top}"
    )
    log.info("wrote report.json, report.csv and report.html into %s", args.out)
    return EXIT_OK


def cmd_classify(path: Path, catalog_path: str | None) -> int:
    try:
        catalog = load_catalog(catalog_path)
    except CatalogError as exc:
        log.error("catalog error: %s", exc)
        return EXIT_CATALOG
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        log.error("cannot read %s: %s", path, exc)
        return EXIT_IO

    result = analyze_source(source_text(data), catalog)
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
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)

    if args.command == "classify":
        return cmd_classify(Path(args.file), args.catalog or None)

    return cmd_analyze(args)


if __name__ == "__main__":
    sys.exit(main())
