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
import contextlib
import json
import logging
import re
import sys
from collections import Counter, deque
from pathlib import Path

from .analyzer import analyze_source, source_text
from .catalog import Catalog, CatalogError, load_catalog, LEVEL_LABELS
from .history import CommitBlobs, RepoError, RepoSpec, prepare_repo, walk_history
from .report import write_report_bundle
from .scoring import (
    DEFAULT_BOT_PATTERNS, Entry, Granularity, Stored, blob_analysis, build_report, entry_folder,
    is_lasting, score_blobs,
)

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


def _analyses(blobs: list[tuple[str, bytes | None]]) -> list[Stored]:
    return [blob_analysis(data) for _, data in blobs]


def _analyze_history(
    source: str, catalog: Catalog, identity: str, jobs: int
) -> tuple[list[CommitBlobs], dict[str, Entry]]:
    """The commits of the repository at `source`, and the memo entry of each blob they name.

    The analysis store answers for the blobs an earlier run analyzed, and git
    reads only the others.  Each of those is analyzed as git reads it, while
    the history walk goes on: here at one job; with more, by worker
    processes, which get raw blob bytes in small chunks and return stored
    forms.  Stored forms fold into memo entries under `catalog` here, and
    the new ones go into the store when the walk ends, except those that
    hold only for this run: a blob this repository lacks, or a verdict that
    tells of this run rather than of the blob.  The store also keeps the
    history walk, so that a re-run on an unchanged history starts no
    ``git log``.  One line on stderr sums up where the blobs'
    analyses and the commits came from.
    """
    # imported here, as the process pool below: sqlite3 and the pool's modules
    # would add 1.5 and 2.5 MB to the peak memory of every process that
    # imports this module, `classify` and serial runs included
    from .store import AnalysisStore

    commits: list[CommitBlobs] = []
    memo: dict[str, Entry] = {}
    new: list[tuple[str, Stored]] = []  # the analyses to store
    skipped: Counter = Counter()  # reason -> blobs
    sources: Counter = Counter()  # "git log" or "stored walk" -> commits
    from_store = 0
    fold = entry_folder(catalog)

    def keep(oid: str, stored: Stored) -> None:
        memo[oid] = fold(stored)
        if type(stored) is str and stored:
            skipped[stored] += 1

    def known(oids: list[str]) -> dict[str, Stored]:
        nonlocal from_store
        found = store.lookup(oids)
        for oid, stored in found.items():
            keep(oid, stored)
        from_store += len(found)
        return found

    def analyzed(oid: str, data: bytes | None, stored: Stored) -> None:
        keep(oid, stored)
        # no data: the id names no blob in this repository
        if data is not None and is_lasting(stored):
            new.append((oid, stored))

    sent: deque = deque()  # ((blob id, bytes) pairs, future of their stored forms), oldest first

    def collect() -> None:
        chunk, future = sent.popleft()
        for (oid, data), stored in zip(chunk, future.result()):
            analyzed(oid, data, stored)

    with contextlib.ExitStack() as stack:
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            # Under the fork start method the first task forks every worker.  Forked
            # before git starts, no worker holds a pipe to git: one holding
            # cat-file's input open would keep git from ever seeing its end.
            # Nor does any worker hold the store's connection, opened after it.
            pool.submit(int)
        store = AnalysisStore.open()
        if store is not None:
            stack.callback(store.close)
        with prepare_repo(RepoSpec(source)) as repo:
            blobs = walk_history(repo, commits, identity=identity, known=None if store is None else known,
                                 walks=store, sources=sources)
            if jobs == 1:
                for oid, data in blobs:
                    analyzed(oid, data, blob_analysis(data))
            else:
                chunk, size = [], 0
                for oid, data in blobs:
                    chunk.append((oid, data))
                    size += len(data or b"")
                    if size >= _CHUNK_BYTES:
                        sent.append((chunk, pool.submit(_analyses, chunk)))
                        chunk, size = [], 0
                        if len(sent) > 4 * jobs:  # bounds the bytes waiting for a worker
                            collect()
                sent.append((chunk, pool.submit(_analyses, chunk)))
                while sent:
                    collect()
        if store is not None:
            store.add(new)

    reasons = ", ".join(f"{count} {reason}" for reason, count in sorted(skipped.items())) or "none"
    log.info(
        "blobs: %d named, %d analyzed, %d from the analysis store; skipped: %s; "
        "commits: %d from git log, %d from a stored walk; %s",
        len(memo), len(memo) - from_store, from_store, reasons, sources["git log"], sources["stored walk"],
        "no store" if store is None else f"store: {store.path}",
    )
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
