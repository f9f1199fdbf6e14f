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
import json
import logging
import re
import sys
from collections import Counter, deque
from collections.abc import Iterator
from pathlib import Path

from .catalog import Catalog, CatalogError, load_catalog, LEVEL_LABELS
from . import history
from .history import CommitBlobs, RepoError, RepoSpec, prepare_repo, walk_history
from .report import write_report_bundle
from .scoring import (
    CELL, DEFAULT_BOT_PATTERNS, Cells, Entry, Granularity, Stored, blob_analysis, entry_folder, finish, fold,
    is_lasting, score_blobs,
)

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


#: Raw blob bytes per task sent to a worker: small, so that the workers share
#: the last blobs of a history evenly.
_CHUNK_BYTES = 1 << 16


def _analyses(blobs: list[tuple[str, bytes | None]]) -> list[Stored]:
    return [blob_analysis(data) for _, data in blobs]


def _one_by_one(blobs: list[tuple[str, bytes | None]]) -> Iterator[tuple[str, bytes | None, Stored]]:
    """(blob id, bytes, stored form) of each of `blobs`, each analyzed as a task
    of its own by one worker process.  A blob whose worker dies is skipped as
    ``BrokenProcessPool``, and a fresh worker takes the next."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    rest = deque(blobs)
    while rest:
        with ProcessPoolExecutor(max_workers=1) as pool:
            while rest:
                oid, data = rest.popleft()
                try:
                    (stored,) = pool.submit(_analyses, [(oid, data)]).result()
                except BrokenProcessPool as exc:
                    yield oid, data, type(exc).__name__
                    break
                yield oid, data, stored


def _analyze_history(source: str, catalog: Catalog, identity: str, jobs: int) -> Cells:
    """The cells of the history of the repository at `source` under `catalog`.

    The analysis store keeps the cells of each tip it has seen, so a re-run
    on an unchanged history reads them and starts no ``git log`` and no
    ``git cat-file``; the store alone decides whether a history uses it and
    under which key.  Any other run walks the whole history with git, which
    names each blob once, while it goes on.  The store answers for the blobs
    an earlier run analyzed, and one ``git cat-file`` reads the others, each
    analyzed as git reads it: here at one job; with more, by worker
    processes, which get raw blob bytes in small chunks and return stored
    forms.  ``cat-file`` and the workers start at the first blob the store
    lacks, the workers first.  A chunk whose worker died is analyzed again
    one blob per task.  Stored forms fold into memo entries under `catalog`,
    the commits are scored from them and the scores fold into cells.  The
    new analyses and the cells go into the store, except what holds only
    for this run: a blob this repository lacks, or a verdict that tells of
    this run rather than of the blob, which keeps the cells out too.  A line
    on stderr sums up where the blobs' analyses and the commits came from.
    """
    # imported here, as the process pool: sqlite3 and the pool's modules
    # would add 1.5 and 2.5 MB to the peak memory of every process that
    # imports this module, `classify` and serial runs included
    from .store import AnalysisStore

    commits: list[CommitBlobs] = []
    memo: dict[str, Entry] = {}
    new: list[tuple[str, Stored]] = []  # the analyses to store
    skipped: Counter = Counter()  # reason -> blobs
    from_store = 0
    entry = entry_folder(catalog)

    def keep(oid: str, stored: Stored) -> None:
        memo[oid] = entry(stored)
        if type(stored) is str and stored:
            skipped[stored] += 1

    def analyzed(oid: str, data: bytes | None, stored: Stored) -> None:
        keep(oid, stored)
        # no data: the id names no blob in this repository
        if data is not None and is_lasting(stored):
            new.append((oid, stored))

    sent: deque = deque()  # ((blob id, bytes) pairs, future of their stored forms), oldest first
    lost: list[tuple[str, bytes | None]] = []  # the blobs of chunks whose worker died

    def send(chunk: list[tuple[str, bytes | None]]) -> None:
        try:
            sent.append((chunk, pool.submit(_analyses, chunk)))
        except BrokenProcessPool:
            lost.extend(chunk)

    def collect() -> None:
        chunk, future = sent.popleft()
        try:
            analyses = future.result()
        except BrokenProcessPool:
            lost.extend(chunk)
            return
        for (oid, data), stored in zip(chunk, analyses):
            analyzed(oid, data, stored)

    with contextlib.ExitStack() as stack:
        with prepare_repo(RepoSpec(source)) as repo:
            store = stack.enter_context(contextlib.closing(AnalysisStore.open(repo, identity, catalog)))
            cells = store.cells()
            git = pool = None  # git cat-file and the workers, once a blob is to be read
            chunk, size = [], 0
            for oids in walk_history(repo, commits, identity=identity) if cells is None else ():  # stored cells: no walk
                found = store.lookup(oids)
                for oid, stored in found.items():
                    keep(oid, stored)
                from_store += len(found)
                oids = [oid for oid in oids if oid not in found]
                if oids and git is None:
                    if jobs > 1:
                        from concurrent.futures import ProcessPoolExecutor
                        from concurrent.futures.process import BrokenProcessPool

                        from . import analyzer  # noqa: F401  (imported before the fork, so no worker compiles it)
                        pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
                        # Under the fork start method the first task forks every
                        # worker.  Forked before cat-file starts, no worker holds
                        # its input open, which would keep git from ever seeing
                        # its end.  A worker inherits git log's output and the
                        # store's sqlite connection; it uses neither, the walk
                        # kills git log if it stops early, and a worker exits by
                        # os._exit, which runs no finalizer.
                        pool.submit(int)
                    git = stack.enter_context(repo.cat_file())
                for oid, data in history.ask(git, oids):
                    if pool is None:
                        analyzed(oid, data, blob_analysis(data))
                        continue
                    chunk.append((oid, data))
                    size += len(data or b"")
                    if size >= _CHUNK_BYTES:
                        send(chunk)
                        chunk, size = [], 0
                        if len(sent) > 4 * jobs:  # bounds the bytes waiting for a worker
                            collect()
            if chunk:
                send(chunk)
            while sent:
                collect()
            if lost:  # the workers of the pools below inherit cat-file's input, and end before it closes
                pool.shutdown()  # so that none of its threads runs while the next pool forks
                for oid, data, stored in _one_by_one(lost):
                    analyzed(oid, data, stored)
        if cells is None:
            cells = fold(score_blobs(commit, memo) for commit in commits)
            store.add(new)
            if len(new) == len(memo) - from_store:  # every analysis holds for any run
                store.keep_cells(cells)

    reasons = ", ".join(f"{count} {reason}" for reason, count in sorted(skipped.items())) or "none"
    log.info(
        "blobs: %d named, %d analyzed, %d from the analysis store; skipped: %s; "
        "commits: %d from git log, %d from stored cells; %s",
        len(memo), len(memo) - from_store, from_store, reasons, len(commits),
        0 if commits else sum(sum(rows[8::CELL]) for _, rows in cells.values()),
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

    if args.command == "classify":
        return cmd_classify(Path(args.file), catalog)
    return cmd_analyze(args, catalog)


if __name__ == "__main__":
    sys.exit(main())
