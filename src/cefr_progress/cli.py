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
from .history import ContributorId, RepoError, RepoSpec, prepare_repo, walk_history
from .report import write_report_bundle
from .scoring import (
    CELL, DEFAULT_BOT_PATTERNS, Cells, CommitScore, Entry, Granularity, Stored, blob_analysis, entry_folder, finish,
    fold, score_blobs,
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
    forms.  ``cat-file`` starts at the first blob the store lacks, and each
    pool after it, so that each pool shuts down before ``cat-file``'s input
    closes.  The chunks in flight when a worker dies are analyzed again one
    blob per task in fresh pools, and a blob whose worker dies is skipped.
    Stored forms fold into memo entries under `catalog`.  Each commit folds
    into the cells in walk order, newest first, once the memo holds its
    blobs: only commits whose blobs are in a ``cat-file`` batch or a worker's
    chunk wait, and each anon_id keeps the ContributorId of its last commit
    folded, the oldest.  One store write keeps what holds for any run.  A
    line on stderr sums up where the blobs' analyses and the commits came from.
    """
    # imported here, as the process pool: sqlite3 and the pool's modules
    # would add 1.5 and 2.5 MB to the peak memory of every process that
    # imports this module, `classify` and serial runs included
    from .store import AnalysisStore

    memo: dict[str, Entry] = {}
    made: list[tuple[str, Stored | None]] = []  # this run's analyses, None for an id that names no blob
    skipped: Counter = Counter()  # reason -> blobs
    entry = entry_folder(catalog)
    waiting: deque = deque()  # the commits walked and not yet scored, newest first
    oldest: dict[str, ContributorId] = {}  # anon_id -> the ContributorId of its last commit scored

    def remember(oid: str, stored: Stored) -> None:
        memo[oid] = entry(stored)
        if type(stored) is str and stored:
            skipped[stored] += 1

    def analyzed(oid: str, data: bytes | None, stored: Stored) -> None:
        remember(oid, stored)
        made.append((oid, None if data is None else stored))  # no data: the id names no blob in this repository

    sent: deque = deque()  # ((blob id, bytes) pairs, future of their stored forms), oldest first

    def send(chunk: list[tuple[str, bytes | None]]) -> None:
        try:
            sent.append((chunk, pool.submit(_analyses, chunk)))
        except BrokenProcessPool:
            rescue(chunk)

    def took(chunk: list[tuple[str, bytes | None]], future) -> bool:
        """Whether `future` gave the stored forms of `chunk`, which are kept, before its pool broke."""
        try:
            analyses = future.result()
        except BrokenProcessPool:
            return False
        for (oid, data), stored in zip(chunk, analyses):
            analyzed(oid, data, stored)
        return True

    def collect() -> None:
        chunk, future = sent.popleft()
        if not took(chunk, future):
            rescue(chunk)

    def rescue(chunk: list[tuple[str, bytes | None]]) -> None:
        """Analyze the blobs of `chunk` and of each chunk in flight that the broken pool lost, one per task."""
        nonlocal pool
        lost = deque(chunk)
        while sent:
            chunk, future = sent.popleft()
            if not took(chunk, future):
                lost.extend(chunk)
        while True:  # until a pool outlives the lost blobs, to take the walk's next chunks
            pool.shutdown()  # so that none of its threads runs while the next pool forks
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            with contextlib.suppress(BrokenProcessPool):  # from submit: no verdict on the blob
                while lost:
                    future = pool.submit(_analyses, [lost[0]])
                    blob = lost.popleft()
                    if not took([blob], future):  # its worker died
                        analyzed(*blob, BrokenProcessPool.__name__)
                        break
                else:
                    return

    def scores(last: bool = False) -> Iterator[CommitScore]:
        """The waiting commits' scores up to the first whose blobs the memo lacks; at the `last`, all, or KeyError."""
        while waiting and (last or all(oid in memo for _, *sides in waiting[0].changes for oid in sides if oid)):
            oldest[waiting[0].contributor.anon_id] = waiting[0].contributor
            yield score_blobs(waiting.popleft(), memo)

    def walk() -> Iterator[CommitScore]:
        """The score of each commit of the history, newest first, as soon as the memo holds its blobs."""
        nonlocal git, pool
        for oids, commits in walk_history(repo, identity=identity):
            waiting.extend(commits)
            found = store.lookup(oids)
            for oid, stored in found.items():
                remember(oid, stored)
            oids = [oid for oid in oids if oid not in found]
            if oids and git is None:
                git = stack.enter_context(repo.cat_file())  # before any pool, which the stack then ends first
                if jobs > 1:
                    from . import analyzer  # noqa: F401  (imported before the fork, so no worker compiles it)
                    pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            chunk, size = [], 0
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
            if chunk:  # a batch ends its chunk, and the chunks done are taken: commits wait on them
                send(chunk)
            while sent and sent[0][1].done():
                collect()
            yield from scores()
        while sent:
            collect()
        yield from scores(last=True)

    git = pool = None  # git cat-file and the workers, once a blob is to be read
    with contextlib.ExitStack() as stack:
        with prepare_repo(RepoSpec(source)) as repo:
            store = stack.enter_context(contextlib.closing(AnalysisStore.open(repo, identity, catalog)))
            cells = kept = store.cells()
            if kept is None:  # no stored cells: walk
                if jobs > 1:
                    from concurrent.futures import ProcessPoolExecutor
                    from concurrent.futures.process import BrokenProcessPool
                cells = {anon: (oldest[anon], ints) for anon, (_, ints) in fold(walk()).items()}
                store.keep(made, cells)

    commits, files = (sum(sum(ints[column::CELL]) for _, ints in cells.values()) for column in (8, 10))
    reasons = (f"{files} file{'s' * (files > 1)}, reasons not stored" if kept and files  # the cells keep no reasons
               else ", ".join(f"{count} {reason}" for reason, count in sorted(skipped.items())))
    log.info(
        "blobs: %d named, %d analyzed, %d from the analysis store; skipped: %s; "
        "commits: %d from git log, %d from stored cells; %s",
        len(memo), len(made), len(memo) - len(made), reasons or "none", *((0, commits) if kept else (commits, 0)),
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
