"""Stored cells: a re-run on an unchanged history reads the report's cells
and starts no git log, no git cat-file and no worker; any other run walks
the history with git; stored cells in any state change no report.  Worker
pools start after git cat-file and shut down before it, and a dying worker
costs only its blob."""

import concurrent.futures
import contextlib
import gc
import json
import logging
import multiprocessing
import os
import sqlite3
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cefr_progress
from cefr_progress import analyzer, cli, history, store, walk
from cefr_progress.catalog import default_catalog
from cefr_progress.cli import main
from cefr_progress.history import ContributorId, RepoSpec, extract_commits, prepare_repo
from cefr_progress.report import write_report_bundle
from cefr_progress.scoring import CommitScore, build_report, score_commit
from cefr_progress.walk import fold

from conftest import ALICE, BOB, GitFixture, child_env

REPORTS = ("report.json", "report.csv", "report.html")


def analyze(repo, out, *options) -> tuple[bytes, ...]:
    assert main(["analyze", str(repo), "--out", str(out), *options]) == 0
    return tuple((out / name).read_bytes() for name in REPORTS)


def cold(repo, where, monkeypatch, *options) -> tuple[bytes, ...]:
    """The reports of a run with an empty cache root of its own, under the new directory `where`."""
    where.mkdir()
    with monkeypatch.context() as patch:
        patch.setenv("CEFR_PROGRESS_CACHE", str(where / "cache"))
        return analyze(repo, where / "out", *options)


@pytest.fixture
def started(monkeypatch):
    """The git processes a run starts with pipes (git log and git cat-file)."""
    procs = []
    start_git = history._start_git

    def recording_start_git(*args, **pipes):
        procs.append(start_git(*args, **pipes))
        return procs[-1]

    monkeypatch.setattr(history, "_start_git", recording_start_git)
    return procs


@pytest.fixture
def probed(monkeypatch):
    """The git commands a run waits on without pipes: the probes of the repository, git's version and the tip."""
    commands = []
    run_git = history._run_git

    def recording_run_git(*args):
        commands.append(args[2] if args[0] == "-C" else args[0])
        return run_git(*args)

    monkeypatch.setattr(history, "_run_git", recording_run_git)
    return commands


@pytest.fixture
def launched(monkeypatch):
    """What a run starts, in order: "pool" for a worker pool, and each git
    process it starts with pipes by its command."""
    events = []
    start_git = history._start_git

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            events.append("pool")
            super().__init__(*args, **kwargs)

    def recording_start_git(*args, **pipes):
        events.append(args[2])  # after "-C" and the repository
        return start_git(*args, **pipes)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(history, "_start_git", recording_start_git)
    return events


@pytest.fixture
def shutdowns(monkeypatch, started):
    """At each worker pool's shutdown, whether every git cat-file the run started still runs."""
    running = []
    shutdown = concurrent.futures.process.ProcessPoolExecutor.shutdown

    def recording_shutdown(self, *args, **kwargs):
        running.append(all(proc.poll() is None for proc in started if proc.args[3] == "cat-file"))
        shutdown(self, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.process.ProcessPoolExecutor, "shutdown", recording_shutdown)
    return running


def commands(procs) -> list[str]:
    return sorted(proc.args[3] for proc in procs)


def summary(caplog) -> str:
    """The last summary line."""
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("blobs:")][-1]


def sources(caplog) -> str:
    """The commit counts of the last summary line."""
    return summary(caplog).split("commits: ")[1].split(";")[0]


def tips() -> list[str]:
    """The tip of each stored history's cells."""
    with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
        return [tip for (tip,) in connection.execute("SELECT DISTINCT tip FROM cells ORDER BY tip")]


def stored_oids() -> list[str]:
    """The blob id of each stored analysis."""
    with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
        return [oid for (oid,) in connection.execute("SELECT oid FROM blobs ORDER BY oid")]


def clone(source, path) -> GitFixture:
    subprocess.run(["git", "clone", "-q", str(source), str(path)], check=True, capture_output=True)
    return GitFixture(path)


@pytest.fixture(autouse=True)
def info_logs(caplog):
    caplog.set_level(logging.INFO)


def test_an_unchanged_head_starts_no_git_log(big_repo, tmp_path, started, probed, caplog):
    first = analyze(big_repo, tmp_path / "first")
    assert commands(started) == ["cat-file", "log"]
    assert sources(caplog) == "500 from git log, 0 from stored cells"
    started.clear()
    probed.clear()
    assert analyze(big_repo, tmp_path / "warm") == first
    assert commands(started) == []
    assert sorted(probed) == ["--version", "rev-list", "rev-parse"]
    assert sources(caplog) == "0 from git log, 500 from stored cells"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_after_new_commits_git_log_walks_the_whole_history(big_repo, tmp_path, started, caplog, monkeypatch,
                                                           jobs):
    fixture = clone(big_repo, tmp_path / "repo")
    head = fixture.run("rev-parse", "HEAD").strip()
    older = fixture.run("rev-parse", "HEAD~3").strip()
    fixture.run("reset", "-q", "--hard", older)
    before = analyze(fixture.path, tmp_path / "older", "--jobs", jobs)
    fixture.run("reset", "-q", "--hard", head)
    started.clear()
    after = analyze(fixture.path, tmp_path / "after", "--jobs", jobs)
    assert sources(caplog) == "500 from git log, 0 from stored cells"
    assert commands(started) == ["cat-file", "log"]
    # each tip keeps its own cells
    assert tips() == sorted([head, older])
    assert after == cold(fixture.path, tmp_path / "cold", monkeypatch, "--jobs", jobs)
    fixture.run("reset", "-q", "--hard", older)
    started.clear()
    assert analyze(fixture.path, tmp_path / "older-again", "--jobs", jobs) == before
    assert sources(caplog) == "0 from git log, 497 from stored cells"
    assert commands(started) == []


def test_a_merge_head_is_walked_from_its_newest_non_merge_commit(tmp_path, started, caplog, monkeypatch):
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "a = 1\n")
    fixture.commit(ALICE, "2020-01-10T10:00:00Z", "start")
    fixture.run("checkout", "-q", "-b", "feature")
    fixture.write("b.py", "def helper():\n    return [v for v in data]\n")
    fixture.commit(BOB, "2020-02-10T10:00:00Z", "feature work")
    fixture.checkout("main")
    fixture.write("a.py", "a = 1\nb = 2\n")
    fixture.commit(ALICE, "2020-03-10T10:00:00Z", "more on main")
    before = analyze(fixture.path, tmp_path / "before")
    fixture.merge("feature", ALICE, "2020-04-10T10:00:00Z")
    started.clear()
    merged = analyze(fixture.path, tmp_path / "merged")
    assert commands(started) == []
    assert merged == before == cold(fixture.path, tmp_path / "cold", monkeypatch)
    fixture.write("b.py", "def helper():\n    return [v for v in data]\n\nextra = True\n")
    fixture.commit(BOB, "2020-05-10T10:00:00Z", "touch merged file")
    after = analyze(fixture.path, tmp_path / "after")
    assert sources(caplog) == "3 from git log, 0 from stored cells"
    assert after == cold(fixture.path, tmp_path / "cold-after", monkeypatch)


def test_each_identity_mode_has_its_own_walk(linear_repo, tmp_path, started, caplog, monkeypatch):
    author = analyze(linear_repo, tmp_path / "author")
    committer = analyze(linear_repo, tmp_path / "committer", "--identity", "committer")
    assert sources(caplog) == "7 from git log, 0 from stored cells"
    started.clear()
    assert analyze(linear_repo, tmp_path / "author-again") == author
    assert analyze(linear_repo, tmp_path / "committer-again", "--identity", "committer") == committer
    assert commands(started) == []
    assert committer == cold(linear_repo, tmp_path / "cold", monkeypatch, "--identity", "committer")


def test_a_warm_parallel_run_starts_no_worker_and_no_cat_file(linear_repo, tmp_path, monkeypatch, launched,
                                                              shutdowns):
    first = analyze(linear_repo, tmp_path / "cold", "--jobs", "2")
    # cat-file starts at the first blob the store lacks, and the pool after
    # it, which shuts down before cat-file's input closes
    assert launched == ["log", "cat-file", "pool"]
    assert shutdowns == [True]

    def refused(*args, **kwargs):
        raise AssertionError("a warm run started a worker pool or git cat-file")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
    monkeypatch.setattr(history.Repo, "cat_file", refused)
    assert analyze(linear_repo, tmp_path / "warm", "--jobs", "2") == first
    # as on a new tip whose commits change no .py file: git walks the
    # history, and the store holds every blob it names
    _damage(_forgotten)
    launched.clear()
    assert analyze(linear_repo, tmp_path / "new-tip", "--jobs", "2") == first
    assert launched == ["log"]


def test_a_partly_warm_parallel_run_analyzes_only_the_blobs_the_store_lacks(linear_repo, tmp_path, monkeypatch,
                                                                           launched, caplog):
    first = analyze(linear_repo, tmp_path / "cold", "--jobs", "2")
    with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
        with connection:
            lacking = [oid for (oid,) in connection.execute("SELECT oid FROM blobs ORDER BY oid LIMIT 2")]
            connection.execute("DELETE FROM blobs WHERE oid IN (?, ?)", lacking)
            _forgotten(connection)
    launched.clear()
    asked = []
    ask = walk.ask
    monkeypatch.setattr(walk, "ask", lambda proc, oids: asked.extend(oids) or ask(proc, oids))
    assert analyze(linear_repo, tmp_path / "partly-warm", "--jobs", "2") == first
    assert sorted(asked) == lacking
    assert summary(caplog).startswith("blobs: 6 named, 2 analyzed, 4 from the analysis store;")
    assert launched == ["log", "cat-file", "pool"]


#: What a run that reads stored cells never runs, and so never imports
WARM_UNUSED = ("cefr_progress.analyzer", "cefr_progress.walk", "dataclasses", "inspect", "ast", "html",
               "html.entities", "concurrent.futures")


def loaded(repo, out, *options) -> list[str]:
    """Those of WARM_UNUSED that an `analyze` of `repo` with `options` has imported
    by its end, in a child process of its own; -S runs no site-packages .pth
    file, which may import any of them."""
    script = ("import sys\nfrom cefr_progress.cli import main\ncode = main(sys.argv[1:])\n"
              f"print(*(name for name in {WARM_UNUSED!r} if name in sys.modules))\nsys.exit(code)")
    child = subprocess.run([sys.executable, "-S", "-c", script, "analyze", str(repo), "--out", str(out), *options],
                           capture_output=True, text=True, env=child_env())
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()[-1].split()


def test_a_warm_run_imports_no_ast_code(linear_repo, tmp_path):
    # the runs share one fresh cache root
    assert {"cefr_progress.analyzer", "cefr_progress.walk"} <= set(loaded(linear_repo, tmp_path / "cold"))
    assert loaded(linear_repo, tmp_path / "warm") == []


def test_a_parallel_walk_imports_the_pool_only_at_a_blob_the_store_lacks(linear_repo, tmp_path):
    # as on a new tip whose commits change no .py file: git walks the
    # history, and the store holds every blob it names
    cold = loaded(linear_repo, tmp_path / "cold", "--jobs", "2")
    assert {"cefr_progress.analyzer", "concurrent.futures"} <= set(cold)
    _damage(_forgotten)
    assert loaded(linear_repo, tmp_path / "new-tip", "--jobs", "2") == ["cefr_progress.walk"]


def test_a_cold_parallel_run_imports_the_analyzer_before_the_workers_fork(linear_repo, tmp_path, monkeypatch,
                                                                          launched):
    # as in a process that has not analyzed yet, so each worker would import it
    monkeypatch.delitem(sys.modules, "cefr_progress.analyzer", raising=False)
    monkeypatch.delattr(cefr_progress, "analyzer", raising=False)
    imported = []  # at each pool's start, whether the analyzer is imported
    pool = concurrent.futures.ProcessPoolExecutor

    class CheckingPool(pool):
        def __init__(self, *args, **kwargs):
            imported.append("cefr_progress.analyzer" in sys.modules)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CheckingPool)
    analyze(linear_repo, tmp_path / "cold", "--jobs", "2")
    assert launched == ["log", "cat-file", "pool"]
    assert imported == [True]


#: One contributor's row of the stored cells
ONE_ROW = "anon_id = (SELECT min(anon_id) FROM cells)"


def _truncated(connection) -> None:
    connection.execute(f"UPDATE cells SET cells = substr(cells, 1, length(cells) - 7) WHERE {ONE_ROW}")


def _changed_byte(connection) -> None:
    (cells,) = connection.execute(f"SELECT cells FROM cells WHERE {ONE_ROW}").fetchone()
    changed = bytearray(cells)
    changed[10] ^= 0x01
    connection.execute(f"UPDATE cells SET cells = ? WHERE {ONE_ROW}", (bytes(changed),))


def _deleted(connection) -> None:
    connection.execute(f"DELETE FROM cells WHERE {ONE_ROW}")


def _forgotten(connection) -> None:
    connection.execute("DELETE FROM cells")


def _damage(damage) -> None:
    with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
        with connection:
            damage(connection)


def _warnings(caplog) -> list[str]:
    return [record.getMessage() for record in caplog.records if record.levelno >= logging.WARNING]


@pytest.mark.parametrize("damage, warnings", [(_truncated, 1), (_changed_byte, 1), (_deleted, 1), (_forgotten, 0)],
                         ids=["truncated", "changed_byte", "deleted", "forgotten"])
def test_a_damaged_walk_costs_one_warning_and_a_git_walk(big_repo, tmp_path, started, caplog, damage, warnings):
    before = analyze(big_repo, tmp_path / "cold")
    _damage(damage)
    caplog.clear()
    started.clear()
    assert analyze(big_repo, tmp_path / "damaged") == before
    # cells that another run's writes took away are a plain miss
    assert len(_warnings(caplog)) == warnings
    assert all("damaged cells" in warning for warning in _warnings(caplog))
    assert commands(started) == ["log"]  # every blob's analysis is still stored
    assert sources(caplog) == "500 from git log, 0 from stored cells"
    caplog.clear()
    started.clear()
    assert analyze(big_repo, tmp_path / "mended") == before
    assert _warnings(caplog) == []
    assert commands(started) == []


def _cells(people: int):
    """The cells of one commit by each of `people` contributors, each in a month of its own."""
    return fold(CommitScore(f"{i:040x}", ContributorId.from_identity(f"P{i}", f"p{i}@example.com"), i * 40 * 86400,
                            (i, 0, 1, 0, 0, 2), 1, 0) for i in range(people))


def test_two_runs_writing_one_walk_leave_it_whole(linear_repo):
    repo = prepare_repo(RepoSpec(str(linear_repo)))
    catalog = default_catalog()
    first, second = (store.AnalysisStore.open(repo, "author", catalog) for _ in range(2))
    try:
        many, few = _cells(300), _cells(20)
        first.keep([], many)
        second.keep([], few)
        assert {anon: (who, list(cells)) for anon, (who, cells) in first.cells().items()} == few
        with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
            assert connection.execute("SELECT tip, count(*) FROM cells GROUP BY tip").fetchall() == [(repo.tip, 20)]
    finally:
        first.close()
        second.close()


def test_a_repository_with_no_commit_keeps_no_cells_and_leaves_no_connection(linear_repo, tmp_path, monkeypatch,
                                                                              caplog):
    analyze(linear_repo, tmp_path / "first")  # the store exists, with one tip's cells
    with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
        rows = connection.execute("SELECT count(*) FROM cells").fetchone()
    connections = []
    connect = store._connect
    monkeypatch.setattr(store, "_connect", lambda path: connections.append(connect(path)) or connections[-1])
    empty = GitFixture(tmp_path / "empty")
    assert main(["analyze", str(empty.path), "--out", str(tmp_path / "empty-out")]) == 2
    assert "has no non-merge commits" in caplog.text
    with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
        assert connection.execute("SELECT count(*) FROM cells").fetchone() == rows
    for connection in connections:
        with pytest.raises(sqlite3.ProgrammingError):  # closed
            connection.execute("SELECT 1")
    gc.collect()  # an unclosed connection would warn here, from Python 3.13 on, and fail the test


def rewritten(fixture, rewrite, undo, tmp_path, monkeypatch, started, caplog) -> None:
    """Checks that a history `rewrite` rewrites is walked with git on every run and
    no cells of it are stored, and that once `undo` undoes it, the stored cells are read again."""
    before = analyze(fixture.path, tmp_path / "before")
    rewrite()
    started.clear()
    first = analyze(fixture.path, tmp_path / "first")
    assert first != before
    assert analyze(fixture.path, tmp_path / "warm") == first == cold(fixture.path, tmp_path / "cold", monkeypatch)
    assert sources(caplog) == "2 from git log, 0 from stored cells"
    assert commands(started) == ["cat-file", "cat-file", "cat-file", "log", "log", "log"]
    assert len(tips()) == 1
    undo()
    assert analyze(fixture.path, tmp_path / "after") == before
    assert sources(caplog) == "0 from git log, 7 from stored cells"


def test_replace_refs_are_honoured_and_keep_no_walk(linear_repo, tmp_path, monkeypatch, started, caplog):
    fixture = clone(linear_repo, tmp_path / "repo")
    # the parent of HEAD~1 hidden: git log walks two of the seven commits
    rewritten(fixture, lambda: fixture.run("replace", "--graft", "HEAD~1"),
              lambda: fixture.run("replace", "-d", fixture.run("replace", "-l").strip()),
              tmp_path, monkeypatch, started, caplog)


def test_a_grafts_file_is_honoured_and_keeps_no_walk(linear_repo, tmp_path, monkeypatch, started, caplog):
    fixture = clone(linear_repo, tmp_path / "repo")
    grafts = fixture.path / ".git" / "info" / "grafts"
    # HEAD~1 has no parents
    rewritten(fixture, lambda: grafts.write_text(fixture.run("rev-parse", "HEAD~1")), grafts.unlink,
              tmp_path, monkeypatch, started, caplog)
    with prepare_repo(RepoSpec(str(fixture.path))) as repo:
        assert not repo.rewritten


def test_a_repository_with_replace_refs_runs_without_the_store(tmp_path, monkeypatch, caplog):
    # git cat-file answers for a replaced blob with its replacement's bytes, so
    # an analysis kept under the replaced id would be wrong in any other repository
    rewritten = GitFixture(tmp_path / "rewritten")
    rewritten.write("a.py", "x = 1\n")
    rewritten.write("b.py", "y = [[1], 2]\nfor i in y:\n    pass\n")
    rewritten.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    rewritten.run("replace", *(rewritten.run("rev-parse", f"HEAD:{name}").strip() for name in ("a.py", "b.py")))
    plain = GitFixture(tmp_path / "plain")
    plain.write("a.py", "x = 1\n")
    plain.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    analyze(rewritten.path, tmp_path / "rewritten-out")
    assert summary(caplog).endswith("; no store")
    assert analyze(plain.path, tmp_path / "plain-out") == cold(plain.path, tmp_path / "cold", monkeypatch)


@pytest.mark.parametrize("key, value", [
    ("log.showRoot", "false"), ("diff.renameLimit", "1"), ("i18n.logOutputEncoding", "latin1"),
])
def test_no_git_setting_changes_the_walk(tmp_path, monkeypatch, key, value):
    fixture = GitFixture(tmp_path / "repo")
    for i in range(3):
        fixture.write(f"old_{i}.py", "".join(f"def f{j}():\n    return [{j} for _ in x]\n" for j in range(20)))
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "root")
    for i in range(3):
        fixture.move(f"old_{i}.py", f"new_{i}.py")
        fixture.write(f"new_{i}.py", (fixture.path / f"new_{i}.py").read_text() + f"if x:\n    y = {i}\n")
    fixture.commit(("Zoë Ünal", "zoe@example.com"), "2020-02-01T00:00:00Z", "three inexact renames")
    plain = cold(fixture.path, tmp_path / "plain", monkeypatch, "--show-names")
    monkeypatch.setenv("GIT_CONFIG_COUNT", "1")
    monkeypatch.setenv("GIT_CONFIG_KEY_0", key)
    monkeypatch.setenv("GIT_CONFIG_VALUE_0", value)
    assert cold(fixture.path, tmp_path / "configured", monkeypatch, "--show-names") == plain


#: Report options a warm run may differ in from the run that stored its cells
REPORT_OPTIONS = [
    (),
    ("--period", "monthly", "--bot-pattern", "^Alice", "--show-names"),
    ("--bot-pattern", "Coder$", "--bot-pattern", "Drive-by", "--show-names"),
    ("--period", "monthly", "--bot-pattern", "Coder$", "--bot-pattern", "Drive-by"),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("identity", ["author", "committer"])
@pytest.mark.parametrize("fixture", ["linear_repo", "big_repo"])
def test_reports_from_stored_cells_equal_reports_from_the_history(request, tmp_path, started, fixture, identity,
                                                                   jobs):
    repo = request.getfixturevalue(fixture)
    walked = analyze(repo, tmp_path / "cold", "--identity", identity, "--jobs", jobs)
    for number, options in enumerate(REPORT_OPTIONS):
        if number:
            _damage(_forgotten)  # the next run walks the history and stores its cells again
            walked = analyze(repo, tmp_path / f"walked-{number}", "--identity", identity, "--jobs", jobs, *options)
        started.clear()
        assert analyze(repo, tmp_path / f"warm-{number}", "--identity", identity, "--jobs", jobs, *options) == walked
        assert commands(started) == []


def test_a_catalog_edited_under_its_version_is_not_served_the_old_cells(linear_repo, tmp_path, monkeypatch,
                                                                        started):
    rules = tmp_path / "rules.cat"
    rules.write_text("!version mine\nif_statement C2\n")
    first = analyze(linear_repo, tmp_path / "first", "--catalog", str(rules))
    rules.write_text("!version mine\nif_statement B1\n")
    started.clear()
    edited = analyze(linear_repo, tmp_path / "edited", "--catalog", str(rules))
    assert commands(started) == ["log"]
    assert edited != first
    assert edited == cold(linear_repo, tmp_path / "cold", monkeypatch, "--catalog", str(rules))


#: The source whose analysis kills the process that analyzes it
DYING = "dies_here = True\n"


def _module(number: int, version: int) -> str:
    """About 20 KB of source, a chunk's third."""
    return "".join(f"def f{number}_{version}_{i}(a):\n    return [a for _ in range({i})]\n" for i in range(400))


def test_a_worker_that_dies_costs_only_its_blob(tmp_path, monkeypatch, caplog):
    fixture = GitFixture(tmp_path / "repo")
    for version, who in enumerate((ALICE, BOB)):
        for number in range(8):
            fixture.write(f"m{number}.py", _module(number, version))
        if version:
            fixture.write("dies.py", DYING)
        fixture.commit(who, f"202{version}-01-01T00:00:00Z", f"version {version}")
    blobs = {line.split()[0] for line in fixture.run("rev-list", "--objects", "--all").splitlines()
             if line.endswith(".py")}
    dying = fixture.run("rev-parse", "HEAD:dies.py").strip()
    source_analysis = analyzer.source_analysis

    def dies_on_marker(source):
        if source == DYING:
            os._exit(70)
        return source_analysis(source)

    class ForkingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, mp_context=multiprocessing.get_context("fork"), **kwargs)

    made = []
    keep = store.AnalysisStore.keep
    monkeypatch.setattr(store.AnalysisStore, "keep",
                        lambda self, analyses, cells: made.extend(analyses) or keep(self, analyses, cells))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ForkingPool)
    monkeypatch.setattr(analyzer, "source_analysis", dies_on_marker)
    parallel = analyze(fixture.path, tmp_path / "parallel", "--jobs", "2")
    assert "skipped: 1 BrokenProcessPool;" in summary(caplog)
    # every blob is analyzed once, whichever chunk held it, and every other blob's analysis is kept
    assert sorted(oid for oid, _ in made) == sorted(blobs)
    assert stored_oids() == sorted(blobs - {dying})
    assert tips() == []  # a verdict of this run: no cells

    monkeypatch.setattr(analyzer, "source_analysis",
                        lambda source: "BrokenProcessPool" if source == DYING else source_analysis(source))
    assert cold(fixture.path, tmp_path / "serial", monkeypatch) == parallel


#: Raw blob bytes per chunk in the tests below: two of `_small_module`'s
#: sources, with any markers before them
SMALL_CHUNK = 1500


def _small_module(number: int, version: int) -> str:
    """980-1000 bytes of source, two thirds of a chunk."""
    return "".join(f"def f{number}_{version}_{i}(a):\n    return [a for _ in range({i})]\n" for i in range(20))


def _many_chunks(path, first: list[str], last: list[str]) -> GitFixture:
    """Three commits: the oldest adds 60 modules and a file at each of the
    `last` paths, the next changes every module, and the newest adds a file
    at each of the `first` paths.  The files hold markers, which git log
    names first and last around 120 modules in about 60 chunks."""
    fixture = GitFixture(path)
    markers = iter(range(len(first) + len(last)))
    for version, who, paths in ((0, ALICE, last), (1, BOB, ())):
        for number in range(60):
            fixture.write(f"m{number:02}.py", _small_module(number, version))
        for marker in paths:
            fixture.write(marker, f"{DYING}{next(markers)}\n")
        fixture.commit(who, f"202{version}-01-01T00:00:00Z", f"version {version}")
    for marker in first:
        fixture.write(marker, f"{DYING}{next(markers)}\n")
    fixture.commit(BOB, "2022-01-01T00:00:00Z", "markers")
    return fixture


@pytest.fixture
def tasks(monkeypatch):
    """The blob ids of each task a run submits to a worker pool, and the worker
    count of each pool it makes, whose workers fork."""
    submitted, widths = [], []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, max_workers, **kwargs):
            widths.append(max_workers)
            super().__init__(*args, max_workers=max_workers, mp_context=multiprocessing.get_context("fork"), **kwargs)

        def submit(self, fn, *args):
            submitted.extend([oid for oid, _ in blobs] for blobs in args)
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(walk, "_CHUNK_BYTES", SMALL_CHUNK)
    return submitted, widths


@pytest.mark.parametrize("first, last", [(["a.py"], []), (["a.py", "b.py"], []), (["a.py"], ["z.py"])],
                         ids=["one", "two_together", "two_apart"])
def test_each_dying_worker_costs_only_its_blob_and_the_pool_is_replaced(tmp_path, monkeypatch, caplog, started,
                                                                        shutdowns, tasks, first, last):
    markers = first + last
    fixture = _many_chunks(tmp_path / "repo", first, last)
    blobs = {line.split()[0] for line in fixture.run("rev-list", "--objects", "--all").splitlines()
             if line.endswith(".py")}
    dying = {fixture.run("rev-parse", f"HEAD:{marker}").strip() for marker in markers}
    source_analysis = analyzer.source_analysis

    def dies_on_marker(source):
        if source.startswith(DYING):
            os._exit(70)
        return source_analysis(source)

    made = []
    keep = store.AnalysisStore.keep
    monkeypatch.setattr(store.AnalysisStore, "keep",
                        lambda self, analyses, cells: made.extend(analyses) or keep(self, analyses, cells))
    monkeypatch.setattr(analyzer, "source_analysis", dies_on_marker)
    parallel = analyze(fixture.path, tmp_path / "parallel", "--jobs", "2")
    assert f"skipped: {len(markers)} BrokenProcessPool;" in summary(caplog)
    # every blob is analyzed once, whichever chunk held it, and every other blob's analysis is kept
    assert sorted(oid for oid, _ in made) == sorted(blobs)
    assert stored_oids() == sorted(blobs - dying)
    assert tips() == []  # a verdict of this run: no cells

    submitted, widths = tasks
    seen, again = set(), []  # again: the tasks of blobs sent before
    for task in submitted:
        if seen.intersection(task):
            again.append(task)
        seen.update(task)
    # only the blobs of chunks in flight at a death are sent again, one per
    # task: each marker breaks at most one pool of the walk, which then loses
    # at most 4 * 2 + 1 chunks of two modules and the markers; and each death
    # makes one fresh pool, as wide as the first
    assert all(len(task) == 1 for task in again)
    assert len(again) <= len(markers) * (1 + (4 * 2 + 1) * 2)
    assert widths == [2] * len(widths) and len(widths) <= 1 + 2 * len(markers)
    # the first marker is among the first blobs named, so most of the about 60
    # chunks are sent whole after the first rescue
    assert len(submitted[submitted.index(again[0]):]) - len(again) >= 20
    # the run ended every git process and every worker, each pool before cat-file
    assert all(proc.poll() is not None for proc in started)
    assert multiprocessing.active_children() == []
    assert len(shutdowns) >= len(widths) and all(shutdowns)

    monkeypatch.setattr(analyzer, "source_analysis",
                        lambda source: "BrokenProcessPool" if source.startswith(DYING) else source_analysis(source))
    assert cold(fixture.path, tmp_path / "serial", monkeypatch) == parallel


def test_a_submit_to_a_broken_pool_is_no_verdict_on_its_blobs(linear_repo, tmp_path, monkeypatch, caplog, tasks):
    submitted, widths = tasks
    refused = []  # the blob ids of each task refused
    submit = concurrent.futures.ProcessPoolExecutor.submit

    def refusing_submit(self, fn, *args):
        # the first chunk's submit and the first one-blob task's find their pool broken
        if args and len(refused) < 2:
            refused.append([oid for oid, _ in args[0]])
            raise BrokenProcessPool("a worker died meanwhile")
        return submit(self, fn, *args)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", refusing_submit)
    parallel = analyze(linear_repo, tmp_path / "parallel", "--jobs", "2")
    assert "BrokenProcessPool" not in summary(caplog)
    assert len(tips()) == 1  # every analysis holds for any run: the cells are kept
    # each refusal makes a fresh pool, which takes the same blob
    assert refused[1] == submitted[0] == refused[0][:1]
    assert widths == [2, 2, 2]
    assert parallel == cold(linear_repo, tmp_path / "serial", monkeypatch)


def test_a_commit_dated_past_an_int64_is_reported_and_keeps_no_cells(tmp_path):
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "a = [1]\n")
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    # git keeps and prints a raw commit's timestamp as it is written
    late = (f"tree {fixture.run('rev-parse', 'HEAD^{tree}').strip()}\nparent {fixture.run('rev-parse', 'HEAD').strip()}\n"
            f"author Bob <bob@example.com> {2 ** 63} +0000\ncommitter Bob <bob@example.com> {2 ** 63} +0000\n\nlate\n")
    written = subprocess.run(["git", "-C", str(fixture.path), "hash-object", "-t", "commit", "-w", "--stdin"],
                             input=late.encode("ascii"), capture_output=True, check=True)
    fixture.run("update-ref", "HEAD", written.stdout.decode("ascii").strip())
    first = analyze(fixture.path, tmp_path / "first")
    assert json.loads(first[0])["generated_at"] == 2 ** 63
    assert tips() == []  # the store keeps cells as int64s
    assert analyze(fixture.path, tmp_path / "again") == first


#: One email under several names and spellings, and another person's
PEOPLE = [ContributorId.from_identity(name, email) for name, email in (
    ("Alice", "alice@example.com"), ("alice", "Alice@Example.com "), ("A. Liddell", "ALICE@example.com"),
    ("Bob", "bob@example.com"))]
OIDS = [f"{i:040x}" for i in range(1, 9)]
walk_commits = st.lists(st.tuples(
    st.sampled_from(PEOPLE),
    st.integers(0, 2 ** 33),  # any order of dates, over about 270 years
    st.lists(st.tuples(st.sampled_from([None, *OIDS]), st.sampled_from([None, *OIDS])), max_size=3),
    st.tuples(*[st.integers(0, 5)] * 6), st.integers(0, 3), st.integers(0, 2),
    st.booleans(),  # whether a batch ends after the commit
), min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(drawn=walk_commits, size=st.integers(1, 4))
def test_folding_each_commit_as_its_blobs_are_known_gives_the_cells_of_the_whole_history(drawn, size):
    # the commits newest first, as git walks them, each with the score it is
    # given; a batch ends where drawn, in lists of at most `size` new blob ids
    commits = [walk.CommitBlobs(f"{n:040x}", who, time, tuple(("m.py", *sides) for sides in changes))
               for n, (who, time, changes, *_) in enumerate(drawn)]
    given_scores = {commit.sha: CommitScore(commit.sha, commit.contributor, commit.timestamp, *rest)
                    for commit, (_, _, _, *rest, _) in zip(commits, drawn)}
    scored = []

    def walk_history(repo, *, identity):
        named, wanted, walked = {None}, [], []
        for commit, (*_, ends) in zip(commits, drawn):
            for _, *sides in commit.changes:
                wanted += [oid for oid in sides if oid not in named]
                named.update(sides)
            walked.append(commit)
            if ends:
                for start in range(0, max(len(wanted), 1), size):
                    yield wanted[start:start + size], walked
                    walked = []
                wanted = []
        yield wanted, walked

    def score_blobs(commit, memo):
        assert all(oid in memo for _, *sides in commit.changes for oid in sides if oid is not None)
        scored.append(commit.sha)
        return given_scores[commit.sha]

    class Rewritten:  # a repository whose store has no file
        rewritten = True

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def cat_file(self):
            return contextlib.nullcontext()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "prepare_repo", lambda spec: Rewritten())
        patch.setattr(walk, "walk_history", walk_history)
        patch.setattr(walk, "ask", lambda proc, oids: ((oid, b"") for oid in oids))
        patch.setattr(walk, "score_blobs", score_blobs)
        cells = cli._analyze_history("repo", default_catalog(), "author", 1)
    assert scored == [commit.sha for commit in commits]  # in the walk's order, each once
    # the cells of the whole history's scores
    whole = fold(given_scores[commit.sha] for commit in commits)
    assert {anon: list(ints) for anon, (_, ints) in cells.items()} == {anon: ints for anon, (_, ints) in whole.items()}
    # each anon_id named as in its oldest commit, the last one walked
    oldest = {}
    for commit in commits:
        oldest[commit.contributor.anon_id] = commit.contributor
    assert {anon: who for anon, (who, _) in cells.items()} == oldest


def _names(report_json: bytes) -> dict[str, tuple[str, str]]:
    """The name and email that a report.json written with --show-names gives each anon_id."""
    return {person["anon_id"]: (person["name"], person["email"]) for person in json.loads(report_json)["contributors"]}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_contributor_is_named_as_in_the_oldest_commit(tmp_path, caplog, monkeypatch, jobs):
    # one email spelled two ways, under two names: the oldest spelling names
    # the contributor in every report, whichever way its cells were made
    oldest, later = ("C. Lopez", "CARLA@Example.COM"), ("Carla Lopez", "carla@example.com")
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "a = [1]\n")
    fixture.commit(oldest, "2020-01-10T10:00:00Z", "start")
    fixture.write("b.py", "def f():\n    return [v for v in a]\n")
    fixture.commit(later, "2020-03-10T10:00:00Z", "a comprehension")
    fixture.write("a.py", "a = [1]\nfor x in a:\n    print(x)\n")
    fixture.commit(BOB, "2020-04-10T10:00:00Z", "a loop")
    fixture.write("c.py", "class C:\n    pass\n")
    fixture.commit(later, "2020-05-10T10:00:00Z", "a class")
    options = ("--show-names", "--jobs", jobs)
    first = analyze(fixture.path, tmp_path / "first", *options)
    carla = ContributorId.from_identity(*oldest).anon_id
    assert _names(first[0])[carla] == oldest
    assert analyze(fixture.path, tmp_path / "warm", *options) == first
    assert sources(caplog) == "0 from git log, 4 from stored cells"
    # a new tip over a store that holds HEAD~1's cells and blobs
    head = fixture.run("rev-parse", "HEAD").strip()
    fixture.run("reset", "-q", "--hard", "HEAD~1")
    monkeypatch.setenv("CEFR_PROGRESS_CACHE", str(tmp_path / "older-cache"))
    assert _names(analyze(fixture.path, tmp_path / "older", *options)[0])[carla] == oldest
    fixture.run("reset", "-q", "--hard", head)
    assert analyze(fixture.path, tmp_path / "new-tip", *options) == first
    assert sources(caplog) == "4 from git log, 0 from stored cells"
    # the text view, whose records come newest first, as the walk goes
    with prepare_repo(RepoSpec(str(fixture.path))) as repo:
        scores = [score_commit(record, default_catalog()) for record in extract_commits(repo)]
    write_report_bundle(build_report(scores, repo=str(fixture.path)), tmp_path / "library", show_names=True)
    assert (tmp_path / "library" / "report.json").read_bytes() == first[0]


def test_the_first_commit_is_scored_while_git_log_still_runs(big_repo, tmp_path, monkeypatch, started):
    batches = []  # the batches the walk has handed over, and then True once it has ended
    walk_history = walk.walk_history

    def counted_walk(repo, *, identity):
        for batch in walk_history(repo, identity=identity):
            batches.append(batch)
            yield batch
        batches.append(True)

    at_first_score = []  # the batches handed over, and git log's exit status, at the first score
    score_blobs = walk.score_blobs

    def noted_score_blobs(commit, memo):
        if not at_first_score:
            at_first_score.extend([len(batches), [proc.returncode for proc in started if proc.args[3] == "log"]])
        return score_blobs(commit, memo)

    monkeypatch.setattr(walk, "walk_history", counted_walk)
    monkeypatch.setattr(walk, "score_blobs", noted_score_blobs)
    analyze(big_repo, tmp_path / "out")
    assert batches[-1] is True and sum(len(commits) for _, commits in batches[:-1]) == 500
    # git log was neither done nor waited on: its walk had handed over its first batches only
    assert at_first_score[1] == [None]
    assert 1 <= at_first_score[0] < len(batches) // 2
