"""The analysis store: a warm run writes the reports a cold run writes, reads
and analyzes only the blobs no earlier run has seen, and a store in any
state changes no report."""

import contextlib
import json
import logging
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from cefr_progress import analyzer, catalog, history, scoring, store, walk
from cefr_progress.catalog import default_catalog, parse_catalog_text
from cefr_progress.cli import main
from cefr_progress.analyzer import blob_analysis, source_analysis
from cefr_progress.scoring import NO_TEXT, is_stored
from cefr_progress.walk import entry_folder

from conftest import ALICE, BOB, GitFixture, child_env, finish, run_analyze, start_analyze
from corpus import SNIPPETS

CATALOG = default_catalog()
REPORTS = ("report.json", "report.csv", "report.html")


def reports(out: Path) -> tuple[bytes, ...]:
    return tuple((out / name).read_bytes() for name in REPORTS)


def analyze(repo, out, *options) -> tuple[bytes, ...]:
    assert main(["analyze", str(repo), "--out", str(out), *options]) == 0
    return reports(out)


@pytest.fixture
def recorded(monkeypatch):
    """The blob ids asked of git cat-file and the texts analyzed, as a run goes."""
    asked, analyzed = [], []
    ask, source_analysis = walk.ask, analyzer.source_analysis

    def recording_ask(proc, oids):
        asked.extend(oids)
        return ask(proc, oids)

    def recording_source_analysis(source):
        analyzed.append(source)
        return source_analysis(source)

    monkeypatch.setattr(walk, "ask", recording_ask)
    monkeypatch.setattr(analyzer, "source_analysis", recording_source_analysis)
    return asked, analyzed


def cold(repo, tmp_path, monkeypatch, *options) -> tuple[bytes, ...]:
    """The reports of a run with a cache root of its own, which then stays in use."""
    monkeypatch.setenv("CEFR_PROGRESS_CACHE", str(tmp_path / "cold-cache"))
    return analyze(repo, tmp_path / "cold", *options)


def test_the_stored_form_folds_into_the_analyzers_vector():
    catalog = parse_catalog_text("if_statement C2\nclosure A1\n", version="test")
    for snippet in SNIPPETS:
        stored = source_analysis(snippet.source)
        assert is_stored(stored)
        for cat in (CATALOG, catalog):
            assert entry_folder(cat)(stored) == analyzer.analyze_source(snippet.source, cat).vector


def test_the_stored_form_names_why_a_blob_has_no_counts():
    assert blob_analysis(None) == blob_analysis(b"x = 1\0") == NO_TEXT
    assert source_analysis("def broken(:\n") == "SyntaxError"
    assert source_analysis("if x:\npass\n") == "IndentationError"
    assert source_analysis("x = " + "-" * 200_000 + "1\n") in ("RecursionError", "MemoryError")
    fold = entry_folder(CATALOG)
    assert fold(NO_TEXT) == walk.ABSENT
    assert fold("SyntaxError") is walk.SKIPPED


@pytest.mark.parametrize("value", [b"", b"\0" * 7, 3, 1.5, None, "no reason", "1x"])
def test_a_value_of_another_form_is_no_stored_form(value):
    assert not is_stored(value)


def test_a_kind_missing_from_kinds_fails_loudly(monkeypatch):
    monkeypatch.setattr(analyzer, "find_constructs", lambda source: [("if_statement", 1), ("new_kind", 2)])
    with pytest.raises(RuntimeError, match="new_kind"):
        source_analysis("if x:\n    pass\n")


def test_the_store_file_is_named_by_the_kind_list(tmp_path_factory):
    # the kind list is the default catalog's table, sorted, and the stored
    # form's key names it: a kind dropped from or renamed in the table alone,
    # with analyzer.py unchanged, renames the store
    assert catalog.KINDS == tuple(sorted(CATALOG.levels))
    row = '    "closure": Level.C1,'

    def path_after(old: str, new: str) -> str:
        """The store path of a copy of the package whose catalog.py has `old` replaced by `new`."""
        package = tmp_path_factory.mktemp("copy") / "cefr_progress"
        shutil.copytree(Path(catalog.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        source = package / "catalog.py"
        assert row in source.read_text(encoding="utf-8")
        source.write_text(source.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        script = "from cefr_progress import store\nprint(store.store_path())"
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env={**child_env(), "PYTHONPATH": str(package.parent)})
        assert child.returncode == 0, child.stderr
        return child.stdout.strip()

    path = str(store.store_path())
    assert path_after(row, row) == path
    assert path_after(row, "") != path
    assert path_after(row, row.replace("closure", "closures")) != path  # KINDS keeps its order


def test_the_store_file_is_named_by_interpreter_and_code(fresh_cache_root, tmp_path, monkeypatch):
    path = store.store_path()
    assert path.parent == fresh_cache_root / "analysis"
    assert path.name.startswith(f"{sys.implementation.cache_tag}-")
    assert store.CODE == (Path(analyzer.__file__),)
    changed = tmp_path / "analyzer.py"
    changed.write_bytes(Path(analyzer.__file__).read_bytes() + b"\n# changed\n")
    with monkeypatch.context() as patch:
        patch.setattr(store, "CODE", (changed, *store.CODE[1:]))
        assert store.store_path() != path
    assert store.store_path() == path
    monkeypatch.setattr(store, "SCHEMA", (*store.SCHEMA, "CREATE TABLE more (a) WITHOUT ROWID"))
    assert store.store_path() != path


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_warm_reports_equal_cold_reports(big_repo, tmp_path, jobs):
    first = run_analyze(big_repo, tmp_path / "cold", "--jobs", jobs)
    again = run_analyze(big_repo, tmp_path / "warm", "--jobs", jobs)
    assert first.returncode == again.returncode == 0, first.stderr + again.stderr
    assert first.stdout == again.stdout
    assert reports(tmp_path / "cold") == reports(tmp_path / "warm")
    assert ", 0 from the analysis store;" in first.stderr
    assert " 0 analyzed," in again.stderr


def test_a_warm_run_reads_and_analyzes_no_blob(big_repo, tmp_path, recorded, caplog):
    caplog.set_level(logging.INFO)
    asked, analyzed = recorded
    before = analyze(big_repo, tmp_path / "cold")
    assert len(asked) == len(analyzed) > 0
    named = len(asked)
    asked.clear()
    analyzed.clear()
    assert analyze(big_repo, tmp_path / "warm") == before
    assert asked == analyzed == []
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("blobs:")]
    assert summary[-1] == (
        "blobs: 0 named, 0 analyzed, 0 from the analysis store; skipped: none; "
        f"commits: 0 from git log, 500 from stored cells; store: {store.store_path()}")
    _forget_cells()  # as on a new tip: git walks the history, and the store holds every blob it names
    assert analyze(big_repo, tmp_path / "walked") == before
    assert asked == analyzed == []
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("blobs:")]
    assert summary[-1] == (
        f"blobs: {named} named, 0 analyzed, {named} from the analysis store; skipped: none; "
        f"commits: 500 from git log, 0 from stored cells; store: {store.store_path()}")


def test_after_new_commits_only_their_new_blobs_are_analyzed(tmp_path, recorded, monkeypatch):
    asked, analyzed = recorded
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "a = 1\n")
    fixture.write("b.py", "def b():\n    return [x for x in y]\n")
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    fixture.write("a.py", "a = 2\n")
    fixture.commit(BOB, "2020-02-01T00:00:00Z", "two")
    analyze(fixture.path, tmp_path / "first")
    asked.clear()
    analyzed.clear()
    fixture.write("a.py", "a = 1\n")  # back to a known text
    fixture.write("c.py", "for c in d:\n    break\n")
    fixture.commit(ALICE, "2021-01-01T00:00:00Z", "three")
    fixture.write("b.py", "def b():\n    yield 1\n")
    fixture.write("d.py", "def broken(:\n")
    fixture.commit(BOB, "2021-02-01T00:00:00Z", "four")
    warm = analyze(fixture.path, tmp_path / "warm")
    assert sorted(analyzed) == ["def b():\n    yield 1\n", "def broken(:\n", "for c in d:\n    break\n"]
    assert len(asked) == 3
    assert warm == cold(fixture.path, tmp_path, monkeypatch)


def test_a_warm_catalog_override_equals_a_cold_one(linear_repo, tmp_path, recorded, monkeypatch):
    _, analyzed = recorded
    rules = tmp_path / "rules.cat"
    rules.write_text("if_statement C2\nsimple_assignment B1\n")
    analyze(linear_repo, tmp_path / "default")
    analyzed.clear()
    warm = analyze(linear_repo, tmp_path / "warm", "--catalog", str(rules))
    assert analyzed == []
    assert warm == cold(linear_repo, tmp_path, monkeypatch, "--catalog", str(rules))
    assert warm != reports(tmp_path / "default")


def _stored_oids() -> set[str]:
    with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
        return {oid for (oid,) in connection.execute("SELECT oid FROM blobs")}


def _stored_tips() -> list[str]:
    with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
        return [tip for (tip,) in connection.execute("SELECT DISTINCT tip FROM cells")]


def _forget_cells() -> None:
    """Delete every history's stored cells, so that the next run walks its history and looks its blobs up."""
    with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
        with connection:
            connection.execute("DELETE FROM cells")


def test_a_blob_this_repository_lacks_is_not_stored(tmp_path, recorded, monkeypatch):
    _, analyzed = recorded
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "a = [1, 2]\n")
    fixture.write("b.py", "b = 1\n")
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    oid = fixture.run("rev-parse", "HEAD:a.py").strip()
    loose = fixture.path / ".git" / "objects" / oid[:2] / oid[2:]
    data = loose.read_bytes()
    loose.unlink()  # as in a partial clone whose promisor cannot be reached
    analyze(fixture.path, tmp_path / "lacking")
    assert oid not in _stored_oids()
    assert _stored_tips() == []
    loose.write_bytes(data)
    analyzed.clear()
    whole = analyze(fixture.path, tmp_path / "whole")
    assert analyzed == ["a = [1, 2]\n"]
    assert whole == cold(fixture.path, tmp_path, monkeypatch)


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_a_verdict_of_the_run_is_not_stored(tmp_path, recorded, monkeypatch, caplog, error):
    caplog.set_level(logging.INFO)
    _, analyzed = recorded
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "a = [1, 2]\n")
    fixture.write("b.py", "b = 1\n")
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    find_constructs = analyzer.find_constructs

    def failing_once(source):
        if source == "a = [1, 2]\n":
            monkeypatch.setattr(analyzer, "find_constructs", find_constructs)
            raise analyzer.ParseError(error.__name__) from error()
        return find_constructs(source)

    monkeypatch.setattr(analyzer, "find_constructs", failing_once)
    analyze(fixture.path, tmp_path / "short")
    assert f"skipped: 1 {error.__name__};" in caplog.text
    assert len(_stored_oids()) == 1
    assert _stored_tips() == []
    analyzed.clear()
    again = analyze(fixture.path, tmp_path / "again")
    assert analyzed == ["a = [1, 2]\n"]
    assert again == cold(fixture.path, tmp_path, monkeypatch)


def _garbage(path: Path) -> None:
    path.write_bytes(b"no database, only words " * 200)


def _truncated(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _foreign_schema(path: Path) -> None:
    path.unlink()
    with sqlite3.connect(path) as connection:
        connection.execute("CREATE TABLE blobs (oid TEXT PRIMARY KEY, counts TEXT)")
    connection.close()


@pytest.mark.parametrize("damage", [_garbage, _truncated, _foreign_schema], ids=["garbage", "truncated", "foreign"])
def test_a_damaged_store_is_moved_aside_and_rebuilt(big_repo, tmp_path, caplog, recorded, damage):
    _, analyzed = recorded
    before = analyze(big_repo, tmp_path / "cold")
    path = store.store_path()
    damage(path)
    caplog.clear()
    assert analyze(big_repo, tmp_path / "damaged") == before
    warnings = [record for record in caplog.records if record.levelno >= logging.WARNING]
    assert len(warnings) == 1, caplog.text
    assert [aside.name.startswith(path.name) for aside in path.parent.glob("*.bad")] == [True]
    analyzed.clear()
    assert analyze(big_repo, tmp_path / "rebuilt") == before
    assert analyzed == []
    assert [record for record in caplog.records if record.levelno >= logging.WARNING] == warnings


@pytest.mark.parametrize("value", ["7", "NULL", "x'00ff'", "CAST(x'ff41' AS TEXT)", "'no reason'"],
                         ids=["int", "null", "short_blob", "text_no_utf8", "text"])
def test_a_row_of_another_form_is_analyzed_again_and_replaced(linear_repo, tmp_path, caplog, recorded, value):
    _, analyzed = recorded
    before = analyze(linear_repo, tmp_path / "cold")
    with sqlite3.connect(store.store_path()) as connection:
        (oid,) = connection.execute("SELECT oid FROM blobs WHERE analysis != '' LIMIT 1").fetchone()
        connection.execute(f"UPDATE blobs SET analysis = {value} WHERE oid = ?", (oid,))
    connection.close()
    _forget_cells()
    analyzed.clear()
    caplog.clear()
    assert analyze(linear_repo, tmp_path / "undecodable") == before
    assert len(analyzed) == 1
    assert len([record for record in caplog.records if record.levelno >= logging.WARNING]) == 1
    _forget_cells()
    analyzed.clear()
    caplog.clear()
    assert analyze(linear_repo, tmp_path / "mended") == before
    assert analyzed == []
    assert not [record for record in caplog.records if record.levelno >= logging.WARNING]


def _unwritable_root(tmp_path, monkeypatch) -> None:
    root = tmp_path / "a-file"
    root.write_text("the cache root is a file\n")
    monkeypatch.setenv("CEFR_PROGRESS_CACHE", str(root))


def _no_home(tmp_path, monkeypatch) -> None:
    def no_home(cls):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("CEFR_PROGRESS_CACHE")
    monkeypatch.setattr(Path, "home", classmethod(no_home))


def _locked(tmp_path, monkeypatch):
    # the store the expected reports' run made, held by another connection
    monkeypatch.setattr(store, "BUSY_TIMEOUT_S", 0.05)
    connection = sqlite3.connect(store.store_path(), isolation_level=None)
    connection.execute("BEGIN EXCLUSIVE")
    return connection


@pytest.mark.parametrize("setting", [_unwritable_root, _no_home, _locked], ids=["unwritable", "no-home", "locked"])
def test_a_run_without_a_store_warns_once_and_writes_the_same_reports(tmp_path, caplog, monkeypatch, setting):
    caplog.set_level(logging.INFO)
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "a = [1, 2]\n")
    fixture.write("b.py", "def broken(:\n")
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    expected = analyze(fixture.path, tmp_path / "expected")
    caplog.clear()
    lock = setting(tmp_path, monkeypatch)
    try:
        assert analyze(fixture.path, tmp_path / "without") == expected
    finally:
        if lock is not None:
            lock.close()
    assert len([record for record in caplog.records if record.levelno >= logging.WARNING]) == 1, caplog.text
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("blobs:")]
    assert summary == ["blobs: 2 named, 2 analyzed, 0 from the analysis store; skipped: 1 SyntaxError; "
                       "commits: 1 from git log, 0 from stored cells; no store"]


def test_concurrent_runs_share_one_store(big_repo, tmp_path):
    procs = [start_analyze(big_repo, tmp_path / name, "--jobs", jobs) for name, jobs in (("a", "1"), ("b", "2"))]
    results = [finish(proc) for proc in procs]
    assert [result.returncode for result in results] == [0, 0], [result.stderr for result in results]
    assert results[0].stdout == results[1].stdout
    assert reports(tmp_path / "a") == reports(tmp_path / "b")
    again = run_analyze(big_repo, tmp_path / "c")
    assert again.returncode == 0
    assert " 0 analyzed," in again.stderr and "WARNING" not in again.stderr
    assert "commits: 0 from git log, 500 from stored cells;" in again.stderr
    assert reports(tmp_path / "c") == reports(tmp_path / "a")


def test_a_store_damaged_past_its_schema_is_moved_aside_mid_run(big_repo, tmp_path, caplog, recorded):
    _, analyzed = recorded
    before = analyze(big_repo, tmp_path / "cold")
    cold_analyses = len(analyzed)
    path = store.store_path()
    data = path.read_bytes()
    with contextlib.closing(sqlite3.connect(path)) as connection:
        (page,) = connection.execute("PRAGMA page_size").fetchone()
    path.write_bytes(data[:page] + b"\xab" * (len(data) - page))  # the schema page stays whole
    caplog.clear()
    analyzed.clear()
    assert analyze(big_repo, tmp_path / "damaged") == before
    warnings = [record for record in caplog.records if record.levelno >= logging.WARNING]
    assert len(warnings) == 1 and "going on without the analysis store" in warnings[0].getMessage()
    assert len(list(path.parent.glob("*.bad"))) == 1
    for analyses in (cold_analyses, 0):  # a new store, then a warm run
        analyzed.clear()
        assert analyze(big_repo, tmp_path / "again") == before
        assert len(analyzed) == analyses


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\r"])
def test_a_worktree_whose_main_repository_path_holds_a_line_break_reads_stored_cells(separator, tmp_path, caplog):
    # in a linked worktree git names the grafts file by the main repository's
    # absolute path, which str.splitlines would break at `separator`: its tail
    # would count as a replace ref, and every run would walk without a store
    main_repository = GitFixture(tmp_path / f"main{separator}repo")
    main_repository.write("a.py", "x = [1, 2]\n")
    main_repository.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    linked = tmp_path / "linked"
    main_repository.run("worktree", "add", "-q", str(linked))
    caplog.set_level(logging.INFO)
    cold_reports = analyze(linked, tmp_path / "cold")
    assert analyze(linked, tmp_path / "warm") == cold_reports
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("blobs:")]
    assert summary[-1] == (
        "blobs: 0 named, 0 analyzed, 0 from the analysis store; skipped: none; "
        f"commits: 0 from git log, 1 from stored cells; store: {store.store_path()}")


def test_the_cells_key_changes_with_each_of_its_inputs(tmp_path, monkeypatch):
    assert [path.name for path in store.CELLS_CODE] == ["history.py", "catalog.py", "store.py", "walk.py"]
    copies = tuple(tmp_path / path.name for path in store.CELLS_CODE)
    for path, copy in zip(store.CELLS_CODE, copies):
        copy.write_bytes(path.read_bytes())
    monkeypatch.setattr(store, "CELLS_CODE", copies)
    version = [history._run_git("--version").stdout]

    def run_git(*args):
        assert args == ("--version",)
        return subprocess.CompletedProcess(["git", *args], 0, version[0], "")

    monkeypatch.setattr(history, "_run_git", run_git)
    key = store.cells_key("author", CATALOG)
    # the table decides, not the version that names it
    assert store.cells_key("author", catalog.Catalog("relabelled", dict(CATALOG.levels))) == key
    # and only the levels of the kinds the analyzer emits: no cell counts a kind it never emits
    assert "walrus_operator" not in catalog.KINDS
    walrus = catalog.Catalog(CATALOG.version, {**CATALOG.levels, "walrus_operator": catalog.Level.B2})
    assert store.cells_key("author", walrus) == key
    changed = [store.cells_key("committer", CATALOG),
               store.cells_key("author", catalog.Catalog(CATALOG.version,
                                                         {**CATALOG.levels, "if_statement": catalog.Level.C2}))]
    for copy in copies:
        source = copy.read_bytes()
        copy.write_bytes(source + b"\n")
        changed.append(store.cells_key("author", CATALOG))
        copy.write_bytes(source)
    git_version, version[0] = version[0], "git version 0.0.1\n"
    changed.append(store.cells_key("author", CATALOG))
    version[0] = git_version
    with monkeypatch.context() as patch:  # another cell layout
        patch.setattr(scoring, "CELL", scoring.CELL + 1)
        changed.append(store.cells_key("author", CATALOG))
    assert key not in changed and len(set(changed)) == len(changed) == 8
    assert store.cells_key("author", CATALOG) == key  # the same inputs again


#: The edit `test_the_store_file_and_the_cells_key_hash_only_the_code_they_name`
#: makes to a file, as (text, the text in its place): one in `finish` for
#: scoring.py, and a blank line for a file not named here
EDITS = {
    "cli.py": ("def run() -> int:", "def run() -> int:  # edited"),
    "report.py": ("<!DOCTYPE html>", "<!DOCTYPE HTML>"),
    "scoring.py": ("    all_profiles.sort(key=_profile_sort_key)", "    all_profiles.sort(key=_profile_sort_key)  # edited"),
}


def test_the_store_file_and_the_cells_key_hash_only_the_code_they_name(tmp_path_factory):
    # an edit to the command line, the reports or `finish` changes neither;
    # an edit to a file of CODE renames the store file alone, and one to a
    # file of CELLS_CODE changes the cells key alone
    def keys_after(name: str) -> list[str]:
        """The store file's name and the cells key of a copy of the package with one edit to `name`."""
        package = tmp_path_factory.mktemp("copy") / "cefr_progress"
        shutil.copytree(Path(store.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        source = package / name
        old, new = EDITS.get(name, ("\n", "\n\n"))
        assert old in source.read_text(encoding="utf-8")
        source.write_text(source.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
        script = ("from cefr_progress import catalog, store\nprint(store.store_path().name)\n"
                  "print(store.cells_key('author', catalog.default_catalog()))")
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env={**child_env(), "PYTHONPATH": str(package.parent)})
        assert child.returncode == 0, child.stderr
        return child.stdout.split()

    path, key = store.store_path().name, store.cells_key("author", CATALOG)
    code, cells_code = ({path.name for path in files} for files in (store.CODE, store.CELLS_CODE))
    assert code == {"analyzer.py"} and cells_code == {"history.py", "catalog.py", "store.py", "walk.py"}
    for source in sorted(Path(store.__file__).parent.glob("*.py")):
        named, keyed = keys_after(source.name)
        assert (named != path) is (source.name in code), source.name
        assert (keyed != key) is (source.name in cells_code), source.name


@pytest.mark.parametrize("verdict", [None, *sorted(scoring.PASSING)], ids=["missing", *sorted(scoring.PASSING)])
def test_keep_stores_neither_the_cells_nor_an_analysis_that_holds_only_for_this_run(linear_repo, verdict):
    # None: the id names no blob in the repository; the rest tell of the run
    held, lacking = "a" * 40, "b" * 40
    score = scoring.CommitScore("c" * 40, history.ContributorId.from_identity(*ALICE), 1577836800, (1, 0, 2, 0, 0, 0), 1, 0)
    cells = walk.fold([score])
    with history.prepare_repo(history.RepoSpec(str(linear_repo))) as repo:
        kept = store.AnalysisStore.open(repo, "author", CATALOG)
    try:
        kept.keep([(held, blob_analysis(b"x = [1]\n")), (lacking, verdict)], cells)
        assert _stored_oids() == {held}
        assert _stored_tips() == [] and kept.cells() is None
        kept.keep([(held, blob_analysis(b"x = [1]\n"))], cells)  # every analysis holds for any run
        assert _stored_oids() == {held}
        assert {anon: (who, list(ints)) for anon, (who, ints) in kept.cells().items()} == cells
    finally:
        kept.close()


def test_a_warm_summary_line_counts_the_skipped_files_of_the_stored_cells(tmp_path, caplog):
    caplog.set_level(logging.INFO)
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "def broken(:\n")
    fixture.write("b.py", "b = [1]\n")
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    fixture.write("a.py", "a = 1\n")  # its before side does not parse: a second skipped file, of the same blob
    fixture.commit(BOB, "2020-02-01T00:00:00Z", "two")

    def summary() -> str:
        return [r.getMessage() for r in caplog.records if r.getMessage().startswith("blobs:")][-1]

    cold = analyze(fixture.path, tmp_path / "cold")
    files_skipped = json.loads(cold[0])["files_skipped"]
    assert files_skipped == 2
    assert "; skipped: 1 SyntaxError; commits: 2 from git log," in summary()  # a cold run counts blobs by reason
    assert analyze(fixture.path, tmp_path / "warm") == cold
    assert f"; skipped: {files_skipped} files, reasons not stored; commits: 0 from git log," in summary()
