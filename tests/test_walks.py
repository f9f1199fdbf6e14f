"""Stored history walks: a re-run on an unchanged history starts no git log,
and a stored walk in any state changes no report."""

import contextlib
import logging
import sqlite3
import subprocess

import pytest

from cefr_progress import history, store
from cefr_progress.cli import main
from cefr_progress.history import RepoSpec, prepare_repo

from conftest import ALICE, BOB, GitFixture

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


def commands(procs) -> list[str]:
    return sorted(proc.args[3] for proc in procs)


def sources(caplog) -> str:
    """The commit counts of the last summary line."""
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("blobs:")]
    return summary[-1].split("commits: ")[1].split(";")[0]


def walks() -> list[tuple[str, int]]:
    """(tip, length) of each stored walk."""
    with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
        return connection.execute("SELECT tip, length(walk) FROM walks ORDER BY tip").fetchall()


def clone(source, path) -> GitFixture:
    subprocess.run(["git", "clone", "-q", str(source), str(path)], check=True, capture_output=True)
    return GitFixture(path)


@pytest.fixture(autouse=True)
def info_logs(caplog):
    caplog.set_level(logging.INFO)


def test_an_unchanged_head_starts_no_git_log(big_repo, tmp_path, started, caplog):
    first = analyze(big_repo, tmp_path / "first")
    assert commands(started) == ["cat-file", "log"]
    assert sources(caplog) == "500 from git log, 0 from a stored walk"
    started.clear()
    assert analyze(big_repo, tmp_path / "warm") == first
    assert commands(started) == ["cat-file"]
    assert sources(caplog) == "0 from git log, 500 from a stored walk"


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
    assert sources(caplog) == "500 from git log, 0 from a stored walk"
    assert commands(started) == ["cat-file", "log"]
    # each tip keeps its own walk
    assert sorted(tip for tip, _ in walks()) == sorted([head, older])
    assert after == cold(fixture.path, tmp_path / "cold", monkeypatch, "--jobs", jobs)
    fixture.run("reset", "-q", "--hard", older)
    started.clear()
    assert analyze(fixture.path, tmp_path / "older-again", "--jobs", jobs) == before
    assert sources(caplog) == "0 from git log, 497 from a stored walk"
    assert commands(started) == ["cat-file"]


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
    assert commands(started) == ["cat-file"]
    assert merged == before == cold(fixture.path, tmp_path / "cold", monkeypatch)
    fixture.write("b.py", "def helper():\n    return [v for v in data]\n\nextra = True\n")
    fixture.commit(BOB, "2020-05-10T10:00:00Z", "touch merged file")
    after = analyze(fixture.path, tmp_path / "after")
    assert sources(caplog) == "3 from git log, 0 from a stored walk"
    assert after == cold(fixture.path, tmp_path / "cold-after", monkeypatch)


def test_each_identity_mode_has_its_own_walk(linear_repo, tmp_path, started, caplog, monkeypatch):
    author = analyze(linear_repo, tmp_path / "author")
    committer = analyze(linear_repo, tmp_path / "committer", "--identity", "committer")
    assert sources(caplog) == "7 from git log, 0 from a stored walk"
    started.clear()
    assert analyze(linear_repo, tmp_path / "author-again") == author
    assert analyze(linear_repo, tmp_path / "committer-again", "--identity", "committer") == committer
    assert commands(started) == ["cat-file", "cat-file"]
    assert committer == cold(linear_repo, tmp_path / "cold", monkeypatch, "--identity", "committer")


def _truncated(connection) -> None:
    connection.execute("UPDATE walks SET walk = substr(walk, 1, length(walk) - 7)")


def _changed_byte(connection) -> None:
    (walk,) = connection.execute("SELECT walk FROM walks").fetchone()
    changed = bytearray(walk)
    changed[100] ^= 0x01
    connection.execute("UPDATE walks SET walk = ?", (bytes(changed),))


def _deleted(connection) -> None:
    connection.execute("DELETE FROM walks")


def _damage(damage) -> None:
    with contextlib.closing(sqlite3.connect(store.store_path())) as connection:
        with connection:
            damage(connection)


def _warnings(caplog) -> list[str]:
    return [record.getMessage() for record in caplog.records if record.levelno >= logging.WARNING]


@pytest.mark.parametrize("damage, warnings", [(_truncated, 1), (_changed_byte, 1), (_deleted, 0)],
                         ids=["truncated", "changed_byte", "deleted"])
def test_a_damaged_walk_costs_one_warning_and_a_git_walk(big_repo, tmp_path, started, caplog, damage, warnings):
    before = analyze(big_repo, tmp_path / "cold")
    _damage(damage)
    caplog.clear()
    started.clear()
    assert analyze(big_repo, tmp_path / "damaged") == before
    # a walk that another run's writes took away is a plain miss
    assert len(_warnings(caplog)) == warnings
    assert all("damaged walk" in warning for warning in _warnings(caplog))
    assert commands(started) == ["cat-file", "log"]
    assert sources(caplog) == "500 from git log, 0 from a stored walk"
    caplog.clear()
    started.clear()
    assert analyze(big_repo, tmp_path / "mended") == before
    assert _warnings(caplog) == []
    assert commands(started) == ["cat-file"]


def test_two_runs_writing_one_walk_leave_it_whole():
    first, second = store.AnalysisStore.open(), store.AnalysisStore.open()
    try:
        long, short = b"a\0" * 100_000, b"c\0" * 40_000
        first.keep_walk("key", "tip", long)
        second.keep_walk("key", "tip", short)
        assert first.walk("key", "tip") == short
        assert walks() == [("tip", 80_000)]
    finally:
        first.close()
        second.close()


def rewritten(fixture, rewrite, undo, tmp_path, monkeypatch, started, caplog) -> None:
    """Checks that a history `rewrite` rewrites is walked with git on every run and
    no walk of it is stored, and that once `undo` undoes it, the stored walk is read again."""
    before = analyze(fixture.path, tmp_path / "before")
    rewrite()
    started.clear()
    first = analyze(fixture.path, tmp_path / "first")
    assert first != before
    assert analyze(fixture.path, tmp_path / "warm") == first == cold(fixture.path, tmp_path / "cold", monkeypatch)
    assert sources(caplog) == "2 from git log, 0 from a stored walk"
    assert commands(started) == ["cat-file", "cat-file", "cat-file", "log", "log", "log"]
    assert len(walks()) == 1
    undo()
    assert analyze(fixture.path, tmp_path / "after") == before
    assert sources(caplog) == "0 from git log, 7 from a stored walk"


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
