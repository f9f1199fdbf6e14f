import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import cefr_progress
from cefr_progress import history, scoring
from cefr_progress.catalog import default_catalog
from cefr_progress.cli import main
from cefr_progress.history import RepoError, RepoSpec, extract_commits, prepare_repo

from conftest import ALICE, GEN_PY, UTIL_V2, GitFixture

CATALOG = default_catalog()


def test_analyze_fixture_writes_three_reports(linear_repo, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", str(linear_repo), "--out", str(out), "--period", "yearly"])
    assert code == 0
    for name in ("report.json", "report.csv", "report.html"):
        assert (out / name).is_file()
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("commits analyzed: 7;")
    assert "top contributor:" in summary


def test_analyze_summary_counts_skipped_files(linear_repo, tmp_path, capsys):
    code = main(["analyze", str(linear_repo), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "files skipped: 1" in capsys.readouterr().out  # broken.py


def test_analyze_counts_only_the_real_file_behind_symlinks(symlink_repo, tmp_path):
    # pkg/old.py: its generator counts when added; becoming a link removes it
    # and so adds nothing.  The links add nothing, skip nothing and, with no
    # text on either side, are not analyzed either.
    out = tmp_path / "out"
    assert main(["analyze", str(symlink_repo), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    real, old = (scoring.level_vector(text, CATALOG) for text in (UTIL_V2, GEN_PY))
    assert report["project_total"] == (real + old).as_list()
    assert report["files_skipped"] == 0
    assert report["files_analyzed"] == 3  # real.py and old.py added, old.py removed


def test_analyze_credits_a_name_with_a_unit_separator_verbatim(tmp_path):
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "x = 1\n")
    fixture.commit(("A\x1fB", "ab@example.com"), "2020-01-01T00:00:00Z", "one")
    out = tmp_path / "out"
    assert main(["analyze", str(fixture.path), "--out", str(out), "--show-names"]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [(c["name"], c["email"]) for c in report["contributors"]] == [("A\x1fB", "ab@example.com")]


def test_analyze_nonexistent_repo_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "missing"), "--out", str(tmp_path / "o")]) == 2


def test_analyze_without_git_binary_exits_2(linear_repo, tmp_path, monkeypatch):
    empty = tmp_path / "empty-path"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    assert main(["analyze", str(linear_repo), "--out", str(tmp_path / "o")]) == 2


def test_analyze_unreadable_history_exits_2(tmp_path):
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "x = 1\n")
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    tree = fixture.run("rev-parse", "HEAD^{tree}").strip()
    fixture.write("a.py", "x = 2\n")
    fixture.commit(ALICE, "2020-01-02T00:00:00Z", "two")
    (fixture.path / ".git" / "objects" / tree[:2] / tree[2:]).unlink()
    with pytest.raises(RepoError) as err:
        with prepare_repo(RepoSpec(str(fixture.path))) as repo:
            extract_commits(repo)
    assert err.value.kind == "git_failed"
    assert main(["analyze", str(fixture.path), "--out", str(tmp_path / "o")]) == 2


def test_analyze_analyzes_each_distinct_text_once(big_repo, tmp_path, monkeypatch):
    started, asked, analyzed = [], [], []
    start_git, ask, analyze_source = history._start_git, history.ask, scoring.analyze_source

    def recording_start_git(*args, **pipes):
        started.append(args[2])  # the git command after "-C <path>"
        return start_git(*args, **pipes)

    def recording_ask(proc, oids):
        asked.extend(oids)
        return ask(proc, oids)

    def counting_analyze_source(source, catalog):
        analyzed.append(source)
        return analyze_source(source, catalog)

    monkeypatch.setattr(history, "_start_git", recording_start_git)
    monkeypatch.setattr(history, "ask", recording_ask)
    monkeypatch.setattr(scoring, "analyze_source", counting_analyze_source)
    assert main(["analyze", str(big_repo), "--out", str(tmp_path / "o"), "--jobs", "1"]) == 0
    assert started.count("cat-file") == 1
    # each distinct blob id is asked for once and analyzed once
    assert len(asked) == len(set(asked)) == len(analyzed)

    with prepare_repo(RepoSpec(str(big_repo))) as repo:
        records = extract_commits(repo)
    sides = [
        text
        for record in records
        for change in record.changes
        for text in (change.before_text, change.after_text)
        if text is not None
    ]
    texts = set(sides)
    assert len(set(analyzed)) == len(texts) < len(sides)
    # equal texts come from one blob read, so they are one object
    assert len({id(text) for text in sides}) == len(texts)


def _run_analyze(repo, out, *options):
    """`analyze` in a child process that imports the package from where the
    tests imported it.  A run that hangs fails instead of hanging the suite,
    and its workers and git processes are killed with it."""
    package_root = str(Path(cefr_progress.__file__).parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "cefr_progress", "analyze", str(repo), "--out", str(out), *options],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def test_analyze_a_commit_that_names_more_blobs_than_a_pipe_holds(tmp_path):
    # 3,000 blob ids make about 120 kB of requests to git cat-file, more than
    # a pipe holds: written at once before reading, they would deadlock
    fixture = GitFixture(tmp_path / "repo")
    files = "".join(f"M 100644 inline pkg/m{i}.py\ndata {len(f'x = {i}')}\nx = {i}\n" for i in range(3000))
    stream = (
        "commit refs/heads/main\nauthor A <a@x> 1577836800 +0000\ncommitter A <a@x> 1577836800 +0000\n"
        f"data 1\n.\n{files}"
    )
    subprocess.run(
        ["git", "-C", str(fixture.path), "fast-import", "--quiet"], input=stream.encode(), check=True, capture_output=True,
    )
    out = tmp_path / "out"
    proc = _run_analyze(fixture.path, out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["files_analyzed"] == 3000
    assert report["project_total"] == [3000, 0, 0, 0, 0, 0]  # one simple assignment each


def test_analyze_in_parallel_writes_the_serial_reports(big_repo, tmp_path):
    # workers forked after a pipe to git exists would hold git's input open,
    # and git would never end: the run would hang, not fail
    for jobs in ("1", "2"):
        proc = _run_analyze(big_repo, tmp_path / jobs, "--jobs", jobs)
        assert proc.returncode == 0, proc.stderr
    for name in ("report.json", "report.csv", "report.html"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_analyze_bad_catalog_exits_3(linear_repo, tmp_path):
    bad = tmp_path / "bad.cat"
    bad.write_text("if_statement NOPE\n")
    code = main(["analyze", str(linear_repo), "--out", str(tmp_path / "o"), "--catalog", str(bad)])
    assert code == 3


def test_analyze_unwritable_output_exits_4(linear_repo, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory\n")
    assert main(["analyze", str(linear_repo), "--out", str(blocker)]) == 4


def test_analyze_monthly_period(linear_repo, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", str(linear_repo), "--out", str(out), "--period", "monthly"]) == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert rows[1].startswith("2014-03,")


def test_analyze_show_names(linear_repo, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", str(linear_repo), "--out", str(out), "--show-names"]) == 0
    payload = json.loads((out / "report.json").read_text())
    names = {c["name"] for c in payload["contributors"]}
    assert "Alice Dev" in names


def test_analyze_default_bot_filtering(linear_repo, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", str(linear_repo), "--out", str(out), "--show-names"]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert all("[bot]" not in (c["name"] or "") for c in payload["contributors"])
    assert payload["excluded_total"][0] > 0  # the bot's assignments went to the residual


def test_analyze_custom_bot_pattern(linear_repo, tmp_path):
    out = tmp_path / "out"
    code = main([
        "analyze", str(linear_repo), "--out", str(out), "--show-names",
        "--bot-pattern", "^Bob",
    ])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    names = {c["name"] for c in payload["contributors"]}
    assert "Bob Coder" not in names
    assert "release[bot]" in names  # custom patterns replace the default


def test_analyze_identity_committer_mode(linear_repo, tmp_path):
    assert main(["analyze", str(linear_repo), "--out", str(tmp_path / "o"), "--identity", "committer"]) == 0


def test_analyze_jobs_flag(linear_repo, tmp_path):
    assert main(["analyze", str(linear_repo), "--out", str(tmp_path / "o"), "--jobs", "2"]) == 0


@pytest.mark.parametrize("option", ["--jobs", "--top"], ids=["jobs", "top"])
def test_analyze_rejects_bad_jobs(linear_repo, tmp_path, option):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(linear_repo), "--out", str(tmp_path / "o"), option, "0"])
    assert exc.value.code == 2  # argparse's usage error


def test_analyze_rejects_bad_bot_pattern(linear_repo, tmp_path):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(linear_repo), "--out", str(out), "--bot-pattern", "["])
    assert exc.value.code == 2  # rejected before any history is read
    assert not (out / "report.json").exists()


def test_classify_metaclass_file(tmp_path, capsys):
    target = tmp_path / "meta.py"
    target.write_text("class Special(Base, metaclass=Meta):\n    pass\n")
    assert main(["classify", str(target)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"]["C2"] >= 1
    assert {"kind": "metaclass", "line": 1} in payload["occurrences"]


def test_classify_empty_file(tmp_path, capsys):
    target = tmp_path / "empty.py"
    target.write_text("")
    assert main(["classify", str(target)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["levels"].values()) == [0, 0, 0, 0, 0, 0]
    assert payload["total"] == 0


def test_classify_broken_file_exits_5(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    assert main(["classify", str(target)]) == 5


def test_classify_too_deep_file_exits_5(tmp_path):
    target = tmp_path / "deep.py"
    target.write_text(" + ".join(["1"] * 100_000) + "\n")
    assert main(["classify", str(target)]) == 5


@pytest.mark.parametrize("data, line", [
    (b"\xef\xbb\xbfx = 1\n", 1),
    (b"# -*- coding: latin-1 -*-\nna\xefve = 1\n", 2),
], ids=["utf8_bom", "latin1_cookie"])
def test_classify_decodes_like_the_compiler(tmp_path, capsys, data, line):
    compile(data, "<bytes>", "exec")  # the compiler accepts each of these
    target = tmp_path / "encoded.py"
    target.write_bytes(data)
    assert main(["classify", str(target)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["occurrences"] == [{"kind": "simple_assignment", "line": line}]


def test_classify_unreadable_file_exits_4(tmp_path):
    assert main(["classify", str(tmp_path / "missing.py")]) == 4


def test_classify_with_catalog_override(tmp_path, capsys):
    target = tmp_path / "simple.py"
    target.write_text("x = 1\n")
    rules = tmp_path / "rules.cat"
    rules.write_text("simple_assignment C2 promoted for testing\n")
    assert main(["classify", str(target), "--catalog", str(rules)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"]["C2"] == 1
    assert payload["levels"]["A1"] == 0


def test_module_entry_point_smoke(linear_repo, tmp_path):
    proc = _run_analyze(linear_repo, tmp_path / "o")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("commits analyzed:")
    # progress stays on stderr, machine output on stdout
    assert "INFO" not in proc.stdout
