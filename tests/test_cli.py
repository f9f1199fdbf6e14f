import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cefr_progress
from cefr_progress import history, scoring
from cefr_progress.cli import main
from cefr_progress.history import RepoSpec, extract_commits, prepare_repo


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


def test_analyze_nonexistent_repo_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "missing"), "--out", str(tmp_path / "o")]) == 2


def test_analyze_without_git_binary_exits_2(linear_repo, tmp_path, monkeypatch):
    empty = tmp_path / "empty-path"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    assert main(["analyze", str(linear_repo), "--out", str(tmp_path / "o")]) == 2


def test_analyze_analyzes_each_distinct_text_once(big_repo, tmp_path, monkeypatch):
    reads = []
    read_blob = history.Repo.read_blob

    def counting_read_blob(self, oid):
        reads.append(oid)
        return read_blob(self, oid)

    monkeypatch.setattr(history.Repo, "read_blob", counting_read_blob)
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
    assert len(reads) == len(set(reads)) == len(texts) < len(sides)
    # equal texts come from one blob read, so they are one object
    assert len({id(text) for text in sides}) == len(texts)

    calls = []
    analyze_source = scoring.analyze_source

    def counting_analyze_source(source, catalog):
        calls.append(source)
        return analyze_source(source, catalog)

    monkeypatch.setattr(scoring, "analyze_source", counting_analyze_source)
    assert main(["analyze", str(big_repo), "--out", str(tmp_path / "o"), "--jobs", "1"]) == 0
    assert len(calls) == len(texts)


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
    # the child imports the package from where this test imported it
    package_root = str(Path(cefr_progress.__file__).parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cefr_progress", "analyze", str(linear_repo), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("commits analyzed:")
    # progress stays on stderr, machine output on stdout
    assert "INFO" not in proc.stdout
