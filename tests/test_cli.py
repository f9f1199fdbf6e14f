import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cefr_progress import analyzer, history, walk
from cefr_progress.analyzer import analyze_source
from cefr_progress.catalog import LEVEL_LABELS, default_catalog
from cefr_progress.cli import main
from cefr_progress.history import RepoError, RepoSpec, extract_commits, prepare_repo

from conftest import ALICE, GEN_PY, UTIL_V2, GitFixture, child_env, run_analyze
from oracle import vector_sum
from verdict_differential import HANDLERS_3_12

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
    real, old = (analyze_source(text, CATALOG).vector for text in (UTIL_V2, GEN_PY))
    assert report["project_total"] == list(vector_sum(real, old))
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


def test_analyze_a_url_with_no_cache_root_exits_2(linear_repo, tmp_path, monkeypatch, caplog):
    def no_home(cls):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("CEFR_PROGRESS_CACHE")
    monkeypatch.setattr(Path, "home", classmethod(no_home))
    assert main(["analyze", linear_repo.as_uri(), "--out", str(tmp_path / "o")]) == 2
    assert f"no cache root to clone {linear_repo.as_uri()} into: set CEFR_PROGRESS_CACHE" in caplog.text


def test_analyze_a_url_with_a_cache_root_that_is_a_file_exits_2(linear_repo, tmp_path, monkeypatch, caplog):
    root = tmp_path / "root"
    root.write_text("a file, not a directory\n")
    monkeypatch.setenv("CEFR_PROGRESS_CACHE", str(root))
    assert main(["analyze", linear_repo.as_uri(), "--out", str(tmp_path / "o")]) == 2
    assert f"cannot clone {linear_repo.as_uri()} into {root / 'clones'}: Not a directory" in caplog.text


def test_analyze_a_repository_path_that_is_not_utf8(linear_repo, tmp_path, capsys):
    # argv holds the byte 0xff as the surrogate escape U+DCFF, which UTF-8 cannot encode
    repo = tmp_path / os.fsdecode(b"B\xff")
    shutil.copytree(linear_repo, repo, symlinks=True)
    out = tmp_path / "out"
    assert main(["analyze", str(repo), "--out", str(out)]) == 0
    for name in ("report.csv", "report.html"):
        (out / name).read_bytes().decode("utf-8")
    assert json.loads((out / "report.json").read_bytes().decode("utf-8"))["repo"] == f"{tmp_path}/B\\xff"
    assert main(["analyze", str(tmp_path / os.fsdecode(b"missing\xff")), "--out", str(tmp_path / "o")]) == 2
    # stderr, git's own message included, shows the byte as the reports do
    proc = run_analyze(tmp_path / os.fsdecode(b"missing\xff"), tmp_path / "o")
    assert proc.returncode == 2
    assert f"ERROR repository error: clone of {tmp_path}/missing\\xff failed: " in proc.stderr
    assert "does not exist" in proc.stderr and "\\udc" not in proc.stderr
    # and so does classify's file field
    target = tmp_path / os.fsdecode(b"f\xff.py")
    target.write_text("x = 1\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", str(target)]) == 0
    assert json.loads(capsys.readouterr().out)["file"] == f"{tmp_path}/f\\xff.py"
    missing = tmp_path / os.fsdecode(b"g\xff.py")
    proc = subprocess.run([sys.executable, "-m", "cefr_progress", "classify", str(missing)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 4
    assert proc.stderr == f"ERROR cannot read {tmp_path}/g\\xff.py: No such file or directory\n"


def test_analyze_a_commit_dated_after_9999(tmp_path):
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "x = 1\n")
    fixture.commit(ALICE, "@253402300800 +0000", "one")
    out = tmp_path / "out"
    assert main(["analyze", str(fixture.path), "--out", str(out), "--period", "monthly"]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert list(report["project_by_period"]) == ["10000-01"]


@pytest.mark.parametrize("period, keys", [("yearly", ["9999", "10000"]), ("monthly", ["9999-12", "10000-01"])])
def test_periods_past_9999_follow_time_order(tmp_path, period, keys):
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "x = 1\n")
    fixture.commit(ALICE, "@253402300000 +0000", "the last quarter hour of 9999")
    fixture.write("a.py", "x = 1\ny = [2]\n")
    fixture.commit(ALICE, "@253402300800 +0000", "the first second of 10000")
    out = tmp_path / "out"
    assert main(["analyze", str(fixture.path), "--out", str(out), "--period", period]) == 0
    rows = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert [row.partition(",")[0] for row in rows] == ["period", *keys, "total"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [row["period"] for row in report["top_contributor"]["periods"]] == keys
    # JSON objects keep their keys in string order
    assert list(report["project_by_period"]) == sorted(keys)
    assert list(report["contributors"][0]["by_period"]) == sorted(keys)
    page = (out / "report.html").read_text(encoding="utf-8")
    timeline = page[page.index('<svg class="timeline"'):]
    assert timeline.index(f">{keys[0]}</text>") < timeline.index(f">{keys[1]}</text>")
    table = page[page.index('<table id="top-contributor">'):]
    assert table.index(f"<td>{keys[0]}</td>") < table.index(f"<td>{keys[1]}</td>")


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
    with pytest.raises(RepoError, match="^git log exited with status 128$"):
        with prepare_repo(RepoSpec(str(fixture.path))) as repo:
            extract_commits(repo)
    assert main(["analyze", str(fixture.path), "--out", str(tmp_path / "o")]) == 2


def test_analyze_analyzes_each_distinct_text_once(big_repo, tmp_path, monkeypatch):
    started, asked, analyzed = [], [], []
    start_git, ask, source_analysis = history._start_git, walk.ask, analyzer.source_analysis

    def recording_start_git(*args, **pipes):
        started.append(args[2])  # the git command after "-C <path>"
        return start_git(*args, **pipes)

    def recording_ask(proc, oids):
        asked.extend(oids)
        return ask(proc, oids)

    def counting_source_analysis(source):
        analyzed.append(source)
        return source_analysis(source)

    monkeypatch.setattr(history, "_start_git", recording_start_git)
    monkeypatch.setattr(walk, "ask", recording_ask)
    monkeypatch.setattr(analyzer, "source_analysis", counting_source_analysis)
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
    proc = run_analyze(fixture.path, out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["files_analyzed"] == 3000
    assert report["project_total"] == [3000, 0, 0, 0, 0, 0]  # one simple assignment each


def test_a_cached_url_clone_is_fetched_by_its_url(linear_repo, tmp_path, monkeypatch):
    # clone.defaultRemoteName names a clone's remote, so it need not be "origin"
    config = tmp_path / "gitconfig"
    config.write_text("[clone]\n\tdefaultRemoteName = upstream\n", encoding="utf-8")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    url = Path(linear_repo).as_uri()
    reports = []
    for run in ("first", "again"):
        assert main(["analyze", url, "--out", str(tmp_path / run)]) == 0
        reports.append([(tmp_path / run / name).read_bytes() for name in ("report.json", "report.csv", "report.html")])
    assert reports[0] == reports[1]


def test_analyze_in_parallel_writes_the_serial_reports(big_repo, tmp_path):
    # workers forked after a pipe to git exists would hold git's input open,
    # and git would never end: the run would hang, not fail
    for jobs in ("1", "2"):
        proc = run_analyze(big_repo, tmp_path / jobs, "--jobs", jobs)
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


@pytest.mark.parametrize("data, code", [
    (b"x = 1\n#\0\n", 6),
    (b"\xef\xbb\xbfx = [1]\n", 0),
    (b"# -*- coding: latin-1 -*-\nna\xefve = {1: 2}\n", 0),
    (b"x = 1\n# caf\xe9\n", 0),
    (b"def f():\n    continue\n", 5),
], ids=["nul_byte", "utf8_bom", "latin1_cookie", "undecodable_byte", "refused_by_compile"])
def test_classify_judges_a_file_as_analyze_judges_its_blob(tmp_path, capsys, data, code):
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", data)
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    out = tmp_path / "out"
    assert main(["analyze", str(fixture.path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    # analyzed: exit 0; skipped: exit 5 (no compile); neither, as a binary blob: exit 6
    assert (report["files_analyzed"], report["files_skipped"]) == {0: (1, 0), 5: (0, 1), 6: (0, 0)}[code]
    capsys.readouterr()
    assert main(["classify", str(fixture.path / "a.py")]) == code
    if code == 0:
        levels = json.loads(capsys.readouterr().out)["levels"]
        assert [levels[label] for label in LEVEL_LABELS] == report["project_total"]


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_a_stdout_closed_early_exits_4_without_a_traceback(linear_repo, tmp_path, command):
    # as `analyze REPO | head -0` and `classify FILE | head -3` close it
    out, target = tmp_path / "out", tmp_path / "gen.py"
    target.write_text(GEN_PY)
    arguments = ["analyze", str(linear_repo), "--out", str(out)] if command == "analyze" else ["classify", str(target)]
    reader, writer = os.pipe()
    os.close(reader)
    with open(writer, "wb") as stdout:
        proc = subprocess.run([sys.executable, "-m", "cefr_progress", *arguments],
                              stdout=stdout, stderr=subprocess.PIPE, text=True, env=child_env())
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
    if command == "analyze":
        assert sorted(path.name for path in out.iterdir()) == ["report.csv", "report.html", "report.json"]


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
    proc = run_analyze(linear_repo, tmp_path / "o")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("commits analyzed:")
    # progress stays on stderr, machine output on stdout
    assert "INFO" not in proc.stdout


#: What the ``cefr-progress`` script that pyproject.toml declares runs
SCRIPT = "import sys\nfrom cefr_progress.cli import run\nsys.exit(run())\n"


def test_the_script_and_the_module_entry_point_run_alike(linear_repo, tmp_path):
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert '\ncefr-progress = "cefr_progress.cli:run"\n' in pyproject
    # stdout is a pipe, so block-buffered: what the process wrote reaches it at exit
    env = {name: value for name, value in child_env().items() if name != "PYTHONUNBUFFERED"}
    bad_catalog, blocker = tmp_path / "bad.cat", tmp_path / "blocked"
    bad_catalog.write_text("if_statement NOPE\n")
    blocker.write_text("a file, not a directory\n")
    out = ["--out", str(tmp_path / "out")]
    cases = [  # (exit code, arguments)
        (0, ["analyze", str(linear_repo), *out]),
        (0, ["classify", str(Path(analyzer.__file__))]),
        (2, ["analyze", str(tmp_path / "no-such-repo"), *out]),
        (2, ["analyze", str(linear_repo), "--jobs", "0"]),
        (3, ["analyze", str(linear_repo), *out, "--catalog", str(bad_catalog)]),
        (4, ["analyze", str(linear_repo), "--out", str(blocker)]),
    ]
    main(["analyze", str(linear_repo), *out])  # the store holds the cells, so both runs below read them
    for code, arguments in cases:
        runs = [subprocess.run([sys.executable, *entry, *arguments], capture_output=True, env=env)
                for entry in (["-m", "cefr_progress"], ["-c", SCRIPT])]
        assert [run.returncode for run in runs] == [code, code], arguments
        assert runs[0].stdout == runs[1].stdout and runs[0].stderr == runs[1].stderr, arguments
        assert runs[0].stdout or code, arguments


def test_main_leaves_the_collector_unfrozen(linear_repo, tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["analyze", str(linear_repo), "--out", str(tmp_path / "out")]) == 0
    assert main(["classify", str(Path(analyzer.__file__))]) == 0
    assert gc.get_freeze_count() == frozen


def test_the_readme_library_path_writes_what_analyze_writes(linear_repo, tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert block.count('"/path/to/repo"') == 2 and block.count('"out/"') == 1
    library, cli = tmp_path / "library", tmp_path / "cli"
    code = block.replace('"/path/to/repo"', repr(str(linear_repo))).replace('"out/"', repr(str(library)))
    exec(compile(code, "<README.md: Library use>", "exec"), {})
    assert main(["analyze", str(linear_repo), "--out", str(cli)]) == 0
    for name in ("report.json", "report.csv"):
        assert (library / name).read_bytes() == (cli / name).read_bytes()


def _blocks_in_async_def(count: int, block: str) -> str:
    """`count` nested `block` statements in an async def, in a module whose
    `global` has the walk ask compile() for the verdict."""
    lines = ["global g", "async def f():"]
    lines += ["    " * (depth + 1) + f"{block} c{depth}:" for depth in range(count)]
    return "\n".join([*lines, "    " * (count + 1) + "pass", ""])


def test_a_source_that_crashes_the_3_12_compiler_is_a_skipped_file_there(tmp_path):
    # Python 3.12.1's compile() dies with SIGSEGV on the first two and on each
    # source that keeps 21 handlers open, so the checks run in a child
    # process, where a crash fails the test and not the suite
    on_3_12 = sys.version_info[:2] == (3, 12)
    crashing = [_blocks_in_async_def(20, "with"), _blocks_in_async_def(19, "async with")]
    sources = [*crashing, _blocks_in_async_def(18, "async with")]
    sources += [source for source, _ in HANDLERS_3_12.values()]
    expected = [not on_3_12, not on_3_12, True]
    expected += [not (on_3_12 and count > 20) for _, count in HANDLERS_3_12.values()]
    script = (
        "import json, sys\n"
        "from cefr_progress.analyzer import analyze_source\n"
        "from cefr_progress.catalog import default_catalog\n"
        "print(json.dumps([analyze_source(s, default_catalog()).parse_ok for s in json.load(sys.stdin)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(sources),
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected

    fixture = GitFixture(tmp_path / "repo")
    fixture.write("ok.py", "x = 1\n")
    fixture.write("deep.py", crashing[0])
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "a file too deep for 3.12")
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        proc = run_analyze(fixture.path, out, "--jobs", jobs)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["files_skipped"] == (1 if on_3_12 else 0)
