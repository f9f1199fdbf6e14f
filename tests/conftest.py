"""Shared fixtures: scripted git repositories with known histories."""

from __future__ import annotations

import os
import random
import subprocess
from pathlib import Path

import pytest

def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of a run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, ()):
            if "test_acceptance" in report.nodeid and report.when == "call":
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines.append((report.nodeid.split("::")[-1], verdict))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")


ALICE = ("Alice Dev", "alice@example.com")
BOB = ("Bob Coder", "bob@example.com")
CARLA_UPPER = ("Carla Maintainer", "CARLA@Example.COM")
CARLA_LOWER = ("Carla Maintainer", "carla@example.com")
BOT = ("release[bot]", "release-bot@example.com")


class GitFixture:
    """Imperative builder for small repositories with scripted histories."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.run("init", "-q", "-b", "main")

    def run(self, *args: str, env_extra: dict | None = None) -> str:
        env = dict(
            os.environ,
            GIT_CONFIG_GLOBAL="/dev/null",
            GIT_CONFIG_NOSYSTEM="1",
            GIT_AUTHOR_NAME="fixture",
            GIT_AUTHOR_EMAIL="fixture@example.com",
            GIT_COMMITTER_NAME="fixture",
            GIT_COMMITTER_EMAIL="fixture@example.com",
        )
        if env_extra:
            env.update(env_extra)
        proc = subprocess.run(
            ["git", "-C", str(self.path), *args],
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"git {' '.join(args)} failed: {proc.stderr}")
        return proc.stdout

    def write(self, relpath: str, content: str | bytes) -> None:
        target = self.path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            target.write_bytes(content)
        else:
            target.write_text(content, encoding="utf-8")

    def remove(self, relpath: str) -> None:
        self.run("rm", "-q", relpath)

    def move(self, old: str, new: str) -> None:
        self.run("mv", old, new)

    def commit(self, identity: tuple[str, str], date: str, message: str) -> str:
        name, email = identity
        self.run("add", "-A")
        self.run(
            "commit", "-q", "--allow-empty", "-m", message,
            env_extra={
                "GIT_AUTHOR_NAME": name,
                "GIT_AUTHOR_EMAIL": email,
                "GIT_AUTHOR_DATE": date,
                "GIT_COMMITTER_NAME": name,
                "GIT_COMMITTER_EMAIL": email,
                "GIT_COMMITTER_DATE": date,
            },
        )
        return self.run("rev-parse", "HEAD").strip()

    def checkout(self, name: str) -> None:
        self.run("checkout", "-q", name)

    def merge(self, branch: str, identity: tuple[str, str], date: str) -> str:
        name, email = identity
        self.run(
            "merge", "--no-ff", "-q", "-m", f"merge {branch}", branch,
            env_extra={
                "GIT_AUTHOR_NAME": name,
                "GIT_AUTHOR_EMAIL": email,
                "GIT_AUTHOR_DATE": date,
                "GIT_COMMITTER_NAME": name,
                "GIT_COMMITTER_EMAIL": email,
                "GIT_COMMITTER_DATE": date,
            },
        )
        return self.run("rev-parse", "HEAD").strip()


UTIL_V1 = "x = 1\n"
UTIL_V2 = (
    "x = 1\n"
    "for i in range(3):\n"
    "    if i:\n"
    "        break\n"
)
UTIL_V3 = (
    "x = 1\n"
    "for i in range(3):\n"
    "    if i:\n"
    "        break\n"
    "names = [n for n in x]\n"
)
GEN_PY = (
    "def squares(ns):\n"
    "    for n in ns:\n"
    "        yield n * n\n"
)
BOT_PY = (
    "version = '1.0'\n"
    "release = version\n"
)
BROKEN_PY = "def broken(:\n    pass\n"


@pytest.fixture(scope="session")
def linear_repo(tmp_path_factory) -> Path:
    """Seven-commit linear history: two years, four identities, one bot,
    one non-Python commit, one unparseable file."""
    fx = GitFixture(tmp_path_factory.mktemp("linear") / "repo")
    fx.write("util.py", UTIL_V1)
    fx.commit(ALICE, "2014-03-01T10:00:00Z", "add util")
    fx.write("util.py", UTIL_V2)
    fx.commit(ALICE, "2014-05-02T10:00:00Z", "loop handling")
    fx.write("gen.py", GEN_PY)
    fx.commit(BOB, "2014-06-03T10:00:00Z", "square generator")
    fx.write("notes.md", "release notes\n")
    fx.commit(CARLA_UPPER, "2015-01-15T10:00:00Z", "notes")
    fx.write("util.py", UTIL_V3)
    fx.commit(CARLA_LOWER, "2015-02-01T10:00:00Z", "list the names")
    fx.write("botfile.py", BOT_PY)
    fx.commit(BOT, "2015-03-01T10:00:00Z", "automated release bump")
    fx.write("broken.py", BROKEN_PY)
    fx.commit(ALICE, "2015-04-01T10:00:00Z", "checkpoint (does not parse)")
    return fx.path


@pytest.fixture(scope="session")
def merge_repo(tmp_path_factory) -> Path:
    """History with a side branch and a no-fast-forward merge commit."""
    fx = GitFixture(tmp_path_factory.mktemp("merge") / "repo")
    fx.write("a.py", "a = 1\n")
    fx.commit(ALICE, "2020-01-10T10:00:00Z", "start")
    fx.run("checkout", "-q", "-b", "feature")
    fx.write("b.py", "def helper():\n    return [v for v in data]\n")
    fx.commit(BOB, "2020-02-10T10:00:00Z", "feature work")
    fx.checkout("main")
    fx.write("a.py", "a = 1\nb = 2\n")
    fx.commit(ALICE, "2020-03-10T10:00:00Z", "more on main")
    fx.merge("feature", ALICE, "2020-04-10T10:00:00Z")
    fx.write("b.py", "def helper():\n    return [v for v in data]\n\nextra = True\n")
    fx.commit(CARLA_LOWER, "2020-05-10T10:00:00Z", "touch merged file")
    return fx.path


KEEP_V1 = (
    "def keep(values):\n"
    "    total = 0\n"
    "    for value in values:\n"
    "        if value:\n"
    "            total += value\n"
    "    return total\n"
    "\n"
    "def spare(items):\n"
    "    return [i for i in items]\n"
)
KEEP_V2 = KEEP_V1 + "\ndef extra():\n    return {'k': 2}\n"


@pytest.fixture(scope="session")
def rename_repo(tmp_path_factory) -> Path:
    """History with renames (clean and edited), deletions and a binary blob."""
    fx = GitFixture(tmp_path_factory.mktemp("rename") / "repo")
    fx.write("keep.py", KEEP_V1)
    fx.write("tool.py", "tools = {'a': 1}\n")
    fx.write("junk.py", "junk = [1, 2]\n")
    fx.commit(ALICE, "2019-01-05T10:00:00Z", "initial trio")
    fx.move("tool.py", "core.py")
    fx.commit(BOB, "2019-02-05T10:00:00Z", "rename tool to core")
    fx.move("keep.py", "kept.py")
    fx.write("kept.py", KEEP_V2)
    fx.commit(ALICE, "2019-03-05T10:00:00Z", "rename and extend")
    fx.remove("junk.py")
    fx.commit(BOB, "2019-04-05T10:00:00Z", "drop junk")
    fx.write("img.py", b"\x00\x01\x02binarynoise\x00")
    fx.commit(ALICE, "2019-05-05T10:00:00Z", "binary-ish artifact")
    fx.write("core.py", "tools = {'a': 1}\nassert tools\n")
    fx.write("extra.py", "flag = True\n")
    fx.commit(CARLA_LOWER, "2019-06-05T10:00:00Z", "core tweaks")
    fx.move("extra.py", "extra.txt")
    fx.commit(BOB, "2019-07-05T10:00:00Z", "extra is prose now")
    return fx.path


# Paths git C-quotes in its human-readable output ('"', tab, newline), or
# would without core.quotepath=off (non-ASCII).
QUOTED_PATHS = (
    'we"ird.py',
    "tab\there.py",
    "new\nline.py",
    "na\u00efve.py",
    're"named\t.py',
    "moved\nna\u00efve.py",
)


@pytest.fixture(scope="session")
def quoted_repo(tmp_path_factory) -> Path:
    """Adds, modifies, renames and deletes .py files with quoted names."""
    weird, tab, newline, accent, renamed_tab, renamed_newline = QUOTED_PATHS
    fx = GitFixture(tmp_path_factory.mktemp("quoted") / "repo")
    fx.write(weird, UTIL_V1)
    fx.commit(ALICE, "2021-01-05T10:00:00Z", "add a quoted name")
    fx.write(tab, GEN_PY)
    fx.commit(BOB, "2021-02-05T10:00:00Z", "add a tab name")
    fx.write(newline, KEEP_V1)
    fx.commit(CARLA_LOWER, "2021-03-05T10:00:00Z", "add a newline name")
    fx.write(accent, BOT_PY)
    fx.commit(ALICE, "2021-04-05T10:00:00Z", "add a non-ASCII name")
    fx.write(weird, UTIL_V2)
    fx.commit(BOB, "2022-01-05T10:00:00Z", "grow the quoted file")
    fx.write(accent, BOT_PY + "names = [n for n in release]\n")
    fx.commit(CARLA_LOWER, "2022-02-05T10:00:00Z", "grow the non-ASCII file")
    fx.move(tab, renamed_tab)
    fx.commit(ALICE, "2022-03-05T10:00:00Z", "rename the tab file")
    fx.move(newline, renamed_newline)
    fx.write(renamed_newline, KEEP_V2)
    fx.commit(BOB, "2022-04-05T10:00:00Z", "rename and extend the newline file")
    fx.remove(weird)
    fx.commit(CARLA_LOWER, "2022-05-05T10:00:00Z", "drop the quoted file")
    fx.move(accent, 'na\u00efve "notes".txt')
    fx.commit(ALICE, "2022-06-05T10:00:00Z", "the non-ASCII file is prose now")
    return fx.path


@pytest.fixture(scope="session")
def symlink_repo(tmp_path_factory) -> Path:
    """A real .py file, .py symlinks to it, and a file that becomes a symlink.

    Git stores a symlink's target path as its blob: "pkg/real.py" would
    parse as a division, "../pkg/real.py" would not parse at all.
    """
    fx = GitFixture(tmp_path_factory.mktemp("symlink") / "repo")
    fx.write("pkg/real.py", UTIL_V2)
    fx.write("pkg/old.py", GEN_PY)
    fx.commit(ALICE, "2023-01-05T10:00:00Z", "add the real files")
    os.symlink("pkg/real.py", fx.path / "alias.py")
    os.symlink("../pkg/real.py", fx.path / "pkg" / "up.py")
    fx.commit(BOB, "2023-02-05T10:00:00Z", "link to the real file")
    (fx.path / "pkg" / "old.py").unlink()
    os.symlink("real.py", fx.path / "pkg" / "old.py")
    fx.commit(ALICE, "2023-03-05T10:00:00Z", "the old file becomes a link")
    return fx.path


# -- synthetic ~500-commit repository (built with fast-import) ----------

_SNIPPET_POOL = [
    "def f{n}(a, b=1):\n    return a + b\n",
    "class C{n}:\n    def method(self):\n        return [x for x in self.items]\n",
    "def gen{n}(seq):\n    for item in seq:\n        yield item\n",
    "values{n} = {{'k': [1, 2], 'j': [3, 4]}}\n",
    "def wrap{n}(fn):\n    def inner(*args, **kwargs):\n        return fn(*args)\n    return inner\n",
    "async def io{n}(x):\n    return await x\n",
    "result{n} = sorted(x * 2 for x in range(10))\n",
    "try:\n    check{n}()\nexcept ValueError:\n    raise\n",
    "with open('f{n}') as fh:\n    data{n} = fh.read()\n",
    "if flag{n}:\n    total{n} = 0\nelse:\n    total{n} = 1\n",
]


def _file_body(rng: random.Random, blocks: int) -> str:
    parts = [f"import base{rng.randrange(5)}\n"]
    for _ in range(blocks):
        template = rng.choice(_SNIPPET_POOL)
        parts.append(template.format(n=rng.randrange(10000)))
    return "\n".join(parts)


@pytest.fixture(scope="session")
def big_repo(tmp_path_factory) -> Path:
    """~500-commit repository generated through git fast-import."""
    rng = random.Random(20240501)
    root = tmp_path_factory.mktemp("big") / "repo"
    fx = GitFixture(root)

    paths = [f"pkg/mod_{i}.py" for i in range(12)]
    contents = {p: _file_body(rng, blocks=20) for p in paths}
    authors = [ALICE, BOB, CARLA_LOWER, ("Dana Drive-by", "dana@example.com")]

    lines: list[str] = []
    mark = 0
    blob_marks: dict[str, int] = {}

    def add_blob(text: str) -> int:
        nonlocal mark
        mark += 1
        data = text.encode("utf-8")
        lines.append(f"blob\nmark :{mark}\ndata {len(data)}\n{text}")
        return mark

    commit_mark_prev = None
    base_ts = 1420108800  # 2015-01-01T12:00:00Z
    for i in range(500):
        touched = rng.sample(paths, rng.choice([1, 1, 2, 3]))
        for p in touched:
            contents[p] = _file_body(rng, blocks=rng.randrange(14, 26))
            blob_marks[p] = add_blob(contents[p])
        mark += 1
        name, email = authors[rng.randrange(len(authors))]
        ts = base_ts + i * 86400 * 5
        msg = f"change {i}\n"
        lines.append(f"commit refs/heads/main\nmark :{mark}")
        lines.append(f"author {name} <{email}> {ts} +0000")
        lines.append(f"committer {name} <{email}> {ts} +0000")
        lines.append(f"data {len(msg.encode())}\n{msg}".rstrip("\n"))
        if commit_mark_prev is not None:
            lines.append(f"from :{commit_mark_prev}")
        for p in touched:
            lines.append(f"M 100644 :{blob_marks[p]} {p}")
        lines.append("")
        commit_mark_prev = mark

    stream = "\n".join(lines) + "\n"
    proc = subprocess.run(
        ["git", "-C", str(root), "fast-import", "--quiet"],
        input=stream.encode("utf-8"),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    fx.run("reset", "-q", "--hard", "main")
    return root
