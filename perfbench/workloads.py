"""Seeded input generators for the three benchmark workloads.

Each generator returns a `Plan`: the commits of a first-parent history, each
with its author, timestamp and file changes, where every `.py` file version
carries its expected six-level vector when the generator knows it.  The
plan is written into a bare repository with one `git fast-import` stream,
so nothing is downloaded and the same seed always gives the same history.

Vectors for `churn` and `wide` come from the hand-labelled templates below:
a generated file is a concatenation of templates, and a vector is additive
over concatenation, so the expected vector of any file version is a sum of
labels.  `stdlib_import` copies real files, whose vectors the checker takes
from `cefr-progress classify` on the copies it writes to disk.
"""

from __future__ import annotations

import calendar
import os
import random
import subprocess
import sysconfig
from dataclasses import dataclass, field
from pathlib import Path

Vector = tuple[int, int, int, int, int, int]  # A1, A2, B1, B2, C1, C2


# The snippet pool of the test suite's `big_repo` fixture, each with its
# vector hand-labelled from the default catalog in docs/catalog-format.md.
SNIPPETS: list[tuple[str, Vector]] = [
    # function_definition, return_statement, arithmetic_expression | default_parameter
    ("def f{n}(a, b=1):\n    return a + b\n", (3, 1, 0, 0, 0, 0)),
    # function_definition, return_statement | class_definition | list_comprehension
    ("class C{n}:\n    def method(self):\n        return [x for x in self.items]\n", (2, 0, 1, 1, 0, 0)),
    # function_definition, for_statement | generator_function
    ("def gen{n}(seq):\n    for item in seq:\n        yield item\n", (2, 0, 0, 0, 1, 0)),
    # simple_assignment, list_literal x2 | dict_literal
    ("values{n} = {{'k': [1, 2], 'j': [3, 4]}}\n", (3, 1, 0, 0, 0, 0)),
    # function_definition x2, return_statement x2, function_call |
    # star_args_parameter, kw_args_parameter | closure
    ("def wrap{n}(fn):\n    def inner(*args, **kwargs):\n        return fn(*args)\n    return inner\n",
     (5, 0, 2, 0, 1, 0)),
    # function_definition, return_statement | async_function, await_expression
    ("async def io{n}(x):\n    return await x\n", (2, 0, 0, 0, 0, 2)),
    # simple_assignment, function_call x2, arithmetic_expression | generator_expression
    ("result{n} = sorted(x * 2 for x in range(10))\n", (4, 0, 0, 1, 0, 0)),
    # function_call | try_except, raise_statement
    ("try:\n    check{n}()\nexcept ValueError:\n    raise\n", (1, 0, 2, 0, 0, 0)),
    # function_call x2, simple_assignment | with_statement
    ("with open('f{n}') as fh:\n    data{n} = fh.read()\n", (3, 0, 1, 0, 0, 0)),
    # if_statement, simple_assignment x2 | else_clause
    ("if flag{n}:\n    total{n} = 0\nelse:\n    total{n} = 1\n", (3, 1, 0, 0, 0, 0)),
]
IMPORT_LINE: tuple[str, Vector] = ("import base{n}\n", (1, 0, 0, 0, 0, 0))  # import_statement

ZERO: Vector = (0, 0, 0, 0, 0, 0)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))  # type: ignore[return-value]


@dataclass(frozen=True)
class Blob:
    """One file version: its bytes and, when known, its expected vector."""

    data: bytes
    vector: Vector | None = None
    parse_ok: bool = True


@dataclass(frozen=True)
class Change:
    path: str
    before: Blob | None  # None: the file did not exist before the commit
    after: Blob | None  # None: the commit deletes the file

    @property
    def is_noop(self) -> bool:
        """A rewrite to identical bytes, which git does not record as a change."""
        return self.before is not None and self.after is not None and self.before.data == self.after.data


@dataclass
class Commit:
    name: str
    email: str
    timestamp: int
    changes: list[Change]


@dataclass
class Plan:
    workload: str
    commits: list[Commit]
    jobs: int
    period: str = "yearly"
    top_n: int = 10
    # files written to disk for the stdlib check: repository path -> disk path
    disk_files: dict[str, Path] = field(default_factory=dict)


def _compose(rng: random.Random, parts: list[tuple[str, Vector]]) -> Blob:
    """Join formatted templates with blank lines, summing their labels."""
    texts = []
    vector = ZERO
    for template, label in parts:
        texts.append(template.format(n=rng.randrange(10000)))
        vector = vec_add(vector, label)
    return Blob("\n".join(texts).encode("utf-8"), vector)


def _utc(year: int, month: int, day: int, hour: int = 12) -> int:
    return calendar.timegm((year, month, day, hour, 0, 0))


# -- churn -------------------------------------------------------------

CHURN_AUTHORS = [
    ("Alice Dev", "alice@example.com"),
    ("Bob Coder", "bob@example.com"),
    ("Carla Maintainer", "carla@example.com"),
    ("Dana Drive-by", "dana@example.com"),
]


def _churn_body(rng: random.Random, blocks: int) -> Blob:
    # the same draws, in the same order, as the test suite's _file_body
    texts = [IMPORT_LINE[0].format(n=rng.randrange(5))]
    vector = IMPORT_LINE[1]
    for _ in range(blocks):
        template, label = rng.choice(SNIPPETS)
        texts.append(template.format(n=rng.randrange(10000)))
        vector = vec_add(vector, label)
    return Blob("\n".join(texts).encode("utf-8"), vector)


def churn_plan(seed: int) -> Plan:
    """The `big_repo` generator: 500 commits each rewriting 1-3 of 12 modules.

    Seed 20240501 reproduces the test suite's fixture exactly.
    """
    rng = random.Random(seed)
    paths = [f"pkg/mod_{i}.py" for i in range(12)]
    for _ in paths:  # the fixture draws an initial body it never commits
        _churn_body(rng, 20)
    current: dict[str, Blob] = {}
    commits = []
    base_ts = 1420108800  # 2015-01-01T12:00:00Z
    for i in range(500):
        touched = rng.sample(paths, rng.choice([1, 1, 2, 3]))
        changes = []
        for path in touched:
            after = _churn_body(rng, rng.randrange(14, 26))
            changes.append(Change(path, current.get(path), after))
            current[path] = after
        name, email = CHURN_AUTHORS[rng.randrange(len(CHURN_AUTHORS))]
        commits.append(Commit(name, email, base_ts + i * 86400 * 5, changes))
    return Plan("churn", commits, jobs=1)


# -- wide --------------------------------------------------------------

WIDE_COMMITS = 20_000
WIDE_PEOPLE = [(f"Dev {i:03d}", f"dev{i:03d}@example.org") for i in range(400)]
WIDE_BOTS = [(f"ci-{k}[bot]", f"ci-{k}@bots.example.org") for k in range(4)]
WIDE_START = _utc(2000, 1, 1, 0)
WIDE_END = _utc(2025, 1, 1, 0)
ODD_IDENTITY = ("Odd Paths", "odd.paths@example.org")

# The only commits that touch files whose names git C-quotes (a '"' or a
# tab) or that hold a non-ASCII character.  They do not depend on the
# seed: (date, path, templates appended to the file).
ODD_COMMITS = [
    ((2002, 3, 15), 'odd/we"ird.py', [0]),
    ((2006, 7, 15), "odd/tab\there.py", [3]),
    ((2009, 1, 15), "odd/na\u00efve.py", [9]),
    ((2013, 5, 15), 'odd/we"ird.py', [7]),
    ((2018, 9, 15), "odd/tab\there.py", [8]),
    ((2022, 11, 15), "odd/na\u00efve.py", [0]),
]


def git_quotes(path: str) -> bool:
    """True when git writes the path C-quoted even with core.quotepath=off."""
    return any(ch in '"\\' or ord(ch) < 0x20 or ord(ch) == 0x7F for ch in path)


def _odd_commits() -> list[Commit]:
    current: dict[str, Blob] = {}
    commits = []
    for (year, month, day), path, picks in ODD_COMMITS:
        before = current.get(path)
        texts = [before.data.decode("utf-8")] if before else []
        vector = before.vector if before else ZERO
        for k in picks:
            template, label = SNIPPETS[k]
            texts.append(template.format(n=k))
            vector = vec_add(vector, label)
        after = Blob("\n".join(texts).encode("utf-8"), vector)
        current[path] = after
        commits.append(Commit(*ODD_IDENTITY, _utc(year, month, day), [Change(path, before, after)]))
    return commits


def _note(rng: random.Random) -> Blob:
    lines = [f"note {rng.randrange(10**9)} {rng.randrange(10**9)}\n" for _ in range(rng.randrange(1, 4))]
    return Blob("".join(lines).encode("ascii"))


class _Live:
    """Live files of one kind, with O(1) seeded choice and removal."""

    def __init__(self) -> None:
        self.paths: list[str] = []
        self.blobs: dict[str, Blob] = {}

    def __len__(self) -> int:
        return len(self.paths)

    def put(self, path: str, blob: Blob) -> None:
        if path not in self.blobs:
            self.paths.append(path)
        self.blobs[path] = blob

    def pop(self, rng: random.Random) -> tuple[str, Blob]:
        index = rng.randrange(len(self.paths))
        self.paths[index], self.paths[-1] = self.paths[-1], self.paths[index]
        path = self.paths.pop()
        return path, self.blobs.pop(path)


def wide_plan(seed: int) -> Plan:
    """20,000 commits by 400 people and 4 bots over 25 years.

    About three commits in four touch only Markdown files; the rest add,
    rewrite or delete tiny `.py` files.  Every identity commits and every
    month has commits, whatever the seed, so the report always has the same
    rows.  A commit only adds, only modifies or only deletes, so that git
    never pairs a deletion with an addition as a rename.
    """
    rng = random.Random(seed)
    authors = WIDE_PEOPLE + WIDE_BOTS
    authors += [rng.choice(WIDE_BOTS) if rng.random() < 0.05 else rng.choice(WIDE_PEOPLE)
                for _ in range(WIDE_COMMITS - len(authors))]
    rng.shuffle(authors)

    slot = (WIDE_END - WIDE_START) // WIDE_COMMITS
    py, md = _Live(), _Live()
    serial = 0
    commits = []
    for i, (name, email) in enumerate(authors):
        timestamp = WIDE_START + i * slot + rng.randrange(slot)
        changes = []
        roll = rng.random()
        if roll < 0.74:
            if roll < 0.06 or len(md) < 20:
                serial += 1
                path = f"docs/n{serial % 40}/d{serial}.md"
                changes.append(Change(path, None, _note(rng)))
                md.put(path, changes[-1].after)
            elif roll < 0.08:
                path, before = md.pop(rng)
                changes.append(Change(path, before, None))
            else:
                for path in rng.sample(md.paths, rng.randrange(1, 4)):
                    changes.append(Change(path, md.blobs[path], _note(rng)))
                    md.put(path, changes[-1].after)
        elif roll < 0.86 or len(py) < 30:
            for _ in range(rng.randrange(1, 3)):
                serial += 1
                path = f"src/p{serial % 16}/q{serial % 13}/m{serial}.py"
                changes.append(Change(path, None, _compose(rng, [rng.choice(SNIPPETS)])))
                py.put(path, changes[-1].after)
        elif roll < 0.96:
            path = rng.choice(py.paths)
            after = _compose(rng, [rng.choice(SNIPPETS) for _ in range(rng.randrange(1, 3))])
            changes.append(Change(path, py.blobs[path], after))
            py.put(path, after)
        else:
            path, before = py.pop(rng)
            changes.append(Change(path, before, None))
        commits.append(Commit(name, email, timestamp, changes))

    commits += _odd_commits()
    commits.sort(key=lambda c: c.timestamp)
    return Plan("wide", commits, jobs=1, period="monthly", top_n=1000)


# -- stdlib_import -----------------------------------------------------

STDLIB_TARGET_BYTES = 2_500_000
STDLIB_MAX_FILE = 50_000
STDLIB_COMMITS = 64
STDLIB_AUTHORS = [
    ("Ada Core", "ada@example.net"),
    ("Ben Tests", "ben@example.net"),
    ("Cy Tools", "cy@example.net"),
    ("Di Docs", "di@example.net"),
    ("Eve Ports", "eve@example.net"),
    ("release[bot]", "release-bot@example.net"),
]


def stdlib_files() -> list[tuple[str, Path]]:
    """Every `.py` file of the running interpreter's stdlib up to the size cap,
    sorted by relative path; installed packages are left out."""
    root = Path(sysconfig.get_paths()["stdlib"])
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if d not in ("site-packages", "dist-packages", "__pycache__"))
        for filename in filenames:
            path = Path(dirpath) / filename
            if filename.endswith(".py") and path.stat().st_size <= STDLIB_MAX_FILE:
                found.append((path.relative_to(root).as_posix(), path))
    return sorted(found)


def stdlib_plan(seed: int, jobs: int, files_dir: Path) -> Plan:
    """A seeded draw of about 2.5 MB of stdlib files, added over 64 commits.

    The draw ignores encoding and syntax, so files the grammar rejects stay
    in.  The drawn files are copied under `files_dir`, where the checker
    classifies them.  Vectors are left unknown here.
    """
    rng = random.Random(seed)
    pool = stdlib_files()
    rng.shuffle(pool)
    drawn = []
    total = 0
    for rel, path in pool:
        if total >= STDLIB_TARGET_BYTES:
            break
        data = path.read_bytes()
        drawn.append((rel, data))
        total += len(data)

    disk_files = {}
    for rel, data in drawn:
        target = files_dir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
        disk_files[rel] = target
    commits = []
    timestamp = _utc(2021, 1, 4)
    for k in range(STDLIB_COMMITS):
        batch = drawn[k * len(drawn) // STDLIB_COMMITS:(k + 1) * len(drawn) // STDLIB_COMMITS]
        timestamp += rng.randrange(3 * 3600, 15 * 86400)
        commits.append(Commit(*rng.choice(STDLIB_AUTHORS), timestamp,
                              [Change(rel, None, Blob(data)) for rel, data in batch]))
    return Plan("stdlib_import", commits, jobs=jobs, disk_files=disk_files)


# -- repository writer -------------------------------------------------


def _fast_import_path(path: str) -> bytes:
    if not git_quotes(path):
        return path.encode("utf-8")
    escaped = path.replace("\\", "\\\\").replace('"', '\\"').replace("\t", "\\t").replace("\n", "\\n")
    return b'"' + escaped.encode("utf-8") + b'"'


def write_repository(plan: Plan, repo: Path, env: dict[str, str]) -> None:
    """Create a bare repository at `repo` holding the plan's history on main."""
    subprocess.run(["git", "init", "-q", "--bare", "-b", "main", str(repo)],
                   check=True, env=env, capture_output=True)
    chunks: list[bytes] = []
    for mark, commit in enumerate(plan.commits, start=1):
        ident = f"{commit.name} <{commit.email}> {commit.timestamp} +0000".encode("utf-8")
        message = f"change {mark}\n".encode("ascii")
        chunks.append(b"commit refs/heads/main\nmark :%d\nauthor %s\ncommitter %s\ndata %d\n%s"
                      % (mark, ident, ident, len(message), message))
        if mark > 1:
            chunks.append(b"from :%d\n" % (mark - 1))
        for change in commit.changes:
            path = _fast_import_path(change.path)
            if change.after is None:
                chunks.append(b"D %s\n" % path)
            else:
                data = change.after.data
                chunks.append(b"M 100644 inline %s\ndata %d\n%s\n" % (path, len(data), data))
        chunks.append(b"\n")
    subprocess.run(["git", "-C", str(repo), "fast-import", "--quiet"],
                   input=b"".join(chunks), check=True, env=env, capture_output=True)


def source_bytes(plan: Plan) -> int:
    """Bytes of `.py` text the run must classify: both sides of every change."""
    total = 0
    for commit in plan.commits:
        for change in commit.changes:
            if change.path.endswith(".py") and not change.is_noop:
                for side in (change.before, change.after):
                    if side is not None:
                        total += len(side.data)
    return total


def make_plan(workload: str, seed: int, jobs: int, files_dir: Path) -> Plan:
    if workload == "churn":
        return churn_plan(seed)
    if workload == "wide":
        return wide_plan(seed)
    return stdlib_plan(seed, jobs, files_dir)
