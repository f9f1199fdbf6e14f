"""The analysis store: each blob's analysis, kept from one run to the next.

A blob id names the blob's bytes, so a blob's analysis (scoring's stored
form: its per-kind counts, or why it has none) depends only on the id, the
code that analyzed it and the interpreter that ran that code.  The store
keeps those analyses by blob id in one ``sqlite3`` file per interpreter and
code fingerprint under ``<cache root>/analysis/``.  The fingerprint hashes
the source of ``analyzer.py`` (`CODE`), which makes every stored form, read
by path without importing it, the stored form's own key and the store's
schema, so a file that other code wrote has another name and is never read.

The same file keeps the cells of each history it was asked to keep, one
row per contributor under the history's tip and `cells_key`, each with a
SHA-256 digest of the row and the tip's number of rows, which is checked
before any of the tip's cells is used.  The key hashes the cell layout and
the source of the code that walks the history and folds it into cells
(`CELLS_CODE`: ``history.py``, ``catalog.py``, ``store.py`` and
``walk.py``), so an edit to the command line, to `scoring.finish` or to the
reports changes neither the file's name nor the key.  This module alone
decides whether a history uses the store, and under which key: a history
that replace refs or grafts rewrite gets a store without a file, which does
nothing.

Nothing read from the store is trusted.  A store that cannot be opened, read
or written, a file that is no store, a row that is no stored form, cells
whose digest is wrong and a lock held too long each cost one warning, and
the run goes on: a file that is no store is moved aside for a new one,
damaged cells are made again from the history, and otherwise the run does
without the store.  So a report never depends on the store.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import sqlite3
import sys
from array import array
from pathlib import Path

from . import history, scoring
from .catalog import KINDS, Catalog
from .history import ContributorId, Repo, cache_root
from .scoring import Cells, Stored, is_stored

log = logging.getLogger(__name__)

#: Seconds a run waits for another run's lock on the store.
BUSY_TIMEOUT_S = 30.0
SCHEMA = (
    "CREATE TABLE blobs (oid TEXT PRIMARY KEY, analysis) WITHOUT ROWID",
    "CREATE TABLE cells (key TEXT, tip TEXT, anon_id BLOB, name BLOB, email BLOB, cells BLOB, digest TEXT, "
    "PRIMARY KEY (key, tip, anon_id)) WITHOUT ROWID",
)
#: The source files whose code makes a stored form.
CODE = (Path(__file__).with_name("analyzer.py"),)
#: The source files whose code makes a history's cells: the repository, the catalog, the encoding, the walk.
CELLS_CODE = tuple(Path(__file__).with_name(name) for name in ("history.py", "catalog.py", "store.py", "walk.py"))


def store_path() -> Path:
    """The store file of this interpreter and this code.

    Raises OSError when a source file cannot be read, and RuntimeError when
    there is no cache root.
    """
    digest = hashlib.sha256("\n".join((scoring.STORED_FORM_KEY, *SCHEMA)).encode("utf-8"))
    for path in CODE:
        digest.update(path.read_bytes())
    name = f"{sys.implementation.cache_tag}-{digest.hexdigest()[:16]}.sqlite3"
    return cache_root() / "analysis" / name


def cells_key(identity: str, catalog: Catalog) -> str:
    """What a tip's cells depend on besides the tip and the store file's own
    code: the identity mode, git's version, the catalog's level of each kind
    the analyzer emits, the cell layout and the code that walks the history
    and folds analyses into cells."""
    levels = [catalog.levels.get(kind) for kind in KINDS]  # all that `level_counter` reads
    digest = hashlib.sha256(f"{identity} {levels} {scoring.CELL}".encode("utf-8"))
    digest.update(history._run_git("--version").stdout.encode("utf-8"))
    for path in CELLS_CODE:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _digest(rows: int, row: tuple[bytes, ...]) -> str:
    """The SHA-256 digest of one contributor's `row` of bytes fields among a tip's `rows` rows of cells."""
    return hashlib.sha256(repr([rows, *map(len, row)]).encode("ascii") + b"".join(row)).hexdigest()


def _set_aside(path: Path) -> Path:
    """Rename the file at `path` out of the way, so that a new store can take its place."""
    aside = path.with_name(f"{path.name}.{os.getpid()}.bad")
    path.rename(aside)
    return aside


def _connect(path: Path) -> sqlite3.Connection:
    """A connection to the store at `path`, made if the file is new or empty.

    Raises sqlite3.DatabaseError when the file holds anything but the store's
    tables.
    """
    # autocommit: a lookup holds its read lock only while it runs
    connection = sqlite3.connect(path, timeout=BUSY_TIMEOUT_S, isolation_level=None)
    query = "SELECT sql FROM sqlite_master ORDER BY name"
    try:
        schema = [sql for (sql,) in connection.execute(query)]
        if not schema:
            with connection:
                connection.execute("BEGIN IMMEDIATE")
                for table in SCHEMA:
                    # another run may make it first; sqlite keeps the statement without IF NOT EXISTS
                    connection.execute(table.replace("CREATE TABLE", "CREATE TABLE IF NOT EXISTS"))
            schema = [sql for (sql,) in connection.execute(query)]
        if schema != list(SCHEMA):
            raise sqlite3.DatabaseError(f"foreign schema {schema!r}")
    except BaseException:
        connection.close()
        raise
    return connection


class AnalysisStore:
    """An open store: looks up the stored forms of blob ids, and keeps a
    walk's new ones and the history's cells in one write.  Without a file it
    does nothing, and after its first failure it warns once and does nothing more."""

    def __init__(self, path: Path | None = None, connection: sqlite3.Connection | None = None, at=("", "")):
        self.path = path
        self._connection = connection
        self._at = at  # the key and the tip of the history's cells
        self._warned = False  # of a row that is no stored form

    @classmethod
    def open(cls, repo: Repo, identity: str, catalog: Catalog) -> "AnalysisStore":
        """The store of this code for the history of `repo` under `identity` and
        `catalog`: one without a file when replace refs or grafts rewrite `repo`
        and, after one warning, when there can be none.  Raises RepoError when
        `repo` has no commit."""
        if repo.rewritten:
            return cls()
        try:
            path = store_path()
            path.parent.mkdir(parents=True, exist_ok=True)
            at = (cells_key(identity, catalog), repo.tip)  # the tip's RepoError before any connection
            return cls(path, _connect(path), at)
        except (OSError, RuntimeError) as exc:
            log.warning("running without the analysis store: %s", exc)
        except sqlite3.OperationalError as exc:  # unreadable, locked too long, ...
            log.warning("running without the analysis store %s: %s", path, exc)
        except sqlite3.DatabaseError as exc:  # no database, a damaged one, or another schema
            try:
                aside = _set_aside(path)
                store = cls(path, _connect(path), at)
            except (OSError, sqlite3.Error) as again:
                log.warning("running without the analysis store: %s is no store (%s), "
                            "and no new one can take its place: %s", path, exc, again)
            else:
                log.warning("%s was no analysis store (%s): moved it to %s and started a new one",
                            path, exc, aside.name)
                return store
        return cls()

    def _fail(self, exc: sqlite3.Error) -> None:
        log.warning("going on without the analysis store %s: %s", self.path, exc)
        self.close()
        if type(exc) is sqlite3.DatabaseError:  # damaged: the next run starts a new one
            with contextlib.suppress(OSError):
                _set_aside(self.path)

    def lookup(self, oids: list[str]) -> dict[str, Stored]:
        """The stored form of each of `oids` that the store holds, in one query:
        `oids` must stay below the sqlite build's bound on parameters (999 up
        to sqlite 3.32), as one walk batch of `walk._BATCH` ids does."""
        if self._connection is None:
            return {}
        # text comes back as its bytes, so text that is no UTF-8 is one
        # undecodable row rather than a failed query
        query = ("SELECT oid, CAST(analysis AS BLOB), typeof(analysis) = 'text' FROM blobs "
                 f"WHERE oid IN ({','.join('?' * len(oids))})")
        try:
            rows = self._connection.execute(query, oids).fetchall()
        except sqlite3.Error as exc:
            self._fail(exc)
            return {}
        found: dict[str, Stored] = {}
        for oid, value, text in rows:
            if text:
                value = value.decode("utf-8", errors="replace")
            if is_stored(value):
                found[oid] = value
            elif not self._warned:
                log.warning("the analysis store %s holds a row that is no analysis, for blob %s: "
                            "analyzing the blob again", self.path, oid)
                self._warned = True
        return found

    def cells(self) -> Cells | None:
        """The history's stored cells, once each row's digest is its own; None
        when there are none, and after one warning when they are damaged."""
        if self._connection is None:
            return None
        try:  # one statement, so that another run's write is never seen in part
            rows = self._connection.execute(
                "SELECT digest, CAST(anon_id AS BLOB), CAST(name AS BLOB), CAST(email AS BLOB), CAST(cells AS BLOB) "
                "FROM cells WHERE key = ? AND tip = ?", self._at).fetchall()
        except sqlite3.Error as exc:
            self._fail(exc)
            return None
        if all(None not in row and row[0] == _digest(len(rows), row[1:]) for row in rows):
            return {anon.decode(): (ContributorId(name.decode(), email.decode(), anon.decode()), array("q", cells))
                    for _, anon, name, email, cells in rows} or None  # no rows: none are stored
        log.warning("the analysis store %s holds damaged cells for %s: walking the history with git",
                    self.path, self._at[1])
        return None

    def keep(self, made: list[tuple[str, Stored | None]], cells: Cells) -> None:
        """Store in one transaction the (blob id, stored form) pairs of `made`
        that hold for any run, and, when all do, `cells` as the history's, in
        the place of any stored for it.  None, for an id that names no blob
        here, and a verdict in `scoring.PASSING` hold only for this run.  A row
        replaces the one the store holds for its blob: one that is no stored
        form, or, written by another run, the same stored form."""
        rows = [(oid, stored) for oid, stored in made if stored is not None and stored not in scoring.PASSING]
        people = None
        if len(rows) == len(made):  # every analysis holds for any run
            with contextlib.suppress(OverflowError):  # a commit dated past what an int64 holds: no cells are kept
                people = [(anon.encode(), who.raw_name.encode(), who.raw_email.encode(), array("q", ints).tobytes())
                          for anon, (who, ints) in cells.items()]
        if self._connection is None or not rows and people is None:  # nothing to write
            return
        try:
            with self._connection:  # commits, or rolls back on an exception
                self._connection.execute("BEGIN IMMEDIATE")
                self._connection.executemany("INSERT OR REPLACE INTO blobs VALUES (?, ?)", rows)
                if people is not None:
                    self._connection.execute("DELETE FROM cells WHERE key = ? AND tip = ?", self._at)
                    self._connection.executemany("INSERT INTO cells VALUES (?, ?, ?, ?, ?, ?, ?)",
                                                 [(*self._at, *row, _digest(len(people), row)) for row in people])
        except sqlite3.Error as exc:
            self._fail(exc)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
