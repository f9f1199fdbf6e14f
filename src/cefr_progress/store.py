"""The analysis store: each blob's analysis, kept from one run to the next.

A blob id names the blob's bytes, so a blob's analysis (scoring's stored
form: its per-kind counts, or why it has none) depends only on the id, the
code that analyzed it and the interpreter that ran that code.  The store
keeps those analyses by blob id in one ``sqlite3`` file per interpreter and
code fingerprint under ``<cache root>/analysis/``.  The fingerprint hashes
the source of ``analyzer.py`` and ``scoring.py``, the stored form's own key
and the store's schema, so a file that other code wrote has another name
and is never read.

The same file keeps history walks for `history.walk_history`: one per tip
and walk key, each with its SHA-256 digest, which is checked before any of
the walk is used.

Nothing read from the store is trusted.  A store that cannot be opened, read
or written, a file that is no store, a row that is no stored form, a walk
whose digest is wrong and a lock held too long each cost one
warning, and the run goes on: a file that is no store is moved aside for a
new one, a damaged walk is walked again with git, and otherwise the run does
without the store.  So a report never depends on the store.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import sqlite3
import sys
from pathlib import Path

from . import analyzer, scoring
from .history import cache_root
from .scoring import Stored, is_stored

log = logging.getLogger(__name__)

#: Seconds a run waits for another run's lock on the store.
BUSY_TIMEOUT_S = 30.0
#: Blob ids per lookup: far below any sqlite build's bound on parameters.
_LOOKUP = 500
SCHEMA = (
    "CREATE TABLE blobs (oid TEXT PRIMARY KEY, analysis) WITHOUT ROWID",
    "CREATE TABLE walks (key TEXT, tip TEXT, digest TEXT, walk BLOB, PRIMARY KEY (key, tip)) WITHOUT ROWID",
)


def store_path() -> Path:
    """The store file of this interpreter and this code.

    Raises OSError when a source file cannot be read, and RuntimeError when
    there is no cache root.
    """
    digest = hashlib.sha256("\n".join((scoring.STORED_FORM_KEY, *SCHEMA)).encode("utf-8"))
    for module in (analyzer, scoring):
        digest.update(Path(module.__file__).read_bytes())
    name = f"{sys.implementation.cache_tag}-{digest.hexdigest()[:16]}.sqlite3"
    return cache_root() / "analysis" / name


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
    """An open store: looks up the stored forms of blob ids, and adds new ones.

    After its first failure it warns once and does nothing more.
    """

    def __init__(self, path: Path, connection: sqlite3.Connection):
        self.path = path
        self._connection: sqlite3.Connection | None = connection
        self._warned = False  # of a row that is no stored form

    @classmethod
    def open(cls) -> "AnalysisStore | None":
        """The store of this interpreter and this code, or None, after one
        warning, when there can be none."""
        try:
            path = store_path()
            path.parent.mkdir(parents=True, exist_ok=True)
        except (OSError, RuntimeError) as exc:
            log.warning("running without the analysis store: %s", exc)
            return None
        try:
            return cls(path, _connect(path))
        except sqlite3.OperationalError as exc:  # unreadable, locked too long, ...
            log.warning("running without the analysis store %s: %s", path, exc)
            return None
        except sqlite3.DatabaseError as exc:  # no database, a damaged one, or another schema
            try:
                aside = _set_aside(path)
                store = cls(path, _connect(path))
            except (OSError, sqlite3.Error) as again:
                log.warning("running without the analysis store: %s is no store (%s), "
                            "and no new one can take its place: %s", path, exc, again)
                return None
            log.warning("%s was no analysis store (%s): moved it to %s and started a new one",
                        path, exc, aside.name)
            return store

    def _fail(self, exc: sqlite3.Error) -> None:
        log.warning("going on without the analysis store %s: %s", self.path, exc)
        self.close()
        if type(exc) is sqlite3.DatabaseError:  # damaged: the next run starts a new one
            with contextlib.suppress(OSError):
                _set_aside(self.path)

    def lookup(self, oids: list[str]) -> dict[str, Stored]:
        """The stored form of each of `oids` that the store holds."""
        found: dict[str, Stored] = {}
        for start in range(0, len(oids), _LOOKUP):
            if self._connection is None:
                break
            batch = oids[start:start + _LOOKUP]
            # text comes back as its bytes, so text that is no UTF-8 is one
            # undecodable row rather than a failed query
            query = ("SELECT oid, CAST(analysis AS BLOB), typeof(analysis) = 'text' FROM blobs "
                     f"WHERE oid IN ({','.join('?' * len(batch))})")
            try:
                rows = self._connection.execute(query, batch).fetchall()
            except sqlite3.Error as exc:
                self._fail(exc)
                break
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

    def add(self, rows: list[tuple[str, Stored]]) -> None:
        """Store the (blob id, stored form) `rows` in one transaction.

        A row replaces the one the store holds for its blob: one that is no
        stored form, or, written by another run, the same stored form.
        """
        connection = self._connection
        if connection is None or not rows:
            return
        try:
            with connection:  # commits, or rolls back on an exception
                connection.execute("BEGIN IMMEDIATE")
                connection.executemany("INSERT OR REPLACE INTO blobs VALUES (?, ?)", rows)
        except sqlite3.Error as exc:
            self._fail(exc)

    def walk(self, key: str, tip: str) -> bytes | None:
        """The walk stored under `key` for `tip`, once its digest is the walk's;
        None when there is none, and after one warning when it is damaged."""
        if self._connection is None:
            return None
        try:
            row = self._connection.execute(
                "SELECT digest, CAST(walk AS BLOB) FROM walks WHERE key = ? AND tip = ?", (key, tip)).fetchone()
        except sqlite3.Error as exc:
            self._fail(exc)
            return None
        if row is None:
            return None
        digest, walk = row
        if walk is not None and hashlib.sha256(walk).hexdigest() == digest:
            return walk
        log.warning("the analysis store %s holds a damaged walk for %s: walking the history with git",
                    self.path, tip)
        return None

    def keep_walk(self, key: str, tip: str, walk: bytes) -> None:
        """Store `walk` under `key` for `tip`, in the place of any walk stored there."""
        if self._connection is None:
            return
        try:
            self._connection.execute("INSERT OR REPLACE INTO walks VALUES (?, ?, ?, ?)",
                                     (key, tip, hashlib.sha256(walk).hexdigest(), walk))
        except sqlite3.Error as exc:
            self._fail(exc)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
