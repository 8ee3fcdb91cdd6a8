"""The sqlite3 oracle backend: a genuinely independent execution engine.

Promoted from ``bench/differential.py`` into a first-class registered
backend: ``compile`` rewrites engine-standard SQL into sqlite's dialect
(templates in :data:`SQLITE_DIALECT` — the single source of truth for
sqlite's ``STRFTIME(fmt, arg)`` argument order and bare date literals),
``execute`` mirrors the source :class:`~repro.sqlengine.Database` into an
in-memory sqlite3 database (cached per catalog version, so fuzz-scale
differential sweeps load the data once) and returns plain rows.

Because the stdlib ships sqlite3, this backend is always available — it is
the baseline oracle for the differential harness and the fuzzer.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING
import threading
import weakref

import numpy as np

from ..errors import BackendError
from .base import (
    BackendInfo, CompiledQuery, Dialect, ResultTable, register_backend,
    rewrite_sql,
)
from .rows import to_python_cell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Callable, Iterable

    from ..sqlengine.database import Database

__all__ = ["SQLITE_DIALECT", "SqliteBackend", "load_sqlite", "to_sqlite_sql"]


# sqlite3's spelling of the portable function vocabulary.  The differential
# harness derives every rewrite from these templates; there is no second
# copy of the argument-order rules anywhere.
SQLITE_DIALECT = Dialect(
    name="sqlite",
    year_function="CAST(STRFTIME('%Y', {arg}) AS INTEGER)",
    substring_function="SUBSTR({arg}, {start}, {length})",
    strftime_function="STRFTIME({fmt}, {arg})",  # format FIRST in sqlite
    date_literal="{lit}",                        # bare ISO strings compare fine
)


def to_sqlite_sql(sql: str) -> str:
    """Rewrite engine-standard SQL into sqlite's dialect (template-driven)."""
    return rewrite_sql(sql, SQLITE_DIALECT)


def _sqlite_type(dtype: np.dtype) -> str:
    kind = dtype.kind
    if kind in ("i", "u", "b"):
        return "INTEGER"
    if kind == "f":
        return "REAL"
    return "TEXT"  # strings and dates (ISO text compares/sorts correctly)


def load_sqlite(db: "Database") -> sqlite3.Connection:
    """Mirror every table of *db* into a fresh in-memory sqlite database."""
    conn = sqlite3.connect(":memory:", check_same_thread=False)
    for name in db.tables():
        table = db.catalog.get(name)
        decls = ", ".join(
            f'"{col}" {_sqlite_type(arr.dtype)}'
            for col, arr in zip(table.columns, table.arrays)
        )
        conn.execute(f'CREATE TABLE "{name}" ({decls})')
        placeholders = ", ".join("?" for _ in table.columns)
        rows = zip(*[[to_python_cell(v) for v in arr.tolist()]
                     if arr.dtype.kind != "M"
                     else [to_python_cell(v) for v in arr]
                     for arr in table.arrays])
        conn.executemany(f'INSERT INTO "{name}" VALUES ({placeholders})', rows)
    conn.commit()
    return conn


class _OracleMirrorCache:
    """Per-Database mirrored connections, invalidated on catalog changes.

    Keyed weakly on the Database so dropping a database releases its
    mirror; a catalog version bump (DDL) rebuilds it on next use.
    """

    def __init__(self, loader: "Callable[[Database], object]"):
        self._loader = loader
        self._mirrors = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def get(self, db: "Database") -> object:
        version = db.catalog.version
        with self._lock:
            cached = self._mirrors.get(db)
            if cached is not None and cached[0] == version:
                return cached[1]
        conn = self._loader(db)
        with self._lock:
            self._mirrors[db] = (version, conn)
        return conn


class SqliteBackend:
    """``ExecutionBackend`` over the stdlib ``sqlite3`` module."""

    name = "sqlite"
    kind = "oracle"
    dialect = SQLITE_DIALECT
    capabilities = frozenset({
        "select", "join", "aggregate", "setops", "subqueries", "window",
        "params", "oracle", "explain",
    })

    def __init__(self):
        self._cache = _OracleMirrorCache(load_sqlite)

    def supports(self, caps: "Iterable[str]") -> bool:
        return set(caps) <= self.capabilities

    def compile(self, sql: str, dialect: str = "standard") -> CompiledQuery:
        if dialect != self.dialect.name:
            sql = rewrite_sql(sql, self.dialect)
        return CompiledQuery(backend=self.name, sql=sql)

    def _bind_values(self, params: object) -> object:
        if params is None:
            return []
        if isinstance(params, dict):
            return {k: to_python_cell(v) for k, v in params.items()}
        return [to_python_cell(v) for v in params]

    def execute(self, db: "Database", artifact: CompiledQuery,
                params: object = None) -> ResultTable:
        conn = self._cache.get(db)
        try:
            cursor = conn.execute(artifact.sql, self._bind_values(params))
        except sqlite3.Error as exc:
            raise BackendError(f"sqlite: {exc}\nsql: {artifact.sql}") from exc
        columns = [d[0] for d in cursor.description or []]
        return ResultTable(columns=columns, rows=cursor.fetchall())

    def explain(self, db: "Database", artifact: CompiledQuery) -> str:
        conn = self._cache.get(db)
        rows = conn.execute("EXPLAIN QUERY PLAN " + artifact.sql).fetchall()
        return "\n".join(str(row[-1]) for row in rows)

    def introspect(self) -> BackendInfo:
        return BackendInfo(
            name=self.name, kind=self.kind, version=sqlite3.sqlite_version,
            available=True, capabilities=tuple(sorted(self.capabilities)),
            description="stdlib sqlite3 oracle (independent engine)",
        )


SqliteOracle = register_backend(SqliteBackend())
