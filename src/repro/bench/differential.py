"""Differential testing harness: our engine vs independent oracle backends.

Historically this module owned the sqlite3 mirror loader, the dialect
rewrites, and the row-normalization helpers.  Those now live in
:mod:`repro.backends` (``SqliteBackend`` and friends) — the sqlite oracle is
a first-class registered backend, and the rewrites are derived from its
:class:`~repro.backends.Dialect` template so there is a single source of
truth for e.g. STRFTIME argument order.  This module keeps the
test-friendly assertion helpers.

Two entry points:

* :func:`assert_same_results` — the original connection-based API: caller
  owns a sqlite3 connection (from :func:`repro.backends.load_sqlite`) and
  we compare against it.
* :func:`assert_matches_backend` — the registry path: name any registered
  oracle backend (``sqlite``, ``duckdb_real``) and the comparison runs
  through its ``compile``/``execute`` Protocol methods, including mirror
  caching.
"""

from __future__ import annotations

import sqlite3

from ..backends import get_backend, to_sqlite_sql
from ..backends.rows import chunk_rows, normalize_rows, rows_equal
from ..sqlengine import Database

__all__ = ["run_differential", "rows_equal", "normalize_rows",
           "assert_same_results", "assert_matches_backend"]


def run_differential(db: Database, conn: sqlite3.Connection, sql: str,
                     config=None, oracle_sql: str | None = None
                     ) -> tuple[list[tuple], list[tuple]]:
    """Execute *sql* on both engines, returning normalized row lists.

    *oracle_sql*, when given, replaces the query run on sqlite (still
    dialect-rewritten).  Used for statements sqlite cannot express directly
    — e.g. ``INTERSECT ALL``/``EXCEPT ALL``, which the caller rewrites into
    an equivalent ROW_NUMBER-tagged DISTINCT set operation.
    """
    chunk = db.execute_chunk(sql, config)
    ours = normalize_rows(chunk_rows(chunk)) if chunk.ncols else []
    theirs = normalize_rows(conn.execute(to_sqlite_sql(oracle_sql or sql)).fetchall())
    return ours, theirs


def assert_same_results(db: Database, conn: sqlite3.Connection, sql: str,
                        config=None, context: str = "",
                        oracle_sql: str | None = None) -> None:
    ours, theirs = run_differential(db, conn, sql, config, oracle_sql=oracle_sql)
    ok, detail = rows_equal(ours, theirs)
    assert ok, (
        f"{context or 'query'} diverged from sqlite3: {detail}\n"
        f"sql: {sql}\nsqlite sql: {to_sqlite_sql(oracle_sql or sql)}\n"
        f"ours[:3]={ours[:3]}\ntheirs[:3]={theirs[:3]}"
    )


def assert_matches_backend(db: Database, sql: str, backend: str = "sqlite",
                           config=None, context: str = "",
                           oracle_sql: str | None = None) -> None:
    """Registry-path differential check: our engine vs a named oracle backend.

    The oracle backend compiles *sql* (dialect rewrite) and executes it
    against its own mirror of *db* (cached across calls, invalidated when
    the catalog version changes), so repeated assertions on one database
    don't re-load the data each time.
    """
    oracle = get_backend(backend)
    chunk = db.execute_chunk(sql, config)
    ours = normalize_rows(chunk_rows(chunk)) if chunk.ncols else []
    artifact = oracle.compile(oracle_sql or sql)
    theirs = oracle.execute(db, artifact).normalized()
    ok, detail = rows_equal(ours, theirs)
    assert ok, (
        f"{context or 'query'} diverged from backend {backend!r}: {detail}\n"
        f"sql: {sql}\noracle sql: {artifact.sql}\n"
        f"ours[:3]={ours[:3]}\ntheirs[:3]={theirs[:3]}"
    )
