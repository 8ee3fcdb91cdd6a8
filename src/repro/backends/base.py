"""Execution-backend abstraction: Protocol, registry, dialects, artifacts.

A backend is anything that can take SQL and produce rows:

* **native profiles** (:class:`Backend`) run on the in-process NumPy engine
  under a particular :class:`~repro.sqlengine.EngineConfig` + SQL dialect —
  ``native`` is the plain engine, while ``duckdb``/``hyper``/``lingodb``
  are the *simulated* system profiles used for the paper's figures;
* **oracle backends** (``sqlite``, optional ``duckdb_real``) are genuinely
  independent engines used for cross-backend differential testing and
  honest comparisons.

Every registered backend implements the :class:`ExecutionBackend` Protocol
(the shape of Kontra's ``ValidationBackend``):

* ``supports(caps) -> bool`` — capability gating ("window", "oracle", ...);
* ``compile(sql) -> CompiledQuery`` — dialect adaptation / preparation;
* ``execute(db, artifact, params) -> ResultTable`` — run against the data
  registered in a :class:`~repro.sqlengine.Database` catalog;
* ``introspect() -> BackendInfo`` — observability (version, availability).

The registry (:func:`register_backend` / :func:`get_backend` /
:func:`available_backends`) is how the decorator, the bench harness, and
the fuzzer select backends; lookups of unknown names raise a typed
:class:`~repro.errors.BackendError` naming the available backends.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..errors import BackendError
from ..sqlengine.executor import EngineConfig
from .rows import chunk_rows, normalize_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Callable, Iterable

    from ..dataframe import DataFrame

__all__ = [
    "Dialect", "BackendInfo", "CompiledQuery", "ResultTable",
    "ExecutionBackend", "Backend", "register_backend", "get_backend",
    "available_backends", "backend_infos", "rewrite_sql",
]


@dataclass(frozen=True)
class Dialect:
    """Surface-syntax templates consumed by the SQL code generator and by
    :func:`rewrite_sql`.

    These templates are the *single source of truth* for how each backend
    spells the portable function vocabulary — the differential harness
    derives its dialect rewriting from them instead of keeping a duplicate
    set of hand-written rules that could drift (sqlite's ``STRFTIME(fmt,
    arg)`` argument order lives only in :data:`~.sqlite.SQLITE_DIALECT`).
    """

    name: str = "standard"
    # How to spell "extract the year of a date column".
    year_function: str = "EXTRACT(YEAR FROM {arg})"
    # How to spell substring extraction (1-based start, length).
    substring_function: str = "SUBSTR({arg}, {start}, {length})"
    # strftime-style date formatting.
    strftime_function: str = "STRFTIME({arg}, {fmt})"
    # How to spell a date literal ({lit} is the quoted ISO string).
    date_literal: str = "DATE {lit}"


# ---------------------------------------------------------------------------
# Dialect rewriting (engine-standard SQL -> a target dialect)
# ---------------------------------------------------------------------------

def _split_call(sql: str, start: int) -> tuple[list[str], int]:
    """Split the argument list of a call whose ``(`` is at ``start - 1``:
    returns (top-level comma-separated args, index just past the ``)``)."""
    depth = 1
    args: list[str] = []
    piece_start = start
    j = start
    while j < len(sql) and depth:
        ch = sql[j]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                args.append(sql[piece_start:j].strip())
        elif ch == "," and depth == 1:
            args.append(sql[piece_start:j].strip())
            piece_start = j + 1
        j += 1
    return args, j


def _rewrite_calls(sql: str, pattern: re.Pattern,
                   render: "Callable[[list[str]], str | None]") -> str:
    """Replace every call matched by *pattern* (which must end at the
    opening paren) with ``render(args)``; ``render`` returning None keeps
    the original text.  Replacements are never re-scanned, so a target
    template may legitimately spell the same function with different
    argument order."""
    out = []
    i = 0
    while True:
        m = pattern.search(sql, i)
        if m is None:
            out.append(sql[i:])
            break
        args, end = _split_call(sql, m.end())
        rendered = render(args)
        out.append(sql[i:m.start()])
        out.append(sql[m.start():end] if rendered is None else rendered)
        i = end
    return "".join(out)


_DATE_LITERAL = re.compile(r"\bDATE\s+('(?:[^'])*')")
_STRFTIME_CALL = re.compile(r"\b(?:STRFTIME|TO_CHAR)\s*\(", re.IGNORECASE)
_SUBSTRING_CALL = re.compile(r"\bSUBSTR(?:ING)?\s*\(", re.IGNORECASE)
_EXTRACT_YEAR = re.compile(r"\bEXTRACT\s*\(\s*YEAR\s+FROM\s+", re.IGNORECASE)


def rewrite_sql(sql: str, target: Dialect) -> str:
    """Rewrite engine-standard SQL into *target*'s dialect.

    The input must use the engine's generation conventions — ``DATE 'x'``
    literals and ``{arg}``-first argument order for ``STRFTIME``/``TO_CHAR``
    (every native dialect generates that shape).  Each construct is
    re-rendered through the target dialect's template, so argument-order
    differences (e.g. sqlite's format-first ``STRFTIME``) are expressed
    exactly once, in the :class:`Dialect`.
    """
    out = _DATE_LITERAL.sub(lambda m: target.date_literal.format(lit=m.group(1)),
                            sql)
    # Date-format calls BEFORE EXTRACT(YEAR...): a year template may expand
    # to an already-target-ordered STRFTIME call, which must not be
    # re-rewritten (replacements are skipped within a pass, not across).
    out = _rewrite_calls(
        out, _STRFTIME_CALL,
        lambda args: target.strftime_function.format(arg=args[0], fmt=args[1])
        if len(args) == 2 else None,
    )
    out = _rewrite_calls(
        out, _EXTRACT_YEAR,
        # EXTRACT(YEAR FROM x) splits as a single pseudo-argument.
        lambda args: target.year_function.format(arg=args[0])
        if len(args) == 1 else None,
    )
    out = _rewrite_calls(
        out, _SUBSTRING_CALL,
        lambda args: target.substring_function.format(
            arg=args[0], start=args[1], length=args[2])
        if len(args) == 3 else None,
    )
    return out


# ---------------------------------------------------------------------------
# Artifacts and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledQuery:
    """A backend-specific compile artifact: the SQL text the backend will
    actually execute (already in its dialect), plus the owning backend's
    name for error reporting."""

    backend: str
    sql: str


@dataclass(frozen=True)
class BackendInfo:
    """Introspection snapshot of one registered backend."""

    name: str
    kind: str                    # "native" | "simulated-profile" | "oracle"
    version: str
    available: bool
    capabilities: tuple[str, ...]
    description: str = ""


_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


@dataclass
class ResultTable:
    """Backend-independent query result: named columns over row tuples."""

    columns: list[str]
    rows: list[tuple]

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def normalized(self) -> list[tuple]:
        """Rows in the canonical cross-backend comparison form."""
        return normalize_rows(self.rows)

    def to_dataframe(self) -> "DataFrame":
        """Materialize as a :class:`~repro.dataframe.DataFrame`, recovering
        int64/float64/datetime64 dtypes where the column values allow."""
        from ..dataframe import DataFrame

        data = {}
        for idx, col in enumerate(self.columns):
            values = [row[idx] for row in self.rows]
            out_name, n = col, 1
            while out_name in data:
                out_name = f"{col}_{n}"
                n += 1
            data[out_name] = _column_array(values)
        return DataFrame(data)


def _column_array(values: list) -> np.ndarray:
    present = [v for v in values if v is not None]
    if present and all(isinstance(v, bool) for v in present):
        pass  # fall through to the object path: NULLs have no bool dtype
    elif present and all(isinstance(v, int) and not isinstance(v, bool)
                         for v in present):
        if len(present) == len(values):
            return np.array(values, dtype=np.int64)
        return np.array([np.nan if v is None else float(v) for v in values])
    elif present and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                         for v in present):
        return np.array([np.nan if v is None else float(v) for v in values])
    elif present and all(isinstance(v, str) and _ISO_DATE.match(v)
                         for v in present):
        return np.array([np.datetime64("NaT") if v is None else np.datetime64(v)
                         for v in values], dtype="datetime64[D]")
    return np.array(values, dtype=object)


# ---------------------------------------------------------------------------
# The Protocol
# ---------------------------------------------------------------------------

@runtime_checkable
class ExecutionBackend(Protocol):
    """Minimal interface every registered backend implements.

    ``db`` in :meth:`execute` is the :class:`~repro.sqlengine.Database`
    whose catalog holds the source tables — native backends run against it
    directly, oracle backends mirror its tables into their own engine
    (cached per catalog version).
    """

    name: str
    dialect: Dialect

    def supports(self, caps: "Iterable[str]") -> bool:
        """True when every capability string in *caps* is provided."""
        ...

    def compile(self, sql: str, dialect: str = "standard") -> CompiledQuery:
        """Prepare an execution artifact from *sql*.  ``dialect`` names the
        dialect the text is already written in; backends rewrite only when
        it differs from their own."""
        ...

    def execute(self, db: object, artifact: CompiledQuery,
                params: object = None) -> ResultTable:
        """Run a compiled artifact against *db*'s data."""
        ...

    def introspect(self) -> BackendInfo:
        """Best-effort observability snapshot (version, availability)."""
        ...


# ---------------------------------------------------------------------------
# Native-engine backends (the default profile and the simulated systems)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Backend:
    """A named native-engine backend: execution profile + dialect.

    Implements :class:`ExecutionBackend` by compiling/executing on the
    in-process NumPy engine under its own :class:`EngineConfig`; the
    simulated paper profiles (``duckdb``/``hyper``/``lingodb``) are
    instances with ``kind="simulated-profile"``.
    """

    name: str
    engine_config: EngineConfig
    dialect: Dialect
    # Feature restrictions mirroring the paper's exclusions.
    rejects: frozenset = frozenset()
    kind: str = "native"
    description: str = ""

    def config(self, threads: int = 1) -> EngineConfig:
        return replace(self.engine_config, threads=threads)

    # -- ExecutionBackend ---------------------------------------------------
    @property
    def capabilities(self) -> frozenset:
        caps = {"select", "join", "aggregate", "setops", "subqueries",
                "params", "parallel", "explain", "plan-cache",
                # Storage features: every native profile runs on the engine,
                # which can attach column-store tables, prune scans with
                # zone maps, and spill joins/aggregates under memory_budget.
                "storage", "zone-map-pruning", "spill-to-disk"}
        if self.engine_config.supports_window:
            caps.add("window")
        return frozenset(caps)

    def supports(self, caps: "Iterable[str]") -> bool:
        return set(caps) <= self.capabilities

    def compile(self, sql: str, dialect: str = "standard") -> CompiledQuery:
        # The engine parses every native dialect's spellings directly.
        return CompiledQuery(backend=self.name, sql=sql)

    def execute(self, db: object, artifact: CompiledQuery,
                params: object = None, threads: int = 1) -> ResultTable:
        chunk = db.execute_chunk(artifact.sql, self.config(threads=threads),
                                 params)
        return ResultTable(columns=list(chunk.columns),
                           rows=chunk_rows(chunk))

    def introspect(self) -> BackendInfo:
        from .. import __version__

        return BackendInfo(
            name=self.name, kind=self.kind, version=__version__,
            available=True, capabilities=tuple(sorted(self.capabilities)),
            description=self.description,
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ExecutionBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def available_backends() -> list[str]:
    return sorted(_REGISTRY)


def backend_infos() -> list[BackendInfo]:
    """Introspection for every registered backend, sorted by name."""
    return [_REGISTRY[name].introspect() for name in available_backends()]
