"""The native-engine backend presets: one :class:`EngineConfig` plus one
:class:`Dialect` per registered name.

* ``native`` — the engine as itself (join re-ordering, morsel-parallel
  operators, plan caching) with the standard SQL dialect: what you want
  when you just want the fastest local execution.
* ``duckdb``/``hyper``/``lingodb`` — the paper's systems (PyTond's
  "Backend Adaptation", Section III-E) simulated on the same engine.  The
  planner difference is the one the paper uses to explain its results:
  DuckDB keeps the syntactic join order (why the TondIR-level
  optimizations help DuckDB more than Hyper — Section V-B), while Hyper and
  LingoDB re-order joins by estimated cardinality.  LingoDB carries the
  research prototype's stated restrictions (Section V): no SQL window
  functions (so UID generation, and therefore the Grizzly-simulated
  baseline, cannot run on it) and a join-processing limitation that
  rejects the plan generated for TPC-H Q12.
"""

from __future__ import annotations

from ..sqlengine.executor import EngineConfig
from .base import Backend, Dialect, register_backend

__all__ = ["NativeBackend", "DuckDBSim", "HyperSim", "LingoDBSim"]

NativeBackend = register_backend(
    Backend(
        name="native",
        engine_config=EngineConfig(name="native"),
        dialect=Dialect(),
        kind="native",
        description="in-process NumPy engine (default execution backend)",
    )
)

DuckDBSim = register_backend(
    Backend(
        name="duckdb",
        engine_config=EngineConfig(name="duckdb", join_reorder=False),
        dialect=Dialect(name="duckdb"),
        kind="simulated-profile",
        description="DuckDB execution paradigm simulated on the native engine",
    )
)

HyperSim = register_backend(
    Backend(
        name="hyper",
        engine_config=EngineConfig(name="hyper"),
        dialect=Dialect(
            name="hyper",
            substring_function="SUBSTRING({arg}, {start}, {length})",
            strftime_function="TO_CHAR({arg}, {fmt})",
        ),
        kind="simulated-profile",
        description="Hyper execution paradigm simulated on the native engine",
    )
)

LingoDBSim = register_backend(
    Backend(
        name="lingodb",
        engine_config=EngineConfig(name="lingodb", supports_window=False),
        dialect=Dialect(name="lingodb"),
        rejects=frozenset({"tpch_q12"}),
        kind="simulated-profile",
        description="LingoDB research prototype simulated on the native engine",
    )
)
