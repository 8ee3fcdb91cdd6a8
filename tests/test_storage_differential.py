"""Out-of-core differential suite: all 22 TPC-H queries vs the sqlite3
oracle, with every table loaded from the persistent column store and the
engine driven through three memory-budget scenarios:

* ``none``  — no budget: pure on-disk scan path (plus zone-map pruning);
* ``agg``   — 256 KiB: aggregate inputs exceed the budget and take the
  grace-partitioned spill path, join build sides still fit;
* ``low``   — 8 KiB: joins *and* aggregates spill.

Each scenario must agree row-for-row with an independent engine at
threads 1 and 4 — the safety net behind the storage tentpole: a spill or
pruning bug that changes results diverges from the oracle.
"""

from __future__ import annotations

import pytest

from repro import connect
from repro.bench.differential import assert_matches_backend
from repro.bench.storage import store_tpch
from repro.sqlengine import EngineConfig
from repro.storage import ColumnStore, open_store
from repro.workloads.tpch import QUERIES

# Budgets calibrated to the SF=0.002 dataset (lineitem ~12k rows, ~96 KiB
# per int64 column): AGG exceeds every join build side but not the wide
# aggregate inputs; LOW forces both operators to spill.
AGG_BUDGET = 262_144
LOW_BUDGET = 8_192
SCENARIOS = {"none": None, "agg": AGG_BUDGET, "low": LOW_BUDGET}


@pytest.fixture(scope="module")
def stored_db(tpch_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("tpch-store")
    store = ColumnStore(root)
    store_tpch(store, tpch_dataset, chunk_rows=2048)
    db = connect()
    open_store(root).attach(db)
    return db


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("q", sorted(QUERIES))
def test_tpch_from_store_matches_sqlite(q, scenario, threads, stored_db):
    sql = QUERIES[q].sql("duckdb", level="O4", db=stored_db)
    config = EngineConfig(threads=threads,
                          memory_budget=SCENARIOS[scenario])
    assert_matches_backend(
        stored_db, sql, backend="sqlite", config=config,
        context=f"tpch_q{q}[store,{scenario},threads={threads}]")


def test_agg_budget_actually_spills_q1(stored_db):
    """The ``agg`` scenario must exercise the aggregate spill path."""
    sql = QUERIES[1].sql("duckdb", level="O4", db=stored_db)
    trace = stored_db.explain_analyze(sql, EngineConfig(
        memory_budget=AGG_BUDGET))
    assert "spill: hash aggregate" in trace
    assert "spill: hash join" not in trace


def test_low_budget_actually_spills_q9_joins(stored_db):
    """The ``low`` scenario must exercise the join spill path."""
    sql = QUERIES[9].sql("duckdb", level="O4", db=stored_db)
    trace = stored_db.explain_analyze(sql, EngineConfig(
        memory_budget=LOW_BUDGET))
    assert "spill: hash join" in trace
    assert "spill: hash aggregate" in trace


@pytest.mark.parametrize("q", [1, 9])
def test_spilled_results_bit_identical(q, stored_db):
    """Q1/Q9 under a sub-working-set budget are *bit-identical* to the
    same tables executed fully in memory at threads=1: the grace join's
    canonical output order matches the integer fast path, and aggregate
    partitions preserve per-group row order, so float sums agree exactly
    (not merely to tolerance)."""
    sql = QUERIES[q].sql("duckdb", level="O4", db=stored_db)
    base = stored_db.execute_chunk(sql, EngineConfig(threads=1))
    spilled = stored_db.execute_chunk(
        sql, EngineConfig(threads=1, memory_budget=LOW_BUDGET))
    assert base.columns == spilled.columns
    for col, a, b in zip(base.columns, base.arrays, spilled.arrays):
        assert a.dtype == b.dtype, col
        if a.dtype.kind == "f":
            import numpy as np

            assert np.array_equal(a, b, equal_nan=True), col
        else:
            assert list(a) == list(b), col
