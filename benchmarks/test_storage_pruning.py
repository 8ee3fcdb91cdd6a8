"""Acceptance benchmark for the storage tentpole (CI-gated):

* zone-map pruning achieves at least a 2x scan reduction (chunk files
  read) on a selective date-range query over shipdate-clustered lineitem;
* TPC-H Q1 and Q9 under a memory budget below the working set are
  bit-identical to the unconstrained in-memory execution at threads=1,
  with the spill events visible in the EXPLAIN timing trace.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import connect
from repro.bench.storage import store_tpch
from repro.sqlengine import EngineConfig
from repro.storage import ColumnStore
from repro.workloads.tpch import QUERIES, generate

from conftest import save_series

SF = float(os.environ.get("REPRO_TPCH_SF", "0.005"))
LOW_BUDGET = 8_192

PRUNE_SQL = ("SELECT COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem "
             "WHERE l_shipdate BETWEEN DATE '1994-01-01' "
             "AND DATE '1994-03-31'")


@pytest.fixture(scope="module")
def stored_db(tmp_path_factory):
    store = ColumnStore(tmp_path_factory.mktemp("prune-store"))
    store_tpch(store, generate(scale_factor=SF, seed=42), chunk_rows=1024)
    db = connect()
    store.attach(db)
    return db


def _scan_chunks(db, sql, config=None) -> int:
    table = db.catalog.get("lineitem")
    db.execute(sql, config=config)  # warm plan cache + sampling probe
    table.reset_io_stats()
    db.execute(sql, config=config)
    return table.io_stats["chunks_read"]


def test_zone_map_pruning_halves_scan_io(stored_db):
    pruned = _scan_chunks(stored_db, PRUNE_SQL)
    unpruned = _scan_chunks(stored_db, PRUNE_SQL,
                            EngineConfig(zone_map_pruning=False))
    save_series(
        "storage_pruning",
        f"zone-map pruning on shipdate range scan (SF={SF}): "
        f"{pruned} of {unpruned} chunks read "
        f"({unpruned / max(pruned, 1):.1f}x scan reduction)")
    assert pruned * 2 <= unpruned, \
        f"pruning read {pruned}/{unpruned} chunks, expected >= 2x reduction"
    # And the pruned scan returns the same answer.
    assert stored_db.execute(PRUNE_SQL).to_dict() == stored_db.execute(
        PRUNE_SQL, config=EngineConfig(zone_map_pruning=False)).to_dict()


@pytest.mark.parametrize("q", [1, 9])
def test_spilled_q1_q9_bit_identical(q, stored_db):
    sql = QUERIES[q].sql("duckdb", level="O4", db=stored_db)
    spill_cfg = EngineConfig(threads=1, memory_budget=LOW_BUDGET)
    base = stored_db.execute_chunk(sql, EngineConfig(threads=1))
    spilled = stored_db.execute_chunk(sql, spill_cfg)
    assert base.columns == spilled.columns
    for col, a, b in zip(base.columns, base.arrays, spilled.arrays):
        assert a.dtype == b.dtype, col
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), \
                f"q{q}.{col} not bit-identical under spill"
        else:
            assert list(a) == list(b), col
    trace = stored_db.explain_analyze(sql, spill_cfg)
    events = [ln.strip() for ln in trace.splitlines() if "spill:" in ln]
    assert events, f"q{q} never spilled under budget {LOW_BUDGET}"
    save_series(f"storage_spill_q{q}",
                f"tpch q{q} under budget={LOW_BUDGET} (SF={SF}): "
                f"bit-identical, {len(events)} spill event(s)\n  " +
                "\n  ".join(events))
