"""Adaptive-execution benchmark: estimate-feedback re-planning vs the
static plan on a deliberately mis-estimated skewed join.

The workload is built so the static planner *must* get the join order
wrong: the dimension filters are parameterized (``a_val = ?``), so the
planner's sampling probe cannot evaluate them and falls back to the
closed-form 10% equality heuristic.  Table ``a``'s filter actually keeps
~95% of its rows (est ~200, actual ~1900) while table ``b``'s keeps ~0.1%
(est ~2000, actual ~20) — the static order therefore builds a ~285k-row
intermediate before the selective join, where the adaptive order produces
a few hundred rows.  Adaptive execution observes the real cardinalities
after the source scans, re-plans the remaining joins, and must come out
>=1.5x faster end-to-end (the acceptance criterion for the adaptive
tentpole); row-level agreement between the two modes is always asserted
first, and the measured timings are written to ``adaptive_execution.json``
in the session's results directory (see ``conftest.py``) for the CI
artifact.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro import connect
from repro.sqlengine import EngineConfig
from repro.sqlengine.parallel import shutdown_pools
from repro.sqlengine.runtime_stats import RuntimeStats

from conftest import RESULTS_DIR

N_FACT = 300_000
N_A = 2_000
N_B = 20_000

SQL = ("SELECT SUM(f.v) AS s, COUNT(*) AS n FROM f, a, b "
       "WHERE f.a_k = a.a_k AND f.b_k = b.b_k "
       "AND a.a_val = ? AND b.b_val = ?")
PARAMS = (1, 7)


def _make_db():
    rng = np.random.default_rng(17)
    db = connect()
    db.register("f", {
        "a_k": rng.integers(0, N_A, N_FACT),
        "b_k": rng.integers(0, N_B, N_FACT),
        "v": np.round(rng.uniform(0.0, 10.0, N_FACT), 2),
    })
    # a_val = 1 on ~95% of rows: the 10% parameter-equality heuristic
    # under-estimates the filter output ~10x.
    a_val = np.ones(N_A, dtype=np.int64)
    a_val[rng.random(N_A) < 0.05] = 0
    db.register("a", {
        "a_k": np.arange(N_A, dtype=np.int64),
        "a_val": a_val,
    }, primary_key="a_k")
    # b_val = 7 on ~0.1% of rows: the same heuristic over-estimates ~100x.
    db.register("b", {
        "b_k": np.arange(N_B, dtype=np.int64),
        "b_val": rng.integers(0, 1000, N_B),
    }, primary_key="b_k")
    return db


def _best_ms(db, config, repeats: int = 5, stats=None) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        db.execute_chunk(SQL, config, PARAMS, stats=stats)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def test_adaptive_replan_beats_static_on_misestimated_join(benchmark):
    db = _make_db()
    static_cfg = EngineConfig(threads=1)
    adaptive_cfg = EngineConfig(threads=1, adaptive_execution=True,
                                adaptive_ratio=2.0)

    # Identical results come first: adaptive re-planning must be invisible
    # in the output.
    static_chunk = db.execute_chunk(SQL, static_cfg, PARAMS)
    adaptive_chunk = db.execute_chunk(SQL, adaptive_cfg, PARAMS)
    assert [a.tolist() for a in static_chunk.arrays] == \
        [a.tolist() for a in adaptive_chunk.arrays]

    # The feedback loop must actually fire: at this divergence ratio the
    # workload is constructed to force a re-plan, not just tolerate one.
    stats = RuntimeStats()
    db.execute_chunk(SQL, adaptive_cfg, PARAMS, stats=stats)
    assert stats.replans >= 1, "expected an adaptive re-plan on this workload"

    benchmark.pedantic(
        lambda: db.execute_chunk(SQL, adaptive_cfg, PARAMS),
        rounds=1, iterations=1,
    )
    static_ms = _best_ms(db, static_cfg)
    adaptive_ms = _best_ms(db, adaptive_cfg)
    speedup = static_ms / adaptive_ms

    report = {
        "workload": {
            "fact_rows": N_FACT, "a_rows": N_A, "b_rows": N_B,
            "sql": SQL, "params": list(PARAMS),
        },
        "static_ms": round(static_ms, 3),
        "adaptive_ms": round(adaptive_ms, 3),
        "speedup": round(speedup, 3),
        "replans": stats.replans,
    }
    path = RESULTS_DIR / "adaptive_execution.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print("\n" + json.dumps(report, indent=2))

    # Acceptance: estimate feedback is worth >=1.5x on the mis-estimated
    # join (the observed win is ~3-4x; 1.5 leaves headroom for CI noise).
    assert adaptive_ms * 1.5 <= static_ms, (
        f"adaptive execution ({adaptive_ms:.2f} ms) not >=1.5x faster than "
        f"the static plan ({static_ms:.2f} ms)"
    )
    shutdown_pools()
