"""shard_store: a ShardedDatabase over an on-disk column store.

TPC-H is written to a column store in 2048-row chunks.  One client runs the
22 TPC-H statements (the SQL the @pytond functions generate), the serving
mix's lineitem aggregate and a lineitem Top-K.  Passes alternate between
``shard_workers=0`` (the headline setting) and ``shard_workers=nproc``, where
shardable aggregates and Top-Ks scatter over worker processes and the rest
fall back to serial.  The serial setting is the headline because its
figures are steady: over ten seeds on a 2-core VM, sharded pass times
spread 0.21 (interquartile range over median) against 0.06 for serial ones.  This is the only workload that reaches
``server.shard`` and ``storage``; the other three bypass both.

Results are checked against sqlite3 over identical data, and every sharded
result must match the serial result of the same statement: integers and
strings exactly, floats within the differential tolerance.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import time
from dataclasses import replace

import layers
from common import (NPROC, PROFILE, ROOT, ResultLog, frame_rows, host_probe_ms, host_scale,
                    log, peak_rss_mb, sqlite_mirror, sqlite_rows)
from repro.backends.rows import rows_equal
from functions import chunk_columns
from tracer import install_engine_probes
from wl_compile import pass_metrics, run_timed

SF = 0.01
CHUNK_ROWS = 2048
SETUPS = 3
STORE_DIR = ROOT / ".perfbench_tmp"

EXTRA_STATEMENTS = {
    "lineitem_agg": "SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS rev "
                    "FROM lineitem WHERE l_quantity < 24 "
                    "GROUP BY l_returnflag ORDER BY l_returnflag",
    "lineitem_topk": "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
                     "ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 20",
}


class Store:
    """One column store on disk and the ShardedDatabase over it."""

    def __init__(self, seed: int, index: int):
        from repro.backends import get_backend
        from repro.bench.storage import store_tpch
        from repro.server import ShardedDatabase
        from repro.storage import ColumnStore
        from repro.workloads.tpch import QUERIES, generate

        start = time.perf_counter()
        self.root = STORE_DIR / f"store-{os.getpid()}-{index}"
        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)
        store_tpch(ColumnStore(self.root), generate(scale_factor=SF, seed=seed),
                   chunk_rows=CHUNK_ROWS)
        base = get_backend(PROFILE).config(threads=1)
        self.db = ShardedDatabase(self.root, config=base)
        self.configs = {"N": replace(base, shard_workers=NPROC),
                        "1": replace(base, shard_workers=0)}
        self.statements = {f"q{q}": QUERIES[q].sql(PROFILE, db=self.db)
                           for q in sorted(QUERIES)}
        self.statements.update(EXTRA_STATEMENTS)
        self.db.pool(NPROC).warm()
        for cfg in self.configs.values():
            for sql in self.statements.values():
                self.db.execute_chunk(sql, cfg)
        self.setup_s = time.perf_counter() - start

    def io_totals(self) -> dict[str, int]:
        out = {"chunks_read": 0, "rows_read": 0, "bytes_read": 0}
        for name in self.db.tables():
            for key, value in self.db.catalog.get(name).io_stats.items():
                out[key] += value
        return out

    def close(self) -> None:
        self.db.close_pools()
        # Wait for the worker processes to exit before removing their files.
        deadline = time.monotonic() + 30
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        shutil.rmtree(self.root, ignore_errors=True)


def shard_store(seed: int, seconds: float, tracer=None) -> dict:
    setup_times = []
    store = None
    try:
        for i in range(SETUPS):
            if store is not None:
                store.close()
                store = None
                gc.collect()
            before = host_probe_ms()
            store = Store(seed, i)
            setup_times.append(store.setup_s * host_scale([before, host_probe_ms()]))
        outcome = _measure(store, seconds, tracer, setup_times)
    finally:
        if store is not None:
            store.close()
        if STORE_DIR.exists() and not any(STORE_DIR.iterdir()):
            STORE_DIR.rmdir()
    return outcome


def _measure(store: Store, seconds: float, tracer, setup_times: list[float]) -> dict:
    shard_before = dict(store.db.shard_stats)

    def execute(name, setting):
        start = time.perf_counter()
        chunk = store.db.execute_chunk(store.statements[name], store.configs[setting])
        ms = (time.perf_counter() - start) * 1000.0
        return chunk_columns(chunk), ms

    def install() -> None:
        from repro.server import shard

        install_engine_probes(tracer)
        tracer.wrap(shard, "analyze_shard_query", "shard.analyze")
        tracer.wrap(shard.ShardedDatabase, "_execute_sharded", "shard.scatter")

    passes, results = run_timed(list(store.statements), execute, seconds, tracer, install,
                                cache_db=lambda name: store.db, probe=store.io_totals)
    rss = peak_rss_mb()
    shard_after = dict(store.db.shard_stats)
    failed = sum(p.failed for p in passes) + _check(store, results)
    samples, values, op_medians = pass_metrics(passes, "1", setup_times, rss)
    outcome = {
        "samples": samples,
        "values": values,
        "extra": {"op_median_ms": op_medians},
        "attempted": results.count + sum(p.failed for p in passes),
        "failed": failed,
        "sizes": {"tpch_sf": SF, "chunk_rows": CHUNK_ROWS,
                  "statements": len(store.statements)},
        "caps": {"shard_workers": NPROC, "threads": 1},
    }
    if tracer is not None:
        traced = [p for p in passes if p.traced]
        by_setting = {s: sum(1 for p in traced if p.setting == s) for s in ("1", "N")}
        metrics = layers.empty()
        dump = tracer.dump()
        metrics.update(layers.engine_layers(dump, len(traced), by_setting))
        sharded_passes = max(1, sum(1 for p in passes if p.setting == "N"))
        delta = {k: shard_after[k] - shard_before.get(k, 0) for k in shard_after}
        metrics["shard.scattered"] = delta["scattered"] / sharded_passes
        metrics["shard.fallbacks"] = delta["fallbacks"] / sharded_passes
        total = delta["scattered"] + delta["fallbacks"]
        metrics["shard.statements"] = total / sharded_passes
        metrics["shard.scatter_ratio"] = delta["scattered"] / total if total else 0.0
        metrics["shard.errors"] = delta["shard_errors"] / sharded_passes
        metrics["shard.restarts"] = shard_after["restarts"] - shard_before.get("restarts", 0)
        metrics["shard.analyze_ms"] = dump["layers"].get("shard.analyze", (0.0, 0))[0] / max(
            1, len(traced))
        # Serial passes only: reads inside shard workers are not visible here.
        for key in ("chunks_read", "rows_read", "bytes_read"):
            total = sum(p.probe[key] for p in traced if p.setting == "1")
            metrics[f"storage.{key}"] = total / max(1, by_setting["1"])
        metrics["trace.overhead_pct"] = layers.overhead_pct(
            [p.total_ms for p in passes if not p.traced and p.setting == "1"],
            [p.total_ms for p in traced if p.setting == "1"])
        outcome["layers"] = metrics
    return outcome


def _check(store: Store, results: ResultLog) -> int:
    """Failed results: each against sqlite3 over identical data, and each
    sharded result against the serial result of the same statement."""
    conn = sqlite_mirror(store.db)
    expected: dict[str, list] = {}
    serial: dict[str, list] = {}
    failed = 0
    checks = sorted(results.to_check(), key=lambda item: item[0][1] != "1")
    try:
        for (name, setting), columns, copies in checks:
            if name not in expected:
                expected[name] = sqlite_rows(conn, store.statements[name])
            ours = frame_rows(columns)
            ok, detail = rows_equal(ours, expected[name])
            if ok and setting == "1":
                serial.setdefault(name, ours)
            elif ok:
                # Integers and strings must match exactly; floats within the
                # differential tolerance, since shards sum in another order.
                ok, detail = rows_equal(ours, serial.get(name, []))
                detail = detail and f"sharded result differs from serial: {detail}"
            if not ok:
                failed += copies
                log(f"oracle mismatch: {name} [{setting}]: {detail}")
    finally:
        conn.close()
    return failed
