"""serve_wire: a closed loop of clients against the NetServer over TCP.

The server (server_proc.py) fronts TPC-H in a process of its own.  This
process is the load generator: it holds nproc connections and each
connection waits for its reply before sending its next request, as an
app-server connection pool does.  Every batch is a fixed number of requests
drawn from the seed: the four ``tpch_mix()`` templates plus ``wide_scan``,
which returns thousands of rows and so is dominated by result encoding.  A
quarter of the requests are ad hoc with their literals inlined; their texts
are mostly distinct, far more than the plan cache holds, so they miss it,
while the prepared statements fit it.  Framing and JSON, the scheduler,
sessions and plan-cache churn do the work; execution is small except in
wide_scan.

Batches alternate between all nproc connections (the headline setting) and
a single connection.  Responses are checked against sqlite3 after the timed
phase.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import layers
from common import (CPUS, NPROC, ResultLog, host_probe_ms, host_scale, log, percentile,
                    sqlite_mirror, sqlite_rows)
from repro.backends.rows import normalize_rows, rows_equal
from tracer import QUERY_ID
from wl_compile import run_pairs

SERVER_SCRIPT = Path(__file__).resolve().parent / "server_proc.py"

SF = 0.01
BATCH = 200
# With two or more cores, the server process runs on core 0 and the load
# generator on the others.  Left to migrate, the two processes wake each
# other across cores, and on a 2-core VM the run-to-run spread of every
# latency metric roughly doubled.
PINNED = NPROC >= 2 and hasattr(os, "sched_setaffinity")
SERVER_CPUS, CLIENT_CPUS = set(CPUS[:1]), set(CPUS[1:])
SETUPS = 7
WARMUP = 100
WARMUP_BATCH = 1 << 30  # sequence index of the warm-up requests, apart from the timed ones
PREPARED_FRACTION = 0.75


def templates():
    """The serving mix plus the wide result."""
    from repro.server import QueryTemplate, tpch_mix

    return tpch_mix() + [QueryTemplate(
        "wide_scan",
        "SELECT l_orderkey, l_extendedprice, l_discount FROM lineitem "
        "WHERE l_quantity < ?",
        lambda rng: [int(rng.integers(5, 8))],
        weight=0.25,
    )]


def inline(sql: str, params) -> str:
    """The ad-hoc form of a statement: its parameters written as literals."""
    def literal(value) -> str:
        return repr(int(value)) if isinstance(value, int) else repr(float(value))

    if isinstance(params, dict):
        for name in sorted(params, key=len, reverse=True):
            sql = sql.replace(f":{name}", literal(params[name]))
        return sql
    pieces = sql.split("?")
    out = [pieces[0]]
    for piece, value in zip(pieces[1:], params):
        out += [literal(value), piece]
    return "".join(out)


def make_batch(seed: int, index: int, mix) -> list[tuple[int, bool, object]]:
    """Batch *index* of the run's request sequence: (template, prepared,
    params) triples.  Every batch holds each template the same number of
    times, split the same way between prepared and ad hoc, so batch times
    compare; order and parameter values come from the seed."""
    rng = np.random.default_rng([seed, index])
    weights = np.array([t.weight for t in mix])
    counts = np.maximum(1, np.floor(weights / weights.sum() * BATCH).astype(int))
    counts[0] += BATCH - counts.sum()
    out = []
    for t, count in enumerate(counts):
        n_prepared = int(round(count * PREPARED_FRACTION))
        for i in range(count):
            out.append((t, i < n_prepared, mix[t].make_params(rng)))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


class Server:
    """The server process and this side's connections to it."""

    def __init__(self, seed: int):
        from repro.server import NetClient

        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER_SCRIPT), "--seed", str(seed), "--sf", str(SF),
             "--max-concurrent", str(NPROC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            if PINNED:
                os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
            hello = self.command(None)
            self.clients = []
            # Open connections one at a time, so the server names them
            # net-1, net-2, ... in this order (the span join relies on it).
            for _ in range(NPROC):
                client = NetClient("127.0.0.1", hello["port"], timeout=60.0)
                client.ping()
                self.clients.append(client)
            self.mix = templates()
            self.handles = [[c.prepare(t.sql) for t in self.mix] for c in self.clients]
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def command(self, line: str | None) -> dict:
        if line is not None:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"server process exited (code {self.proc.poll()})")
        return json.loads(answer)

    def stop(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        if self.proc.poll() is None:
            try:
                self.command("stop")
            except (OSError, RuntimeError, ValueError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class Batch:
    def __init__(self, setting: str, traced: bool):
        self.setting = setting
        self.traced = traced
        self.wall_ms = 0.0
        self.latency: list[tuple[str, float]] = []  # (template, ms)
        self.scale = 1.0  # host_scale of the batch; its times are scaled by it
        self.failed = 0


def run_batch(server: Server, requests, setting: str, traced: bool, results: ResultLog,
              tracer) -> Batch:
    """Send one batch through ``nproc`` connections (setting N) or one
    (setting 1); each connection sends its next request only after the reply.
    The host probe runs twice before and twice after the batch, and the
    batch's times are scaled by their host_scale."""
    from repro.errors import ReproError

    batch = Batch(setting, traced)
    conns = list(range(NPROC)) if setting == "N" else [0]
    lock = threading.Lock()

    def client_loop(slot: int, conn: int) -> None:
        client = server.clients[conn]
        handles = server.handles[conn]
        local, failed, logged = [], 0, []
        for t, prepared, params in requests[slot::len(conns)]:
            template = server.mix[t]
            start = time.perf_counter()
            try:
                if prepared:
                    rid = client.submit_prepared(handles[t], params)
                else:
                    rid = client.submit(inline(template.sql, params))
                result = client.collect(rid)
                end = time.perf_counter()
            except ReproError as exc:
                failed += 1
                log(f"{template.name} failed: {exc}")
                continue
            if traced:
                QUERY_ID.set(f"net-{conn + 1}:{rid}")
                tracer.add_span("client.request", start, end)
            local.append((template.name, (end - start) * 1000.0))
            logged.append(((t, prepared, json.dumps(params)), result.rows))
        with lock:
            batch.latency.extend(local)
            batch.failed += failed
            for key, rows in logged:
                results.add(key, rows, hash(tuple(rows)))

    threads = [threading.Thread(target=client_loop, args=(slot, conn))
               for slot, conn in enumerate(conns)]
    probes = [host_probe_ms(), host_probe_ms()]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_ms = (time.perf_counter() - start) * 1000.0
    probes += [host_probe_ms(), host_probe_ms()]
    batch.scale = host_scale(probes)
    batch.wall_ms = wall_ms * batch.scale
    batch.latency = [(name, ms * batch.scale) for name, ms in batch.latency]
    return batch


def _check(server_mix, results: ResultLog, seed: int) -> int:
    """Failed responses against sqlite3 over identical data."""
    from repro import connect
    from repro.workloads.tpch import generate, register_tpch

    db = connect()
    register_tpch(db, generate(scale_factor=SF, seed=seed))
    conn = sqlite_mirror(db)
    failed = 0
    try:
        for (t, prepared, params_json), rows, copies in results.to_check():
            template = server_mix[t]
            expected = sqlite_rows(conn, template.sql, json.loads(params_json))
            ok, detail = rows_equal(normalize_rows(rows), expected)
            if not ok:
                failed += copies
                log(f"oracle mismatch: {template.name} prepared={prepared}: {detail}")
    finally:
        conn.close()
    return failed


def serve_wire(seed: int, seconds: float, tracer=None) -> dict:
    setup_times = []
    results = ResultLog()
    server = None
    own_cpus = os.sched_getaffinity(0) if PINNED else None
    try:
        if PINNED:
            os.sched_setaffinity(0, CLIENT_CPUS)
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            before = host_probe_ms()
            server = Server(seed)
            start = time.perf_counter()
            run_batch(server, make_batch(seed, WARMUP_BATCH, server.mix)[:WARMUP], "N", False,
                      ResultLog(), None)
            elapsed = server.setup_s + time.perf_counter() - start
            setup_times.append(elapsed * host_scale([before, host_probe_ms()]))
        mix = server.mix
        before = server.clients[0].metrics()

        def install() -> None:
            server.command("trace on")
            tracer.wrap(sys.modules["repro.server.wire"], "_decode", "wire.decode")

        def uninstall() -> None:
            tracer.uninstall()
            server.command("trace off")

        batches = run_pairs(
            seconds,
            lambda setting, index, traced: run_batch(
                server, make_batch(seed, index, mix), setting, traced, results, tracer),
            tracer, install, uninstall)
        after = server.clients[0].metrics()
        dump = server.command("dump")
    finally:
        if server is not None:
            server.stop()
        if PINNED:
            os.sched_setaffinity(0, own_cpus)
    failed = sum(b.failed for b in batches) + _check(mix, results, seed)
    timed = [b for b in batches if not b.traced]
    headline = [b for b in timed if b.setting == "N"]
    single = [b for b in timed if b.setting == "1"]
    lat = [ms for b in headline for _, ms in b.latency]
    # order_lookup is the fixed per-request cost, so it is timed on the
    # single connection, where it never queues behind another request.
    lookup = [ms for b in single for name, ms in b.latency if name == "order_lookup"]
    wide = [ms for b in headline for name, ms in b.latency if name == "wide_scan"]
    batch_ms = statistics.median(b.wall_ms for b in headline)
    outcome = {
        "samples": {
            "setup_s": setup_times,
            "total_ms": [b.wall_ms for b in headline],
            "alt_total_ms": [b.wall_ms for b in single],
            "typical_ms": lat, "tail_ms": lat,
            "light_p50_ms": lookup, "heavy_p50_ms": wide,
            "peak_rss_mb": [dump["peak_rss_mb"]],
        },
        "values": {"total_ms": batch_ms, "typical_ms": percentile(lat, 50), "tail_ms": percentile(lat, 99),
                   "light_p50_ms": percentile(lookup, 50),
                   "heavy_p50_ms": percentile(wide, 50)},
        "attempted": results.count + sum(b.failed for b in batches),
        "failed": failed,
        "sizes": {"tpch_sf": SF, "batch": BATCH, "prepared_fraction": PREPARED_FRACTION,
                  "plan_cache_size": 256},
        "caps": {"connections": NPROC, "server_max_concurrent": NPROC,
                 "server_cpus": sorted(SERVER_CPUS) if PINNED else None,
                 "client_cpus": sorted(CLIENT_CPUS) if PINNED else None},
        "extra": {"serve_qps": BATCH / (batch_ms / 1000.0),
                  "latency_samples": len(lat)},
    }
    if tracer is not None:
        # The server's own timings are not scaled, so the client side's
        # latencies go to the layer metrics unscaled too.
        raw_lat = [ms / b.scale for b in headline for _, ms in b.latency]
        outcome["layers"] = _layers(tracer, dump["trace"], batches, before, after, raw_lat)
    return outcome


def _layers(tracer, server_dump: dict, batches: list[Batch], before: dict, after: dict,
            lat: list[float]) -> dict:
    traced = [b for b in batches if b.traced]
    n = len(traced)
    client_dump = tracer.dump()
    merged = layers.merge_dumps(client_dump, server_dump)
    metrics = layers.empty()
    # The server executes at threads=1 whichever connection count the
    # client uses, so its operators all land in the t1 columns.
    metrics.update(layers.engine_layers(merged, n, {"1": n}))
    total_batches = len(batches)
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    metrics["plan_cache.lookups"] = (hits + misses) / total_batches
    metrics["plan_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["plan_cache.misses"] = misses / total_batches
    metrics["plan_cache.evictions"] = (
        after["cache"]["evictions"] - before["cache"]["evictions"]) / total_batches
    server_layers = server_dump["layers"]
    counts = server_dump["counts"]
    metrics["wire.encode_ms"] = server_layers.get("wire.stream", (0.0, 0))[0] / n
    metrics["wire.decode_ms"] = client_dump["layers"].get("wire.decode", (0.0, 0))[0] / n
    metrics["wire.bytes_out"] = counts.get("wire.bytes_out", 0.0) / n
    rows = counts.get("wire.rows", 0.0)
    metrics["wire.bytes_per_row"] = counts.get("wire.bytes_out", 0.0) / rows if rows else 0.0
    server_ms = {qid: (end - start) * 1000.0 for name, start, end, _, qid, _ in
                 server_dump["spans"] if name == "server.request"}
    outside = [(end - start) * 1000.0 - server_ms[qid] for name, start, end, _, qid, _ in
               client_dump["spans"] if name == "client.request" and qid in server_ms]
    metrics["wire.outside_server_p50_ms"] = percentile(outside, 50) if outside else 0.0
    exec_p50 = after["sessions"]["p50_ms"] or 0.0
    metrics["server.exec_p50_ms"] = exec_p50
    metrics["wire.overhead_p50_ms"] = percentile(lat, 50) - exec_p50
    for key in ("completed", "rejected", "timeouts"):
        metrics[f"scheduler.{key}"] = (
            after["scheduler"].get(key, 0) - before["scheduler"].get(key, 0)) / total_batches
    headline = [b.wall_ms for b in batches if not b.traced and b.setting == "N"]
    metrics["trace.overhead_pct"] = layers.overhead_pct(
        headline, [b.wall_ms for b in traced if b.setting == "N"])
    metrics["trace.spans"] = (len(client_dump["spans"]) + len(server_dump["spans"])) / n
    return metrics
