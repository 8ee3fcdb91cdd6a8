"""Shared pieces of the benchmark: statistics, the run record, memory and
the result oracles."""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Workloads and metrics, with their units and bounds.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The cores this process may use, as `nproc` counts them.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else \
    list(range(os.cpu_count() or 1))
NPROC = max(1, len(CPUS))

# Every run uses this engine profile (a named EngineConfig preset).
PROFILE = "hyper"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_times() -> list[int] | None:
    """The host's aggregate CPU counters (``/proc/stat``), when readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:]] if fields and fields[0] == "cpu" else None


def steal_pct(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between, a
    sign of a noisy host when a run's figures stray."""
    if not before or not after or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total > 0 else None


# The host probe's time on an unloaded host: a 2-core VM at 2.1 GHz.
REFERENCE_PROBE_MS = 1.6
# Every probe time of the run, for the run record.
HOST_PROBE_MS: list[float] = []
_PROBE_DATA = np.arange(100_000, dtype=np.float64)[::-1].copy()


def host_probe_ms() -> float:
    """Time a fixed unit of interpreter and NumPy work (about 1.6 ms)."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i % 7
    np.sort(_PROBE_DATA).sum()
    ms = (time.perf_counter() - start) * 1000.0
    HOST_PROBE_MS.append(ms)
    return ms


def host_scale(probes: list[float]) -> float:
    """The factor that takes times measured next to *probes* to the
    reference host speed.

    On a shared VM the host's speed changes by up to half for seconds to
    minutes at a time (the probe reads ~1.6 ms in one period and ~2.3 ms in
    the next), and every time the program takes follows it.  Time metrics
    are therefore reported at the reference speed: each pass, batch or
    set-up is scaled by ``REFERENCE_PROBE_MS`` over the median of the probes
    taken around and inside it, while the program is idle.  The program
    never runs the probe's code, so a change to the program does not move
    the factor.  Over ten seeds this cut the spread of compile_cold's and
    exec_warm's time metrics from 0.13-0.25 to 0.04-0.10.
    """
    return REFERENCE_PROBE_MS / statistics.median(probes)


def source_digest() -> str:
    """SHA-256 over the program sources, so a run names the code it measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def run_record(workload: str, seed: int, seconds: float, trace: bool, sizes: dict,
               caps: dict, samples: dict[str, list[float]]) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": NPROC,
        "profile": PROFILE,
        "sizes": sizes,
        "caps": caps,
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "metrics": {name: summary(vals) for name, vals in samples.items() if vals},
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

# Key columns indexed in the sqlite mirror.  Without them sqlite runs the
# correlated EXISTS of Q4 and Q21 as nested scans (tens of seconds at
# SF 0.01); with them the whole TPC-H set takes under a second there.
SQLITE_INDEXES = [("lineitem", "l_orderkey"), ("lineitem", "l_partkey"),
                  ("lineitem", "l_suppkey"), ("orders", "o_orderkey"),
                  ("orders", "o_custkey"), ("partsupp", "ps_partkey"),
                  ("partsupp", "ps_suppkey"), ("customer", "c_custkey"),
                  ("part", "p_partkey"), ("supplier", "s_suppkey")]


def sqlite_mirror(db):
    """A stdlib sqlite3 copy of every table of *db*, with key indexes."""
    from repro.backends import load_sqlite

    conn = load_sqlite(db)
    tables = set(db.tables())
    for table, column in SQLITE_INDEXES:
        if table in tables:
            conn.execute(f"CREATE INDEX ix_{table}_{column} ON {table}({column})")
    return conn


def sqlite_rows(conn, sql: str, params=None) -> list[tuple]:
    from repro.backends import to_sqlite_sql
    from repro.backends.rows import normalize_rows

    rows = conn.execute(to_sqlite_sql(sql), params if params is not None else []).fetchall()
    return normalize_rows(rows)


def frame_rows(columns: dict) -> list[tuple]:
    """Normalized row tuples of a column mapping (DataFrame.to_dict() or a
    Chunk's arrays), in the form ``rows_equal`` compares."""
    from repro.backends.rows import normalize_rows

    arrays = [np.asarray(arr) for arr in columns.values()]
    if not arrays:
        return []
    cells = [arr.tolist() if arr.dtype.kind != "M" else list(arr) for arr in arrays]
    # DataFrame.to_dict() hands dates out as datetime.date; the oracle and
    # normalize_rows speak ISO day strings.
    cells = [[v.isoformat() if isinstance(v, datetime.date) else v for v in col]
             if col and isinstance(col[0], datetime.date) else col for col in cells]
    return normalize_rows(zip(*cells))


def fingerprint(columns: dict) -> int:
    """Bit-level identity of a result, cheap enough to take after every
    operation: repeated executions of one statement on one engine setting
    must return identical bytes, so only the first needs the oracle."""
    parts = []
    for name, arr in columns.items():
        arr = np.asarray(arr)
        parts.append(name)
        parts.append(arr.tobytes() if arr.dtype.kind != "O" else repr(arr.tolist()))
    return hash(tuple(parts))


class ResultLog:
    """Results of repeated operations, checked against an oracle after the
    timed phase.

    Per (operation, setting) the first result is kept whole; a later result
    is kept only when its fingerprint differs from the first, so memory stays
    bounded while every result still meets the oracle.
    """

    def __init__(self) -> None:
        self.first: dict[tuple, list] = {}  # key -> [fingerprint, result, copies]
        self.divergent: list[tuple[tuple, object]] = []
        self.count = 0

    def add(self, key: tuple, result, fp=None) -> None:
        """Log *result*; *fp* is its fingerprint, by default that of a
        column mapping."""
        self.count += 1
        fp = fingerprint(result) if fp is None else fp
        known = self.first.get(key)
        if known is None:
            self.first[key] = [fp, result, 1]
        elif known[0] == fp:
            known[2] += 1
        else:
            self.divergent.append((key, result))

    def to_check(self):
        """(key, result, copies) triples that together cover every logged
        result; *copies* is how many logged results the one checked stands
        for."""
        for key, (_, result, copies) in self.first.items():
            yield key, result, copies
        for key, result in self.divergent:
            yield key, result, 1
