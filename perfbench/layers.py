"""Per-layer metrics of the traced run: how a tracer's spans and counts
become the metric values BENCHMARK.json lists.

Times and counts are per pass (a pass is one sweep over the workload's
operations: 32 functions (31 on exec_warm), one request batch, or 24
statements, with the Q6 and Q7 repeats), so runs of different length
compare.  A layer a workload bypasses reports 0.
"""

from __future__ import annotations

import statistics

from common import SPEC

# Layers timed by a span of the same name (see tracer.install_engine_probes).
SPAN_LAYERS = ("translate", "optimize", "sqlgen", "parse", "plan", "verify")

# The per-layer metrics, by name, as BENCHMARK.json lists them.
NAMES = [m["name"] for m in SPEC["per_layer"]]


def empty() -> dict[str, float]:
    return {name: 0.0 for name in NAMES}


def engine_layers(dump: dict, passes: int, passes_by_setting: dict[str, int]) -> dict:
    """Compile, engine and plan-cache metrics from one tracer dump (see
    ``Tracer.dump``), scaled to one pass."""
    out: dict[str, float] = {}
    layers = dump["layers"]
    counts = dump["counts"]
    per = 1.0 / max(1, passes)
    for span in SPAN_LAYERS:
        ms, calls = layers.get(span, (0.0, 0))
        out[f"{span}.ms"] = ms * per
        if f"{span}.calls" in NAMES:
            out[f"{span}.calls"] = calls * per
    for key in ("translate.ir_rules", "optimize.ir_rules_out", "sqlgen.sql_bytes"):
        out[key] = counts.get(key, 0.0) * per
    hits = counts.get("plan_cache.hits", 0.0)
    misses = counts.get("plan_cache.misses", 0.0)
    out["plan_cache.lookups"] = (hits + misses) * per
    out["plan_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["plan_cache.misses"] = misses * per
    out["plan_cache.evictions"] = counts.get("plan_cache.evictions", 0.0) * per
    for key, (self_ms, rows) in dump["ops"].items():
        op, setting = key.split("|")
        suffix = "t1" if setting == "1" else "tN"
        n = max(1, passes_by_setting.get(setting, 0))
        out[f"op.{op}.self_ms.{suffix}"] = self_ms / n
        out[f"op.{op}.rows.{suffix}"] = rows / n
    qerrors = dump["qerrors"]
    out["plan.join_qerror_p50"] = statistics.median(qerrors) if qerrors else 0.0
    out["trace.spans"] = len(dump["spans"]) * per
    return out


def merge_dumps(a: dict, b: dict) -> dict:
    """Two tracer dumps (client and server process) as one."""
    layers = dict(a["layers"])
    for name, (ms, n) in b["layers"].items():
        old = layers.get(name, (0.0, 0))
        layers[name] = (old[0] + ms, old[1] + n)
    counts = dict(a["counts"])
    for key, value in b["counts"].items():
        counts[key] = counts.get(key, 0.0) + value
    ops = {k: list(v) for k, v in a["ops"].items()}
    for key, (ms, rows) in b["ops"].items():
        slot = ops.setdefault(key, [0.0, 0.0])
        slot[0] += ms
        slot[1] += rows
    return {"spans": a["spans"] + b["spans"], "layers": layers, "counts": counts,
            "ops": ops, "qerrors": a["qerrors"] + b["qerrors"]}


def overhead_pct(untraced: list[float], traced: list[float]) -> float:
    """Traced pass time against untraced pass time, in percent."""
    if not untraced or not traced:
        return 0.0
    return (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
