"""Benchmark of the whole ``@pytond`` path.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: compile_cold, exec_warm, serve_wire, shard_store (see README.md).
The seed makes every input: data and request sequence.  The run measures for
about ``--seconds``, checks every result against an independent oracle after
the timed phase, and prints a human-readable report, a ``RUN_RECORD`` line
(sizes, caps, versions, and per metric its median, quartiles and sample
count) and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the run also times every layer through the span tracer (tracer.py) and the
metrics are the per-layer metrics.  End-to-end numbers always come from
untraced passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workload-specific names of the metrics, as README.md maps them.
ALIASES = {
    "compile_cold": {"total_ms": "cold_total_ms", "alt_total_ms": "cold_tN_total_ms"},
    "exec_warm": {"total_ms": "warm_t1_total_ms", "alt_total_ms": "warm_tN_total_ms"},
    "serve_wire": {"total_ms": "serve_batch_ms", "alt_total_ms": "serve_batch_1conn_ms",
                   "typical_ms": "serve_p50_ms", "tail_ms": "serve_p99_ms",
                   "light_p50_ms": "lookup_p50_ms", "heavy_p50_ms": "wide_p50_ms"},
    "shard_store": {"total_ms": "serial_store_total_ms", "alt_total_ms": "shard_total_ms"},
}


def _load_program() -> None:
    """Put the checkout's ``src`` first on the import path; refuse to run
    without it, so a run never measures some other installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run workload *name* (one of BENCHMARK.json's) and return its outcome."""
    from tracer import Tracer

    tracer = Tracer() if trace else None
    if name in ("compile_cold", "exec_warm"):
        import wl_compile

        return getattr(wl_compile, name)(seed, seconds, tracer)
    if name == "serve_wire":
        import wl_serve

        return wl_serve.serve_wire(seed, seconds, tracer)
    import wl_shard

    return wl_shard.shard_store(seed, seconds, tracer)


def end_to_end_values(outcome: dict, end_to_end: list) -> dict[str, float]:
    import statistics

    values = {}
    for name, _ in end_to_end:
        if name in outcome["values"]:
            values[name] = outcome["values"][name]
        else:
            values[name] = statistics.median(outcome["samples"][name])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _load_program()
    from common import HOST_PROBE_MS, SPEC, cpu_times, run_record, steal_pct, summary

    if args.workload not in [w["name"] for w in SPEC["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    end_to_end = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

    cpu_before = cpu_times()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    host_steal = steal_pct(cpu_before, cpu_times())
    values = end_to_end_values(outcome, end_to_end)
    units = dict(end_to_end)
    aliases = ALIASES[args.workload]
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, _ in end_to_end:
        alias = f"  ({aliases[name]})" if name in aliases else ""
        n = len(outcome["samples"][name])
        print(f"  {name:<14} {values[name]:12.4f} {units[name]:<4} n={n}{alias}")
    for name, value in outcome.get("extra", {}).items():
        if isinstance(value, (int, float)):
            print(f"  {name:<14} {value:12.4f}")
    print(f"  error_rate     {failed / max(1, attempted):12.6f} ratio "
          f"({failed} of {attempted} operations failed or wrong)")
    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace),
                        outcome["sizes"], outcome["caps"], outcome["samples"])
    record["error_rate"] = failed / max(1, attempted)
    record["host_steal_pct"] = host_steal
    record["host_probe_ms"] = summary(HOST_PROBE_MS)
    record["extra"] = outcome.get("extra", {})
    if args.trace:
        metrics = {name: {"value": float(outcome["layers"][name]), "unit": unit}
                   for name, unit in per_layer}
        record["layer_bases"] = outcome.get("layers_base", {})
        for name, unit in per_layer:
            print(f"  {name:<32} {outcome['layers'][name]:14.4f} {unit}")
    else:
        metrics = {name: {"value": float(values[name]), "unit": units[name]}
                   for name, _ in end_to_end}
    print("RUN_RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
