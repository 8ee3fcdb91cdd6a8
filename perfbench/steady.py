"""Steadiness check: run one workload k times, each with another seed, and
print each end-to-end metric's spread next to its bound.

    python3 perfbench/steady.py --workload serve_wire --runs 10 [--first-seed 1]

The spread is the distance between the first and third quartile of the k
values (``statistics.quantiles(n=4)``) as a share of their median.  A metric
is ``steady`` when its spread is below a third of its bound in
BENCHMARK.json, ``ok`` when below the bound, and ``WIDE`` otherwise.  The
exit code is 0 only when every run is correct and no metric is ``WIDE``.
Each run's result and run record are kept in ``--out`` (JSON lines) when
given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {name: [] for name in bounds}
    failures = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        if args.out is not None:
            record = next((json.loads(line[len("RUN_RECORD "):]) for line in lines
                           if line.startswith("RUN_RECORD ")), None)
            with args.out.open("a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "result": result, "record": record}) + "\n")
        failures += result["failed"] + (0 if result["correct"] else 1)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed} ({wall:.0f} s): " + "  ".join(
            f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)
    print(f"\n{args.workload}: {args.runs} runs, {failures} failure(s)")
    print(f"{'metric':<16}{'median':>12}{'spread':>9}{'bound':>8}  verdict")
    wide = 0
    for name, bound in bounds.items():
        median, share = spread(values[name])
        verdict = ("steady" if share < bound / 3 else "ok" if share <= bound else "WIDE")
        wide += verdict == "WIDE"
        print(f"{name:<16}{median:>12.4f}{share:>9.3f}{bound:>8.2f}  {verdict}")
    return 0 if failures == 0 and wide == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
