"""Shared benchmark fixtures.

Scales are environment-tunable so the suite runs on a laptop:

* ``REPRO_TPCH_SF``   — TPC-H scale factor (default 0.005; paper used 1.0)
* ``REPRO_DS_SCALE``  — data-science workload scale (default 0.01; ~1% of
  the paper's dataset sizes)
* ``REPRO_BENCH_REPEATS`` — timed rounds per configuration (default 1)

Each figure module prints its series and writes it to ``RESULTS_DIR``, a
fresh temporary directory per session whose path is printed at the end of
the run, so `pytest benchmarks/ --benchmark-only -s` regenerates every table
and figure of the paper's evaluation section without rewriting the
committed ``benchmarks/results/`` files.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest

from repro.bench import TpchBench, WorkloadBench

RESULTS_DIR = Path(tempfile.mkdtemp(prefix="repro-bench-results-"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "1"))


def pytest_terminal_summary(terminalreporter) -> None:
    terminalreporter.write_line(f"benchmark results written to {RESULTS_DIR}")


def save_series(name: str, text: str) -> None:
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


@pytest.fixture(scope="session")
def tpch_bench():
    return TpchBench()


@pytest.fixture(scope="session")
def ds_bench():
    return WorkloadBench()
