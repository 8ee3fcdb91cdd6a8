"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Tiny-size smoke runs of every workload, oracle checks that must reject a
corrupted result, and a check that the printed metric names match
BENCHMARK.json.  (The file name keeps these out of the repository's tier-1
collection, which picks up ``test_*.py``.)
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import wl_compile  # noqa: E402
import wl_serve  # noqa: E402
import wl_shard  # noqa: E402
from common import ResultLog  # noqa: E402
from functions import FunctionSet, chunk_columns  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture()
def tiny(monkeypatch):
    """Shrink every workload to smoke-test size."""
    monkeypatch.setattr(wl_compile, "WARM_SIZES", wl_compile.COLD_SIZES)
    monkeypatch.setattr(wl_compile, "COLD_SETUPS", 1)
    monkeypatch.setattr(wl_compile, "WARM_SETUPS", 1)
    monkeypatch.setattr(wl_serve, "SF", 0.002)
    monkeypatch.setattr(wl_serve, "BATCH", 20)
    monkeypatch.setattr(wl_serve, "WARMUP", 10)
    monkeypatch.setattr(wl_serve, "SETUPS", 1)
    monkeypatch.setattr(wl_shard, "SF", 0.002)
    monkeypatch.setattr(wl_shard, "SETUPS", 1)


def _run_main(args: list[str]) -> tuple[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(args) == 0
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_names_match(tiny, workload):
    text, result = _run_main(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                              "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"] and metric["value"] > 0
    assert "RUN_RECORD " in text


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_run_prints_every_layer_metric(tiny, workload):
    _, result = _run_main(["--workload", workload, "--seed", "6", "--seconds", "0.1",
                           "--trace", "1"])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_setup_s_has_the_largest_bound():
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_oracles_reject_corrupted_results():
    fset = FunctionSet(0.002, 0.01, 200, seed=9)
    by_name = {f.name: f for f in fset.functions}
    try:
        for name in ("q1", "n3", "covariance_dense", "covariance_sparse"):
            func = by_name[name]
            frame = fset.fresh(func).run(func.db, "hyper")
            columns = {k: np.asarray(v) for k, v in frame.to_dict().items()}
            assert fset.check(func, columns)[0], name
            numeric = next(k for k, v in columns.items() if v.dtype.kind == "f")
            bad = dict(columns)
            bad[numeric] = columns[numeric].copy()
            bad[numeric][0] += 1.0
            ok, detail = fset.check(func, bad)
            assert not ok and detail, name
    finally:
        fset.close()


def test_eager_oracle_rejects_wrong_but_runnable_sql():
    """A compile-path defect that yields runnable but wrong SQL passes the
    sqlite3 check, which runs that same SQL; the eager Python run of the
    function must still reject it."""
    fset = FunctionSet(0.002, 0.01, 200, seed=9)
    try:
        func = next(f for f in fset.functions if f.name == "q1")
        wrong = fset.sql(func).rstrip().rstrip(";") + " LIMIT 1"
        fset.sql = lambda f: wrong
        columns = chunk_columns(func.db.execute_chunk(wrong))
        ok, detail = fset.check(func, columns)
        assert not ok and detail.startswith("eager Python"), detail
    finally:
        fset.close()


def test_serve_oracle_rejects_a_corrupted_response(monkeypatch):
    monkeypatch.setattr(wl_serve, "SF", 0.002)
    from repro import connect
    from repro.workloads.tpch import generate, register_tpch

    mix = wl_serve.templates()
    db = connect()
    register_tpch(db, generate(scale_factor=0.002, seed=4))
    t = next(i for i, tmpl in enumerate(mix) if tmpl.name == "order_lookup")
    params = [7]
    rows = list(zip(*[a.tolist() for a in db.execute_chunk(mix[t].sql, params=params).arrays]))
    good, bad = ResultLog(), ResultLog()
    good.add((t, True, json.dumps(params)), rows, 0)
    bad.add((t, True, json.dumps(params)), [(r[0], r[1] + 1.0, r[2]) for r in rows], 0)
    assert wl_serve._check(mix, good, seed=4) == 0
    assert wl_serve._check(mix, bad, seed=4) == 1


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.begin("outer")
    time.sleep(0.02)
    inner = tracer.begin("inner")
    time.sleep(0.03)
    tracer.end(inner)
    tracer.end(outer)
    totals = tracer.layer_totals()
    assert tracer.spans[inner].parent == outer
    assert totals["inner"][0] >= 25.0
    assert 15.0 <= totals["outer"][0] < 28.0


def test_refuses_to_run_without_program_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exec_warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
