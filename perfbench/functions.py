"""The 32 decorated functions that compile_cold and exec_warm (less Q10)
run, their data, and their oracles.

The set is the 22 TPC-H queries, the 8 registered data-science workloads and
the two Figure 9 covariance functions (dense and sparse layout), each on its
own database.  Inputs come from the seed alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from common import PROFILE, frame_rows, sqlite_mirror, sqlite_rows
from repro.backends.rows import rows_equal


@dataclass
class Function:
    name: str
    kind: str  # "tpch" | "ds" | "cov"
    fn: object  # the @pytond PytondFunction
    db: object
    inputs: list  # column mappings of the function's parameters, for eager runs

    def frames(self) -> list:
        from repro.dataframe import DataFrame

        return [DataFrame(columns) for columns in self.inputs]


def python_rows(result) -> list[tuple]:
    """Normalized rows of an eager result: a DataFrame or a scalar."""
    if hasattr(result, "reset_index"):
        return frame_rows(result.reset_index(drop=True).to_dict())
    return frame_rows({"value": [float(result)]})


def chunk_columns(chunk) -> dict:
    """A Chunk as an ordered column mapping, duplicate names disambiguated
    the way ``Database.execute`` names DataFrame columns."""
    out: dict = {}
    for name, arr in zip(chunk.columns, chunk.arrays):
        key, i = name, 1
        while key in out:
            key, i = f"{name}_{i}", i + 1
        out[key] = arr
    return out


class FunctionSet:
    """Data, databases and the 32 functions at one size, less the TPC-H
    queries named in *skip*."""

    def __init__(self, tpch_sf: float, ds_scale: float, matrix_rows: int, seed: int,
                 skip: frozenset = frozenset()):
        from repro import connect
        from repro.workloads import WORKLOADS
        from repro.workloads.covariance import (covariance_dense, covariance_sparse,
                                                dense_table, make_matrix, sparse_table)
        from repro.workloads.tpch import QUERIES, QUERY_TABLES, generate, register_tpch

        self.sizes = {"tpch_sf": tpch_sf, "ds_scale": ds_scale,
                      "matrix": [matrix_rows, 8, 0.3], "skipped": sorted(skip)}
        self.tpch_data = generate(scale_factor=tpch_sf, seed=seed)
        self.tpch_db = connect()
        register_tpch(self.tpch_db, self.tpch_data)
        self.functions: list[Function] = []
        for q in sorted(q for q in QUERIES if f"q{q}" not in skip):
            self.functions.append(Function(
                f"q{q}", "tpch", QUERIES[q], self.tpch_db,
                [self.tpch_data[t] for t in QUERY_TABLES[q]]))
        for i, (name, workload) in enumerate(sorted(WORKLOADS.items())):
            data = workload.make_data(scale=ds_scale, seed=seed + 101 + i)
            db = connect()
            workload.register(db, data)
            self.functions.append(Function(
                name, "ds", workload.fn, db, [data[t] for t in workload.tables]))
        self.matrix = make_matrix(matrix_rows, 8, 0.3, seed=seed + 211)
        cov_db = connect()
        # Figure 9 registers the dense matrix with its key; without one the
        # generated SQL puts ROW_NUMBER() in WHERE, which fails.
        cov_db.register("matrix", dense_table(self.matrix), primary_key="ID")
        cov_db.register("matrix_coo", sparse_table(self.matrix))
        self.functions.append(Function("covariance_dense", "cov", covariance_dense, cov_db, []))
        self.functions.append(Function("covariance_sparse", "cov", covariance_sparse, cov_db, []))
        self.sqls: dict[str, str] = {}  # filled by exec_warm's set-up
        self.eager_ms: dict[str, float] = {}
        self._eager: dict[str, object] = {}
        self._sqlite: dict[str, list] = {}
        self._mirror = None

    def fresh(self, func: Function):
        """A new PytondFunction from the same Python source and decorator
        arguments: no translation, IR or SQL cached on it."""
        from repro.core.decorator import PytondFunction

        old = func.fn
        return PytondFunction(old.python, tables=old._tables, table_info=old._table_info,
                              layout=old._layout, pivot_values=old._pivot_values,
                              opt_level=old._opt_level)

    def sql(self, func: Function) -> str:
        return func.fn.sql(PROFILE, db=func.db)

    # -- oracles ---------------------------------------------------------
    def eager(self, func: Function):
        """The eager Python run of *func* (``repro.dataframe`` / NumPy), made
        once per function; its time goes to ``eager_ms``."""
        if func.name not in self._eager:
            frames = func.frames()
            start = time.perf_counter()
            self._eager[func.name] = func.fn(*frames)
            self.eager_ms[func.name] = (time.perf_counter() - start) * 1000.0
        return self._eager[func.name]

    def check(self, func: Function, columns: dict) -> tuple[bool, str]:
        """Compare one result with the function's independent oracles.

        TPC-H: stdlib sqlite3 over identical data, running the generated
        SQL, which checks the engine; and the eager Python run of the same
        function, which also checks translation, optimization and SQL
        generation.  Data science: the eager Python run.  Covariance:
        ``numpy_covariance`` of the same matrix.  Tables are compared as
        sorted rows with ``rows_equal``'s float tolerance.
        """
        from repro.bench.validate import compare_results
        from repro.dataframe import DataFrame
        from repro.workloads.covariance import numpy_covariance

        if func.kind == "tpch":
            if self._mirror is None:
                self._mirror = sqlite_mirror(self.tpch_db)
            if func.name not in self._sqlite:
                self._sqlite[func.name] = sqlite_rows(self._mirror, self.sql(func))
            ours = frame_rows(columns)
            ok, detail = rows_equal(ours, self._sqlite[func.name])
            if not ok:
                return False, f"sqlite3: {detail}"
            ok, detail = rows_equal(ours, python_rows(self.eager(func)))
            return ok, detail and f"eager Python: {detail}"
        if func.kind == "ds":
            expected = self.eager(func)
            if hasattr(expected, "reset_index"):
                # Tables go through rows_equal's tolerance: compare_results
                # rounds floats to 6 places and then compares exactly, so a
                # last-bit difference from another summation order (threads=2)
                # can flip a rounding and fail a correct result.
                return rows_equal(frame_rows(columns), python_rows(expected))
            return compare_results(expected, DataFrame(dict(columns)))
        expected = numpy_covariance(self.matrix)
        if func.name == "covariance_dense":
            return compare_results(expected, DataFrame(dict(columns)))
        got = np.zeros_like(expected)
        for j, k, v in zip(*columns.values()):
            got[int(j), int(k)] = v
        if np.allclose(got, expected, rtol=1e-6, atol=1e-9):
            return True, ""
        return False, "sparse covariance differs from numpy"

    def close(self) -> None:
        if self._mirror is not None:
            self._mirror.close()
            self._mirror = None
