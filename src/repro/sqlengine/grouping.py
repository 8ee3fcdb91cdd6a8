"""Vectorized group-key factorization and morsel-parallel reductions for
the SQL engine's hash aggregate."""

from __future__ import annotations

import numpy as np

from ..dataframe._common import isna_array
from .parallel import run_partitions

__all__ = ["factorize", "factorize_many", "parallel_group_reduce"]


def factorize(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense group ids for one key column.  Returns ``(gids, uniques)``.

    Group ids follow sorted-unique order for numeric/date keys (cheap and
    deterministic); object keys fall back to a first-appearance dict.
    """
    if arr.dtype.kind in ("i", "u", "b", "f", "M"):
        uniques, gids = np.unique(arr, return_inverse=True)
        return gids.astype(np.int64), uniques
    # Object (string) keys: a dict pass is O(n) vs the O(n log n) string
    # argsort inside np.unique, and it tolerates None values.
    seen: dict = {}
    gids = np.empty(len(arr), dtype=np.int64)
    order: list = []
    for i, v in enumerate(arr):
        g = seen.get(v)
        if g is None:
            g = len(order)
            seen[v] = g
            order.append(v)
        gids[i] = g
    uniques = np.empty(len(order), dtype=object)
    uniques[:] = order
    return gids, uniques


_INT64_MAX = int(np.iinfo(np.int64).max)


def factorize_many(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Dense group ids for composite keys.

    Factorizes each key column independently and packs the per-column ids
    into a single int64 code, first column most significant, so group ids
    follow the lexicographic order of the key ids.  When the next column's
    cardinality would overflow the packed code, the running code is first
    re-factorized into dense ids (fewer than the row count), which keeps
    the order.  Returns ``(gids, unique_key_columns, ngroups)``.
    """
    if len(arrays) == 1:
        gids, uniques = factorize(arrays[0])
        return gids, [uniques], len(uniques)
    per_col: list[tuple[np.ndarray, np.ndarray]] = [factorize(a) for a in arrays]
    codes, first_uniques = per_col[0]
    span = max(len(first_uniques), 1)  # every code lies in [0, span)
    for gids, uniques in per_col[1:]:
        size = max(len(uniques), 1)
        if span > _INT64_MAX // size:
            distinct, codes = np.unique(codes, return_inverse=True)
            span = len(distinct)
        codes = codes * size + gids
        span *= size
    combined, inverse = np.unique(codes, return_inverse=True)
    inverse = inverse.astype(np.int64)
    # Each group's key values, read at one of its rows.
    rows = np.zeros(len(combined), dtype=np.int64)
    rows[inverse] = np.arange(len(inverse), dtype=np.int64)
    key_cols = [uniques[gids[rows]] for gids, uniques in per_col]
    return inverse, key_cols, len(combined)


def parallel_group_reduce(
    values: np.ndarray | None,
    gids: np.ndarray,
    ngroups: int,
    func: str,
    threads: int,
    sql_null_empty: bool = False,
) -> np.ndarray | None:
    """Morsel-parallel group reduction with partial-aggregate merging.

    Rows are partitioned across the shared worker pool; each partition
    computes a partial aggregate state (``np.bincount`` and reduceat-based
    kernels release the GIL) and the partials are merged serially.  Result
    semantics match :func:`repro.dataframe.groupby.group_reduce` exactly
    (null-skipping, int downcast rules, NULL for empty min/max groups).

    Returns ``None`` when the dtype/func combination has no partial-merge
    implementation — the caller must fall back to the serial path.
    """
    n = len(gids)
    if func == "size":
        parts = run_partitions(
            n, threads, lambda a, b: np.bincount(gids[a:b], minlength=ngroups)
        )
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out.astype(np.int64)

    if values is None or values.dtype == object or values.dtype.kind == "M":
        return None
    if func not in ("sum", "mean", "min", "max", "count"):
        return None

    valid = ~isna_array(values)
    if func == "count":
        parts = run_partitions(
            n, threads,
            lambda a, b: np.bincount(gids[a:b][valid[a:b]], minlength=ngroups),
        )
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out.astype(np.int64)

    if func in ("sum", "mean"):
        def partial(a: int, b: int):
            ok = valid[a:b]
            g = gids[a:b][ok]
            v = values[a:b][ok].astype(np.float64)
            return (
                np.bincount(g, weights=v, minlength=ngroups),
                np.bincount(g, minlength=ngroups),
            )

        parts = run_partitions(n, threads, partial)
        sums = parts[0][0]
        counts = parts[0][1]
        for s, c in parts[1:]:
            sums = sums + s
            counts = counts + c
        if func == "sum":
            if sql_null_empty and (counts == 0).any():
                # SQL SUM over an empty group is NULL (Pandas would say 0).
                sums = sums.astype(np.float64)
                sums[counts == 0] = np.nan
                return sums
            if values.dtype.kind in ("i", "u", "b") and np.abs(sums).max(initial=0) < 2**52:
                return sums.astype(np.int64)
            return sums
        with np.errstate(invalid="ignore", divide="ignore"):
            return sums / counts

    # min / max
    fill = np.inf if func == "min" else -np.inf
    ufunc = np.minimum if func == "min" else np.maximum

    def partial_minmax(a: int, b: int) -> np.ndarray:
        ok = valid[a:b]
        g = gids[a:b][ok]
        v = values[a:b][ok].astype(np.float64)
        out = np.full(ngroups, fill, dtype=np.float64)
        if len(g):
            order = np.argsort(g, kind="stable")
            sorted_g = g[order]
            boundaries = np.empty(len(sorted_g), dtype=bool)
            boundaries[0] = True
            boundaries[1:] = sorted_g[1:] != sorted_g[:-1]
            starts = np.nonzero(boundaries)[0]
            out[sorted_g[starts]] = ufunc.reduceat(v[order], starts)
        return out

    parts = run_partitions(n, threads, partial_minmax)
    out = parts[0]
    for p in parts[1:]:
        out = ufunc(out, p)
    if values.dtype.kind in ("i", "u") and np.isfinite(out).all():
        return out.astype(values.dtype)
    out = out.copy()
    out[out == fill] = np.nan  # empty groups aggregate to NULL
    return out
