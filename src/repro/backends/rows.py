"""Row normalization shared by every execution backend.

Backends return results as plain Python row tuples (:class:`~.base.
ResultTable`); cross-backend comparison needs those rows in a canonical
form — NaN/NaT folded to SQL NULL, numpy scalars unwrapped, bools widened
to ints, rows sorted under a total order that tolerates float noise.  This
module is the single home of that logic, so the differential harness,
the fuzzer, and the backend registry all agree on what "the same result" means.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Iterable

    from ..sqlengine.table import Chunk

__all__ = ["to_python_cell", "norm_cell", "normalize_rows", "rows_equal",
           "chunk_rows"]


def to_python_cell(value: object) -> object:
    """Convert a numpy cell into a plain Python value a DB-API driver can
    bind: NaN/NaT become None (our engine treats both as SQL NULL), dates
    become ISO day strings, numpy scalars unwrap to their Python types."""
    if value is None:
        return None
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            return None
        return str(np.datetime64(value, "D"))
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def norm_cell(value: object) -> object:
    """Canonical comparison form of one cell (see module docstring)."""
    if value is None:
        return None
    if isinstance(value, np.datetime64):
        return None if np.isnat(value) else str(np.datetime64(value, "D"))
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        if math.isnan(value):
            return None
        return value
    if isinstance(value, bool):
        return int(value)
    return value


def _sort_key(row: tuple) -> tuple:
    key = []
    for cell in row:
        if cell is None:
            key.append((0, ""))
        elif isinstance(cell, float):
            # Coarse rounding so float-association noise can't reorder rows.
            key.append((1, f"{cell:.3f}"))
        elif isinstance(cell, (int,)):
            key.append((1, f"{float(cell):.3f}"))
        else:
            key.append((2, str(cell)))
    return tuple(key)


def normalize_rows(rows: "Iterable[tuple]") -> list[tuple]:
    return sorted((tuple(norm_cell(c) for c in row) for row in rows),
                  key=_sort_key)


def _cells_equal(a: object, b: object, rel_tol: float, abs_tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=rel_tol, abs_tol=abs_tol)
    return a == b


def rows_equal(ours: list[tuple], theirs: list[tuple],
               rel_tol: float = 1e-6, abs_tol: float = 1e-6) -> tuple[bool, str]:
    if len(ours) != len(theirs):
        return False, f"row count {len(ours)} != {len(theirs)}"
    for i, (ra, rb) in enumerate(zip(ours, theirs)):
        if len(ra) != len(rb):
            return False, f"row {i}: arity {len(ra)} != {len(rb)}"
        for j, (a, b) in enumerate(zip(ra, rb)):
            if not _cells_equal(a, b, rel_tol, abs_tol):
                return False, f"row {i} col {j}: {a!r} != {b!r}"
    return True, ""


def chunk_rows(chunk: "Chunk") -> list[tuple]:
    """Raw row tuples of an engine :class:`~repro.sqlengine.table.Chunk`.

    ``tolist()`` would degrade datetime64 columns to integers, so date
    columns are iterated as numpy scalars (``normalize_rows`` / callers
    handle the NaT -> None folding).
    """
    if not chunk.ncols:
        return []
    return list(zip(*[arr.tolist() if arr.dtype.kind != "M" else list(arr)
                      for arr in chunk.arrays]))
