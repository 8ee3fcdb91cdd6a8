"""Normalization edge cases in the cross-backend comparison layer.

These helpers decide whether two engines "agree"; a bug here either hides
real divergences or reports phantom ones.  Pinned behaviours: NaN and NaT
fold to SQL NULL, numpy scalars unwrap, bools widen to ints, mixed-dtype
object columns compare cell-by-cell, and the row sort order tolerates
float association noise.
"""

from __future__ import annotations

import numpy as np

from repro.backends.rows import (
    chunk_rows, norm_cell, normalize_rows, rows_equal, to_python_cell,
)


class TestToPythonCell:
    def test_nan_becomes_null(self):
        assert to_python_cell(float("nan")) is None
        assert to_python_cell(np.float64("nan")) is None

    def test_nat_becomes_null(self):
        assert to_python_cell(np.datetime64("NaT")) is None

    def test_dates_become_iso_day_strings(self):
        assert to_python_cell(np.datetime64("2020-02-29")) == "2020-02-29"
        # Sub-day precision truncates to the day.
        assert to_python_cell(np.datetime64("2020-02-29T13:45")) == "2020-02-29"

    def test_numpy_scalars_unwrap(self):
        assert to_python_cell(np.int64(7)) == 7
        assert type(to_python_cell(np.int64(7))) is int
        assert to_python_cell(np.float64(2.5)) == 2.5
        assert type(to_python_cell(np.float64(2.5))) is float

    def test_none_and_str_pass_through(self):
        assert to_python_cell(None) is None
        assert to_python_cell("ok") == "ok"


class TestNormCell:
    def test_bool_widens_to_int(self):
        assert norm_cell(True) == 1 and norm_cell(False) == 0
        assert type(norm_cell(True)) is int

    def test_numpy_bool_widens_via_item(self):
        # np.bool_ .item() is a Python bool; normalize_rows sorts/compares
        # it equal to sqlite's 0/1 integers.
        a = normalize_rows([(np.bool_(True),)])
        b = normalize_rows([(1,)])
        assert rows_equal(a, b)[0]

    def test_nan_and_nat_fold(self):
        assert norm_cell(np.float64("nan")) is None
        assert norm_cell(np.datetime64("NaT")) is None


class TestNormalizeRows:
    def test_nulls_sort_first(self):
        rows = [("b",), (None,), ("a",)]
        assert normalize_rows(rows) == [(None,), ("a",), ("b",)]

    def test_mixed_dtype_object_column(self):
        # An object column can hold ints, floats, strings, and NULLs at
        # once (e.g. sqlite's dynamic typing); the sort key namespaces by
        # type class so ordering is total and deterministic.
        rows = [("x",), (2,), (None,), (1.5,)]
        out = normalize_rows(rows)
        assert out[0] == (None,)
        assert set(out) == {(None,), ("x",), (2,), (1.5,)}

    def test_float_noise_does_not_reorder(self):
        a = normalize_rows([(1.0000001, "a"), (1.0000002, "b")])
        b = normalize_rows([(1.0000002, "b"), (1.0000001, "a")])
        assert rows_equal(a, b)[0]


class TestRowsEqual:
    def test_null_only_matches_null(self):
        assert rows_equal([(None,)], [(None,)])[0]
        ok, detail = rows_equal([(None,)], [(0,)])
        assert not ok and "col 0" in detail

    def test_int_float_cross_type_tolerance(self):
        assert rows_equal([(1,)], [(1.0,)])[0]
        assert rows_equal([(10.0,)], [(10.0 + 1e-9,)])[0]
        assert not rows_equal([(10.0,)], [(10.1,)])[0]

    def test_count_and_arity_mismatches_reported(self):
        ok, detail = rows_equal([(1,)], [(1,), (2,)])
        assert not ok and "row count" in detail
        ok, detail = rows_equal([(1, 2)], [(1,)])
        assert not ok and "arity" in detail

    def test_mixed_dtype_rows(self):
        ours = [(1, "a", None, 2.0)]
        theirs = [(1.0, "a", None, 2)]
        assert rows_equal(normalize_rows(ours), normalize_rows(theirs))[0]


class TestChunkRows:
    def test_date_columns_stay_datetimes(self):
        from repro import connect

        db = connect()
        db.register("t", {
            "d": np.array(["2020-01-01", "NaT"], dtype="datetime64[D]"),
            "v": np.array([1.0, np.nan]),
        })
        chunk = db.execute_chunk("SELECT d, v FROM t")
        rows = chunk_rows(chunk)
        assert isinstance(rows[0][0], np.datetime64)
        # Normalization folds NaT/NaN; ISO strings for real dates.
        assert normalize_rows(rows) == [(None, None), ("2020-01-01", 1.0)]
