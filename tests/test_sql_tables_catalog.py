"""Unit tests for Table / Chunk / Catalog / Database plumbing."""

import numpy as np
import pytest

import repro.dataframe as rpd
from repro import connect
from repro.errors import SQLBindError
from repro.sqlengine import Catalog, EngineConfig, Table
from repro.sqlengine.table import Chunk


class TestTable:
    def test_construction_and_column(self):
        t = Table("t", {"a": [1, 2], "b": ["x", "y"]}, primary_key=["a"])
        assert t.nrows == 2
        assert t.column("b").tolist() == ["x", "y"]
        assert t.primary_key == ["a"]
        assert "a" in t.unique_columns

    def test_length_mismatch(self):
        with pytest.raises(SQLBindError):
            Table("t", {"a": [1, 2], "b": [1]})

    def test_unknown_column(self):
        t = Table("t", {"a": [1]})
        with pytest.raises(SQLBindError):
            t.column("zz")

    def test_composite_pk_not_marked_unique(self):
        t = Table("t", {"a": [1], "b": [2]}, primary_key=["a", "b"])
        assert t.unique_columns == set()

    def test_extra_unique_columns(self):
        t = Table("t", {"a": [1], "b": [2]}, unique=["b"])
        assert "b" in t.unique_columns


class TestChunk:
    def _chunk(self):
        return Chunk(["a", "b"], [np.array([1, 2, 3]), np.array([10.0, 20.0, 30.0])])

    def test_shape(self):
        c = self._chunk()
        assert c.nrows == 3 and c.ncols == 2

    def test_slot(self):
        assert self._chunk().slot("b") == 1
        with pytest.raises(SQLBindError):
            self._chunk().slot("zz")

    def test_take_mask_slice_head(self):
        c = self._chunk()
        assert c.take(np.array([2, 0])).arrays[0].tolist() == [3, 1]
        assert c.mask(np.array([True, False, True])).nrows == 2
        assert c.slice(1, 3).arrays[0].tolist() == [2, 3]
        assert c.head(1).nrows == 1

    def test_concat(self):
        c = self._chunk()
        both = Chunk.concat([c, c])
        assert both.nrows == 6

    def test_concat_promotes_dtypes(self):
        a = Chunk(["x"], [np.array([1, 2])])
        b = Chunk(["x"], [np.array([1.5])])
        out = Chunk.concat([a, b])
        assert out.arrays[0].dtype == np.float64

    def test_concat_empty(self):
        assert Chunk.concat([]).ncols == 0


class TestCatalogDatabase:
    def test_register_and_schema(self):
        db = connect()
        db.register("t", {"a": [1, 2], "b": ["x", "y"]}, primary_key="a")
        schema = db.schema("t")
        assert schema.columns == ["a", "b"]
        assert schema.is_unique("a") and not schema.is_unique("b")
        assert schema.nrows == 2

    def test_register_dataframe(self):
        db = connect()
        db.register("t", rpd.DataFrame({"a": [1], "b": ["x"]}))
        assert db.execute("SELECT * FROM t").shape == (1, 2)

    def test_drop_and_tables(self):
        db = connect()
        db.register("t", {"a": [1]})
        assert "t" in db.tables()
        db.drop("t")
        assert "t" not in db.tables()
        with pytest.raises(SQLBindError):
            db.execute("SELECT * FROM t")

    def test_replace_table(self):
        db = connect()
        db.register("t", {"a": [1]})
        db.register("t", {"a": [1, 2, 3]})
        assert len(db.execute("SELECT a FROM t")) == 3

    def test_catalog_no_replace(self):
        cat = Catalog()
        cat.register(Table("t", {"a": [1]}))
        with pytest.raises(SQLBindError):
            cat.register(Table("t", {"a": [2]}), replace=False)

    def test_with_config_shares_catalog(self):
        # A per-call config override runs over the same catalog and leaves
        # the database's own config alone.
        db = connect(EngineConfig(threads=1))
        db.register("t", {"a": [1]})
        out = db.execute("SELECT a FROM t", config=EngineConfig(threads=4))
        assert out["a"].tolist() == [1]
        assert db.config.threads == 1

    def test_estimated_rows(self):
        db = connect()
        db.register("t", {"a": [1, 2, 3]})
        assert db.catalog.estimated_rows("t") == 3


class TestWorkloadRegistry:
    def test_all_expected_workloads_registered(self):
        from repro.workloads import WORKLOADS

        expected = {"crime_index", "birth_analysis", "hybrid_covar_nf",
                    "hybrid_covar_f", "hybrid_mv_nf", "hybrid_mv_f", "n3", "n9"}
        assert expected <= set(WORKLOADS)

    def test_workload_register_helper(self):
        from repro.workloads import WORKLOADS

        w = WORKLOADS["n9"]
        data = w.make_data(scale=0.002)
        db = connect()
        w.register(db, data)
        for table in w.tables:
            assert table in db.tables()

    def test_make_data_scales(self):
        from repro.workloads import WORKLOADS

        w = WORKLOADS["crime_index"]
        small = w.make_data(scale=0.002)
        large = w.make_data(scale=0.01)
        assert len(large["crime_data"]["city_id"]) > len(small["crime_data"]["city_id"])
