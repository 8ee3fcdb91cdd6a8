"""Tests for the execution trace EXPLAIN ANALYZE renders."""

import pytest

from repro import connect
from repro.sqlengine import EngineConfig


@pytest.fixture()
def db():
    db = connect()
    db.register("t", {"a": [1, 2, 3, 4], "b": ["x", "y", "x", "z"],
                      "c": [1.0, 2.0, 3.0, 4.0]}, primary_key="a")
    db.register("u", {"b": ["x", "y"], "w": [5, 6]})
    return db


class TestExplain:
    def test_pushdown_visible(self, db):
        plan = db.explain_analyze("SELECT a FROM t WHERE a > 2 AND b = 'x'")
        assert "2 predicate(s) pushed down" in plan
        assert "4 -> 1 rows" in plan

    def test_join_cardinalities(self, db):
        plan = db.explain_analyze("SELECT t.a FROM t, u WHERE t.b = u.b")
        assert "hash join" in plan
        assert "-> 3 rows" in plan

    def test_join_reorder_starts_from_smaller(self, db):
        plan = db.explain_analyze("SELECT t.a FROM t, u WHERE t.b = u.b",
                                  config=EngineConfig(join_reorder=True))
        # reordering starts from u (2 rows) and joins t into it
        assert "hash join + t" in plan

    def test_syntactic_order_without_reorder(self, db):
        plan = db.explain_analyze("SELECT t.a FROM t, u WHERE t.b = u.b",
                                  config=EngineConfig(join_reorder=False))
        assert "hash join + u" in plan

    def test_aggregate_and_sort(self, db):
        # ORDER BY + LIMIT fuses into the TopK operator by default.
        plan = db.explain_analyze("SELECT b, SUM(c) AS s FROM t GROUP BY b ORDER BY s LIMIT 2")
        assert "hash aggregate: 1 key(s)" in plan
        assert "top-k: 1 key(s)" in plan

    def test_aggregate_and_sort_without_topk_rewrite(self, db):
        plan = db.explain_analyze("SELECT b, SUM(c) AS s FROM t GROUP BY b ORDER BY s LIMIT 2",
                                  config=EngineConfig(topk_rewrite=False))
        assert "sort: 1 key(s)" in plan
        assert "limit: 2" in plan

    def test_set_op_trace(self, db):
        # INTERSECT is symmetric: the planner probes with the smaller side
        # (u, 2 rows), so the trace reports the swapped operand order.
        plan = db.explain_analyze("SELECT b FROM t INTERSECT SELECT b FROM u")
        assert "set op intersect: 2 vs 4 -> 2 rows" in plan

    def test_cte_materialization(self, db):
        plan = db.explain_analyze("WITH big(a) AS (SELECT a FROM t WHERE a > 1) "
                          "SELECT * FROM big")
        assert "materialize CTE big -> 3 rows" in plan

    def test_cartesian_product(self, db):
        plan = db.explain_analyze("SELECT t.a FROM t, u")
        assert "cartesian product" in plan
        assert "-> 8 rows" in plan

    def test_residual_filter(self, db):
        plan = db.explain_analyze("SELECT t.a FROM t, u WHERE t.b = u.b AND t.a + u.w > 6")
        assert "residual filter" in plan

    def test_execution_unaffected(self, db):
        sql = "SELECT b, COUNT(*) AS n FROM t GROUP BY b ORDER BY b"
        before = db.execute(sql).to_dict()
        db.explain_analyze(sql)
        assert db.execute(sql).to_dict() == before
