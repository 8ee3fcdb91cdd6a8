"""Unit tests for the SQL lexer, parser and AST traversal."""

import dataclasses
import typing

import numpy as np
import pytest

from repro.errors import SQLSyntaxError
from repro.sqlengine import sqlast
from repro.sqlengine.lexer import tokenize
from repro.sqlengine.parser import parse, parse_expression
from repro.sqlengine.sqlast import (
    AggCall, BetweenExpr, BinaryOp, CaseExpr, CastExpr, ColumnRef,
    CompoundSelect, ExistsExpr, Expr, FuncCall, InList, InSubquery, IsNull,
    LikeExpr, Literal, OrderItem, Parameter, ScalarSubquery, Select,
    SelectItem, Star, WindowCall, children, map_children, walk,
)


class TestLexer:
    def test_keywords_upper(self):
        toks = tokenize("select A from B")
        assert toks[0].kind == "KEYWORD" and toks[0].value == "SELECT"
        assert toks[1].kind == "IDENT" and toks[1].value == "A"

    def test_numbers(self):
        toks = tokenize("1 2.5 1e3 2.5E-2")
        assert [t.value for t in toks[:-1]] == ["1", "2.5", "1e3", "2.5E-2"]

    def test_string_with_escape(self):
        toks = tokenize("'it''s'")
        assert toks[0].kind == "STRING" and toks[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_two_char_operators(self):
        toks = tokenize("a <= b <> c || d")
        ops = [t.value for t in toks if t.kind == "OP"]
        assert ops == ["<=", "<>", "||"]

    def test_comments_skipped(self):
        toks = tokenize("SELECT 1 -- trailing\n/* block */ FROM t")
        kinds = [t.value for t in toks if t.kind == "KEYWORD"]
        assert kinds == ["SELECT", "FROM"]

    def test_quoted_identifier(self):
        toks = tokenize('"weird name"')
        assert toks[0].kind == "IDENT" and toks[0].value == "weird name"

    def test_bad_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @")

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "EOF"


class TestExpressionParsing:
    def test_precedence_mul_before_add(self):
        e = parse_expression("1 + 2 * 3")
        assert isinstance(e, BinaryOp) and e.op == "+"
        assert isinstance(e.right, BinaryOp) and e.right.op == "*"

    def test_parens(self):
        e = parse_expression("(1 + 2) * 3")
        assert e.op == "*"

    def test_and_or_precedence(self):
        e = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert e.op == "OR"
        assert isinstance(e.right, BinaryOp) and e.right.op == "AND"

    def test_not(self):
        e = parse_expression("NOT a = 1")
        assert e.op == "NOT"

    def test_comparison_chain_rejected(self):
        # standard SQL has no chained comparisons; parser treats as nested
        e = parse_expression("a < b")
        assert e.op == "<"

    def test_like(self):
        e = parse_expression("name LIKE '%green%'")
        assert isinstance(e, LikeExpr) and not e.negated

    def test_not_like(self):
        e = parse_expression("name NOT LIKE 'x%'")
        assert isinstance(e, LikeExpr) and e.negated

    def test_in_list(self):
        e = parse_expression("x IN (1, 2, 3)")
        assert isinstance(e, InList) and len(e.items) == 3

    def test_not_in_list(self):
        e = parse_expression("x NOT IN (1)")
        assert isinstance(e, InList) and e.negated

    def test_in_subquery(self):
        e = parse_expression("x IN (SELECT y FROM t)")
        assert isinstance(e, InSubquery)

    def test_between(self):
        e = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(e, BetweenExpr)

    def test_is_null(self):
        assert isinstance(parse_expression("x IS NULL"), IsNull)
        e = parse_expression("x IS NOT NULL")
        assert isinstance(e, IsNull) and e.negated

    def test_case_when(self):
        e = parse_expression("CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END")
        assert isinstance(e, CaseExpr)
        assert len(e.branches) == 2
        assert isinstance(e.default, Literal)

    def test_cast(self):
        e = parse_expression("CAST(x AS DOUBLE)")
        assert isinstance(e, CastExpr) and e.type_name == "DOUBLE"

    def test_cast_parameterized(self):
        e = parse_expression("CAST(x AS DECIMAL(12, 2))")
        assert e.type_name == "DECIMAL"

    def test_extract(self):
        e = parse_expression("EXTRACT(YEAR FROM d)")
        assert isinstance(e, FuncCall) and e.name == "EXTRACT_YEAR"

    def test_date_literal(self):
        e = parse_expression("DATE '1994-01-01'")
        assert isinstance(e, Literal) and isinstance(e.value, np.datetime64)

    def test_interval(self):
        e = parse_expression("INTERVAL '3' DAY")
        assert isinstance(e, FuncCall) and e.name == "INTERVAL"

    def test_exists(self):
        e = parse_expression("EXISTS (SELECT 1 FROM t)")
        assert isinstance(e, ExistsExpr)

    def test_scalar_subquery(self):
        e = parse_expression("(SELECT MAX(x) FROM t)")
        assert isinstance(e, ScalarSubquery)

    def test_agg_calls(self):
        assert parse_expression("COUNT(*)").arg is None
        e = parse_expression("COUNT(DISTINCT x)")
        assert isinstance(e, AggCall) and e.distinct
        assert parse_expression("SUM(a + b)").func == "SUM"

    def test_window(self):
        e = parse_expression("ROW_NUMBER() OVER (PARTITION BY a ORDER BY b DESC)")
        assert isinstance(e, WindowCall)
        assert len(e.partition_by) == 1
        assert e.order_by[0].ascending is False

    def test_window_offset_functions_take_args(self):
        e = parse_expression("LAG(x, 2, 0) OVER (PARTITION BY g ORDER BY t)")
        assert isinstance(e, WindowCall) and e.func == "LAG"
        assert len(e.args) == 3
        lead = parse_expression("LEAD(x) OVER (ORDER BY t)")
        assert lead.func == "LEAD" and len(lead.args) == 1
        ntile = parse_expression("NTILE(4) OVER (ORDER BY t)")
        assert ntile.func == "NTILE"

    def test_aggregate_over_becomes_window(self):
        e = parse_expression("SUM(x) OVER (PARTITION BY g)")
        assert isinstance(e, WindowCall) and e.func == "SUM"
        assert len(e.args) == 1 and e.frame is None
        star = parse_expression("COUNT(*) OVER (PARTITION BY g)")
        assert isinstance(star, WindowCall) and star.args == []
        plain = parse_expression("SUM(x)")
        assert isinstance(plain, AggCall)

    def test_distinct_window_aggregate_rejected(self):
        # sqlite (the differential oracle) rejects this too; silently
        # dropping DISTINCT would return wrong data.
        with pytest.raises(SQLSyntaxError):
            parse_expression("COUNT(DISTINCT x) OVER (PARTITION BY g)")

    def test_star_only_valid_for_count_window(self):
        # SUM(*)/AVG(*) OVER would silently degrade to COUNT(*) otherwise.
        with pytest.raises(SQLSyntaxError):
            parse_expression("SUM(*) OVER (PARTITION BY g)")

    def test_frame_words_stay_usable_as_identifiers(self):
        # ROWS/RANGE/CURRENT/ROW/... are contextual, not reserved.
        for word in ("range", "row", "rows", "current", "preceding",
                     "following", "unbounded"):
            e = parse_expression(word)
            assert isinstance(e, ColumnRef) and e.name == word

    def test_window_frame_clause(self):
        e = parse_expression(
            "SUM(x) OVER (ORDER BY t ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)")
        f = e.frame
        assert f.unit == "rows"
        assert (f.start_kind, f.start_offset) == ("preceding", 3)
        assert (f.end_kind, f.end_offset) == ("current", 0)
        e2 = parse_expression(
            "SUM(x) OVER (ORDER BY t ROWS BETWEEN UNBOUNDED PRECEDING "
            "AND UNBOUNDED FOLLOWING)")
        assert e2.frame.start_kind == "unbounded_preceding"
        assert e2.frame.end_kind == "unbounded_following"
        shorthand = parse_expression("SUM(x) OVER (ORDER BY t ROWS 2 PRECEDING)")
        assert (shorthand.frame.start_kind, shorthand.frame.start_offset) == \
            ("preceding", 2)
        assert shorthand.frame.end_kind == "current"

    def test_qualified_column(self):
        e = parse_expression("t1.col")
        assert isinstance(e, ColumnRef) and e.table == "t1"

    def test_concat_operator(self):
        assert parse_expression("a || b").op == "||"

    def test_unary_minus(self):
        e = parse_expression("-x")
        assert e.op == "-"


class TestStatementParsing:
    def test_simple_select(self):
        q = parse("SELECT a, b AS bee FROM t WHERE a > 1")
        assert len(q.body.items) == 2
        assert q.body.items[1].alias == "bee"
        assert q.body.relations[0].name == "t"

    def test_star(self):
        q = parse("SELECT * FROM t")
        assert isinstance(q.body.items[0].expr, Star)

    def test_qualified_star(self):
        q = parse("SELECT t.* FROM t")
        assert q.body.items[0].expr.table == "t"

    def test_implicit_alias(self):
        q = parse("SELECT a FROM mytable m")
        assert q.body.relations[0].alias == "m"

    def test_comma_join(self):
        q = parse("SELECT 1 FROM a, b, c")
        assert len(q.body.relations) == 3

    def test_explicit_joins(self):
        q = parse("SELECT 1 FROM a LEFT JOIN b ON a.x = b.y JOIN c ON c.z = a.x")
        assert [j.kind for j in q.body.joins] == ["LEFT", "INNER"]

    def test_join_requires_on(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT 1 FROM a JOIN b")

    def test_group_having_order_limit(self):
        q = parse("SELECT k, SUM(v) AS s FROM t GROUP BY k HAVING SUM(v) > 3 "
                  "ORDER BY s DESC, k LIMIT 7")
        assert len(q.body.group_by) == 1
        assert q.body.having is not None
        assert q.body.order_by[0].ascending is False
        assert q.body.limit == 7

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").body.distinct

    def test_with_chain(self):
        q = parse("WITH x(a) AS (SELECT 1), y AS (SELECT a FROM x) SELECT * FROM y")
        assert [c.name for c in q.ctes] == ["x", "y"]
        assert q.ctes[0].column_names == ["a"]

    def test_with_values(self):
        q = parse("WITH v(n, s) AS (VALUES (1, 'a'), (2, 'b')) SELECT * FROM v")
        assert len(q.ctes[0].query.rows) == 2

    def test_cte_brace_syntax(self):
        # The paper's examples write CTE bodies in { ... }.
        q = parse("WITH r1(a) AS { SELECT 1 } SELECT * FROM r1")
        assert q.ctes[0].name == "r1"

    def test_subquery_in_from(self):
        q = parse("SELECT s.a FROM (SELECT 1 AS a) AS s")
        assert q.body.relations[0].alias == "s"

    def test_trailing_garbage(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT 1 FROM t extra grabage ,")

    def test_semicolon_ok(self):
        parse("SELECT 1;")


class TestCompoundSelectParsing:
    def test_union_all(self):
        q = parse("SELECT a FROM t UNION ALL SELECT b FROM u")
        body = q.body
        assert isinstance(body, CompoundSelect)
        assert body.op == "union" and body.all
        assert body.left.relations[0].name == "t"
        assert body.right.relations[0].name == "u"

    def test_all_six_forms(self):
        for text, op, all_ in [("UNION", "union", False),
                               ("UNION ALL", "union", True),
                               ("INTERSECT", "intersect", False),
                               ("INTERSECT ALL", "intersect", True),
                               ("EXCEPT", "except", False),
                               ("EXCEPT ALL", "except", True)]:
            body = parse(f"SELECT a FROM t {text} SELECT b FROM u").body
            assert (body.op, body.all) == (op, all_)

    def test_union_associates_left(self):
        body = parse("SELECT a FROM t UNION SELECT b FROM u "
                     "EXCEPT SELECT c FROM v").body
        assert body.op == "except"
        assert isinstance(body.left, CompoundSelect)
        assert body.left.op == "union"

    def test_intersect_binds_tighter(self):
        body = parse("SELECT a FROM t UNION SELECT b FROM u "
                     "INTERSECT SELECT c FROM v").body
        assert body.op == "union"
        assert isinstance(body.right, CompoundSelect)
        assert body.right.op == "intersect"
        assert isinstance(body.left, Select)

    def test_trailing_order_limit_attach_to_compound(self):
        body = parse("SELECT a FROM t UNION SELECT b FROM u "
                     "ORDER BY a DESC LIMIT 3").body
        assert isinstance(body, CompoundSelect)
        assert body.limit == 3
        assert body.order_by[0].ascending is False
        assert body.left.order_by == [] and body.left.limit is None
        assert body.right.order_by == [] and body.right.limit is None

    def test_order_by_before_set_op_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM t ORDER BY a UNION SELECT b FROM u")

    def test_compound_in_subquery_positions(self):
        q = parse("SELECT x FROM (SELECT a FROM t UNION SELECT b FROM u) AS s "
                  "WHERE x IN (SELECT c FROM v EXCEPT SELECT d FROM w)")
        assert isinstance(q.body.relations[0].query, CompoundSelect)
        assert isinstance(q.body.where.query, CompoundSelect)


class TestLikeParsing:
    def test_escape_clause(self):
        e = parse_expression("name LIKE '10!%' ESCAPE '!'")
        assert isinstance(e, LikeExpr)
        assert e.pattern == "10!%" and e.escape == "!"

    def test_null_pattern(self):
        e = parse_expression("name LIKE NULL")
        assert isinstance(e, LikeExpr) and e.pattern is None

    def test_not_like_escape(self):
        e = parse_expression("name NOT LIKE 'a!_b' ESCAPE '!'")
        assert e.negated and e.escape == "!"

    def test_escape_requires_single_char(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("name LIKE 'x' ESCAPE 'ab'")


# ---------------------------------------------------------------------------
# Traversal: ``_child_fields`` is the one definition of a node's children
# ---------------------------------------------------------------------------

_NODE_CLASSES = [c for c in vars(sqlast).values()
                 if isinstance(c, type) and dataclasses.is_dataclass(c)
                 and c.__module__ == sqlast.__name__]
_EXPR_CLASSES = [c for c in _NODE_CLASSES if issubclass(c, Expr)]


def _mentions_node(hint) -> bool:
    if isinstance(hint, type):
        return hasattr(hint, "_child_fields")
    return any(_mentions_node(arg) for arg in typing.get_args(hint))


def _filled(hint, expected: list):
    """A value of type *hint* whose expression parts are fresh nodes; the
    ones that must be children are appended to *expected* in order."""
    if hint is Expr or hint is Parameter:
        node = Parameter(name=f"p{len(expected)}")
        expected.append(node)
        return node
    if hint is OrderItem:
        return OrderItem(_filled(Expr, expected))
    if hint is Select:  # a subquery body: never a child
        return Select(items=[SelectItem(Literal("inside the body"))])
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        return [_filled(args[0], expected), _filled(args[0], expected)]
    if origin is tuple:
        return tuple(_filled(arg, expected) for arg in args)
    if origin is typing.Union:
        nodes = [arg for arg in args if _mentions_node(arg)]
        return _filled(nodes[0], expected) if nodes else None
    if hint in (str, bool, int, object):
        return hint()
    raise AssertionError(f"no test value for {hint!r}: extend _filled")


class TestChildren:
    @pytest.mark.parametrize("cls", _EXPR_CLASSES, ids=lambda c: c.__name__)
    def test_children_yields_every_expression_field(self, cls):
        # Fails when a node or field is added without listing it in the
        # class's _child_fields (or without teaching _filled its type).
        expected: list = []
        hints = typing.get_type_hints(cls)
        node = cls(**{f.name: _filled(hints[f.name], expected)
                      for f in dataclasses.fields(cls)})
        assert [id(c) for c in children(node)] == [id(e) for e in expected]
        copied = map_children(node, lambda c: Literal(c.name))
        assert [c.value for c in children(copied)] == [e.name for e in expected]

    @pytest.mark.parametrize("cls", _NODE_CLASSES, ids=lambda c: c.__name__)
    def test_child_fields_name_every_node_field(self, cls):
        hints = typing.get_type_hints(cls)
        node_fields = tuple(f.name for f in dataclasses.fields(cls)
                            if _mentions_node(hints[f.name]))
        assert getattr(cls, "_child_fields", ()) == node_fields

    def test_walk_is_preorder_and_never_enters_subqueries(self):
        expr = parse_expression(
            "CASE WHEN a IN (b, (SELECT c FROM t)) THEN SUM(d) END")
        names = [type(e).__name__ for e in walk(expr)]
        assert names == ["CaseExpr", "InList", "ColumnRef", "ColumnRef",
                         "ScalarSubquery", "AggCall", "ColumnRef"]
        assert [type(e).__name__ for e in walk(expr, (AggCall, InList))] == [
            "CaseExpr", "InList", "AggCall"]
