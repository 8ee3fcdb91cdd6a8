"""Abstract syntax tree for the SQL dialect understood by the engine."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Union

__all__ = [
    "Expr", "Literal", "Parameter", "ColumnRef", "Star", "BinaryOp", "UnaryOp", "FuncCall",
    "AggCall", "CaseExpr", "CastExpr", "InList", "InSubquery", "ExistsExpr",
    "ScalarSubquery", "BetweenExpr", "IsNull", "LikeExpr", "WindowCall",
    "WindowFrame",
    "TableRef", "SubqueryRef", "JoinClause", "SelectItem", "OrderItem",
    "Select", "CompoundSelect", "SelectBody", "ValuesClause", "WithQuery",
    "Query", "children", "map_children", "walk", "walk_query", "clause_exprs",
    "output_name",
]


class Expr:
    """Base class for expression nodes.

    Every AST node class names, in ``_child_fields``, the fields that can
    hold other nodes, in dataclass field order; :func:`children`,
    :func:`map_children`, :func:`walk` and :func:`walk_query` read nothing
    else.  A new node or field is traversed once it is listed there.
    """

    _child_fields: tuple[str, ...] = ()


@dataclass
class Literal(Expr):
    value: object  # int | float | str | bool | None | numpy datetime64

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


@dataclass
class Parameter(Expr):
    """A bind-parameter placeholder: positional ``?`` or named ``:name``.

    Positional parameters carry a 0-based ``index`` assigned by the parser
    in left-to-right source order; named parameters carry ``name`` (several
    occurrences of the same name share one bound value).  The planner treats
    parameters as opaque scalars, so a compiled plan is reusable across
    executions with different values — the basis of prepared statements.
    """

    index: Optional[int] = None
    name: Optional[str] = None

    @property
    def key(self):
        """The binding key: the name for ``:name``, the index for ``?``."""
        return self.name if self.name is not None else self.index

    def __repr__(self) -> str:
        return f"Param(:{self.name})" if self.name is not None else f"Param(?{self.index})"


@dataclass
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None

    def __repr__(self) -> str:
        return f"Col({self.table + '.' if self.table else ''}{self.name})"


@dataclass
class Star(Expr):
    table: Optional[str] = None


@dataclass
class BinaryOp(Expr):
    op: str  # + - * / % = <> < <= > >= AND OR ||
    left: Expr
    right: Expr

    _child_fields = ("left", "right")


@dataclass
class UnaryOp(Expr):
    op: str  # NOT, -
    operand: Expr

    _child_fields = ("operand",)


@dataclass
class FuncCall(Expr):
    name: str
    args: list[Expr]

    _child_fields = ("args",)


@dataclass
class AggCall(Expr):
    func: str  # SUM MIN MAX AVG COUNT
    arg: Optional[Expr]  # None for COUNT(*)
    distinct: bool = False

    _child_fields = ("arg",)


@dataclass
class WindowFrame:
    """A ``ROWS``/``RANGE BETWEEN <bound> AND <bound>`` frame clause.

    Bound kinds are ``unbounded_preceding`` | ``preceding`` | ``current`` |
    ``following`` | ``unbounded_following``; offsets are row counts and are
    only meaningful for ``preceding``/``following``.
    """

    unit: str = "rows"  # "rows" | "range"
    start_kind: str = "unbounded_preceding"
    start_offset: int = 0
    end_kind: str = "current"
    end_offset: int = 0


@dataclass
class WindowCall(Expr):
    """``func(args) OVER (PARTITION BY ... ORDER BY ... [frame])``.

    ``func`` is one of the ranking functions (ROW_NUMBER, RANK, DENSE_RANK,
    NTILE), the offset functions (LAG, LEAD), or an aggregate (SUM, AVG,
    MIN, MAX, COUNT) applied as a window.  ``frame`` is None when no frame
    clause was written (the executor applies the SQL default frame).
    """

    func: str
    partition_by: list[Expr] = field(default_factory=list)
    order_by: list["OrderItem"] = field(default_factory=list)
    args: list[Expr] = field(default_factory=list)
    frame: Optional[WindowFrame] = None

    _child_fields = ("partition_by", "order_by", "args")


@dataclass
class CaseExpr(Expr):
    branches: list[tuple[Expr, Expr]]  # (condition, value)
    default: Optional[Expr]

    _child_fields = ("branches", "default")


@dataclass
class CastExpr(Expr):
    operand: Expr
    type_name: str

    _child_fields = ("operand",)


@dataclass
class InList(Expr):
    operand: Expr
    items: list[Expr]
    negated: bool = False

    _child_fields = ("operand", "items")


@dataclass
class InSubquery(Expr):
    operand: Expr
    query: "Select"
    negated: bool = False

    _child_fields = ("operand", "query")


@dataclass
class ExistsExpr(Expr):
    query: "Select"
    negated: bool = False

    _child_fields = ("query",)


@dataclass
class ScalarSubquery(Expr):
    query: "Select"

    _child_fields = ("query",)


@dataclass
class BetweenExpr(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    _child_fields = ("operand", "low", "high")


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    _child_fields = ("operand",)


@dataclass
class LikeExpr(Expr):
    """``operand [NOT] LIKE pattern [ESCAPE 'c']``.

    ``pattern`` is a string literal, a :class:`Parameter` placeholder
    (resolved to a string at bind time), or ``None`` when the pattern was
    the literal ``NULL`` (SQL: the whole predicate is NULL, i.e. no row
    matches).  ``escape`` is the single escape character of an ``ESCAPE``
    clause, if present.
    """

    operand: Expr
    pattern: Union[str, Parameter, None]
    negated: bool = False
    escape: Optional[str] = None

    _child_fields = ("operand", "pattern")


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

@dataclass
class TableRef:
    name: str
    alias: Optional[str] = None

    _child_fields = ()

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef:
    query: Union["Select", "ValuesClause"]
    alias: str
    column_names: Optional[list[str]] = None

    _child_fields = ("query",)

    @property
    def binding(self) -> str:
        return self.alias


@dataclass
class JoinClause:
    kind: str  # INNER LEFT RIGHT FULL CROSS
    relation: Union[TableRef, SubqueryRef]
    condition: Optional[Expr]

    _child_fields = ("relation", "condition")


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None

    _child_fields = ("expr",)


@dataclass
class OrderItem:
    expr: Expr
    ascending: bool = True

    _child_fields = ("expr",)


@dataclass
class Select:
    items: list[SelectItem]
    relations: list[Union[TableRef, SubqueryRef]] = field(default_factory=list)
    joins: list[JoinClause] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False

    _child_fields = ("items", "relations", "joins", "where", "group_by",
                     "having", "order_by")


@dataclass
class CompoundSelect:
    """A set operation between two select bodies.

    ``op`` is ``"union"`` | ``"intersect"`` | ``"except"``; ``all`` keeps
    duplicates (multiset semantics).  A trailing ``ORDER BY``/``LIMIT``
    written after the compound attaches here, never to the right operand
    (SQL's grammar: set operators bind tighter than ORDER BY).  Operands
    may themselves be compounds — ``INTERSECT`` binds tighter than
    ``UNION``/``EXCEPT``, which associate left.
    """

    op: str  # "union" | "intersect" | "except"
    all: bool
    left: "SelectBody"
    right: "SelectBody"
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None

    _child_fields = ("left", "right", "order_by")


# A query body: either a plain SELECT or a tree of set operations.
SelectBody = Union[Select, CompoundSelect]


@dataclass
class ValuesClause:
    rows: list[list[Expr]]

    _child_fields = ("rows",)


@dataclass
class WithQuery:
    name: str
    column_names: Optional[list[str]]
    query: Union[Select, CompoundSelect, ValuesClause]

    _child_fields = ("query",)


@dataclass
class Query:
    """A full statement: optional WITH chain plus the final body (a plain
    SELECT or a compound of set operations)."""

    ctes: list[WithQuery]
    body: SelectBody

    _child_fields = ("ctes", "body")


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

def children(expr: Expr) -> list[Expr]:
    """The direct expression children of *expr*, in field order.

    Subquery bodies are never entered: an ``InSubquery`` yields only its
    operand, and ``EXISTS``/scalar subqueries have no children.  A ``LIKE``
    pattern is a child when it is a :class:`Parameter`.
    """
    out: list[Expr] = []
    for name in expr._child_fields:
        value = getattr(expr, name)
        if isinstance(value, Expr):
            out.append(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Expr):
                    out.append(item)
                elif isinstance(item, OrderItem):
                    out.append(item.expr)
                else:  # a CASE (condition, value) branch
                    out.extend(item)
    return out


def map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """A shallow copy of *expr* whose every child (as :func:`children`
    yields them) is replaced by ``fn(child)``."""
    out = copy.copy(expr)
    for name in expr._child_fields:
        value = getattr(expr, name)
        if isinstance(value, Expr):
            setattr(out, name, fn(value))
        elif isinstance(value, list):
            setattr(out, name, [
                fn(item) if isinstance(item, Expr)
                else replace(item, expr=fn(item.expr)) if isinstance(item, OrderItem)
                else tuple(fn(e) for e in item)
                for item in value
            ])
    return out


def walk(expr: Expr, stop: tuple[type, ...] = ()) -> Iterator[Expr]:
    """Pre-order over *expr* and its descendants, subquery bodies excluded.

    Nodes whose type is in *stop* are yielded but not descended into.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if node._child_fields and not isinstance(node, stop):
            stack += reversed(children(node))


def walk_query(node: object) -> Iterator[object]:
    """Pre-order over every expression and clause node of a statement, in
    field order: CTEs, derived tables, VALUES rows and subquery bodies
    included."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        found: list[object] = []
        for name in node._child_fields:
            value = getattr(node, name)
            if isinstance(value, list):
                for item in value:  # VALUES rows and CASE branches nest once
                    if isinstance(item, (list, tuple)):
                        found.extend(item)
                    else:
                        found.append(item)
            elif value is not None and not isinstance(value, str):
                found.append(value)
        stack.extend(reversed(found))


def clause_exprs(select: Select) -> list[Expr]:
    """The top-level expressions of one SELECT: the non-star items, join
    conditions, WHERE, GROUP BY, HAVING and ORDER BY, in that order."""
    exprs = [it.expr for it in select.items if not isinstance(it.expr, Star)]
    exprs += [jc.condition for jc in select.joins if jc.condition is not None]
    if select.where is not None:
        exprs.append(select.where)
    exprs += select.group_by
    if select.having is not None:
        exprs.append(select.having)
    exprs += [o.expr for o in select.order_by]
    return exprs


def output_name(item: SelectItem, position: int) -> str:
    """A result column's name: the alias, else a bare column's name, else
    ``col<position>``."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, ColumnRef):
        return item.expr.name
    return f"col{position}"
