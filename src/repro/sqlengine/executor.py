"""The query executor: drives physical plans produced by the planner.

Layering (see ``docs/ARCHITECTURE.md``): the :mod:`.planner` compiles each
``SELECT`` body into a :class:`~.plan.PhysicalPlan` (pushdown, projection
pruning, cardinality-estimated join ordering); this module executes those
plans and owns the pieces that need run-time data — subquery evaluation and
projection/aggregation expression evaluation.  Window functions are handled
by the dedicated :class:`~.plan.Window` operator (kernels in
:mod:`.window`), not here.

The simulated backends (``duckdb``/``hyper``/``lingodb`` in
:mod:`repro.backends.presets`) are :class:`EngineConfig` presets of this one
engine: they differ in planning knobs (join re-ordering by estimated
cardinality — a "more advanced planner", which is how the paper explains
Hyper's edge over DuckDB — and window support) and SQL dialect.  Filters,
projections, hash-join probes and hash-aggregate reductions evaluate whole
columns, partitioned across a shared thread pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from operator import attrgetter

import numpy as np

from ..errors import (
    QueryCancelledError, QueryTimeoutError, SQLBindError, SQLExecutionError,
    UnsupportedFeatureError,
)
from .catalog import Catalog
from .expressions import Evaluator, Scope, expr_columns, expr_key
from .grouping import factorize_many, parallel_group_reduce
from .joins import semi_join_mask
from .parallel import parallel_arrays, parallel_map
from .plan import ExecContext, PhysicalPlan
from .planner import (
    Planner, RelSchema, _conjoin, has_subquery, has_window, split_conjuncts,
)
from .sqlast import (
    AggCall, BinaryOp, ColumnRef, CompoundSelect, Expr, Query, Select,
    SelectItem, Star, TableRef, ValuesClause, output_name,
)
from .table import Chunk

__all__ = ["EngineConfig", "Executor"]


@dataclass(frozen=True)
class EngineConfig:
    """Static behaviour knobs for a simulated backend."""

    name: str = "engine"
    threads: int = 1
    join_reorder: bool = True
    supports_window: bool = True
    # Maximum number of (sql, config) entries the Database-level plan cache
    # retains; least-recently-used entries are evicted beyond this bound
    # (a long-lived server must not let the cache grow with the query log).
    plan_cache_size: int = 256
    # Whether ORDER BY + LIMIT fuses into the parallel TopK operator.
    topk_rewrite: bool = True
    # Whether the planner rewrites IN/NOT IN/EXISTS/NOT EXISTS and scalar
    # subqueries into SemiJoin/AntiJoin/MarkJoin/ScalarSubqueryScan plan
    # nodes; off, every subquery runs through the residual interpreter path.
    subquery_decorrelate: bool = True
    # Out-of-core execution (see repro.storage): when set, a HashJoin whose
    # smaller input or a HashAggregate whose input exceeds this many bytes
    # runs the grace-partition spill-to-disk path instead of building its
    # hash state over the whole relation at once.  None = RAM-unbounded.
    memory_budget: int | None = None
    # Grace-partition fan-out for spilled joins/aggregates (>= 2).
    spill_partitions: int = 8
    # Whether the planner drops stored-table chunks whose zone maps
    # (per-chunk min/max stats) cannot satisfy the pushed-down predicates.
    zone_map_pruning: bool = True
    # Whether every freshly compiled plan is checked by the static plan
    # verifier (repro.analysis.plan_verifier) before it is cached or
    # executed.  A violation raises PlanInvariantError — always a planner
    # bug, never a user error.  Cheap (pure tree walk, no execution), so
    # it stays on by default in tests, fuzzing, and EXPLAIN.
    verify_plans: bool = True
    # Adaptive runtime re-optimization (docs/ARCHITECTURE.md "Adaptive
    # execution"): comma-join trees compile to an AdaptiveJoin operator
    # that observes each source's *actual* post-filter cardinality and,
    # when an observation diverges from the static estimate beyond
    # adaptive_ratio, re-runs the greedy join ordering over the remaining
    # joins mid-query (the rebuilt subtree is re-verified before it
    # executes).  Also enables build-side-swap reporting and empty-outer
    # semi-join short-circuits.  Results are identical to static execution
    # up to row order.
    adaptive_execution: bool = False
    # Divergence threshold for re-planning: the larger of actual/est and
    # est/actual must exceed this ratio before a re-plan fires.
    adaptive_ratio: float = 8.0
    # Multi-process sharded execution (repro.server.shard): when > 0, a
    # ShardedDatabase scatters shardable aggregate/Top-K queries over this
    # many engine worker processes (stored-table chunks range-partitioned,
    # partials gathered with the partial-merge kernels) and falls back to
    # serial in-process execution for every other shape.  0 = serial.
    shard_workers: int = 0

    def plan_fingerprint(self) -> tuple:
        """Canonical identity of this config for plan-cache keying.

        Every field except the runtime-scaling ``threads`` (plans are
        explicitly independent of it) and the cache-policy
        ``plan_cache_size``.  Two different backend profiles therefore
        never share a cache entry — reusing a plan compiled under another
        profile could smuggle in the wrong join order or a feature (window
        functions) the executing backend must reject.  Knobs that change no
        plan shape still count: ``verify_plans`` gates whether a plan was
        admitted through the static verifier, ``adaptive_ratio`` is runtime
        behaviour a cached AdaptiveJoin carries with it, and
        ``shard_workers`` keys the scatter-or-serial decision.
        """
        return _planning_fields(self)


_planning_fields = attrgetter(*(
    f.name for f in fields(EngineConfig)
    if f.name not in ("threads", "plan_cache_size")
))


class Executor:
    """Executes parsed queries against a catalog.

    ``plans`` is the shared plan map — ``id(Select) -> PhysicalPlan`` —
    owned by a :class:`~.database.Database` plan-cache entry, which keeps
    the parsed AST alive (caching by id() is only safe while it is).
    """

    def __init__(self, catalog: Catalog, config: EngineConfig,
                 plans: dict[int, PhysicalPlan],
                 params: dict | None = None,
                 cancel_event=None, deadline: float | None = None,
                 stats=None):
        self.catalog = catalog
        self.config = config
        self.plans = plans
        # Bound placeholder values for this execution ({index_or_name:
        # scalar}); reaches every Evaluator the operators construct.
        self.params = params
        # Cooperative cancellation: a threading.Event checked (with the
        # monotonic deadline) at operator boundaries via check_runtime().
        self.cancel_event = cancel_event
        self.deadline = deadline
        # Per-execution RuntimeStats sink (EXPLAIN ANALYZE / adaptive
        # execution); operators record actual cardinalities, timings and
        # trace notes into it.  None = zero-overhead execution.
        self.stats = stats

    def check_runtime(self) -> None:
        """Raise when this execution was cancelled or ran past its deadline.

        Called by operators between pipeline stages (cooperative: a stage
        already running on the worker pools finishes before the check
        fires), so cancellation latency is one operator, not one query.
        """
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise QueryCancelledError("query cancelled")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeoutError("query exceeded its timeout")

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> Chunk:
        env: dict[str, Chunk] = {}
        for cte in query.ctes:
            chunk = self._execute_body(cte.query, env)
            if cte.column_names is not None:
                if len(cte.column_names) != chunk.ncols:
                    raise SQLBindError(
                        f"CTE {cte.name!r} declares {len(cte.column_names)} columns "
                        f"but produces {chunk.ncols}"
                    )
                chunk = Chunk(list(cte.column_names), chunk.arrays)
            if self.stats is not None:
                self.stats.note(f"materialize CTE {cte.name} -> {chunk.nrows} "
                                f"rows x {chunk.ncols} cols")
            env[cte.name] = chunk
        return self._execute_select(query.body, env)

    def _execute_body(self, body, env: dict[str, Chunk]) -> Chunk:
        if isinstance(body, ValuesClause):
            return self._execute_values(body)
        return self._execute_select(body, env)

    def _execute_values(self, values: ValuesClause) -> Chunk:
        dummy = Chunk(["__one"], [np.zeros(1, dtype=np.int64)])
        evaluator = Evaluator(dummy, Scope(), params=self.params)
        ncols = len(values.rows[0])
        columns = [f"col{i}" for i in range(ncols)]
        raw_cols: list[list] = [[] for _ in range(ncols)]
        for row in values.rows:
            if len(row) != ncols:
                raise SQLBindError("VALUES rows have inconsistent arity")
            for i, expr in enumerate(row):
                raw_cols[i].append(evaluator.eval(expr))
        from ..dataframe._common import coerce_array

        return Chunk(columns, [coerce_array(np.array(c, dtype=object)) for c in raw_cols])

    # ------------------------------------------------------------------
    # Plan-driven SELECT execution
    # ------------------------------------------------------------------
    def plan_for(self, select, env: dict[str, Chunk],
                 cacheable: bool = True) -> PhysicalPlan:
        """Fetch (or build and remember) the physical plan for a body
        (a plain SELECT or a compound select)."""
        plan = self.plans.get(id(select))
        if plan is not None:
            plan.cache_hits += 1
            if self.stats is not None:
                self.stats.note("plan cache hit: reusing compiled plan")
            return plan
        env_schemas = {
            name: RelSchema(list(c.columns), float(c.nrows))
            for name, c in env.items()
        }
        plan = Planner(self.catalog, self.config).plan_body(select, env_schemas)
        if self.config.verify_plans:
            # Static invariant check before the plan is cached or executed;
            # env chunks carry materialized dtypes, so CTE columns verify
            # with full kind information.
            from ..analysis import verify_plan

            verify_plan(plan, self.catalog, self.config, env)
        if cacheable:
            self.plans[id(select)] = plan
            # Derived-table bodies were planned as part of this plan; register
            # their subplans so SubqueryScan execution reuses them.
            for body, subplan in plan.subquery_plans():
                self.plans.setdefault(id(body), subplan)
        return plan

    def _execute_select(self, select, env: dict[str, Chunk],
                        cacheable: bool = True) -> Chunk:
        """Execute a SELECT or compound-select body through its plan."""
        plan = self.plan_for(select, env, cacheable=cacheable)
        if self.stats is not None:
            self.stats.record_plan(plan)
        return plan.execute(ExecContext(self, env))

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def _expand_items(self, select: Select, chunk: Chunk, scope: Scope) -> list[SelectItem]:
        items: list[SelectItem] = []
        for item in select.items:
            if isinstance(item.expr, Star):
                for col in chunk.columns:
                    if col.startswith(("__mark_", "__scalar_")):
                        continue  # planner-introduced mark/scalar columns
                    if item.expr.table is not None:
                        slot = scope.qualified.get((item.expr.table, col))
                        if slot is None:
                            continue
                    items.append(SelectItem(expr=ColumnRef(name=col, table=item.expr.table), alias=col))
            else:
                items.append(item)
        return items

    def _project_plain(self, select: Select, chunk: Chunk, scope: Scope, subquery_cb, window_values):
        items = self._expand_items(select, chunk, scope)
        names = [output_name(it, i) for i, it in enumerate(items)]
        n = chunk.nrows
        threads = self.config.threads
        params = self.params
        simple = not window_values and not any(has_subquery(it.expr) for it in items)

        if simple and n > 1:
            def make_arrays(start: int, stop: int) -> list[np.ndarray]:
                sub = chunk.slice(start, stop)
                ev = Evaluator(sub, scope, subquery_executor=subquery_cb,
                               params=params)
                return [ev.eval_array(it.expr) for it in items]

            arrays = parallel_arrays(n, threads, make_arrays)
            evaluator = Evaluator(chunk, scope, subquery_executor=subquery_cb,
                                  params=params)
        else:
            evaluator = Evaluator(chunk, scope, subquery_executor=subquery_cb,
                                  params=params)
            evaluator.precomputed = window_values
            arrays = [evaluator.eval_array(it.expr) for it in items]
        return Chunk(names, arrays), evaluator

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    _PARALLEL_AGG_FUNCS = {"SUM": "sum", "AVG": "mean", "MIN": "min",
                           "MAX": "max", "COUNT": "count"}

    def _parallel_aggregate(self, expr: Expr, evaluator: Evaluator,
                            gids: np.ndarray, ngroups: int) -> np.ndarray | None:
        """Morsel-parallel partial reduction for a bare aggregate item.

        Returns ``None`` when *expr* isn't a plain partial-mergeable
        aggregate; the caller falls back to the grouped evaluator.
        """
        if not isinstance(expr, AggCall) or expr.distinct:
            return None
        func = self._PARALLEL_AGG_FUNCS.get(expr.func)
        if func is None:
            return None
        if expr.arg is None:
            if expr.func != "COUNT":
                return None
            return parallel_group_reduce(None, gids, ngroups, "size",
                                         self.config.threads)
        if has_subquery(expr.arg) or has_window(expr.arg):
            return None
        saved = (evaluator.gids, evaluator.ngroups, evaluator.group_first)
        evaluator.gids = None
        try:
            arg = evaluator.eval_array(expr.arg)
        finally:
            evaluator.gids, evaluator.ngroups, evaluator.group_first = saved
        return parallel_group_reduce(arg, gids, ngroups, func,
                                     self.config.threads,
                                     sql_null_empty=(func == "sum"))

    def _project_grouped(self, select: Select, chunk: Chunk, scope: Scope, subquery_cb, window_values):
        items = self._expand_items(select, chunk, scope)
        names = [output_name(it, i) for i, it in enumerate(items)]

        evaluator = Evaluator(chunk, scope, subquery_executor=subquery_cb,
                              params=self.params)
        if select.group_by:
            key_arrays = [evaluator.eval_array(g) for g in select.group_by]
            gids, key_uniques, ngroups = factorize_many(key_arrays)
        else:
            # A global aggregate always yields exactly one row (NULL/0 on
            # empty input), matching SQL semantics.
            gids = np.zeros(chunk.nrows, dtype=np.int64)
            ngroups = 1
            key_uniques = []
        group_first = np.zeros(ngroups, dtype=np.int64)
        if chunk.nrows:
            # First occurrence of each group id: assign positions in reverse
            # order so the smallest position is written last and wins.
            positions = np.arange(chunk.nrows - 1, -1, -1, dtype=np.int64)
            group_first = np.zeros(ngroups, dtype=np.int64)
            group_first[gids[positions]] = positions
        if self.stats is not None:
            self.stats.note(f"hash aggregate: {len(select.group_by)} key(s), "
                            f"{chunk.nrows} rows -> {ngroups} groups")
        evaluator.gids = gids
        evaluator.ngroups = ngroups
        evaluator.group_first = group_first
        for gexpr, uniq in zip(select.group_by, key_uniques):
            evaluator.group_key_values[expr_key(gexpr)] = uniq

        parallel = self.config.threads > 1 and chunk.nrows >= 4096
        arrays: list[np.ndarray | None] = [None] * len(items)
        pending: list[tuple[int, SelectItem]] = []
        serial: list[tuple[int, SelectItem]] = []
        for i, it in enumerate(items):
            if parallel:
                arrays[i] = self._parallel_aggregate(it.expr, evaluator, gids, ngroups)
            if arrays[i] is None:
                # Items with subqueries must stay off the worker pool: the
                # nested query runs its own parallel operators on the same
                # pool, and a worker blocking on futures queued behind
                # itself deadlocks.
                (serial if has_subquery(it.expr) else pending).append((i, it))

        if parallel and len(pending) > 1:
            # Remaining expressions are independent: evaluate them across
            # the worker pool (NumPy reductions release the GIL).
            def eval_item(it):
                ev = Evaluator(chunk, scope, subquery_executor=subquery_cb,
                               params=self.params)
                ev.gids = gids
                ev.ngroups = ngroups
                ev.group_first = group_first
                ev.group_key_values = evaluator.group_key_values
                return ev.eval_array(it.expr)

            results = parallel_map(self.config.threads, eval_item,
                                   [it for _, it in pending])
            for (i, _), arr in zip(pending, results):
                arrays[i] = arr
        else:
            serial = pending + serial
        for i, it in serial:
            arrays[i] = evaluator.eval_array(it.expr)
        out = Chunk(names, arrays)

        if select.having is not None:
            mask = evaluator.eval_mask(select.having)
            out = out.mask(mask)
            evaluator._having_mask = mask  # type: ignore[attr-defined]
        return out, evaluator

    # ------------------------------------------------------------------
    # ORDER BY / LIMIT
    # ------------------------------------------------------------------
    def _order_arrays(self, order_by, out_chunk: Chunk,
                      order_eval: Evaluator | None):
        """Evaluate ORDER BY keys over the projected output, falling back
        to the pre-projection evaluator for non-projected expressions.
        Shared by the Sort and TopK operators; returns
        ``(arrays, ascendings)``."""
        arrays: list[np.ndarray] = []
        ascendings: list[bool] = []
        out_names = {c: i for i, c in enumerate(out_chunk.columns)}
        for item in order_by:
            expr = item.expr
            arr = None
            if isinstance(expr, ColumnRef) and expr.table is None and expr.name in out_names:
                arr = out_chunk.arrays[out_names[expr.name]]
            elif order_eval is not None:
                try:
                    arr = order_eval.eval_array(expr)
                    having_mask = getattr(order_eval, "_having_mask", None)
                    if having_mask is not None and len(arr) == len(having_mask):
                        arr = arr[having_mask]
                except SQLBindError:
                    arr = None
            if arr is None or len(arr) != out_chunk.nrows:
                raise SQLBindError(f"cannot evaluate ORDER BY expression {expr!r}")
            arrays.append(arr)
            ascendings.append(item.ascending)
        return arrays, ascendings

    # ------------------------------------------------------------------
    # Subqueries
    # ------------------------------------------------------------------
    def _subquery(self, kind: str, select: Select, env, outer_eval: Evaluator, operand):
        if kind == "scalar":
            chunk = self._execute_select(select, env)
            if chunk.nrows > 1:
                raise SQLExecutionError(
                    f"scalar subquery returned {chunk.nrows} rows "
                    "(expected at most one)"
                )
            if chunk.nrows == 0:
                return None
            return chunk.arrays[0][0]
        if kind == "in":
            from ..dataframe._common import isna_array

            chunk = self._execute_select(select, env)
            build = chunk.arrays[0]
            matched = self._membership([operand], [build])
            return matched, bool(isna_array(build).any()), chunk.nrows == 0
        if kind == "exists":
            return self._execute_exists(select, env, outer_eval)
        raise SQLBindError(f"unknown subquery kind {kind!r}")

    def _execute_exists(self, select, env, outer_eval: Evaluator) -> np.ndarray:
        if isinstance(select, CompoundSelect):
            # Compound EXISTS bodies are never correlated-decomposed; the
            # whole compound executes once.
            chunk = self._execute_select(select, env)
            return np.full(outer_eval.nrows, chunk.nrows > 0)
        inner_cols: set[str] = set()
        inner_bindings: set[str] = set()
        for rel in select.relations:
            if isinstance(rel, TableRef):
                inner_bindings.add(rel.binding)
                if rel.name in env:
                    inner_cols.update(env[rel.name].columns)
                else:
                    inner_cols.update(self.catalog.schema(rel.name).columns)
            else:
                raise UnsupportedFeatureError("EXISTS over subquery relations is not supported")

        def is_inner(ref: ColumnRef) -> bool:
            if ref.table is not None:
                return ref.table in inner_bindings
            return ref.name in inner_cols

        correlated: list[tuple[Expr, Expr]] = []
        remaining: list[Expr] = []
        for conj in split_conjuncts(select.where):
            if isinstance(conj, BinaryOp) and conj.op == "=":
                l_refs = expr_columns(conj.left)
                r_refs = expr_columns(conj.right)
                l_inner = all(is_inner(r) for r in l_refs) and bool(l_refs)
                r_inner = all(is_inner(r) for r in r_refs) and bool(r_refs)
                l_outer = bool(l_refs) and all(not is_inner(r) for r in l_refs)
                r_outer = bool(r_refs) and all(not is_inner(r) for r in r_refs)
                if l_inner and r_outer:
                    correlated.append((conj.left, conj.right))
                    continue
                if r_inner and l_outer:
                    correlated.append((conj.right, conj.left))
                    continue
            remaining.append(conj)

        if not correlated:
            chunk = self._execute_select(select, env)
            return np.full(outer_eval.nrows, chunk.nrows > 0)

        inner_select = replace(
            select,
            items=[SelectItem(expr=e, alias=f"k{i}") for i, (e, _) in enumerate(correlated)],
            where=_conjoin(remaining),
            order_by=[],
            limit=None,
            distinct=False,
        )
        inner_chunk = self._execute_select(inner_select, env, cacheable=False)
        outer_keys = [outer_eval.eval_array(ref) for _, ref in correlated]
        return self._membership(outer_keys, list(inner_chunk.arrays))

    def _membership(self, probe_keys, build_keys):
        """Membership probe for interpreter-path subqueries.

        Under the default config the planner has already lifted every WHERE
        conjunct it can, so whatever reaches here (SELECT-list/HAVING
        predicates, non-decorrelatable shapes) still deserves the vectorized
        kernel.  With ``subquery_decorrelate=False`` the engine runs in
        reference mode — the audited per-row implementation end-to-end —
        which is also what the subquery benchmark measures against.
        """
        if self.config.subquery_decorrelate:
            from .joins import semi_join_flags

            return semi_join_flags(probe_keys, build_keys)
        return semi_join_mask(probe_keys, build_keys)
