"""Span tracer for the traced benchmark run.

The tracer wraps the public entry point of each layer from outside the
program: ``wrap`` replaces a function or method attribute with a timing
wrapper and ``uninstall`` restores every original.  Nothing under ``src/`` is edited, and an untraced run never
installs a wrapper, so end-to-end metrics measure the unmodified program.

Each span records its name, start, end, parent span, a per-query id and a
"setting" tag (``1`` for the 1-way pass, ``N`` for the nproc-way pass).
Spans stay in memory; ``layer_totals()`` and ``dump()`` read them when the
run ends.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import threading
import time
from dataclasses import dataclass

QUERY_ID = contextvars.ContextVar("perfbench_query_id", default="")
SETTING = contextvars.ContextVar("perfbench_setting", default="1")

# Operator classes reported one by one; every other operator is "Other".
OPERATORS = ("HashJoin", "HashAggregate", "Scan", "Filter", "Project", "Sort",
             "TopK", "Window", "SemiJoin", "AntiJoin", "MarkJoin", "SetOp",
             "AdaptiveJoin", "Other")
JOIN_OPERATORS = {"HashJoin", "AdaptiveJoin", "SemiJoin", "AntiJoin",
                  "MarkJoin", "CrossJoin"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    qid: str
    setting: str
    child_s: float = 0.0  # time covered by direct children

    @property
    def self_s(self) -> float:
        return max(0.0, self.end - self.start - self.child_s)


class Tracer:
    """In-memory span store plus the probes that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.ops: dict[tuple[str, str], list[float]] = {}  # (op, setting) -> [self_ms, rows]
        self.qerrors: list[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, nested: bool = True) -> int:
        stack = self._stack() if nested else []
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    QUERY_ID.get(), SETTING.get())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        if nested:
            stack.append(index)
        return index

    def end(self, index: int, nested: bool = True) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if nested:
            self._stack().pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def add_span(self, name: str, start: float, end: float) -> None:
        """A root span timed by the caller (one whose query id is only known
        after it started, such as a wire request)."""
        with self._lock:
            self.spans.append(Span(name, start, end, -1, QUERY_ID.get(), SETTING.get()))

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def add_cache_delta(self, before: dict, after: dict) -> None:
        """Plan-cache hits, misses and evictions between two
        ``Database.cache_stats()`` readings."""
        for key in ("hits", "misses", "evictions"):
            self.count(f"plan_cache.{key}", after[key] - before[key])

    # -- probes ------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None, before=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` may fill in keyword arguments and returns a
        state value; ``after(result, args, kwargs, state)`` sees the result
        and that state, to record counts at the same boundary.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = original.__func__ if isinstance(original, staticmethod) else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            index = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(result, args, kwargs, state)
            return result

        new = staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper
        setattr(owner, attr, new)
        self._restore.append((owner, attr, original))

    def wrap_async(self, owner, attr: str, name: str, qid_of=None, on_enter=None) -> None:
        """Span around a coroutine method.  Coroutines interleave on one
        thread, so these spans are roots and do not take children.
        ``qid_of(args)`` names the query; ``on_enter(args)`` records counts."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            token = QUERY_ID.set(qid_of(args)) if qid_of is not None else None
            index = tracer.begin(name, nested=False)
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.end(index, nested=False)
                if token is not None:
                    QUERY_ID.reset(token)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- engine probes -------------------------------------------------------
    def record_runtime_stats(self, stats) -> None:
        """Fold one execution's ``RuntimeStats`` into per-operator self time,
        rows and join q-errors.  Self time is the node's inclusive time
        minus its children's inclusive time."""
        nodes: dict[int, object] = {}

        def walk(op) -> None:
            if id(op) in nodes:
                return
            nodes[id(op)] = op
            for child in op.children():
                walk(child)

        for plan in stats.plans:
            walk(plan.root)
        setting = SETTING.get()
        with self._lock:
            for key, entry in stats.ops.items():
                op = nodes.get(key)
                kind = type(op).__name__ if op is not None else entry.label.split("(")[0].split()[0]
                child_ms = 0.0
                if op is not None:
                    for child in op.children():
                        child_entry = stats.ops.get(id(child))
                        if child_entry is not None:
                            child_ms += child_entry.elapsed_ms
                name = kind if kind in OPERATORS else "Other"
                slot = self.ops.setdefault((name, setting), [0.0, 0.0])
                slot[0] += max(0.0, entry.elapsed_ms - child_ms)
                slot[1] += entry.actual_rows
                if (kind in JOIN_OPERATORS and entry.est_rows is not None
                        and entry.invocations == 1 and setting == "1"):
                    est = max(1.0, float(entry.est_rows))
                    actual = max(1.0, float(entry.actual_rows))
                    self.qerrors.append(max(est / actual, actual / est))

    # -- reading -----------------------------------------------------------
    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in ms, number of spans)."""
        out: dict[str, tuple[float, int]] = {}
        for span in self.spans:
            ms, n = out.get(span.name, (0.0, 0))
            out[span.name] = (ms + span.self_s * 1000.0, n + 1)
        return out

    def dump(self) -> dict:
        """Everything the tracer holds, as plain JSON-able data."""
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.qid, s.setting]
                      for s in self.spans],
            "layers": self.layer_totals(),
            "counts": dict(self.counts),
            "ops": {f"{op}|{setting}": v for (op, setting), v in self.ops.items()},
            "qerrors": list(self.qerrors),
        }


def install_engine_probes(tracer: Tracer) -> None:
    """Wrap the compile and engine layers of the ``@pytond`` path:
    ``PytondFunction.run``, ``Translator.translate``, ``optimize``,
    ``generate_sql``, ``parse``, ``Planner.plan_body``, ``verify_plan`` and
    ``Database.execute_chunk`` / ``PreparedStatement.execute_chunk`` (which
    get a ``RuntimeStats`` sink when the caller passed none)."""
    from repro.sqlengine.runtime_stats import RuntimeStats

    decorator = importlib.import_module("repro.core.decorator")
    engine = importlib.import_module("repro.core.translate.engine")
    database = importlib.import_module("repro.sqlengine.database")
    planner = importlib.import_module("repro.sqlengine.planner")
    analysis = importlib.import_module("repro.analysis")
    shard = importlib.import_module("repro.server.shard")

    tracer.wrap(decorator.PytondFunction, "run", "pytond.run")
    tracer.wrap(engine.Translator, "translate", "translate",
                after=lambda r, a, k, s: tracer.count("translate.ir_rules", len(r.rules)))
    tracer.wrap(decorator, "optimize", "optimize",
                after=lambda r, a, k, s: tracer.count("optimize.ir_rules_out", len(r.rules)))
    tracer.wrap(decorator, "generate_sql", "sqlgen",
                after=lambda r, a, k, s: tracer.count("sqlgen.sql_bytes", len(r.encode())))
    tracer.wrap(database, "parse", "parse")
    tracer.wrap(shard, "parse", "parse")
    tracer.wrap(planner.Planner, "plan_body", "plan")
    tracer.wrap(analysis, "verify_plan", "verify")

    def inject_stats(args, kwargs):
        if kwargs.get("stats") is None:
            kwargs["stats"] = RuntimeStats()
        return kwargs["stats"]

    def fold(result, args, kwargs, stats):
        # Nested calls (a sharded prepared statement delegating to its
        # database) share one sink: fold it once, at the innermost exit.
        if not getattr(stats, "_perfbench_folded", False):
            stats._perfbench_folded = True
            tracer.record_runtime_stats(stats)

    tracer.wrap(database.Database, "execute_chunk", "execute",
                before=inject_stats, after=fold)
    tracer.wrap(database.PreparedStatement, "execute_chunk", "execute",
                before=inject_stats, after=fold)
