"""In-memory span tracing around the engine's layer entry points.

The benchmark installs wrappers on the public entry points of each
``repro`` layer (at class or module level, so the snapshots and worker
threads the server creates are traced too).  Each call records a span:
name, start, end, parent span and statement id, plus the counters the
boundary can read off its arguments or result.  Spans stay in memory and
are written out once, when the run ends.  Tracing inside ``src/`` is not
used: everything here lives in the benchmark.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from metrics import interval_union

#: Span recorded around an execution; plans nested inside one are re-plans.
EXECUTE = "executor.execute"

#: Operator kinds reported as ``executor.rows.<kind>``, matched in order
#: against EXPLAIN labels (``Index Nested Loop`` before ``Nested Loop``).
OPERATOR_KINDS = (
    ("Seq Scan", "seq_scan"),
    ("Index Scan", "index_scan"),
    ("Hash Join", "hash_join"),
    ("Index Nested Loop", "index_nested_loop"),
    ("Nested Loop", "nested_loop"),
    ("Merge Join", "merge_join"),
    ("Aggregate", "aggregate"),
)
OTHER_KIND = "other"


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("sid", "name", "start", "end", "parent", "stmt", "attrs")

    def __init__(self, sid: int, name: str, start: float, parent: Optional[int],
                 stmt: Optional[int]) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.stmt = stmt
        self.attrs: Dict[str, float] = {}

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "stmt": self.stmt,
            **self.attrs,
        }


class _TaggedSQL(str):
    """SQL text carrying the submit span across the server's queue, so the
    worker thread that serves it can parent its spans correctly."""

    span: Span


class Tracer:
    """Collects spans from any thread while ``enabled`` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._stmts = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- statement ids and the per-thread span stack --------------------------

    def new_statement(self) -> int:
        return next(self._stmts)

    def set_statement(self, stmt: Optional[int]) -> Optional[int]:
        """Make ``stmt`` this thread's current statement; returns the old one."""
        previous = getattr(self._local, "stmt", None)
        self._local.stmt = stmt
        return previous

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(span.name == name for span in self._stack())

    def begin(self, name: str, *, parent: Optional[Span] = None,
              stmt: Optional[int] = None, push: bool = True) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if stmt is None:
            stmt = parent.stmt if parent is not None else getattr(self._local, "stmt", None)
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.sid if parent is not None else None, stmt)
        if push:
            stack.append(span)
        return span

    def end(self, span: Span, *, pop: bool = True) -> None:
        span.end = time.perf_counter()
        if pop:
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()
        with self._lock:
            self.spans.append(span)

    def write(self, path: str, header: Dict[str, object]) -> None:
        """Write the header and every finished span as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span.to_json()) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = interval_union(
            ((c.start, c.end) for c in children.get(span.sid, ())),
            clip=(span.start, span.end),
        )
        result[span.sid] = (span.end - span.start) - covered
    return result


def operator_kind(label: str) -> str:
    for prefix, kind in OPERATOR_KINDS:
        if label.startswith(prefix):
            return kind
    return OTHER_KIND


# -- counters read at the boundaries -------------------------------------------


def _plan_counts(span: Span, args, result) -> None:
    span.attrs["candidates"] = result.stats.candidates_considered
    span.attrs["estimate_calls"] = result.stats.estimate_calls


def _execute_counts(span: Span, args, result) -> None:
    attrs = span.attrs
    attrs["rows"] = result.rows_processed
    for metric in result.node_metrics.values():
        key = "rows." + operator_kind(metric.label)
        attrs[key] = attrs.get(key, 0) + metric.actual_rows
        attrs["segments_skipped"] = attrs.get("segments_skipped", 0) + (
            metric.segments_skipped or 0)
        attrs["columns_decoded"] = attrs.get("columns_decoded", 0) + (
            metric.columns_decoded or 0)
    replans = getattr(result, "replans", ())
    attrs["replans"] = len(replans)
    attrs["handover_rows"] = sum(point.pseudo_rows for point in replans)


def _load_counts(span: Span, args, result) -> None:
    span.attrs["rows"] = result


# -- installing the wrappers ---------------------------------------------------


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; returns a function undoing it."""
    from repro.engine import pipeline
    from repro.engine.database import Database
    from repro.engine.plancache import PlanCache
    from repro.executor.adaptive import AdaptiveExecutor
    from repro.executor.executor import Executor
    from repro.optimizer.feedback import FeedbackStore
    from repro.server.server import Server
    from repro.server.session import ServerSession
    from repro.sql.binder import Binder

    undo: List[Callable[[], None]] = []

    def wrap(owner, attr: str, name, on_result=None) -> None:
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.begin(name() if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        setattr(owner, attr, wrapper)
        undo.append(lambda: setattr(owner, attr, original))

    def plan_name() -> str:
        return "core.replan" if tracer.inside(EXECUTE) else "optimizer.plan"

    # The module global the pipeline's parse stage calls.
    wrap(pipeline, "parse_select", "sql.parse")
    wrap(Binder, "bind", "sql.bind")
    wrap(Database, "plan", plan_name, _plan_counts)
    wrap(Executor, "execute", EXECUTE, _execute_counts)
    wrap(AdaptiveExecutor, "execute", EXECUTE, _execute_counts)
    wrap(FeedbackStore, "record", "optimizer.feedback_record")
    wrap(PlanCache, "get", "engine.plan_cache_get")
    wrap(PlanCache, "put", "engine.plan_cache_put")
    wrap(Database, "snapshot", "engine.snapshot")
    wrap(Database, "load_rows", "storage.load", _load_counts)
    wrap(Database, "analyze", "stats.analyze")
    _wrap_server(tracer, Server, ServerSession, undo)

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


def _wrap_server(tracer: Tracer, server_cls, session_cls, undo) -> None:
    """``Server.submit`` spans run until the future completes; the worker's
    statement span (``ServerSession._run_statement``, the worker-thread
    entry) is its child, in another thread."""
    submit = vars(server_cls)["submit"]
    run_statement = vars(session_cls)["_run_statement"]

    @functools.wraps(submit)
    def traced_submit(self, session, sql, params=None):
        if not tracer.enabled:
            return submit(self, session, sql, params)
        span = tracer.begin("server.submit", stmt=tracer.new_statement(), push=False)
        sql = _TaggedSQL(sql)
        sql.span = span
        try:
            future = submit(self, session, sql, params)
        except BaseException:
            tracer.end(span, pop=False)
            raise
        future.add_done_callback(lambda _: tracer.end(span, pop=False))
        return future

    server_cls.submit = traced_submit
    undo.append(lambda: setattr(server_cls, "submit", submit))

    @functools.wraps(run_statement)
    def traced_run_statement(self, sql, params):
        parent = getattr(sql, "span", None)
        if parent is None:  # submitted while tracing was off
            return run_statement(self, sql, params)
        previous = tracer.set_statement(parent.stmt)
        span = tracer.begin("server.service", parent=parent)
        try:
            return run_statement(self, str(sql), params)
        finally:
            tracer.end(span)
            tracer.set_statement(previous)

    session_cls._run_statement = traced_run_statement
    undo.append(lambda: setattr(session_cls, "_run_statement", run_statement))


def span_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, call count, and summed counters
    (``replanned`` counts the spans whose execution re-planned)."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        entry = totals[span.name]
        entry["self_s"] += selfs[span.sid]
        entry["count"] += 1
        for key, value in span.attrs.items():
            entry[key] += value
        if span.attrs.get("replans"):
            entry["replanned"] += 1
    return totals
