"""Executor subsystem: operators, instrumented execution, EXPLAIN rendering.

Two engines implement the plan operators:

* :mod:`repro.executor.operators` — the vectorized columnar engine (default),
  whose filtered scans run fused kernels (:mod:`repro.executor.scan`);
* :mod:`repro.executor.reference` — the row-at-a-time oracle used for
  differential testing.

Select one per :class:`Executor` via :class:`ExecutionEngine`.
"""

from repro.executor.batch import ColumnBatch
from repro.executor.executor import (
    ExecutionEngine,
    ExecutionResult,
    Executor,
    NodeMetrics,
    WORK_UNITS_PER_SECOND,
)
from repro.executor.explain import estimation_errors, explain_plan
from repro.executor.operators import (
    ResultSet,
    aggregate_result,
    distinct_result,
    group_aggregate_result,
    join_results,
    limit_result,
    scan_table,
    sort_result,
)

__all__ = [
    "ColumnBatch",
    "ExecutionEngine",
    "ExecutionResult",
    "Executor",
    "NodeMetrics",
    "ResultSet",
    "WORK_UNITS_PER_SECOND",
    "aggregate_result",
    "distinct_result",
    "estimation_errors",
    "explain_plan",
    "group_aggregate_result",
    "join_results",
    "limit_result",
    "scan_table",
    "sort_result",
]
