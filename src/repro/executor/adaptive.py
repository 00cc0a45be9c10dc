"""Operator-level adaptive execution (true mid-query re-optimization).

The legacy re-optimization path simulates the paper's scheme by rewriting SQL
against materialized temporary tables.  This module is the real-system design
the paper names (Kabra & DeWitt-style): the executor runs the plan
*stage-wise*, observing per-operator runtime statistics (actual rows,
batches, hash-join build/probe sizes, work) at every operator.  Re-plan
decisions are made at the hash-join pipeline breakers, bottom-up: that is
the only breaker below other joins, i.e. the only point where a *different*
plan for the remainder exists to switch to.  The other breakers —
HashAggregate, Sort — sit above the whole join tree, so by the time they
materialize there is no remainder left to re-plan; their runtime statistics
are still collected and reported (EXPLAIN ANALYZE).  When the Q-error
between a join's estimated and actual cardinality crosses the
:class:`~repro.core.triggers.ReoptimizationPolicy` threshold, the remainder
of the query is re-planned with the observed true cardinalities injected, and
the already-computed in-memory intermediate is handed to the new plan as a
:class:`~repro.storage.intermediate.IntermediateTable` — a ColumnBatch-backed
pseudo-table registered in the catalog without DDL — instead of being written
out and re-scanned.

Differences from the SQL-rewrite simulation, by design:

* **No exploratory executions.**  Stage-wise execution observes cardinalities
  while doing useful work, so every executed operator is charged exactly
  once per round; the simulation's uncharged full "EXPLAIN ANALYZE" runs
  disappear.
* **No materialization surcharge.**  The intermediate never leaves memory;
  the handover itself is free and only the re-planned remainder's scan of
  the pseudo-table is charged (the quantity
  :class:`~repro.core.midquery.MidQueryReoptimizer` models analytically).
* **Client-transparent.**  The final result is restored to the original
  query's output columns (names *and* order), so a re-planned ``SELECT *``
  is indistinguishable from a plain execution — something the SQL-rewrite
  simulation cannot do.
* **Trigger site.**  Executing breakers bottom-up inherently triggers at the
  *lowest* violating join (the paper's choice); the ``"highest"`` ablation
  remains simulation-only.

The loop is engine-agnostic: both the vectorized and the reference engine
execute stage-wise through :meth:`Executor.execute_node`'s resumable memo.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.triggers import ReoptimizationPolicy, q_error
from repro.errors import ReoptimizationError
from repro.executor.batch import ColumnBatch
from repro.executor.executor import (
    ExecutionResult,
    NodeMetrics,
    WORK_UNITS_PER_SECOND,
)
from repro.executor.reference import ResultSet
from repro.optimizer.injection import CardinalityInjector
from repro.optimizer.optimizer import PlannedQuery
from repro.optimizer.plan import JoinNode, OneTimeFilterNode, PlanNode
from repro.optimizer.provenance import (
    Observations,
    harvest_observations,
    plan_output_columns,
    runtime_injection,
    translate_observations,
)
from repro.sql.binder import BoundQuery
from repro.sql.builder import collapse_aliases, referenced_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database

QualifiedColumn = Tuple[str, str]


@dataclass
class ReplanPoint:
    """One mid-query re-plan: where execution paused and what it learned."""

    index: int
    trigger_label: str
    trigger_aliases: Tuple[str, ...]
    estimated_rows: float
    actual_rows: int
    q_error: float
    pseudo_table: str
    pseudo_rows: int
    #: Work performed in the round that was cut short at the breaker.
    executed_work: float
    #: Planning work of re-optimizing the remainder.
    planning_work: float


@dataclass
class AdaptiveExecutionResult(ExecutionResult):
    """An :class:`ExecutionResult` augmented with the adaptive loop's history.

    ``node_metrics`` accumulates the metrics of every round (node ids are
    globally unique), so EXPLAIN ANALYZE of the final plan finds its nodes and
    ``rows_processed`` counts every operator the loop actually ran.
    """

    replans: List[ReplanPoint] = field(default_factory=list)
    replanning_work: float = 0.0
    rounds: int = 1
    pseudo_tables: Tuple[str, ...] = ()
    final_planned: Optional[PlannedQuery] = None
    final_query: Optional[BoundQuery] = None

    @property
    def replanned(self) -> bool:
        """True if at least one mid-query re-plan happened."""
        return bool(self.replans)


class AdaptiveExecutor:
    """Drives stage-wise execution with mid-query re-planning.

    Args:
        database: the engine substrate (executor, optimizer, catalog).
        policy: re-optimization trigger policy (threshold, iteration cap,
            short-query cutoff).  ``trigger_site`` is effectively
            ``"lowest"``: stage-wise execution observes breakers bottom-up.
        injector: optional cardinality injector the caller planned with;
            runtime observations are chained in front of it on every
            re-planning round.
    """

    def __init__(
        self,
        database: "Database",
        policy: Optional[ReoptimizationPolicy] = None,
        injector: Optional[CardinalityInjector] = None,
    ) -> None:
        self._db = database
        self.policy = policy or ReoptimizationPolicy()
        if self.policy.trigger_site != "lowest":
            # Stage-wise execution cannot look ahead: the first violating
            # breaker in bottom-up order is where it stands when it decides.
            warnings.warn(
                f"adaptive execution always triggers at the lowest violating "
                f"pipeline breaker; trigger_site="
                f"{self.policy.trigger_site!r} is a simulation-only ablation "
                "and is ignored here",
                stacklevel=2,
            )
        self._injector = injector

    def execute(self, planned: PlannedQuery) -> AdaptiveExecutionResult:
        """Execute ``planned`` adaptively and return the augmented result."""
        db = self._db
        policy = self.policy
        executor = db.executor
        original_columns = plan_output_columns(planned.plan, db.catalog)
        # Where each original output column currently lives; collapses remap
        # qualified (alias, column) names, projection outputs ("", name) are
        # stable by construction.
        locations: Dict[QualifiedColumn, QualifiedColumn] = {
            qcol: qcol for qcol in original_columns
        }
        observations: Observations = {}
        replans: List[ReplanPoint] = []
        pseudo_names: List[str] = []
        merged_metrics: Dict[int, NodeMetrics] = {}
        total_work = 0.0
        replanning_work = 0.0
        wall_seconds = 0.0
        current_query = planned.query
        current_planned = planned
        result: ResultSet
        try:
            for iteration in range(policy.max_iterations + 1):
                metrics: Dict[int, NodeMetrics] = {}
                memo: Dict[int, Tuple[ResultSet, float]] = {}
                trigger: Optional[JoinNode] = None
                started = time.perf_counter()
                if self._should_adapt(iteration, current_query, current_planned):
                    for join in current_planned.plan.join_nodes():
                        result, _ = executor.execute_node(join, metrics, memo=memo)
                        error = q_error(join.estimated_rows, len(result))
                        if error > policy.threshold:
                            trigger = join
                            break
                if trigger is None:
                    result, _ = executor.execute_node(
                        current_planned.plan, metrics, memo=memo
                    )
                wall_seconds += time.perf_counter() - started
                round_work = self._performed_work(current_planned.plan, memo)
                total_work += round_work
                merged_metrics.update(metrics)
                observations.update(
                    harvest_observations(current_planned.plan, executed=memo)
                )
                if trigger is None:
                    break
                current_query, current_planned, observations, point = self._replan(
                    current_query, trigger, result, iteration, round_work,
                    observations, locations, pseudo_names,
                )
                replans.append(point)
                replanning_work += point.planning_work
            else:  # pragma: no cover - the last iteration never triggers
                raise ReoptimizationError(
                    f"adaptive execution of {planned.query.name!r} did not terminate"
                )
        finally:
            for name in pseudo_names:
                if name in db.catalog:
                    db.drop_intermediate(name)

        final_result = self._restore_output(result, original_columns, locations)
        return AdaptiveExecutionResult(
            result=final_result,
            total_work=total_work,
            wall_seconds=wall_seconds,
            node_metrics=merged_metrics,
            engine=executor.engine,
            replans=replans,
            replanning_work=replanning_work,
            rounds=len(replans) + 1,
            pseudo_tables=tuple(pseudo_names),
            final_planned=current_planned,
            final_query=current_query,
        )

    # -- internals ----------------------------------------------------------

    def _should_adapt(
        self, iteration: int, query: BoundQuery, planned: PlannedQuery
    ) -> bool:
        """Whether this round should pause at breakers and consider re-planning."""
        if iteration >= self.policy.max_iterations:
            return False
        if query.num_tables() <= 1:
            return False
        if any(
            isinstance(node, OneTimeFilterNode) and not node.passes
            for node in planned.plan.walk()
        ):
            # An always-false constant filter prunes the join tree; running
            # its joins stage-wise would execute a subtree the plain
            # executor never touches.
            return False
        if iteration == 0 and self.policy.min_query_seconds > 0.0:
            # A real adaptive executor cannot know the actual runtime up
            # front; gate the short-query cutoff on the optimizer's estimate
            # (the simulation gates on the observed first execution instead).
            estimated_seconds = planned.plan.estimated_cost / WORK_UNITS_PER_SECOND
            if estimated_seconds < self.policy.min_query_seconds:
                return False
        return True

    @staticmethod
    def _performed_work(plan: PlanNode, memo: Dict[int, Tuple[ResultSet, float]]) -> float:
        """Work actually performed this round: own work of every executed node."""
        return sum(
            node.actual_work or 0.0
            for node in plan.walk()
            if node.node_id in memo
        )

    def _handover_columns(
        self, query: BoundQuery, trigger: JoinNode
    ) -> List[QualifiedColumn]:
        """Columns the pseudo-table must expose for the remainder to run."""
        if not query.select_items:
            # SELECT *: every column of every collapsed alias is part of the
            # client-visible output, so all of them ride along (this is what
            # lets the adaptive path re-plan star queries transparently).
            # FROM-clause declaration order, not sorted order: the LIMIT
            # tie-break sorts star output on the declared column sequence, so
            # the handover must preserve it across re-plans.
            return [
                (alias, column)
                for alias in query.aliases
                if alias in trigger.aliases
                for column in self._db.catalog.schema(
                    query.table_for(alias)
                ).column_names
            ]
        needed = referenced_columns(query, trigger.aliases)
        if not needed:
            # Nothing above references the sub-join (e.g. SELECT count(*)
            # over exactly these tables); keep one join column so the
            # rewritten query stays well-formed.
            alias = sorted(trigger.aliases)[0]
            table = query.table_for(alias)
            first_column = self._db.catalog.schema(table).column_names[0]
            needed = [(alias, first_column)]
        return needed

    def _replan(
        self,
        query: BoundQuery,
        trigger: JoinNode,
        intermediate: ResultSet,
        iteration: int,
        round_work: float,
        observations: Observations,
        locations: Dict[QualifiedColumn, QualifiedColumn],
        pseudo_names: List[str],
    ) -> Tuple[BoundQuery, PlannedQuery, Observations, ReplanPoint]:
        """Hand the intermediate over and plan the remainder of the query.

        Returns the rewritten query, its plan, the observations translated
        into the rewritten query's alias space (the loop carries them into
        later rounds), and the re-plan point record.
        """
        db = self._db
        needed = self._handover_columns(query, trigger)
        mapping: Dict[QualifiedColumn, str] = {
            (alias, column): f"{alias}_{column}" for alias, column in needed
        }
        name = db.next_temp_table_name(base="stage")
        db.register_intermediate_result(
            name,
            intermediate,
            [(qcol, mapping[qcol]) for qcol in needed],
            alias_tables=query.alias_tables,
        )
        pseudo_names.append(name)

        for qcol, current in locations.items():
            if current[0] in trigger.aliases:
                locations[qcol] = (name, mapping[current])

        rewritten = collapse_aliases(
            query,
            sorted(trigger.aliases),
            temp_table=name,
            temp_alias=name,
            column_mapping=mapping,
        )
        base_name = query.name or "query"
        rewritten.name = f"{base_name.split('#', 1)[0]}#adapt{iteration + 1}"

        translated = translate_observations(
            observations, frozenset(trigger.aliases), name
        )
        injector = runtime_injection(translated, self._injector)
        planned = db.plan(rewritten, injector=injector)
        point = ReplanPoint(
            index=iteration,
            trigger_label=trigger.label(),
            trigger_aliases=tuple(sorted(trigger.aliases)),
            estimated_rows=trigger.estimated_rows,
            actual_rows=trigger.actual_rows or 0,
            q_error=q_error(trigger.estimated_rows, trigger.actual_rows or 0),
            pseudo_table=name,
            pseudo_rows=len(intermediate),
            executed_work=round_work,
            planning_work=planned.stats.planning_work,
        )
        return rewritten, planned, translated, point

    @staticmethod
    def _restore_output(
        result: ResultSet,
        original_columns: List[QualifiedColumn],
        locations: Dict[QualifiedColumn, QualifiedColumn],
    ) -> ResultSet:
        """Project the final result back to the original output shape.

        Re-planning is invisible to the client: whatever plan produced the
        final rows, the columns come back under the original query's names in
        the original order.
        """
        if tuple(result.columns) == tuple(original_columns):
            return result
        positions = [
            result.column_position(*locations[qcol]) for qcol in original_columns
        ]
        if isinstance(result, ColumnBatch):
            return result.with_columns(original_columns, positions)
        rows = [tuple(row[p] for p in positions) for row in result.rows]
        return ResultSet(original_columns, rows)
