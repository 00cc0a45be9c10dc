"""Micro-benchmark guard: vectorized vs row-closure expression evaluation.

The unified expression subsystem compiles every predicate once into per-row
closures (the reference oracle) and into columnar code (the vectorized
engine: a fused single-pass kernel for scan filters, batch evaluators
everywhere else).  This guard pins the point of the columnar code: on a
100k-row scan whose WHERE clause exercises the expression tree (arithmetic,
a boolean connective, BETWEEN), the vectorized engine must deliver at least
3x the operator throughput of the row-closure oracle, while charging
bit-identical work and producing identical rows.  The fused kernel itself
is guarded against the batch evaluators in ``test_fused_kernel_speedup.py``.

The timing table is emitted like every other benchmark artifact so the
harness report (``BENCH_*.json``) captures the expression-eval speedup.
"""

from __future__ import annotations

import os
import random

from conftest import measure_speedup, print_experiment

from repro.catalog import ColumnType, make_schema
from repro.engine import Database, ExecutionEngine

# The acceptance floor is 3x; REPRO_EXPR_SPEEDUP_FLOOR exists so noisy
# shared runners can lower the gate without editing code (never raise it
# in CI).
SPEEDUP_FLOOR = float(os.environ.get("REPRO_EXPR_SPEEDUP_FLOOR", "3.0"))

NUM_ROWS = 100_000

#: A filter that walks the expression tree: comparisons over arithmetic,
#: an OR of leaf predicates, and a BETWEEN — all over one 100k-row scan.
EXPRESSION_FILTER_SQL = (
    "SELECT count(*) AS n FROM measurements AS m "
    "WHERE m.a * 2 + m.b > 120 "
    "AND (m.c BETWEEN 10 AND 900 OR m.b % 7 = 3)"
)


def _build_database(num_rows: int = NUM_ROWS, seed: int = 11) -> Database:
    rng = random.Random(seed)
    db = Database()
    db.create_table(
        make_schema(
            "measurements",
            [
                ("id", ColumnType.INT),
                ("a", ColumnType.INT),
                ("b", ColumnType.INT),
                ("c", ColumnType.INT),
            ],
            primary_key="id",
        )
    )
    db.load_rows(
        "measurements",
        [
            (
                i,
                rng.randrange(0, 100),
                rng.randrange(0, 100),
                rng.randrange(0, 1000),
            )
            for i in range(num_rows)
        ],
    )
    db.finalize_load()
    return db


def test_vectorized_expression_evaluation_speedup(recorder):
    db = _build_database()
    planned = db.plan(EXPRESSION_FILTER_SQL)

    (vectorized, reference), result = measure_speedup(
        "expression-eval-speedup",
        "vectorized engine (fused scan kernel) vs row closures, 100k-row filter",
        [
            db.executor_for(ExecutionEngine.VECTORIZED),
            db.executor_for(ExecutionEngine.REFERENCE),
        ],
        planned.plan,
    )

    # Guard 1: charged work and results are engine-invariant.
    assert vectorized.total_work == reference.total_work
    assert vectorized.result.rows == reference.result.rows
    # The filter is genuinely selective but far from empty.
    count = vectorized.result.rows[0][0]
    assert 0 < count < NUM_ROWS

    speedup = result.metadata["speedup"]
    result.add_note(f"speedup: {speedup:.1f}x (floor: {SPEEDUP_FLOOR}x)")
    print_experiment(result)
    recorder.record("expr.eval_speedup", speedup, direction="higher")
    recorder.record(
        "expr.vectorized_rows_per_sec",
        result.metadata["vectorized_rows_per_sec"],
        direction="info",
    )

    # Guard 2: columnar expression evaluation is measurably faster.
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized expression evaluation only {speedup:.2f}x faster than "
        f"the row-closure oracle (floor {SPEEDUP_FLOOR}x)"
    )
