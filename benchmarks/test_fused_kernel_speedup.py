"""Micro-benchmark guard: fused filter kernel vs the per-node batch compiler.

The scan analogue of ``test_engine_speedup.py``: a scan-heavy predicate
over the stocks trades table (arithmetic, modulo and three conjuncts) is
compiled two ways over the same full-table batch —

* **fused** — :func:`~repro.executor.expressions.compile_fused_filter`, the
  one single-pass kernel every filtered plain-table scan of the vectorized
  engine runs;
* **per-node** — :func:`~repro.executor.expressions.compile_batch_conjunction`,
  one list-materializing pass per expression node, the scan's fallback for
  shapes fusion cannot express.

Both must keep the same rows in the same order, and the fused kernel must
keep them at least 2x faster.
"""

from __future__ import annotations

import os
import time

from conftest import print_experiment

from repro.bench.reporting import ExperimentResult
from repro.executor.batch import ColumnBatch
from repro.executor.expressions import compile_batch_conjunction, compile_fused_filter
from repro.optimizer.plan import ScanNode
from repro.workloads.stocks import StocksConfig, build_stocks_database

# The acceptance floor is 2x; REPRO_PARALLEL_SPEEDUP_FLOOR exists so noisy
# shared runners can lower the gate without editing code (never raise it in
# CI).
SPEEDUP_FLOOR = float(os.environ.get("REPRO_PARALLEL_SPEEDUP_FLOOR", "2.0"))

SCAN_HEAVY_SQL = (
    "SELECT count(t.id) AS n FROM trades AS t "
    "WHERE (t.shares * 3 - t.company_id) % 7 < 3 "
    "AND t.shares + t.company_id > 1000 "
    "AND t.shares * 2 - 1 <> 5"
)

BEST_OF = 5


def test_fused_kernel_speedup_on_scan_heavy_filter(recorder):
    db = build_stocks_database(StocksConfig())
    planned = db.plan(SCAN_HEAVY_SQL)
    scan = next(node for node in planned.plan.walk() if isinstance(node, ScanNode))
    assert scan.label().startswith("Seq Scan") and scan.filters
    filters = list(scan.filters)

    table = db.catalog.table(scan.table)
    data = table.column_data()
    batch = ColumnBatch(
        [(scan.alias, name) for name in table.schema.column_names],
        data,
        length=table.row_count,
    )
    kernel = compile_fused_filter(filters, batch.resolver)
    per_node = compile_batch_conjunction(filters, batch.resolver)
    assert kernel is not None, "the guard's filter must be fusable"

    # Interleaved best-of-N so a load spike on a shared runner degrades both
    # sides alike.
    best = {"fused": float("inf"), "per-node": float("inf")}
    kept = {}
    for _ in range(BEST_OF):
        for name, run in (
            ("fused", lambda: kernel(data, 0, len(batch))),
            ("per-node", lambda: per_node(batch)),
        ):
            start = time.perf_counter()
            kept[name] = run()
            best[name] = min(best[name], time.perf_counter() - start)

    # Guard 1: fusion never changes which rows survive, or their order.
    assert kept["fused"] == kept["per-node"]
    assert kept["fused"], "expected a non-empty selection"

    speedup = best["per-node"] / max(best["fused"], 1e-12)
    result = ExperimentResult(
        experiment_id="fused-kernel-speedup",
        title=(
            "fused filter kernel vs per-node batch compiler, scan-heavy "
            f"stocks filter (best of {BEST_OF})"
        ),
        headers=["filter", "rows_in", "rows_kept", "wall_ms", "rows_per_sec"],
    )
    for name, seconds in best.items():
        result.add_row(
            name,
            len(batch),
            len(kept[name]),
            seconds * 1e3,
            len(batch) / max(seconds, 1e-12),
        )
    result.metadata["speedup"] = speedup
    result.add_note(f"speedup: {speedup:.1f}x (floor: {SPEEDUP_FLOOR}x)")
    print_experiment(result)
    recorder.record("scan.fused_kernel_speedup", speedup, direction="higher")
    recorder.record(
        "scan.fused_rows_per_sec",
        len(batch) / max(best["fused"], 1e-12),
        direction="info",
    )

    # Guard 2: one compiled loop beats a list-materializing pass per node.
    assert speedup >= SPEEDUP_FLOOR, (
        f"fused kernel only {speedup:.2f}x faster than the per-node batch "
        f"compiler (floor {SPEEDUP_FLOOR}x)"
    )
