"""Fused filter kernels on the vectorized engine's plain-table scans.

Every filtered scan of a plain table — sequential or through an index —
compiles its whole filter conjunction into one single-pass kernel
(:func:`repro.executor.expressions.compile_fused_filter`) and falls back to
the per-node batch compiler only for shapes fusion cannot express (CASE,
parameters, non-literal LIKE/IN).  These tests exercise the kernel codegen,
its compile cache and fallbacks, pin that the engine actually takes the
fused path, and check both paths against the row-at-a-time oracle.
"""

from __future__ import annotations

import pytest

import repro.executor.scan as scan_module
from repro.catalog import ColumnType, make_schema
from repro.engine import Database, ExecutionEngine
from repro.executor.batch import ColumnBatch
from repro.executor.expressions import compile_fused_filter
from repro.optimizer.plan import AccessPath, ScanNode


def build_db() -> Database:
    db = Database()
    db.create_table(
        make_schema(
            "t",
            [("id", ColumnType.INT), ("v", ColumnType.INT), ("s", ColumnType.TEXT)],
            primary_key="id",
        )
    )
    db.create_table(
        make_schema(
            "u",
            [("id", ColumnType.INT), ("tid", ColumnType.INT), ("w", ColumnType.INT)],
            primary_key="id",
            foreign_keys=[("tid", "t", "id")],
        )
    )
    texts = ["a", "ab", "b", None, "ba"]
    db.load_rows(
        "t",
        [
            (i, None if i % 11 == 0 else i % 7, texts[i % len(texts)])
            for i in range(1, 121)
        ],
    )
    db.load_rows(
        "u",
        [
            (i, (i * 3) % 120 + 1, None if i % 13 == 0 else i % 9)
            for i in range(1, 91)
        ],
    )
    db.finalize_load()
    return db


#: Filtered scans over plain tables: fusable arithmetic/LIKE/IN/BETWEEN/NULL
#: conjunctions, and a CASE the fused emitter cannot express.
FUSABLE_SQL = [
    "SELECT t.id, t.v FROM t WHERE (t.v * 2 - 1) % 3 = 0 AND t.id / 2 >= 10",
    "SELECT t.id FROM t WHERE t.s LIKE 'a%' OR t.v IN (1, 2, 3) OR t.v IS NULL",
    "SELECT t.id FROM t WHERE NOT (t.v BETWEEN 2 AND 5) AND t.s IS NOT NULL",
    "SELECT t.id FROM t WHERE t.v / 0 IS NULL ORDER BY t.id LIMIT 10",
]
CASE_SQL = "SELECT count(*) AS n FROM t WHERE CASE WHEN t.v > 2 THEN 1 ELSE 0 END = 1"

#: Index scans (primary key and non-unique foreign key) with residual
#: filters: one fusable, one CASE that falls back.
INDEX_SCAN_SQL = [
    "SELECT t.id, t.s FROM t WHERE t.id IN (3, 5, 8, 13, 21, 34, 55, 89) "
    "AND t.v * 2 - 1 > 3 AND t.s LIKE '%b%'",
    "SELECT u.id, u.w FROM u WHERE u.tid IN (10, 31, 64) "
    "AND CASE WHEN u.w > 4 THEN 1 ELSE 0 END = 0",
]


def filtered_scan(planned) -> ScanNode:
    return next(
        node
        for node in planned.plan.walk()
        if isinstance(node, ScanNode) and node.filters
    )


def assert_matches_reference(db: Database, sql: str) -> None:
    planned = db.plan(sql)
    vectorized = db.executor_for(ExecutionEngine.VECTORIZED).execute(planned.plan)
    reference = db.executor_for(ExecutionEngine.REFERENCE).execute(planned.plan)
    assert list(vectorized.result.rows) == list(reference.result.rows), sql
    assert vectorized.total_work == reference.total_work, sql


@pytest.fixture
def scan_paths(monkeypatch):
    """Record which filter path each scan of the vectorized engine takes."""
    calls = {"fused": 0, "fallback": 0, "batch_predicates": 0}
    fuse = scan_module.compile_fused_filter
    batch_predicate = scan_module.compile_batch_predicate

    def spy_fuse(filters, resolver):
        kernel = fuse(filters, resolver)
        calls["fused" if kernel is not None else "fallback"] += 1
        return kernel

    def spy_batch_predicate(predicate, resolver):
        calls["batch_predicates"] += 1
        return batch_predicate(predicate, resolver)

    monkeypatch.setattr(scan_module, "compile_fused_filter", spy_fuse)
    monkeypatch.setattr(scan_module, "compile_batch_predicate", spy_batch_predicate)
    return calls


class TestFusedFilterKernels:
    def _scan_filters(self, db: Database, sql: str):
        scan = filtered_scan(db.plan(sql))
        table = db.catalog.table(scan.table)
        data = table.column_data()
        batch = ColumnBatch(
            [(scan.alias, name) for name in table.schema.column_names],
            data,
            length=table.row_count,
        )
        return list(scan.filters), batch, data

    def test_kernel_compiles_and_matches_serial_selection(self):
        db = build_db()
        sql = FUSABLE_SQL[1]
        filters, batch, data = self._scan_filters(db, sql)
        kernel = compile_fused_filter(filters, batch.resolver)
        assert kernel is not None
        assert "def _fused" in kernel._fused_source
        # One fused pass over the whole table == the reference scan's rows.
        reference = db.executor_for(ExecutionEngine.REFERENCE)
        expected = reference.execute(db.plan(sql).plan).result.rows
        kept = kernel(data, 0, len(batch))
        got = [(data[0][i],) for i in kept]
        assert got == list(expected), sql

    def test_kernel_is_cached_per_filter_shape(self):
        db = build_db()
        filters, batch, _ = self._scan_filters(db, FUSABLE_SQL[0])
        first = compile_fused_filter(filters, batch.resolver)
        second = compile_fused_filter(filters, batch.resolver)
        assert first is second

    def test_case_expression_falls_back_to_generic_scan(self):
        db = build_db()
        filters, batch, _ = self._scan_filters(db, CASE_SQL)
        assert compile_fused_filter(filters, batch.resolver) is None
        # ...and the engine still answers the query correctly through the
        # per-node batch fallback.
        assert_matches_reference(db, CASE_SQL)

    def test_division_by_zero_and_null_semantics_in_kernel(self):
        db = build_db()
        sql = "SELECT t.id FROM t WHERE t.v / 0 IS NULL AND t.v % 0 IS NULL"
        assert_matches_reference(db, sql)
        rows = db.run(sql).rows
        assert len(rows) == 120  # NULL for every row, incl. NULL v


class TestPlainTableScans:
    @pytest.mark.parametrize("sql", FUSABLE_SQL)
    def test_filtered_seq_scans_run_the_fused_kernel(self, sql, scan_paths):
        db = build_db()
        planned = db.plan(sql)
        assert filtered_scan(planned).access_path is AccessPath.SEQ_SCAN
        db.executor.execute(planned.plan)
        assert scan_paths == {"fused": 1, "fallback": 0, "batch_predicates": 0}
        assert_matches_reference(db, sql)

    def test_unfusable_filter_falls_back_per_conjunct(self, scan_paths):
        db = build_db()
        db.executor.execute(db.plan(CASE_SQL).plan)
        assert scan_paths == {"fused": 0, "fallback": 1, "batch_predicates": 1}

    @pytest.mark.parametrize("sql, fused", zip(INDEX_SCAN_SQL, (True, False)))
    def test_index_scan_residual_filters(self, sql, fused, scan_paths):
        db = build_db()
        planned = db.plan(sql)
        scan = filtered_scan(planned)
        assert scan.access_path is AccessPath.INDEX_SCAN
        assert len(scan.filters) > 1  # a residual beyond the index filter
        execution = db.executor.execute(planned.plan)
        assert scan_paths["fused" if fused else "fallback"] == 1
        assert execution.node_metrics[scan.node_id].actual_rows > 0
        assert_matches_reference(db, sql)
