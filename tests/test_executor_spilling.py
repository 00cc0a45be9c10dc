"""Spill-to-disk under a memory budget: bit-identical to in-memory execution."""

from __future__ import annotations

import os

import pytest

import repro.executor.spilling as spilling_module
from repro.catalog.schema import ColumnType, make_schema
from repro.engine import Database
from repro.engine.settings import EngineSettings
from repro.executor.executor import ExecutionEngine
from repro.workloads.stocks import StocksConfig, build_stocks_database

#: A join plus a sort, both far larger than the tiny budget below.
STOCKS_SQL = (
    "SELECT c.symbol AS s, t.shares AS n FROM company AS c, trades AS t "
    "WHERE c.id = t.company_id AND t.shares > 9000 "
    "ORDER BY t.shares DESC, t.id LIMIT 50"
)

SMALL_STOCKS = StocksConfig(num_companies=200, num_trades=3000)


def test_grace_hash_join_and_external_sort_match_in_memory():
    db = build_stocks_database(SMALL_STOCKS)
    planned = db.plan(STOCKS_SQL)
    in_memory = db.executor.execute(planned.plan)

    spilling = db.executor_for(ExecutionEngine.VECTORIZED, memory_budget=64)
    spilled = spilling.execute(planned.plan)

    # Bit-identical: same rows in the same order, same charged work, same
    # observed per-node cardinalities.
    assert spilled.result.rows == in_memory.result.rows
    assert spilled.result.columns == in_memory.result.columns
    assert spilled.total_work == in_memory.total_work
    for node_id, metrics in in_memory.node_metrics.items():
        assert spilled.node_metrics[node_id].actual_rows == metrics.actual_rows

    ops = spilling._ops
    assert ops.spilled_joins >= 1, "expected the join build side to spill"
    assert ops.spilled_sorts >= 1, "expected the sort to spill"
    # Every spill directory is gone by the time the operator returned.
    assert ops.spill_dirs
    assert all(not os.path.exists(path) for path in ops.spill_dirs)


def test_spilling_wraps_every_engine():
    db = build_stocks_database(SMALL_STOCKS)
    planned = db.plan(STOCKS_SQL)
    expected = db.executor.execute(planned.plan).result.rows
    for engine in (ExecutionEngine.VECTORIZED, ExecutionEngine.REFERENCE):
        executor = db.executor_for(engine, memory_budget=64)
        execution = executor.execute(planned.plan)
        assert execution.result.rows == expected, engine
        assert executor._ops.spilled_joins >= 1, engine


def test_memory_budget_via_engine_settings():
    db = build_stocks_database(
        SMALL_STOCKS, settings=EngineSettings(memory_budget=64)
    )
    rows = db.run(STOCKS_SQL).rows
    baseline = build_stocks_database(SMALL_STOCKS).run(STOCKS_SQL).rows
    assert rows == baseline
    assert db.executor._ops.spilled_joins >= 1


def test_external_sort_orders_nulls_and_descending_like_in_memory():
    def build(budget):
        db = Database(EngineSettings(memory_budget=budget))
        db.create_table(make_schema("t", [("id", ColumnType.INT), ("v", ColumnType.INT)]))
        db.load_rows(
            "t",
            [(i, None if i % 5 == 0 else (i * 7) % 13) for i in range(200)],
        )
        db.finalize_load()
        return db

    sql = "SELECT t.id, t.v FROM t AS t ORDER BY t.v DESC LIMIT 30"
    spilled_db = build(budget=16)
    rows = spilled_db.run(sql).rows
    assert rows == build(budget=None).run(sql).rows
    assert spilled_db.executor._ops.spilled_sorts >= 1


def test_under_budget_queries_never_spill():
    db = build_stocks_database(
        SMALL_STOCKS, settings=EngineSettings(memory_budget=10**9)
    )
    db.run(STOCKS_SQL)
    assert db.executor._ops.spilled_joins == 0
    assert db.executor._ops.spilled_sorts == 0
    assert db.executor._ops.spill_dirs == []


def test_spill_dirs_removed_when_join_fails_mid_spill(monkeypatch):
    db = build_stocks_database(SMALL_STOCKS)
    planned = db.plan(STOCKS_SQL)
    spilling = db.executor_for(ExecutionEngine.VECTORIZED, memory_budget=64)

    # Blow up partway through bucketing the join inputs, after spill files
    # have already been opened and written to.
    calls = {"n": 0}
    real_hash = spilling_module.stable_hash

    def exploding_hash(value):
        calls["n"] += 1
        if calls["n"] > 50:
            raise RuntimeError("disk on fire")
        return real_hash(value)

    monkeypatch.setattr(spilling_module, "stable_hash", exploding_hash)
    with pytest.raises(RuntimeError, match="disk on fire"):
        spilling.execute(planned.plan)

    ops = spilling._ops
    assert ops.spilled_joins >= 1
    assert ops.spill_dirs, "the join must have created its spill directory"
    assert all(not os.path.exists(path) for path in ops.spill_dirs)


def test_spill_dirs_removed_when_sort_fails_mid_spill(monkeypatch):
    db = build_stocks_database(SMALL_STOCKS)
    planned = db.plan(STOCKS_SQL)
    spilling = db.executor_for(ExecutionEngine.VECTORIZED, memory_budget=64)

    # Let the join spill complete, then fail while writing a sort run file.
    def exploding_write_run(path, run):
        raise RuntimeError("run file torn")

    monkeypatch.setattr(spilling_module, "write_run", exploding_write_run)
    with pytest.raises(RuntimeError, match="run file torn"):
        spilling.execute(planned.plan)

    ops = spilling._ops
    assert ops.spilled_sorts >= 1
    # Both the completed join spill and the failed sort spill are cleaned up.
    assert len(ops.spill_dirs) >= 2
    assert all(not os.path.exists(path) for path in ops.spill_dirs)
