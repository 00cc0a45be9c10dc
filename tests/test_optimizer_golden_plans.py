"""Golden plan pin: every JOB query's plan and planning counters.

All 113 JOB queries are planned at the suite's IMDB scale under four planner
configurations, and each plan is compared with ``data/golden_plans.json``:

* the EXPLAIN text (pinned by its SHA-256; the test prints the current text
  of a mismatching plan);
* ``repr`` of the root's estimated cost and rows, so float drift of a single
  ulp shows;
* ``candidates_considered``, ``estimate_calls`` and ``estimates_by_size``,
  the counters behind the simulated ``planning_work`` of fig1/fig5 and
  Table I.

The configurations cover every search strategy and the candidate filters:
the default (bushy DP up to 7 tables, linear DP up to 10, greedy beyond),
``bushy_limit=1`` (linear DP wherever DP runs), ``dp_limit=2`` (greedy
everywhere) and nested-loop plus merge joins disabled.

Regenerate the pin only when a plan change is intended::

    PYTHONPATH=src python tests/test_optimizer_golden_plans.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.executor.explain import explain_plan
from repro.optimizer import Optimizer, PlannerConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_plans.json"

CONFIGS = {
    "default": PlannerConfig(),
    "linear_dp": PlannerConfig(bushy_limit=1),
    "greedy": PlannerConfig(dp_limit=2),
    "no_nested_loop_no_merge": PlannerConfig(
        enable_nested_loop=False, enable_merge_join=False
    ),
}


def plan_record(planned) -> dict:
    """The pinned fields of one planned query."""
    text = explain_plan(planned.plan)
    stats = planned.stats
    return {
        "explain_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "cost": repr(planned.plan.estimated_cost),
        "rows": repr(planned.plan.estimated_rows),
        "candidates": stats.candidates_considered,
        "estimate_calls": stats.estimate_calls,
        "estimates_by_size": {
            str(size): count for size, count in sorted(stats.estimates_by_size.items())
        },
    }


def plan_workload(db, queries, config: PlannerConfig):
    """``{query name: (record, EXPLAIN text)}`` for every workload query."""
    optimizer = Optimizer(
        db.catalog,
        cost_params=db.optimizer.cost_model.params,
        planner_config=config,
        strategy=db.optimizer.strategy,
    )
    planned = {}
    for query in queries:
        result = optimizer.plan(db.parse(query.sql, name=query.name))
        planned[query.name] = (plan_record(result), explain_plan(result.plan))
    return planned


def dump_golden(configs: dict) -> str:
    """Serialize the pin with one query per line, so diffs stay readable."""
    lines = ["{"]
    config_names = list(configs)
    for ci, name in enumerate(config_names):
        lines.append(f"  {json.dumps(name)}: {{")
        entries = configs[name]
        query_names = list(entries)
        for qi, query_name in enumerate(query_names):
            comma = "," if qi + 1 < len(query_names) else ""
            lines.append(
                f"    {json.dumps(query_name)}: "
                f"{json.dumps(entries[query_name], sort_keys=True)}{comma}"
            )
        lines.append("  }" + ("," if ci + 1 < len(config_names) else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_plans_match_golden_pin(config_name, golden, imdb_db, job_queries):
    expected = golden[config_name]
    planned = plan_workload(imdb_db, job_queries, CONFIGS[config_name])
    assert sorted(planned) == sorted(expected)
    mismatches = []
    for name, (record, text) in planned.items():
        if record != expected[name]:
            diff = {
                key: (expected[name].get(key), value)
                for key, value in record.items()
                if expected[name].get(key) != value
            }
            mismatches.append(f"{name}: pinned vs now {diff}\n{text}")
    assert not mismatches, (
        f"{len(mismatches)} of {len(planned)} plans differ from the pin "
        f"({config_name}); first:\n" + "\n\n".join(mismatches[:3])
    )


def _regenerate() -> None:
    from tests.conftest import TEST_SCALE, TEST_SEED
    from repro.workloads import (
        ImdbConfig,
        JobWorkloadConfig,
        build_imdb_database,
        generate_job_workload,
    )

    db, dataset = build_imdb_database(ImdbConfig(scale=TEST_SCALE, seed=TEST_SEED))
    queries = generate_job_workload(dataset.vocabulary, JobWorkloadConfig(seed=7))
    configs = {
        name: {query: record for query, (record, _) in plan_workload(db, queries, config).items()}
        for name, config in CONFIGS.items()
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(dump_golden(configs))
    print(f"wrote {GOLDEN_PATH} ({sum(len(c) for c in configs.values())} plans)")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    _regenerate()
