# Convenience targets; every recipe matches what CI runs.
#
#   make ci      - the exact step sequence of .github/workflows/ci.yml:
#                  lint -> unit -> differential -> fuzz ->
#                  fuzz-partitioned -> guards -> stress
#   make test    - tier-1 suite (unit + integration + property + differential)
#   make unit    - the unit/integration/property suites as CI runs them
#                  (differential + fuzz split out into their own steps)
#   make diff    - just the vectorized-vs-reference differential suite
#   make fuzz    - the random-query differential fuzzer, CI profile (pinned,
#                  derandomized, 220+ generated queries, each also run
#                  adaptive=True vs adaptive=False vs the reference oracle;
#                  filtered plain-table scans run the fused filter kernel)
#   make fuzz-nightly - the randomized nightly profile (10x examples); pass
#                  SEED=... to reproduce a nightly CI failure
#   make fuzz-partitioned - the CI fuzz stream against partitioned +
#                  compressed storage (4 shards per table, zone-map and
#                  routing pruning live) under a tiny memory budget, so
#                  grace hash joins and external merge sorts spill
#   make guards  - the engine/aggregation/expression-eval/fused-kernel/
#                  pruning/late-materialization speedup guards
#   make stress  - the threaded serving layer under churn: the
#                  writers-vs-readers snapshot stress suite plus the
#                  1/4/16-client concurrent load driver (every served row
#                  differentially checked against the serial answer)
#   make bench   - paper-figure benchmarks plus the speedup guards; set
#                  REPRO_BENCH_REPORT=BENCH_pr.json to emit the trajectory
#                  report, compare with `make bench-compare`
#   make experiments - the estimator-strategy x workload matrix (Q-error
#                  distributions and re-plan counts per strategy, two runs);
#                  emits estimators.* info metrics into the trajectory
#                  report when REPRO_BENCH_REPORT is set
#   make lint    - ruff check (same invocation as the CI lint job)
#   make all     - everything

PYTHON ?= python
SEED ?= 0
export PYTHONPATH := src

.PHONY: ci test unit diff fuzz fuzz-nightly fuzz-partitioned guards stress bench bench-compare experiments lint all

# Mirrors the CI workflow's step sequence exactly (lint job, then the test
# job's pytest steps, then the speedup guards and the serving stress).
ci: lint unit diff fuzz fuzz-partitioned guards stress

test:
	$(PYTHON) -m pytest -x -q tests

unit:
	$(PYTHON) -m pytest -x -q tests \
		--ignore=tests/test_executor_differential.py \
		--ignore=tests/test_executor_edge_cases.py \
		--ignore=tests/property/test_sql_fuzz_differential.py

diff:
	$(PYTHON) -m pytest -x -q tests/test_executor_differential.py tests/test_executor_edge_cases.py

fuzz:
	HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest -x -q tests/property/test_sql_fuzz_differential.py

fuzz-nightly:
	HYPOTHESIS_PROFILE=nightly $(PYTHON) -m pytest -x -q tests/property/test_sql_fuzz_differential.py --hypothesis-seed=$(SEED)

fuzz-partitioned:
	HYPOTHESIS_PROFILE=ci REPRO_FUZZ_PARTITIONS=4 $(PYTHON) -m pytest -x -q tests/property/test_sql_fuzz_differential.py

guards:
	$(PYTHON) -m pytest -x -q -s benchmarks/test_engine_speedup.py benchmarks/test_aggregate_speedup.py benchmarks/test_expression_eval.py benchmarks/test_fused_kernel_speedup.py benchmarks/test_partition_pruning.py benchmarks/test_late_materialization.py

stress:
	$(PYTHON) -m pytest -x -q -s tests/test_server_concurrency.py benchmarks/test_serving_concurrency.py

bench:
	$(PYTHON) -m pytest -x -q -s benchmarks

bench-compare:
	$(PYTHON) -m repro.bench.compare BENCH_baseline.json BENCH_pr.json --max-regression 0.20

experiments:
	$(PYTHON) -m pytest -x -q -s benchmarks/test_estimator_matrix.py

lint:
	ruff check .

all: ci bench
