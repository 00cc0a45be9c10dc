"""Budget-aware operator wrapper: grace hash join and external merge sort.

:class:`SpillingOperators` wraps any base operator set
(:mod:`~repro.executor.operators` or :mod:`~repro.executor.reference`) and
intercepts the two pipeline breakers whose working state grows with input
size — the hash-join build table and the sort — whenever their input
exceeds ``memory_budget`` rows.  Everything else delegates to the base
engine untouched, so one wrapper serves both engines.

Determinism is the contract: spilled execution returns **bit-identical**
results to the in-memory engines.

* The grace hash join partitions both sides' row indices into
  ``ceil(build_rows / budget)`` bucket files by a deterministic hash of the
  join key, builds one bounded hash table per bucket (bucket files replay
  ascending row order, i.e. the serial build's insertion order), and
  finally stable-sorts the matched pairs by probe index.  One key maps to
  one bucket, so the restored order is exactly the in-memory engines'
  probe-side-major order with build insertion order within a key.
* The external merge sort folds the engines' multi-pass stable sort into a
  single composite key (declared keys with :class:`~repro.storage.spill.Rev`
  for descending, then tie-break columns, then the original row index),
  sorts runs of ``budget`` rows, spills each run's index order to a file,
  and k-way merges with ``heapq.merge`` — equal to the serial sort by
  construction.

Spill directories are context managers created per operation; leaving the
``with`` block — on success or a mid-spill failure — closes any open spill
file handles and removes the directory.  ``spill_dirs`` keeps the paths so
tests can assert the cleanup happened.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.executor.batch import ColumnBatch
from repro.executor.expressions import compile_batch_scalar
from repro.executor.operators import _key_is_null, _key_rows
from repro.executor.reference import resolve_join_positions
from repro.sql.binder import BoundJoin, BoundSortKey
from repro.storage.partition import stable_hash
from repro.storage.spill import BucketFiles, Rev, SpillDir, read_run, write_run

__all__ = ["SpillingOperators"]


class SpillingOperators:
    """An operator set enforcing a per-pipeline-breaker row budget."""

    def __init__(self, base, memory_budget: int) -> None:
        self.base = base
        self.memory_budget = max(1, int(memory_budget))
        #: How many joins / sorts actually spilled (smoke-test observability).
        self.spilled_joins = 0
        self.spilled_sorts = 0
        #: Temp directories used by past spills; all deleted by the time the
        #: operator returns, so tests assert none of these paths exist.
        self.spill_dirs: List[str] = []

    def __getattr__(self, name: str):
        # Everything not intercepted (scans, aggregates, limits, ...) runs on
        # the wrapped engine.
        return getattr(self.base, name)

    # -- grace hash join ---------------------------------------------------------

    def join_results(
        self,
        left,
        right,
        joins: Sequence[BoundJoin],
        observed: Optional[Dict[str, int]] = None,
    ):
        left = ColumnBatch.from_result(left)
        right = ColumnBatch.from_result(right)
        if min(len(left), len(right)) <= self.memory_budget:
            return self.base.join_results(left, right, joins, observed=observed)
        self.spilled_joins += 1
        return self._grace_hash_join(left, right, joins, observed)

    def _grace_hash_join(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        joins: Sequence[BoundJoin],
        observed: Optional[Dict[str, int]],
    ) -> ColumnBatch:
        left_positions, right_positions = resolve_join_positions(left, right, joins)
        build_on_left = len(left) <= len(right)
        if observed is not None:
            observed["build_rows"] = min(len(left), len(right))
            observed["probe_rows"] = max(len(left), len(right))
        if build_on_left:
            build, probe = left, right
            build_positions, probe_positions = left_positions, right_positions
        else:
            build, probe = right, left
            build_positions, probe_positions = right_positions, left_positions

        composite = len(build_positions) > 1
        build_keys = _key_rows(build, build_positions)
        probe_keys = _key_rows(probe, probe_positions)
        buckets = max(2, -(-len(build) // self.memory_budget))

        pairs: List[Tuple[int, int]] = []
        with SpillDir(prefix="repro-spill-join-") as spill:
            self.spill_dirs.append(spill.path)
            build_files = BucketFiles(spill, "build", buckets)
            for i, key in enumerate(build_keys):
                if not _key_is_null(key, composite):
                    build_files.write(stable_hash(key) % buckets, i)
            build_files.close()
            probe_files = BucketFiles(spill, "probe", buckets)
            for i, key in enumerate(probe_keys):
                if not _key_is_null(key, composite):
                    probe_files.write(stable_hash(key) % buckets, i)
            probe_files.close()

            for bucket in range(buckets):
                # Bucket files replay ascending row order, so this bounded
                # table equals the serial build restricted to the bucket.
                table: Dict[object, List[int]] = {}
                for i in build_files.read(bucket):
                    table.setdefault(build_keys[i], []).append(i)
                for i in probe_files.read(bucket):
                    matches = table.get(probe_keys[i])
                    if matches:
                        pairs.extend((i, m) for m in matches)

        # One probe key lives in exactly one bucket, so a probe row's matches
        # are contiguous and build-ordered already; the stable sort restores
        # the global probe-major order across buckets.
        pairs.sort(key=lambda pair: pair[0])
        probe_idx = [pair[0] for pair in pairs]
        build_idx = [pair[1] for pair in pairs]
        if build_on_left:
            left_sel, right_sel = build_idx, probe_idx
        else:
            left_sel, right_sel = probe_idx, build_idx
        return ColumnBatch.concat(left.restrict(left_sel), right.restrict(right_sel))

    # -- external merge sort -----------------------------------------------------

    def sort_result(
        self,
        result,
        keys: Sequence[BoundSortKey],
        tie_break: Sequence = (),
        tie_break_all: bool = False,
    ):
        batch = ColumnBatch.from_result(result)
        if len(batch) <= self.memory_budget:
            return self.base.sort_result(
                batch, keys, tie_break=tie_break, tie_break_all=tie_break_all
            )
        self.spilled_sorts += 1
        return self._external_merge_sort(batch, keys, tie_break, tie_break_all)

    def _external_merge_sort(
        self,
        batch: ColumnBatch,
        keys: Sequence[BoundSortKey],
        tie_break: Sequence,
        tie_break_all: bool,
    ) -> ColumnBatch:
        # The engines sort with one stable pass per key (tie passes first,
        # declared keys last); that equals a single sort on this composite
        # key, with the original index as the final stability tie-break.
        declared = [
            (batch.column_values(key.alias, key.column), key.ascending)
            for key in keys
        ]
        if tie_break_all:
            ties = [batch.values(p) for p in range(len(batch.columns))]
        else:
            ties = [
                compile_batch_scalar(expr, batch.resolver)(batch, None)
                for expr in tie_break
            ]

        def key_of(i: int) -> Tuple:
            parts: List[object] = []
            for values, ascending in declared:
                v = values[i]
                part = (v is None, 0 if v is None else v)
                parts.append(part if ascending else Rev(part))
            for values in ties:
                v = values[i]
                parts.append((v is None, 0 if v is None else v))
            parts.append(i)
            return tuple(parts)

        with SpillDir(prefix="repro-spill-sort-") as spill:
            self.spill_dirs.append(spill.path)
            runs: List[str] = []
            budget = self.memory_budget
            for start in range(0, len(batch), budget):
                run = list(range(start, min(start + budget, len(batch))))
                run.sort(key=key_of)
                path = spill.file(f"run-{len(runs)}.idx")
                write_run(path, run)
                runs.append(path)
            # Keys are recomputed per comparison from the in-memory columns,
            # so run files stay plain integer indices.
            order = list(
                heapq.merge(*(read_run(path) for path in runs), key=key_of)
            )
        return batch.restrict(order)
