"""The benchmark's own arithmetic: percentiles, summaries and identities.

Everything here is pure and deterministic so ``selftest.py`` can pin it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The slowest statements of a pass summed into ``top20_s`` (the paper's
#: headline: re-optimization makes the top-20 JOB queries faster).
TOP_N = 20

#: A served rate meets its limit when its tail read latency stays at or
#: under this many milliseconds ...
LATENCY_LIMIT_MS = 100.0
#: ... and its last operation completes within this many seconds of the end
#: of its schedule (otherwise the backlog was still growing).
BACKLOG_LIMIT_S = 1.0

#: Error prefix of a read the server's admission queue shed, and the error
#: of a read that did not resolve in time.
SHED_PREFIX = "shed: "
TIMED_OUT = "timed out"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile: the smallest value with at least
    ``q`` percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile's
    rank (the printed sample count backing a tail figure)."""
    return n - _rank(n, q)


def _rank(n: int, q: float) -> int:
    # Round away float noise first: 90/100*113 must give rank 102, not 103.
    return min(n, max(1, math.ceil(round(q / 100.0 * n, 9))))


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def top_n_sum(latencies: Iterable[float], n: int = TOP_N) -> float:
    """Summed latency of the ``n`` slowest statements (all when fewer)."""
    return sum(sorted(latencies, reverse=True)[:n])


def failed_ratio(failed: int, attempted: int) -> float:
    """Failures over attempts; the base must be positive."""
    if attempted <= 0:
        raise ValueError("failed_ratio needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def meets_rate(tail_ms: float, last_completion: float, schedule_end: float,
               failed: int) -> bool:
    """Whether one offered rate was served: no failures, the tail under the
    limit, and no backlog left growing past the schedule's end."""
    return (
        failed == 0
        and tail_ms <= LATENCY_LIMIT_MS
        and last_completion - schedule_end <= BACKLOG_LIMIT_S
    )


def max_rate(rates: Sequence[Tuple[float, bool]]) -> float:
    """The highest offered rate that was met (0 when none was)."""
    met = [rate for rate, ok in rates if ok]
    return max(met) if met else 0.0


def count_failures(errors: Iterable[Optional[str]]) -> Tuple[int, int]:
    """``(shed, errors)`` among operations' errors (``None`` for success): a
    read shed by admission counts as shed, every other failure -- a read
    that raised or timed out, a failed write -- as an error."""
    failures = [error for error in errors if error is not None]
    shed = sum(error.startswith(SHED_PREFIX) for error in failures)
    return shed, len(failures) - shed


def same_rows(actual: Iterable[tuple], expected: Iterable[tuple]) -> bool:
    """Multiset equality of result rows (row order is not part of SQL)."""
    return Counter(map(tuple, actual)) == Counter(map(tuple, expected))


def _plain(value: object) -> object:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def config_id(config: Dict[str, object]) -> str:
    """A stable short id over a configuration (equal configs, equal ids)."""
    payload = json.dumps(_plain(config), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def interval_union(intervals: Iterable[Tuple[float, float]],
                   clip: Optional[Tuple[float, float]] = None) -> float:
    """Total length covered by ``intervals`` (optionally clipped to ``clip``),
    counting overlapping stretches once."""
    spans: List[Tuple[float, float]] = []
    for start, end in intervals:
        if clip is not None:
            start, end = max(start, clip[0]), min(end, clip[1])
        if end > start:
            spans.append((start, end))
    spans.sort()
    covered = 0.0
    cur_start = cur_end = None
    for start, end in spans:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


@dataclass
class Outcome:
    """Attempted/failed operations of the timed part of a run."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def check(self, name: str, rows: Optional[Sequence[tuple]],
              expected: Sequence[tuple], error: Optional[str] = None) -> bool:
        self.attempted += 1
        if error is None and rows is not None and same_rows(rows, expected):
            return True
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{name}: {error or 'rows differ from the expected answer'}")
        return False
