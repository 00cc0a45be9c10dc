"""Self-tests of the benchmark's own arithmetic.

``run.py`` runs them before every measurement (they take milliseconds); run
them alone with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import sys

from metrics import (
    SHED_PREFIX,
    TIMED_OUT,
    Outcome,
    config_id,
    count_failures,
    failed_ratio,
    max_rate,
    meets_rate,
    percentile,
    samples_beyond,
    top_n_sum,
)
from speed import REFERENCE_PROBE_S, SPEED_WINDOW_S, SpeedTrace, scaled
from tracing import Span, self_times


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(f"perfbench self-test failed: {message}")


def test_percentile_rank() -> None:
    values = list(range(1, 114))  # one JOB pass: 113 statements
    _check(percentile(values, 90) == 102, "p90 of 113 samples is the 102nd")
    _check(samples_beyond(113, 90) == 11, "p90 of 113 samples leaves 11 beyond")
    _check(percentile(values, 50) == 57, "p50 of 113 samples is the 57th")
    _check(percentile([3.0, 1.0, 2.0], 100) == 3.0, "p100 is the maximum")
    _check(percentile([5.0], 99) == 5.0, "one sample is every percentile")
    _check(samples_beyond(164, 90) >= 10, "p90 of one rate's 164 reads leaves 10 beyond")
    _check(samples_beyond(164, 95) < 10, "p95 of 164 reads would leave fewer than 10 beyond")


def test_top20() -> None:
    values = [float(v) for v in range(1, 31)]
    _check(top_n_sum(values) == sum(range(11, 31)), "top20 sums the 20 slowest")
    _check(top_n_sum([2.0, 1.0]) == 3.0, "top20 of fewer than 20 sums them all")


def _span(sid: int, start: float, end: float, parent=None) -> Span:
    span = Span(sid, f"s{sid}", start, parent, None)
    span.end = end
    return span


def test_self_time() -> None:
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),  # overlaps its sibling
        _span(4, 8.0, 12.0, parent=1),  # runs past its parent (another thread)
        _span(5, 2.0, 3.0, parent=2),  # nested two deep
    ]
    got = self_times(spans)
    _check(abs(got[1] - 3.0) < 1e-9, f"parent self time 10 - |[1,6] u [8,10]| = 3, got {got[1]}")
    _check(abs(got[2] - 2.0) < 1e-9, f"child self time 3 - 1 = 2, got {got[2]}")
    _check(abs(got[5] - 1.0) < 1e-9, "leaf self time is its duration")


def test_backlog_rule() -> None:
    end = 100.0
    _check(meets_rate(50.0, end + 0.5, end, 0), "tail and backlog within limits")
    _check(not meets_rate(50.0, end + 1.5, end, 0), "a backlog past 1 s misses")
    _check(not meets_rate(150.0, end, end, 0), "a tail past 100 ms misses")
    _check(not meets_rate(50.0, end, end, 1), "a failed operation misses")
    _check(max_rate([(15.0, True), (30.0, True), (45.0, False)]) == 30.0, "highest met rate")
    _check(max_rate([(15.0, False)]) == 0.0, "no met rate gives 0")


def test_failed_ratio_and_answers() -> None:
    _check(failed_ratio(1, 4) == 0.25, "failed over attempted")
    try:
        failed_ratio(0, 0)
    except ValueError:
        pass
    else:
        raise AssertionError("perfbench self-test failed: failed_ratio needs a base")
    outcome = Outcome()
    expected = [(1, "a"), (2, "b")]
    _check(outcome.check("q", [(2, "b"), (1, "a")], expected), "row order is ignored")
    _check(not outcome.check("q", [(1, "a"), (2, "c")], expected), "a corrupted row is caught")
    _check(not outcome.check("q", [(1, "a"), (1, "a"), (2, "b")], expected),
           "a duplicated row is caught")
    _check(not outcome.check("q", None, expected, "boom"), "an error is a failure")
    _check((outcome.attempted, outcome.failed) == (4, 3), "every check is counted")


def test_server_failure_counts() -> None:
    shed_read = f"{SHED_PREFIX}admission queue full"
    failed_read = "ExecutionError: boom"
    failed_write = "StorageError: table is read-only"
    _check(count_failures([None, None]) == (0, 0), "successes count nowhere")
    _check(count_failures([shed_read]) == (1, 0), "a shed read counts as shed")
    _check(count_failures([TIMED_OUT]) == (0, 1), "a timed-out read counts as an error")
    _check(count_failures([failed_read]) == (0, 1), "a read that raised counts as an error")
    _check(count_failures([failed_write]) == (0, 1), "a failed write counts as an error")
    _check(count_failures([None, shed_read, TIMED_OUT, failed_read, failed_write])
           == (1, 3), "every failure is counted once, under its cause")


def test_speed_scaling() -> None:
    _check(scaled(1.0, REFERENCE_PROBE_S) == 1.0, "a reference-speed host is not rescaled")
    _check(abs(scaled(3.0, 2 * REFERENCE_PROBE_S) - 1.5) < 1e-12,
           "a host twice as slow as the reference halves the time")
    w = SPEED_WINDOW_S
    speed = SpeedTrace(probe=None)
    speed.taken = [0.0, 0.1, 0.2, 0.3, 10.0, 10.1, 20.0]
    speed.seconds = [1.0, 9.0, 2.0, 3.0, 5.0, 7.0, 4.0]
    _check(speed.probe_seconds(0.15, 0.25) == 2.5,
           "the median of the probes within the window (1, 9, 2, 3 -> 2.5)")
    _check(speed.probe_seconds(5.0, 5.0 + w / 2) == 4.0,
           "no probe within the window: the neighbours (3, 5 -> 4)")
    _check(speed.probe_seconds(10.05, 10.05) == 6.0,
           "a window reaching one side only (5, 7 -> 6)")
    _check(speed.probe_seconds(25.0, 26.0) == 4.0, "past the last probe: the last probe")
    _check(abs(speed.scaled(0.15, 0.25) - scaled(0.1, 2.5)) < 1e-12,
           "an interval is scaled by its window's median")


def test_config_id() -> None:
    base = {"workload": "job-cold", "seed": 1, "settings": {"adaptive": True}}
    _check(config_id(base) == config_id(dict(base)), "equal configs share an id")
    _check(config_id(base) != config_id({**base, "seed": 2}), "the seed changes the id")


def run() -> None:
    test_percentile_rank()
    test_top20()
    test_self_time()
    test_backlog_rule()
    test_failed_ratio_and_answers()
    test_server_failure_counts()
    test_speed_scaling()
    test_config_id()


if __name__ == "__main__":
    run()
    print("perfbench self-tests passed")
    sys.exit(0)
