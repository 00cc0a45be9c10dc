"""Wall-clock benchmark of the ``repro`` engine, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload job-cold --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``job-cold``,
``job-large`` and ``serve-mixed``.  Every engine setting stays at its default
except ``adaptive=True``.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it installs span tracing around each layer's entry points
and reports the per-layer metrics instead, plus the tracing overhead (the
untraced throughput over the traced throughput of the same run).
Statement-path layer figures are per traced pass (per traced schedule on
``serve-mixed``); the set-up layers (``storage.load_*``, ``stats.*``) cover
one traced set-up plus the traced part of the run.  Spans are written to
``.perfbench/`` at the end of a traced run.

End-to-end statement times are wall-clock seconds scaled to a reference
host speed by an engine-independent speed probe timed between statements
(JOB), between open-loop sends once the server is idle, and between
closed-loop rounds (``serve-mixed``); see ``speed.py``.  ``setup_s``, the
max-rate rule and per-layer times use unscaled wall clock.

Human-readable lines (``#``-prefixed, every named metric with its unit and
sample count) come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Expected answers are computed once per checkout, on its first run, and
cached in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Dict

import selftest
from metrics import (
    Outcome,
    config_id,
    failed_ratio,
    max_rate,
    median,
    percentile,
    samples_beyond,
)
from speed import REFERENCE_PROBE_S, SpeedProbe
from tracing import EXECUTE, OPERATOR_KINDS, OTHER_KIND, Tracer, install, span_totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE_DIR = os.path.join(ROOT, ".perfbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("job-cold", "job-large", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def say(line: str) -> None:
    print("# " + line, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    selftest.run()
    import workloads as wl

    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = wl.WORKLOADS[args.workload]
    cid = config_id(wl.run_config(workload, args.seed, args.seconds))
    say(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} config_id={cid}")
    expected = wl.ensure_expected(ROOT, CACHE_DIR)[workload.scale]

    tracer = uninstall = None
    if args.trace:
        tracer = Tracer()
        uninstall = install(tracer)
    outcome = Outcome()
    try:
        if workload.name == "serve-mixed":
            end_to_end, layers = run_serve(workload, args, expected, outcome, tracer)
        else:
            end_to_end, layers = run_job(workload, args, expected, outcome, tracer)
    finally:
        if uninstall is not None:
            uninstall()

    say(f"failed_ratio {failed_ratio(outcome.failed, outcome.attempted):.6f} fraction "
        f"(failed {outcome.failed} of {outcome.attempted} attempted)")
    for error in outcome.errors:
        say(f"failure: {error}")
    if tracer is not None:
        os.makedirs(CACHE_DIR, exist_ok=True)
        path = os.path.join(CACHE_DIR, f"trace-{workload.name}-{cid}.jsonl")
        tracer.write(path, {"config_id": cid, "workload": workload.name, "seed": args.seed})
        say(f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else end_to_end
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in metrics.items():
        say(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


# -- JOB workloads ---------------------------------------------------------------------


def run_job(workload, args, expected, outcome, tracer):
    import workloads as wl

    if tracer is not None:
        tracer.enabled = True
    durations, db, dataset, _ = wl.timed_setups(
        workload, 1 if tracer is not None else workload.setups)
    if tracer is not None:
        tracer.enabled = False
    statements = [(name, sql) for name, sql, _ in wl.job_statements(dataset)]
    random.Random(args.seed).shuffle(statements)
    started = time.perf_counter()
    passes = wl.measure_job(workload, db, statements, expected, args.seconds, outcome, tracer)
    say(f"measured {len(passes)} passes of {len(statements)} statements in "
        f"{time.perf_counter() - started:.1f} s (after one warm-up pass)")

    end_to_end = wl.job_metrics(passes)
    end_to_end["setup_s"] = median(durations)
    wall = wl.job_metrics(passes, wall=True)
    untraced = [p for p in passes if not p.traced]
    n = sum(len(p.latencies) for p in untraced)
    say(f"setup_s {median(durations):.4f} s (median of {len(durations)} set-ups)")
    say(f"throughput_qps {end_to_end['throughput_qps']:.3f} statements/s, unscaled "
        f"{wall['throughput_qps']:.3f} (median of {len(untraced)} passes)")
    say(f"latency_p50_ms {end_to_end['latency_p50_ms']:.3f} ms, unscaled "
        f"{wall['latency_p50_ms']:.3f}; latency_p90_ms {end_to_end['latency_p90_ms']:.3f} "
        f"ms, unscaled {wall['latency_p90_ms']:.3f} ({n} statements, "
        f"{samples_beyond(n, 90)} beyond p90)")
    say(f"top20_s {end_to_end['top20_s']:.4f} s, unscaled {wall['top20_s']:.4f} "
        f"(median of {len(untraced)} passes)")
    say(f"scaled times read as on a host where the speed probe takes "
        f"{REFERENCE_PROBE_S * 1000:g} ms; unscaled statement time per pass: median "
        f"{median([p.wall for p in untraced]):.3f} s")
    if tracer is None:
        return end_to_end, {}

    traced = [p for p in passes if p.traced]
    hits = sum(p.cache[0] for p in traced)
    lookups = sum(p.cache[1] for p in traced)
    stale = sum(p.cache[2] for p in traced)
    overhead = median([p.throughput for p in untraced]) / median(
        [p.throughput for p in traced])
    say(f"tracing overhead: untraced/traced throughput = {overhead:.4f} "
        f"({len(untraced)} untraced, {len(traced)} traced passes)")
    layers = layer_metrics(tracer.spans, len(traced), (hits, lookups, stale), overhead)
    return end_to_end, layers


# -- serve-mixed ---------------------------------------------------------------------


def run_serve(workload, args, expected, outcome, tracer):
    import workloads as wl

    if tracer is not None:
        tracer.enabled = True
    durations, db, dataset, server = wl.timed_setups(
        workload, 1 if tracer is not None else workload.setups, serve=True)
    if tracer is not None:
        tracer.enabled = False
    try:
        reads = wl.serve_reads(wl.job_statements(dataset))
        rng = random.Random(args.seed)
        session = server.session()
        wl.warm_server(session, reads)
        stats = server.plan_cache.stats
        before = (stats.hits, stats.lookups, stats.stale_evictions)
        probe = SpeedProbe()
        results = wl.run_serve(session, reads, rng, args.seconds, probe, tracer)
        after = (stats.hits, stats.lookups, stats.stale_evictions)
        schedule_spans = list(tracer.spans) if tracer is not None else []
        for result in results:
            wl.check_rate(result, expected, outcome)
        throughput, wall_throughput = wl.saturation_throughput(
            session, reads, rng, expected, outcome, probe)
        traced_throughput = None
        if tracer is not None:
            tracer.enabled = True
            traced_throughput, _ = wl.saturation_throughput(session, reads, rng, expected,
                                                            outcome, probe)
            tracer.enabled = False
    finally:
        server.close()

    by_label = {r.label: r for r in results}
    lo = by_label["lo"].read_ms()
    lo_wall = by_label["lo"].read_ms(wall=True)
    end_to_end = {
        "setup_s": median(durations),
        "throughput_qps": throughput,
        "latency_p50_ms": percentile(lo, 50),
        "latency_p90_ms": percentile(lo, 90),
        "top20_s": by_label["lo"].top20_s(len(reads)),
    }
    say(f"setup_s {median(durations):.4f} s (median of {len(durations)} set-ups, "
        "server start included)")
    say(f"throughput_qps {throughput:.3f} reads/s, unscaled {wall_throughput:.3f} "
        f"(closed loop in rounds of {wl.SATURATION_OUTSTANDING} reads, saturation)")
    rate_ok = []
    for result in results:
        latencies = result.read_ms()
        walls = result.read_ms(wall=True)
        backlog = result.last_completion() - result.schedule_end
        met = wl.rate_met(result)
        rate_ok.append((result.rate, met))
        shed, errors = result.failures()
        say(f"rate {result.label} ({result.rate:g}/s): read_p50_ms.{result.label} "
            f"{percentile(latencies, 50):.3f} ms, unscaled {percentile(walls, 50):.3f}; "
            f"read_p90_ms.{result.label} {percentile(latencies, 90):.3f} ms, unscaled "
            f"{percentile(walls, 90):.3f} ({len(latencies)} reads, "
            f"{samples_beyond(len(latencies), 90)} beyond p90); top20 "
            f"{result.top20_s(len(reads)):.4f} s, unscaled "
            f"{result.top20_s(len(reads), wall=True):.4f}; {len(result.writes)} writes; "
            f"{shed} shed, {errors} errors; backlog {backlog:+.3f} s; "
            f"{result.probes} probes; {'met' if met else 'missed'}")
    say(f"latency_p50_ms {end_to_end['latency_p50_ms']:.3f} ms, unscaled "
        f"{percentile(lo_wall, 50):.3f}; latency_p90_ms {end_to_end['latency_p90_ms']:.3f} "
        f"ms, unscaled {percentile(lo_wall, 90):.3f}; top20_s {end_to_end['top20_s']:.4f} s, "
        f"unscaled {by_label['lo'].top20_s(len(reads), wall=True):.4f} (the reads at lo; "
        f"top20 per pass of {len(reads)} reads, median over passes)")
    say("scaled times read as on a host where the speed probe takes "
        f"{REFERENCE_PROBE_S * 1000:g} ms; the max-rate rule uses wall clock")
    writes = by_label["mid"].write_ms()
    say(f"write_p50_ms {percentile(writes, 50):.3f} ms, unscaled "
        f"{percentile(by_label['mid'].write_ms(wall=True), 50):.3f} "
        f"({len(writes)} writes at mid)")
    lags = [(op.sent - op.due) * 1000.0 for op in by_label["hi"].ops]
    say(f"generator_lag_ms {percentile(lags, 90):.3f} ms (p90 at hi, {len(lags)} sends, "
        f"{samples_beyond(len(lags), 90)} beyond)")
    say(f"max_rate_qps {max_rate(rate_ok):g} ops/s (read p90 <= 100 ms, backlog <= 1 s)")
    if tracer is None:
        return end_to_end, {}

    overhead = throughput / traced_throughput
    say(f"tracing overhead: untraced/traced saturation throughput = {overhead:.4f}")
    cache = tuple(b - a for a, b in zip(before, after))
    layers = layer_metrics(schedule_spans, 1, cache, overhead, results, max_rate(rate_ok))
    return end_to_end, layers


# -- per-layer figures -------------------------------------------------------------------


def layer_metrics(spans, passes: int, cache, overhead: float, rates=(),
                  max_rate_qps: float = 0.0) -> Dict[str, float]:
    """Per-layer figures from the traced spans (see the module docstring);
    ``cache`` is the plan cache's (hits, lookups, stale evictions) over the
    traced passes, ``rates`` the traced ``serve-mixed`` schedule."""
    import workloads as wl

    totals = span_totals(spans)
    n = max(1, passes)

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    hits, lookups, stale = cache
    execute_s = get(EXECUTE, "self_s")
    rows = get(EXECUTE, "rows")
    layers = {
        "sql.parse_s": get("sql.parse", "self_s") / n,
        "sql.bind_s": get("sql.bind", "self_s") / n,
        "optimizer.plan_s": get("optimizer.plan", "self_s") / n,
        "optimizer.plan_calls": get("optimizer.plan", "count") / n,
        "optimizer.candidates": get("optimizer.plan", "candidates") / n,
        "optimizer.estimate_calls": get("optimizer.plan", "estimate_calls") / n,
        "optimizer.feedback_record_s": get("optimizer.feedback_record", "self_s") / n,
        "optimizer.feedback_records": get("optimizer.feedback_record", "count") / n,
        "engine.plan_cache_hits": hits / n,
        "engine.plan_cache_lookups": lookups / n,
        "engine.plan_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.plan_cache_stale_evictions": stale / n,
        "engine.snapshot_s": get("engine.snapshot", "self_s") / n,
        "executor.execute_s": execute_s / n,
        "executor.rows_processed": rows / n,
        "executor.rows_per_s": rows / execute_s if execute_s else 0.0,
        "core.reoptimized_stmts": get(EXECUTE, "replanned") / n,
        "core.replans": get(EXECUTE, "replans") / n,
        "core.replan_s": get("core.replan", "self_s") / n,
        "core.handover_rows": get(EXECUTE, "handover_rows") / n,
        "storage.load_s": get("storage.load", "self_s"),
        "storage.rows_loaded": get("storage.load", "rows"),
        "storage.segments_skipped": get(EXECUTE, "segments_skipped") / n,
        "storage.columns_decoded": get(EXECUTE, "columns_decoded") / n,
        "stats.analyze_s": get("stats.analyze", "self_s"),
        "stats.analyze_calls": get("stats.analyze", "count"),
        "server.max_rate_qps": max_rate_qps,
        "trace.overhead_ratio": overhead,
    }
    for kind in [k for _, k in OPERATOR_KINDS] + [OTHER_KIND]:
        layers[f"executor.rows.{kind}"] = get(EXECUTE, f"rows.{kind}") / n
    by_label = {result.label: result for result in rates}
    for label, _ in wl.RATES:
        figures = (wl.server_layer(by_label[label]) if label in by_label
                   else dict.fromkeys(wl.SERVER_FIGURES, 0.0))
        for key, value in figures.items():
            layers[f"server.{key}.{label}"] = value
    return layers


if __name__ == "__main__":
    sys.exit(main())
