"""The benchmark's three workloads, driven through ``repro``'s public API.

* ``job-cold``  -- IMDB at scale 1, plain tables; every pass runs the 113 JOB
  statements once on a fresh ``connect(db, adaptive=True)`` (cold plan cache),
  one closed-loop client.
* ``job-large`` -- IMDB at scale 5; tables with a ``movie_id`` column are
  hash-partitioned 4 ways on it and ``title`` is range-partitioned on
  ``production_year``.  The 113 statements are cycled on one long-lived
  ``adaptive=True`` connection, one closed-loop client.
* ``serve-mixed`` -- ``Server(db, workers=2, adaptive=True)`` over IMDB at
  scale 1, fed by one open-loop generator thread at three fixed offered rates.
  19 of 20 operations read (the 41 JOB statements joining at most 7 tables);
  1 of 20 loads a batch of orphan ``movie_keyword`` rows (no ``title`` or
  ``keyword`` row matches them, so every answer stays fixed), and every 5th
  write also ANALYZEs ``movie_keyword``.

The dataset and the statement texts are the repository's canonical ones
(``ImdbConfig`` and ``JobWorkloadConfig`` defaults); the run seed drives the
statement order and, on ``serve-mixed``, the read order and the write
batches.  The seed does not regenerate the data: doing so moved a pass's
top-20 time by 23% (quartile spread over 11 seeds), more than a regression
bound can absorb.  Every answer is checked, as a multiset, against rows
computed once by the row-at-a-time reference engine without re-optimization
on a separate plain-table copy of the data.

The end-to-end metrics are the same five on every workload.  On
``serve-mixed``, ``throughput_qps`` is a closed-loop saturation measurement
and the latency metrics are those of the ``lo`` rate: at ``mid`` and ``hi``
queueing amplifies the host's speed drift (the p90 at ``hi`` spread 44% over
five seeds), so those rates are printed, not gated.  Its ``top20_s`` is
taken per pass over the reads, as on the JOB workloads, and the median over
passes: one sum over a rate's whole schedule rests on its slowest 12% of
reads, and spread 0.15 over seven seeds.  Statement times are scaled by the
speed probe in ``speed.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import os
import random
import sys
import time
import traceback
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from metrics import (
    SHED_PREFIX,
    TIMED_OUT,
    Outcome,
    config_id,
    count_failures,
    meets_rate,
    median,
    percentile,
    top_n_sum,
)
from speed import SpeedProbe, SpeedTrace

from repro import EngineSettings, connect
from repro.catalog.schema import PartitionSpec, TableSchema
from repro.engine.database import Database
from repro.errors import AdmissionError
from repro.server import Server
from repro.workloads.imdb import ImdbConfig, ImdbDataset, generate_imdb_dataset, imdb_schemas
from repro.workloads.job import JobWorkloadConfig, generate_job_workload

#: Offered rates of ``serve-mixed`` (operations/s): about 1/4, 1/2 and 3/4 of
#: the ~60/s at which a 2-worker server saturated on a 2-core host (this
#: benchmark's closed-loop saturation measured 59-88 reads/s there).
RATES = (("lo", 15.0), ("mid", 30.0), ("hi", 45.0))
SERVER_WORKERS = 2
#: Reads per write, and writes per ANALYZE, on ``serve-mixed``.
READS_PER_WRITE = 19
WRITES_PER_ANALYZE = 5
WRITE_BATCH_ROWS = 100
#: Orphan key range: far above every generated id, so nothing joins to it.
ORPHAN_BASE = 1_000_000_000
#: Statements joining at most this many tables are ``serve-mixed`` reads.
MAX_READ_TABLES = 7
#: Shuffles of the reads in the closed-loop saturation measurement, and the
#: reads it keeps in flight per round.
SATURATION_SHUFFLES = 8
SATURATION_OUTSTANDING = 2 * SERVER_WORKERS
#: The generator times the speed probe only when the next send is at least
#: this far off (a probe, two back-to-back runs, takes under 1 ms).
PROBE_MARGIN_S = 0.004
#: Seconds a read may take past its schedule before it counts as timed out.
READ_TIMEOUT_S = 30.0
#: Range bounds of ``title`` on ``production_year`` (four partitions).
TITLE_YEAR_BOUNDS = (1980, 2000, 2010)
HASH_PARTITIONS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    layout: str  # "plain" or "partitioned"
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("job-cold", 1.0, "plain", setups=5),
        Workload("job-large", 5.0, "partitioned", setups=3),
        Workload("serve-mixed", 1.0, "plain", setups=5),
    )
}


def run_config(workload: Workload, seed: int, seconds: float) -> Dict[str, object]:
    """Everything that identifies a result; hashed into its config id."""
    config: Dict[str, object] = {
        "workload": workload.name,
        "scale": workload.scale,
        "layout": workload.layout,
        "seed": seed,
        "seconds": seconds,
        "data": dataclasses.asdict(ImdbConfig(scale=workload.scale)),
        "job": dataclasses.asdict(JobWorkloadConfig()),
        "settings": EngineSettings(),
        "connect": {"adaptive": True},
    }
    if workload.layout == "partitioned":
        config["partitions"] = {"hash": HASH_PARTITIONS, "title_years": TITLE_YEAR_BOUNDS}
    if workload.name == "serve-mixed":
        config["server"] = {"workers": SERVER_WORKERS, "adaptive": True}
        config["rates"] = RATES
        config["writes"] = (READS_PER_WRITE, WRITES_PER_ANALYZE, WRITE_BATCH_ROWS)
    return config


# -- data and set-up -------------------------------------------------------------


def layout_schema(schema: TableSchema, layout: str) -> TableSchema:
    """The schema with the workload's partitioning applied."""
    if layout != "partitioned":
        return schema
    names = {column.name for column in schema.columns}
    if "movie_id" in names:
        spec = PartitionSpec("hash", "movie_id", partitions=HASH_PARTITIONS)
    elif schema.name == "title":
        spec = PartitionSpec("range", "production_year", bounds=TITLE_YEAR_BOUNDS)
    else:
        return schema
    return dataclasses.replace(schema, partition_spec=spec)


def build_database(dataset: ImdbDataset, layout: str) -> Database:
    """Create, load, index and ANALYZE the IMDB tables at their defaults."""
    db = Database()
    for schema in imdb_schemas():
        db.create_table(layout_schema(schema, layout))
        db.load_rows(schema.name, dataset.tables.get(schema.name, []))
    db.finalize_load()
    return db


def job_statements(dataset: ImdbDataset) -> List[Tuple[str, str, int]]:
    """``(name, sql, table count)`` of the 113 JOB statements."""
    return [(q.name, q.sql, q.num_tables)
            for q in generate_job_workload(dataset.vocabulary, JobWorkloadConfig())]


# -- expected answers ------------------------------------------------------------------


def source_digest(root: str) -> str:
    """Hash of the engine's source, so cached answers follow code changes."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def expected_answers(root: str, scale: float, cache_dir: str) -> Dict[str, List[tuple]]:
    """Rows of every JOB statement at ``scale``, from the reference engine
    with re-optimization off, on a plain-table copy of the data.

    Computed once per data configuration and source tree, then read from
    ``cache_dir``.
    """
    key = config_id({"scale": scale, "data": dataclasses.asdict(ImdbConfig(scale=scale)),
                     "job": dataclasses.asdict(JobWorkloadConfig()),
                     "source": source_digest(root)})
    path = os.path.join(cache_dir, f"expected-{key}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            stored = json.load(handle)
        return {name: [tuple(row) for row in rows] for name, rows in stored.items()}
    started = time.perf_counter()
    dataset = generate_imdb_dataset(ImdbConfig(scale=scale))
    conn = connect(build_database(dataset, "plain"), engine="reference", reoptimize=False)
    answers = {}
    for name, sql, _ in job_statements(dataset):
        cursor = conn.cursor()
        cursor.execute(sql)
        answers[name] = [tuple(row) for row in cursor.fetchall()]
    conn.close()
    os.makedirs(cache_dir, exist_ok=True)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(answers, handle)
    os.replace(path + ".tmp", path)
    print(f"# expected answers at scale {scale:g}: computed in "
          f"{time.perf_counter() - started:.1f} s -> {path}", file=sys.stderr)
    return answers


# -- results -------------------------------------------------------------------------


@dataclass
class PassResult:
    #: Per-statement latencies, scaled to the reference host speed.
    latencies: List[float]
    #: The same latencies, unscaled wall-clock seconds.
    raw: List[float]
    traced: bool
    cache: Tuple[int, int, int] = (0, 0, 0)  # hits, lookups, stale evictions

    @property
    def wall(self) -> float:
        return sum(self.raw)

    @property
    def throughput(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def _run_statement(conn, sql: str):
    cursor = conn.cursor()
    cursor.execute(sql)
    return cursor.fetchall()


def _cache_counts(conn) -> Tuple[int, int, int]:
    stats = conn.cache_stats
    return stats.hits, stats.lookups, stats.stale_evictions


def run_pass(conn, statements, expected, outcome: Optional[Outcome], probe: SpeedProbe,
             tracer=None) -> PassResult:
    """One pass over ``statements`` on ``conn``.  The speed probe runs before
    the first statement and after each one, outside the statements' timing,
    and each latency is scaled by the probes around it.  Answers are checked
    after the pass."""
    gc.collect()  # start every pass from the same collector state
    before = _cache_counts(conn)
    speed = SpeedTrace(probe)
    spans, answers = [], []
    speed.sample()
    if tracer is not None:
        tracer.enabled = True
    for name, sql in statements:
        if tracer is not None:
            tracer.set_statement(tracer.new_statement())
        t0 = time.perf_counter()
        try:
            rows, error = _run_statement(conn, sql), None
        except Exception as exc:  # noqa: BLE001 - a failed statement is counted, not fatal
            rows, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        spans.append((t0, time.perf_counter()))
        speed.sample()
        answers.append((name, rows, error))
    if tracer is not None:
        tracer.enabled = False
        tracer.set_statement(None)
    after = _cache_counts(conn)
    if outcome is not None:
        for name, rows, error in answers:
            outcome.check(name, rows, expected[name], error)
    latencies = [speed.scaled(t0, t1) for t0, t1 in spans]
    raw = [t1 - t0 for t0, t1 in spans]
    cache = tuple(b - a for a, b in zip(before, after))
    return PassResult(latencies, raw, tracer is not None, cache)


def measure_job(workload: Workload, db: Database, statements, expected, seconds: float,
                outcome: Outcome, tracer=None) -> List[PassResult]:
    """One warm-up pass, then as many timed passes as fit in ``seconds`` at
    the warm-up pass's speed (at least two).  With a tracer, passes
    alternate untraced/traced."""
    fresh = workload.name == "job-cold"
    long_lived = None if fresh else connect(db, adaptive=True)
    probe = SpeedProbe()

    def one_pass(check: bool, traced: bool) -> PassResult:
        conn = connect(db, adaptive=True) if fresh else long_lived
        try:
            return run_pass(conn, statements, expected, outcome if check else None,
                            probe, tracer if traced else None)
        finally:
            if fresh:
                conn.close()

    warm_up = one_pass(check=False, traced=False)  # lazy caches fill here
    count = max(2, round(seconds / warm_up.wall))
    passes = [one_pass(check=True, traced=tracer is not None and i % 2 == 1)
              for i in range(count)]
    if long_lived is not None:
        long_lived.close()
    return passes


def job_metrics(passes: List[PassResult], wall: bool = False) -> Dict[str, float]:
    """The JOB end-to-end figures of the untraced passes, from the scaled
    latencies (unscaled wall clock with ``wall``)."""
    timed = [p.raw if wall else p.latencies for p in passes if not p.traced]
    latencies = [x for p in timed for x in p]
    return {
        "throughput_qps": median([len(p) / sum(p) for p in timed]),
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_p90_ms": percentile(latencies, 90) * 1000.0,
        "top20_s": median([top_n_sum(p) for p in timed]),
    }


# -- serve-mixed -----------------------------------------------------------------------


@dataclass
class Op:
    """One scheduled operation of the open loop."""

    due: float
    name: str = ""  # read statement name; empty for a write
    sql: str = ""
    batch: List[tuple] = field(default_factory=list)  # rows a write loads
    analyze: bool = False
    rows: List[tuple] = field(default_factory=list)  # rows a read returned
    sent: float = 0.0
    done: float = 0.0
    #: ``done - due`` scaled to the reference host speed.
    scaled: float = 0.0
    future: object = None
    error: Optional[str] = None


@dataclass
class RateResult:
    label: str
    rate: float
    ops: List[Op]
    started: float
    schedule_end: float
    reads: List[Op] = field(default_factory=list)
    writes: List[Op] = field(default_factory=list)
    probes: int = 0

    def failures(self) -> Tuple[int, int]:
        """``(shed, errors)`` over this rate's operations."""
        return count_failures(op.error for op in self.ops)

    def read_ms(self, wall: bool = False) -> List[float]:
        """Read latencies from scheduled send, scaled to the reference speed
        (unscaled with ``wall``)."""
        return [((op.done - op.due) if wall else op.scaled) * 1000.0
                for op in self.reads if op.error is None]

    def top20_s(self, per_pass: int, wall: bool = False) -> float:
        """Like a JOB pass's ``top20_s``: the summed latency (s) of the 20
        slowest reads of each pass over the schedule (every read once), the
        median over passes; scaled (unscaled with ``wall``)."""
        latencies = [((op.done - op.due) if wall else op.scaled) for op in self.reads]
        return median([top_n_sum(latencies[start:start + per_pass])
                       for start in range(0, len(latencies), per_pass)])

    def write_ms(self, wall: bool = False) -> List[float]:
        """Write latencies from scheduled send, scaled to the reference speed
        (unscaled with ``wall``)."""
        return [((op.done - op.due) if wall else op.scaled) * 1000.0
                for op in self.writes]

    def last_completion(self) -> float:
        return max(op.done for op in self.ops)


class WriteBatches:
    """Seeded batches of orphan ``movie_keyword`` rows."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._next_id = ORPHAN_BASE

    def next(self) -> List[tuple]:
        rows = []
        for _ in range(WRITE_BATCH_ROWS):
            self._next_id += 1
            rows.append((self._next_id,
                         ORPHAN_BASE + self._rng.randrange(ORPHAN_BASE),
                         ORPHAN_BASE + self._rng.randrange(ORPHAN_BASE)))
        return rows


def serve_schedule(reads: Sequence[Tuple[str, str]], rng: random.Random,
                   permutations: int, batches: WriteBatches,
                   writes_so_far: int) -> List[Op]:
    """One rate's operations: ``permutations`` seeded shuffles of the reads
    (so every rate serves the same multiset), a write after every
    ``READS_PER_WRITE`` reads, and ANALYZE on every ``WRITES_PER_ANALYZE``-th
    write."""
    ops: List[Op] = []
    sent_reads = 0
    for _ in range(permutations):
        order = list(reads)
        rng.shuffle(order)
        for name, sql in order:
            ops.append(Op(0.0, name=name, sql=sql))
            sent_reads += 1
            if sent_reads % READS_PER_WRITE == 0:
                writes_so_far += 1
                ops.append(Op(0.0, batch=batches.next(),
                              analyze=writes_so_far % WRITES_PER_ANALYZE == 0))
    return ops


def _mark_done(op: Op, _future) -> None:
    op.done = time.perf_counter()


def drive_rate(session, label: str, rate: float, ops: List[Op],
               probe: SpeedProbe) -> RateResult:
    """Send ``ops`` on the open-loop schedule from this (generator) thread.

    Between sends, once every sent read has completed and the next send is
    more than ``PROBE_MARGIN_S`` away, the generator times the speed probe;
    each operation, from when it was due until it completed, is then scaled
    by the probes around it.
    """
    gc.collect()
    speed = SpeedTrace(probe)
    speed.sample()
    started = time.perf_counter() + 0.01
    pending: List[object] = []
    for index, op in enumerate(ops):
        op.due = started + index / rate
        delay = op.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        op.sent = time.perf_counter()
        if op.name:
            try:
                op.future = session.submit(op.sql)
            except AdmissionError as exc:
                op.error, op.done = f"{SHED_PREFIX}{exc}", op.sent
                continue
            op.future.add_done_callback(functools.partial(_mark_done, op))
            pending.append(op.future)
        else:
            try:
                session.load_rows("movie_keyword", op.batch)
                if op.analyze:
                    session.analyze(["movie_keyword"])
            except Exception as exc:  # noqa: BLE001 - a failed write is counted, not fatal
                op.error = f"{type(exc).__name__}: {exc}"
            op.done = time.perf_counter()
        next_due = started + (index + 1) / rate
        pending = list(futures_wait(
            pending, timeout=max(0.0, next_due - PROBE_MARGIN_S - time.perf_counter())
        ).not_done)
        if not pending and next_due - time.perf_counter() > PROBE_MARGIN_S:
            speed.sample()
    result = RateResult(label, rate, ops, started, started + len(ops) / rate)
    deadline = time.perf_counter() + READ_TIMEOUT_S
    for op in ops:
        if op.name:
            result.reads.append(op)
        else:
            result.writes.append(op)
        if op.future is None:  # a write, or a shed read
            continue
        try:
            statement = op.future.result(timeout=max(0.0, deadline - time.perf_counter()))
        except FutureTimeout:
            op.error, op.done = TIMED_OUT, time.perf_counter()
            continue
        except Exception as exc:  # noqa: BLE001 - a failed read is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
            continue
        op.rows = list(statement.rows)
    speed.sample()
    for op in ops:
        op.scaled = speed.scaled(op.due, op.done)
    result.probes = len(speed.taken)
    return result


def check_rate(result: RateResult, expected, outcome: Outcome) -> None:
    for op in result.ops:
        if op.name:
            outcome.check(op.name, op.rows if op.error is None else None,
                          expected[op.name], op.error)
        else:
            outcome.check("write", [], [], op.error)


def rate_met(result: RateResult) -> bool:
    """The max-rate rule, on unscaled wall-clock latencies."""
    failed = sum(op.error is not None for op in result.ops)
    latencies = result.read_ms(wall=True)
    tail = percentile(latencies, 90) if latencies else float("inf")
    return meets_rate(tail, result.last_completion(), result.schedule_end, failed)


SERVER_FIGURES = ("queue_wait_p50_ms", "queue_wait_p90_ms", "service_p50_ms",
                  "service_p90_ms", "busy_ratio", "shed", "errors")


def server_layer(result: RateResult) -> Dict[str, float]:
    """Queue wait and service time of one rate's reads (ms), busy ratio, and
    the rate's shed reads and other failures (see ``count_failures``)."""
    waits, service = [], []
    for op in result.reads:
        if op.error is None and op.future is not None:
            served = op.future.result().latency_seconds
            service.append(served * 1000.0)
            waits.append(max(0.0, (op.done - op.sent) - served) * 1000.0)
    wall = result.last_completion() - result.started
    busy = sum(service) / 1000.0 / (SERVER_WORKERS * wall) if wall > 0 else 0.0
    shed, errors = result.failures()
    values = (
        percentile(waits, 50) if waits else 0.0,
        percentile(waits, 90) if waits else 0.0,
        percentile(service, 50) if service else 0.0,
        percentile(service, 90) if service else 0.0,
        busy,
        float(shed),
        float(errors),
    )
    return dict(zip(SERVER_FIGURES, values))


def saturation_throughput(session, reads, rng: random.Random, expected,
                          outcome: Outcome, probe: SpeedProbe) -> Tuple[float, float]:
    """Closed loop over ``SATURATION_SHUFFLES`` seeded shuffles of the reads,
    in rounds of ``SATURATION_OUTSTANDING`` reads in flight with the speed
    probe timed between rounds: reads completed per second at saturation,
    with each round scaled to the reference speed, and unscaled."""
    order = list(reads) * SATURATION_SHUFFLES
    rng.shuffle(order)
    gc.collect()
    results, rounds = [], []
    speed = SpeedTrace(probe)
    speed.sample()
    for start in range(0, len(order), SATURATION_OUTSTANDING):
        began = time.perf_counter()
        batch = [(name, session.submit(sql))
                 for name, sql in order[start:start + SATURATION_OUTSTANDING]]
        for name, future in batch:
            try:
                results.append((name, list(future.result(timeout=READ_TIMEOUT_S).rows), None))
            except Exception as exc:  # noqa: BLE001 - counted as a failed read
                results.append((name, None, f"{type(exc).__name__}: {exc}"))
        rounds.append((began, time.perf_counter()))
        speed.sample()
    for name, rows, error in results:
        outcome.check(name, rows, expected[name], error)
    total = sum(speed.scaled(began, ended) for began, ended in rounds)
    wall = sum(ended - began for began, ended in rounds)
    return len(order) / total, len(order) / wall


def serve_reads(statements) -> List[Tuple[str, str]]:
    return [(name, sql) for name, sql, tables in statements if tables <= MAX_READ_TABLES]


def warm_server(session, reads) -> None:
    for _, sql in reads:
        session.execute(sql, timeout=READ_TIMEOUT_S)


def permutations_for(seconds: float, reads: int) -> int:
    """Shuffles of the reads per rate so the three schedules span ``seconds``."""
    per_shuffle = reads * (1 + 1 / READS_PER_WRITE) * sum(1 / rate for _, rate in RATES)
    return max(1, round(seconds / per_shuffle))


def run_serve(session, reads, rng: random.Random, seconds: float, probe: SpeedProbe,
              tracer=None) -> List[RateResult]:
    batches = WriteBatches(random.Random(rng.random()))
    permutations = permutations_for(seconds, len(reads))
    results, writes = [], 0
    if tracer is not None:
        tracer.enabled = True
    for label, rate in RATES:
        ops = serve_schedule(reads, rng, permutations, batches, writes)
        writes += sum(1 for op in ops if not op.name)
        results.append(drive_rate(session, label, rate, ops, probe))
    if tracer is not None:
        tracer.enabled = False
    return results


# -- set-up ------------------------------------------------------------------------------


def timed_setups(workload: Workload, repeats: int, serve: bool = False):
    """Run the set-up ``repeats`` times: generate, create, load, index and
    ANALYZE (and start the server when ``serve``).  Returns the durations,
    the last set-up's database and dataset, and its server (or ``None``);
    earlier set-ups are released before the next one starts."""
    durations: List[float] = []
    db = dataset = server = None
    for _ in range(repeats):
        if server is not None:
            server.close()
        db = dataset = server = None
        gc.collect()
        started = time.perf_counter()
        dataset = generate_imdb_dataset(ImdbConfig(scale=workload.scale))
        db = build_database(dataset, workload.layout)
        if serve:
            server = Server(db, workers=SERVER_WORKERS, adaptive=True)
        durations.append(time.perf_counter() - started)
    return durations, db, dataset, server


def ensure_expected(root: str, cache_dir: str) -> Dict[float, Dict[str, List[tuple]]]:
    """Expected answers for every scale a workload uses (computed once per
    checkout, on its first run)."""
    scales = sorted({w.scale for w in WORKLOADS.values()})
    return {scale: expected_answers(root, scale, cache_dir) for scale in scales}

