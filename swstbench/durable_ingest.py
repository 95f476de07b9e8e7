"""``durable-ingest``: the write side, WAL-durable, larger than its cache.

A 2-shard ``WorkerEngine`` runs each shard in its own worker process
with a 64-page buffer pool against a ~520-page shard, so the index does
not fit its cache and ingest evicts and writes pages.  One client
issues acknowledged ``extend`` batches of 64 reports; every
acknowledgement is a WAL group commit plus an fsync in each worker.
Every :data:`BATCHES_PER_QUERY` batches it adds a cold
``query_interval`` (sizes cycling through the Fig. 9 extents and the
Fig. 10 lengths), and every :data:`BATCHES_PER_SAVE` batches a
``save()`` checkpoint, timed as its own operation.  A batch that
crosses an epoch boundary (a multiple of ``Wmax``) is sent as two
``extend`` calls around an explicit ``advance_time`` to the boundary,
timed as a ``slide``: the slide drops a whole expired tree in every
cell, and folding those few drops into acknowledgements would put the
ack tail on the boundary between drop-bearing and ordinary batches.

Bytes written and space are taken at the first checkpoints, which fall
at fixed stream positions, so they do not depend on where a run stops.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Callable

from common import (INTERVAL_LENGTHS, SPATIAL_EXTENTS, STATE_SAMPLES, Check,
                    Round, chunks, directory_bytes, entry_key, peak_rss_mb,
                    time_setup, user_bytes)
from harness import Run, measure_single
from repro.engine import WorkerEngine
from repro.engine.wal import base_file_name
from repro.engine.engine import generation_dir
from tracing import install_worker_totals, read_worker_totals

EXTEND_BATCH = 64
BATCHES_PER_QUERY = 3
BATCHES_PER_SAVE = 48
#: Every CHECK_EVERY-th query is verified against the oracle.
CHECK_EVERY = 2
#: Queries whose node accesses form ``node_accesses_per_query``: a
#: fixed prefix of the op sequence (20 cycles of the 9 query sizes),
#: exact for a seed.
NODE_ACCESS_PREFIX = 180


class WalMeter:
    """Bytes appended to the shards' WALs, from their file sizes.

    A checkpoint resets each WAL to its header, so the appended bytes
    are summed over the intervals between checkpoints.
    """

    def __init__(self, engine: WorkerEngine) -> None:
        self.engine = engine
        self.appended = 0
        self.base = self._sizes()

    def _sizes(self) -> list[int]:
        return [os.path.getsize(self.engine.wal_path(sid))
                for sid in range(self.engine.n_shards)]

    def before_checkpoint(self) -> None:
        self.appended += sum(now - base for now, base
                             in zip(self._sizes(), self.base))

    def after_checkpoint(self) -> None:
        self.base = self._sizes()


def execute(run: Run) -> None:
    inputs = run.inputs
    config = inputs.config
    scratch = run.notes["scratch"]

    def build(attempt: int, tick: Callable[[], None]) -> tuple[Any, ...]:
        directory = os.path.join(scratch, f"durable-{attempt}")
        dump = os.path.join(scratch, f"worker-totals-{attempt}")
        restore = None
        if run.trace:
            os.makedirs(dump)
            restore = install_worker_totals(dump)
        try:
            engine = WorkerEngine(config, directory)
        finally:
            if restore is not None:
                restore()
        try:
            for chunk in chunks(inputs.head):
                engine.extend(chunk)
                tick()
            engine.save()
        except BaseException:
            engine.close()
            raise
        return engine, directory, dump

    def discard(state: tuple[Any, ...]) -> None:
        state[0].close()
        shutil.rmtree(state[1], ignore_errors=True)

    (engine, directory, dump), run.setup = time_setup(build, discard)
    try:
        wal = WalMeter(engine)
        meter = drive(run, engine, wal)
        reports = sum(r.done.get("reports", 0) for r in run.rounds)
        prefix = run.node_accesses[:NODE_ACCESS_PREFIX]
        run.notes["node_access_queries"] = len(prefix)
        pids = [os.getpid()] + [engine.pool._handles[sid].process.pid
                                for sid in engine.pool.live_shards()]
        run.final = {
            "node_accesses_per_query": sum(prefix) / max(len(prefix), 1),
            "write_bytes_per_user_byte":
                meter.written / max(user_bytes(meter.reports), 1),
            "space_bytes_per_user_byte":
                meter.stored / max(meter.live, 1),
            "peak_rss_mb": peak_rss_mb(pids),
        }
        run.layer_extra["engine.wal.bytes_per_report"] = \
            meter.wal_bytes / max(meter.reports, 1)
    finally:
        engine.close()
    if run.trace:
        worker_layers(run, read_worker_totals(dump))


def worker_layers(run: Run, totals: dict[str, list[float]]) -> None:
    """Per-layer times measured inside the workers.

    Worker totals cover every measured round, traced or not, so they are
    normalised by the whole measured phase's queries and reports.
    """
    queries = sum(r.done.get("query_ok", 0) for r in run.rounds)
    ingest_s, ingest_reports, _ = totals["core.index.ingest"]
    query_s, _, query_calls = totals["core.index.query"]
    btree_s, _, _ = totals["btree.search"]
    run.layer_extra.update({
        "core.index.ingest_ms_per_report":
            ingest_s * 1000.0 / ingest_reports if ingest_reports else 0.0,
        "core.index.query_ms_per_shard_call":
            (query_s - btree_s) * 1000.0 / query_calls
            if query_calls else 0.0,
        "btree.search_ms_per_query":
            btree_s * 1000.0 / queries if queries else 0.0,
    })
    run.notes["worker_totals"] = dict(totals)


class CheckpointMeter:
    """Bytes written and space, taken at the first checkpoints.

    ``written``/``reports`` cover the measured phase up to the
    :data:`~common.STATE_SAMPLES`-th checkpoint: page, WAL, manifest
    (and save marker) and base-copy bytes.  ``stored``/``live`` sum the
    directory size and the live user bytes right after each of those
    checkpoints.
    """

    def __init__(self, engine: WorkerEngine, wal: WalMeter) -> None:
        self.engine = engine
        self.wal = wal
        self.start_io = engine.stats
        self.copies = self.samples = 0
        self.written = self.reports = self.stored = self.live = 0
        self.wal_bytes = 0

    def checkpointed(self, reports: int, copied: bool = True) -> None:
        if self.samples >= STATE_SAMPLES:
            return
        self.samples += 1
        engine = self.engine
        directory = engine.directory
        gen_dir = generation_dir(directory, engine.generation)
        if copied:
            self.copies += 2 * os.path.getsize(
                os.path.join(directory, "engine.json")) + sum(
                os.path.getsize(os.path.join(gen_dir, base_file_name(sid)))
                for sid in range(engine.n_shards))
        pages = engine.stats.diff(self.start_io).physical_writes \
            * engine.config.page_size
        self.wal_bytes = self.wal.appended
        self.written = pages + self.wal_bytes + self.copies
        self.reports = reports
        self.stored += directory_bytes(directory)
        self.live += user_bytes(len(engine))


def drive(run: Run, engine: WorkerEngine,
          wal: WalMeter) -> CheckpointMeter:
    """The measured closed loop."""
    inputs = run.inputs
    batches = inputs.batches(EXTEND_BATCH)
    rng = inputs.rng("durable-ingest-queries")
    state = {"op": 0, "batches": 0, "queries": 0, "reports": 0,
             "position": len(inputs.head)}
    tracer = run.tracer
    meter = CheckpointMeter(engine, wal)
    w_max = engine.config.w_max

    def checkpoint(rnd: Round) -> float:
        wal.before_checkpoint()
        ok, start, end, _ = run.timed(rnd, "save", engine.save)
        if not ok:
            return end - start
        wal.after_checkpoint()
        run.latency["save"].add(start, end, rnd.index)
        meter.checkpointed(state["reports"])
        return end - start

    def query(rnd: Round, op: int) -> float:
        j = state["queries"]
        area = inputs.rect(rng, SPATIAL_EXTENTS[j % 3])
        t_lo, t_hi = inputs.interval(
            engine.now, INTERVAL_LENGTHS[1 + (j // 3) % 3], rng.random())
        ok, start, end, result = run.timed(
            rnd, "query", lambda: engine.query_interval(area, t_lo, t_hi))
        if not ok:
            return end - start
        answer = entry_key((e.oid, e.x, e.y, e.s, e.d)
                           for e in result.entries)
        run.latency["query"].add(start, end, rnd.index)
        run.done(rnd, "query_ok")
        if rnd.traced:
            run.query_spans.append((start, end))
        run.node_accesses.append(result.stats.node_accesses)
        run.digests.append([op, "query", hash(answer),
                            result.stats.node_accesses])
        if state["queries"] % CHECK_EVERY == 0:
            run.checks.append(Check(state["position"], "interval", area,
                                    t_lo, t_hi, answer))
        state["queries"] += 1
        return end - start

    def slide(rnd: Round, now: int) -> float:
        ok, start, end, _ = run.timed(rnd, "slide",
                                      lambda: engine.advance_time(now))
        if ok:
            run.latency["slide"].add(start, end, rnd.index)
        return end - start

    def ingest(rnd: Round, op: int) -> float:
        batch = next(batches)
        state["batches"] += 1
        epoch = batch[-1].t // w_max
        if epoch == engine.now // w_max:
            return extend(rnd, op, batch)
        boundary = epoch * w_max
        before = [r for r in batch if r.t < boundary]
        waited = extend(rnd, op, before) if before else 0.0
        waited += slide(rnd, boundary)
        return waited + extend(rnd, op, batch[len(before):])

    def extend(rnd: Round, op: int, batch: list[Any]) -> float:
        ok, start, end, _ = run.timed(rnd, "extend",
                                      lambda: engine.extend(batch))
        if not ok:
            return end - start
        run.latency["ack"].add(start, end, rnd.index)
        run.done(rnd, "reports", len(batch))
        state["reports"] += len(batch)
        state["position"] += len(batch)
        run.digests.append([op, "extend", len(batch), 0])
        return end - start

    def step(rnd: Round) -> float:
        op = state["op"]
        state["op"] = op + 1
        if tracer is not None:
            tracer.set_request(op)
        slot = op % (BATCHES_PER_QUERY + 1)
        if slot == BATCHES_PER_QUERY:
            return query(rnd, op)
        waited = ingest(rnd, op)
        if state["batches"] % BATCHES_PER_SAVE == 0:
            waited += checkpoint(rnd)
        return waited

    measure_single(run, step,
                   until=lambda: state["queries"] >= NODE_ACCESS_PREFIX
                   and meter.samples >= STATE_SAMPLES)
    if meter.reports == 0:
        # No checkpoint completed: book what the run wrote so far.
        wal.before_checkpoint()
        meter.checkpointed(state["reports"], copied=False)
    return meter
