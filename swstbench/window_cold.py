"""``window-cold``: the moving-window read path of an in-memory engine.

One client drives a 2-shard in-memory ``ShardedEngine`` with its default
threaded executor.  It alternates an acknowledged ``extend`` of the
stream's next 64 reports with eight queries (interval, timeslice and
count calls in a fixed cycle), each placed at a fresh random position
inside the queriable period, so every query has a new temporal
signature and the plan cache misses.  Query sizes cycle through the
paper's Fig. 9 extents and Fig. 10 lengths, so every seed sees the same
size mix.  Each ~520-page shard fits its 1,024-page buffer pool, so
storage does no physical I/O; query time is temporal classification
plus the shard-side search.

Nothing reaches a device, so ``write_bytes_per_user_byte`` counts the
page writes the index issues to its buffer pool.  Space is sampled
every :data:`SPACE_EVERY` extends.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from common import (INTERVAL_LENGTHS, SPATIAL_EXTENTS, STATE_SAMPLES, Check,
                    Round, chunks, entry_key, peak_rss_mb, time_setup,
                    user_bytes)
from harness import Run, measure_single
from repro.engine import ShardedEngine

EXTEND_BATCH = 64
#: Query types of one cycle; an extend precedes every cycle.
QUERY_CYCLE = ("interval", "timeslice", "interval", "count",
               "interval", "timeslice", "interval", "count")
#: Every CHECK_EVERY-th query is verified against the oracle.
CHECK_EVERY = 8
#: Queries whose node accesses form ``node_accesses_per_query``: a fixed
#: prefix of the op sequence (32 cycles of the 9 query sizes), exact
#: for a seed.
NODE_ACCESS_PREFIX = 288
SPACE_EVERY = 8


def execute(run: Run) -> None:
    inputs = run.inputs
    config = inputs.config

    def build(_: int, tick: Callable[[], None]) -> ShardedEngine:
        engine = ShardedEngine(config)
        for chunk in chunks(inputs.head):
            engine.extend(chunk)
            tick()
        return engine

    engine, run.setup = time_setup(build, lambda e: e.close())
    try:
        start_io = engine.stats.snapshot()
        space = drive(run, engine)
        written = engine.stats.diff(start_io).logical_writes \
            * config.page_size
        # A closing flush to the memory device, untimed: it gives the
        # traced run its engine.save span.
        if run.tracer is not None:
            run.tracer.install()
        try:
            engine.save()
        finally:
            if run.tracer is not None:
                run.tracer.uninstall()
        reports = sum(r.done.get("reports", 0) for r in run.rounds)
        prefix = run.node_accesses[:NODE_ACCESS_PREFIX]
        run.notes["node_access_queries"] = len(prefix)
        run.final = {
            "node_accesses_per_query": sum(prefix) / max(len(prefix), 1),
            "write_bytes_per_user_byte":
                written / max(user_bytes(reports), 1),
            "space_bytes_per_user_byte":
                space[0] / max(space[1], 1),
            "peak_rss_mb": peak_rss_mb([os.getpid()]),
        }
    finally:
        engine.close()


def drive(run: Run, engine: ShardedEngine) -> tuple[int, int]:
    """The measured closed loop; returns the summed space samples
    ``(bytes stored, user bytes)``."""
    inputs = run.inputs
    page_size = inputs.config.page_size
    space = [0, 0]
    batches = inputs.batches(EXTEND_BATCH)
    rng = inputs.rng("window-cold-queries")
    state = {"op": 0, "queries": 0, "extends": 0, "space_samples": 0,
             "position": len(inputs.head)}
    cycle = len(QUERY_CYCLE) + 1
    tracer = run.tracer

    def step(rnd: Round) -> float:
        op = state["op"]
        state["op"] = op + 1
        if tracer is not None:
            tracer.set_request(op)
        slot = op % cycle
        if slot == 0:
            batch = next(batches)
            ok, start, end, _ = run.timed(rnd, "extend",
                                          lambda: engine.extend(batch))
            if not ok:
                return end - start
            run.latency["ack"].add(start, end, rnd.index)
            run.done(rnd, "reports", len(batch))
            state["position"] += len(batch)
            run.digests.append([op, "extend", len(batch), 0])
            state["extends"] += 1
            if state["extends"] % SPACE_EVERY == 0 \
                    and state["space_samples"] < STATE_SAMPLES:
                state["space_samples"] += 1
                space[0] += engine.node_count() * page_size
                space[1] += user_bytes(len(engine))
            return end - start
        kind = QUERY_CYCLE[slot - 1]
        j = state["queries"]
        area = inputs.rect(rng, SPATIAL_EXTENTS[j % 3])
        length = 0.0 if kind == "timeslice" \
            else INTERVAL_LENGTHS[1 + (j // 3) % 3]
        t_lo, t_hi = inputs.interval(engine.now, length, rng.random())
        calls = {"count": lambda: engine.count_interval(area, t_lo, t_hi),
                 "timeslice": lambda: engine.query_timeslice(area, t_lo),
                 "interval": lambda: engine.query_interval(area, t_lo,
                                                           t_hi)}
        ok, start, end, result = run.timed(rnd, kind, calls[kind])
        if not ok:
            return end - start
        answer: Any
        if kind == "count":
            answer, stats = result
        else:
            stats = result.stats
            answer = entry_key((e.oid, e.x, e.y, e.s, e.d)
                               for e in result.entries)
        run.latency["query"].add(start, end, rnd.index)
        run.done(rnd, "query_ok")
        if rnd.traced:
            run.query_spans.append((start, end))
        run.node_accesses.append(stats.node_accesses)
        run.digests.append([op, kind, hash(answer), stats.node_accesses])
        if state["queries"] % CHECK_EVERY == 0:
            run.checks.append(Check(state["position"], kind, area, t_lo,
                                    t_hi, answer))
        state["queries"] += 1
        return end - start

    measure_single(run, step,
                   until=lambda: state["queries"] >= NODE_ACCESS_PREFIX
                   and state["space_samples"] >= STATE_SAMPLES)
    return space[0], space[1]
