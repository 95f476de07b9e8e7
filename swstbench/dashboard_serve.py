"""``dashboard-serve``: the warm path of the serving front end.

A disk-backed 2-shard ``ShardedEngine``, built the way ``repro serve``
builds it, sits behind ``AsyncEngine`` and ``ServeApp``.  Requests go
straight to ``ServeApp.handle`` (no sockets: HTTP framing is left out).

* :data:`VIEWERS` viewers refresh a fixed panel of :data:`TILES` tiles,
  each refresh being six concurrent ``GET /query`` requests.  Every
  :data:`WAVES_PER_PAN` waves the panel is re-centred on the next spot
  of a fixed random walk, so the node accesses it costs average over
  the map instead of depending on how many of the seed's objects pass
  six fixed places.  The
  viewers refresh in waves: every viewer starts its next refresh when
  the whole wave has answered, so batching in the coalescer is the same
  from run to run.  Three viewers watch the last 10% of T and one the
  current timeslice, so two temporal signatures coalesce (the larger
  batch first) and identical tiles collapse.  The panel is part of the
  workload, not of the seeded input: a 3×2 grid of tiles, the extents
  cycling through Fig. 9's.
* Between waves, after every :data:`WAVES_PER_BURST` waves, the writer
  lane posts :data:`BURST` 64-report ``/extend`` requests, then a
  ``POST /save``.  A save run concurrently with a wave delays that whole
  wave, so the query p99 would rest on a dozen such clusters a run and
  swing with them; between waves its cost shows in the throughput.

The panel's time axis ticks every :data:`ANCHOR_TICK` time units, so a
signature outlives several extends; every extend moves the engine clock
and so costs one plan-cache miss per signature, and the bursts keep
those misses rare.  The work is then coalescing into
``query_interval_many`` and the shared multi-range descents.  Node
accesses come from a counting tap on the engine's batch call (the
coalescer reports them per batch only).  Bytes written and space are
taken at the first saves, which fall at fixed stream positions.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import random
import shutil
import time
from typing import Any, Callable

from common import (SPATIAL_EXTENTS, STATE_SAMPLES, Check, Round, chunks,
                    directory_bytes, entry_key, peak_rss_mb, time_setup,
                    user_bytes)
from harness import Run
from repro.core.records import Rect
from repro.engine import RetryPolicy
from repro.engine.engine import snapshot_dir
from repro.serve import AsyncEngine, Request, ServeApp, ServeOptions
from repro.serve.main import build_engine

VIEWERS = 4
TILES = 6
EXTEND_BATCH = 64
BURST = 8
WAVES_PER_BURST = 16
WAVES_PER_PAN = 2
#: Granularity of the panel's time axis (1% of T).
ANCHOR_TICK = 1000
#: Every CHECK_EVERY-th answered request is verified against the oracle.
CHECK_EVERY = 64
#: The interval viewers' span: 10% of the temporal domain (Fig. 10).
PANEL_INTERVAL = 0.10


def panel(inputs: Any, fx: float, fy: float) -> list[Rect]:
    """The tile layout, a 3 x 2 grid of tiles whose extents cycle through
    Fig. 9's, centred at domain fractions ``(fx, fy)``."""
    space = inputs.config.space
    width, height = space.x_hi - space.x_lo, space.y_hi - space.y_lo
    step_x, step_y = width // 8, height // 8
    tiles = []
    for i in range(TILES):
        cx = space.x_lo + round(fx * width) + (i % 3 - 1) * step_x
        cy = space.y_lo + round(fy * height) + (i // 3) * step_y - step_y // 2
        half_x = round(width * math.sqrt(SPATIAL_EXTENTS[i % 3])) // 2
        half_y = round(height * math.sqrt(SPATIAL_EXTENTS[i % 3])) // 2
        x_lo = min(max(cx - half_x, space.x_lo), space.x_hi - 2 * half_x)
        y_lo = min(max(cy - half_y, space.y_lo), space.y_hi - 2 * half_y)
        tiles.append(Rect(x_lo, y_lo, x_lo + 2 * half_x, y_lo + 2 * half_y))
    return tiles


class Dashboard:
    """Client-side state shared by the viewers and the writer lane."""

    def __init__(self, run: Run, app: ServeApp, engine: Any,
                 directory: str) -> None:
        self.run = run
        self.app = app
        self.engine = engine
        self.directory = directory
        inputs = run.inputs
        # Where the panel goes is part of the workload, like the panel
        # itself: the same walk for every seed, which varies the data.
        self.pans = random.Random(0)
        self.tiles: list[Rect] = []
        self.batches = inputs.batches(EXTEND_BATCH)
        self.now = engine.now
        self.position = len(inputs.head)
        self.extends = self.waves = self.answered = 0
        self.broken = False
        self.start_io = engine.stats
        self.save_bytes = 0
        self.written = self.reports = self.stored = self.live = 0
        self.saves = 0
        self.node_accesses = 0
        self.rnd: Round | None = None

    def tap(self) -> None:
        """Count node accesses of every batch the coalescer issues."""
        engine = self.engine

        def query_interval_many(*args: Any, **kwargs: Any) -> Any:
            batch = type(engine).query_interval_many(engine, *args,
                                                     **kwargs)
            self.node_accesses += batch.stats.node_accesses
            return batch
        engine.query_interval_many = query_interval_many

    def signature(self, viewer: int) -> tuple[int, int]:
        config = self.run.inputs.config
        q_lo = config.queriable_period(self.now)[0]
        anchor = max(self.now // ANCHOR_TICK * ANCHOR_TICK, q_lo)
        if viewer == VIEWERS - 1:
            return anchor, anchor
        length = round(PANEL_INTERVAL
                       * self.run.inputs.params.temporal_domain)
        return max(q_lo, anchor - length), anchor

    async def request(self, request: Request) -> tuple[Any, float, float]:
        start = time.perf_counter()
        response = await self.app.handle(request)
        return response, start, time.perf_counter()

    async def refresh(self, viewer: int) -> None:
        """One viewer's panel: six concurrent ``GET /query`` requests."""
        run = self.run
        rnd = self.rnd
        assert rnd is not None
        t_lo, t_hi = self.signature(viewer)
        requests = [Request("GET", "/query", query={
            "area": f"{a.x_lo},{a.y_lo},{a.x_hi},{a.y_hi}",
            "t_lo": str(t_lo), "t_hi": str(t_hi)}) for a in self.tiles]
        answers = await asyncio.gather(
            *(self.request(r) for r in requests))
        for area, (response, start, end) in zip(self.tiles, answers):
            run.attempt(rnd, "query")
            if response.status != 200:
                run.fail(f"GET /query -> {response.status} "
                         f"{response.payload}")
                continue
            run.done(rnd, "query_ok")
            run.latency["query"].add(start, end, rnd.index)
            if rnd.traced:
                run.query_spans.append((start, end))
            self.answered += 1
            if self.answered % CHECK_EVERY == 0:
                run.checks.append(Check(
                    self.position, "interval", area, t_lo, t_hi,
                    entry_key(response.payload["entries"])))

    async def extend(self, batch: list[Any]) -> bool:
        run = self.run
        rnd = self.rnd
        assert rnd is not None
        body = json.dumps({"reports": [[r.oid, r.x, r.y, r.t]
                                       for r in batch]}).encode()
        run.attempt(rnd, "extend")
        start = time.perf_counter()
        response = await self.app.handle(
            Request("POST", "/extend", body=body))
        end = time.perf_counter()
        if response.status != 200 \
                or response.payload.get("accepted") != len(batch):
            run.fail(f"POST /extend -> {response.status} "
                     f"{response.payload}")
            # The input stream moved on without this batch; later
            # answers would no longer match the oracle's replay.
            self.broken = True
            return False
        self.extends += 1
        self.position += len(batch)
        self.now = batch[-1].t
        run.latency["ack"].add(start, end, rnd.index)
        run.done(rnd, "reports", len(batch))
        return True

    async def save(self) -> None:
        run = self.run
        rnd = self.rnd
        assert rnd is not None
        run.attempt(rnd, "save")
        start = time.perf_counter()
        response = await self.app.handle(Request("POST", "/save"))
        end = time.perf_counter()
        if response.status != 200:
            run.fail(f"POST /save -> {response.status} {response.payload}")
            return
        run.latency["save"].add(start, end, rnd.index)
        if self.saves >= STATE_SAMPLES:
            return
        self.saves += 1
        snap = snapshot_dir(self.directory, self.engine.epoch)
        self.save_bytes += directory_bytes(snap) + 2 * os.path.getsize(
            os.path.join(self.directory, "engine.json"))
        engine = self.engine
        self.written = self.save_bytes + engine.stats.diff(
            self.start_io).physical_writes * engine.config.page_size
        self.reports = self.extends * EXTEND_BATCH
        self.stored += directory_bytes(self.directory)
        self.live += user_bytes(len(engine))

    async def writer(self) -> None:
        """The writer lane's turn, between two waves of refreshes."""
        if self.waves % WAVES_PER_BURST:
            return
        for _ in range(BURST):
            if not await self.extend(next(self.batches)):
                return
            self.run.ref.take(self.rnd)
        await self.save()
        self.run.ref.take(self.rnd)

    async def serve_round(self, deadline: float, last: bool) -> None:
        """Waves of refreshes (and the writer's turns) until the deadline;
        the last round runs on to the end of a burst cycle (and at least
        to the last save that bytes and space are taken at), so a run
        always holds whole cycles of reads and writes."""
        while not self.broken and (
                time.perf_counter() < deadline
                or (last and (self.waves % WAVES_PER_BURST
                              or self.saves < STATE_SAMPLES))):
            if self.waves % WAVES_PER_PAN == 0:
                self.tiles = panel(self.run.inputs, self.pans.random(),
                                   self.pans.random())
            await asyncio.gather(*(self.refresh(v)
                                   for v in range(VIEWERS)))
            self.waves += 1
            # Between waves nothing is in flight: the reference slice
            # samples the host without competing with the program.
            self.run.ref.take(self.rnd)
            await self.writer()

    async def measure(self) -> None:
        run = self.run
        per_round = run.seconds / run.n_rounds
        stats = self.app.stats
        for index in range(run.n_rounds):
            if self.broken:
                break
            rnd = run.new_round()
            self.rnd = rnd
            tracer = run.tracer if rnd.traced else None
            before = (stats.queries, stats.engine_query_calls,
                      stats.collapsed_requests, self.node_accesses)
            if tracer is not None:
                tracer.install()
            try:
                start = time.perf_counter()
                await self.serve_round(start + per_round,
                                       last=index == run.n_rounds - 1)
                rnd.wall_s = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
            run.done(rnd, "node_accesses", self.node_accesses - before[3])
            if rnd.traced:
                for key, value in zip(("serve_queries", "engine_calls",
                                       "collapsed"),
                                      (stats.queries - before[0],
                                       stats.engine_query_calls - before[1],
                                       stats.collapsed_requests
                                       - before[2])):
                    run.done(rnd, key, value)


def execute(run: Run) -> None:
    inputs = run.inputs
    scratch = run.notes["scratch"]
    retry = RetryPolicy(jitter=0.1, sleep=time.sleep,
                        rng=random.Random(0).random)

    def build(attempt: int, tick: Callable[[], None]
              ) -> tuple[contextlib.ExitStack, Any, str]:
        directory = os.path.join(scratch, f"dashboard-{attempt}")
        stack = contextlib.ExitStack()
        options = ServeOptions(index=directory, config=inputs.config,
                               create=True, retry_policy=retry)
        try:
            engine = build_engine(options, stack)
            for chunk in chunks(inputs.head):
                engine.extend(chunk)
                tick()
            engine.save()
        except BaseException:
            stack.close()
            raise
        return stack, engine, directory

    def discard(state: tuple[contextlib.ExitStack, Any, str]) -> None:
        state[0].close()
        shutil.rmtree(state[2], ignore_errors=True)

    (stack, engine, directory), run.setup = time_setup(build, discard)
    with stack:
        facade = AsyncEngine(engine, max_workers=ServeOptions.pool_workers)
        stack.callback(facade.close)
        app = ServeApp(facade, rng=random.Random(1).random)
        dash = Dashboard(run, app, engine, directory)
        dash.tap()

        async def main() -> None:
            try:
                await dash.measure()
            finally:
                await app.drain()
        asyncio.run(main())
        kept = [r for r in run.rounds if not r.traced]
        queries = sum(r.done.get("query_ok", 0) for r in kept)
        if dash.reports == 0:
            # No save completed: book what the run wrote so far.
            dash.written = dash.save_bytes + engine.stats.diff(
                dash.start_io).physical_writes * inputs.config.page_size
            dash.reports = dash.extends * EXTEND_BATCH
            dash.stored = directory_bytes(directory)
            dash.live = user_bytes(len(engine))
        run.final = {
            "node_accesses_per_query":
                sum(r.done.get("node_accesses", 0) for r in kept)
                / max(queries, 1),
            "write_bytes_per_user_byte":
                dash.written / max(user_bytes(dash.reports), 1),
            "space_bytes_per_user_byte": dash.stored / max(dash.live, 1),
            "peak_rss_mb": peak_rss_mb([os.getpid()]),
        }
        traced_rounds = [r for r in run.rounds if r.traced]
        served = sum(r.done.get("serve_queries", 0) for r in traced_rounds)
        calls = sum(r.done.get("engine_calls", 0) for r in traced_rounds)
        collapsed = sum(r.done.get("collapsed", 0) for r in traced_rounds)
        run.layer_extra = {
            "serve.coalesce.requests_per_engine_call":
                served / calls if calls else 0.0,
            "serve.coalesce.collapsed_share":
                collapsed / served if served else 0.0,
            "serve.admission.depth_peak": float(app.stats.queue_depth_peak),
        }
