"""Benchmark-side tracing: spans around the calls into each layer.

The :class:`Tracer` replaces the program's boundary callables (the
module functions in :data:`MODULE_FUNCS`, the index methods in
:data:`INDEX_METHODS`, the engine front ends' :data:`ENGINE_OPS`, the
executors' ``map``, the worker pool's ``send``/``collect``, the slide
gate and the async facade's bridge) with timing wrappers for one traced
round, then restores the originals.  Spans live in memory as ``(id, name, start, end, parent,
request)`` tuples and are written out when the run ends.  Counts come
from ``IOStats`` / ``QueryStats`` diffs taken at the engine boundary.

Inside a warm worker process, time is invisible to the client.  For the
worker engine, :func:`install_worker_totals` wraps the worker entry
point before the workers fork so each worker accumulates per-layer
totals itself and writes them out when it is stopped.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import os
import threading
import time
from bisect import bisect_left
from typing import Any, Callable

from repro.core.index import SWSTIndex
from repro.core.plan import PlanCache
from repro.engine.engine import ShardedEngine
from repro.engine.executor import SerialExecutor, ThreadedExecutor
from repro.engine.wal import WalWriter
from repro.engine.worker import WorkerEngine, WorkerPool
from repro.serve.async_engine import AsyncEngine
from repro.serve.gate import SlideGate
from repro.storage.stats import IOStats

_now = time.perf_counter

#: Engine front-end methods traced as one coordinator span each, with
#: the operation kind their IOStats/QueryStats diffs are booked under.
ENGINE_OPS = {"query_interval": "query", "query_interval_many": "query",
              "count_interval": "query", "extend": "ingest",
              "save": "save"}

#: Worker requests on the data path, whose round trips are timed.
DATA_PATH = ("apply", "query")

#: Module-level functions the engine calls by their imported name.
MODULE_FUNCS = [
    ("repro.engine.engine", "classify_interval", "core.overlap"),
    ("repro.engine.worker", "classify_interval", "core.overlap"),
    ("repro.engine.engine", "build_query_plan", "core.plan.build"),
    ("repro.engine.worker", "build_query_plan", "core.plan.build"),
    ("repro.core.index", "multi_range_search", "btree.search"),
    ("repro.serve.app", "result_json", "serve.wire.encode"),
]

#: Shard-side methods of the index.
INDEX_METHODS = [
    ("_query_area_planned", "core.index.query"),
    ("_query_area_planned_many", "core.index.query"),
    ("_count_area_planned", "core.index.query"),
    ("_ingest_run_reports", "core.index.ingest"),
]


class Tracer:
    """Spans and counters for the traced rounds of one run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None,
                               Any]] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self.io: dict[str, IOStats] = collections.defaultdict(IOStats)
        self.waits: list[float] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._sends: dict[tuple[int, int], collections.deque] = {}

    # -- thread-local context ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: Any) -> None:
        self._local.req = request

    def _req(self) -> Any:
        return getattr(self._local, "req", None)

    def _suppressed(self) -> bool:
        return getattr(self._local, "suppress", False)

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def _record(self, span_id: int, name: str, start: float, end: float,
                parent: int | None) -> None:
        self.spans.append((span_id, name, start, end, parent, self._req()))

    def _span(self, name: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Any:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            self._record(span_id, name, start, end, parent)

    # -- installation -------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every boundary callable (one traced round)."""
        for module_name, attr, name in MODULE_FUNCS:
            module = importlib.import_module(module_name)
            self._patch(module, attr,
                        self._plain(getattr(module, attr), name))
        for attr, name in INDEX_METHODS:
            self._patch(SWSTIndex, attr,
                        self._plain(SWSTIndex.__dict__[attr], name))
        self._patch(PlanCache, "lookup",
                    self._lookup(PlanCache.__dict__["lookup"]))
        for cls in (ThreadedExecutor, SerialExecutor):
            self._patch(cls, "map", self._map(cls.__dict__["map"]))
        for cls in (ShardedEngine, WorkerEngine):
            for attr, kind in ENGINE_OPS.items():
                self._patch(cls, attr,
                            self._engine_op(cls.__dict__[attr], kind))
        self._patch(WorkerPool, "send", self._send(WorkerPool.send))
        self._patch(WorkerPool, "collect",
                    self._collect(WorkerPool.collect))
        self._patch(SlideGate, "acquire_read",
                    self._gate(SlideGate.acquire_read, "serve.gate.read"))
        self._patch(SlideGate, "acquire_write",
                    self._gate(SlideGate.acquire_write, "serve.gate.write"))
        self._patch(AsyncEngine, "_run", self._facade_run(AsyncEngine._run))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrapper factories --------------------------------------------------------

    def _plain(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = tracer._span(name, fn, *args, **kwargs)
            if name == "core.overlap":
                tracer.add("overlap.columns", len(result))
            elif name == "core.index.ingest":
                tracer.add("index.ingest_reports", len(args[1]))
            return result
        return wrapper

    def _lookup(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            entry = fn(*args, **kwargs)
            tracer.add("plan.lookups")
            if entry is not None:
                tracer.add("plan.hits")
            return entry
        return wrapper

    def _io_snapshot(self, engine: Any) -> IOStats:
        self._local.suppress = True
        try:
            return engine.stats.snapshot()
        finally:
            self._local.suppress = False

    def _engine_op(self, fn: Callable[..., Any],
                   kind: str) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(engine: Any, *args: Any, **kwargs: Any) -> Any:
            before = tracer._io_snapshot(engine)
            saved_kind = getattr(tracer._local, "kind", None)
            tracer._local.kind = kind
            try:
                result = tracer._span(f"engine.{kind}", fn, engine, *args,
                                      **kwargs)
            finally:
                tracer._local.kind = saved_kind
            delta = tracer._io_snapshot(engine).diff(before)
            with tracer._lock:
                total = tracer.io[kind]
                for name in vars(delta):
                    setattr(total, name,
                            getattr(total, name) + getattr(delta, name))
            if kind == "query":
                if isinstance(result, tuple):        # count_interval
                    stats, entries = result[1], result[0]
                elif hasattr(result, "results"):     # query_interval_many
                    stats = result.stats
                    entries = sum(len(r.entries) for r in result.results)
                else:
                    stats, entries = result.stats, len(result.entries)
                tracer.add("index.key_ranges", stats.key_ranges)
                tracer.add("index.candidates", stats.candidates)
                tracer.add("index.results", entries)
            elif kind == "ingest":
                tracer.add("engine.ingest_reports", result)
            return result
        return wrapper

    def _map(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(executor: Any, task_fn: Callable[[Any], Any],
                    items: Any, timeout: float | None = None) -> Any:
            work = list(items)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            request = tracer._req()
            kind = getattr(tracer._local, "kind", None)
            map_id = next(tracer._ids)
            durations: list[float] = []
            local = tracer._local

            def task(item: Any) -> Any:
                saved = (getattr(local, "stack", None),
                         getattr(local, "req", None))
                local.stack, local.req = [map_id], request
                task_id = next(tracer._ids)
                start = _now()
                try:
                    return task_fn(item)
                finally:
                    end = _now()
                    durations.append(end - start)
                    tracer._record(task_id, "engine.executor.task", start,
                                   end, map_id)
                    local.stack, local.req = saved

            start = _now()
            try:
                return fn(executor, task, work, timeout)
            finally:
                end = _now()
                tracer._record(map_id, "engine.executor.map", start, end,
                               parent)
                if kind == "query":
                    tracer.add("executor.handoff_s",
                               (end - start) - max(durations, default=0.0))
                    tracer.add("engine.shard_calls", len(work))
        return wrapper

    def _send(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(pool: Any, shard_id: int, kind: str,
                    payload: Any = None) -> None:
            start = _now()
            fn(pool, shard_id, kind, payload)
            if not tracer._suppressed():
                tracer._sends.setdefault(
                    (id(pool), shard_id), collections.deque()).append(
                        (start, kind))
                if kind == "query":
                    tracer.add("engine.shard_calls")
        return wrapper

    def _collect(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(pool: Any, shard_id: int,
                    timeout: float | None = None) -> Any:
            try:
                return fn(pool, shard_id, timeout)
            finally:
                queue = tracer._sends.get((id(pool), shard_id))
                if queue and not tracer._suppressed():
                    start, kind = queue.popleft()
                    if kind in DATA_PATH:
                        end = _now()
                        stack = tracer._stack()
                        tracer._record(next(tracer._ids),
                                       "engine.worker.rtt", start, end,
                                       stack[-1] if stack else None)
                        tracer.add("worker.rtt_s", end - start)
                        tracer.add("worker.rtt_n")
        return wrapper

    def _gate(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(gate: Any) -> None:
            start = _now()
            await fn(gate)
            end = _now()
            tracer.spans.append((next(tracer._ids), name, start, end, None,
                                 None))
            tracer.add(f"{name}.wait_s", end - start)
            tracer.add(f"{name}.n")
        return wrapper

    def _facade_run(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(facade: Any, call: Callable[[], Any]) -> Any:
            submitted = _now()
            call_id = f"call-{next(tracer._ids)}"

            def traced() -> Any:
                tracer.waits.append(_now() - submitted)
                tracer._local.stack, tracer._local.req = [], call_id
                return tracer._span("serve.engine_call", call)
            return await fn(facade, traced)
        return wrapper

    # -- derived views -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: ``(total seconds, self seconds, count)``.

        Self time is a span's duration minus the union of its direct
        children's intervals (children may run on other threads).
        """
        children: dict[int, list[tuple[float, float]]] = \
            collections.defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, list[float]] = collections.defaultdict(
            lambda: [0.0, 0.0, 0])
        for span_id, name, start, end, _, _ in self.spans:
            covered = _union_length(children.get(span_id, ()), start, end)
            acc = out[name]
            acc[0] += end - start
            acc[1] += (end - start) - covered
            acc[2] += 1
        return {name: (v[0], v[1], int(v[2])) for name, v in out.items()}

    def uncovered(self, intervals: list[tuple[float, float]]) -> float:
        """Total time inside ``intervals`` that no span covers."""
        merged = _merge([(s, e) for _, _, s, e, _, _ in self.spans])
        starts = [s for s, _ in merged]
        total = 0.0
        for lo, hi in intervals:
            covered = 0.0
            idx = max(bisect_left(starts, lo) - 1, 0)
            while idx < len(merged) and merged[idx][0] < hi:
                s, e = merged[idx]
                covered += max(0.0, min(e, hi) - max(s, lo))
                idx += 1
            total += (hi - lo) - covered
        return total

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _union_length(intervals: Any, lo: float, hi: float) -> float:
    return sum(min(e, hi) - max(s, lo)
               for s, e in _merge(list(intervals)) if e > lo and s < hi)


# -- worker-side totals ---------------------------------------------------------------


_WORKER_TARGETS = [
    (SWSTIndex, "_ingest_run_reports", "core.index.ingest"),
    (SWSTIndex, "_query_area_planned", "core.index.query"),
    (SWSTIndex, "_query_area_planned_many", "core.index.query"),
    (SWSTIndex, "_count_area_planned", "core.index.query"),
    (WalWriter, "commit", "engine.wal.commit"),
]


def install_worker_totals(dump_dir: str) -> Callable[[], None]:
    """Make every worker spawned from now on time its own layers.

    The worker entry point is looked up by name at spawn and the pool
    forks, so the wrapped entry point runs in the child, installs
    counting wrappers there, and writes ``worker-<shard>-<pid>.json``
    into ``dump_dir`` when the worker stops.  Totals are snapshotted at
    every checkpoint so the caller can drop what set-up ingested.
    Returns the function that restores the original entry point.
    """
    module = importlib.import_module("repro.engine.worker")
    original_main = module._worker_main

    def traced_main(shard_id: int, *args: Any, **kwargs: Any) -> None:
        totals: dict[str, list[float]] = collections.defaultdict(
            lambda: [0.0, 0.0, 0])
        snapshots: list[dict[str, list[float]]] = []
        depth = [0]

        def timed(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*a: Any, **kw: Any) -> Any:
                depth[0] += 1
                start = _now()
                try:
                    return fn(*a, **kw)
                finally:
                    depth[0] -= 1
                    acc = totals[name]
                    acc[0] += _now() - start
                    acc[2] += 1
                    if name == "core.index.ingest":
                        acc[1] += len(a[1])
            return wrapper

        for owner, attr, name in _WORKER_TARGETS:
            setattr(owner, attr, timed(owner.__dict__[attr], name))
        index_module = importlib.import_module("repro.core.index")
        index_module.multi_range_search = timed(
            index_module.multi_range_search, "btree.search")
        original_checkpoint = module._checkpoint

        def checkpoint(*a: Any, **kw: Any) -> Any:
            result = original_checkpoint(*a, **kw)
            snapshots.append({k: list(v) for k, v in totals.items()})
            return result
        module._checkpoint = checkpoint
        original_abort = SWSTIndex.abort

        def abort(shard: SWSTIndex) -> None:
            path = os.path.join(dump_dir,
                                f"worker-{shard_id}-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"snapshots": snapshots,
                           "final": dict(totals)}, fh)
            original_abort(shard)
        SWSTIndex.abort = abort  # type: ignore[method-assign]
        original_main(shard_id, *args, **kwargs)

    module._worker_main = traced_main

    def restore() -> None:
        module._worker_main = original_main
    return restore


def read_worker_totals(dump_dir: str) -> dict[str, list[float]]:
    """Sum worker totals accumulated after each worker's first checkpoint
    (the end of set-up): ``name -> [seconds, items, calls]``."""
    out: dict[str, list[float]] = collections.defaultdict(
        lambda: [0.0, 0.0, 0])
    if not os.path.isdir(dump_dir):
        return out
    for name in sorted(os.listdir(dump_dir)):
        with open(os.path.join(dump_dir, name), encoding="utf-8") as fh:
            blob = json.load(fh)
        base = blob["snapshots"][0] if blob["snapshots"] else {}
        for key, value in blob["final"].items():
            start = base.get(key, [0.0, 0.0, 0])
            acc = out[key]
            for i in range(3):
                acc[i] += value[i] - start[i]
    return out
