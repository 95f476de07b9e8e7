"""The measured phase and the metrics derived from it.

A run is set up :data:`~common.SETUP_REPEATS` times, then measured in
rounds of about one second.  A reference slice is timed after every
operation, while the program is quiesced, and every timing is rescaled
by the slices taken around it (:class:`~common.HostRef`).  In a traced
run the rounds alternate untraced / traced, so the tracing overhead is
measured against interleaved untraced rounds of the same seed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from common import (Check, HostRef, Inputs, Round, Samples, host_ref_ms,
                    median, mix_check, tail, verify, write_json)
from tracing import Tracer

@dataclass
class Run:
    """Everything one invocation measures."""

    workload: str
    inputs: Inputs
    seconds: float
    trace: bool
    state_dir: str
    rounds: list[Round] = field(default_factory=list)
    latency: dict[str, Samples] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    digests: list[list[Any]] = field(default_factory=list)
    node_accesses: list[int] = field(default_factory=list)
    setup: list[dict] = field(default_factory=list)
    query_spans: list[tuple[float, float]] = field(default_factory=list)
    final: dict[str, float] = field(default_factory=dict)
    layer_extra: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    ref: HostRef = field(default_factory=HostRef)
    tracer: Tracer | None = None

    def __post_init__(self) -> None:
        if self.trace:
            self.tracer = Tracer()
        for kind in ("query", "ack", "save", "slide"):
            self.latency[kind] = Samples()

    @property
    def n_rounds(self) -> int:
        rounds = max(2, round(self.seconds))
        return rounds + rounds % 2 if self.trace else rounds

    def new_round(self) -> Round:
        index = len(self.rounds)
        rnd = Round(index=index, traced=self.trace and index % 2 == 1)
        self.rounds.append(rnd)
        return rnd

    def attempt(self, rnd: Round, kind: str) -> None:
        """Book one attempted operation of type ``kind``."""
        rnd.ops[kind] = rnd.ops.get(kind, 0) + 1
        self.attempted += 1

    def timed(self, rnd: Round, kind: str, call: Callable[[], Any]
              ) -> tuple[bool, float, float, Any]:
        """Attempt one operation: ``(ok, start, end, result)``.

        A failure is booked against the run and the run goes on, so one
        error shows in ``ok_op_share`` instead of ending the benchmark.
        """
        self.attempt(rnd, kind)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            end = time.perf_counter()
            self.fail(f"{kind}: {exc!r}")
            return False, start, end, None
        return True, start, time.perf_counter(), result

    def done(self, rnd: Round, what: str, n: int = 1) -> None:
        rnd.done[what] = rnd.done.get(what, 0) + n

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def measure_single(run: Run, step: Callable[[Round], float],
                   until: Callable[[], bool]) -> None:
    """Closed loop of one client.  ``step`` runs one operation and
    returns the seconds the client waited for it; a reference slice
    follows every operation; a round ends once its ops add up to its
    share of the run.  On a host too slow to reach ``until()`` within
    the planned rounds, rounds are added (at most as many again) so the
    fixed op prefix the exact counts come from is always complete."""
    per_round = run.seconds / run.n_rounds
    planned = run.n_rounds
    while len(run.rounds) < planned or (
            not until() and len(run.rounds) < 2 * planned):
        rnd = run.new_round()
        tracer = run.tracer if rnd.traced else None
        if tracer is not None:
            tracer.install()
        try:
            started = time.perf_counter()
            while rnd.wall_s < per_round \
                    and time.perf_counter() - started < 4 * per_round:
                rnd.wall_s += step(rnd)
                run.ref.take(rnd)
        finally:
            if tracer is not None:
                tracer.uninstall()


def untraced(rnd: Round) -> bool:
    return not rnd.traced


def traced(rnd: Round) -> bool:
    return rnd.traced


def _rate(run: Run, kind: str, keep: Callable[[Round], bool],
          corrected: bool = True) -> float:
    done = sum(r.done.get(kind, 0) for r in run.rounds if keep(r))
    wall = sum(r.wall_s * (r.factor if corrected else 1.0)
               for r in run.rounds if keep(r))
    return done / wall if wall > 0 else 0.0


def end_to_end(run: Run) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics (corrected) and their raw twins."""
    metrics: dict[str, float] = {}
    raw: dict[str, Any] = {}
    metrics["setup_s"] = median([s["corrected_s"] for s in run.setup])
    raw["setup_s"] = median([s["raw_s"] for s in run.setup])
    for name, kind in (("queries_per_s", "query_ok"),
                       ("ingest_reports_per_s", "reports")):
        metrics[name] = _rate(run, kind, untraced)
        raw[name] = _rate(run, kind, untraced, corrected=False)
    for prefix, kind in (("query", "query"), ("ack", "ack")):
        samples = run.latency[kind]
        corr = samples.corrected_ms(run.rounds, run.ref, untraced)
        plain = samples.raw_ms(run.rounds, untraced)
        metrics[f"{prefix}_p50_ms"] = median(corr)
        raw[f"{prefix}_p50_ms"] = median(plain)
        value, pct, n = tail(corr)
        metrics[f"{prefix}_p99_ms"] = value
        raw[f"{prefix}_p99_ms"] = tail(plain)[0]
        raw[f"{prefix}_tail_percentile"] = pct
        raw[f"{prefix}_samples"] = n
    saves = run.latency["save"].corrected_ms(run.rounds, run.ref, untraced)
    raw["save_ms_median_corrected"] = median(saves)
    raw["saves"] = len(saves)
    slides = run.latency["slide"].corrected_ms(run.rounds, run.ref, untraced)
    raw["slide_ms_median_corrected"] = median(slides)
    raw["slides"] = len(slides)
    metrics.update(run.final)
    metrics["ok_op_share"] = (run.attempted - run.failed) / run.attempted \
        if run.attempted else 0.0
    return metrics, raw


def per_layer(run: Run) -> dict[str, float]:
    """Per-layer metrics of the traced rounds."""
    tracer = run.tracer
    assert tracer is not None
    totals = tracer.totals()
    counts = tracer.counts
    queries = sum(r.done.get("query_ok", 0) for r in run.rounds if r.traced)

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    def span_ms(name: str, self_time: bool = False) -> float:
        total, own, _ = totals.get(name, (0.0, 0.0, 0))
        return (own if self_time else total) * 1000.0

    def calls(name: str) -> int:
        return totals.get(name, (0.0, 0.0, 0))[2]

    io_q, io_i = tracer.io["query"], tracer.io["ingest"]
    hits = sum(io.node_cache_hits for io in tracer.io.values())
    parses = sum(io.node_parses for io in tracer.io.values())
    m: dict[str, float] = {
        "core.overlap.ms_per_query": per(span_ms("core.overlap"), queries),
        "core.overlap.columns_per_query":
            per(counts["overlap.columns"], queries),
        "core.plan.hit_ratio":
            per(counts["plan.hits"], counts["plan.lookups"]),
        "core.plan.build_ms_per_miss":
            per(span_ms("core.plan.build"), calls("core.plan.build")),
        "core.index.query_ms_per_shard_call":
            per(span_ms("core.index.query", self_time=True),
                calls("core.index.query")),
        "core.index.key_ranges_per_query":
            per(counts["index.key_ranges"], queries),
        "core.index.candidates_per_result":
            per(counts["index.candidates"], counts["index.results"]),
        "core.index.ingest_ms_per_report":
            per(span_ms("core.index.ingest"),
                counts["index.ingest_reports"]),
        "btree.search_ms_per_query": per(span_ms("btree.search"), queries),
        "btree.node_accesses_per_report":
            per(io_i.node_accesses, counts["engine.ingest_reports"]),
        "storage.node_cache_hit_ratio": per(hits, hits + parses),
        "storage.physical_reads_per_query":
            per(io_q.physical_reads, queries),
        "storage.physical_writes_per_report":
            per(io_i.physical_writes, counts["engine.ingest_reports"]),
        "engine.executor.handoff_ms_per_query":
            per(counts["executor.handoff_s"] * 1000.0, queries),
        "engine.shards_per_query": per(counts["engine.shard_calls"], queries),
        "engine.save_ms": per(span_ms("engine.save"), calls("engine.save")),
        "engine.worker.round_trip_ms":
            per(counts["worker.rtt_s"] * 1000.0, counts["worker.rtt_n"]),
        "engine.wal.bytes_per_report": 0.0,
        "serve.coalesce.requests_per_engine_call": 0.0,
        "serve.coalesce.collapsed_share": 0.0,
        "serve.gate.read_wait_ms":
            per(counts["serve.gate.read.wait_s"] * 1000.0,
                counts["serve.gate.read.n"]),
        "serve.gate.write_wait_ms":
            per(counts["serve.gate.write.wait_s"] * 1000.0,
                counts["serve.gate.write.n"]),
        "serve.executor.wait_ms":
            per(sum(tracer.waits) * 1000.0, len(tracer.waits)),
        "serve.wire.encode_ms_per_query":
            per(span_ms("serve.wire.encode"), queries),
        "serve.admission.depth_peak": 0.0,
        "trace.overhead_ratio": per(_rate(run, "query_ok", traced),
                                    _rate(run, "query_ok", untraced)),
        "driver.unattributed_ms_per_query":
            per(tracer.uncovered(run.query_spans) * 1000.0,
                len(run.query_spans)),
    }
    m.update(run.layer_extra)
    return m


def finish(run: Run) -> tuple[bool, dict[str, float], dict[str, Any]]:
    """Verify, assemble metrics, write the run record.

    Returns ``(correct, metrics, record)``.
    """
    mismatches = verify(run.inputs, run.checks)
    for message in mismatches:
        run.fail(message)
    drift = mix_check(run.rounds)
    if drift is not None:
        run.errors.append(drift)
    compare_digests(run)
    metrics, raw = end_to_end(run)
    layers = per_layer(run) if run.trace else {}
    correct = not run.errors and run.failed == 0
    refs = [host_ref_ms(r.ref_slices) for r in run.rounds]
    record = {
        "workload": run.workload,
        "trace": run.trace,
        "seconds": run.seconds,
        "correct": correct,
        "errors": run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "checked_answers": len(run.checks),
        "end_to_end_corrected": metrics,
        "end_to_end_raw": raw,
        "per_layer": layers,
        "setup": run.setup,
        "host_ref_ms": refs,
        "rounds": [{"index": r.index, "traced": r.traced,
                    "host_ref_ms": host_ref_ms(r.ref_slices),
                    "ref_slices": len(r.ref_slices), "factor": r.factor,
                    "wall_s_raw": r.wall_s,
                    "wall_s_corrected": r.wall_s * r.factor,
                    "ops": r.ops, "done": r.done} for r in run.rounds],
        "latency": {kind: {"raw_s": s.values, "rounds": s.rounds,
                           "corrected_ms": s.corrected_ms(
                               run.rounds, run.ref, lambda _: True)}
                    for kind, s in run.latency.items()},
        "notes": run.notes,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    write_json(os.path.join(run.state_dir, "runs",
                            f"{run.workload}-seed{run.inputs.seed}-"
                            f"trace{int(run.trace)}-{stamp}-"
                            f"{os.getpid()}.json"), record)
    if run.tracer is not None:
        run.tracer.dump(os.path.join(
            run.state_dir, "traces",
            f"{run.workload}-seed{run.inputs.seed}-{os.getpid()}.jsonl"))
    return correct, metrics, record


def compare_digests(run: Run) -> None:
    """Traced and untraced runs of one seed must answer identically.

    Each single-client run leaves its per-op answer digests in the state
    directory; the run of the other mode for the same seed and scale is
    compared over the op prefix both completed.
    """
    if not run.digests:
        return
    scale = run.inputs.params.name
    digest = run.notes["provenance"]["source_digest"]
    base = os.path.join(run.state_dir, "answers",
                        f"{run.workload}-{scale}-seed{run.inputs.seed}-"
                        f"{digest}")
    write_json(f"{base}-trace{int(run.trace)}.json", run.digests)
    other = f"{base}-trace{int(not run.trace)}.json"
    if not os.path.exists(other):
        return
    with open(other, encoding="utf-8") as fh:
        theirs = json.load(fh)
    for mine, their in zip(run.digests, theirs):
        if mine != their:
            run.errors.append(
                f"op {mine[0]} answered differently in the traced and "
                f"untraced runs of seed {run.inputs.seed}")
            return
    run.notes["digests_compared"] = min(len(run.digests), len(theirs))
