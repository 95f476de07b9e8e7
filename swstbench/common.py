"""Shared machinery of the benchmark: inputs, host-drift reference,
timing records, percentiles, the oracle check and the run record.

Everything here is benchmark-side code.  The program under test only
ever sees the generated reports and queries.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import statistics
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

from repro.baselines.naive import NaiveStore
from repro.bench.params import SCALED, TINY, BenchParams
from repro.core.config import SWSTConfig
from repro.core.records import RECORD_SIZE, Rect
from repro.datagen.gstd import GSTDGenerator, Report

#: The paper's Fig. 9 spatial extents (fraction of the domain area).
SPATIAL_EXTENTS = (0.005, 0.01, 0.04)
#: The paper's Fig. 10 interval lengths (fraction of the temporal domain T);
#: 0 is a timeslice.
INTERVAL_LENGTHS = (0.0, 0.05, 0.10, 0.15)

#: One reference slice: this many iterations of :func:`_ref_loop`.
REF_SLICE_ITERATIONS = 600
#: ``host_ref_ms`` is the mean slice time scaled to this many slices.
REF_SLICES_PER_MS_UNIT = 100
#: Nominal ``host_ref_ms``.  Every timing is rescaled to a host whose
#: reference measures exactly this.
REF_NOMINAL_MS = 25.0
#: A latency is corrected by the slices taken within this many seconds
#: of its end: the host's speed drifts in regimes of seconds.
REF_WINDOW_S = 0.25

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Bytes written and space are taken at the first this-many sample
#: points of a run (saves, checkpoints, or every few extends): fixed
#: stream positions, so both are exact for a seed, however far a run
#: gets.
STATE_SAMPLES = 6

#: Largest factor by which an operation type's share may differ between
#: the first and the second half of the measured rounds before a run is
#: declared broken (a stalled or exhausted input drives it to zero);
#: types with fewer than :data:`MIX_MIN_OPS` ops in the first half are
#: too coarse to compare.
MIX_FACTOR = 2.0
MIX_MIN_OPS = 5

SCALES: dict[str, BenchParams] = {"scaled": SCALED, "tiny": TINY}


# -- host-drift reference -------------------------------------------------------


def _ref_loop(n: int) -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc ^ table.get((i + 7) & 255, 0)
    return acc


def ref_slice() -> float:
    """Wall-clock seconds of one reference slice.

    Slices are taken between operations, while the program is quiesced
    (its threads and worker processes idle), so they sample the host's
    speed all through a round.  Wall time rather than thread CPU time:
    the VM's steal time, which comes in bursts, is not charged to a
    thread's CPU time but slows every operation the workload times.
    """
    start = time.perf_counter()
    _ref_loop(REF_SLICE_ITERATIONS)
    return time.perf_counter() - start


def host_ref_ms(slices: list[float]) -> float:
    """Mean slice time expressed in ``host_ref_ms`` units."""
    if not slices:
        return REF_NOMINAL_MS
    return statistics.fmean(slices) * 1000.0 * REF_SLICES_PER_MS_UNIT


def drift_factor(slices: list[float]) -> float:
    """Scale factor mapping raw timings taken among ``slices`` to the
    nominal host."""
    return REF_NOMINAL_MS / host_ref_ms(slices)


class HostRef:
    """Every reference slice of a run, with the time it was taken."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []
        self._prefix: list[float] | None = None

    def take(self, rnd: "Round") -> None:
        value = ref_slice()
        self.times.append(time.perf_counter())
        self.values.append(value)
        rnd.ref_slices.append(value)
        self._prefix = None

    def factor_at(self, at: float, fallback: float) -> float:
        """Drift factor of the slices within :data:`REF_WINDOW_S` of ``at``."""
        if self._prefix is None:
            self._prefix = [0.0]
            for value in self.values:
                self._prefix.append(self._prefix[-1] + value)
        lo = bisect_left(self.times, at - REF_WINDOW_S)
        hi = bisect_right(self.times, at + REF_WINDOW_S)
        if hi <= lo:
            return fallback
        mean = (self._prefix[hi] - self._prefix[lo]) / (hi - lo)
        return REF_NOMINAL_MS / (mean * 1000.0 * REF_SLICES_PER_MS_UNIT)


# -- inputs -----------------------------------------------------------------------


@dataclass
class Inputs:
    """The seeded GSTD stream, its endless replay and query placement.

    ``head`` builds the starting state (the window plus a quarter); the
    measured phase draws from :meth:`tail`, which never runs out: after
    the first pass it replays time-shifted copies of the whole stream,
    so the operation mix of the last round equals the first.
    """

    params: BenchParams
    seed: int
    config: SWSTConfig
    stream: list[Report]
    head: list[Report]
    head_t: int
    shift: int

    @classmethod
    def make(cls, scale: str, seed: int, **config_overrides: Any
             ) -> "Inputs":
        params = SCALES[scale]
        stream = GSTDGenerator(replace(params.stream, seed=seed)) \
            .materialize()
        config = replace(params.index, **config_overrides)
        head_t = config.window + config.window // 4
        head = [r for r in stream if r.t <= head_t]
        return cls(params=params, seed=seed, config=config, stream=stream,
                   head=head, head_t=head_t,
                   shift=params.stream.max_time + 1)

    def tail(self) -> Iterator[Report]:
        """Reports after the head, then time-shifted replays, forever."""
        for report in self.stream:
            if report.t > self.head_t:
                yield report
        passes = 1
        while True:
            offset = passes * self.shift
            for r in self.stream:
                yield Report(r.oid, r.x, r.y, r.t + offset)
            passes += 1

    def all_reports(self) -> Iterator[Report]:
        """The head followed by :meth:`tail`: the full ingest order."""
        yield from self.head
        yield from self.tail()

    def batches(self, size: int) -> Iterator[list[Report]]:
        tail = self.tail()
        while True:
            yield [next(tail) for _ in range(size)]

    def rng(self, purpose: str) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}:{purpose}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def rect(self, rng: random.Random, extent: float) -> Rect:
        space = self.config.space
        width, height = space.x_hi - space.x_lo, space.y_hi - space.y_lo
        side_x = max(1, round(width * math.sqrt(extent)))
        side_y = max(1, round(height * math.sqrt(extent)))
        x_lo = space.x_lo + rng.randint(0, width - side_x)
        y_lo = space.y_lo + rng.randint(0, height - side_y)
        return Rect(x_lo, y_lo, x_lo + side_x, y_lo + side_y)

    def interval(self, now: int, length_frac: float, place: float
                 ) -> tuple[int, int]:
        """A query interval of the given Fig. 10 length inside the
        queriable period at ``now``; ``place`` in [0, 1) positions it."""
        q_lo, q_hi = self.config.queriable_period(now)
        length = round(length_frac * self.params.temporal_domain)
        span = max(q_hi - q_lo - length, 0)
        t_lo = q_lo + int(place * (span + 1))
        return t_lo, min(t_lo + length, q_hi)


# -- timing records -----------------------------------------------------------------


@dataclass
class Round:
    """One measured round: raw wall time, reference slices, its ops."""

    index: int
    traced: bool
    ref_slices: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    #: attempts per operation type (the mix the last round is checked on)
    ops: dict[str, int] = field(default_factory=dict)
    #: completed work: ``query_ok``, ``reports``, ``node_accesses``
    done: dict[str, int] = field(default_factory=dict)

    @property
    def factor(self) -> float:
        return drift_factor(self.ref_slices)


@dataclass
class Samples:
    """Raw per-operation latencies, each tagged with its round and the
    time it ended."""

    values: list[float] = field(default_factory=list)
    rounds: list[int] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)

    def add(self, start: float, end: float, round_index: int) -> None:
        self.values.append(end - start)
        self.rounds.append(round_index)
        self.ends.append(end)

    def corrected_ms(self, rounds: list[Round], ref: HostRef,
                     keep: Callable[[Round], bool]) -> list[float]:
        return [v * 1000.0 * ref.factor_at(at, rounds[r].factor)
                for v, r, at in zip(self.values, self.rounds, self.ends)
                if keep(rounds[r])]

    def raw_ms(self, rounds: list[Round],
               keep: Callable[[Round], bool]) -> list[float]:
        return [v * 1000.0 for v, r in zip(self.values, self.rounds)
                if keep(rounds[r])]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float], target: float = 0.99
         ) -> tuple[float, float, int]:
    """The highest percentile up to ``target`` that has at least ten
    samples beyond it, but never below the median: ``(value, percentile,
    sample count)``."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    idx = max(math.ceil(0.5 * n) - 1, min(math.ceil(target * n) - 1, n - 11))
    return ordered[idx], (idx + 1) / n, n


def time_setup(build: Callable[[int, Callable[[], None]], Any],
               discard: Callable[[Any], None]) -> tuple[Any, list[dict]]:
    """Build the starting state :data:`SETUP_REPEATS` times; keep the last.

    ``build(attempt, tick)`` calls ``tick()`` between its steps; each
    tick takes a reference slice, whose time is left out of the set-up
    time, so set-up is drift-corrected like every other timing.
    """
    records = []
    state = None
    for attempt in range(SETUP_REPEATS):
        if state is not None:
            discard(state)
        slices: list[float] = []
        paused = [0.0]

        def tick() -> None:
            start = time.perf_counter()
            slices.append(ref_slice())
            paused[0] += time.perf_counter() - start

        tick()
        start = time.perf_counter()
        state = build(attempt, tick)
        raw = time.perf_counter() - start - paused[0]
        tick()
        records.append({"raw_s": raw, "host_ref_ms": host_ref_ms(slices),
                        "slices": len(slices),
                        "corrected_s": raw * drift_factor(slices)})
    return state, records


def chunks(reports: list[Report], size: int = 1024
           ) -> Iterator[list[Report]]:
    for start in range(0, len(reports), size):
        yield reports[start:start + size]


# -- correctness ---------------------------------------------------------------------


@dataclass
class Check:
    """One sampled answer to verify against the oracle.

    ``position`` is the number of reports acknowledged when the answer
    was computed; ``expected`` is the engine's answer (sorted entry
    tuples, or an int for counts).
    """

    position: int
    kind: str
    area: Rect
    t_lo: int
    t_hi: int
    answer: Any


def entry_key(entries: Any) -> tuple:
    return tuple(sorted((e[0], e[1], e[2], e[3], -1 if e[4] is None
                         else e[4]) for e in entries))


def verify(inputs: Inputs, checks: list[Check]) -> list[str]:
    """Replay the ingest order into :class:`NaiveStore` and compare each
    sampled answer at its stream position.  Returns mismatch messages."""
    naive = NaiveStore(inputs.config)
    errors: list[str] = []
    reports = inputs.all_reports()
    fed = 0
    for check in sorted(checks, key=lambda c: c.position):
        while fed < check.position:
            r = next(reports)
            naive.insert(r.oid, r.x, r.y, r.t)
            fed += 1
            if fed % 4096 == 0:
                q_lo = inputs.config.queriable_period(naive.now)[0]
                naive.closed = [e for e in naive.closed if e.s >= q_lo]
        hits = naive.query_interval(check.area, check.t_lo, check.t_hi)
        expected: Any = len(hits) if check.kind == "count" else \
            entry_key((e.oid, e.x, e.y, e.s, e.d) for e in hits)
        if expected != check.answer:
            errors.append(f"{check.kind} {check.area} [{check.t_lo}, "
                          f"{check.t_hi}] at report {check.position}: "
                          f"answer differs from the oracle")
    return errors


def mix_check(rounds: list[Round]) -> str | None:
    """Fail when the op-type mix of the last rounds differs from the first.

    The first and the second half of the rounds are compared, so that a
    writer cadence slower than one round still shows in both.
    """
    if len(rounds) < 2:
        return None
    half = len(rounds) // 2
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    for target, part in ((first, rounds[:half]), (last, rounds[-half:])):
        for rnd in part:
            for kind, count in rnd.ops.items():
                target[kind] = target.get(kind, 0) + count
    n_first, n_last = sum(first.values()), sum(last.values())
    if n_first == 0 or n_last == 0:
        return "a measured round ran no operations"
    for kind, count in first.items():
        if count < MIX_MIN_OPS:
            continue
        share_first = count / n_first
        share_last = last.get(kind, 0) / n_last
        if not share_first / MIX_FACTOR <= share_last \
                <= share_first * MIX_FACTOR:
            return (f"operation mix drifted: share of {kind!r} went from "
                    f"{share_first:.3f} in the first half of the rounds "
                    f"to {share_last:.3f} in the second")
    return None


# -- resources --------------------------------------------------------------------------


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident sizes (VmHWM) of the given processes."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def directory_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def user_bytes(n_entries: int) -> int:
    return n_entries * RECORD_SIZE


# -- run record ----------------------------------------------------------------------


def source_digest(root: str) -> str:
    """Digest of the program and benchmark sources (the checkout is not a
    git repository, so this stands in for a commit hash)."""
    digest = hashlib.sha256()
    for top in (os.path.join(root, "src"), os.path.dirname(__file__)):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def provenance(root: str, seed: int) -> dict[str, Any]:
    return {"source_digest": source_digest(root),
            "host": platform.node(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def write_json(path: str, blob: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True, default=str)
