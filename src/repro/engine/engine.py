"""Sharded scatter-gather engine: one coordinator over a shard transport.

:class:`ShardedEngine` partitions the spatial grid's cell space across
``config.n_shards`` independent :class:`~repro.core.index.SWSTIndex`
shards — each with its own page file, pager, buffer pool and
decoded-node cache — using the deterministic
:class:`~repro.engine.sharding.GridShardMap`.  Because the SWST layers
share nothing between spatial cells, the coordinator only:

* routes every mutation to the shard owning the report's cell, as
  per-shard batches of :mod:`~repro.engine.wal` ops (``OP_INSERT``,
  ``OP_CLOSE``, ``OP_RUN``, ``OP_ADVANCE``, ...), keeping a mirror of
  every object's current entry: an object whose consecutive reports
  land in cells of different shards is finalised in the old shard and
  inserted into the new one;
* fans every range query out to the shards owning cells that overlap
  the query rectangle and merges the per-shard
  :class:`~repro.core.results.QueryResult`/``QueryStats``;
* advances every shard's clock in lockstep, so the wholesale tree-drop
  epoch (stream time crossing a multiple of ``Wmax``) fires consistently
  across the pool.

Where the shards live is a *shard transport*.  :class:`LocalShards`
keeps them in this process and fans work out over a pluggable
:class:`~repro.engine.executor.Executor`;
:class:`~repro.engine.worker.WorkerShards` (behind
:class:`~repro.engine.worker.WorkerEngine`) keeps each one in a
supervised worker process fed through a per-shard write-ahead log.  A
transport applies op batches, runs one read method on a set of shards,
commits (then snapshots or checkpoints) and closes; validation, routing,
the mirror, the plan cache, the query surface and the manifest protocol
exist once, here.  A single-shard engine is byte-identical — same
entries, same query results, same logical node-access counts — to a
plain ``SWSTIndex`` fed the same stream.

On disk an engine is a *directory*::

    index.d/
      engine.json          # manifest: {"format": 2, "n_shards": N,
      shard-000.pages      #            "epoch": E, "shards": [gen...],
      shard-001.pages      #            "generation": G}
      ...                  # one crash-safe format-v2 page file per shard
      engine.prepare.json  # transient save marker (two-phase commit)
      snapshots/<E>/       # CoW copies of the shard files at epoch E
      gen-001/             # shard files of manifest generation 1
                           # (resharded directories; generation 0 lives
                           # at the directory root)

**Two-phase epoch commit.**  ``save()`` makes the whole directory one
atomic unit: it first durably writes a PREPARE marker recording the next
epoch and the exact header generation each shard will reach when its
commit lands, then commits every shard, then atomically flips the
manifest to the new epoch and removes the marker (every step fsyncs the
file and the containing directory).  ``open()`` after a crash
classifies the directory deterministically from the marker: if no shard
committed the new epoch it *rolls back*; if every shard committed it
*rolls forward* (finishing the manifest flip); a crash between shard
commits — the one window the in-place storage layer cannot undo — is
settled by the transport.  In-process shards restore every shard from
the previous epoch's copy-on-write snapshot (``snapshots/<E>/``,
written right after the save that committed epoch ``E``, while the
shard files are provably clean) and roll back; only when no snapshot
exists (``snapshots=False`` engines, or pre-snapshot directories) does
the engine raise a typed :class:`~repro.engine.errors.EpochTornError`
naming both shard groups.  Worker shards roll forward instead: their
write-ahead logs still hold every acknowledged op.  Format-1 manifests
(no epoch) still open; their first ``save()`` upgrades them.

**Generations.**  ``repro.engine.reshard`` rewrites a saved directory
to a different shard count by streaming the entries into a fresh set of
shard files built side-by-side under ``gen-<G>/`` and atomically
flipping the manifest to the new generation; ``generation`` in the
manifest names the subdirectory the live shard files inhabit
(generation 0 is the directory root).

**Resilient fan-out.**  Read-only query fan-out runs each per-shard
task under the engine's :class:`~repro.engine.retry.RetryPolicy`
(transient ``OSError``/worker-death retries with exponential backoff
over injected seams) with per-shard
:class:`~repro.engine.retry.CircuitBreaker` accounting.  ``strict=True``
(default) raises a typed :class:`~repro.engine.errors.ShardQueryError`
naming the first failed shard; ``strict=False`` degrades gracefully,
returning a :class:`PartialResult` carrying the surviving shards' merged
entries plus a typed :class:`~repro.engine.errors.ShardFailure` per
failed shard, with ``stats.degraded`` set.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from typing import Any, Callable, Iterable, Iterator, Protocol

from ..core.config import SWSTConfig
from ..core.grid import SpatialGrid
from ..core.index import SWSTIndex
from ..core.overlap import classify_interval
from ..core.plan import PlanCache, QueryPlan, build_query_plan
from ..core.records import Entry, Rect, ReportLike
from ..core.results import MultiQueryResult, QueryResult, QueryStats
from ..storage.errors import StorageError
from ..storage.fileops import DURABLE_FILE_OPS, FileOps
from ..storage.pager import MEMORY
from ..storage.scrub import probe_committed_generation
from ..storage.stats import IOStats
from .errors import (CircuitOpenError, EngineClosedError, EngineCloseError,
                     EngineError, EpochTornError, ShardFailure,
                     ShardOpenError, ShardQueryError, TaskTimeoutError)
from .executor import Executor, ThreadedExecutor
from .retry import CircuitBreaker, RetryPolicy
from .sharding import GridShardMap
from .wal import (NONE_ARG, OP_ADVANCE, OP_CLOSE, OP_DELETE, OP_FORGET,
                  OP_INSERT, OP_RETAIN, OP_RUN, apply_op)


_MANIFEST_NAME = "engine.json"
_PREPARE_NAME = "engine.prepare.json"
_MANIFEST_FORMAT = 2

#: Per-shard failures a degraded fan-out absorbs into ``ShardFailure``
#: records: storage-layer corruption/IO, raw OS errors, and the engine's
#: own typed errors (timeouts, open circuit breakers).
_SHARD_FAILURE_ERRORS = (StorageError, OSError, EngineError)


_SNAPSHOTS_DIR = "snapshots"
_GEN_DIR_PREFIX = "gen-"


def _shard_file_name(shard_id: int) -> str:
    return f"shard-{shard_id:03d}.pages"


def generation_dir(directory: str, generation: int) -> str:
    """Directory holding one generation's shard files (root for gen 0)."""
    if generation == 0:
        return directory
    return os.path.join(directory, f"{_GEN_DIR_PREFIX}{generation:03d}")


def snapshot_dir(directory: str, epoch: int) -> str:
    """Directory holding the CoW shard snapshots of one epoch."""
    return os.path.join(directory, _SNAPSHOTS_DIR, f"{epoch:06d}")


def write_json_atomic(fops: FileOps, directory: str, path: str,
                      blob: dict[str, Any]) -> None:
    """Durable atomic JSON write: temp + fsync, rename, dir fsync."""
    data = (json.dumps(blob, sort_keys=True) + "\n").encode()
    tmp_path = path + ".tmp"
    fops.write_file(tmp_path, data)
    fops.replace(tmp_path, path)
    fops.fsync_dir(directory)


def probe_prepare_state(
        prepare: dict[str, Any], shard_paths: list[str]
) -> tuple[list[int | None], list[int], list[int]]:
    """Classify shards against a PREPARE marker's expected generations.

    Probes each shard's committed header generation passively (no open,
    no commit) and splits the ids into ``committed`` (the shard reached
    the generation the marker said its save would produce) and
    ``pending`` (it did not, or the file is unreadable).  Shared by
    :meth:`ShardedEngine._recover_epoch` and the warm-worker engine's
    marker resolution, so both recoveries classify identically.
    """
    observed = [probe_committed_generation(path) for path in shard_paths]
    committed = [sid for sid, gen in enumerate(observed)
                 if gen is not None and gen >= prepare["expected"][sid]]
    pending = [sid for sid in range(len(shard_paths))
               if sid not in set(committed)]
    return observed, committed, pending


def load_manifest(manifest_path: str) -> dict[str, Any]:
    """Read and validate an engine manifest, normalising across formats.

    Returns ``{"format", "n_shards", "epoch", "shards", "generation"}``;
    format-1 manifests (pre-epoch) normalise to epoch 0 with
    ``shards=None``.  ``generation`` (the subdirectory the live shard
    files inhabit — see :func:`generation_dir`) is optional in the file
    and defaults to 0, so pre-reshard format-2 manifests keep opening.
    """
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise EngineError(f"cannot read engine manifest "
                          f"{manifest_path!r}: {exc}") from exc
    if not isinstance(manifest, dict) \
            or not isinstance(manifest.get("n_shards"), int) \
            or manifest["n_shards"] < 1:
        raise EngineError(f"engine manifest {manifest_path!r} is not a "
                          f"recognised SWST engine manifest")
    n_shards: int = manifest["n_shards"]
    fmt = manifest.get("format")
    if fmt == 1:
        return {"format": 1, "n_shards": n_shards, "epoch": 0,
                "shards": None, "generation": 0}
    if fmt == _MANIFEST_FORMAT:
        epoch = manifest.get("epoch")
        gens = manifest.get("shards")
        generation = manifest.get("generation", 0)
        if not isinstance(epoch, int) or epoch < 0 \
                or not isinstance(gens, list) or len(gens) != n_shards \
                or not all(isinstance(g, int) and g >= 0 for g in gens) \
                or not isinstance(generation, int) or generation < 0:
            raise EngineError(f"engine manifest {manifest_path!r} is a "
                              f"malformed format-{_MANIFEST_FORMAT} "
                              f"manifest")
        return {"format": _MANIFEST_FORMAT, "n_shards": n_shards,
                "epoch": epoch, "shards": list(gens),
                "generation": generation}
    raise EngineError(f"engine manifest {manifest_path!r} has unsupported "
                      f"format {fmt!r}")


def _load_prepare(prepare_path: str) -> dict[str, Any] | None:
    """Read the PREPARE marker; ``None`` if absent, typed error if torn.

    The marker is written atomically (temp file + fsync + rename + dir
    fsync), so on a healthy filesystem it is either absent or valid; an
    unreadable marker means external damage and recovery refuses to
    guess.
    """
    try:
        with open(prepare_path) as handle:
            record = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise EngineError(f"cannot read save marker {prepare_path!r}: "
                          f"{exc}") from exc
    expected = record.get("expected") if isinstance(record, dict) else None
    if not isinstance(record, dict) \
            or record.get("format") != _MANIFEST_FORMAT \
            or not isinstance(record.get("epoch"), int) \
            or record["epoch"] < 1 \
            or not isinstance(record.get("n_shards"), int) \
            or not isinstance(expected, list) \
            or len(expected) != record["n_shards"] \
            or not all(isinstance(g, int) and g >= 1 for g in expected):
        raise EngineError(f"save marker {prepare_path!r} is malformed")
    return record


def _guarded_call(policy: RetryPolicy,
                  fn: Callable[[], Any]) -> tuple[str, Any]:
    """Run ``fn`` under ``policy``; return ``("ok", result)`` or
    ``("err", exception)``.

    Outcome tuples keep executor task callables free of shared-state
    mutation (invariant R005): the engine folds outcomes into circuit
    breaker state on the gathering side, never inside the task.
    """
    try:
        return ("ok", policy.call(fn))
    except _SHARD_FAILURE_ERRORS as exc:
        return ("err", exc)


#: One mutation as the transports carry it: an op code and its int
#: arguments (see :mod:`repro.engine.wal`).
Op = tuple[int, tuple[int, ...]]

#: Per-shard op batches of one dispatch: shard id -> ops in order.
Batches = dict[int, list[Op]]


def shard_request(shard: SWSTIndex, kind: str, payload: Any = None) -> Any:
    """Answer one request that is not an op batch, against one shard.

    The vocabulary both transports share: ``query`` runs one read
    method (``payload = (method, args)``), ``resync`` reports the clock
    and current-entry table, ``scan``/``len``/``stats`` are
    introspection, ``gen_info`` feeds the PREPARE marker and ``save``
    commits the shard, answering its new header generation.
    """
    if kind == "query":
        method, args = payload
        return getattr(shard, method)(*args)
    if kind == "resync":
        return {"now": shard.now, "current": shard.current_objects()}
    if kind == "scan":
        return list(shard.scan())
    if kind == "len":
        return len(shard)
    if kind == "stats":
        return shard.stats.snapshot()
    if kind == "gen_info":
        pager = shard.pager
        return (pager.format_version, pager.generation, pager.session_marked)
    if kind == "save":
        shard.save()
        return shard.pager.generation
    raise ValueError(f"unknown shard request {kind!r}")


@dataclasses.dataclass
class PartialResult(QueryResult):
    """A degraded (``strict=False``) query result.

    Carries the merged entries and statistics of the shards that
    answered, plus one typed :class:`ShardFailure` per shard that did
    not.  ``stats.degraded`` is True iff ``failures`` is non-empty.
    """

    failures: list[ShardFailure] = dataclasses.field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True if every dispatched shard answered (no failures)."""
        return not self.failures


class ShardTransport(Protocol):
    """Where the shards of a :class:`ShardedEngine` live.

    Four jobs — apply op batches, run a read method on a set of shards,
    commit then snapshot/checkpoint, close — plus the start-up and
    recovery seams each of them needs.
    """

    def start(self, manifest: dict[str, Any] | None) -> None:
        """Create fresh shards (``None``) or open the manifest's ones."""

    def prepare(self, shard_ids: list[int]) -> None:
        """Make ``shard_ids`` reachable before a dispatch moves the clock."""

    def apply(self, batches: Batches) -> dict[int, list[Any]]:
        """Apply each shard's ops in order; per-op results per shard."""

    def run(self, shard_ids: list[int], method: str, args: tuple[Any, ...]
            ) -> tuple[list[tuple[int, Any]], list[ShardFailure]]:
        """Resilient read fan-out: successes plus typed failures."""

    def request(self, shard_id: int, kind: str, payload: Any = None) -> Any:
        """One :func:`shard_request` against one shard (raises)."""

    def request_all(self, kind: str, payload: Any = None) -> list[Any]:
        """One :func:`shard_request` against every shard, in id order."""

    def checkpoint(self, epoch: int) -> None:
        """Post-commit step of a save that reached ``epoch``."""

    def save_failed(self) -> None:
        """A save failed before its manifest flip landed."""

    def settle_torn(self, epoch: int, committed: list[int],
                    pending: list[int], next_epoch: int) -> bool:
        """Settle a save torn between shard commits; True = roll forward."""

    def close(self) -> list[BaseException]:
        """Release every shard; returns the errors met on the way."""

    def abandon(self) -> None:
        """Best-effort release after a failed start (never raises)."""


class LocalShards:
    """In-process shard transport: ``SWSTIndex`` shards on an executor.

    Op batches with ingest runs on more than one shard, and every read
    fan-out, run on the engine's
    :class:`~repro.engine.executor.Executor`; reads go through the
    retry policy and per-shard circuit breakers.  A disk-backed engine
    keeps copy-on-write epoch snapshots (``snapshots/<E>/``) so that a
    save torn between in-place shard commits — or a mid-session crash
    that left evicted uncommitted pages over a committed file — rolls
    back on open.
    """

    def __init__(self, engine: "ShardedEngine", executor: Executor | None,
                 task_timeout: float | None, snapshots: bool) -> None:
        self._engine = engine
        self.owns_executor = executor is None
        self.executor: Executor = executor if executor is not None \
            else ThreadedExecutor(max_workers=engine.n_shards)
        self.task_timeout = task_timeout
        self.snapshots = snapshots
        self.shards: list[SWSTIndex] = []

    # -- start -----------------------------------------------------------------

    def start(self, manifest: dict[str, Any] | None) -> None:
        """Create fresh shard files, or open a recovered directory's.

        Under a format-2 manifest a shard that refuses to open —
        typically a mid-session crash after the buffer pool evicted
        uncommitted pages over the committed state in place — is
        retried once after restoring *every* shard from the committed
        epoch's snapshot; then the shards must sit at or above their
        recorded generations and agree on one clock (disagreement means
        the directory mixes snapshots and is refused).  Format-1
        directories open as they are; the engine realigns their clocks.
        """
        engine = self._engine
        if manifest is None:
            self._open_files(create=True)
        elif manifest["format"] < 2:
            self._open_files()
            return
        else:
            try:
                self._open_files()
            except ShardOpenError:
                if not self.snapshots \
                        or not self._restore_snapshot(manifest["epoch"]):
                    raise
                self._open_files()
            self._check_manifest(manifest)
        if engine.directory is not None and self.snapshots \
                and all(shard.pager.format_version == 2
                        for shard in self.shards):
            self._ensure_snapshot()

    def _open_files(self, create: bool = False) -> None:
        """Open (or create) every shard; on failure close what was opened."""
        engine = self._engine
        opened: list[SWSTIndex] = []
        try:
            for shard_id in range(engine.n_shards):
                shard_path = engine.shard_path(shard_id)
                if create:
                    opened.append(SWSTIndex(engine.config, shard_path))
                    continue
                try:
                    opened.append(SWSTIndex.open(shard_path, engine.config))
                except Exception as exc:
                    raise ShardOpenError(shard_id, shard_path,
                                         exc) from exc
        except BaseException:
            for shard in opened:
                with contextlib.suppress(StorageError, OSError):
                    shard.close()
            raise
        self.shards.extend(opened)

    def _check_manifest(self, manifest: dict[str, Any]) -> None:
        gens: list[int] = manifest["shards"]
        for shard_id, shard in enumerate(self.shards):
            if shard.pager.format_version == 2 \
                    and shard.pager.generation < gens[shard_id]:
                raise EngineError(
                    f"shard {shard_id} is behind the manifest: committed "
                    f"generation {shard.pager.generation} < recorded "
                    f"{gens[shard_id]} (page file replaced or restored "
                    f"from an older backup?)")
        clocks = {shard.now for shard in self.shards}
        if len(clocks) > 1:
            raise EngineError(
                f"shard clocks disagree under manifest epoch "
                f"{manifest['epoch']}: {sorted(clocks)}; the directory "
                f"mixes snapshots (restore from backup)")

    # -- apply / run -----------------------------------------------------------

    def prepare(self, shard_ids: list[int]) -> None:
        """In-process shards are always reachable."""

    def apply(self, batches: Batches) -> dict[int, list[Any]]:
        """Apply the batches; ingest runs on several shards in parallel.

        Mutations never retry and ignore breaker state: a half-applied
        batch must surface, not be papered over.
        """
        shards = self.shards
        items = sorted(batches.items())

        def task(item: tuple[int, list[Op]]) -> list[Any]:
            shard = shards[item[0]]
            return [apply_op(shard, op, args) for op, args in item[1]]

        runs = sum(any(op == OP_RUN for op, _ in ops) for _, ops in items)
        results = self.executor.map(task, items) if runs > 1 \
            else [task(item) for item in items]
        return {sid: result for (sid, _), result in zip(items, results,
                                                        strict=True)}

    def run(self, shard_ids: list[int], method: str, args: tuple[Any, ...]
            ) -> tuple[list[tuple[int, Any]], list[ShardFailure]]:
        """Scatter one read method over the executor, resiliently.

        Shards whose breaker is open fail up front (no dispatch); every
        dispatched task runs under the retry policy, and outcomes fold
        into the breakers here on the gathering side (executor callables
        never mutate shared state).  A fan-out deadline abandons the
        whole gather: only the overrunning shard's breaker records it.
        """
        engine = self._engine
        breakers = engine._breakers
        dispatch: list[int] = []
        failures: list[ShardFailure] = []
        for sid in shard_ids:
            breaker = breakers[sid]
            if breaker is not None and not breaker.allow():
                failures.append(ShardFailure(
                    sid, engine.shard_path(sid), CircuitOpenError(sid)))
            else:
                dispatch.append(sid)
        if not dispatch:
            return [], failures
        policy = engine._retry_policy
        shards = self.shards

        def task(sid: int) -> tuple[str, Any]:
            return _guarded_call(
                policy, lambda: getattr(shards[sid], method)(*args))

        try:
            outcomes = self.executor.map(task, dispatch,
                                         timeout=self.task_timeout)
        except TaskTimeoutError as exc:
            # Timeouts are not retried (the task may still hold the
            # shard); the siblings were merely collateral.
            timed_sid = dispatch[exc.item_index]
            breaker = breakers[timed_sid]
            if breaker is not None:
                breaker.record_failure()
            for sid in dispatch:
                error: EngineError = exc if sid == timed_sid else \
                    EngineError(f"fan-out abandoned after shard "
                                f"{timed_sid} exceeded its deadline")
                failures.append(ShardFailure(
                    sid, engine.shard_path(sid), error))
            return [], failures
        successes: list[tuple[int, Any]] = []
        for sid, (tag, value) in zip(dispatch, outcomes, strict=True):
            breaker = breakers[sid]
            if tag == "ok":
                if breaker is not None:
                    breaker.record_success()
                successes.append((sid, value))
            else:
                if breaker is not None:
                    breaker.record_failure()
                failures.append(ShardFailure(
                    sid, engine.shard_path(sid), value))
        return successes, failures

    def request(self, shard_id: int, kind: str, payload: Any = None) -> Any:
        return shard_request(self.shards[shard_id], kind, payload)

    def request_all(self, kind: str, payload: Any = None) -> list[Any]:
        return [shard_request(shard, kind, payload) for shard in self.shards]

    # -- commit and snapshots --------------------------------------------------

    def save_failed(self) -> None:
        """The marker stays for the next ``open()`` to resolve.

        Live shards keep their in-memory state, so calling ``save()``
        again completes the epoch after a transient fault.
        """

    def checkpoint(self, epoch: int) -> None:
        """CoW-snapshot the just-committed files; drop older snapshots.

        The snapshot runs *after* the commit, while every page file is
        provably clean — a pre-save copy could capture uncommitted pages
        the buffer pool evicted over the committed state, and restoring
        such a copy would reproduce the corruption instead of undoing
        it.  A crash in here at worst loses the new epoch's snapshot,
        which ``open()`` rewrites.
        """
        if self.snapshots:
            self.write_snapshot()
            self._prune_snapshots(keep_epoch=epoch)

    def settle_torn(self, epoch: int, committed: list[int],
                    pending: list[int], next_epoch: int) -> bool:
        """Restore every shard from ``snapshots/<epoch>/`` and roll back.

        Even with no shard committed, the crashed save's write window
        may have evicted uncommitted pages over the committed state in
        place, so the restore runs whenever a snapshot exists.  Mixed
        commits without a snapshot raise :class:`EpochTornError`.
        """
        restored = self._restore_snapshot(epoch)
        if committed and not restored:
            raise EpochTornError(next_epoch, committed, pending)
        return False

    def _snapshot_root(self) -> str:
        directory = self._engine.directory
        assert directory is not None
        return os.path.join(directory, _SNAPSHOTS_DIR)

    def _ensure_snapshot(self) -> None:
        """Write ``snapshots/<epoch>/`` when absent or incomplete.

        Runs at construction and after every successful open — the
        other moments (besides a completed save) when every shard file
        is provably clean-committed.  Copies are atomic, so presence of
        all ``n_shards`` files means the snapshot is whole.
        """
        engine = self._engine
        assert engine.directory is not None
        snap = snapshot_dir(engine.directory, engine.epoch)
        if not all(os.path.exists(os.path.join(snap, _shard_file_name(sid)))
                   for sid in range(engine.n_shards)):
            self.write_snapshot()

    def write_snapshot(self) -> None:
        """CoW-copy every shard file into ``snapshots/<epoch>/``.

        Only runs while every page file is clean-committed, so the
        copies freeze exactly the committed state of the engine's epoch.
        """
        engine = self._engine
        assert engine.directory is not None
        fops = engine._fops
        snap_root = self._snapshot_root()
        snap = snapshot_dir(engine.directory, engine.epoch)
        fops.mkdir(snap_root)
        fops.mkdir(snap)
        for shard_id in range(engine.n_shards):
            fops.copy_file(engine.shard_path(shard_id),
                           os.path.join(snap, _shard_file_name(shard_id)))
        fops.fsync_dir(snap)
        fops.fsync_dir(snap_root)
        fops.fsync_dir(engine.directory)

    def _prune_snapshots(self, keep_epoch: int) -> None:
        """Drop snapshot directories of epochs older than ``keep_epoch``.

        Runs after the flip committed, so a crash in here costs only
        disk space — stale directories are re-pruned by the next save.
        """
        snap_root = self._snapshot_root()
        try:
            names = sorted(os.listdir(snap_root))
        except OSError:
            return
        fops = self._engine._fops
        pruned = False
        for name in names:
            if not name.isdigit() or int(name) >= keep_epoch:
                continue
            stale = os.path.join(snap_root, name)
            for file_name in sorted(os.listdir(stale)):
                fops.unlink(os.path.join(stale, file_name))
            fops.rmdir(stale)
            pruned = True
        if pruned:
            fops.fsync_dir(snap_root)

    def _restore_snapshot(self, epoch: int) -> bool:
        """Roll every shard back to its ``snapshots/<epoch>/`` copy.

        Returns False (directory untouched) unless the snapshot holds a
        copy for *every* shard — a partial restore would just move the
        tear.  Each restore is an atomic durable copy, so a crash
        mid-restore re-enters recovery and converges.
        """
        engine = self._engine
        assert engine.directory is not None
        snap = snapshot_dir(engine.directory, epoch)
        sources = {sid: os.path.join(snap, _shard_file_name(sid))
                   for sid in range(engine.n_shards)}
        if not all(os.path.exists(source) for source in sources.values()):
            return False
        fops = engine._fops
        for sid, source in sources.items():
            fops.copy_file(source, engine.shard_path(sid))
        fops.fsync_dir(generation_dir(engine.directory, engine.generation))
        return True

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> list[BaseException]:
        """Close every shard and (if owned) the executor."""
        errors: list[BaseException] = []
        for shard in self.shards:
            try:
                shard.close()
            except BaseException as exc:
                errors.append(exc)
        if self.owns_executor:
            try:
                self.executor.close()
            except BaseException as exc:
                errors.append(exc)
        return errors

    def abandon(self) -> None:
        # Best-effort: a shard whose close fails (its device already
        # torn down) must not mask the original init/open error.
        for shard in self.shards:
            with contextlib.suppress(StorageError, OSError, ValueError):
                shard.close()
        if self.owns_executor:
            with contextlib.suppress(OSError, RuntimeError):
                self.executor.close()


class ShardedEngine:
    """Scatter-gather coordinator over ``config.n_shards`` SWST shards.

    Args:
        config: index parameters; ``config.n_shards`` fixes the shard
            count (the default config is a single shard).
        path: shard directory, or ``":memory:"`` (default) for an
            all-in-memory engine (each shard on its own memory device).
        executor: worker pool for scatter-gather; defaults to a
            :class:`~repro.engine.executor.ThreadedExecutor` sized to
            the shard count.  A caller-supplied executor is *borrowed*
            (``close()`` leaves it running); the default one is owned
            and shut down with the engine.
        retry_policy: per-shard retry policy for read-only query
            fan-out; defaults to ``RetryPolicy()`` (3 deterministic
            immediate attempts).  Pass ``RetryPolicy(attempts=1)`` to
            disable retries.
        breaker_factory: builds one circuit breaker per shard;
            defaults to :class:`~repro.engine.retry.CircuitBreaker`
            with its deterministic attempt-counting clock.  Pass
            ``None`` to disable breakers entirely.
        task_timeout: per-task deadline (seconds) for query fan-out, or
            ``None`` (default) for no deadline.  Timeouts are typed
            (:class:`~repro.engine.errors.TaskTimeoutError`) and never
            retried — an abandoned worker may still hold its shard.
        file_ops: durable filesystem seam for the manifest protocol;
            tests substitute a fault-injecting implementation.
        snapshots: when True (default), every ``save()`` CoW-copies the
            just-committed shard files into ``snapshots/<epoch>/`` so a
            save torn between in-place shard commits rolls back on
            ``open()`` instead of raising :class:`EpochTornError`.
            ``False`` restores the pre-snapshot protocol (and its torn
            window).

    The engine exposes the full ``SWSTIndex`` query surface
    (``query_timeslice``, ``query_interval``, ``query_interval_many``,
    ``count_interval``, ``query_knn``, ``density_grid``,
    ``object_history``) plus the ingestion API (``insert``, ``report``,
    ``extend``, ``close_object``, ``delete``, ``set_retention``,
    ``forget_object``, ``advance_time``).  It is not itself thread-safe
    for concurrent callers; internal parallelism only ever touches
    disjoint shards.
    """

    _transport: ShardTransport

    def __init__(self, config: SWSTConfig | None = None,
                 path: str = MEMORY,
                 executor: Executor | None = None, *,
                 retry_policy: RetryPolicy | None = None,
                 breaker_factory: Callable[[], CircuitBreaker] | None
                 = CircuitBreaker,
                 task_timeout: float | None = None,
                 file_ops: FileOps | None = None,
                 snapshots: bool = True) -> None:
        self._setup(config, path, retry_policy, breaker_factory, file_ops)
        self._start(LocalShards(self, executor, task_timeout, snapshots),
                    create=True)

    @classmethod
    def open(cls, path: str, config: SWSTConfig,
             executor: Executor | None = None, *,
             retry_policy: RetryPolicy | None = None,
             breaker_factory: Callable[[], CircuitBreaker] | None
             = CircuitBreaker,
             task_timeout: float | None = None,
             file_ops: FileOps | None = None,
             snapshots: bool = True) -> "ShardedEngine":
        """Re-open a saved shard directory, recovering it as one unit.

        A leftover PREPARE marker (crashed save) is resolved *before*
        any shard opens (see :meth:`_resolve_marker`).  Then each shard
        runs the storage layer's full recovery-on-open; the first shard
        that fails raises :class:`ShardOpenError` naming it.
        """
        engine = cls.__new__(cls)
        engine._setup(config, path, retry_policy, breaker_factory, file_ops)
        engine._start(LocalShards(engine, executor, task_timeout,
                                  snapshots), create=False)
        return engine

    def _setup(self, config: SWSTConfig | None, path: str,
               retry_policy: RetryPolicy | None,
               breaker_factory: Callable[[], CircuitBreaker] | None,
               file_ops: FileOps | None) -> None:
        self.config = config if config is not None else SWSTConfig()
        self._dir: str | None = None if os.fspath(path) == MEMORY \
            else os.fspath(path)
        self.grid = SpatialGrid(self.config.space, self.config.x_partitions,
                                self.config.y_partitions)
        self.shard_map = GridShardMap(self.config.x_partitions,
                                      self.config.y_partitions,
                                      self.config.n_shards)
        self._retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy()
        self._breakers: list[CircuitBreaker | None] = [
            breaker_factory() if breaker_factory is not None else None
            for _ in range(self.config.n_shards)]
        self._fops: FileOps = file_ops if file_ops is not None \
            else DURABLE_FILE_OPS
        self._plans = PlanCache(self.config.plan_cache_size)
        #: oid -> (home shard, x, y, s) for every live current entry.
        self._cur: dict[int, tuple[int, int, int, int]] = {}
        #: Clock each shard reached at its last acknowledged dispatch.
        self._shard_clocks = [0] * self.config.n_shards
        self._clock = 0
        self._epoch = 0
        self._generation = 0
        self._needs_resync = False
        self._closed = False

    def _start(self, transport: ShardTransport, create: bool) -> None:
        """Bring the shards up, then derive the clock and mirror."""
        self._transport = transport
        try:
            manifest = None
            if not create:
                manifest = self._recover()
            elif self._dir is not None:
                self._prepare_directory()
            transport.start(manifest)
            self._resync()
        except BaseException:
            self._abandon()
            raise

    # -- directory layout -----------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.config.n_shards

    @property
    def directory(self) -> str | None:
        """Shard directory path (``None`` for an in-memory engine)."""
        return self._dir

    @property
    def epoch(self) -> int:
        """Manifest epoch of the last whole-directory save (0 = never)."""
        return self._epoch

    @property
    def generation(self) -> int:
        """Manifest generation the live shard files inhabit (0 = root)."""
        return self._generation

    def shard_path(self, shard_id: int) -> str:
        """Page-file path of one shard (``":memory:"`` when memory-backed)."""
        if self._dir is None:
            return MEMORY
        return os.path.join(generation_dir(self._dir, self._generation),
                            _shard_file_name(shard_id))

    def _manifest_path(self) -> str:
        assert self._dir is not None
        return os.path.join(self._dir, _MANIFEST_NAME)

    def _prepare_path(self) -> str:
        assert self._dir is not None
        return os.path.join(self._dir, _PREPARE_NAME)

    def _prepare_directory(self) -> None:
        assert self._dir is not None
        if os.path.exists(self._dir) and not os.path.isdir(self._dir):
            raise EngineError(f"engine path {self._dir!r} exists and is "
                              f"not a directory")
        os.makedirs(self._dir, exist_ok=True)
        if os.path.exists(self._prepare_path()):
            raise EngineError(
                f"directory {self._dir!r} holds an interrupted save "
                f"(marker {_PREPARE_NAME}); recover it with "
                f"{type(self).__name__}.open() first")
        manifest_path = self._manifest_path()
        if os.path.exists(manifest_path):
            manifest = load_manifest(manifest_path)
            if manifest["n_shards"] != self.n_shards:
                raise EngineError(
                    f"directory {self._dir!r} holds {manifest['n_shards']} "
                    f"shards but config.n_shards is {self.n_shards}")
            self._epoch = manifest["epoch"]
            self._generation = manifest["generation"]
            return
        self._write_json_atomic(
            manifest_path,
            {"format": _MANIFEST_FORMAT, "n_shards": self.n_shards,
             "epoch": 0, "shards": [0] * self.n_shards, "generation": 0})

    def _write_json_atomic(self, path: str, blob: dict[str, Any]) -> None:
        """Durable atomic JSON write: temp + fsync, rename, dir fsync."""
        assert self._dir is not None
        write_json_atomic(self._fops, self._dir, path, blob)

    def _abandon(self) -> None:
        """Release whatever was built after a failed init/open."""
        self._closed = True
        self._transport.abandon()

    # -- properties ------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current stream time τ (shared by every shard)."""
        return self._clock

    def __len__(self) -> int:
        """Physically stored entries across every shard."""
        self._check_open()
        lengths: list[int] = self._transport.request_all("len")
        return sum(lengths)

    @property
    def shards(self) -> tuple[SWSTIndex, ...]:
        """The in-process shard indexes, in shard-id order (diagnostics)."""
        if not isinstance(self._transport, LocalShards):
            raise AttributeError("the shards live in worker processes")
        return tuple(self._transport.shards)

    @property
    def breakers(self) -> tuple[CircuitBreaker | None, ...]:
        """Per-shard circuit breakers, in shard-id order (diagnostics)."""
        return tuple(self._breakers)

    @property
    def stats(self) -> IOStats:
        """Aggregate IO counters across every shard (a fresh snapshot).

        Unlike ``SWSTIndex.stats`` this is not a live object — call again
        for updated totals.  ``snapshot()``/``diff()`` work as usual, so
        the engine drops into harness code written for a single index.
        """
        total = IOStats()
        for snap in self.shard_stats():
            for name in vars(snap):
                setattr(total, name, getattr(total, name) + getattr(snap,
                                                                    name))
        return total

    def shard_stats(self) -> list[IOStats]:
        """Per-shard IO counter snapshots, in shard-id order."""
        self._check_open()
        stats: list[IOStats] = self._transport.request_all("stats")
        return stats

    def node_count(self) -> int:
        """Total B+ tree pages across every shard."""
        self._check_open()
        counts: list[int] = self._transport.request_all(
            "query", ("node_count", ()))
        return sum(counts)

    def current_objects(self) -> dict[int, tuple[int, int, int]]:
        """Merged current-entry table: oid -> (x, y, s)."""
        self._check_open()
        merged: dict[int, tuple[int, int, int]] = {}
        for state in self._transport.request_all("resync"):
            merged.update(state["current"])
        return merged

    # -- routing helpers -------------------------------------------------------

    def _shard_id_of(self, x: int, y: int) -> int:
        cx, cy = self.grid.cell_of(x, y)
        return self.shard_map.shard_of_cell(cx, cy)

    def _shards_for_area(self, area: Rect) -> list[int]:
        """Sorted ids of the shards owning cells that overlap ``area``."""
        ids: set[int] = set()
        for cell in self.grid.overlapping_cells(area):
            ids.add(self.shard_map.shard_of_cell(cell.cx, cell.cy))
            if len(ids) == self.n_shards:
                break
        return sorted(ids)

    def _live_cur(self, oid: int,
                  now: int) -> tuple[int, int, int, int] | None:
        """The mirror's current entry of ``oid`` as of clock ``now``.

        Applies the shards' window-drop rule (a current entry whose
        start window has been dropped is gone), so a report routed at
        time ``now`` never finalises a record the shard discarded.
        """
        cur = self._cur.get(oid)
        w_max = self.config.w_max
        if cur is not None and cur[3] // w_max < now // w_max - 1:
            return None
        return cur

    def _route_current(self, batches: Batches, oid: int, x: int, y: int,
                       t: int) -> None:
        """Queue one current-entry report, crossing shards if need be.

        Mirrors the single-index protocol: a live current entry in
        another shard is finalised there with its real duration (or,
        re-reported at the same timestamp, deleted as a position
        correction) before the new one is inserted into the destination
        shard, which itself handles a previous entry it holds.
        """
        dest = self._shard_id_of(x, y)
        cur = self._live_cur(oid, t)
        if cur is not None and cur[0] != dest:
            home, px, py, ps = cur
            batches.setdefault(home, []).append(
                (OP_DELETE, (oid, px, py, ps, NONE_ARG)) if ps == t
                else (OP_CLOSE, (oid, t)))
        batches.setdefault(dest, []).append(
            (OP_INSERT, (oid, x, y, t, NONE_ARG)))
        self._cur[oid] = (dest, x, y, t)

    # -- mutation dispatch -----------------------------------------------------

    def _dispatch(self, batches: Batches,
                  advance_to: int | None = None) -> dict[int, list[Any]]:
        """Apply per-shard op batches; optionally advance every clock.

        With ``advance_to`` every shard whose clock is behind receives
        a trailing ``OP_ADVANCE``.  Mutations are never retried: when
        the transport fails, which shards applied their batch is
        unknown, so the coordinator marks itself for resynchronisation
        and re-raises.  (Re-submitting position reports is safe — a
        re-report at the same timestamp is a position correction.)
        """
        if advance_to is not None:
            for sid in range(self.n_shards):
                if self._shard_clocks[sid] < advance_to:
                    batches.setdefault(sid, [])
        # Reach every target before the clock moves: a restarted worker
        # catches up to the pre-batch clock, and the batch's own ops
        # (which may carry times below ``advance_to``) apply on top.
        self._transport.prepare(sorted(batches))
        if advance_to is not None:
            if advance_to > self._clock:
                self._move_clock(advance_to)
            for ops in batches.values():
                ops.append((OP_ADVANCE, (advance_to,)))
        try:
            results = self._transport.apply(batches)
        except BaseException:
            self._needs_resync = True
            raise
        if advance_to is not None:
            for sid in batches:
                self._shard_clocks[sid] = advance_to
        return results

    def _move_clock(self, now: int) -> None:
        """Advance the lockstep clock; reap mirror entries it drops."""
        w_max = self.config.w_max
        if now // w_max != self._clock // w_max:
            horizon = now // w_max - 1
            self._cur = {oid: cur for oid, cur in self._cur.items()
                         if cur[3] // w_max >= horizon}
        # Queriable period changed: no engine-level plan survives a
        # slide (entries are clock-fenced besides, see PlanCache).
        self._plans.invalidate()
        self._clock = now

    def _restarted(self, shard_id: int, now: int) -> int:
        """Fold a restarted shard's clock in; returns the clock to reach.

        A shard that replayed acknowledged-but-unreported ops may be
        ahead of the coordinator: the clock follows it and the siblings
        are resynchronised before the next fan-out.
        """
        if now > self._clock:
            self._move_clock(now)
            self._needs_resync = True
        self._shard_clocks[shard_id] = self._clock
        return self._clock

    def _resync(self) -> None:
        """Re-derive the clock and the mirror from the shards.

        Runs at start-up and after a failed dispatch, and realigns
        straggling shard clocks with (logged) advances.
        """
        self._needs_resync = False
        try:
            states = self._transport.request_all("resync")
            self._clock = max(self._clock,
                              *(state["now"] for state in states))
            self._cur.clear()
            for sid, state in enumerate(states):
                self._shard_clocks[sid] = state["now"]
                for oid, (x, y, s) in state["current"].items():
                    other = self._cur.get(oid)
                    if other is None or other[3] < s:
                        self._cur[oid] = (sid, x, y, s)
            stragglers: Batches = {
                sid: [(OP_ADVANCE, (self._clock,))]
                for sid in range(self.n_shards)
                if self._shard_clocks[sid] < self._clock}
            if stragglers:
                self._transport.apply(stragglers)
                for sid in stragglers:
                    self._shard_clocks[sid] = self._clock
        except BaseException:
            self._needs_resync = True
            raise

    def _settled(self) -> None:
        """Resync if the last mutation dispatch ended in a failure."""
        if self._needs_resync:
            self._resync()

    # -- insertion and updates -------------------------------------------------

    def insert(self, oid: int, x: int, y: int, s: int,
               d: int | None = None) -> None:
        """Insert an entry; ``d=None`` inserts a *current* entry.

        Same contract as :meth:`SWSTIndex.insert` — ordered stream, one
        live current entry per object — with routing and the cross-shard
        current protocol handled by the engine.
        """
        self._check_open()
        self._settled()
        if not self.config.space.contains(x, y):
            raise ValueError(f"location ({x}, {y}) outside the spatial "
                             f"domain {self.config.space}")
        if s < self._clock:
            raise ValueError(f"out-of-order start timestamp {s} < current "
                             f"time {self._clock}")
        if d is not None and d < 1:
            raise ValueError(f"duration must be >= 1, got {d}")
        batches: Batches = {}
        if d is not None:
            batches[self._shard_id_of(x, y)] = [(OP_INSERT,
                                                 (oid, x, y, s, d))]
        else:
            self._route_current(batches, oid, x, y, s)
        self._dispatch(batches, advance_to=s)

    def report(self, oid: int, x: int, y: int, t: int) -> None:
        """Position report of a moving object (alias of a current insert)."""
        self.insert(oid, x, y, t, None)

    def extend(self, reports: Iterable[ReportLike],
               batch_size: int = 1024) -> int:
        """Batched ingestion: one op batch per shard per epoch run.

        Reports are consumed in chunks of ``batch_size``; each chunk is
        validated and split into ``Wmax``-epoch runs (window drops only
        fire at epoch boundaries).  Objects whose reports stay within
        one shard ride one cell-grouped ``OP_RUN`` per shard — the same
        batch path as :meth:`SWSTIndex.extend`; objects whose current
        entry hops between shards take the cross-shard protocol in
        stream order (reports of distinct objects commute within a run).

        Returns the number of reports ingested.
        """
        self._check_open()
        self._settled()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        count = 0
        batch: list[ReportLike] = []
        for report in reports:
            batch.append(report)
            if len(batch) >= batch_size:
                count += self._extend_batch(batch)
                batch.clear()
        if batch:
            count += self._extend_batch(batch)
        return count

    def _extend_batch(self, batch: list[ReportLike]) -> int:
        clock = self._clock
        for report in batch:
            if not self.config.space.contains(report.x, report.y):
                raise ValueError(f"location ({report.x}, {report.y}) outside "
                                 f"the spatial domain {self.config.space}")
            if report.t < clock:
                raise ValueError(f"out-of-order start timestamp {report.t} "
                                 f"< current time {clock}")
            clock = report.t
        w_max = self.config.w_max
        start = 0
        for idx in range(1, len(batch) + 1):
            if idx == len(batch) \
                    or batch[idx].t // w_max != batch[start].t // w_max:
                self._ingest_run(batch[start:idx])
                start = idx
        return len(batch)

    def _ingest_run(self, run: list[ReportLike]) -> None:
        """One epoch run as per-shard op batches.

        Cross-shard objects' ops come first in each shard's batch (in
        stream order, each carrying its own clock bump), then the
        shard's ``OP_RUN``, then the lockstep advance.
        """
        t_max = run[-1].t
        dests = [self._shard_id_of(report.x, report.y) for report in run]
        touched: dict[int, set[int]] = {}
        for report, dest in zip(run, dests, strict=True):
            touched.setdefault(report.oid, set()).add(dest)
        cross_shard: set[int] = set()
        for oid, shard_ids in touched.items():
            cur = self._live_cur(oid, self._clock)
            if len(shard_ids) > 1 or (cur is not None
                                      and cur[0] not in shard_ids):
                cross_shard.add(oid)
        batches: Batches = {}
        runs: dict[int, list[int]] = {}
        for report, dest in zip(run, dests, strict=True):
            oid, x, y, t = report.oid, report.x, report.y, report.t
            if oid in cross_shard:
                self._route_current(batches, oid, x, y, t)
            else:
                runs.setdefault(dest, [t_max]).extend((oid, x, y, t))
                self._cur[oid] = (dest, x, y, t)
        for sid, args in runs.items():
            batches.setdefault(sid, []).append((OP_RUN, tuple(args)))
        self._dispatch(batches, advance_to=t_max)

    def close_object(self, oid: int, t: int) -> bool:
        """Finalise an object's current entry at end time ``t``."""
        self._check_open()
        self._settled()
        if t < self._clock:
            raise ValueError(f"clock cannot move backwards "
                             f"({t} < {self._clock})")
        cur = self._live_cur(oid, t)
        if cur is None:
            self._dispatch({}, advance_to=t)
            return False
        if t <= cur[3]:
            # Fail before anything is dispatched, exactly as the shard
            # itself would refuse — the mirror entry stays.
            raise ValueError(f"object {oid} cannot be finalised at {t} "
                             f"<= its current start {cur[3]}")
        home = cur[0]
        del self._cur[oid]
        results = self._dispatch({home: [(OP_CLOSE, (oid, t))]},
                                 advance_to=t)
        closed: bool = results[home][0]
        return closed

    def delete(self, oid: int, x: int, y: int, s: int,
               d: int | None = None) -> bool:
        """Delete one specific entry from the shard owning its cell."""
        self._check_open()
        self._settled()
        sid = self._shard_id_of(x, y)
        results = self._dispatch(
            {sid: [(OP_DELETE,
                    (oid, x, y, s, NONE_ARG if d is None else d))]})
        deleted: bool = results[sid][0]
        if deleted and d is None and self._cur.get(oid) == (sid, x, y, s):
            del self._cur[oid]
        return deleted

    def set_retention(self, oid: int, retention: int | None) -> None:
        """Per-object retention override, applied to every shard."""
        self._check_open()
        self._settled()
        if retention is not None \
                and not 1 <= retention <= self.config.window:
            raise ValueError(
                f"retention must be in [1, W={self.config.window}], "
                f"got {retention}")
        arg = NONE_ARG if retention is None else retention
        self._dispatch({sid: [(OP_RETAIN, (oid, arg))]
                        for sid in range(self.n_shards)})

    def retention_of(self, oid: int) -> int:
        """The object's retention time (defaults to the window size)."""
        self._check_open()
        retention: int = self._transport.request(
            0, "query", ("retention_of", (oid,)))
        return retention

    def forget_object(self, oid: int) -> int:
        """Delete every queriable entry of one object across all shards."""
        self._check_open()
        self._settled()
        results = self._dispatch({sid: [(OP_FORGET, (oid,))]
                                  for sid in range(self.n_shards)})
        self._cur.pop(oid, None)
        deleted: list[int] = [result[0] for result in results.values()]
        return sum(deleted)

    # -- coordinated sliding window --------------------------------------------

    def advance_time(self, now: int) -> None:
        """Advance every shard's clock in lockstep.

        Drop epochs are a pure function of the clock, so advancing all
        shards to the same time makes the wholesale tree drop fire
        consistently across the pool — a query fanning out immediately
        afterwards sees the same window boundary on every shard.
        """
        self._check_open()
        self._settled()
        if now < self._clock:
            raise ValueError(f"clock cannot move backwards "
                             f"({now} < {self._clock})")
        if now == self._clock \
                and all(clock == now for clock in self._shard_clocks):
            return
        self._dispatch({}, advance_to=now)

    # -- queries ---------------------------------------------------------------

    def _plan_for(self, t_lo: int, t_hi: int, window: int | None,
                  stats: QueryStats) -> QueryPlan | None:
        """Resolve one query plan at the engine front end.

        Temporal classification and the plan depend only on (config,
        clock, interval) — shared by every shard in lockstep — so the
        engine derives the plan **once** per temporal signature, caches
        it, and fans out only the per-cell search.  The same immutable
        plan object is shipped to every shard task, including *retried*
        tasks (and, pickled, to worker processes), so retries cannot
        skew the classification work or double-derive state.  Returns
        ``None`` when no s-partition column qualifies.
        """
        entry = self._plans.lookup(t_lo, t_hi, window, self._clock)
        if entry is not None:
            stats.plan_cache_hits += 1
            return entry.plan
        columns = classify_interval(self.config, self._clock, t_lo, t_hi,
                                    window)
        if not columns:
            return None
        plan = build_query_plan(self.config, self._clock, columns, t_lo,
                                t_hi, window)
        self._plans.store(plan, t_lo, t_hi, window)
        return plan

    def _fan_out_query(self, shard_ids: list[int], method: str,
                       args: tuple[Any, ...]
                       ) -> tuple[list[tuple[int, Any]], list[ShardFailure]]:
        """Run one read method on ``shard_ids`` through the transport.

        Returns ``(successes, failures)``: ``(shard_id, result)`` pairs
        in shard order, and one typed :class:`ShardFailure` per shard
        that was skipped (open breaker), exhausted its retries, or was
        abandoned by a fan-out deadline.
        """
        self._settled()
        return self._transport.run(shard_ids, method, args)

    def _raise_shard_failure(self, failures: list[ShardFailure]) -> None:
        """Strict mode: surface the first shard failure as a typed error."""
        failure = failures[0]
        raise ShardQueryError(failure.shard_id, failure.path,
                              failure.error) from failure.error

    def query_timeslice(self, area: Rect, t: int,
                        window: int | None = None, *,
                        strict: bool = True) -> QueryResult:
        """All entries within ``area`` valid at timestamp ``t``."""
        return self.query_interval(area, t, t, window, strict=strict)

    def query_interval(self, area: Rect, t_lo: int, t_hi: int,
                       window: int | None = None, *,
                       strict: bool = True) -> QueryResult:
        """Scatter-gather interval query over the overlapping shards.

        ``strict=True`` (default) raises :class:`ShardQueryError` if any
        shard fails after retries; ``strict=False`` returns a
        :class:`PartialResult` covering the surviving shards, with the
        failures listed and ``stats.degraded`` set.
        """
        self._check_open()
        if t_hi < t_lo:
            raise ValueError(f"empty query interval [{t_lo}, {t_hi}]")
        self.config.queriable_period(self._clock, window)  # validate window
        merged = QueryResult() if strict else PartialResult()
        shard_ids = self._shards_for_area(area)
        if not shard_ids:
            return merged
        plan = self._plan_for(t_lo, t_hi, window, merged.stats)
        if plan is None:
            return merged
        successes, failures = self._fan_out_query(
            shard_ids, "_query_area_planned", (area, plan))
        if failures and strict:
            self._raise_shard_failure(failures)
        for _, result in successes:
            merged.merge(result)
        if failures:
            assert isinstance(merged, PartialResult)
            merged.failures.extend(failures)
            merged.stats.degraded = True
        return merged

    def query_interval_many(self, areas: Iterable[Rect], t_lo: int,
                            t_hi: int, window: int | None = None, *,
                            strict: bool = True) -> MultiQueryResult:
        """Batched multi-rectangle scatter-gather interval query.

        Equivalent to one :meth:`query_interval` per rectangle, but the
        whole batch shares one plan and one fan-out: every overlapping
        shard receives the full rectangle list and evaluates it with
        shared per-cell descents
        (:meth:`SWSTIndex._query_area_planned_many`).

        With ``strict=False`` the per-rectangle results are
        :class:`PartialResult` objects; a failed shard is attributed to
        exactly the rectangles whose area it overlaps (other rectangles
        stay complete).
        """
        self._check_open()
        if t_hi < t_lo:
            raise ValueError(f"empty query interval [{t_lo}, {t_hi}]")
        self.config.queriable_period(self._clock, window)  # validate window
        areas = list(areas)
        results: list[QueryResult] = [
            QueryResult() if strict else PartialResult() for _ in areas]
        batch = MultiQueryResult(results=results)
        if not areas:
            return batch
        rect_shards = [self._shards_for_area(area) for area in areas]
        shard_ids = sorted({sid for sids in rect_shards for sid in sids})
        if not shard_ids:
            return batch
        plan = self._plan_for(t_lo, t_hi, window, batch.stats)
        if plan is None:
            return batch
        successes, failures = self._fan_out_query(
            shard_ids, "_query_area_planned_many", (areas, plan))
        if failures and strict:
            self._raise_shard_failure(failures)
        for _, shard_batch in successes:
            for result, shard_result in zip(results, shard_batch.results,
                                            strict=True):
                result.merge(shard_result)
            batch.stats.merge(shard_batch.stats)
        if failures:
            for idx, sids in enumerate(rect_shards):
                overlapping = [failure for failure in failures
                               if failure.shard_id in sids]
                if not overlapping:
                    continue
                result = results[idx]
                assert isinstance(result, PartialResult)
                result.failures.extend(overlapping)
                result.stats.degraded = True
            batch.stats.degraded = True
        return batch

    def count_interval(self, area: Rect, t_lo: int, t_hi: int,
                       window: int | None = None, *,
                       strict: bool = True) -> tuple[int, QueryStats]:
        """Count qualifying entries without materialising them.

        With ``strict=False`` a failed shard is simply absent from the
        count (``stats.degraded`` is set); callers needing the per-shard
        failure details should use :meth:`query_interval`.
        """
        self._check_open()
        if t_hi < t_lo:
            raise ValueError(f"empty query interval [{t_lo}, {t_hi}]")
        self.config.queriable_period(self._clock, window)  # validate window
        total = 0
        stats = QueryStats()
        shard_ids = self._shards_for_area(area)
        if not shard_ids:
            return total, stats
        plan = self._plan_for(t_lo, t_hi, window, stats)
        if plan is None:
            return total, stats
        successes, failures = self._fan_out_query(
            shard_ids, "_count_area_planned", (area, plan))
        if failures and strict:
            self._raise_shard_failure(failures)
        for _, (count, shard_stats) in successes:
            total += count
            stats.merge(shard_stats)
        if failures:
            stats.degraded = True
        return total, stats

    def query_knn(self, x: int, y: int, k: int, t_lo: int,
                  t_hi: int | None = None,
                  window: int | None = None, *,
                  strict: bool = True) -> QueryResult:
        """K nearest entries: every shard returns its local top-k, the
        engine keeps the global k best (ties by object id and start)."""
        self._check_open()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not self.config.space.contains(x, y):
            raise ValueError(f"query point ({x}, {y}) outside the domain")
        if t_hi is not None and t_hi < t_lo:
            raise ValueError(f"empty query interval [{t_lo}, {t_hi}]")
        self.config.queriable_period(self._clock, window)  # validate window
        merged = QueryResult() if strict else PartialResult()
        candidates: list[tuple[tuple[int, int, int], Entry]] = []
        shard_ids = list(range(self.n_shards))
        successes, failures = self._fan_out_query(
            shard_ids, "query_knn", (x, y, k, t_lo, t_hi, window))
        if failures and strict:
            self._raise_shard_failure(failures)
        for _, result in successes:
            merged.stats.merge(result.stats)
            for entry in result.entries:
                dist2 = (entry.x - x) ** 2 + (entry.y - y) ** 2
                candidates.append(((dist2, entry.oid, entry.s), entry))
        candidates.sort(key=lambda item: item[0])
        merged.entries.extend(entry for _, entry in candidates[:k])
        if failures:
            assert isinstance(merged, PartialResult)
            merged.failures.extend(failures)
            merged.stats.degraded = True
        return merged

    def density_grid(self, area: Rect, t: int,
                     window: int | None = None) -> dict[tuple[int, int],
                                                        int]:
        """Distinct objects per grid cell valid at time ``t``."""
        self._check_open()
        result = self.query_timeslice(area, t, window)
        density: dict[tuple[int, int], set[int]] = {}
        for entry in result:
            cell = self.grid.cell_of(entry.x, entry.y)
            density.setdefault(cell, set()).add(entry.oid)
        counts = {cell: len(oids) for cell, oids in density.items()}
        for cell_overlap in self.grid.overlapping_cells(area):
            counts.setdefault((cell_overlap.cx, cell_overlap.cy), 0)
        return counts

    def object_history(self, oid: int, t_lo: int | None = None,
                       t_hi: int | None = None,
                       window: int | None = None) -> list[Entry]:
        """The object's trajectory within the (logical) window."""
        self._check_open()
        q_lo, q_hi = self.config.queriable_period(self._clock, window)
        t_lo = q_lo if t_lo is None else t_lo
        t_hi = q_hi if t_hi is None else t_hi
        result = self.query_interval(self.config.space, t_lo, t_hi, window)
        return sorted((e for e in result if e.oid == oid),
                      key=lambda e: e.s)

    # -- introspection ---------------------------------------------------------

    def scan(self) -> Iterator[Entry]:
        """Yield every physically stored entry (diagnostics/tests only)."""
        self._check_open()
        for sid in range(self.n_shards):
            yield from self._transport.request(sid, "scan")

    def check_integrity(self) -> None:
        """Per-shard invariants plus the engine's own placement invariants:
        lockstep clocks, every entry in the shard owning its cell, and a
        mirror equal to the shards' current-entry tables."""
        self._check_open()
        self._settled()
        for sid in range(self.n_shards):
            self._transport.request(sid, "query", ("check_integrity", ()))
        states = self._transport.request_all("resync")
        mirror: dict[int, tuple[int, int, int, int]] = {}
        for sid, state in enumerate(states):
            if state["now"] != self._clock:
                raise AssertionError(
                    f"shard {sid} clock {state['now']} != engine clock "
                    f"{self._clock}")
            for oid, (x, y, s) in state["current"].items():
                if oid in mirror:
                    raise AssertionError(
                        f"object {oid} current in shards {mirror[oid][0]} "
                        f"and {sid}")
                mirror[oid] = (sid, x, y, s)
            for entry in self._transport.request(sid, "scan"):
                owner = self._shard_id_of(entry.x, entry.y)
                if owner != sid:
                    raise AssertionError(
                        f"entry {entry} stored in shard {sid}, its cell "
                        f"is owned by shard {owner}")
        if mirror != self._cur:
            stray = sorted(set(mirror.items()) ^ set(self._cur.items()))
            raise AssertionError(
                f"current-entry mirror disagrees with the shards: "
                f"{stray[:5]}")

    # -- persistence -----------------------------------------------------------

    def save(self) -> None:
        """Persist the whole directory as one two-phase epoch commit.

        Protocol (each file step durable: fsync + directory fsync):

        1. **PREPARE** — atomically write ``engine.prepare.json``
           recording the next epoch and the exact header generation each
           shard's pager will reach when its commit lands (derived from
           the storage layer's deterministic commit arithmetic: one
           commit for the sync, plus one if this session's dirty mark is
           still pending).
        2. **COMMIT** — save every shard (catalog write + page flush +
           header sync), in shard order.
        3. **FLIP** — atomically rewrite the manifest with the new epoch
           and the observed generations, then unlink the marker.
        4. **CHECKPOINT** — the transport's post-commit step: a CoW
           snapshot of the clean shard files (in-process shards), or a
           base refresh plus WAL reset to the new epoch (workers).

        A failure before the flip lands is handed to the transport
        (workers are killed and the marker resolved at once, so no
        worker keeps acknowledging into a superseded WAL); a crash
        anywhere leaves a directory that ``open()`` classifies
        deterministically from the marker.

        Memory-backed engines and legacy v1 shard files skip the
        protocol and save each shard directly (no generations to
        record).
        """
        self._check_open()
        self._settled()
        # Lockstep clocks first, so the committed shards agree.
        self.advance_time(self._clock)
        next_epoch = self._epoch + 1
        try:
            infos = [] if self._dir is None \
                else self._transport.request_all("gen_info")
            if any(version != 2 for version, _, _ in infos) or not infos:
                self._transport.request_all("save")
                return
            expected = [generation + (1 if marked else 2)
                        for _, generation, marked in infos]
            self._write_json_atomic(
                self._prepare_path(),
                {"format": _MANIFEST_FORMAT, "epoch": next_epoch,
                 "n_shards": self.n_shards, "expected": expected})
            gens = [self._transport.request(sid, "save")
                    for sid in range(self.n_shards)]
            self._write_json_atomic(
                self._manifest_path(),
                {"format": _MANIFEST_FORMAT, "n_shards": self.n_shards,
                 "epoch": next_epoch, "shards": gens,
                 "generation": self._generation})
            self._fops.unlink(self._prepare_path())
            assert self._dir is not None
            self._fops.fsync_dir(self._dir)
        except BaseException:
            self._transport.save_failed()
            raise
        self._epoch = next_epoch
        self._transport.checkpoint(next_epoch)

    def _recover(self) -> dict[str, Any]:
        """Load the manifest and resolve a leftover save marker."""
        manifest = load_manifest(self._manifest_path())
        if manifest["n_shards"] != self.n_shards:
            raise EngineError(
                f"directory {self._dir!r} holds {manifest['n_shards']} "
                f"shards but config.n_shards is {self.n_shards}")
        self._generation = manifest["generation"]
        # Marker recovery runs for *both* formats: a crashed save from a
        # legacy directory leaves a marker next to a still-format-1
        # manifest (the flip is what upgrades it).
        manifest = self._resolve_marker(manifest)
        self._epoch = manifest["epoch"]
        return manifest

    def _resolve_marker(self, manifest: dict[str, Any]) -> dict[str, Any]:
        """Resolve a leftover PREPARE marker; returns the manifest to use.

        The marker's expected generations are compared against each
        shard's committed header generation — probed passively, without
        opening (opening itself commits a header):

        * marker epoch == manifest epoch: the flip landed, only the
          marker cleanup was lost — finish it.
        * every shard reached its expected generation: the save fully
          committed, only the flip was lost — **roll forward**.
        * otherwise the transport settles it (:meth:`ShardTransport.
          settle_torn`): roll back — restoring the epoch's snapshot
          where one exists — or roll forward over the WALs, or raise
          :class:`EpochTornError`.
        """
        prepare = _load_prepare(self._prepare_path())
        if prepare is None:
            return manifest
        if prepare["n_shards"] != self.n_shards:
            raise EngineError(
                f"save marker in {self._dir!r} records "
                f"{prepare['n_shards']} shards but the manifest holds "
                f"{self.n_shards}")
        epoch: int = manifest["epoch"]
        if prepare["epoch"] != epoch:
            if prepare["epoch"] != epoch + 1:
                raise EngineError(
                    f"save marker epoch {prepare['epoch']} is inconsistent "
                    f"with manifest epoch {epoch} in {self._dir!r} "
                    f"(external tampering?)")
            observed, committed, pending = probe_prepare_state(
                prepare,
                [self.shard_path(sid) for sid in range(self.n_shards)])
            if not pending or self._transport.settle_torn(
                    epoch, committed, pending, prepare["epoch"]):
                manifest = {"format": _MANIFEST_FORMAT,
                            "n_shards": self.n_shards,
                            "epoch": prepare["epoch"],
                            "shards": [gen if gen is not None else 0
                                       for gen in observed],
                            "generation": self._generation}
                self._write_json_atomic(self._manifest_path(), manifest)
        self._fops.unlink(self._prepare_path())
        assert self._dir is not None
        self._fops.fsync_dir(self._dir)
        return manifest

    # -- lifecycle -------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosedError("engine is closed")

    def close(self) -> None:
        """Close every shard through the transport.

        Every resource is closed even if an earlier one fails.  A single
        failure re-raises as itself; several raise an
        :class:`EngineCloseError` aggregate listing all of them (first
        chained as ``__cause__``), so no error is silently dropped.
        """
        if self._closed:
            return
        self._closed = True
        errors = self._transport.close()
        if len(errors) == 1:
            raise errors[0]
        if errors:
            raise EngineCloseError(errors) from errors[0]

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
