"""Sharded scatter-gather engine over independent SWST index shards.

The engine layer scales the single-file SWST index out to a pool of
independent shards: :class:`GridShardMap` assigns every spatial grid cell
to exactly one shard, and one coordinator (:class:`ShardedEngine`)
validates and routes mutations as per-shard op batches, fans queries out
and merges the per-shard results and statistics, and coordinates the
sliding-window drop epoch across the pool.  Persistence is a two-phase
epoch commit (``save()`` is atomic for the whole directory); query
fan-out is resilient (:class:`RetryPolicy`, per-shard
:class:`CircuitBreaker`, degraded :class:`PartialResult` mode).

The shards sit behind a shard transport with two implementations:
in-process shards on an :class:`Executor` (:class:`ShardedEngine`, with
copy-on-write epoch snapshots), or one long-lived worker *process* per
shard fed through a per-shard write-ahead log (:class:`WorkerEngine`),
so acknowledged writes survive worker crashes (the supervisor restarts
the worker and replays the WAL tail).  See ``docs/internals.md``
(engine layer, failure model, warm workers) for the design.
"""

from .engine import PartialResult, ShardedEngine, load_manifest
from .errors import (CircuitOpenError, EngineClosedError, EngineCloseError,
                     EngineError, EpochTornError, ReshardError,
                     ReshardInProgressError, ShardFailure, ShardOpenError,
                     ShardQueryError, TaskTimeoutError, WalCorruptError,
                     WalError, WorkerCrashError, WorkerRecoveryError)
from .executor import (Executor, SerialExecutor, ThreadedExecutor,
                       resolve_executor)
from .reshard import GenerationBuild, ReshardReport, reshard
from .retry import CircuitBreaker, RetryPolicy
from .scrub import DirectoryScrubReport, scrub_directory
from .sharding import GridShardMap
from .wal import (WalReport, WalScan, WalWriter, read_wal, replay,
                  wal_file_name)
from .worker import WorkerEngine, WorkerPool

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "DirectoryScrubReport",
    "EngineCloseError",
    "EngineClosedError",
    "EngineError",
    "EpochTornError",
    "Executor",
    "GenerationBuild",
    "GridShardMap",
    "PartialResult",
    "ReshardError",
    "ReshardInProgressError",
    "ReshardReport",
    "RetryPolicy",
    "SerialExecutor",
    "ShardFailure",
    "ShardOpenError",
    "ShardQueryError",
    "ShardedEngine",
    "TaskTimeoutError",
    "ThreadedExecutor",
    "WalCorruptError",
    "WalError",
    "WalReport",
    "WalScan",
    "WalWriter",
    "WorkerCrashError",
    "WorkerEngine",
    "WorkerPool",
    "WorkerRecoveryError",
    "load_manifest",
    "read_wal",
    "replay",
    "reshard",
    "resolve_executor",
    "scrub_directory",
    "wal_file_name",
]
