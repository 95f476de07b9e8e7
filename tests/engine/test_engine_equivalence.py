"""Equivalence oracle: a ShardedEngine at any shard count — over either
shard transport — returns exactly the results of a plain SWSTIndex fed
the same interleaved workload, and a single-shard engine preserves the
unsharded node-access counts."""

import random
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Rect, SWSTConfig, SWSTIndex
from repro.engine import SerialExecutor, ShardedEngine, WorkerEngine

CFG = SWSTConfig(window=200, slide=20, x_partitions=3, y_partitions=3,
                 d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                 page_size=512)


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


def sorted_entries(result):
    return sorted((entry_key(e) for e in result.entries))


# One workload step: (op, oid, x, y, time gap, duration).
op_strategy = st.tuples(
    st.sampled_from(["report", "insert", "close", "forget", "advance"]),
    st.integers(0, 5),
    st.integers(0, 99),
    st.integers(0, 99),
    st.one_of(st.integers(0, 6), st.integers(150, 500)),
    st.integers(1, 40),
)

query_strategy = st.lists(
    st.tuples(
        st.integers(0, 80), st.integers(0, 80),
        st.integers(1, 60), st.integers(1, 60),
        st.integers(0, 700), st.integers(0, 120),
        st.sampled_from([None, 50, 200]),
    ),
    min_size=1, max_size=15,
)


def apply_workload(target, ops):
    t = 0
    for op, oid, x, y, gap, duration in ops:
        t += gap
        if op == "report":
            target.report(oid, x, y, t)
        elif op == "insert":
            target.insert(oid, x, y, t, duration)
        elif op == "close":
            try:
                target.close_object(oid, t)
            except ValueError:
                # close at/before the object's current start is invalid
                # input; both targets must reject it identically (state
                # divergence would fail the assertions below).
                pass
        elif op == "forget":
            target.forget_object(oid)
        elif op == "advance":
            target.advance_time(t)
    return t


def engine_config(n_shards):
    return SWSTConfig(window=200, slide=20, x_partitions=3,
                      y_partitions=3, d_max=40, duration_interval=10,
                      space=Rect(0, 0, 99, 99), page_size=512,
                      n_shards=n_shards)


def check_equals_plain(engine, ops, queries):
    with SWSTIndex(CFG) as plain:
        t = apply_workload(plain, ops)
        apply_workload(engine, ops)
        assert len(engine) == len(plain)
        assert engine.current_objects() == plain.current_objects()
        engine.check_integrity()
        for x_lo, y_lo, width, height, t_lo, length, window in queries:
            area = Rect(x_lo, y_lo, x_lo + width, y_lo + height)
            t_hi = t_lo + length
            assert sorted_entries(
                engine.query_interval(area, t_lo, t_hi, window)) == \
                sorted_entries(plain.query_interval(area, t_lo, t_hi,
                                                    window))
            assert engine.count_interval(area, t_lo, t_hi, window)[0] == \
                plain.count_interval(area, t_lo, t_hi, window)[0]
        # Ties at the k-th distance may be broken differently by the
        # merge and by the expanding-ring search; distances must agree.
        def knn_distances(result):
            return sorted((e.x - 50) ** 2 + (e.y - 50) ** 2
                          for e in result.entries)

        assert knn_distances(engine.query_knn(50, 50, 3, 0, t)) == \
            knn_distances(plain.query_knn(50, 50, 3, 0, t))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=80),
       queries=query_strategy,
       n_shards=st.sampled_from([1, 2, 4, 7]))
def test_engine_equals_plain_index(ops, queries, n_shards):
    with ShardedEngine(engine_config(n_shards),
                       executor=SerialExecutor()) as engine:
        check_equals_plain(engine, ops, queries)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(ops=st.lists(op_strategy, min_size=1, max_size=80),
       queries=query_strategy,
       n_shards=st.sampled_from([1, 2, 4, 7]))
def test_worker_engine_equals_plain_index(tmp_path, ops, queries,
                                          n_shards):
    """The same property over the worker-process transport."""
    directory = tempfile.mkdtemp(dir=tmp_path)
    with WorkerEngine(engine_config(n_shards), directory) as engine:
        check_equals_plain(engine, ops, queries)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=60),
       n_shards=st.sampled_from([2, 4, 7]))
def test_extend_equals_plain_index(ops, n_shards):
    """Batched ingestion through the engine matches the plain index."""
    config = SWSTConfig(window=200, slide=20, x_partitions=3,
                        y_partitions=3, d_max=40, duration_interval=10,
                        space=Rect(0, 0, 99, 99), page_size=512,
                        n_shards=n_shards)

    class R:
        def __init__(self, oid, x, y, t):
            self.oid, self.x, self.y, self.t = oid, x, y, t

    t = 0
    reports = []
    for _, oid, x, y, gap, _ in ops:
        t += gap
        reports.append(R(oid, x, y, t))
    with SWSTIndex(CFG) as plain, \
            ShardedEngine(config, executor=SerialExecutor()) as engine:
        plain.extend(reports, batch_size=16)
        engine.extend(reports, batch_size=16)
        assert len(engine) == len(plain)
        assert engine.current_objects() == plain.current_objects()
        engine.check_integrity()
        assert sorted_entries(
            engine.query_interval(CFG.space, 0, t + 1)) == \
            sorted_entries(plain.query_interval(CFG.space, 0, t + 1))


class TestSingleShardPreservation:
    """n_shards=1 must keep the exact unsharded cost model (the paper's
    node-access numbers must reproduce through the engine)."""

    def test_node_accesses_identical_on_mixed_workload(self):
        rng = random.Random(42)
        config = SWSTConfig(window=200, slide=20, x_partitions=3,
                            y_partitions=3, d_max=40, duration_interval=10,
                            space=Rect(0, 0, 99, 99), page_size=512,
                            n_shards=1)

        class R:
            def __init__(self, oid, x, y, t):
                self.oid, self.x, self.y, self.t = oid, x, y, t

        t = 0
        reports = []
        for _ in range(600):
            t += rng.choice([0, 0, 1, 1, 2, 9])
            reports.append(R(rng.randrange(20), rng.randrange(100),
                             rng.randrange(100), t))
        with SWSTIndex(CFG) as plain, \
                ShardedEngine(config, executor=SerialExecutor()) as engine:
            plain.extend(reports)
            engine.extend(reports)
            query_times = [(lo := rng.randrange(0, t + 1),
                            lo + rng.randrange(0, 50)) for _ in range(25)]
            for target in (plain, engine):
                for lo, hi in query_times:
                    target.query_interval(Rect(10, 10, 70, 70), lo, hi)
            plain_stats = plain.stats.snapshot()
            engine_stats = engine.stats
            assert vars(plain_stats) == vars(engine_stats)
            assert plain_stats.node_accesses == engine_stats.node_accesses
