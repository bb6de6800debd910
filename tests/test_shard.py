"""Sharded scale-out execution: shards, shm, spill, pools, fallbacks.

The layer's contract is *bit-identity under every failure and transport
mode*: the coordinator join must return exactly the serial sweep's
pairs whether shards ship shared-memory segments, inline packed blobs,
or spill their probe buckets to disk, and whether the worker pool is
healthy, freshly recreated after a ``BrokenExecutor``, or so broken the
Exchange falls all the way back to serial.
"""

import random

import pytest

from repro.algebra import Region
from repro.boxes import Box, BoxQuery
from repro.spatial import (
    Exchange,
    ShardColumnBlock,
    ShardJoinStats,
    ShardedTable,
    SpatialTable,
    WorkerPool,
)
from repro.spatial.shard import _ATTACHED, _attach_boxes

UNIVERSE = Box((0.0, 0.0), (100.0, 100.0))


def _random_boxes(n, seed=0, span=92.0, max_side=8.0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lo = (rng.uniform(0, span), rng.uniform(0, span))
        out.append(
            Box(
                lo,
                (
                    lo[0] + rng.uniform(0.5, max_side),
                    lo[1] + rng.uniform(0.5, max_side),
                ),
            )
        )
    return out


def _table(n=120, seed=3, index="rtree"):
    t = SpatialTable("t", 2, index=index, universe=UNIVERSE)
    for i, b in enumerate(_random_boxes(n, seed=seed)):
        t.insert(i, Region.from_box(b))
    return t


def _probes(n=80, seed=11):
    return list(enumerate(_random_boxes(n, seed=seed, max_side=12.0)))


class TestShardedTableBuild:
    def test_rows_covered_exactly_once(self):
        t = _table(150)
        s = t.sharding(8)
        oids = sorted(o.oid for shard in s.shards for o in shard.table)
        assert oids == list(range(150))
        assert s.total_rows == 150

    def test_shards_share_parent_row_objects(self):
        t = _table(60)
        s = t.sharding(4)
        parent = {id(o) for o in t}
        for shard in s.shards:
            for obj in shard.table:
                assert id(obj) in parent  # identical instances, no copies

    def test_tags_are_parent_sequence_positions(self):
        t = _table(90)
        s = t.sharding(5)
        rows = [o for o in t if not o.box.is_empty()]
        for shard in s.shards:
            assert len(shard.tags) == len(shard.table._objects)
            for obj, tag in zip(shard.table, shard.tags):
                assert rows[tag] is obj
                assert s.seq_of(obj) == tag

    def test_mbrs_contain_their_rows(self):
        s = _table(100).sharding(6)
        for shard in s.shards:
            for obj in shard.table:
                assert obj.box.le(shard.mbr)

    def test_pruning_is_sound(self):
        t = _table(200, seed=9)
        s = t.sharding(9)
        rng = random.Random(4)
        for _ in range(30):
            lo = (rng.uniform(0, 90), rng.uniform(0, 90))
            probe = Box(lo, (lo[0] + rng.uniform(1, 15), lo[1] + 5.0))
            query = BoxQuery(overlap=(probe,))
            surviving = {shard.sid for shard in s.prune(query)}
            for shard in s.shards:
                if shard.sid in surviving:
                    continue
                assert not any(
                    query.matches(o.box) for o in shard.table
                )

    def test_cache_invalidated_by_mutation_and_closed(self):
        t = _table(30)
        s1 = t.sharding(4)
        assert t.sharding(4) is s1  # cached
        t.insert(999, Region.from_box(Box((1, 1), (2, 2))))
        s2 = t.sharding(4)
        assert s2 is not s1
        assert s1.closed  # the superseded sharding released its segments
        assert s2.total_rows == 31

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            ShardedTable.build(_table(5), 0)

    def test_from_row_groups_equals_build(self):
        t = _table(80, seed=7)
        built = t.sharding(5)
        groups = [list(shard.table) for shard in built.shards]
        rebuilt = ShardedTable.from_row_groups(t, 5, groups)
        assert len(rebuilt.shards) == len(built.shards)
        for a, b in zip(built.shards, rebuilt.shards):
            assert a.tags == b.tags
            assert a.mbr == b.mbr
            assert [o.oid for o in a.table] == [o.oid for o in b.table]
        probes = _probes()
        assert sorted(rebuilt.join_pairs(probes)) == sorted(
            built.join_pairs(probes)
        )
        rebuilt.close()


class TestSharedMemory:
    def test_publish_attach_roundtrip_bit_identical(self):
        t = _table(40)
        s = t.sharding(3)
        shard = s.shards[0]
        block = s.publish(shard)
        if block is None:
            pytest.skip("shared memory unavailable in this environment")
        try:
            boxes = _attach_boxes(block.name, block.count, s.dim)
            want = [o.box for o in shard.table]
            assert len(boxes) == len(want)
            for got, exp in zip(boxes, want):
                assert got.lo == exp.lo and got.hi == exp.hi
            # Attach is cached per segment name.
            assert _attach_boxes(block.name, block.count, s.dim) is boxes
        finally:
            _ATTACHED.pop(block.name, None)
            s.close()

    def test_publish_is_once_per_sharding(self):
        t = _table(30)
        s = t.sharding(2)
        shard = s.shards[0]
        first = s.publish(shard)
        assert s.publish(shard) is first
        if first is not None:
            assert s.shm_published == 1
            assert s.shm_bytes == first.nbytes
        s.close()
        assert s.closed
        s.close()  # idempotent
        with pytest.raises(RuntimeError):
            s.publish(shard)

    def test_block_close_is_idempotent(self):
        try:
            block = ShardColumnBlock.create(
                [Box((0.0, 0.0), (1.0, 1.0))], 2
            )
        except (ImportError, OSError, PermissionError):
            pytest.skip("shared memory unavailable in this environment")
        block.close()
        block.close()


class TestCoordinatorJoin:
    def _reference(self, sharding, probes):
        query_pairs = []
        rows = [
            (obj, tag)
            for shard in sharding.shards
            for obj, tag in zip(shard.table, shard.tags)
        ]
        for i, box in probes:
            for obj, tag in rows:
                if box.overlaps(obj.box):
                    query_pairs.append((i, tag))
        return sorted(query_pairs)

    def test_matches_bruteforce_every_shard_count(self):
        t = _table(140, seed=5)
        probes = _probes(90, seed=21)
        for n in (1, 2, 4, 8):
            s = t.sharding(n)
            assert sorted(s.join_pairs(probes)) == self._reference(
                s, probes
            )

    def test_spill_path_identical_and_engaged(self):
        t = _table(160, seed=6)
        probes = _probes(120, seed=22)
        s = t.sharding(6)
        plain_stats = ShardJoinStats()
        plain = sorted(s.join_pairs(probes, stats=plain_stats))
        spill_stats = ShardJoinStats()
        spilled = sorted(
            s.join_pairs(probes, stats=spill_stats, spill=16)
        )
        assert spilled == plain
        assert spill_stats.spilled_entries > 0
        assert spill_stats.spill_flushes > 0
        assert spill_stats.pairs == plain_stats.pairs
        assert spill_stats.pair_tests == plain_stats.pair_tests
        assert (
            spill_stats.semi_join_tests == plain_stats.semi_join_tests
        )

    def test_thread_exchange_identical(self):
        t = _table(130, seed=8)
        probes = _probes(100, seed=23)
        s = t.sharding(5)
        serial = sorted(s.join_pairs(probes))
        with WorkerPool(workers=2, kind="thread") as pool:
            exchange = Exchange(workers=2, kind="thread", pool=pool)
            got = sorted(s.join_pairs(probes, exchange=exchange))
        assert got == serial
        assert exchange.fallbacks == 0

    def test_semi_join_never_ships_nonoverlapping_probes(self):
        t = _table(100, seed=13)
        probes = _probes(60, seed=24)
        s = t.sharding(4)
        stats = ShardJoinStats()
        s.join_pairs(probes, stats=stats)
        shipped = sum(
            1
            for _i, box in probes
            for shard in s.shards
            if box.overlaps(shard.mbr)
        )
        assert stats.probes_shipped == shipped
        assert stats.semi_join_tests == len(probes) * len(s.shards)


class _BrokenOnce:
    """A fake executor whose first ``map`` raises ``BrokenExecutor``."""

    def __init__(self):
        self.calls = 0

    def map(self, fn, tasks):
        from concurrent.futures import BrokenExecutor

        self.calls += 1
        raise BrokenExecutor("worker died")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestWorkerPool:
    def test_map_preserves_order(self):
        with WorkerPool(workers=3, kind="thread") as pool:
            assert pool.map(lambda x: x * x, range(10)) == [
                x * x for x in range(10)
            ]

    def test_broken_executor_recreated_once(self):
        pool = WorkerPool(workers=2, kind="thread")
        pool._executor = _BrokenOnce()
        try:
            got = pool.map(lambda x: x + 1, [1, 2, 3])
            assert got == [2, 3, 4]
            assert pool.recreations == 1
        finally:
            pool.close()

    def test_second_break_propagates(self):
        from concurrent.futures import BrokenExecutor

        pool = WorkerPool(workers=2, kind="thread")
        pool._make_executor = _BrokenOnce  # every replacement is broken
        pool._executor = _BrokenOnce()
        try:
            with pytest.raises(BrokenExecutor):
                pool.map(lambda x: x, [1, 2])
            assert pool.recreations == 1
        finally:
            pool.close()

    def test_task_exception_propagates(self):
        def boom(x):
            if x == 2:
                raise ValueError("task failure")
            return x

        with WorkerPool(workers=2, kind="thread") as pool:
            with pytest.raises(ValueError, match="task failure"):
                pool.map(boom, [1, 2, 3])

    def test_closed_pool_rejects_use(self):
        pool = WorkerPool(workers=2, kind="thread")
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.map(lambda x: x, [1])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=2, kind="fiber")


class TestExchangeFallback:
    def test_broken_pool_falls_back_bit_identically(self):
        """A pool whose every executor is broken: the Exchange retries
        once (recreation), gives up, and re-runs serially — with the
        exact pairs the healthy serial coordinator produces."""
        t = _table(110, seed=14)
        probes = _probes(80, seed=25)
        s = t.sharding(4)
        serial = sorted(s.join_pairs(probes))
        pool = WorkerPool(workers=2, kind="thread")
        pool._make_executor = _BrokenOnce
        try:
            exchange = Exchange(workers=2, kind="thread", pool=pool)
            got = sorted(s.join_pairs(probes, exchange=exchange))
        finally:
            pool.close()
        assert got == serial
        assert exchange.fallbacks >= 1
        assert pool.recreations >= 1

    def test_worker_exception_mid_map_propagates_through_run(self):
        def boom(x):
            if x == 1:
                raise ValueError("mid-map failure")
            return x

        with WorkerPool(workers=2, kind="thread") as pool:
            exchange = Exchange(workers=2, kind="thread", pool=pool)
            with pytest.raises(ValueError, match="mid-map failure"):
                exchange.run(boom, [0, 1, 2])
        # A genuine task error is not a fallback.
        assert exchange.fallbacks == 0

    def test_process_payload_form_identical_serially(self):
        """The pickled shm/blob task form, executed in-process by the
        serial fallback, sweeps to the same pairs as the native form."""
        t = _table(90, seed=15)
        probes = _probes(70, seed=26)
        s = t.sharding(3)
        serial = sorted(s.join_pairs(probes))
        pool = WorkerPool(workers=2, kind="process")
        pool._make_executor = _BrokenOnce
        try:
            exchange = Exchange(workers=2, kind="process", pool=pool)
            assert exchange.uses_processes(len(s.shards))
            got = sorted(s.join_pairs(probes, exchange=exchange))
        finally:
            for shard in s.shards:
                block = s._blocks.get(shard.sid)
                if block is not None:
                    _ATTACHED.pop(block.name, None)
            s.close()
            pool.close()
        assert got == serial
        assert exchange.fallbacks >= 1


class TestStrategyValidation:
    """Sharded and unsharded ``join_strategy`` share one validation
    path, and ``PhysicalPlan.join_strategies`` names what runs."""

    def _plan(self):
        from repro.datagen import overlay_query
        from repro.engine import compile_query

        return compile_query(overlay_query(n_left=60, n_right=60, seed=4))

    def _extend_kinds(self, pplan):
        return tuple(ops.extend.kind for ops in pplan.step_ops)

    def test_sequence_length_checked_when_sharded(self):
        plan = self._plan()  # two retrieval steps: x, y
        with pytest.raises(ValueError, match="2 retrieval steps"):
            plan.physical("boxplan", shards=4, join_strategy=["shardjoin"])

    def test_unknown_variable_checked_when_sharded(self):
        plan = self._plan()
        with pytest.raises(ValueError, match="unknown variables"):
            plan.physical("boxplan", shards=4, join_strategy={"zz": "shardjoin"})

    def test_names_checked_in_both_layouts(self):
        plan = self._plan()
        with pytest.raises(ValueError, match="shardscan"):
            plan.physical("boxplan", shards=4, join_strategy="probe")
        with pytest.raises(ValueError, match=r"\('probe',\)"):
            plan.physical("boxplan", join_strategy="pbsm")
        with pytest.raises(ValueError, match="requires sharded"):
            plan.physical("boxplan", join_strategy=["probe", "shardjoin"])

    def test_partial_mapping_labels_the_operators_that_run(self):
        plan = self._plan()
        first, second = plan.order
        pplan = plan.physical(
            "boxplan", shards=4, join_strategy={second: "shardjoin"}
        )
        assert self._extend_kinds(pplan) == ("ShardScan", "ShardedJoin")
        assert pplan.join_strategies == ("shardscan", "shardjoin")
        pplan.run()
        assert f"joins: {first}=shardscan, {second}=shardjoin" in (
            pplan.explain()
        )

    def test_auto_labels_match_operators(self):
        plan = self._plan()
        names = {"ShardScan": "shardscan", "ShardedJoin": "shardjoin"}
        for strategy in (None, "auto", "shardjoin", "shardscan"):
            pplan = plan.physical(
                "boxplan", shards=4, join_strategy=strategy
            )
            assert pplan.join_strategies == tuple(
                names[k] for k in self._extend_kinds(pplan)
            )
        unsharded = plan.physical("boxplan")
        assert unsharded.join_strategies == ("probe", "probe")
        assert self._extend_kinds(unsharded) == ("IndexProbe", "IndexProbe")
