"""Regression tests for the lock-discipline fixes flagged by repro-lint.

Shared-state classes with check-then-act races on their lazy
construction paths: ``WorkerPool.executor`` (two threads could each
build an executor, stranding one unclosed), ``Database.worker_pool``
(two sessions could each install a pool for the same shape),
``ShardedTable.publish`` (two readers could both publish a shard's
shared-memory block, leaking whichever loses the dict store) and
``TableShard.table`` (two readers could both build a shard's
sub-table).  Each test hammers the lazy path from many threads through
a barrier and asserts exactly-once construction.
"""

import threading
import time

import pytest

from conftest import make_workload

from repro.database import Database
from repro.spatial.partition import WorkerPool
from repro.spatial.shard import ShardedTable

THREADS = 8


def hammer(fn):
    """Run ``fn`` from THREADS threads released together; return results."""
    barrier = threading.Barrier(THREADS)
    results = [None] * THREADS
    errors = []

    def worker(i):
        barrier.wait()
        try:
            results[i] = fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


def test_worker_pool_lazy_executor_is_created_once():
    pool = WorkerPool(workers=2, kind="thread")
    try:
        executors = hammer(pool.executor)
        assert all(ex is executors[0] for ex in executors)
    finally:
        pool.close()


def test_worker_pool_close_then_executor_raises():
    pool = WorkerPool(workers=2, kind="thread")
    pool.close()
    with pytest.raises(RuntimeError):
        pool.executor()


def test_database_worker_pool_get_or_create_is_atomic():
    db = Database()
    try:
        pools = hammer(lambda: db.worker_pool(2, kind="thread"))
        assert all(p is pools[0] for p in pools)
        assert len(db._pools) == 1
    finally:
        db.close()


def test_database_distinct_shapes_get_distinct_pools():
    db = Database()
    try:
        a = db.worker_pool(2, kind="thread")
        b = db.worker_pool(3, kind="thread")
        assert a is not b
        assert db.worker_pool(2, kind="thread") is a
    finally:
        db.close()


def test_sharded_table_publish_is_exactly_once():
    tables, _bindings = make_workload(7, sizes=(8, 12))
    table = next(iter(tables.values()))
    sharding = ShardedTable.build(table, 2)
    try:
        shard = sharding.shards[0]
        blocks = hammer(lambda: sharding.publish(shard))
        # Every caller sees the same block (possibly None when shared
        # memory is unavailable), and it was constructed exactly once.
        assert all(b is blocks[0] for b in blocks)
        assert sharding.shm_published + sharding.shm_failed == 1
    finally:
        sharding.close()


def test_sharded_table_close_is_idempotent_and_publish_after_raises():
    tables, _bindings = make_workload(9, sizes=(8, 12))
    table = next(iter(tables.values()))
    sharding = ShardedTable.build(table, 2)
    sharding.close()
    sharding.close()
    with pytest.raises(RuntimeError):
        sharding.publish(sharding.shards[0])


def test_shard_subtable_is_built_exactly_once(monkeypatch):
    from repro.spatial import shard as shard_mod

    calls = []
    real_build = shard_mod._build_subtable

    def counting_build(parent, sid, rows):
        calls.append(sid)
        time.sleep(0.01)  # widen the race window for the other threads
        return real_build(parent, sid, rows)

    monkeypatch.setattr(shard_mod, "_build_subtable", counting_build)
    tables, _bindings = make_workload(11, sizes=(8, 12))
    table = next(iter(tables.values()))
    sharding = ShardedTable.build(table, 2)
    try:
        shard = sharding.shards[0]
        assert calls == []  # building the sharding builds no sub-table
        subs = hammer(lambda: shard.table)
        assert all(sub is subs[0] for sub in subs)
        assert calls == [shard.sid]
        assert [o.oid for o in subs[0]] == [o.oid for o in shard.rows]
    finally:
        sharding.close()
