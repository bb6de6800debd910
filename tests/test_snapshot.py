"""Snapshot save/load round-trips (ISSUE 6 satellite coverage).

Every backend must round-trip bit-identically: answer sets, catalog
statistics, and the STR sharding equal to the freshly built table's — and
for the r-tree, the reloaded node structure itself is compared
node-for-node (so node-read counts match too, not just answers).
"""

import json
import os

import pytest

from repro.algebra import Region
from repro.boxes import Box
from repro.database import Database
from repro.engine import compile_query
from repro.engine.executor import answers_as_oid_tuples, execute
from repro.engine.query import SpatialQuery
from repro.errors import SnapshotError
from repro.spatial import SpatialTable
from repro.spatial.snapshot import (
    FORMAT_VERSION,
    read_snapshot,
    table_from_jsonable,
    table_to_jsonable,
    write_snapshot,
)

from repro.datagen import smugglers_query

BACKENDS = ("rtree", "grid", "scan")


def _saved_loaded(tmp_path, index, seed=3):
    query, _map = smugglers_query(index=index, seed=seed)
    for table in query.tables.values():
        table.statistics()
        table.sharding(4)
    path = str(tmp_path / "db.json")
    write_snapshot(path, query.tables, query.bindings)
    tables, bindings = read_snapshot(path)
    return query, tables, bindings, path


@pytest.mark.parametrize("index", BACKENDS)
class TestRoundTrip:
    def test_rows_bit_identical(self, tmp_path, index):
        query, tables, _b, _p = _saved_loaded(tmp_path, index)
        for key, orig in query.tables.items():
            loaded = tables[key]
            assert [o.oid for o in orig] == [o.oid for o in loaded]
            # Exact region representation, not merely set equality.
            assert [o.region.boxes for o in orig] == [
                o.region.boxes for o in loaded
            ]
            assert len(orig) == len(loaded)
            assert loaded.universe == orig.universe
            assert loaded._version == orig._version

    def test_answers_bit_identical(self, tmp_path, index):
        query, tables, bindings, _p = _saved_loaded(tmp_path, index)
        plan = compile_query(query)
        baseline, base_stats = execute(plan, "boxplan")
        reloaded = SpatialQuery(
            system=query.system,
            tables=tables,
            bindings=bindings,
            order=query.order,
        )
        answers, stats = execute(compile_query(reloaded), "boxplan")
        assert answers_as_oid_tuples(answers, plan.order) == (
            answers_as_oid_tuples(baseline, plan.order)
        )
        # Warm-index parity: the reloaded index costs exactly the same
        # probes and node reads as the freshly built one.
        assert stats.to_dict() == base_stats.to_dict()

    def test_statistics_bit_identical(self, tmp_path, index):
        query, tables, _b, _p = _saved_loaded(tmp_path, index)
        for key, orig in query.tables.items():
            # Served from the snapshot's cache — and equal to the
            # original's (TableStatistics compares histograms, MBR,
            # sample rows, and partition summaries).
            assert tables[key].statistics() == orig.statistics()

    def test_partitioning_bit_identical(self, tmp_path, index):
        """The table's one STR tiling (its sharding) round-trips."""
        query, tables, _b, _p = _saved_loaded(tmp_path, index)
        for key, orig in query.tables.items():
            so, sl = orig.sharding(4), tables[key].sharding(4)
            assert so.target == sl.target
            assert [
                (s.sid, s.mbr, s.tags, tuple(o.oid for o in s.rows))
                for s in so.shards
            ] == [
                (s.sid, s.mbr, s.tags, tuple(o.oid for o in s.rows))
                for s in sl.shards
            ]


def test_rtree_node_arrays_identical(tmp_path):
    """The reloaded tree is the same tree, node for node."""
    query, tables, _b, _p = _saved_loaded(tmp_path, "rtree")
    for key, orig in query.tables.items():
        loaded = tables[key]
        orig_rows = {id(o): i for i, o in enumerate(orig)}
        loaded_rows = {id(o): i for i, o in enumerate(loaded)}
        assert orig._rtree.to_node_arrays(
            lambda o: orig_rows[id(o)]
        ) == loaded._rtree.to_node_arrays(lambda o: loaded_rows[id(o)])


def test_loaded_table_accepts_mutation(tmp_path):
    _query, tables, _b, _p = _saved_loaded(tmp_path, "rtree")
    table = tables["T"]
    version = table._version
    obj = table.insert("new-town", Region.from_box(Box((1, 1), (2, 2))))
    assert table._version == version + 1
    q = __import__("repro").BoxQuery(overlap=(Box((0, 0), (3, 3)),))
    assert obj in table.range_query(q)


def test_oid_types_round_trip(tmp_path):
    t = SpatialTable("mixed", 2, index="scan")
    oids = ["a", 7, 2.5, ("pair", 3), None]
    for i, oid in enumerate(oids):
        t.insert(oid, Region.from_box(Box((i, i), (i + 1, i + 1))))
    path = str(tmp_path / "mixed.json")
    write_snapshot(path, {"m": t})
    loaded = read_snapshot(path)[0]["m"]
    assert [o.oid for o in loaded] == oids
    # A tuple oid stays a tuple (hashable), not a JSON list.
    assert loaded.get(("pair", 3)).oid == ("pair", 3)


def test_unserializable_oid_raises():
    t = SpatialTable("bad", 2, index="scan")
    t.insert(frozenset({1}), Region.from_box(Box((0, 0), (1, 1))))
    with pytest.raises(SnapshotError, match="oid"):
        table_to_jsonable(t)


def test_missing_file_raises(tmp_path):
    with pytest.raises(SnapshotError, match="cannot read"):
        read_snapshot(str(tmp_path / "nope.json"))


def test_malformed_json_raises(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"format": "repro-snapsho')
    with pytest.raises(SnapshotError, match="not valid JSON"):
        read_snapshot(str(path))


def test_foreign_file_raises(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(SnapshotError, match="is not a repro-snapshot"):
        read_snapshot(str(path))


def test_future_version_raises(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(
        json.dumps(
            {
                "format": "repro-snapshot",
                "version": FORMAT_VERSION + 1,
                "tables": {},
            }
        )
    )
    with pytest.raises(SnapshotError, match="format version"):
        read_snapshot(str(path))


def test_write_is_atomic_no_tmp_left(tmp_path):
    query, _map = smugglers_query(seed=1)
    path = str(tmp_path / "db.json")
    write_snapshot(path, query.tables, query.bindings)
    write_snapshot(path, query.tables, query.bindings)  # overwrite OK
    assert os.listdir(tmp_path) == ["db.json"]


def test_empty_table_round_trip(tmp_path):
    for index in BACKENDS:
        t = SpatialTable(
            "empty", 2, index=index, universe=Box((0, 0), (10, 10))
        )
        data = table_to_jsonable(t)
        loaded = table_from_jsonable(json.loads(json.dumps(data)))
        assert len(loaded) == 0
        assert loaded.index_kind == index


def test_database_open_matches_save(tmp_path):
    query, _map = smugglers_query(seed=5)
    db = Database(tables=query.tables, bindings=query.bindings)
    path = str(tmp_path / "db.json")
    db.save(path, shards=4)
    reopened = Database.open(path)
    assert set(reopened.tables) == set(db.tables)
    assert set(reopened.bindings) == set(db.bindings)
    # save() pre-warmed statistics and sharding: the reopened tables
    # answer both without recomputation (cache keys match).
    for key, table in reopened.tables.items():
        assert table._stats_version == table._version
        assert table._sharding_key == (table._version, 0, 4)
        assert table.statistics() == db.tables[key].statistics()


def test_saved_sharding_builds_subtables_lazily(tmp_path, monkeypatch):
    """Opening a saved sharding builds no shard sub-table; the first
    ShardScan builds each probed shard's once, and the answers and
    counters are bit-identical to the saved database's."""
    from repro.spatial import shard as shard_mod

    built = []
    real_build = shard_mod._build_subtable

    def counting_build(parent, sid, rows):
        built.append((parent.name, sid))
        return real_build(parent, sid, rows)

    monkeypatch.setattr(shard_mod, "_build_subtable", counting_build)
    query, _map = smugglers_query(seed=5)
    db = Database(tables=query.tables, bindings=query.bindings)
    path = str(tmp_path / "db.json")
    db.save(path, shards=4)
    assert built == []  # saving ships membership, not sub-tables
    reopened = Database.open(path)
    assert built == []  # and loading rebuilds none
    text = str(query.system)
    options = dict(shards=4, join_strategy="shardscan")
    got = reopened.session().run(text, **options)
    assert built  # the first ShardScan built the shards it probed
    first_pass = list(built)
    expected = db.session().run(text, **options)
    assert got.oid_tuples() == expected.oid_tuples(got.order)
    assert got.stats.to_dict() == expected.stats.to_dict()
    before = len(built)
    again = reopened.session().run(text, **options)
    assert len(built) == before  # built once, then reused
    assert again.oid_tuples() == got.oid_tuples()
    assert len(set(first_pass)) == len(first_pass)


def test_snapshot_with_legacy_partitioning_section_opens(tmp_path):
    """Snapshots written before the tiling merge carry a
    ``"partitioning"`` section (ignored, not misparsed) and shard
    membership without MBRs (recomputed to the same boxes)."""
    query, _map = smugglers_query(seed=2)
    path = str(tmp_path / "db.json")
    Database(tables=query.tables, bindings=query.bindings).save(
        path, shards=3
    )
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for data in payload["tables"].values():
        data["partitioning"] = {
            "target": 2,
            "partitions": [{"pid": 0, "mbr": None, "rows": [0]}],
        }
        del data["sharding"]["mbrs"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    reopened = Database.open(path)
    for key, table in reopened.tables.items():
        orig = query.tables[key]
        assert [o.oid for o in table] == [o.oid for o in orig]
        assert [s.mbr for s in table.sharding(3).shards] == [
            s.mbr for s in orig.sharding(3).shards
        ]
