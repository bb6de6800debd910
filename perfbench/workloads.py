"""The benchmark's workloads: generated inputs, set-up, load and checks.

Every workload drives the engine through its public API only
(:class:`repro.Database` / :class:`repro.Session`, the query service's
:class:`~repro.service.QueryService`, ``serve_in_thread`` and
:class:`~repro.service.ServiceClient`).  Inputs come from the seed
alone; sizes come from ``workloads.json``.

A workload object runs in phases, driven by ``run.py``:

``generate``  build the inputs (untimed, excluded from ``setup_s``);
``setup``     build what a user builds before the first query, including
              every structure the planner reads (timed);
``reset``     drop the set-up state so ``setup`` can be timed again;
``timed``     the measured load for a number of seconds;
``fixed_pass`` a fixed amount of the same load (the traced run's unit);
``check``     compare the program's outputs with an independent oracle.

No workload runs untimed queries between set-up and the load: what the
first query still builds lazily is paid inside the timed samples.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from metrics import REF_NOMINAL_MS, HostSpeed
from repro import Database, Region
from repro.boxes import Box
from repro.datagen import make_map
from repro.engine.stats import ExecutionStats
from repro.service import QueryService, ServiceClient, serve_in_thread
from repro.spatial import SpatialTable

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _fh:
    SPEC: Dict[str, Any] = json.load(_fh)

#: The paper's Section 2 query (Figure 1) as constraint text.
SMUGGLERS_TEXT = "\n".join(
    (
        "A <= C",
        "B <= C",
        "R <= A | B | T",
        "R & A != 0",
        "R & T != 0",
        "T !<= C",
    )
)
#: The retrieval order the paper uses; the exact oracle runs in it.
PAPER_ORDER = ("T", "R", "B")
JOIN_TEXT = "x & y != 0"
WINDOW_TEXT = "x & W != 0"

#: Seconds one service request may take before it counts as failed.
REQUEST_TIMEOUT = 30.0
#: A closed loop runs on past its seconds until it has this many
#: samples, so its median never rests on fewer points.
MIN_SAMPLES = 3
#: Share of each closed-loop query's time spent on reference slices
#: right after it (see :class:`metrics.HostSpeed`).
REF_SHARE = 0.1
#: Seconds of reference slices before a closed loop's first query.
REF_LEAD_S = 0.05
#: The open loop runs one reference slice after a reply when at least
#: this much time is left before the next request is due.
REF_SLACK_S = 0.012


@dataclass
class Sample:
    """One operation of the measured load."""

    kind: str
    latency_ms: float
    ok: bool
    late_ms: float = 0.0
    #: Which input the operation ran on (the smugglers map index).
    key: int = 0
    #: Median of the reference slices run right before and right after
    #: it (closed loops).
    ref_ms: Optional[float] = None


@dataclass
class Record:
    """What a load phase observed."""

    samples: List[Sample] = field(default_factory=list)
    stats: List[ExecutionStats] = field(default_factory=list)
    wall_s: float = 0.0
    #: Reference slices interleaved with the timed load.
    host: HostSpeed = field(default_factory=HostSpeed)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def latencies(self, *kinds: str) -> List[float]:
        return [s.latency_ms for s in self.samples if s.ok and s.kind in kinds]


def _boxes(rng: random.Random, n: int, universe: float, side: Sequence[float]):
    """``n`` small boxes uniformly placed in a square universe."""
    lo_side, hi_side = side
    out = []
    for _ in range(n):
        x = rng.uniform(0.0, universe - hi_side)
        y = rng.uniform(0.0, universe - hi_side)
        out.append(
            Box(
                (x, y),
                (x + rng.uniform(lo_side, hi_side), y + rng.uniform(lo_side, hi_side)),
            )
        )
    return out


def compare_answers(label: str, got: Sequence, expected: Sequence) -> List[str]:
    """Problems found comparing two answer lists as multisets."""
    if sorted(map(repr, got)) == sorted(map(repr, expected)):
        return []
    got_set, exp_set = set(got), set(expected)
    return [
        f"{label}: {len(got)} answers vs {len(expected)} expected "
        f"({len(exp_set - got_set)} missing, {len(got_set - exp_set)} extra)"
    ]


_FORKED: Optional[Callable[[int], Any]] = None


def _call_forked(i: int) -> Any:
    assert _FORKED is not None
    return _FORKED(i)


def _map_parallel(fn: Callable[[int], Any], items: Sequence[int]) -> List[Any]:
    """``[fn(i) for i in items]`` on up to ``nproc`` (at most 2) forked
    worker processes, which inherit the parent's state; serially where
    ``fork`` is unavailable.  Used only outside the timed loop."""
    global _FORKED
    workers = min(2, os.cpu_count() or 1, len(items))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(i) for i in items]
    _FORKED = fn
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            return list(pool.map(_call_forked, items))
    finally:
        _FORKED = None


def _query_counts(stats: Sequence[ExecutionStats]) -> Dict[str, float]:
    candidates = sum(s.total_candidates for s in stats)
    survivors = sum(st.survivors for s in stats for st in s.steps)
    hits = sum(s.cache_hits for s in stats)
    misses = sum(s.cache_misses for s in stats)
    return {
        "region_ops": sum(s.region_ops for s in stats),
        "candidates": candidates,
        "survivors": survivors,
        "survivor_ratio": survivors / candidates if candidates else 0.0,
        "index_probes": sum(s.index_probes for s in stats),
        "node_reads": sum(s.node_reads for s in stats),
        "vectorized_candidates": sum(s.vectorized_candidates for s in stats),
        "partial_tuples": sum(s.partial_tuples for s in stats),
        "delta_probes": sum(s.delta_probes for s in stats),
        "repacks": sum(s.repacks for s in stats),
        "rebuilds": 0,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


class Workload:
    """Shared shape of the three workloads (see the module docstring)."""

    name = ""
    #: What one operation is, for reports.
    unit = "query"

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = size
        self.params: Dict[str, Any] = SPEC["workloads"][self.name]["sizes"][size]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.setup_reps: int = self.params["setup_reps"]

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def _query(self, record: Record) -> None:
        raise NotImplementedError

    def timed(self, seconds: float) -> Record:
        """A closed loop, one client: the next query starts when the
        last one returns (after :data:`REF_SHARE` of its time in
        reference slices), until ``seconds`` have elapsed and at least
        :data:`MIN_SAMPLES` queries have run.  Each query's host speed
        is read from the slices on both sides of it: the host drifts
        within a query of a few seconds."""
        record = Record()
        start = perf_counter()
        before = record.host.fill(REF_LEAD_S)
        while perf_counter() - start < seconds or record.attempted < MIN_SAMPLES:
            self._query(record)
            sample = record.samples[-1]
            after = record.host.fill(REF_SHARE * sample.latency_ms / 1e3)
            sample.ref_ms = statistics.median(before + after)
            before = after
        record.wall_s = perf_counter() - start
        return record

    def fixed_pass(self) -> Record:
        raise NotImplementedError

    def counts(self, record: Record) -> Dict[str, float]:
        return _query_counts(record.stats)

    def query_p50(self, record: Record) -> Optional[float]:
        """``query_p50_ms``: the median latency of the workload's query."""
        latencies = record.latencies("query" if self.unit == "query" else "run")
        return statistics.median(latencies) if latencies else None

    def query_adj(self, record: Record) -> Optional[float]:
        """``query_adj_ms`` of a closed loop: each query's latency at the
        reference host speed (x :data:`metrics.REF_NOMINAL_MS` /
        ``Sample.ref_ms``), averaged per input, then over the inputs, so
        every input weighs the same."""
        per_key: Dict[int, List[float]] = {}
        for s in record.samples:
            if s.ok and s.ref_ms:
                per_key.setdefault(s.key, []).append(
                    s.latency_ms * REF_NOMINAL_MS / s.ref_ms
                )
        if not per_key:
            return None
        return statistics.mean(statistics.mean(v) for v in per_key.values())

    def check(self, plant_fault: bool = False) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        self.reset()

    def describe(self) -> str:
        raise NotImplementedError


# -- smugglers -----------------------------------------------------------------
class Smugglers(Workload):
    """The Section 2 query, round-robin over a pool of generated maps."""

    name = "smugglers"

    def generate(self) -> None:
        p = self.params
        lo, hi = p["towns"]
        k = p["maps"]
        sizes = [round(lo + (hi - lo) * i / max(1, k - 1)) for i in range(k)]
        self.maps = [
            make_map(
                seed=self.rng.randrange(2**31),
                n_towns=n,
                n_roads=n,
                states_grid=tuple(p["states"]),
            )
            for n in sizes
        ]
        self.sizes = sizes
        self.sessions: List[Any] = []
        self.dbs: List[Database] = []
        self.last: Dict[int, Any] = {}
        self._next = 0

    def setup(self) -> None:
        self.dbs = []
        for world in self.maps:
            db = Database(
                tables=world.tables(),
                bindings={"C": world.country, "A": world.area},
            )
            for table in db.tables.values():
                table.statistics()
            self.dbs.append(db)
        self.sessions = [db.session() for db in self.dbs]

    def reset(self) -> None:
        for db in self.dbs:
            db.close()
        self.dbs, self.sessions = [], []

    def _query(self, record: Record) -> None:
        i = self._next % len(self.sessions)
        self._next += 1
        start = perf_counter()
        try:
            result = self.sessions[i].run(SMUGGLERS_TEXT)
        except Exception:  # a failed query counts against failed_frac
            record.samples.append(
                Sample("query", (perf_counter() - start) * 1e3, False, key=i)
            )
            return
        record.samples.append(
            Sample("query", (perf_counter() - start) * 1e3, True, key=i)
        )
        record.stats.append(result.stats)
        self.last[i] = result

    def query_p50(self, record: Record) -> Optional[float]:
        """The median over the pool of each map's median latency: every
        map weighs the same however many passes the loop finished."""
        per_map: Dict[int, List[float]] = {}
        for sample in record.samples:
            if sample.ok:
                per_map.setdefault(sample.key, []).append(sample.latency_ms)
        if not per_map:
            return None
        return statistics.median(statistics.median(v) for v in per_map.values())

    def fixed_pass(self) -> Record:
        """One query on each of the pool's first ``trace_maps`` maps."""
        record = Record()
        self._next = 0
        start = perf_counter()
        for _ in range(min(len(self.sessions), self.params["trace_maps"])):
            self._query(record)
        record.wall_s = perf_counter() - start
        return record

    def _exact(self, i: int) -> List[tuple]:
        """The oracle: the exact executor (no box layer), paper order."""
        result = self.sessions[i].run(
            SMUGGLERS_TEXT, mode="exact", order=PAPER_ORDER
        )
        return result.oid_tuples(self.last[i].order)

    def check(self, plant_fault: bool = False) -> List[str]:
        for i, session in enumerate(self.sessions):
            if i not in self.last:  # not reached by the load: run it now
                self.last[i] = session.run(SMUGGLERS_TEXT)
        expected = _map_parallel(self._exact, range(len(self.sessions)))
        problems = []
        for i, exact in enumerate(expected):
            tuples = self.last[i].oid_tuples(self.last[i].order)
            if plant_fault and tuples:
                tuples, plant_fault = tuples[1:], False  # drop one, once
            problems += compare_answers(
                f"map {i} ({self.sizes[i]} towns)", tuples, exact
            )
        return problems

    def describe(self) -> str:
        return (
            f"{len(self.maps)} maps, {self.sizes[0]}-{self.sizes[-1]} towns "
            f"and roads, 3x3 states; closed loop, 1 client"
        )


# -- join ----------------------------------------------------------------------
class Join(Workload):
    """The selective overlay join over two tables of small boxes."""

    name = "join"

    def generate(self) -> None:
        p = self.params
        n, universe, side = p["rows"], p["universe"], p["side"]
        self.universe = Box((0.0, 0.0), (universe, universe))
        self.rows = {
            var: [
                (i, Region.from_box(box))
                for i, box in enumerate(_boxes(self.rng, n, universe, side))
            ]
            for var in ("x", "y")
        }
        self.db: Optional[Database] = None
        self.last = None

    def setup(self) -> None:
        shards = self.params["shards"]
        db = Database()
        for var, rows in self.rows.items():
            table = SpatialTable(var, 2, index="rtree", universe=self.universe)
            table.bulk_insert(rows)
            table.statistics()
            # The planner's shard costing reads per-partition statistics
            # and per-shard statistics; without these the first query
            # builds them (about 1 s at 20 000 rows on a 2-core x86 host).
            table.statistics(partitions=shards)
            for shard in table.sharding(shards).shards:
                shard.statistics()
            db.attach(table, var)
        self.db = db
        self.session = db.session()

    def reset(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def _query(self, record: Record) -> None:
        start = perf_counter()
        try:
            result = self.session.run(JOIN_TEXT, shards=self.params["shards"])
        except Exception:
            record.samples.append(Sample("query", (perf_counter() - start) * 1e3, False))
            return
        record.samples.append(Sample("query", (perf_counter() - start) * 1e3, True))
        record.stats.append(result.stats)
        self.last = result

    def fixed_pass(self) -> Record:
        """One query."""
        record = Record()
        start = perf_counter()
        self._query(record)
        record.wall_s = perf_counter() - start
        return record

    def check(self, plant_fault: bool = False) -> List[str]:
        got = self.last
        if got is None:
            got = self.session.run(JOIN_TEXT, shards=self.params["shards"])
        tuples = got.oid_tuples(got.order)
        if plant_fault:
            tuples = tuples[1:]
        # The oracle: an unsharded, serial, per-tuple probe plan.
        expected = self.session.run(JOIN_TEXT, join_strategy="probe")
        return compare_answers("sharded join", tuples, expected.oid_tuples(got.order))

    def describe(self) -> str:
        p = self.params
        return (
            f"2 x {p['rows']} rows, sides {p['side'][0]:g}-{p['side'][1]:g} in a "
            f"{p['universe']:g}^2 universe, shards={p['shards']}; closed loop, 1 client"
        )


# -- service -------------------------------------------------------------------
@dataclass
class Op:
    kind: str  # run | nearest | insert | delete
    arg: Any


#: Request kinds per block of 8: 3 reads, 2 kNN, 2 inserts, 1 delete.
OP_BLOCK = ("run", "run", "run", "nearest", "nearest", "insert", "insert", "delete")


class Service(Workload):
    """The HTTP service over a snapshot-loaded table, open loop."""

    name = "service"
    unit = "request"

    def generate(self) -> None:
        p = self.params
        n, universe, side = p["rows"], p["universe"], p["side"]
        self.universe_side = universe
        boxes = _boxes(self.rng, n, universe, side)
        self.rows: Dict[Any, Region] = {
            i: Region.from_box(box) for i, box in enumerate(boxes)
        }
        w = p["window"]
        self.windows = [
            (
                self.rng.uniform(0.0, universe - w),
                self.rng.uniform(0.0, universe - w),
            )
            for _ in range(p["window_pool"])
        ]
        # Build and snapshot the table: the served database is opened
        # from this file in setup.
        os.makedirs(OUT_DIR, exist_ok=True)
        self.snapshot = os.path.join(
            OUT_DIR, f"service-seed{self.seed}-pid{os.getpid()}.snapshot.json"
        )
        table = SpatialTable(
            "x", 2, index="rtree", universe=Box((0.0, 0.0), (universe, universe))
        )
        table.bulk_insert(list(self.rows.items()))
        Database(tables={"x": table}).save(self.snapshot)
        self.deletable = list(self.rows)
        self.rng.shuffle(self.deletable)
        self._next_oid = n
        self.shadow = dict(self.rows)
        self.handle = None
        self.service: Optional[QueryService] = None

    # -- inputs ------------------------------------------------------------------
    def _window_box(self, origin: Tuple[float, float]) -> list:
        w = self.params["window"]
        x, y = origin
        return [[x, y], [x + w, y + w]]

    def make_ops(self, count: int, rng: random.Random) -> List[Op]:
        """``count`` requests drawn from ``rng``; inserted oids are fresh
        and deleted ones not yet deleted, so two lists drawn from the
        same ``rng`` state differ only in those."""
        universe, side = self.universe_side, self.params["side"]
        pool = len(self.windows)
        ops: List[Op] = []
        for i in range(count):
            kind = OP_BLOCK[i % len(OP_BLOCK)]
            if kind == "run":
                # Skewed toward the head of the pool, so some windows
                # repeat (the head window draws 1/16 of the reads); the
                # pool is wide so no single window's cost sets the median.
                ops.append(Op(kind, self.windows[int(pool * rng.random() ** 2)]))
            elif kind == "nearest":
                ops.append(
                    Op(kind, (rng.uniform(0.0, universe), rng.uniform(0.0, universe)))
                )
            elif kind == "insert":
                (box,) = _boxes(rng, 1, universe, side)
                ops.append(Op(kind, (self._next_oid, box)))
                self._next_oid += 1
            else:
                ops.append(Op(kind, self.deletable.pop()))
        return ops

    # -- set-up ------------------------------------------------------------------
    def setup(self) -> None:
        db = Database.open(self.snapshot)
        self.service = QueryService(db)
        self.handle = serve_in_thread(self.service)
        self.address = self.handle.address

    def reset(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
        if self.service is not None:
            self.service.drain_repacks()
            self.service.store.current()[0].close()
            self.service = None

    def close(self) -> None:
        self.reset()
        if os.path.exists(self.snapshot):
            os.remove(self.snapshot)

    def client(self) -> ServiceClient:
        host, port = self.address
        return ServiceClient(host, port, timeout=REQUEST_TIMEOUT)

    # -- load --------------------------------------------------------------------
    def _send(self, client: ServiceClient, op: Op) -> dict:
        if op.kind == "run":
            return client.run(WINDOW_TEXT, bindings={"W": [self._window_box(op.arg)]})
        if op.kind == "nearest":
            return client.nearest("x", k=self.params["k"], point=list(op.arg))
        if op.kind == "insert":
            oid, box = op.arg
            return client.insert(
                "x", [{"oid": oid, "boxes": [[list(box.lo), list(box.hi)]]}]
            )
        return client.delete("x", [op.arg])

    def _apply_to_shadow(self, op: Op) -> None:
        if op.kind == "insert":
            oid, box = op.arg
            self.shadow[oid] = Region.from_box(box)
        elif op.kind == "delete":
            self.shadow.pop(op.arg, None)

    def drive(self, ops: List[Op], calibrate: bool = False) -> Record:
        """Send ``ops`` on a fixed schedule from one client.

        Latency runs from each request's due time, so a stall also
        charges the wait it imposes on the requests behind it.  With
        ``calibrate``, one reference slice runs after a reply when the
        next request is due at least :data:`REF_SLACK_S` later.
        """
        rate = self.params["rate"]
        client = self.client()
        start = perf_counter() + 0.005
        record = Record()
        for i, op in enumerate(ops):
            due = start + i / rate
            delay = due - perf_counter()
            if delay > 0:
                sleep(delay)
            sent = perf_counter()
            try:
                reply: Optional[dict] = self._send(client, op)
                ok = True
            except Exception:  # non-200, timeout or connection error
                reply, ok = None, False
            done = perf_counter()
            record.samples.append(
                Sample(op.kind, (done - due) * 1e3, ok, (sent - due) * 1e3)
            )
            if ok:
                self._apply_to_shadow(op)
                if op.kind == "run" and reply is not None:
                    record.stats.append(ExecutionStats.from_dict(reply["stats"]))
            if calibrate and start + (i + 1) / rate - perf_counter() > REF_SLACK_S:
                record.host.sample()
        record.wall_s = perf_counter() - start
        return record

    def timed(self, seconds: float) -> Record:
        count = max(1, int(self.params["rate"] * seconds))
        return self.drive(self.make_ops(count, self.rng), calibrate=True)

    def query_adj(self, record: Record) -> Optional[float]:
        """``query_adj_ms`` of the open loop: the median ``/run`` latency
        at the reference host speed, scaled by the run's median slice
        (one slice a request is too few to scale each request alone)."""
        return record.host.adjust(self.query_p50(record))

    def fixed_pass(self) -> Record:
        """The same schedule each call: reads, kNN anchors and inserted
        boxes come from one fixed seed (inserted oids and deleted rows
        are fresh each time)."""
        rng = random.Random(f"pass:{self.seed}")
        return self.drive(self.make_ops(self._pass_ops, rng))

    def set_pass_seconds(self, seconds: float) -> None:
        self._pass_ops = max(len(OP_BLOCK), int(self.params["rate"] * seconds))

    def server_stats(self) -> dict:
        return self.client().stats()

    def counts_between(self, record: Record, before: dict, after: dict) -> Dict[str, float]:
        out = _query_counts(record.stats)
        out["repacks"] = after["repacks"] - before["repacks"]
        out["rebuilds"] = after["rebuilds"] - before["rebuilds"]
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        out["cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    # -- check -------------------------------------------------------------------
    def check(self, plant_fault: bool = False) -> List[str]:
        assert self.service is not None
        self.service.drain_repacks()
        client = self.client()
        shadow = SpatialTable(
            "shadow",
            2,
            index="scan",
            universe=Box((0.0, 0.0), (self.universe_side, self.universe_side)),
        )
        shadow.bulk_insert(list(self.shadow.items()))
        problems: List[str] = []
        rng = random.Random(f"check:{self.seed}")
        for origin in self.windows[: self.params["check_windows"]]:
            box = self._window_box(origin)
            reply = client.run(WINDOW_TEXT, bindings={"W": [box]})
            got = [a["x"] for a in reply["answers"]]
            if plant_fault and got:
                got, plant_fault = got[1:], False  # drop one, once
            window = Box(tuple(box[0]), tuple(box[1]))
            expected = [
                oid
                for oid, region in self.shadow.items()
                if any(b.overlaps(window) for b in region.boxes)
            ]
            problems += compare_answers(f"window {origin}", got, expected)
        k = self.params["k"]
        for _ in range(self.params["check_anchors"]):
            point = (
                rng.uniform(0.0, self.universe_side),
                rng.uniform(0.0, self.universe_side),
            )
            reply = client.nearest("x", k=k, point=list(point))
            got = [(r["distance"], r["oid"]) for r in reply["results"]]
            expected = [(d, obj.oid) for d, obj in shadow.nearest_bruteforce(point, k)]
            problems += _compare_knn(f"kNN at {point}", got, expected)
        return problems

    def describe(self) -> str:
        p = self.params
        return (
            f"{p['rows']} rows from a snapshot; open loop at {p['rate']:g} req/s "
            f"from 1 client; per 8 requests 3 /run "
            f"({p['window']:g}x{p['window']:g} W), 2 /nearest k={p['k']}, "
            f"2 /insert, 1 /delete"
        )


def _compare_knn(label: str, got: List[tuple], expected: List[tuple]) -> List[str]:
    """Distances must match exactly; oids must match below the k-th
    distance (rows tied at the k-th distance may be cut either way)."""
    if [d for d, _ in got] != [d for d, _ in expected]:
        return [f"{label}: distances {got} vs {expected}"]
    if not expected:
        return []
    kth = expected[-1][0]
    if {o for d, o in got if d < kth} != {o for d, o in expected if d < kth}:
        return [f"{label}: rows {got} vs {expected}"]
    return []


WORKLOADS = {cls.name: cls for cls in (Smugglers, Join, Service)}
