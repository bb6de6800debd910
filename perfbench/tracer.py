"""In-memory span tracer over the engine's layer entry points.

The traced run of the benchmark calls :meth:`Tracer.install`, which
replaces each layer's public entry points (listed in
:data:`ENTRY_POINTS`) with a wrapper that records one span per call, in
the module or class where callers look the entry point up.
:meth:`Tracer.uninstall` puts the originals back.  Nothing in ``src/``
changes.

A span has a layer, an entry-point name, a start and an end
(``perf_counter_ns``), the span that caused it and a trace id shared by
every span of one call tree.  Each thread keeps its own span stack, so
the query service's sender, handler and repack threads form separate
trees.  Per layer the tracer keeps:

* ``calls`` -- spans recorded;
* ``busy`` -- wall time the layer was active on some thread (nested
  spans of the same layer on one thread count once);
* ``self`` -- span time minus the time its child spans cover.

Spans stay in memory (up to :data:`MAX_SPANS`; the aggregates are
exact beyond that) and :meth:`Tracer.to_json` returns everything for one JSON
file at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers the benchmark reports, in pipeline order.
LAYERS: Tuple[str, ...] = (
    "database",
    "constraints.parser",
    "engine.planner",
    "engine.compiler",
    "constraints.triangular",
    "engine.physical",
    "constraints.solved",
    "spatial.table",
    "spatial.shard",
    "spatial.delta",
    "engine.catalog",
    "spatial.snapshot",
    "service.server",
    "service.client",
)

#: Service handlers (``QueryService`` methods) the HTTP layer dispatches to.
SERVICE_HANDLERS: Tuple[str, ...] = (
    "health",
    "stats",
    "run",
    "explain",
    "bench",
    "nearest",
    "insert",
    "delete",
)

#: ``(layer, module, attribute path)``: each entry point is patched in
#: the namespace its callers resolve it from (``Session`` calls
#: ``repro.database.compile_query``, the compiler and the planner each
#: import ``triangular_form``, and so on).
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("database", "repro.database", "Session.run"),
    ("constraints.parser", "repro.database", "parse_system"),
    ("engine.planner", "repro.engine.planner", "plan_order"),
    ("engine.compiler", "repro.database", "compile_query"),
    ("constraints.triangular", "repro.engine.compiler", "triangular_form"),
    ("constraints.triangular", "repro.engine.planner", "triangular_form"),
    ("engine.physical", "repro.engine.physical", "PhysicalPlan.execute_iter"),
    ("constraints.solved", "repro.constraints.solved", "SolvedConstraint.holds"),
    ("spatial.table", "repro.spatial.table", "SpatialTable.range_query"),
    ("spatial.table", "repro.spatial.table", "SpatialTable.range_query_cached"),
    ("spatial.table", "repro.spatial.table", "SpatialTable.count_range"),
    ("spatial.table", "repro.spatial.table", "SpatialTable.nearest"),
    ("spatial.shard", "repro.spatial.table", "SpatialTable.sharding"),
    ("spatial.shard", "repro.spatial.shard", "ShardedTable.prune"),
    ("spatial.shard", "repro.spatial.shard", "ShardedTable.join_pairs"),
    ("spatial.delta", "repro.spatial.table", "SpatialTable.with_staged"),
    ("spatial.delta", "repro.spatial.table", "SpatialTable.stage_insert"),
    ("spatial.delta", "repro.spatial.table", "SpatialTable.stage_delete"),
    ("spatial.delta", "repro.spatial.table", "SpatialTable.repack"),
    ("engine.catalog", "repro.spatial.table", "SpatialTable.statistics"),
    ("spatial.snapshot", "repro.database", "read_snapshot"),
    ("spatial.snapshot", "repro.database", "write_snapshot"),
    *(
        ("service.server", "repro.service.server", f"QueryService.{name}")
        for name in (*SERVICE_HANDLERS, "_repack_worker")
    ),
    ("service.client", "repro.service.client", "ServiceClient._request"),
)

#: Finished spans kept for the JSON file; the aggregates stay exact past it.
MAX_SPANS = 200_000

# Frame slots (a list per open span, mutated in place).
_LAYER, _NAME, _ID, _PARENT, _TRACE, _START, _CHILD, _UP = range(8)


class Tracer:
    """Records spans at the layer boundaries while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        # Per (layer, name): [calls, busy_ns, self_ns].
        self.totals: Dict[Tuple[str, str], List[int]] = {}
        # Per trace id: summed self time and the root span's duration.
        self.trace_self_ns: Dict[int, int] = {}
        self.trace_root_ns: Dict[int, int] = {}
        self.negative_self = 0
        #: Finished spans: (id, parent, trace, thread, layer, name, start, end).
        self.spans: List[Tuple[int, int, int, str, str, str, int, int]] = []
        self.dropped = 0

    # -- span bookkeeping ------------------------------------------------------
    def _thread_state(self) -> Tuple[List[list], Dict[str, int]]:
        local = self._local
        try:
            return local.stack, local.depth
        except AttributeError:
            local.stack, local.depth = [], {}
            return local.stack, local.depth

    def enter(self, layer: str, name: str) -> list:
        """Open a span; pass the returned frame to :meth:`exit`."""
        stack, depth = self._thread_state()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        frame = [
            layer,
            name,
            span_id,
            parent[_ID] if parent else 0,
            parent[_TRACE] if parent else span_id,
            0,
            0,
            parent,
        ]
        depth[layer] = depth.get(layer, 0) + 1
        stack.append(frame)
        frame[_START] = perf_counter_ns()
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter_ns()
        stack, depth = self._thread_state()
        if stack and stack[-1] is frame:
            stack.pop()
        else:
            # A generator span closed out of order: drop it where it sits.
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is frame:
                    del stack[i]
                    break
        layer = frame[_LAYER]
        duration = end - frame[_START]
        own = duration - frame[_CHILD]
        parent = frame[_UP]
        if parent is not None:
            parent[_CHILD] += duration
        depth[layer] -= 1
        outermost = depth[layer] == 0
        key = (layer, frame[_NAME])
        trace = frame[_TRACE]
        with self._lock:
            total = self.totals.get(key)
            if total is None:
                total = self.totals[key] = [0, 0, 0]
            total[0] += 1
            if outermost:
                total[1] += duration
            total[2] += own
            if own < 0:
                self.negative_self += 1
            self.trace_self_ns[trace] = self.trace_self_ns.get(trace, 0) + own
            if parent is None:
                self.trace_root_ns[trace] = duration
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (
                        frame[_ID],
                        frame[_PARENT],
                        trace,
                        threading.current_thread().name,
                        layer,
                        frame[_NAME],
                        frame[_START],
                        end,
                    )
                )
            else:
                self.dropped += 1

    def span(self, layer: str, name: str = "") -> "_Span":
        """``with tracer.span(layer):`` -- a span around a block."""
        return _Span(self, layer, name or layer)

    # -- patching --------------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        enter, exit_ = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):
            # The span opens on the first pull and closes when the
            # generator is exhausted or closed.
            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any) -> Any:
                inner = fn(*args, **kwargs)

                def pull() -> Any:
                    frame = enter(layer, name)
                    try:
                        return (yield from inner)
                    finally:
                        exit_(frame)

                return pull()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return traced

    def install(self) -> "Tracer":
        """Patch every entry point in :data:`ENTRY_POINTS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, path in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, path, original))
        return self

    def uninstall(self) -> None:
        """Restore every patched entry point (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "busy_ms", "self_ms"}}`` for :data:`LAYERS`.

        ``busy_ms`` sums each entry point's outermost spans; two entry
        points of one layer never nest in the benchmark's workloads
        except through an inner call (``range_query_cached`` ->
        ``range_query``, ``with_staged`` -> ``stage_*``), so the layer's
        busy time takes its outermost spans per thread only.
        """
        out = {
            layer: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}
            for layer in LAYERS
        }
        for (layer, _name), (calls, busy, own) in self.totals.items():
            if layer not in out:
                continue
            out[layer]["calls"] += calls
            out[layer]["busy_ms"] += busy / 1e6
            out[layer]["self_ms"] += own / 1e6
        return out

    def busy_ms(self, layer: str, names: Optional[Tuple[str, ...]] = None) -> float:
        """Busy time of ``layer``, optionally of some entry points only."""
        return sum(
            busy
            for (lay, name), (_calls, busy, _own) in self.totals.items()
            if lay == layer and (names is None or name in names)
        ) / 1e6

    def check(self) -> List[str]:
        """Span invariants: self times >= 0, and in every trace the self
        times sum to no more than the root span."""
        problems = []
        if self.negative_self:
            problems.append(f"{self.negative_self} span(s) with negative self time")
        for trace, own in self.trace_self_ns.items():
            root = self.trace_root_ns.get(trace)
            if root is None:
                problems.append(f"trace {trace} has no closed root span")
            elif own > root:
                problems.append(
                    f"trace {trace}: self times {own} ns exceed root {root} ns"
                )
        return problems

    def to_json(self) -> Dict[str, Any]:
        return {
            "layers": self.layer_totals(),
            "entry_points": {
                f"{layer}:{name}": {
                    "calls": calls,
                    "busy_ms": busy / 1e6,
                    "self_ms": own / 1e6,
                }
                for (layer, name), (calls, busy, own) in sorted(self.totals.items())
            },
            "traces": len(self.trace_root_ns),
            "check": self.check(),
            "span_fields": [
                "id", "parent", "trace", "thread", "layer", "name",
                "start_ns", "end_ns",
            ],
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }


class _Span:
    def __init__(self, tracer: Tracer, layer: str, name: str) -> None:
        self._tracer = tracer
        self._layer = layer
        self._name = name
        self._frame: Optional[list] = None

    def __enter__(self) -> "_Span":
        self._frame = self._tracer.enter(self._layer, self._name)
        return self

    def __exit__(self, *exc: Any) -> None:
        assert self._frame is not None
        self._tracer.exit(self._frame)
