#!/usr/bin/env python3
"""The repository benchmark: the paper's query, a sharded join and the
HTTP service, end to end, with a traced per-layer breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload smugglers --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a fixed pass untimed (so lazy state favours neither
side), then the same pass untraced, then again with every layer's entry
points wrapped (see ``tracer.py``), and
reports per-layer calls, busy and self time, the engine's deterministic
counters, and the tracing overhead.  Every run checks the program's
answers against an independent oracle outside the timed loop.

The human-readable report goes to stdout; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
report (machine stamp, sample counts, every metric the workload has)
is written to ``perfbench/out/``.  The exit code is 0 when every check
passed, 1 when one failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("smugglers", "join", "service")

#: ``--trace 0`` metrics: every workload reports each of these.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("query_adj_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Deterministic engine counters (``ExecutionStats`` and ``/stats``).
COUNTS: Tuple[Tuple[str, str], ...] = (
    ("region_ops", "count"),
    ("candidates", "count"),
    ("survivors", "count"),
    ("survivor_ratio", "ratio"),
    ("index_probes", "count"),
    ("node_reads", "count"),
    ("vectorized_candidates", "count"),
    ("partial_tuples", "count"),
    ("delta_probes", "count"),
    ("repacks", "count"),
    ("rebuilds", "count"),
    ("cache_hit_rate", "ratio"),
)


def per_layer_names() -> List[Tuple[str, str]]:
    """``--trace 1`` metrics, in report order."""
    from tracer import LAYERS

    names = []
    for layer in LAYERS:
        names += [
            (f"{layer}.calls", "count"),
            (f"{layer}.busy_ms", "ms"),
            (f"{layer}.self_ms", "ms"),
        ]
    names.append(("service.wire_ms", "ms"))
    names += list(COUNTS)
    names += [("loadgen.late_p99_ms", "ms"), ("trace.overhead_frac", "ratio")]
    return names


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or give up."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: the program source ({os.path.join(SRC, 'repro')}) "
            f"is missing; run from a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, SRC)


# -- one workload --------------------------------------------------------------
def _latency_rows(w: Any, record: Any) -> Tuple[List[tuple], Dict[str, Optional[float]]]:
    """Report rows and values for the end-to-end latencies."""
    from metrics import REF_NOMINAL_MS, median, tail

    rows: List[tuple] = []
    values: Dict[str, Optional[float]] = {}

    def add(name: str, value: Optional[float], samples: List[float], note: str = "") -> None:
        values[name] = value
        rows.append((name, value, "ms", f"n={len(samples)}{note}"))

    def add_tail(name: str, samples: List[float], q: float) -> None:
        value = tail(samples, q)
        note = "" if value is not None else f", fewer than 10 samples beyond p{q:g}"
        add(name, value, samples, note)

    main = record.latencies("run" if w.name == "service" else "query")
    add("query_p50_ms", w.query_p50(record), main)
    ref = record.host.median_ms()
    values["host.ref_ms"] = ref
    rows.append(("host.ref_ms", ref, "ms", f"n={len(record.host.samples)}, median"))
    add("query_adj_ms", w.query_adj(record), main,
        f", at a {REF_NOMINAL_MS:g} ms reference slice")
    if w.name != "service":
        add_tail("query_p90_ms", main, 90)
        return rows, values
    for kind, kinds in (("run", ("run",)), ("nearest", ("nearest",)),
                        ("write", ("insert", "delete"))):
        samples = record.latencies(*kinds)
        add(f"{kind}_p50_ms", median(samples) if samples else None, samples)
        add_tail(f"{kind}_p99_ms", samples, 99)
        if values[f"{kind}_p99_ms"] is None:
            add_tail(f"{kind}_p90_ms", samples, 90)
    add_tail("loadgen.late_p99_ms", [s.late_ms for s in record.samples], 99)
    return rows, values


def run_untraced(w: Any, seconds: float, plant_fault: bool) -> Dict[str, Any]:
    from metrics import median, peak_rss_mb

    w.generate()
    setups = []
    for rep in range(w.setup_reps):
        if rep:
            w.reset()
        start = perf_counter()
        w.setup()
        setups.append(perf_counter() - start)
    record = w.timed(seconds)
    # Set-up and load only: the oracle below may hold more memory.
    rss = peak_rss_mb()
    problems = w.check(plant_fault)
    rows, values = _latency_rows(w, record)
    failed_frac = record.failed / record.attempted if record.attempted else 0.0
    setup_s = median(setups)
    rows += [
        ("failed_frac", failed_frac, "ratio", f"{record.failed}/{record.attempted}"),
        ("peak_rss_mb", rss, "MB", ""),
        ("setup_s", setup_s, "s", f"median of {len(setups)}"),
    ]
    values.update(failed_frac=failed_frac, peak_rss_mb=rss, setup_s=setup_s)
    metrics = {}
    for name, unit in END_TO_END:
        if values.get(name) is None:
            problems.append(f"metric {name} was not measured")
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return {
        "attempted": record.attempted,
        "failed": record.failed,
        "problems": problems,
        "rows": rows,
        "metrics": metrics,
        "detail": {
            "values": values,
            "setups_s": setups,
            "wall_s": record.wall_s,
            "samples": [[s.kind, s.latency_ms, s.ok, s.key, s.ref_ms]
                        for s in record.samples],
        },
    }


def run_traced(w: Any, seconds: float, plant_fault: bool) -> Dict[str, Any]:
    from metrics import percentile
    from tracer import SERVICE_HANDLERS, Tracer

    w.generate()
    tracer = Tracer()
    with tracer, tracer.span("perfbench", "setup"):
        w.setup()
    if w.name == "service":
        w.set_pass_seconds(seconds / 3)
    w.fixed_pass()  # untimed: builds what the first pass would build lazily
    base = w.fixed_pass()
    before = w.server_stats() if w.name == "service" else None
    with tracer, tracer.span("perfbench", "pass"):
        traced = w.fixed_pass()
    if w.name == "service":
        counts = w.counts_between(traced, before, w.server_stats())

        def mean_latency(record: Any) -> float:
            lat = [s.latency_ms for s in record.samples if s.ok]
            return sum(lat) / len(lat) if lat else 0.0

        overhead = mean_latency(traced) / mean_latency(base) - 1.0
        late_p99 = percentile([s.late_ms for s in base.samples], 99)
    else:
        counts = w.counts(traced)
        overhead = traced.wall_s / base.wall_s - 1.0
        late_p99 = 0.0
    problems = w.check(plant_fault) + [f"tracer: {p}" for p in tracer.check()]
    values: Dict[str, float] = {}
    for layer, agg in tracer.layer_totals().items():
        for key, value in agg.items():
            values[f"{layer}.{key}"] = value
    values["service.wire_ms"] = tracer.busy_ms("service.client") - tracer.busy_ms(
        "service.server", tuple(f"QueryService.{h}" for h in SERVICE_HANDLERS)
    )
    values.update(counts)
    values["loadgen.late_p99_ms"] = late_p99
    values["trace.overhead_frac"] = overhead
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()
    }
    rows = [(name, values[name], unit, "") for name, unit in per_layer_names()]
    attribution = _attribution(w.name, tracer)
    return {
        "attempted": base.attempted + traced.attempted,
        "failed": base.failed + traced.failed,
        "problems": problems,
        "rows": rows,
        "metrics": metrics,
        "detail": {
            "untraced_wall_s": base.wall_s,
            "traced_wall_s": traced.wall_s,
            "attribution": attribution,
        },
        "trace": tracer.to_json(),
    }


#: The layer each workload's profile says should lead in self time
#: (within ``/run`` handlers for the service).
EXPECTED_LEADER = {
    "smugglers": ("constraints.solved",),
    "join": ("spatial.table", "spatial.shard", "engine.physical"),
    "service": ("engine.planner",),
}


def _attribution(workload: str, tracer: Any) -> Dict[str, Any]:
    """Compare the largest self times with the profiled attribution."""
    layers = tracer.layer_totals()
    if workload == "service":
        # Self time within the /run handlers only: walk the spans.
        within = _self_within(tracer, "QueryService.run")
        ranked = sorted(within.items(), key=lambda kv: -kv[1])
    else:
        ranked = sorted(
            ((name, agg["self_ms"]) for name, agg in layers.items()),
            key=lambda kv: -kv[1],
        )
    leader = ranked[0][0] if ranked else None
    expected = EXPECTED_LEADER[workload]
    if workload == "join":
        spatial = sum(v for k, v in ranked if k in expected)
        exact = dict(ranked).get("constraints.solved", 0.0)
        confirmed = spatial > exact
        claim = "spatial and physical layers over exact filtering"
    else:
        confirmed = leader in expected
        claim = f"largest self time in {expected[0]}"
    out = {
        "expected": claim,
        "confirmed": confirmed,
        "ranked_self_ms": [[k, round(v, 3)] for k, v in ranked[:6]],
    }
    if workload == "service":
        # Inclusive: plan_order with the exact-filter sampling under it.
        run_ms = tracer.busy_ms("service.server", ("QueryService.run",))
        if run_ms:
            out["planner_busy_share_of_run"] = round(
                tracer.busy_ms("engine.planner") / run_ms, 3
            )
    return out


def _self_within(tracer: Any, root_name: str) -> Dict[str, float]:
    """Per-layer self time over spans under ``root_name`` spans."""
    spans = tracer.spans
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    out: Dict[str, float] = {}

    def visit(span: tuple) -> None:
        kids = children.get(span[0], [])
        own = (span[7] - span[6]) - sum(k[7] - k[6] for k in kids)
        out[span[4]] = out.get(span[4], 0.0) + own / 1e6
        for kid in kids:
            visit(kid)

    for span in spans:
        if span[5] == root_name:
            visit(span)
    return out


def run_one(args: argparse.Namespace) -> int:
    _import_program()
    from metrics import host_reference_ms, report_lines, stamp
    from workloads import OUT_DIR, SPEC, WORKLOADS

    info = stamp(args.seed, args.workload, args.size)
    print("stamp " + json.dumps(info, sort_keys=True))
    w = WORKLOADS[args.workload](args.seed, args.size)
    result: Dict[str, Any]
    try:
        if args.trace:
            result = run_traced(w, args.seconds, args.plant_fault)
        else:
            result = run_untraced(w, args.seconds, args.plant_fault)
    except Exception:
        traceback.print_exc()
        result = {
            "attempted": 1, "failed": 1, "metrics": {}, "rows": [],
            "problems": ["the run raised; see the traceback on stderr"],
            "detail": {},
        }
    finally:
        w.close()
    info["host_ref_ms_end"] = host_reference_ms()
    print(f"{w.name}: {w.describe()}")
    for line in report_lines(result["rows"]):
        print("  " + line)
    attribution = result["detail"].get("attribution")
    if attribution:
        verdict = "confirms" if attribution["confirmed"] else "does NOT confirm"
        print(
            f"  attribution: trace {verdict} the profile "
            f"({attribution['expected']}); largest self times "
            f"{attribution['ranked_self_ms']}"
        )
        if "planner_busy_share_of_run" in attribution:
            print(
                "  engine.planner busy time (incl. the exact filter under it) "
                f"is {attribution['planner_busy_share_of_run']:.0%} of /run"
            )
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    correct = not result["problems"]
    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "stamp": info,
                "workload": SPEC["workloads"][args.workload],
                "correct": correct,
                "problems": result["problems"],
                "report": [list(r) for r in result["rows"]],
                "detail": result["detail"],
            },
            fh,
            indent=1,
        )
    if "trace" in result:
        with open(base + ".trace.json", "w", encoding="utf-8") as fh:
            json.dump({"stamp": info, **result["trace"]}, fh)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (so peak RSS is its own)."""
    _import_program()
    merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        if args.plant_fault:
            cmd.append("--plant-fault")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            last = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = max(status, proc.returncode)
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status if status else (0 if merged["correct"] else 1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes from workloads.json ('tiny' is for the self-test)",
    )
    parser.add_argument(
        "--plant-fault", action="store_true",
        help="drop one answer before checking (the self-test's negative case)",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
