"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that a planted wrong answer (one dropped tuple) fails the check,
that span self times are non-negative and sum to no more than their
root span, that the tracer restores every entry point it patched, and
that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("smugglers", "join", "service")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(workload: str, trace: int, *extra: str, seed: int = 3):
    proc = subprocess.run(
        [
            sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    last = json.loads(proc.stdout.splitlines()[-1])
    return proc, last


@pytest.fixture(scope="module")
def runs():
    return {
        (w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_unit(runs, workload, trace):
    proc, last = runs[(workload, trace)]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in last["metrics"].items()
    }
    for value in last["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_dropped_tuple_fails_the_check(workload):
    proc, last = _run(workload, 0, "--plant-fault")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert last["correct"] is False
    assert "CHECK FAILED" in proc.stdout and "1 missing" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_fit_in_their_root(runs, workload):
    runs[(workload, 1)]  # the traced run wrote the trace file
    path = os.path.join(HERE, "out", f"{workload}-seed3-trace1.trace.json")
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["check"] == [] and trace["spans_dropped"] == 0
    spans = trace["spans"]
    covered = {}
    for span_id, parent, _trace, _thread, _layer, _name, start, end in spans:
        assert end >= start
        covered[parent] = covered.get(parent, 0) + (end - start)
    roots, self_sum = {}, {}
    for span_id, parent, trace_id, _thread, _layer, _name, start, end in spans:
        own = (end - start) - covered.get(span_id, 0)
        assert own >= 0
        self_sum[trace_id] = self_sum.get(trace_id, 0) + own
        if parent == 0:
            roots[trace_id] = end - start
    assert roots and set(roots) == set(self_sum)
    for trace_id, total in self_sum.items():
        assert total <= roots[trace_id]
    # Per layer, the reported self times sum to no more than the root
    # spans on the main thread plus every other thread's root spans.
    layer_self_ns = sum(v["self_ms"] for v in trace["layers"].values()) * 1e6
    assert layer_self_ns <= sum(roots.values()) * (1 + 1e-9)


def test_tracer_restores_entry_points():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import importlib

    from tracer import ENTRY_POINTS, Tracer

    def resolve(module, path):
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return vars(owner)[attr]

    before = [resolve(m, p) for _layer, m, p in ENTRY_POINTS]
    tracer = Tracer()
    with tracer:
        assert all(
            resolve(m, p) is not orig
            for (_layer, m, p), orig in zip(ENTRY_POINTS, before)
        )
    assert [resolve(m, p) for _layer, m, p in ENTRY_POINTS] == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
