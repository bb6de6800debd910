"""Summary statistics, the machine stamp and process memory."""

from __future__ import annotations

import os
import platform
import resource
import statistics
from time import perf_counter, thread_time
from typing import Dict, List, Optional, Sequence

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not values:
        return None
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return value if beyond >= MIN_BEYOND else None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: The time one :func:`reference_slice` takes at the benchmark's
#: reference host speed (its typical median on a 2-core x86 host).
#: Adjusted latencies are stated at this speed.
REF_NOMINAL_MS = 3.0


def reference_slice() -> None:
    """A fixed piece of pure-Python work (arithmetic, a dict, a sort)
    whose time tracks how fast the host runs this interpreter now."""
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    table = {}
    for i in range(3_000):
        table[i * 7919 % 3001] = i
    sorted(table.items(), key=lambda kv: kv[1])


def reference_ms() -> float:
    """CPU time of one :func:`reference_slice` on the calling thread, in
    ms (CPU time, so waiting for another thread's interpreter lock does
    not count)."""
    start = thread_time()
    reference_slice()
    return (thread_time() - start) * 1e3


class HostSpeed:
    """Reference slices interleaved with the measured load.

    A shared host's speed drifts by tens of percent over minutes, and a
    slice run between operations slows with it (over 10 s windows of a
    3-minute probe on a 2-core x86 host, window medians of a 12 ms query
    and of the slice each spread 22-24% between quartiles, their ratio
    5%).  :meth:`adjust` states a latency at the reference speed
    :data:`REF_NOMINAL_MS`, using the run's median slice time.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        ms = reference_ms()
        self.samples.append(ms)
        return ms

    def fill(self, seconds: float) -> List[float]:
        """Run slices for about ``seconds`` of wall time (at least one);
        returns their times."""
        end = perf_counter() + seconds
        first = len(self.samples)
        self.sample()
        while perf_counter() < end:
            self.sample()
        return self.samples[first:]

    def median_ms(self) -> Optional[float]:
        return statistics.median(self.samples) if self.samples else None

    def adjust(self, ms: Optional[float]) -> Optional[float]:
        ref = self.median_ms()
        if ms is None or ref is None:
            return None
        return ms * REF_NOMINAL_MS / ref


def host_reference_ms(reps: int = 9) -> float:
    """Median time of :func:`reference_slice`: how fast the host runs
    this interpreter right now (compare this figure before comparing
    two runs' raw latencies)."""
    return statistics.median(reference_ms() for _ in range(reps))


def stamp(seed: int, workload: str, size: str) -> Dict[str, object]:
    """Where and on what a result was measured."""
    from repro.spatial.columnar import active_backend

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # the stdlib `array` backend runs without it
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columnar_backend": active_backend(),
        "machine": platform.machine(),
        "host_ref_ms": host_reference_ms(),
    }


def format_value(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.4g}"


def report_lines(rows: List[tuple]) -> List[str]:
    """``name  value unit  note`` lines, aligned."""
    width = max((len(r[0]) for r in rows), default=0)
    out = []
    for name, value, unit, note in rows:
        line = f"{name:<{width}}  {format_value(value):>10} {unit}"
        if note:
            line += f"  ({note})"
        out.append(line)
    return out
