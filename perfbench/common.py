"""Shared plumbing for the benchmark workloads: timing, statistics, output."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

#: Repetitions of the repeatable part of set-up; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Probe timings per block; the block's figure is their median.
PROBE_REPEATS = 3

#: What one :func:`_probe_work` is taken to need on the reference host;
#: reported times are at this speed (see :func:`segment_scale`).
PROBE_REFERENCE_S = 0.01


def _probe_work() -> None:
    """Fixed work in the program's mix: interpreter loops, dicts, tiny NumPy solves."""
    table: Dict[int, List[float]] = {}
    acc = 0.0
    for i in range(18000):
        acc += math.sqrt(i) * 1.0001
        table[i & 127] = [acc, float(i)]
    x = np.linspace(1.0, 2.0, 86)
    design = np.column_stack([np.ones(86), np.log(x), np.log(x[::-1])])
    for _ in range(90):
        np.linalg.lstsq(design, x, rcond=None)


class HostProbe:
    """Times a fixed piece of work right before and after stretches of timed ops.

    The host the figures were taken on runs the same work up to twice as
    slow for stretches of seconds to minutes, with CPU time equal to
    wall time (the process is not descheduled: the CPU itself is slower).
    Each stretch of timed ops is scaled by :func:`segment_scale` of the
    probe blocks around it, so two runs compare the program rather than
    what else the host was doing at the time.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def block(self) -> List[float]:
        """Time the probe :data:`PROBE_REPEATS` times now; returns those times."""
        for _ in range(PROBE_REPEATS):
            began = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - began)
        return self.samples[-PROBE_REPEATS:]

    def scale(self) -> float:
        """One factor for the whole run, for the per-layer times."""
        return PROBE_REFERENCE_S / statistics.median(self.samples)


def segment_scale(before: Sequence[float], after: Sequence[float]) -> float:
    """Factor taking raw seconds between two probe blocks to reference seconds."""
    return PROBE_REFERENCE_S / statistics.median(list(before) + list(after))


#: Every per-layer metric and its unit, in ``BENCHMARK.json`` order.  A
#: traced run prints all of them; a layer the workload never calls reads 0.
PER_LAYER = {
    "profiling.sweep_ms": "ms",
    "profiling.fit_ms": "ms",
    "optimize.ref_ms": "ms",
    "optimize.max_welfare_unfair_ms": "ms",
    "optimize.max_welfare_fair_ms": "ms",
    "optimize.equal_slowdown_ms": "ms",
    "optimize.slsqp_runs": "count",
    "optimize.slsqp_iterations": "count",
    "dynamic.observe_us": "us",
    "dynamic.step_ms": "ms",
    "dynamic.refit_ms": "ms",
    "dynamic.allocate_ms": "ms",
    "dynamic.enforce_ms": "ms",
    "dynamic.step_other_ms": "ms",
    "core.refit_agents": "count",
    "serve.get_allocation_ms": "ms",
    "serve.post_samples_ms": "ms",
    "serve.churn_ms": "ms",
    "serve.metrics_ms": "ms",
    "serve.tick_ms": "ms",
    "serve.ticks": "count",
    "serve.samples_per_tick": "count",
    "serve.snapshot_hit_ratio": "ratio",
    "serve.requests_per_connection": "count",
    "serve.metrics_kb": "KB",
    "serve.server_cpu_us_per_req": "us",
    "serve.client_cpu_us_per_req": "us",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "host.probe_ms": "ms",
}

#: Units of time, reported at the probe's reference speed.
TIME_UNITS = {"s": 1.0, "ms": 1.0, "us": 1.0, "1/s": -1.0}


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 for a layer that was never called."""
    return math.fsum(values) / len(values) if values else 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def pid_cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / float(os.sysconf("SC_CLK_TCK"))


def timed_setup(
    imports_s: float, repeat: Callable[[], object], probe: HostProbe
) -> "tuple[float, object]":
    """``setup_s`` at reference speed, and what the last repetition built.

    Imports happen once, so ``imports_s`` is scaled by the probe block
    taken right after them.  The rest of set-up repeats
    :data:`SETUP_REPEATS` times, each repetition scaled by the probe
    blocks around it; the median counts.  The run uses the last build.
    """
    before = probe.block()
    imports_s *= segment_scale(before, before)
    durations: List[float] = []
    built = None
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        built = repeat()
        elapsed = time.perf_counter() - began
        after = probe.block()
        durations.append(elapsed * segment_scale(before, after))
        before = after
    return imports_s + statistics.median(durations), built


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def end_to_end(
    setup_s: float, peak_rss_mb: float, latencies: Sequence[float], wall_s: float
) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics every workload reports."""
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ops_per_s": metric(len(latencies) / wall_s, "1/s"),
        "p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
    }


def at_reference_speed(
    metrics: Dict[str, Dict[str, object]], scale: float
) -> Dict[str, Dict[str, object]]:
    """Times (and rates) converted to the probe's reference host speed."""
    return {
        name: metric(m["value"] * scale ** TIME_UNITS[m["unit"]], m["unit"])
        if m["unit"] in TIME_UNITS
        else m
        for name, m in metrics.items()
    }


def per_layer(measured: Dict[str, Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """All of :data:`PER_LAYER`, with 0 for layers this workload never called."""
    unknown = set(measured) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    for name, unit in PER_LAYER.items():
        if name in measured and measured[name]["unit"] != unit:
            raise ValueError(f"{name} measured in {measured[name]['unit']}, declared {unit}")
    return {name: measured.get(name, metric(0.0, unit)) for name, unit in PER_LAYER.items()}


def result(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, object]]
) -> Dict[str, object]:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
