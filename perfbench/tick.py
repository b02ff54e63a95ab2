"""Workload ``tick``: serve-shaped epochs of a 64-agent REF ``DynamicAllocator``.

An op is one epoch: every agent's samples go in through
``observe_sample``, then ``step(epoch, measure=False)`` runs.  Samples
come from seeded ground-truth Cobb-Douglas agents, taken at bundles
jittered around each agent's true Eq. 13 share; a few agents have a
near-zero elasticity in one resource, so the floor projection binds
every epoch.  Timed epochs start once every agent has a fit and a full
sample history.
"""

from __future__ import annotations

import math
import random
import sys
import time
from typing import Dict, List

import common
import reference as ref

AGENTS = 64
#: Per-agent capacity: the ``repro serve`` default (6.4 GB/s, 1 MB).
CAPACITIES = (6.4 * AGENTS, 1024.0 * AGENTS)
#: ``DynamicAllocator`` floors (MIN_BANDWIDTH_GBPS, MIN_CACHE_KB).
FLOORS = (0.4, 64.0)
#: Agents whose true elasticity for one resource is near zero (the first
#: two ignore cache, the next two bandwidth) and high for the other.
FLOOR_BINDING = 4
NEAR_ZERO = 1e-3
DOMINANT = 0.7
SAMPLES_PER_AGENT = 2
JITTER_SIGMA = 0.5  # log-space spread of sampled bundles
NOISE_SIGMA = 0.01  # log-space measurement noise
#: Warm-up epochs: enough for every profiler's decayed history to fill.
WARM_EPOCHS = 50
#: Timed epochs per second of ``--seconds``.
EPOCHS_PER_SECOND = 40
#: Epochs between host probes (see ``common.HostProbe``).
PROBE_EVERY = 10
#: ``DynamicAllocator.tracer`` spans inside ``step`` and their layer metrics.
SPAN_LAYER = {
    "batch_refit": "dynamic.refit_ms",
    "allocate": "dynamic.allocate_ms",
    "enforce": "dynamic.enforce_ms",
}
#: End-of-run tolerance on |reported - true| rescaled elasticity.  Fit
#: noise leaves errors of about 0.02; the naive report (0.5, 0.5) is off by
#: 0.2 or more for most agents.
ELASTICITY_TOL = 0.1


class Agents:
    """Ground truth and the seeded sample stream, generated per epoch."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.names = [f"agent{i:02d}" for i in range(AGENTS)]
        self.alpha: List[List[float]] = []
        self.scale: List[float] = []
        for i in range(AGENTS):
            a = [self.rng.uniform(0.15, 0.7), self.rng.uniform(0.15, 0.7)]
            if i < FLOOR_BINDING:
                a = [DOMINANT, NEAR_ZERO] if i < FLOOR_BINDING // 2 else [NEAR_ZERO, DOMINANT]
            self.alpha.append(a)
            self.scale.append(self.rng.uniform(0.5, 2.0))
        self.centre = ref.ref_shares(self.alpha, CAPACITIES)

    def epoch(self):
        """``(agent, bundle, ipc)`` triples of one epoch, agents in order."""
        gauss = self.rng.gauss
        out = []
        for name, a, s, (b0, c0) in zip(self.names, self.alpha, self.scale, self.centre):
            for _ in range(SAMPLES_PER_AGENT):
                b = b0 * math.exp(gauss(0.0, JITTER_SIGMA))
                c = c0 * math.exp(gauss(0.0, JITTER_SIGMA))
                ipc = s * b ** a[0] * c ** a[1] * math.exp(gauss(0.0, NOISE_SIGMA))
                out.append((name, (b, c), ipc))
        return out


def check_epoch(record) -> List[str]:
    """Eq. 13 before the floors, feasibility after them."""
    problems = []
    names = list(record.agents)
    reported = [record.reported_alpha[name].tolist() for name in names]
    raw = record.allocation.shares.tolist()
    for got, want in zip(raw, ref.ref_shares(reported, CAPACITIES)):
        if any(abs(g - w) > 1e-9 * c for g, w, c in zip(got, want, CAPACITIES)):
            problems.append(f"pre-floor share {got} != Eq. 13 {want}")
            break
    enforced = record.enforced.shares.tolist()
    for r, (floor, capacity) in enumerate(zip(FLOORS, CAPACITIES)):
        column = [bundle[r] for bundle in enforced]
        if min(column) < floor * (1 - 1e-9):
            problems.append(f"resource {r}: share {min(column)} below floor {floor}")
        if abs(math.fsum(column) - capacity) > 1e-9 * capacity:
            problems.append(f"resource {r}: column sums to {math.fsum(column)}")
    return problems


def _floor_bound(record) -> bool:
    """Whether some agent's Eq. 13 share fell below a floor this epoch."""
    return any(
        share < floor
        for bundle in record.allocation.shares.tolist()
        for share, floor in zip(bundle, FLOORS)
    )


def run(seed: int, seconds: float, trace: bool, started: float, probe) -> Dict[str, object]:
    from repro.dynamic import DynamicAllocator
    from repro.workloads import get_workload

    imports_s = time.perf_counter() - started
    # The allocator needs a workload per agent; with measure=False it is
    # never simulated, so one benchmark stands in for all of them.
    placeholder = get_workload("freqmine")

    def set_up():
        agents = Agents(seed)
        allocator = DynamicAllocator(
            {name: placeholder for name in agents.names}, capacities=CAPACITIES
        )
        for epoch in range(WARM_EPOCHS):
            for name, bundle, ipc in agents.epoch():
                allocator.observe_sample(name, bundle, ipc)
            record = allocator.step(epoch, measure=False)
        if not all(math.isfinite(c) for c in record.fit_condition.values()):
            raise RuntimeError("warm-up ended with an unfitted agent")
        return agents, allocator

    setup_s, (agents, allocator) = common.timed_setup(imports_s, set_up, probe)
    epochs = max(2, int(seconds * EPOCHS_PER_SECOND))
    untraced_epochs = epochs // 2 if trace else epochs
    next_epoch = WARM_EPOCHS

    def measure(count: int, traced: bool):
        nonlocal next_epoch
        clock = time.perf_counter
        latencies, failures, unbound = [], 0, 0
        segment: List[float] = []
        before = probe.block()
        busy = dict.fromkeys(("op", "observe", "step", *SPAN_LAYER.values()), 0.0)
        refit_agents: List[int] = []
        for index in range(count):
            samples = agents.epoch()
            epoch, next_epoch = next_epoch, next_epoch + 1
            began = clock()
            accepted = 0
            for name, bundle, ipc in samples:
                accepted += allocator.observe_sample(name, bundle, ipc)
            observed = clock()
            record = allocator.step(epoch, measure=False)
            ended = clock()
            segment.append(ended - began)
            busy["op"] += ended - began
            if len(segment) == PROBE_EVERY or index == count - 1:
                after = probe.block()
                scale = common.segment_scale(before, after)
                latencies.extend(latency * scale for latency in segment)
                segment, before = [], after
            if traced:
                busy["observe"] += observed - began
                busy["step"] += ended - observed
                for child in allocator.tracer.roots[-1].children:
                    if child.name in SPAN_LAYER:
                        busy[SPAN_LAYER[child.name]] += child.duration
                    if child.name == "batch_refit":
                        refit_agents.append(child.meta["agents"])
            problems = check_epoch(record)
            unbound += not _floor_bound(record)
            if accepted != len(samples):
                problems.append(f"{len(samples) - accepted} samples rejected")
            if problems:
                failures += 1
                print(f"tick: epoch {epoch} failed: {problems[:3]}", file=sys.stderr)
        if unbound:
            print(f"tick: no floor bound in {unbound} epochs", file=sys.stderr)
        return latencies, failures, math.fsum(latencies), record, busy, refit_agents

    latencies, failures, wall, last, _, _ = measure(untraced_epochs, False)
    attempted = len(latencies)
    if trace:
        traced, traced_failures, traced_wall, last, busy, refit_agents = measure(
            epochs - untraced_epochs, True
        )
        attempted += len(traced)
        failures += traced_failures

    # End of run: the fits have learned the ground truth.
    truth = ref.rescale(agents.alpha)
    reported = [last.reported_alpha[name].tolist() for name in agents.names]
    error = max(abs(r - t) for rr, tt in zip(reported, truth) for r, t in zip(rr, tt))
    correct = error <= ELASTICITY_TOL
    if not correct:
        print(f"tick: reported elasticities off by {error}", file=sys.stderr)

    if not trace:
        metrics = common.end_to_end(setup_s, common.self_peak_rss_mb(), latencies, wall)
        return common.result(correct, attempted, failures, metrics)

    steps = len(traced)
    spanned = math.fsum(busy[name] for name in SPAN_LAYER.values())
    metrics = {
        "dynamic.observe_us": common.metric(
            busy["observe"] / (steps * AGENTS * SAMPLES_PER_AGENT) * 1e6, "us"
        ),
        "dynamic.step_ms": common.metric(busy["step"] / steps * 1e3, "ms"),
        "dynamic.step_other_ms": common.metric((busy["step"] - spanned) / steps * 1e3, "ms"),
        "core.refit_agents": common.metric(common.mean(refit_agents), "count"),
        "trace.coverage": common.metric((busy["observe"] + spanned) / busy["op"], "ratio"),
        "trace.overhead": common.metric(
            (len(latencies) / wall) / (steps / traced_wall), "ratio"
        ),
    }
    for name in SPAN_LAYER.values():
        metrics[name] = common.metric(busy[name] / steps * 1e3, "ms")
    return common.result(correct, attempted, failures, metrics)
