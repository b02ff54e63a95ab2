"""Workload ``paper``: Figs. 13-14 rows built from scratch, one mix per op.

An op profiles every member of one Table 2 mix with a fresh in-memory
``OfflineProfiler`` (default analytic machine, no disk cache), fits each
profile, solves the mix with all four ``optimize.MECHANISMS`` and
computes each allocation's weighted system throughput.  A run makes
whole passes over :data:`PASS`, in an order drawn from the seed.
"""

from __future__ import annotations

import math
import random
import sys
import time
from typing import Dict, List

import common
import reference as ref

#: The mixes of one pass: every 4-agent mix and the lightest 8-agent one.
PASS = ("WD1", "WD2", "WD3", "WD4", "WD5", "WD9")
#: About how long one pass takes on the reference machine; sizes a run.
PASS_SECONDS = 11.5

REF = "Proportional Elasticity w/ Fairness"
MWF = "Max Welfare w/ Fairness"
MWU = "Max Welfare w/o Fairness"
ES = "Equal Slowdown w/o Fairness"
LAYER = {
    REF: "optimize.ref_ms",
    MWU: "optimize.max_welfare_unfair_ms",
    MWF: "optimize.max_welfare_fair_ms",
    ES: "optimize.equal_slowdown_ms",
}

#: Table 1 grid: five bandwidths by five cache sizes.
GRID_POINTS = 25
#: Fit parity: elasticities absolutely, the scale relatively.
FIT_TOL = 1e-8
#: Columns of a numerically solved allocation meet capacity to this share.
CAPACITY_RTOL = 1e-6
#: SI / EF slack for the SLSQP-solved fair mechanism (the program's own
#: property checks use 1e-6).
PROPERTY_RTOL = 1e-6
#: Slack for comparing welfare between solvers, in log space.
WELFARE_TOL = 1e-7


def _solver_totals(registry) -> "tuple[float, float]":
    """SLSQP runs and iterations so far, across every mechanism label."""
    runs = iterations = 0.0
    for child in registry.metrics():
        if child.name == "repro_solver_runs_total":
            runs += child.value
        elif child.name == "repro_solver_iterations":
            iterations += child.sum
    return runs, iterations


class Paper:
    def __init__(self) -> None:
        from repro.core import weighted_system_throughput
        from repro.obs import global_registry
        from repro.optimize import MECHANISMS
        from repro.profiling import OfflineProfiler
        from repro.workloads import MIXES, problem_from_fits

        # SciPy loads lazily on the program's first solve; load it here
        # so that cost lands in set-up, not in the first op.
        import scipy.optimize  # noqa: F401

        self.throughput = weighted_system_throughput
        self.registry = global_registry()
        self.mechanisms = MECHANISMS
        self.profiler_class = OfflineProfiler
        self.mixes = MIXES
        self.problem_from_fits = problem_from_fits

    def warm_up(self) -> None:
        """One WD4 op, so lazy set-up in the program is done before timing."""
        mix = self.mixes["WD4"]
        profiler = self.profiler_class()
        fits = {}
        for member, workload in zip(mix.members, mix.workloads()):
            profiler.profile(workload)
            fits[member] = profiler.fit(workload)
        problem = self.problem_from_fits(mix, fits)
        for solve in self.mechanisms.values():
            solve(problem)

    def op(self, mix_name: str, spans: "Dict[str, List[float]] | None"):
        """One Figs. 13-14 row; ``spans`` collects per-layer times when tracing."""
        clock = time.perf_counter
        mix = self.mixes[mix_name]
        profiler = self.profiler_class()
        profiles, fits = {}, {}
        for member, workload in zip(mix.members, mix.workloads()):
            if spans is None:
                profiles[member] = profiler.profile(workload)
                fits[member] = profiler.fit(workload)
                continue
            began = clock()
            profiles[member] = profiler.profile(workload)
            swept = clock()
            fits[member] = profiler.fit(workload)
            spans["profiling.sweep_ms"].append(swept - began)
            spans["profiling.fit_ms"].append(clock() - swept)
        problem = self.problem_from_fits(mix, fits)
        allocations = {}
        for name, solve in self.mechanisms.items():
            if spans is None:
                allocations[name] = solve(problem)
                continue
            began = clock()
            allocations[name] = solve(problem)
            spans[LAYER[name]].append(clock() - began)
        throughput = {name: self.throughput(a) for name, a in allocations.items()}
        return mix, profiles, fits, problem, allocations, throughput


def check(mix, profiles, fits, problem, allocations, throughput) -> List[str]:
    """Every property a Figs. 13-14 row must have; returns what failed."""
    problems: List[str] = []
    capacities = [float(c) for c in problem.capacities]
    alpha: Dict[str, List[float]] = {}
    for member, profile in profiles.items():
        points = profile.allocations.tolist()
        ipc = profile.ipc.tolist()
        if len(points) != GRID_POINTS or not all(
            math.isfinite(v) and v > 0 for v in ipc
        ):
            problems.append(f"{member}: profile is not 25 finite positive points")
            continue
        scale, expected = ref.fit_log_linear(points, ipc)
        fit = fits[member]
        got = [float(a) for a in fit.utility.alpha]
        if any(abs(a - b) > FIT_TOL for a, b in zip(got, expected)) or abs(
            fit.utility.scale / scale - 1.0
        ) > FIT_TOL:
            problems.append(f"{member}: fit {got} differs from reference {expected}")
        alpha[member] = expected
    if problems:
        return problems
    rows = [alpha[member] for member in mix.members]

    shares = {name: a.shares.tolist() for name, a in allocations.items()}
    for name, allocation in allocations.items():
        if allocation.mechanism.endswith("equal_split_fallback"):
            problems.append(f"{name}: fell back to the equal split")
        for r, capacity in enumerate(capacities):
            total = math.fsum(bundle[r] for bundle in shares[name])
            if abs(total - capacity) > CAPACITY_RTOL * capacity:
                problems.append(f"{name}: column {r} sums to {total}, not {capacity}")
        wst = ref.weighted_system_throughput(rows, shares[name], capacities)
        if abs(throughput[name] - wst) > 1e-9 * wst:
            problems.append(f"{name}: throughput {throughput[name]} != reference {wst}")

    expected_ref = ref.ref_shares(rows, capacities)
    for got_row, want_row in zip(shares[REF], expected_ref):
        for r, capacity in enumerate(capacities):
            if abs(got_row[r] - want_row[r]) > 1e-9 * capacity:
                problems.append(f"REF share {got_row} != Eq. 13 {want_row}")
    for name in (REF, MWF):
        if not ref.sharing_incentive_ok(rows, shares[name], capacities, PROPERTY_RTOL):
            problems.append(f"{name}: violates SI")
        if not ref.envy_free_ok(rows, shares[name], PROPERTY_RTOL):
            problems.append(f"{name}: violates EF")

    nash = {n: ref.log_nash_welfare(rows, s, capacities) for n, s in shares.items()}
    if nash[MWU] < nash[MWF] - WELFARE_TOL or nash[MWF] < nash[REF] - WELFARE_TOL:
        problems.append(f"Nash welfare order broken: {nash}")
    worst = {n: ref.egalitarian_welfare(rows, s, capacities) for n, s in shares.items()}
    if any(worst[ES] < value * (1 - WELFARE_TOL) for value in worst.values()):
        problems.append(f"equal slowdown is not the max-min allocation: {worst}")
    return problems


def run(seed: int, seconds: float, trace: bool, started: float, probe) -> Dict[str, object]:
    paper = Paper()
    imports_s = time.perf_counter() - started
    setup_s, _ = common.timed_setup(imports_s, paper.warm_up, probe)
    order = random.Random(seed)
    passes = max(1, int(seconds / PASS_SECONDS + 0.5))
    if trace:
        passes = max(2, passes)  # untraced passes, then as many traced ones
    schedule: List[str] = []
    for _ in range(passes):
        names = list(PASS)
        order.shuffle(names)
        schedule.extend(names)
    untraced_ops = len(PASS) * (passes // 2) if trace else len(schedule)

    def measure(mix_names, spans):
        latencies, failures, solver, raw_wall = [], 0, [0.0, 0.0], 0.0
        before = probe.block()
        for mix_name in mix_names:
            before_solver = _solver_totals(paper.registry) if spans is not None else None
            began = time.perf_counter()
            outputs = paper.op(mix_name, spans)
            latency = time.perf_counter() - began
            raw_wall += latency
            after = probe.block()
            latencies.append(latency * common.segment_scale(before, after))
            before = after
            if before_solver is not None:
                after_solver = _solver_totals(paper.registry)
                solver[0] += after_solver[0] - before_solver[0]
                solver[1] += after_solver[1] - before_solver[1]
            found = check(*outputs)
            if found:
                failures += 1
                print(f"paper: {mix_name} failed: {found[:3]}", file=sys.stderr)
        return latencies, failures, raw_wall, solver

    latencies, failures, _, _ = measure(schedule[:untraced_ops], None)
    wall = math.fsum(latencies)
    if not trace:
        metrics = common.end_to_end(setup_s, common.self_peak_rss_mb(), latencies, wall)
        return common.result(True, len(latencies), failures, metrics)

    spans: Dict[str, List[float]] = {
        name: [] for name in ("profiling.sweep_ms", "profiling.fit_ms", *LAYER.values())
    }
    traced, traced_failures, traced_raw_wall, solver = measure(schedule[untraced_ops:], spans)
    metrics = {name: common.metric(common.mean(v) * 1e3, "ms") for name, v in spans.items()}
    ops = len(traced)
    metrics["optimize.slsqp_runs"] = common.metric(solver[0] / ops, "count")
    metrics["optimize.slsqp_iterations"] = common.metric(solver[1] / ops, "count")
    covered = math.fsum(math.fsum(v) for v in spans.values())
    metrics["trace.coverage"] = common.metric(covered / traced_raw_wall, "ratio")
    metrics["trace.overhead"] = common.metric(
        (len(latencies) / wall) / (ops / math.fsum(traced)), "ratio"
    )
    return common.result(True, len(latencies) + ops, failures + traced_failures, metrics)
