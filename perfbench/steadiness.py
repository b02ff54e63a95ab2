"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steadiness.py [--runs 10]

Run from the repository root.  For every workload it makes ``--runs``
runs (set A, seeds 1..N), then ``--runs`` more (set B, seeds 101..100+N),
each with ``BENCHMARK.json``'s ``run_seconds``.  For each end-to-end
metric it prints both sets' medians and quartiles, each set's spread
(interquartile range over median), and the gap between the set medians
in the metric's worse direction, against the metric's bound.  A spread
above a third of the bound or a gap above the bound is flagged, and
the command exits 1 if anything is.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(command, workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    flagged = 0
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for first in (1, 101):
            runs = [
                one_run(spec["command"], workload, first + i, spec["run_seconds"])
                for i in range(args.runs)
            ]
            sets.append(runs)
        print(f"\n== {workload}: {args.runs} runs per set, run_seconds={spec['run_seconds']}")
        for label, runs in zip("AB", sets):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print(f"set {label}: attempted {attempted}, failed {failed}, correct {correct}",
                  flush=True)
        print(f"{'metric':<12}{'A median':>12}{'A q1..q3':>22}{'B median':>12}"
              f"{'B q1..q3':>22}{'spreadA':>8}{'spreadB':>8}{'gap':>8}{'bound':>7}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([r["metrics"][name]["value"] for r in sets[0]])
            b = summary([r["metrics"][name]["value"] for r in sets[1]])
            gap = (b[0] - a[0]) / a[0]
            if metric["better"] == "higher":
                gap = -gap
            flag = ""
            if max(a[3], b[3]) > bound / 3:
                flag += " spread>bound/3"
            if gap > bound:
                flag += " gap>bound"
            flagged += bool(flag)
            quartiles = [f"{s[1]:.4g}..{s[2]:.4g}" for s in (a, b)]
            print(f"{name:<12}{a[0]:>12.4g}{quartiles[0]:>22}{b[0]:>12.4g}{quartiles[1]:>22}"
                  f"{a[3]:>8.3f}{b[3]:>8.3f}{gap:>8.3f}{bound:>7}{flag}", flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
