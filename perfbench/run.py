"""Benchmark entry point: one command for the three REF paths.

    python3 perfbench/run.py --workload paper|tick|serve --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``perfbench/README.md`` for what each workload does.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402

# One BLAS thread: every workload's load comes from one process, and the
# machine the figures were taken on has two CPUs.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKLOADS = ("paper", "tick", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {SOURCE}; run from a checkout", file=sys.stderr)
        return 2
    # One CPU for the run and every process it starts (the serve workload's
    # server inherits it): a request then hands over by a context switch,
    # not by waking the other virtual CPU, whose wake-up time varies with
    # the host's load.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SOURCE))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    workload = importlib.import_module(args.workload)
    probe = common.HostProbe()
    outcome = workload.run(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), started=STARTED,
        probe=probe,
    )
    print(f"run.py: host probe median {statistics.median(probe.samples) * 1e3:.3f} ms "
          f"over {len(probe.samples)} samples", file=sys.stderr)
    if args.trace:
        scale = probe.scale()
        outcome["metrics"] = common.at_reference_speed(outcome["metrics"], scale)
        outcome["metrics"]["host.probe_ms"] = common.metric(
            common.PROBE_REFERENCE_S / scale * 1e3, "ms"
        )
        outcome["metrics"] = common.per_layer(outcome["metrics"])
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
