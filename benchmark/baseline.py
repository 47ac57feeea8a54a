"""Repeat benchmark runs over several seeds and summarize their spread.

Run from the repository root:

    python3 benchmark/baseline.py --seeds 10 --seconds 30 --out benchmark/baseline.json

For each workload it makes one untraced run per seed and two traced runs on
the first seed, then reports each end-to-end metric's median, quartiles and
quartile spread as a share of the median (statistics.quantiles, n=4), and
whether the traced counts repeated exactly.  With --out it writes all of this
with the machine's nproc, Python, NumPy and SciPy versions and the BLAS
thread setting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lossless_sweep", "lossy_sweep", "cli_session")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result line, plus the bindings a traced run reports it wrapped."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(lines[-1])
    result["wrapped"] = dict(
        line[len("wrapped "):].split(": ", 1) for line in lines if line.startswith("wrapped ")
    )
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1, set by run.py",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="untraced runs per workload, seeds 1..N")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()

    summary = {"environment": environment(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = [run(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        traced = [run(workload, 1, args.seconds, 1) for _ in range(2)]
        untraced = {
            name: spread([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        counts = [
            name for name, m in traced[0]["metrics"].items()
            if m["unit"] == "count" and m["value"] != traced[1]["metrics"][name]["value"]
        ]
        summary["workloads"][workload] = {
            "seeds": list(range(1, args.seeds + 1)),
            "all_correct": all(r["correct"] for r in runs + traced),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "untraced": untraced,
            "traced_seed": 1,
            "traced": {k: m["value"] for k, m in traced[0]["metrics"].items()},
            "traced_repeat": {k: m["value"] for k, m in traced[1]["metrics"].items()},
            "counts_differing_between_traced_runs": counts,
        }
        print(f"{workload}: correct={summary['workloads'][workload]['all_correct']}"
              f" counts differing={counts}")
        for name, s in untraced.items():
            print(f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}")
        summary["wrapped_bindings"] = traced[0]["wrapped"]
    summary["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
