"""The benchmark's workloads still run against the package: a name the benchmark
reads that leaves `src/` fails here, not in a benchmark run.  Reads `benchmark/`
and changes nothing there."""

import json
import os
import random
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")


def test_the_benchmark_workloads_run_against_the_package(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARK)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under benchmark/
    import workloads

    with open(os.path.join(BENCHMARK, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"]
    built = {name: cls(spec[name]) for name, cls in workloads.WORKLOADS.items()}
    for name, workload in built.items():
        assert workload.self_test() == [], name
    for name in ("lossless_sweep", "lossy_sweep"):
        workload = built[name]
        case = workload.make_pass(random.Random(0))[0]
        assert workload.check(case, workload.call(case)) == [], case.label()
