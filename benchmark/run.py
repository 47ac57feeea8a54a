"""Benchmark of ecs_teleport: one workload per run, closed loop, one client.

Run from the repository root:

    python3 benchmark/run.py --workload lossless_sweep --seed 1 --seconds 30 --trace 0

Workloads and their checks are described in benchmark/spec.json.  With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the per-layer
metrics of benchmark/tracer.py.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The program is
imported from ./src, so the run exits with a non-zero status and no result
anywhere that does not hold the package source.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.abspath("src")
SETUP_PROBES = 11
MIN_CASES = 100

# one BLAS thread, set before anything imports numpy; children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lossless_sweep", "lossy_sweep", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up as a run would, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def _import_program():
    """Import ecs_teleport from ./src and nowhere else."""
    if not os.path.isfile(os.path.join(SOURCE, "ecs_teleport", "cli.py")):
        sys.exit(f"benchmark: no package source at {SOURCE}; run from the repository root")
    sys.path.insert(0, SOURCE)
    import ecs_teleport.cli

    if not os.path.abspath(ecs_teleport.__file__).startswith(SOURCE + os.sep):
        sys.exit(f"benchmark: imported ecs_teleport from {ecs_teleport.__file__}, not {SOURCE}")


def _time_setup(args) -> list[float]:
    """Wall time from a fresh interpreter to ready for the first case, several times."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            sys.exit(f"benchmark: set-up probe failed with status {probe.returncode}")
        times.append(elapsed)
    return times


class Tally:
    """Attempted and failed cases, with the failures that are not known defects."""

    def __init__(self, known: list[list[str]]):
        self.known = known
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.unexpected: list[str] = []

    def add(self, workload, case, result, error: str | None) -> None:
        self.attempted += 1
        if error:
            fails = [error]
        else:
            try:
                fails = workload.check(case, result)
            except (ValueError, IndexError, KeyError) as exc:  # output the check cannot read
                fails = [f"unreadable output: {exc!r}"]
        if not fails:
            return
        self.failed += 1
        if case in self.known:
            self.known_failed += 1
        else:
            label = case.label() if hasattr(case, "label") else " ".join(case)
            self.unexpected.append(f"{label}: {'; '.join(fails[:3])}")


def _run_pass(workload, cases, tally: Tally, durations: list[float], trace=None) -> None:
    """Run each case once, timing only the program call; `trace` records only that call."""
    for case in cases:
        error = result = None
        if trace is not None:
            trace.active = True
        start = time.perf_counter()
        try:
            result = workload.call(case)
        except Exception as exc:  # counted as a failed case
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            durations.append(time.perf_counter() - start)
            if trace is not None:
                trace.active = False
        tally.add(workload, case, result, error)


def measure(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Whole passes until `seconds` have passed and MIN_CASES have run.

    cases_per_s is the median over passes of each pass's completed cases per
    second (checks included), so a burst of contention from other tenants of
    the machine moves it less than one rate over the whole run would.
    """
    rng = random.Random(seed)
    durations: list[float] = []
    rates: list[float] = []
    start = time.perf_counter()
    while True:
        cases = workload.make_pass(rng)
        pass_start = time.perf_counter()
        _run_pass(workload, cases, tally, durations)
        rates.append(len(cases) / (time.perf_counter() - pass_start))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(durations) >= MIN_CASES:
            break
    if workload.forked:
        peak_mb = workload.peak_rss_mb
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "case_p50_ms": statistics.median(durations) * 1e3,
        "case_p90_ms": statistics.quantiles(durations, n=10, method="inclusive")[8] * 1e3,
        "cases_per_s": statistics.median(rates),
        "pass_rate": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": peak_mb,
        "samples": len(durations),
        "elapsed_s": elapsed,
    }


def measure_traced(workload, trace, seed: int, seconds: float, tally: Tally):
    """Alternate untraced and traced passes over the seed's first case list,
    as many pairs as fit in `seconds` (at least one).

    Returns the per-layer metrics (medians over the traced passes) and the
    names of counts that did not repeat exactly across traced passes.  The
    overhead compares the summed program-call time of the two kinds of pass.
    """
    import tracer

    cases = workload.make_pass(random.Random(seed))
    call_s: dict[bool, list[float]] = {False: [], True: []}
    layers = []
    start = time.perf_counter()
    pair_s = 0.0
    while not call_s[True] or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        for traced in (False, True):
            durations: list[float] = []
            if not traced:
                _run_pass(workload, cases, tally, durations)
            elif workload.forked:  # each child installs its own tracer
                workload.trace_targets = {"span": trace.span_targets, "count": trace.count_targets}
                workload.layers = None
                try:
                    _run_pass(workload, cases, tally, durations)
                finally:
                    workload.trace_targets = None
                layers.append(workload.layers)
            else:
                trace.reset()
                trace.install()
                try:
                    _run_pass(workload, cases, tally, durations, trace)
                finally:
                    trace.uninstall()
                layers.append(trace.layer_metrics())
            call_s[traced].append(sum(durations))
        pair_s = time.perf_counter() - pair_start
    out, unstable = tracer.summarize(layers)
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(call_s[True]) / statistics.median(call_s[False]) - 1.0
    )
    return out, unstable


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    sys.path.insert(0, HERE)
    import tracer
    import workloads

    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = workloads.WORKLOADS[args.workload](spec["workloads"][args.workload])
    workload.make_pass(random.Random(args.seed))  # part of set-up, so the probe times it
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup = _time_setup(args)
    problems = [f"self-test: {p}" for p in workload.self_test()]
    known = [k["argv"] for k in spec["known_failures"] if k["workload"] == args.workload]
    tally = Tally(known)
    if args.trace:
        trace = tracer.Tracer(spec["traced"]["span"], spec["traced"]["count"])
        trace.install()  # resolve every binding once for the report; calls nothing
        trace.uninstall()
        values, unstable = measure_traced(workload, trace, args.seed, args.seconds, tally)
        units = {**tracer.LAYER_UNITS, "trace.overhead_pct": "%"}
        report = [f"wrapped {name}: {', '.join(bindings)}" for name, bindings in trace.aliases.items()]
        report += [f"target not found: {t}" for t in trace.missing]
        problems += [f"count {k} differs between traced passes" for k in unstable]
    else:
        values = measure(workload, args.seed, args.seconds, tally)
        values["setup_s"] = statistics.median(setup)
        units = {"setup_s": "s", "case_p50_ms": "ms", "case_p90_ms": "ms",
                 "cases_per_s": "1/s", "pass_rate": "fraction", "peak_rss_mb": "MB"}
        report = [
            f"timed cases: {values['samples']} over {values['elapsed_s']:.2f} s",
            f"set-up probes (s): {', '.join(f'{t:.4f}' for t in setup)}",
        ]
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    problems += [f"unexpected failure: {u}" for u in tally.unexpected]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("\n".join(report))
    for name, m in metrics.items():
        value = m["value"]
        print(f"  {name:28s} {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}")
    print(f"  {'error_rate':28s} {tally.failed / tally.attempted:.6g} fraction"
          f" ({tally.failed} failed of {tally.attempted} cases,"
          f" {tally.known_failed} of them known defects)")
    for p in problems[:20]:
        print(p)
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
