"""The benchmark's three workloads: seeded case lists, the call each case makes
into the program, and the output checks with their self-tests.

A check returns a list of failure messages; an empty list is a pass.  Checks
read only a plain summary of the program's result, so the self-tests can feed
them known-wrong results and see each one counted as a failure.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import re
import sys
from dataclasses import dataclass, replace

import ecs_teleport
from ecs_teleport import cli

import tracer

# tolerances fixed by the benchmark; raw deviations are not gated
MASS_TOL = 1e-9
FIDELITY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
ENGINE_TOL = 1e-6
CONCURRENCE_TOL = 1e-6


def _complex_normal(rng: random.Random) -> complex:
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


@dataclass(frozen=True)
class Summary:
    """What the sweep checks read from a ProtocolReport."""

    outcomes: tuple[tuple[int, int, float, float], ...]  # (l, n, probability, fidelity)
    mean_fidelity: float

    @classmethod
    def of(cls, report) -> "Summary":
        return cls(
            tuple((o.l, o.n, o.probability, o.fidelity) for o in report.outcomes),
            report.mean_fidelity,
        )


def _mass_failures(s: Summary) -> list[str]:
    total = math.fsum(p for _, _, p, _ in s.outcomes)
    if not abs(total - 1.0) <= MASS_TOL:
        return [f"outcome probabilities sum to {total!r}"]
    return []


# ---------------------------------------------------------------------------
# lossless_sweep


@dataclass(frozen=True)
class LosslessCase:
    m: int
    alpha: float
    sign: str
    kappa1: complex
    kappa2: complex

    def label(self) -> str:
        return f"m={self.m} alpha={self.alpha} sign={self.sign}"


def check_lossless(case: LosslessCase, s: Summary) -> list[str]:
    fails = _mass_failures(s)
    for l, n, p, f in s.outcomes:
        if (l, n) == (0, 0):
            continue
        if not abs(f - 1.0) <= FIDELITY_TOL:
            fails.append(f"outcome ({l},{n}) corrected fidelity {f!r}")
        count = max(l, n)
        parity = "odd" if count % 2 else "even"
        if (parity == "odd") != (case.sign == "minus"):
            continue  # input-dependent outcome, no closed form
        ref = ecs_teleport.success_probability_closed_form(case.m, case.alpha, parity, count)
        if not abs(p - ref) <= CLOSED_FORM_TOL:
            fails.append(f"outcome ({l},{n}) probability {p!r}, closed form {ref!r}")
    return fails


class LosslessSweep:
    name = "lossless_sweep"
    forked = False

    def __init__(self, spec: dict):
        self.grid = spec["grid"]

    def make_pass(self, rng: random.Random) -> list[LosslessCase]:
        cases = [
            LosslessCase(m, alpha, sign, _complex_normal(rng), _complex_normal(rng))
            for m in self.grid["m"]
            for alpha in self.grid["alpha"]
            for sign in self.grid["sign"]
        ]
        rng.shuffle(cases)
        return cases

    def call(self, case: LosslessCase):
        return ecs_teleport.run_protocol(case.m, case.alpha, case.kappa1, case.kappa2, case.sign)

    def check(self, case: LosslessCase, report) -> list[str]:
        return check_lossless(case, Summary.of(report))

    def self_test(self) -> list[str]:
        case = LosslessCase(3, 1.0, "minus", 0.6 + 0.1j, -0.3 + 0.7j)
        good = Summary.of(self.call(case))
        success = [o for o in good.outcomes if o[:2] != (0, 0)]
        top = max(success, key=lambda o: o[2])
        odd = next(o for o in success if max(o[0], o[1]) % 2 == 1 and o is not top)
        rest = tuple(o for o in good.outcomes if o is not top)

        def shifted(o, dp=0.0, df=0.0):
            return (o[0], o[1], o[2] + dp, o[3] + df)

        wrong = {
            "table missing its most probable outcome": replace(good, outcomes=rest),
            "one fidelity off by 1e-6": replace(
                good, outcomes=tuple(shifted(o, df=-1e-6) if o is top else o for o in good.outcomes)
            ),
            "1e-6 of mass moved onto a parity-matched outcome": replace(
                good,
                outcomes=tuple(
                    shifted(o, dp=1e-6) if o is odd else shifted(o, dp=-1e-6) if o is top else o
                    for o in good.outcomes
                ),
            ),
        }
        return _self_test_verdicts(lambda s: check_lossless(case, s), good, wrong)


# ---------------------------------------------------------------------------
# lossy_sweep


@dataclass(frozen=True)
class LossyCase:
    m: int
    alpha: float
    eta: float
    kappa1: complex
    kappa2: complex
    odd_cat: bool

    def label(self) -> str:
        kind = "odd-cat" if self.odd_cat else "seeded"
        return f"m={self.m} alpha={self.alpha} eta={self.eta} {kind}"


def check_lossy(case: LossyCase, s: Summary) -> list[str]:
    fails = _mass_failures(s)
    if case.odd_cat:
        ref = ecs_teleport.teleported_fidelity_exact(case.m, case.alpha, case.eta)
        if not abs(s.mean_fidelity - ref) <= FIDELITY_TOL:
            fails.append(f"mean fidelity {s.mean_fidelity!r}, exact closed form {ref!r}")
    return fails


class LossySweep:
    name = "lossy_sweep"
    forked = False

    def __init__(self, spec: dict):
        self.grid = spec["grid"]
        self.passes = 0

    def make_pass(self, rng: random.Random) -> list[LossyCase]:
        """One case per grid point; odd-cat and seeded inputs alternate over the
        grid and swap from one pass to the next, so any two consecutive passes
        run every point with both inputs."""
        cases = []
        points = [
            (m, alpha, eta)
            for m in self.grid["m"]
            for alpha in self.grid["alpha"]
            for eta in self.grid["eta"]
        ]
        for i, (m, alpha, eta) in enumerate(points):
            if (i + self.passes) % 2 == 0:
                c = _complex_normal(rng)
                cases.append(LossyCase(m, alpha, eta, c, -c, True))
            else:
                cases.append(
                    LossyCase(m, alpha, eta, _complex_normal(rng), _complex_normal(rng), False)
                )
        self.passes += 1
        rng.shuffle(cases)
        return cases

    def call(self, case: LossyCase):
        return ecs_teleport.teleport_through_noise(
            case.m, case.alpha, case.eta, case.kappa1, case.kappa2
        )

    def check(self, case: LossyCase, report) -> list[str]:
        return check_lossy(case, Summary.of(report))

    def self_test(self) -> list[str]:
        case = LossyCase(3, 1.0, 0.6, 0.8 - 0.2j, -0.8 + 0.2j, True)
        good = Summary.of(self.call(case))
        top = max(good.outcomes, key=lambda o: o[2])
        wrong = {
            "table missing its most probable outcome": replace(
                good, outcomes=tuple(o for o in good.outcomes if o is not top)
            ),
            "mean fidelity off by 1e-6": replace(good, mean_fidelity=good.mean_fidelity + 1e-6),
        }
        return _self_test_verdicts(lambda s: check_lossy(case, s), good, wrong)


# ---------------------------------------------------------------------------
# cli_session


def _option(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _float_or_nan(text: str) -> float:
    return float(text) if text else math.nan


def _check_teleport(argv: list[str], out: str) -> list[str]:
    lines = out.splitlines()
    header = lines[0].split(",")
    rows, footer = [], {}
    for line in lines[1:]:
        fields = line.split(",")
        if fields[0].isdigit():
            rows.append(fields)
        else:
            footer[fields[0]] = _float_or_nan(fields[1])
    if not rows:
        return ["no outcome rows"]
    col = header.index("probability")
    probs = [float(r[col]) for r in rows if r[col]]
    fails = []
    if _option(argv, "--engine", "coherent") == "closed_form":
        target = footer.get("closed_form_odd_aggregate", math.nan)
        what = "the printed odd aggregate"
    else:
        target, what = 1.0, "1"
    total = math.fsum(probs)
    # the CSV prints 9 significant digits, so each value carries up to half a
    # unit of its 9th digit of rounding on top of the mass tolerance
    rounding = math.fsum(0.5 * 10.0 ** (math.floor(math.log10(p)) - 8) for p in probs if p > 0)
    if not abs(total - target) <= MASS_TOL + rounding:
        fails.append(f"probability column sums to {total!r}, expected {what} ({target!r})")
    if "engine_disagreement" in header:
        col = header.index("engine_disagreement")
        devs = [float(r[col]) for r in rows if r[col]]
        if not devs:
            fails.append("no engine_disagreement printed")
        worst = max(devs, default=0.0)
        if not worst <= ENGINE_TOL:
            fails.append(f"engine_disagreement {worst!r}")
    return fails


def _check_figures(out: str) -> list[str]:
    lines = out.splitlines()
    if not lines or lines[0] != "alpha,eta,value" or len(lines) < 2:
        return ["no figure rows"]
    bad = [line for line in lines[1:] if not 0.0 <= _float_or_nan(line.split(",")[2]) <= 1.0]
    return [f"{len(bad)} values outside [0, 1], first: {bad[0]}"] if bad else []


_CONCURRENCE = re.compile(r"mode (\d+) \| rest: (\S+) / (\S+)")


def _check_channel_info(argv: list[str], out: str) -> list[str]:
    pairs = [(float(a), float(b)) for _, a, b in _CONCURRENCE.findall(out)]
    m = int(_option(argv, "--m", "3"))
    fails = [] if len(pairs) == m + 1 else [f"{len(pairs)} concurrence lines for {m + 1} modes"]
    worst = max((abs(a - b) for a, b in pairs), default=0.0)
    if not worst <= CONCURRENCE_TOL:
        fails.append(f"concurrence columns differ by {worst!r}")
    return fails


def check_cli(argv: list[str], result: dict) -> list[str]:
    if result["exception"]:
        return [f"raised {result['exception']}"]
    if result["exit_code"] != 0:
        return [f"exit code {result['exit_code']}"]
    out = result["stdout"]
    command = argv[0]
    if command == "teleport":
        return _check_teleport(argv, out)
    if command == "figures":
        return _check_figures(out)
    if command == "channel-info":
        return _check_channel_info(argv, out)
    if command == "verify":
        return [] if "all suites passed" in out.splitlines() else ["verify did not pass"]
    return [f"no check for {command}"]


def _invoke(argv: list[str], trace: tracer.Tracer | None) -> dict:
    """Run cli.main in this process with stdout and stderr captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = stdout, stderr
    exception = None
    if trace is not None:
        trace.install()
        trace.active = True
    try:
        exit_code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a user would see a traceback and exit status 1
        exit_code, exception = 1, type(exc).__name__
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    result = {
        "exit_code": exit_code,
        "exception": exception,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
    }
    if trace is not None:
        trace.active = False
        result["layers"] = trace.layer_metrics()
    return result


def run_forked(argv: list[str], trace_targets: dict | None) -> tuple[dict, float]:
    """One invocation in a child forked from this importing, cache-cold parent.

    Returns the child's result and its peak RSS in MB.  The child writes its
    result to a pipe and leaves with os._exit, so it never flushes the
    parent's buffers or runs the parent's exit handlers.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(read_fd)
            trace = None
            if trace_targets is not None:
                trace = tracer.Tracer(trace_targets["span"], trace_targets["count"])
            payload = json.dumps(_invoke(argv, trace)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"benchmark child for {argv} ended with status {status}")
    return json.loads(payload), usage.ru_maxrss / 1024.0


class CliSession:
    name = "cli_session"
    forked = True  # each case runs in its own child; peak RSS is the children's

    def __init__(self, spec: dict):
        self.invocations = [list(argv) for argv in spec["invocations"]]
        self.trace_targets = None  # set by a traced run for its traced passes
        self.layers = None  # per-layer metrics merged over the traced cases
        self.peak_rss_mb = 0.0

    def make_pass(self, rng: random.Random) -> list[list[str]]:
        cases = [list(argv) for argv in self.invocations]
        rng.shuffle(cases)
        return cases

    def call(self, argv: list[str]) -> dict:
        result, rss_mb = run_forked(argv, self.trace_targets)
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        if "layers" in result:
            layers = result.pop("layers")
            self.layers = layers if self.layers is None else tracer.merge(self.layers, layers)
        return result

    def check(self, argv: list[str], result: dict) -> list[str]:
        return check_cli(argv, result)

    def self_test(self) -> list[str]:
        def ok(stdout: str, exit_code: int = 0, exception=None) -> dict:
            return {"exit_code": exit_code, "exception": exception, "stdout": stdout, "stderr": ""}

        table = (
            "l,n,probability,correction,fidelity,engine_disagreement\n"
            "0,0,0.25,none,0,1e-15\n0,1,0.5,phase_only,1,2e-15\n1,0,0.25,none,1,\n"
            "success_probability,0.75,,,,\n"
        )
        closed = (
            "l,n,probability,correction,fidelity\n"
            "0,0,,none,\n0,1,0.25,phase_only,1\n1,0,0.25,none,1\n"
            "closed_form_odd_aggregate,0.5,,,\n"
        )
        info = "".join(f"  mode {k} | rest: 0.990800 / 0.990800\n" for k in range(4))
        cases = {
            ("teleport", "--engine", "all"): (ok(table), {
                "table missing mass": ok(table.replace("0,1,0.5", "0,1,0.4")),
                "engine disagreement 1e-3": ok(table.replace("2e-15", "1e-3")),
                "non-zero exit code": ok(table, exit_code=1),
                "uncaught exception": ok("", exit_code=1, exception="OverflowError"),
            }),
            ("teleport", "--engine", "closed_form"): (ok(closed), {
                "closed forms short of the odd aggregate": ok(closed.replace("1,0,0.25", "1,0,0.2")),
            }),
            ("figures", "fig1"): (ok("alpha,eta,value\n0.5,0.5,0.75\n"), {
                "value above 1": ok("alpha,eta,value\n0.5,0.5,1.2\n"),
                "nan value": ok("alpha,eta,value\n0.5,0.5,nan\n"),
            }),
            ("channel-info", "--m", "3"): (ok(info), {
                "concurrence columns differ by 2e-6": ok(info.replace("/ 0.990800", "/ 0.990802", 1)),
                "a concurrence line missing": ok(info.split("\n", 1)[1]),
            }),
            ("verify",): (ok("[PASS] x\nall suites passed\n"), {
                "failed suite": ok("[FAIL] x\nverification FAILED\n", exit_code=2),
                "failed suite with exit code 0": ok("[FAIL] x\nverification FAILED\n"),
            }),
        }
        problems = []
        for argv, (good, wrong) in cases.items():
            verdicts = _self_test_verdicts(lambda r: check_cli(list(argv), r), good, wrong)
            problems += [f"{' '.join(argv)}: {p}" for p in verdicts]
        return problems


def _self_test_verdicts(check, good, wrong: dict) -> list[str]:
    problems = [f"known-good result failed: {f}" for f in check(good)]
    problems += [f"check passed a known-wrong result ({what})" for what, bad in wrong.items() if not check(bad)]
    return problems


WORKLOADS = {cls.name: cls for cls in (LosslessSweep, LossySweep, CliSession)}
