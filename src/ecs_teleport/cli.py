"""Command-line front end: channel reports, protocol runs, figure-data sweeps
and the self-verification suite.

Exit codes: 0 success, 1 usage error, 2 verification failure: a failed
`verify` suite, or a `teleport --engine all` record on which the two engines
differ by more than 1e-6 (the table is still written).  All CSV output
is UTF-8 with a header row, values at 9 significant digits, rows ordered
lexicographically, so byte-for-byte determinism holds for a fixed invocation.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Optional, Sequence

import numpy as np

from . import fock, verify
from .algebra import inner_product
from .channels import (
    ChannelSpec,
    build_channel,
    channel_amplitudes,
    concurrence_closed_form,
    norm_constant,
)
from .noise import channel_fidelity, teleported_fidelity_exact
from .teleport import CORRECTIONS, run_protocol, success_probability_closed_form

USAGE_ERROR = 1
VERIFY_ERROR = 2
# outcome mass the teleport table may miss before it warns on stderr
MISSING_MASS_TOL = 1e-9
# largest per-record deviation `teleport --engine all` accepts between the
# engines; `verify` holds its oracle suites to the same bar
ORACLE_TOL = 1e-6
# the closed forms scale |alpha|^2 by 2^(m+1), which overflows a double beyond this m
MAX_MODES = 1022
# most cells a `figures` grid may hold: 400 times the default 50 x 50
MAX_FIGURE_CELLS = 10**6


class _Parser(argparse.ArgumentParser):
    # no prefix matching: "figures --alpha 0 1 3" must not pass as --alpha-range
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits with 2 on usage errors by default; this CLI reserves 2
    # for verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return ""
    return f"{value:.9g}"


# a whole "nan" cell, which "%.9g" prints for NaN and the tables print blank; the literal
# leads, so the search scans a grid's text at string-search speed
_NAN_CELL = re.compile(r"nan\b(?<![^,\n]nan)")


def _table(header: Sequence[str], row_format: str, rows, footer=()) -> str:
    """CSV text of `rows` under `header`, each row through the one %-format
    `row_format` (%.9g for a float cell, so a cell reads as `_fmt` gives it),
    then one (name, value) line per `footer` entry."""
    footer_format = "%s,%.9g" + "," * (len(header) - 2)
    lines = [",".join(header), *map(row_format.__mod__, rows), *map(footer_format.__mod__, footer)]
    return _NAN_CELL.sub("", "\n".join(lines) + "\n")


def _write(out_path: Optional[str], text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ecs-teleport", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def model(p):
        p.add_argument("--m", type=int, default=3, help="number of teleported modes")
        p.add_argument("--alpha", type=_finite_float, default=1.0, help="coherent amplitude")
        p.add_argument("--sign", choices=("plus", "minus"), default="minus")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_info = sub.add_parser("channel-info", help="channel normalization and concurrences")
    model(p_info)

    p_tel = sub.add_parser("teleport", help="run the protocol, emit per-outcome CSV")
    model(p_tel)
    p_tel.add_argument("--eta", type=_finite_float, default=1.0, help="loss transmissivity")
    p_tel.add_argument("--kappa1-re", type=_finite_float, default=1 / math.sqrt(2))
    p_tel.add_argument("--kappa1-im", type=_finite_float, default=0.0)
    p_tel.add_argument("--kappa2-re", type=_finite_float, default=1 / math.sqrt(2))
    p_tel.add_argument("--kappa2-im", type=_finite_float, default=0.0)
    p_tel.add_argument(
        "--engine", choices=("closed_form", "coherent", "all"), default="coherent",
        help="coherent: the label algebra; closed_form: closed-form probabilities and "
             "fidelities where they exist; all: the label algebra, with each record's "
             "deviation from the Fock-basis MPS engine (any eta)")

    p_fig = sub.add_parser("figures", help="emit the (alpha, eta) fidelity grids as CSV")
    p_fig.add_argument("which", choices=("fig1", "fig2", "fig3", "fig4"))
    p_fig.add_argument("--m", type=int, default=None, help="number of teleported modes")
    p_fig.add_argument("--alpha-range", nargs=3, metavar=("A", "B", "N"), default=None,
                       help="sweep alpha over N points in [A, B]")
    p_fig.add_argument("--eta-range", nargs=3, metavar=("A", "B", "N"), default=None,
                       help="sweep eta over N points in [A, B]")
    p_fig.add_argument("--out", default=None, help="output path (default stdout)")

    p_ver = sub.add_parser("verify", help="run the self-verification suites")
    p_ver.add_argument("--seed", type=_seed, default=0)
    p_ver.add_argument("--trials", type=int, default=50)
    p_ver.add_argument("--out", default=None)
    return parser


def _range(option: str, spec: Sequence[str]) -> tuple[float, float, int]:
    """(A, B, N), for N points over [A, B], from the strings given to `option`."""
    try:
        a, b = float(spec[0]), float(spec[1])
    except ValueError:
        a = b = math.nan
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"{option}: range ends must be finite, got {spec[0]} and {spec[1]}")
    try:
        n = int(spec[2])
    except ValueError:
        raise ValueError(f"{option}: N must be an integer, got {spec[2]!r}") from None
    if n < 2:
        raise ValueError(f"{option}: range needs at least 2 steps")
    return a, b, n


def cmd_channel_info(args) -> int:
    m = args.m
    spec = ChannelSpec(m=m, alpha=args.alpha, sign=args.sign)
    amps = channel_amplitudes(m, args.alpha)
    state = build_channel(spec)
    lines = [
        f"channel: m={m} sign={args.sign} alpha={_fmt(args.alpha)}",
        f"modes: {m + 1}",
        "amplitudes: " + ", ".join(_fmt(abs(a)) for a in amps),
        f"normalization constant: {_fmt(norm_constant(m, args.alpha, args.sign))}",
        f"self-overlap: {_fmt(inner_product(state, state).real)}",
        "lone-mode concurrences (closed form / numeric Wootters):",
    ]
    for k in range(m + 1):
        closed = concurrence_closed_form(spec, k)
        oracle = fock.channel_concurrence_oracle(spec, k)
        lines.append(f"  mode {k} | rest: {closed:.6f} / {oracle:.6f}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_teleport(args) -> int:
    m = args.m
    k1 = complex(args.kappa1_re, args.kappa1_im)
    k2 = complex(args.kappa2_re, args.kappa2_im)
    report = run_protocol(m, args.alpha, k1, k2, args.sign, eta=args.eta)
    if args.engine == "all":
        oracle = fock.protocol_table(m, args.alpha, k1, k2, args.sign, args.eta)
        deviations = oracle.deviations(report.l, report.n, report.probability)
    total = report.total_probability
    if 1.0 - total > MISSING_MASS_TOL:
        print(f"warning: outcome probabilities sum to {total!r}; "
              f"{1.0 - total:.3g} of the mass is missing", file=sys.stderr)
    counts = report.l + report.n  # one of the two is 0 on every record
    # the lossless closed form on parity-matched records (odd counts on the
    # minus channel, even counts on the plus channel) and NaN, a blank cell,
    # elsewhere; at eta < 1 it is not this run's probability, so all NaN
    matched = (counts > 0) & (counts % 2 == (args.sign == "minus"))
    closed = np.full(len(counts), math.nan)
    if args.eta == 1.0:
        parity = "odd" if args.sign == "minus" else "even"
        closed[matched] = [success_probability_closed_form(m, args.alpha, parity, count)
                           for count in counts[matched].tolist()]
    probability, fidelity = report.probability, report.fidelity
    if args.engine == "closed_form":
        cross = k1 * k2.conjugate()
        minus_cat = abs(abs(k1) - abs(k2)) < 1e-12 and abs(cross.imag) < 1e-12 and cross.real < 0
        fid = teleported_fidelity_exact(m, args.alpha, args.eta) if minus_cat else math.nan
        probability = closed
        fidelity = np.where(counts > 0, 1.0 if args.eta == 1.0 else fid, math.nan)
    header = ["l", "n", "probability", "correction", "fidelity"]
    row_format = "%d,%d,%.9g,%s,%.9g"
    # the report's columns already run in (l, n) order
    columns = [report.l.tolist(), report.n.tolist(), probability.tolist(),
               np.asarray(CORRECTIONS)[report.correction].tolist(), fidelity.tolist()]
    if args.engine == "all":
        covered = (report.l < deviations.shape[0]) & (report.n < deviations.shape[1])
        disagreement = np.full(len(counts), math.nan)
        disagreement[covered] = deviations[report.l[covered], report.n[covered]]
        header.append("engine_disagreement")
        row_format += ",%.9g"
        columns.append(disagreement.tolist())
    footer = [
        ("total_probability", total),
        ("success_probability", report.success_probability),
        ("mean_fidelity", report.mean_fidelity),
        ("closed_form_odd_aggregate", success_probability_closed_form(m, args.alpha, "odd")),
        ("closed_form_even_aggregate_squared", success_probability_closed_form(m, args.alpha, "even")),
    ]
    if args.sign == "minus" and args.eta == 1.0 and matched.any():
        odd_dev = np.abs(report.probability[matched] - closed[matched]).max()
        footer.append(("max_odd_outcome_closed_form_deviation", odd_dev))
    if args.engine == "all":
        footer.append(("oracle_max_disagreement", float(deviations.max())))
        footer.append(("oracle_discarded_weight", oracle.discarded_weight))
    _write(args.out, _table(header, row_format, zip(*columns), footer))
    if args.engine == "all" and deviations.max() > ORACLE_TOL:
        l, n = np.unravel_index(deviations.argmax(), deviations.shape)
        print(f"error: the engines disagree by {deviations.max():.3g} at (l, n) = ({l}, {n}), "
              f"above the bar {ORACLE_TOL:g}", file=sys.stderr)
        return VERIFY_ERROR
    return 0


_FIGURE_DEFAULTS = {
    # which: (m, alpha range, eta range), each range (A, B, N) as `_range` gives it
    "fig1": (3, (0.02, 1.0, 50), (0.0, 1.0, 50)),
    "fig2": (3, (0.02, 1.0, 50), (0.0, 1.0, 50)),
    "fig3": (4, (0.02, 1.0, 50), (0.0, 1.0, 50)),
    # the large-amplitude sweep stops short of the lossless endpoint, where
    # the fidelity trivially climbs to 1; this matches the published plateau
    "fig4": (3, (1.0, 3.0, 50), (0.0, 0.85, 50)),
}


def cmd_figures(args) -> int:
    m_default, alphas, etas = _FIGURE_DEFAULTS[args.which]
    m = m_default if args.m is None else args.m
    if args.alpha_range is not None:
        alphas = _range("--alpha-range", args.alpha_range)
    if args.eta_range is not None:
        etas = _range("--eta-range", args.eta_range)
    # checked before any grid array exists, so a huge N allocates nothing
    size = alphas[2] * etas[2]
    if size > MAX_FIGURE_CELLS:
        ranges = (("--alpha-range", args.alpha_range), ("--eta-range", args.eta_range))
        given = " and ".join(option for option, spec in ranges if spec is not None)
        raise ValueError(f"{given}: a grid of {size:.6g} cells exceeds {MAX_FIGURE_CELLS}")
    a, e = np.meshgrid(np.linspace(*alphas), np.linspace(*etas), indexing="ij")
    v = channel_fidelity(a, e, m=m) if args.which == "fig1" else teleported_fidelity_exact(m, a, e)
    cells = zip(*(grid.ravel().tolist() for grid in (a, e, v)))
    _write(args.out, _table(("alpha", "eta", "value"), "%.9g,%.9g,%.9g", cells))
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(args.seed, args.trials)
    text = "\n".join(r.line() for r in results) + "\n"
    ok = all(r.passed for r in results)
    text += ("all suites passed\n" if ok else "verification FAILED\n")
    _write(args.out, text)
    return 0 if ok else VERIFY_ERROR


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "channel-info": cmd_channel_info,
        "teleport": cmd_teleport,
        "figures": cmd_figures,
        "verify": cmd_verify,
    }
    try:
        if getattr(args, "m", None) is not None and args.m > MAX_MODES:
            raise ValueError(f"--m: 2^(m+1) must stay finite, so m <= {MAX_MODES}, got {args.m}")
        # channel-info and teleport: every closed form scales alpha^2 by 2^(m+1)
        if hasattr(args, "alpha") and math.isinf(2.0 ** (args.m + 1) * args.alpha * args.alpha):
            raise ValueError(f"--alpha: 2^(m+1) alpha^2 must stay finite, got alpha = {args.alpha:g} "
                             f"at m = {args.m}; lower m or alpha")
        return handlers[args.command](args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
