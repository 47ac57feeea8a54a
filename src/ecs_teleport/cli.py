"""Command-line front end: channel reports, protocol runs, figure-data sweeps
and the self-verification suite.

Exit codes: 0 success, 1 usage error, 2 verification failure.  All CSV output
is UTF-8 with a header row, values at 9 significant digits, rows ordered
lexicographically, so byte-for-byte determinism holds for a fixed invocation.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import fock, verify
from .algebra import inner_product
from .channels import (
    ChannelSpec,
    build_channel,
    channel_amplitudes,
    channel_concurrence_oracle,
    concurrence_closed_form,
    norm_constant,
)
from .noise import channel_fidelity, teleported_fidelity_exact
from .teleport import default_n_max, run_protocol, success_probability_closed_form

USAGE_ERROR = 1
VERIFY_ERROR = 2
# outcome mass the teleport table may miss before it warns on stderr
MISSING_MASS_TOL = 1e-9
# largest photon count the teleport table enumerates; its arrays grow with it
MAX_N_MAX = 200_000


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


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return ""
    return f"{value:.9g}"


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
        p.add_argument("--m", type=int, default=None, help="number of teleported modes")
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
    p_tel.add_argument("--engine", choices=("closed_form", "coherent", "all"), default="coherent")

    p_fig = sub.add_parser("figures", help="emit the (alpha, eta) fidelity grids as CSV")
    p_fig.add_argument("which", choices=("fig1", "fig2", "fig3", "fig4"))
    p_fig.add_argument("--m", type=int, default=None, help="number of teleported modes")
    p_fig.add_argument("--alpha-range", nargs=3, metavar=("A", "B", "N"), default=None,
                       help="sweep alpha over N points in [A, B]")
    p_fig.add_argument("--eta-range", nargs=3, metavar=("A", "B", "N"), default=None,
                       help="sweep eta over N points in [A, B]")
    p_fig.add_argument("--out", default=None, help="output path (default stdout)")

    p_ver = sub.add_parser("verify", help="run the self-verification suites")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=50)
    p_ver.add_argument("--out", default=None)
    return parser


def _range(spec, fallback: Sequence[float]) -> np.ndarray:
    if spec is None:
        return np.asarray(fallback, dtype=float)
    a, b, n = float(spec[0]), float(spec[1]), int(spec[2])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"range ends must be finite, got {spec[0]} and {spec[1]}")
    if n < 2:
        raise ValueError("range needs at least 2 steps")
    return np.linspace(a, b, n)


def cmd_channel_info(args) -> int:
    m = 3 if args.m is None else args.m
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
        oracle = channel_concurrence_oracle(spec, k)
        lines.append(f"  mode {k} | rest: {closed:.6f} / {oracle:.6f}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _teleport_rows(args, m: int):
    k1 = complex(args.kappa1_re, args.kappa1_im)
    k2 = complex(args.kappa2_re, args.kappa2_im)
    n_max = default_n_max(m, args.alpha)
    if n_max > MAX_N_MAX:
        raise ValueError(
            f"outcome table needs photon counts up to {n_max} (limit {MAX_N_MAX}); lower m or alpha"
        )
    report = run_protocol(m, args.alpha, k1, k2, args.sign, n_max=n_max, eta=args.eta)
    return report, k1, k2


def _oracle_outcomes(m: int, alpha: float, k1, k2, sign: str, n_max: int):
    """Protocol outcome table from the Fock engine (noiseless runs only)."""
    from .channels import build_input
    from .algebra import tensor
    from .teleport import fold_pairs

    inp = build_input(m, alpha, k1, k2)
    chan = build_channel(ChannelSpec(m=m, alpha=alpha, sign=sign))
    joint = tensor(inp, chan)
    # per-mode dims sized from the amplitudes the fold cascade reaches
    lam = (np.abs(joint.labels).max(axis=0) ** 2).tolist()
    lam[m - 1] = lam[m] = (2.0**m) * alpha**2
    if m >= 2:
        lam[: m - 1] = [2.0 ** (m - 1) * alpha**2] * (m - 1)
    cuts = [math.ceil(l + 5.0 * math.sqrt(l + 1.0) + 5.0) for l in lam]
    if np.prod([c + 1 for c in cuts]) > 6e7:
        raise ValueError(
            "oracle engine infeasible for these parameters; lower m or alpha"
        )
    vec = fock.encode(joint, cuts)
    for i, j in fold_pairs(m):
        vec = fock.bs_unitary(vec, i, j)
    table = {}
    for n in range(min(n_max, min(cuts) - 1) + 1):
        sliced, _ = fock.measure_number(vec, m, n)
        red, p = fock.measure_number(sliced, m - 1, 0)
        table[(0, n)] = p
    for l in range(1, min(n_max, min(cuts) - 1) + 1):
        sliced, _ = fock.measure_number(vec, m, 0)
        red, p = fock.measure_number(sliced, m - 1, l)
        table[(l, 0)] = p
    return table


def cmd_teleport(args) -> int:
    m = 3 if args.m is None else args.m
    report, k1, k2 = _teleport_rows(args, m)
    engine = args.engine
    if engine == "all":
        if args.eta < 1.0:
            raise ValueError("the oracle engine covers noiseless runs only")
        oracle_table = _oracle_outcomes(m, args.alpha, k1, k2, args.sign, 20)
    header = ["l", "n", "probability", "correction", "fidelity"]
    if engine == "all":
        header.append("engine_disagreement")
    rows = []
    cat_input = abs(abs(k1) - abs(k2)) < 1e-12 and abs((k1 * k2.conjugate()).imag) < 1e-12
    minus_cat = cat_input and (k1 * k2.conjugate()).real < 0
    for o in sorted(report.outcomes, key=lambda o: (o.l, o.n)):
        if engine == "closed_form":
            prob = _closed_form_probability(m, args.alpha, args.sign, o.l, o.n)
            fid = _closed_form_fidelity(m, args.alpha, args.eta, minus_cat, cat_input, o)
            row = [str(o.l), str(o.n), _fmt(prob) if prob is not None else "",
                   o.correction, _fmt(fid) if fid is not None else ""]
        else:
            row = [str(o.l), str(o.n), _fmt(o.probability), o.correction, _fmt(o.fidelity)]
        if engine == "all":
            dev = ""
            if (o.l, o.n) in oracle_table:
                dev = _fmt(abs(o.probability - oracle_table[(o.l, o.n)]))
            row.append(dev)
        rows.append(",".join(row))
    total = report.total_probability
    if 1.0 - total > MISSING_MASS_TOL:
        print(f"warning: outcome probabilities sum to {total!r}; "
              f"{1.0 - total:.3g} of the mass is missing", file=sys.stderr)
    footer = [
        ("total_probability", total),
        ("success_probability", report.success_probability),
        ("mean_fidelity", report.mean_fidelity),
        ("closed_form_odd_aggregate", success_probability_closed_form(m, args.alpha, "odd")),
        ("closed_form_even_aggregate_squared", success_probability_closed_form(m, args.alpha, "even")),
    ]
    odd_dev = _max_odd_closed_form_dev(report, m, args.alpha, args.sign, args.eta)
    if odd_dev is not None:
        footer.append(("max_odd_outcome_closed_form_deviation", odd_dev))
    pad = [""] * (len(header) - 2)
    lines = [",".join(header)]
    lines += rows
    lines += [",".join([name, _fmt(val)] + pad) for name, val in footer]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _closed_form_probability(m, alpha, sign, l, n):
    count = n if l == 0 else l
    if count == 0:
        return None
    odd = count % 2 == 1
    if sign == "minus" and odd:
        return success_probability_closed_form(m, alpha, "odd", count)
    if sign == "plus" and not odd:
        return success_probability_closed_form(m, alpha, "even", count)
    return None  # input-dependent branch, no universal closed form


def _closed_form_fidelity(m, alpha, eta, minus_cat, cat_input, outcome):
    if not outcome.is_success:
        return None
    if eta >= 1.0:
        return 1.0
    if minus_cat:
        return teleported_fidelity_exact(m, alpha, eta)
    return None


def _max_odd_closed_form_dev(report, m, alpha, sign, eta):
    if sign != "minus" or eta < 1.0:
        return None
    devs = [
        abs(o.probability - success_probability_closed_form(m, alpha, "odd", max(o.l, o.n)))
        for o in report.outcomes
        if o.is_success and (o.l + o.n) % 2 == 1
    ]
    return max(devs) if devs else None


_FIGURE_DEFAULTS = {
    # which: (m, alpha grid, eta grid)
    "fig1": (3, np.linspace(0.02, 1.0, 50), np.linspace(0.0, 1.0, 50)),
    "fig2": (3, np.linspace(0.02, 1.0, 50), np.linspace(0.0, 1.0, 50)),
    "fig3": (4, np.linspace(0.02, 1.0, 50), np.linspace(0.0, 1.0, 50)),
    # the large-amplitude sweep stops short of the lossless endpoint, where
    # the fidelity trivially climbs to 1; this matches the published plateau
    "fig4": (3, np.linspace(1.0, 3.0, 50), np.linspace(0.0, 0.85, 50)),
}


def cmd_figures(args) -> int:
    m_default, alphas, etas = _FIGURE_DEFAULTS[args.which]
    m = m_default if args.m is None else args.m
    alphas = _range(args.alpha_range, alphas)
    etas = _range(args.eta_range, etas)
    lines = ["alpha,eta,value"]
    for a in alphas:
        for e in etas:
            if args.which == "fig1":
                v = channel_fidelity(a, e, m=m)
            else:
                v = teleported_fidelity_exact(m, a, e)
            lines.append(f"{_fmt(a)},{_fmt(e)},{_fmt(v)}")
    _write(args.out, "\n".join(lines) + "\n")
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
        return handlers[args.command](args)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
