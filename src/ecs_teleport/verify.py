"""Self-verification suites, used by the `verify` CLI subcommand.

Every closed-form result is re-derived by the truncated number-basis engine.
Random states are checked on branch matrix-product states through `fock`'s
public calls (`branch_sites`, `split_pair`, `mps_overlap`), and the lossy
protocol is rerun as an MPS by `fock.protocol_table`.  The ambiguous
published formulas are adjudicated by the protocol engine; each suite
returns one `SuiteResult`, and the rejected formula variants live here only.

The seeded scenarios (random states, beam-splitter modes, input coefficients)
come from the standard library's `random.Random(seed)`.  It is already loaded
with NumPy and the suites need only a few hundred scalar draws, while NumPy's
random package would load eleven extension modules and add about 6 MB to the
peak memory of a `verify` process; so no CLI command loads that package.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from . import fock
from .algebra import (
    CoherentState,
    beam_splitter,
    fidelity,
    inner_product,
    normalized,
    project_photon_number,
    superposition,
)
from .channels import (
    ChannelSpec,
    build_channel,
    concurrence_closed_form,
    schmidt_coefficients,
)
from .noise import (
    channel_fidelity,
    lossy_channel_operator,
    teleported_fidelity_exact,
)
from .teleport import run_protocol, success_probability_closed_form


# ---------------------------------------------------------------------------
# rejected formula variants, kept here where they are adjudicated


def even_success_unsquared_variant(m: int, alpha: complex) -> float:
    """The competing even-parity aggregate with an unsquared numerator.

    Rejected by the engine adjudication: the protocol's even-parity success
    probability on the plus channel carries the squared factor.
    """
    x = (2.0**m) * abs(alpha) ** 2
    return (1.0 - math.exp(-x)) / (2.0 * (1.0 + math.exp(-2.0 * x)))


def teleported_fidelity_closed_form(m: int, alpha: complex, eta: float) -> tuple[float, float]:
    """The two candidate closed forms (flat, alpha_scaled) for the teleported
    fidelity through loss.

    `flat` keeps the decoherence exponent 2^m (1-eta)^2 independent of the
    amplitude; `alpha_scaled` multiplies it by |alpha|^2.  The adjudication in
    `noisy_fidelity_adjudication` below shows the alpha-scaled variant is the
    meaningful candidate (dimensionally consistent, and it converges to the
    engine in the strong-damping regime) while neither candidate is the exact
    law; `teleported_fidelity_exact` is.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    a2 = abs(alpha) ** 2
    ep = (1.0 - eta) ** 2
    denom = 2.0 * (1.0 - math.exp(-(2.0**m) * a2))
    damped = 1.0 - math.exp(-(2.0**m) * eta * a2)
    flat = (1.0 + math.exp(-(2.0**m) * ep)) * damped / denom
    scaled = (1.0 + math.exp(-(2.0**m) * ep * a2)) * damped / denom
    return flat, scaled


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    failure: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"[{status}] {self.name}: {self.detail}"
        if not self.passed and self.failure:
            msg += f"  (first failure: {self.failure})"
        return msg


def _random_superposition(rng: random.Random, modes: int, branches: int) -> CoherentState:
    pairs = []
    for _ in range(branches):
        coeff = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        amps = tuple(
            rng.uniform(0.1, 1.2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(modes)
        )
        pairs.append((coeff, amps))
    return normalized(superposition(pairs))


def _fock_mps(state: CoherentState, order: list[int], dim: int) -> list[np.ndarray]:
    """The Fock engine's branch MPS of `state`, its modes taken in `order`."""
    return fock.branch_sites(state.labels[:, order], state.coeffs, [dim] * len(order))


def _pair_as_site(sites: list[np.ndarray], pair: np.ndarray) -> list[np.ndarray]:
    """`sites` with its first two sites replaced by the two-site tensor `pair`,
    whose two levels are read as one."""
    left, di, dj, right = pair.shape
    return [pair.reshape(left, di * dj, right)] + sites[2:]


def oracle_equivalence(seed: int, trials: int) -> SuiteResult:
    """Random states: inner products, beam splitters, measurements and
    fidelities must agree between the exact algebra and the Fock engine.

    The Fock side holds each state as the branch MPS `fock.branch_sites`
    builds (one site per mode, the branch as the bond), so no array grows
    past K^2 (cutoff + 1)^2 entries for K branches.  Overlaps contract two
    MPSs site by site.  The beam splitter on modes (i, j) is `fock.split_pair`
    on the first two sites of the MPS in the mode order [i, j, rest...],
    exact, with no SVD.  A photon count slices one site, and its probability
    is the squared norm of what is left.

    The scenarios are drawn from `random.Random(seed)`, the standard
    library's generator: a handful of scalar draws per scenario, which do not
    justify loading NumPy's random package (and its memory) into the CLI.
    """
    rng = random.Random(seed)
    # amplitudes stay below 1.2 and one beam splitter at most, so a cutoff of
    # 18 keeps every per-mode Poisson tail under 1e-9
    cutoff = 18
    d = cutoff + 1
    worst = 0.0
    for t in range(trials):
        modes = rng.randrange(1, 5)
        x = _random_superposition(rng, modes, rng.randrange(1, 5))
        y = _random_superposition(rng, modes, rng.randrange(1, 5))
        natural = list(range(modes))
        fx, fy = _fock_mps(x, natural, d), _fock_mps(y, natural, d)
        fock_xy = fock.mps_overlap(fx, fy)
        worst = max(worst, abs(inner_product(x, y) - fock_xy))
        if modes >= 2:
            i, j = rng.sample(range(modes), 2)
            order = [i, j] + [k for k in natural if k not in (i, j)]
            fxo = _fock_mps(x, order, d)
            pair = np.tensordot(fxo[0], fxo[1], axes=1)
            fxb = _pair_as_site(fxo, fock.split_pair(pair))
            ref = _fock_mps(beam_splitter(x, i, j), order, d)
            ref = _pair_as_site(ref, np.tensordot(ref[0], ref[1], axes=1))
            worst = max(worst, abs(fock.mps_overlap(ref, fxb) - 1.0))
        mode = rng.randrange(0, modes)
        n = rng.randrange(0, 4)
        _, p_coh = project_photon_number(x, mode, n)
        sliced = fx[:mode] + [fx[mode][:, n : n + 1]] + fx[mode + 1 :]
        worst = max(worst, abs(p_coh - fock.mps_overlap(sliced, sliced).real))
        dev = abs(abs(inner_product(x, y)) ** 2 - abs(fock_xy) ** 2)
        worst = max(worst, dev)
    return SuiteResult(
        "coherent-vs-fock equivalence",
        worst < 1e-6,
        f"{trials} scenarios, worst deviation {worst:.2e}",
    )


def round_trip(seed: int, trials: int) -> SuiteResult:
    rng = random.Random(seed)
    for m in (1, 2, 3):
        for alpha in (0.5, 1.0):
            for _ in range(max(1, trials // 12)):
                k1 = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                k2 = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                rep = run_protocol(m, alpha, k1, k2, "minus", n_max=12)
                missed = np.flatnonzero((rep.l + rep.n > 0) & (np.abs(rep.fidelity - 1.0) > 1e-9))
                if missed.size:
                    i = missed[0]
                    return SuiteResult(
                        "round-trip teleportation",
                        False,
                        "corrected success outcome missed fidelity 1",
                        f"m={m} alpha={alpha} outcome=({rep.l[i]},{rep.n[i]}) F={rep.fidelity[i].item()!r}",
                    )
    return SuiteResult(
        "round-trip teleportation",
        True,
        "all corrected success outcomes reach fidelity 1 within 1e-9",
    )


def born_completeness(seed: int = 0, trials: int = 0) -> SuiteResult:
    rep = run_protocol(3, 1.0, 1 / math.sqrt(2), 1 / math.sqrt(2), "minus")
    dev = abs(rep.total_probability - 1.0)
    if dev > 1e-9:
        return SuiteResult(
            "outcome completeness", False, f"probabilities sum to 1 {dev:.2e} off",
            "m=3 alpha=1.0",
        )
    return SuiteResult(
        "outcome completeness", True, f"sum of outcome probabilities off by {dev:.2e}"
    )


def concurrence_cross_checks(seed: int = 0, trials: int = 0) -> SuiteResult:
    worst = 0.0
    worst_case = ""
    for alpha in (0.3, 0.7, 1.0, 1.5, 2.0):
        for sign in ("plus", "minus"):
            spec = ChannelSpec(3, alpha, sign)
            for lone in range(4):
                closed = concurrence_closed_form(spec, lone)
                oracle = fock.channel_concurrence_oracle(spec, lone)
                if abs(closed - oracle) > worst:
                    worst = abs(closed - oracle)
                    worst_case = f"alpha={alpha} sign={sign} mode={lone}"
    # generalized minus channel stays maximally entangled across 0|(rest)
    for m in range(1, 7):
        pair = schmidt_coefficients(
            build_channel(ChannelSpec(m, 1.0, "minus")),
            ((0,), tuple(range(1, m + 1))),
        )
        if abs(pair.concurrence - 1.0) > 1e-9:
            return SuiteResult(
                "concurrence cross-checks", False,
                "minus-channel concurrence missed 1", f"m={m}",
            )
    return SuiteResult(
        "concurrence cross-checks",
        worst < 1e-6,
        f"closed form vs numeric Wootters, worst deviation {worst:.2e} ({worst_case})",
    )


def even_parity_adjudication(seed: int = 0, trials: int = 0) -> SuiteResult:
    """Squared vs unsquared numerator in the even-parity success probability."""
    alpha = 0.7
    rep = run_protocol(3, alpha, 1 / math.sqrt(2), 1 / math.sqrt(2), "plus", n_max=40)
    counts = rep.l + rep.n
    even = rep.probability[(counts > 0) & (counts % 2 == 0)]
    # cumsum adds in row order, as a sum over the rows does
    engine = float(even.cumsum()[-1]) if even.size else 0.0
    squared = success_probability_closed_form(3, alpha, "even")
    unsquared = even_success_unsquared_variant(3, alpha)
    ok = abs(engine - squared) < 1e-9 and abs(engine - unsquared) > 1e-3
    detail = (
        f"engine {engine:.9f}; squared-numerator form {squared:.9f} "
        f"(dev {abs(engine - squared):.1e}), unsquared {unsquared:.9f} "
        f"(dev {abs(engine - unsquared):.1e}); verdict: squared numerator"
    )
    return SuiteResult("even-parity success adjudication", ok, detail)


def noisy_fidelity_adjudication(seed: int = 0, trials: int = 0) -> SuiteResult:
    """Compare the engine's teleported fidelity against the candidate forms.

    The 5x5 grid sits in the strong-damping regime (large alpha, small eta),
    where every contribution beyond the disputed amplitude scaling is
    suppressed below 1e-7: there the alpha-scaled variant tracks the engine
    to better than 1e-6 while the flat variant is off by more than 1e-3, a
    definitive verdict that the decoherence exponent scales with |alpha|^2.
    On figure-regime grids neither candidate is exact and only
    `teleported_fidelity_exact` follows the engine.
    """
    dev_flat = dev_scaled = 0.0
    for a in np.linspace(2.2, 3.0, 5):
        for e in np.linspace(0.05, 0.25, 5):
            engine = run_protocol(3, a, 1.0, -1.0, "minus", n_max=12, eta=e).mean_fidelity
            flat, scaled = teleported_fidelity_closed_form(3, a, e)
            dev_flat = max(dev_flat, abs(engine - flat))
            dev_scaled = max(dev_scaled, abs(engine - scaled))
    # the engine-exact closed form must follow the engine in the figure regime
    worst_exact = 0.0
    for a in (1.0, 1.5, 2.0):
        for e in (0.3, 0.6, 0.9):
            rep = run_protocol(3, a, 1.0, -1.0, "minus", n_max=10, eta=e)
            exact = teleported_fidelity_exact(3, a, e)
            worst_exact = max(worst_exact, abs(rep.mean_fidelity - exact))
    ok = dev_scaled < 1e-6 and dev_flat > 1e-3 and worst_exact < 1e-9
    detail = (
        f"strong-damping grid: alpha-scaled dev {dev_scaled:.1e}, "
        f"flat dev {dev_flat:.1e}; verdict: decoherence exponent scales "
        f"with |alpha|^2; engine-exact form follows the engine to {worst_exact:.1e} "
        f"in the figure regime"
    )
    return SuiteResult("lossy teleported-fidelity adjudication", ok, detail)


def lossy_channel_fidelity(seed: int = 0, trials: int = 0) -> SuiteResult:
    worst = 0.0
    for alpha in (0.3, 1.0, 2.0):
        for eta in (0.15, 0.5, 0.85, 1.0):
            rho_pe = lossy_channel_operator(3, alpha, eta)
            ref_amp = math.sqrt(eta) * alpha
            ref = build_channel(ChannelSpec(3, ref_amp, "minus"))
            dev = abs(fidelity(ref, rho_pe) - channel_fidelity(alpha, eta))
            worst = max(worst, dev)
    return SuiteResult(
        "lossy channel fidelity",
        worst < 1e-9,
        f"operator trace vs closed form, worst deviation {worst:.2e}",
    )


def lossy_protocol_oracle(seed: int = 0, trials: int = 0) -> SuiteResult:
    """The Fock MPS outcome table against the coherent protocol through loss."""
    k1, k2 = 0.8, -0.35 + 0.45j
    worst, worst_case = 0.0, ""
    for eta in (0.3, 0.6):
        rep = run_protocol(2, 1.0, k1, k2, "minus", eta=eta)
        table = fock.protocol_table(2, 1.0, k1, k2, "minus", eta)
        dev = float(table.deviations(rep.l, rep.n, rep.probability).max())
        if dev >= worst:
            worst, worst_case = dev, f"m=2 alpha=1.0 eta={eta}"
    return SuiteResult(
        "lossy protocol vs Fock MPS",
        worst < 1e-6,
        f"outcome tables, worst deviation {worst:.2e} ({worst_case})",
    )


def probability_kappa_independence(seed: int, trials: int) -> SuiteResult:
    rng = random.Random(seed)
    base = None
    for _ in range(max(2, trials // 10)):
        k1 = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        k2 = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        rep = run_protocol(3, 0.8, k1, k2, "minus", n_max=10)
        probs = rep.probability[(rep.n % 2 == 1) & (rep.l == 0)]
        if base is None:
            base = probs
        else:
            common = min(len(base), len(probs))
            dev = float(np.abs(base[:common] - probs[:common]).max())
            if dev > 1e-9:
                return SuiteResult(
                    "odd-outcome probability independence", False,
                    f"probabilities moved by {dev:.2e} across inputs",
                    f"k1={k1} k2={k2}",
                )
    return SuiteResult(
        "odd-outcome probability independence", True,
        "odd-count outcome probabilities are input-independent within 1e-9",
    )


ALL_SUITES = (
    oracle_equivalence,
    round_trip,
    born_completeness,
    concurrence_cross_checks,
    probability_kappa_independence,
    even_parity_adjudication,
    lossy_channel_fidelity,
    noisy_fidelity_adjudication,
    lossy_protocol_oracle,
)


def run_all(seed: int, trials: int) -> list[SuiteResult]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [suite(seed, trials) for suite in ALL_SUITES]
