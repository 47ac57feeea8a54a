"""Self-verification suites: every closed-form result is re-derived by the
truncated number-basis engine, and the ambiguous published formulas are
adjudicated by the protocol engine.  Used by the `verify` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

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
    channel_concurrence_oracle,
    concurrence_closed_form,
    schmidt_coefficients,
)
from .noise import (
    channel_fidelity,
    lossy_channel_operator,
    teleported_fidelity_exact,
)
from .teleport import run_protocol, success_probability_closed_form, teleport_through_noise


# ---------------------------------------------------------------------------
# rejected formula variants, kept here where they are adjudicated


def even_success_unsquared_variant(m: int, alpha: complex) -> float:
    """The competing even-parity aggregate with an unsquared numerator.

    Rejected by the engine adjudication: the protocol's even-parity success
    probability on the plus channel carries the squared factor.
    """
    x = (2.0**m) * abs(alpha) ** 2
    return (1.0 - math.exp(-x)) / (2.0 * (1.0 + math.exp(-2.0 * x)))


@dataclass(frozen=True)
class TeleportedFidelityForms:
    """The two candidate closed forms for the lossy teleported fidelity plus
    the engine-exact value.

    `flat` keeps the decoherence exponent 2^m (1-eta)^2 independent of the
    amplitude; `alpha_scaled` multiplies it by |alpha|^2.  The adjudication in
    `adjudicate_teleported_fidelity` below shows the alpha-scaled variant is
    the meaningful candidate (dimensionally consistent, and it converges to
    the engine in the strong-damping regime) while neither candidate is the
    exact law; `exact` is.
    """

    flat: float
    alpha_scaled: float
    exact: float

    @property
    def closest(self) -> str:
        df = abs(self.flat - self.exact)
        da = abs(self.alpha_scaled - self.exact)
        return "alpha_scaled" if da <= df else "flat"


def teleported_fidelity_closed_form(m: int, alpha: complex, eta: float) -> TeleportedFidelityForms:
    """Candidate closed forms for the teleported fidelity through loss."""
    if m < 1:
        raise ValueError("m must be >= 1")
    a2 = abs(alpha) ** 2
    ep = (1.0 - eta) ** 2
    denom = 2.0 * (1.0 - math.exp(-(2.0**m) * a2))
    damped = 1.0 - math.exp(-(2.0**m) * eta * a2)
    flat = (1.0 + math.exp(-(2.0**m) * ep)) * damped / denom
    scaled = (1.0 + math.exp(-(2.0**m) * ep * a2)) * damped / denom
    return TeleportedFidelityForms(
        flat=flat,
        alpha_scaled=scaled,
        exact=teleported_fidelity_exact(m, alpha, eta),
    )


@dataclass(frozen=True)
class FidelityAdjudication:
    grid: tuple[tuple[float, float], ...]
    max_dev_flat: float
    max_dev_alpha_scaled: float
    max_dev_exact: float
    winner: str


def adjudicate_teleported_fidelity(
    m: int = 3,
    alphas: Optional[Iterable[float]] = None,
    etas: Optional[Iterable[float]] = None,
) -> FidelityAdjudication:
    """Compare the engine's teleported fidelity against the candidate forms.

    The default 5x5 grid sits in the strong-damping regime (large alpha,
    small eta), where every contribution beyond the disputed amplitude
    scaling is suppressed below 1e-7: there the alpha-scaled variant tracks
    the engine to better than 1e-6 while the flat variant is off by more
    than 1e-3, a definitive verdict that the decoherence exponent scales
    with |alpha|^2.  On figure-regime grids neither candidate is exact and
    only `teleported_fidelity_exact` follows the engine.
    """
    if alphas is None:
        alphas = np.linspace(2.2, 3.0, 5)
    if etas is None:
        etas = np.linspace(0.05, 0.25, 5)
    grid = []
    dev_flat = dev_scaled = dev_exact = 0.0
    for a in alphas:
        for e in etas:
            report = teleport_through_noise(m, a, e, 1.0, -1.0, n_max=12)
            succ = [o for o in report.outcomes if o.is_success]
            engine = sum(o.probability * o.fidelity for o in succ) / sum(
                o.probability for o in succ
            )
            forms = teleported_fidelity_closed_form(m, a, e)
            dev_flat = max(dev_flat, abs(engine - forms.flat))
            dev_scaled = max(dev_scaled, abs(engine - forms.alpha_scaled))
            dev_exact = max(dev_exact, abs(engine - forms.exact))
            grid.append((float(a), float(e)))
    winner = "alpha_scaled" if dev_scaled < dev_flat else "flat"
    return FidelityAdjudication(
        grid=tuple(grid),
        max_dev_flat=dev_flat,
        max_dev_alpha_scaled=dev_scaled,
        max_dev_exact=dev_exact,
        winner=winner,
    )


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


def _random_superposition(rng: np.random.Generator, modes: int, branches: int) -> CoherentState:
    pairs = []
    for _ in range(branches):
        coeff = complex(rng.normal(), rng.normal())
        amps = [
            rng.uniform(0.1, 1.2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(modes)
        ]
        pairs.append((coeff, tuple(complex(a) for a in amps)))
    return normalized(superposition(pairs))


def oracle_equivalence(seed: int, trials: int) -> SuiteResult:
    """Random states: inner products, beam splitters, measurements and
    fidelities must agree between the exact algebra and the Fock engine."""
    rng = np.random.default_rng(seed)
    # amplitudes stay below 1.2 and one beam splitter at most, so a cutoff of
    # 18 keeps every per-mode Poisson tail under 1e-9
    cutoff = 18
    worst = 0.0
    for t in range(trials):
        modes = int(rng.integers(1, 5))
        x = _random_superposition(rng, modes, int(rng.integers(1, 5)))
        y = _random_superposition(rng, modes, int(rng.integers(1, 5)))
        fx, fy = fock.encode(x, cutoff), fock.encode(y, cutoff)
        dev = abs(inner_product(x, y) - fock.inner(fx, fy))
        worst = max(worst, dev)
        if modes >= 2:
            i, j = rng.choice(modes, size=2, replace=False)
            xb = beam_splitter(x, int(i), int(j))
            fxb = fock.bs_unitary(fx, int(i), int(j))
            dev = abs(fock.inner(fock.encode(xb, cutoff), fxb) - 1.0)
            worst = max(worst, dev)
        mode = int(rng.integers(0, modes))
        n = int(rng.integers(0, 4))
        _, p_coh = project_photon_number(x, mode, n)
        _, p_fock = fock.measure_number(fx, mode, n)
        worst = max(worst, abs(p_coh - p_fock))
        dev = abs(abs(inner_product(x, y)) ** 2 - abs(fock.inner(fx, fy)) ** 2)
        worst = max(worst, dev)
    return SuiteResult(
        "coherent-vs-fock equivalence",
        worst < 1e-6,
        f"{trials} scenarios, worst deviation {worst:.2e}",
    )


def round_trip(seed: int, trials: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    for m in (1, 2, 3):
        for alpha in (0.5, 1.0):
            for _ in range(max(1, trials // 12)):
                k1 = complex(rng.normal(), rng.normal())
                k2 = complex(rng.normal(), rng.normal())
                rep = run_protocol(m, alpha, k1, k2, "minus", n_max=12)
                for o in rep.outcomes:
                    if o.is_success and abs(o.fidelity - 1.0) > 1e-9:
                        return SuiteResult(
                            "round-trip teleportation",
                            False,
                            "corrected success outcome missed fidelity 1",
                            f"m={m} alpha={alpha} outcome=({o.l},{o.n}) F={o.fidelity!r}",
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
                oracle = channel_concurrence_oracle(spec, lone)
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
    engine = sum(
        o.probability
        for o in rep.outcomes
        if o.is_success and ((o.l + o.n) % 2 == 0)
    )
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
    adj = adjudicate_teleported_fidelity()
    # the engine-exact closed form must follow the engine in the figure regime
    worst_exact = 0.0
    for a in (1.0, 1.5, 2.0):
        for e in (0.3, 0.6, 0.9):
            rep = teleport_through_noise(3, a, e, 1.0, -1.0, n_max=10)
            exact = teleported_fidelity_exact(3, a, e)
            worst_exact = max(worst_exact, abs(rep.mean_fidelity - exact))
    ok = (
        adj.winner == "alpha_scaled"
        and adj.max_dev_alpha_scaled < 1e-6
        and adj.max_dev_flat > 1e-3
        and worst_exact < 1e-9
    )
    detail = (
        f"strong-damping grid: alpha-scaled dev {adj.max_dev_alpha_scaled:.1e}, "
        f"flat dev {adj.max_dev_flat:.1e}; verdict: decoherence exponent scales "
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


def probability_kappa_independence(seed: int, trials: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    base = None
    for _ in range(max(2, trials // 10)):
        k1 = complex(rng.normal(), rng.normal())
        k2 = complex(rng.normal(), rng.normal())
        rep = run_protocol(3, 0.8, k1, k2, "minus", n_max=10)
        probs = tuple(o.probability for o in rep.outcomes if o.n % 2 == 1 and o.l == 0)
        if base is None:
            base = probs
        else:
            dev = max(abs(a - b) for a, b in zip(base, probs))
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
)


def run_all(seed: int, trials: int) -> list[SuiteResult]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [suite(seed, trials) for suite in ALL_SUITES]
