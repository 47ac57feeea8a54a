"""Photon-absorption loss channel and teleportation through a lossy channel.

Loss with transmissivity eta couples each mode to a vacuum environment via a
beam splitter, |g>|0>_E -> |sqrt(eta) g>|sqrt(1-eta) g>_E, and traces the
environment.  On a coherent-label operator this scales every dictionary
amplitude by sqrt(eta) and damps the (j, k) coefficient by the environment
overlap prod_m <sqrt(1-eta) g_k,m | sqrt(1-eta) g_j,m>, all in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .algebra import (
    MIN_AMPLITUDE,
    CoherentLabel,
    CoherentOperator,
    CoherentSuperposition,
    op_tensor,
    overlap,
)
from .channels import ChannelSpec, build_channel, build_input
from .teleport import ProtocolReport, default_n_max, enumerate_outcomes, fold_network


@dataclass(frozen=True)
class LossModel:
    """Beam-splitter loss with energy transmissivity eta in [0, 1]."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


def apply_loss(
    state: Union[CoherentSuperposition, CoherentOperator],
    model: LossModel,
    modes: Optional[Iterable[int]] = None,
) -> CoherentOperator:
    """Send `state` through per-mode photon loss; returns a density operator.

    Composing two losses multiplies the transmissivities (beam-splitter loss
    semigroup); eta=1 returns |state><state| (or the operator) unchanged.
    """
    op = state if isinstance(state, CoherentOperator) else CoherentOperator.from_pure(state)
    if modes is None:
        modes = range(op.mode_count)
    modes = sorted(set(modes))
    for m in modes:
        if not 0 <= m < op.mode_count:
            raise IndexError(f"mode {m} out of range")
    root_t = math.sqrt(model.eta)
    root_r = math.sqrt(1.0 - model.eta)
    k = len(op.labels)
    damp = np.ones((k, k), dtype=complex)
    for j in range(k):
        for l in range(k):
            f = 1.0 + 0j
            for m in modes:
                f *= overlap(root_r * op.labels[l].amps[m], root_r * op.labels[j].amps[m])
            damp[j, l] = f
    new_labels = []
    for lab in op.labels:
        amps = list(lab.amps)
        for m in modes:
            amps[m] = root_t * amps[m]
        new_labels.append(CoherentLabel(tuple(amps)))
    return CoherentOperator(tuple(new_labels), op.coeffs * damp).dedupe()


def channel_fidelity(alpha: complex, eta: float, m: int = 3) -> float:
    """Overlap fidelity between the lossy channel and the ideal channel at the
    transmitted amplitude sqrt(eta) alpha.

    With z = 2^{m+1} |alpha|^2:

        F = (1 - e^{-z eta}) (1 + e^{-z (1-eta)}) / (2 (1 - e^{-z})),

    exactly tr(rho_ideal(sqrt(eta) alpha) rho_lossy).  F = 1 at eta = 1 and
    F = 1/2 identically at eta = 1/2.
    """
    if abs(alpha) < MIN_AMPLITUDE:
        raise ValueError("|alpha| too small")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    z = (2.0 ** (m + 1)) * abs(alpha) ** 2
    # expm1 keeps both 1 - exp(.) factors exact at small z
    return math.expm1(-z * eta) * (1.0 + math.exp(-z * (1.0 - eta))) / (2.0 * math.expm1(-z))


def lossy_channel_operator(m: int, alpha: complex, eta: float, sign: str = "minus") -> CoherentOperator:
    """The channel state after per-mode loss, as a unit-trace operator."""
    chan = build_channel(ChannelSpec(m=m, alpha=alpha, sign=sign))
    return apply_loss(chan, LossModel(eta))


def teleport_through_noise(
    m: int,
    alpha: complex,
    eta: float,
    kappa1: complex,
    kappa2: complex,
    sign: str = "minus",
    n_max: Optional[int] = None,
) -> ProtocolReport:
    """Run the protocol over a channel that suffered photon loss.

    The partners know the transmissivity, so Alice prepares her input at the
    transmitted amplitude sqrt(eta) alpha; the fold network then empties the
    same modes as in the lossless run and the outcome bookkeeping is
    unchanged.  Per-outcome fidelities are scored against that input.  Only
    this matched-amplitude reading keeps the protocol's postselection
    structure intact; an input at the bare amplitude would interfere
    imperfectly and leak probability into mixed (l>0, n>0) records.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    beta = math.sqrt(eta) * alpha
    if abs(beta) < MIN_AMPLITUDE:
        raise ValueError("sqrt(eta) * |alpha| too small; the protocol degenerates")
    inp = build_input(m, beta, kappa1, kappa2)
    rho_pe = lossy_channel_operator(m, alpha, eta, sign)
    joint = op_tensor(CoherentOperator.from_pure(inp), rho_pe)
    folded = fold_network(joint, m)
    if n_max is None:
        n_max = default_n_max(m, beta)
    return enumerate_outcomes(folded, m, n_max, sign=sign, reference=inp)


# ---------------------------------------------------------------------------
# closed forms for the teleported fidelity


def teleported_fidelity_exact(m: int, alpha: complex, eta: float) -> float:
    """Exact per-outcome fidelity of the corrected teleported state for the
    odd-cat input (kappa1 = -kappa2), derived from the engine and confirmed
    against it to 1e-9.

    With e = exp(-2^m eta |alpha|^2) (damped-input branch overlap) and
    d = exp(-2^{m+1} (1-eta) |alpha|^2) (channel decoherence factor):

        F = (1 - e)(1 + d) / (2 (1 - d e)).

    The same value holds for every success outcome, both parities, once the
    corrections are applied; it is 1 exactly at eta = 1 and tends to
    eta / (2 - eta) as alpha -> 0, the value returned at alpha = 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    u = (2.0**m) * eta * abs(alpha) ** 2  # e = exp(-u)
    v = (2.0 ** (m + 1)) * (1.0 - eta) * abs(alpha) ** 2  # d = exp(-v)
    if u + v == 0.0:
        return eta / (2.0 - eta)
    # 1 - e and 1 - d e through expm1, exact at small alpha
    return math.expm1(-u) * (1.0 + math.exp(-v)) / (2.0 * math.expm1(-(u + v)))


@dataclass(frozen=True)
class TeleportedFidelityForms:
    """The two candidate closed forms for the lossy teleported fidelity plus
    the engine-exact value.

    `flat` keeps the decoherence exponent 2^m (1-eta)^2 independent of the
    amplitude; `alpha_scaled` multiplies it by |alpha|^2.  The adjudication in
    `noise.adjudicate_teleported_fidelity` shows the alpha-scaled variant is
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
