"""Photon-absorption loss channel and the closed forms of its fidelities.

Loss with transmissivity eta couples each mode to a vacuum environment via a
beam splitter, |g>|0>_E -> |sqrt(eta) g>|sqrt(1-eta) g>_E, and traces the
environment.  On a coherent-label state this scales every label amplitude by
sqrt(eta) and damps the (j, k) coefficient by the environment overlap
prod_m <sqrt(1-eta) g_k,m | sqrt(1-eta) g_j,m>, all in closed form.  The
protocol driver, `teleport.run_protocol`, sends its channel through
`lossy_channel_operator`.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np
from numpy.typing import ArrayLike

from .algebra import CoherentState, check_modes, trace_out
from .channels import ChannelSpec, build_channel


def apply_loss(
    state: CoherentState,
    eta: float,
    modes: Optional[Iterable[int]] = None,
) -> CoherentState:
    """Send `state` through per-mode photon loss; returns a density operator.

    `eta` is the energy transmissivity, in [0, 1].  Each lossy mode gets an
    environment mode holding sqrt(1-eta) of its amplitude, keeps sqrt(eta) of
    it, and the environment is traced out.
    Composing two losses multiplies the transmissivities (beam-splitter loss
    semigroup); eta=1 returns |state><state| (or the operator) unchanged.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    count = state.mode_count
    modes = check_modes(count, range(count) if modes is None else modes)
    labels = state.labels.copy()
    env = math.sqrt(1.0 - eta) * labels[:, modes]
    labels[:, modes] *= math.sqrt(eta)
    joint = CoherentState(np.concatenate([labels, env], axis=1), state.coeffs)
    return trace_out(joint, range(count, count + len(modes)))


def _checked_eta(m: int, eta: ArrayLike) -> np.ndarray:
    """`eta` as an array, after the domain checks shared by the closed forms."""
    if m < 1:
        raise ValueError("m must be >= 1")
    eta = np.asarray(eta, dtype=float)
    if not np.all((0.0 <= eta) & (eta <= 1.0)):
        raise ValueError("eta must lie in [0, 1]")
    return eta


def _at_eta_edges(fid: np.ndarray, eta: np.ndarray) -> float | np.ndarray:
    """`fid` with F = eta, exact for every alpha, where eta is 0 or 1; a float for scalars.

    The closed forms let 2^(m+1) |alpha|^2 overflow to inf, and their
    exponentials take inf to the large-alpha limits; only at eta = 0 or 1
    does inf meet a zero factor, and this sets those cells.
    """
    fid = np.where((eta == 0.0) | (eta == 1.0), eta, fid)
    return fid if fid.ndim else float(fid)


def channel_fidelity(alpha: ArrayLike, eta: ArrayLike, m: int = 3) -> float | np.ndarray:
    """Overlap fidelity between the lossy channel and the ideal channel at the
    transmitted amplitude sqrt(eta) alpha.

    With z = 2^{m+1} |alpha|^2:

        F = (1 - e^{-z eta}) (1 + e^{-z (1-eta)}) / (2 (1 - e^{-z})),

    exactly tr(rho_ideal(sqrt(eta) alpha) rho_lossy).  F = 1 at eta = 1,
    F = 1/2 identically at eta = 1/2, and F tends to eta as alpha -> 0, the
    value returned at alpha = 0.  F = 0 at eta = 0 for every alpha; where z
    overflows a double, F takes its large-alpha limit 1/2 for 0 < eta < 1.
    `alpha` and `eta` broadcast against each other; scalars give a float.
    """
    eta = _checked_eta(m, eta)
    with np.errstate(over="ignore", invalid="ignore"):  # see `_at_eta_edges`
        z = (2.0 ** (m + 1)) * np.square(np.abs(alpha))
        # expm1 keeps both 1 - exp(.) factors exact at small z; the divisor skips
        # z = 0, where the limit stands in
        fid = np.where(z == 0.0, eta, np.expm1(-z * eta) * (1.0 + np.exp(-z * (1.0 - eta)))
                       / (2.0 * np.expm1(-np.where(z == 0.0, 1.0, z))))
    return _at_eta_edges(fid, eta)


def lossy_channel_operator(m: int, alpha: complex, eta: float, sign: str = "minus") -> CoherentState:
    """The channel state after per-mode loss, as a unit-trace operator."""
    chan = build_channel(ChannelSpec(m=m, alpha=alpha, sign=sign))
    return apply_loss(chan, eta)


# ---------------------------------------------------------------------------
# closed forms for the teleported fidelity


def teleported_fidelity_exact(m: int, alpha: ArrayLike, eta: ArrayLike) -> float | np.ndarray:
    """Exact per-outcome fidelity of the corrected teleported state for the
    odd-cat input (kappa1 = -kappa2), derived from the engine and confirmed
    against it to 1e-9.

    With e = exp(-2^m eta |alpha|^2) (damped-input branch overlap) and
    d = exp(-2^{m+1} (1-eta) |alpha|^2) (channel decoherence factor):

        F = (1 - e)(1 + d) / (2 (1 - d e)).

    The same value holds for every success outcome, both parities, once the
    corrections are applied; it is 1 exactly at eta = 1, 0 at eta = 0, and
    tends to eta / (2 - eta) as alpha -> 0, the value returned at alpha = 0.
    Where 2^{m+1} |alpha|^2 overflows a double, F takes its large-alpha
    limit 1/2 for 0 < eta < 1.  `alpha` and `eta` broadcast against each
    other; scalars give a float.
    """
    eta = _checked_eta(m, eta)
    with np.errstate(over="ignore", invalid="ignore"):  # see `_at_eta_edges`
        a2 = np.square(np.abs(alpha))
        u = (2.0**m) * eta * a2  # e = exp(-u)
        v = (2.0 ** (m + 1)) * (1.0 - eta) * a2  # d = exp(-v)
        # 1 - e and 1 - d e through expm1, exact at small alpha
        fid = np.where(u + v == 0.0, eta / (2.0 - eta), np.expm1(-u) * (1.0 + np.exp(-v))
                       / (2.0 * np.expm1(-np.where(u + v == 0.0, 1.0, u + v))))
    return _at_eta_edges(fid, eta)
