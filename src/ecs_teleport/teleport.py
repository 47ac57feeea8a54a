"""Teleportation protocol: fold network, joint photon-number measurement,
classical correction, and closed-form success probabilities.

Global mode convention: the joint system carries the m input modes first
(0..m-1) and the m+1 channel modes after (m..2m).  The fold network cascades
50/50 beam splitters R_{m-1,m-2}, ..., R_{m-1,0}, then R_{m-1,m}; it empties
input modes 0..m-2 exactly and concentrates the interference on the measured
pair (mode m-1, mode m).  Bob holds modes m+1..2m.

`run_protocol` is the one protocol driver.  The channel always passes
through photon loss of transmissivity eta; the lossless protocol is its
eta = 1 run, where the loss is the identity.  `enumerate_outcomes` computes
the whole outcome table in one vectorized pass over the folded label array:
Bob's Gram matrix and the reference overlaps do not depend on the record, so
every (l, n) probability and fidelity follows from one matrix of
measured-mode number amplitudes.  `bob_state` builds Bob's corrected state
for one record on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .algebra import (
    MIN_AMPLITUDE,
    CoherentState,
    UnsupportedStructureError,
    beam_splitter,
    dedupe_index,
    default_cutoff,
    gram,
    normalized,
    number_amplitudes,
    phase_shift_pi,
    project_photon_number,
    tensor,
)
from .channels import build_input
from .noise import lossy_channel_operator

# Corrections Bob may apply after hearing (l, n):
#   none            outcome already carries the input
#   phase_only      pi phase shifters on every one of Bob's modes
#   sign_only       sign flip of the negative branch
#   phase_plus_sign both of the above
CORRECTIONS = ("none", "phase_only", "sign_only", "phase_plus_sign")

# probability below which an outcome is treated as absent
PROB_FLOOR = 1e-30
# largest photon count the outcome table enumerates; its arrays grow with it
MAX_N_MAX = 200_000


class ProtocolOutcome(NamedTuple):
    """One measurement record: l photons on the folded input mode, n on the
    first channel mode, the correction Bob applies and the fidelity of his
    corrected state; `bob_state` gives that state on demand."""

    l: int
    n: int
    probability: float
    correction: str
    fidelity: float

    @property
    def is_success(self) -> bool:
        return (self.l, self.n) != (0, 0)


@dataclass(frozen=True, eq=False)
class ProtocolReport:
    """The outcome table as columns, one entry per kept record, in (l, n) order.

    `l` and `n` are the photon counts on the folded input mode and the first
    channel mode, `correction` the index into CORRECTIONS of Bob's correction
    and `fidelity` that of his corrected state.  `success_probability` sums
    every record except (0, 0); `mean_fidelity` is the probability-weighted
    fidelity over those records.  `outcomes` gives the same table as rows.
    """

    l: np.ndarray
    n: np.ndarray
    probability: np.ndarray
    correction: np.ndarray
    fidelity: np.ndarray
    success_probability: float
    mean_fidelity: float

    def __post_init__(self):
        # read-only views, so the memoised `outcomes` rows cannot drift from the columns
        for name in ("l", "n", "probability", "correction", "fidelity"):
            column = np.asarray(getattr(self, name)).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @cached_property
    def outcomes(self) -> tuple[ProtocolOutcome, ...]:
        corrections = [CORRECTIONS[code] for code in self.correction.tolist()]
        return tuple(map(
            ProtocolOutcome, self.l.tolist(), self.n.tolist(), self.probability.tolist(),
            corrections, self.fidelity.tolist(),
        ))

    @property
    def total_probability(self) -> float:
        return sum(self.probability.tolist())

    def outcome(self, l: int, n: int) -> Optional[ProtocolOutcome]:
        """The record (l, n), or None when the table does not hold it."""
        hits = np.flatnonzero((self.l == l) & (self.n == n))
        return self.outcomes[hits[0]] if hits.size else None


def fold_pairs(m: int) -> list[tuple[int, int]]:
    """Beam-splitter cascade of the fold network, in application order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    acc = m - 1
    return [(acc, k) for k in range(m - 2, -1, -1)] + [(acc, m)]


def fold_network(joint: CoherentState, m: int) -> CoherentState:
    """Run the fold cascade on the joint state (pure or operator form)."""
    expected = 2 * m + 1
    if joint.mode_count != expected:
        raise ValueError(
            f"joint state must have {expected} modes for m={m}, got {joint.mode_count}"
        )
    state = joint
    for i, j in fold_pairs(m):
        state = beam_splitter(state, i, j)
    return state


def default_n_max(m: int, alpha: complex) -> int:
    """Enumeration bound from the cutoff rule at the folded amplitude 2^{m/2} alpha."""
    return default_cutoff(2.0 ** (m / 2.0) * abs(alpha))


def correction_codes(ls: np.ndarray, ns: np.ndarray, channel_sign: str) -> np.ndarray:
    """Index into CORRECTIONS of the correction that makes each record (ls[i],
    ns[i]) carry the input exactly.

    Minus channel: measuring n on the channel-side mode lands Bob on flipped
    branches, so odd n needs the pi phase shift alone and even n also the
    branch-sign flip; measuring l on the input-side mode leaves Bob upright,
    odd l needs nothing and even l only the sign flip.  The plus channel swaps
    the parity roles.  The record (0, 0) gets no correction.
    """
    ls, ns = np.asarray(ls), np.asarray(ns)
    if np.any((ls < 0) | (ns < 0)):
        raise ValueError("photon counts must be nonnegative")
    if np.any((ls != 0) & (ns != 0)):
        raise ValueError("outcomes with both counts nonzero never occur")
    counts = ls + ns
    phase = (ls == 0) & (counts > 0)
    flip = (counts > 0) & ((counts % 2 == 1) == (channel_sign == "plus"))
    return phase + 2 * flip


def correction_for(l: int, n: int, channel_sign: str) -> str:
    """The correction of the record (l, n); see `correction_codes`."""
    return CORRECTIONS[int(correction_codes(l, n, channel_sign))]


def _quadratic_forms(f: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Re sum_st f[r, s] weights[s, t] conj(f[r, t]) for every row r of f."""
    return np.einsum("rt,rt->r", f @ weights, f.conj()).real


def _default_plus_amps(amps: np.ndarray) -> np.ndarray:
    """Orientation of a branch pair given as label rows: the branch whose first
    nonvanishing amplitude has positive real part is "+"; protocols with real
    alpha > 0 satisfy this."""
    flat = amps.ravel()
    nonzero = np.flatnonzero(np.abs(flat) > 1e-12)
    if not nonzero.size:
        raise UnsupportedStructureError("cannot orient branches of a vacuum state")
    first = nonzero[0]
    row = amps[first // amps.shape[1]]
    return row if flat[first].real > 0 else -row


def _branch_signs(amps: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Classify each label row as the +branch (+1) or the -branch (-1)."""
    on_plus = np.all(np.abs(amps - plus) <= 1e-9, axis=1)
    on_minus = np.all(np.abs(amps + plus) <= 1e-9, axis=1)
    if not np.all(on_plus | on_minus):
        raise UnsupportedStructureError(
            "Bob state is not supported on the expected +-branch pair"
        )
    return np.where(on_plus, 1.0, -1.0)


def bob_state(folded: CoherentState, m: int, l: int, n: int, sign: str = "minus") -> CoherentState:
    """Bob's corrected conditional state after the record (l, n) of a folded state.

    Projects mode m onto n photons and mode m-1 onto l, drops the m-1 emptied
    input modes, normalizes, then applies `correction_for(l, n, sign)`.  The
    sign flip |+branch> -> |+branch>, |-branch> -> -|-branch> is not unitary
    on non-orthogonal branches, so the flipped state is renormalized.
    """
    state, _ = project_photon_number(folded, m, n)
    state, _ = project_photon_number(state, m - 1, l)
    for _ in range(m - 1):
        state, _ = project_photon_number(state, 0, 0)
    state = normalized(state)
    what = correction_for(l, n, sign)
    if what in ("phase_only", "phase_plus_sign"):
        state = phase_shift_pi(state, range(m))
    if what in ("sign_only", "phase_plus_sign"):
        signs = _branch_signs(state.labels, _default_plus_amps(state.labels))
        state = normalized(state.weighted(signs))
    return state


def enumerate_outcomes(
    folded: CoherentState,
    m: int,
    n_max: int,
    sign: str = "minus",
    *,
    reference: CoherentState,
) -> ProtocolReport:
    """Enumerate the (l=0, n) and (l, n=0) measurement records of a folded state.

    Outcomes with both counts nonzero carry exactly zero probability because
    every branch of the folded state is exactly vacuum on one measured mode.
    Records below PROB_FLOOR are dropped.  Each outcome gets its correction
    code and the fidelity of Bob's corrected state to the pure `reference`.
    `success_probability` sums every outcome except (0, 0), whose
    conditional state is a branch mixture the protocol cannot repair;
    `mean_fidelity` is the probability-weighted fidelity over those success
    outcomes.  The report holds the table as columns in (l, n) order, filled
    straight from the arrays below with no per-record Python; `bob_state`
    builds Bob's state for any record.

    Pure and operator states share one vectorized pass.  With C the folded
    coefficient matrix (c c^H for a pure state), f[r, t] = <l_r|a_t,m-1>
    <n_r|a_t,m> the measured-mode amplitudes of label t for record r, and G
    the Gram matrix of Bob's labels (which no record changes), every record's
    probability is tr((C o f f^H) G).  Each correction negates every label or
    none and flips the sign of the -branch or not, so one overlap vector
    between the reference and the corrected labels scores all records of
    that correction at once.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    amps, coeffs = folded.labels, folded.density()
    if np.any(np.abs(amps[:, : m - 1]) > 1e-9):
        raise AssertionError("fold network left a non-vacuum input mode")
    index, reps = dedupe_index(amps[:, m + 1 :])
    bob = amps[reps, m + 1 :]
    bob_gram = gram(bob, bob)[np.ix_(index, index)]  # over the folded labels

    ls = np.concatenate([np.zeros(n_max + 1, dtype=int), np.arange(1, n_max + 1)])
    ns = np.concatenate([np.arange(n_max + 1), np.zeros(n_max, dtype=int)])
    f = number_amplitudes(amps[:, m - 1], n_max)[ls] * number_amplitudes(amps[:, m], n_max)[ns]
    probs = _quadratic_forms(f, coeffs * bob_gram.T)
    kept = np.flatnonzero(probs >= PROB_FLOOR)
    ls, ns, f, probs = ls[kept], ns[kept], f[kept], probs[kept]

    codes = correction_codes(ls, ns, sign)
    fidelity = np.empty(len(kept))
    # a fixed loop over the classes: np.unique would cost a cold CLI run ~10 ms on first use
    for code, what in enumerate(CORRECTIONS):
        rows = np.flatnonzero(codes == code)
        if not rows.size:
            continue
        corrected = -bob if what in ("phase_only", "phase_plus_sign") else bob
        signs = np.ones(len(reps))
        norms = probs[rows]
        if what in ("sign_only", "phase_plus_sign"):
            signs = _branch_signs(corrected, _default_plus_amps(corrected))
            flip = signs[index]
            norms = _quadratic_forms(f[rows], coeffs * bob_gram.T * np.outer(flip, flip))
        overlaps = (reference.coeffs.conj() @ gram(reference.labels, corrected)) * signs
        fidelity[rows] = _quadratic_forms(f[rows] * overlaps[index], coeffs) / norms

    # Python sums over .tolist() add in record order, as a sum over the rows would
    succ = (ls != 0) | (ns != 0)
    p_succ = sum(probs[succ].tolist())
    mean_f = sum((probs * fidelity)[succ].tolist()) / p_succ if p_succ > 0 else float("nan")
    return ProtocolReport(ls, ns, probs, codes, fidelity, p_succ, mean_f)


def transmitted_amplitude(alpha: complex, eta: float) -> complex:
    """sqrt(eta) alpha, the amplitude Alice prepares her input at, after
    checking eta and that the protocol does not degenerate there."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    beta = math.sqrt(eta) * alpha
    if abs(beta) < MIN_AMPLITUDE:
        raise ValueError("sqrt(eta) * |alpha| too small; the protocol degenerates")
    return beta


def run_protocol(
    m: int,
    alpha: complex,
    kappa1: complex,
    kappa2: complex,
    sign: str = "minus",
    n_max: Optional[int] = None,
    eta: float = 1.0,
) -> ProtocolReport:
    """Run the protocol over a channel with transmissivity eta: build, lose,
    fold, measure, correct, score.

    The partners know the transmissivity, so Alice prepares her input at the
    transmitted amplitude sqrt(eta) alpha; the fold network then empties the
    same modes at every eta and the outcome bookkeeping is unchanged.
    Per-outcome fidelities are scored against that input.  Only this
    matched-amplitude reading keeps the protocol's postselection structure
    intact; an input at the bare amplitude would interfere imperfectly and
    leak probability into mixed (l>0, n>0) records.  At eta = 1 the loss is
    the identity and every corrected success outcome reproduces the input
    exactly (for the minus channel; the plus channel via the swapped parity
    rules).  A default n_max above MAX_N_MAX is refused: the table would not
    fit, and a truncated one would hide mass.
    """
    beta = transmitted_amplitude(alpha, eta)
    if n_max is None:
        n_max = default_n_max(m, beta)
        if n_max > MAX_N_MAX:
            raise ValueError(
                f"outcome table needs photon counts up to {n_max} (limit {MAX_N_MAX}); lower m or alpha"
            )
    inp = build_input(m, beta, kappa1, kappa2)
    joint = tensor(inp, lossy_channel_operator(m, alpha, eta, sign))
    folded = fold_network(joint, m)
    return enumerate_outcomes(folded, m, n_max, sign=sign, reference=inp)


def teleport_through_noise(
    m: int,
    alpha: complex,
    eta: float,
    kappa1: complex,
    kappa2: complex,
    sign: str = "minus",
    n_max: Optional[int] = None,
) -> ProtocolReport:
    """`run_protocol` with the transmissivity as the third argument."""
    return run_protocol(m, alpha, kappa1, kappa2, sign, n_max, eta)


# ---------------------------------------------------------------------------
# closed-form success probabilities


def success_probability_closed_form(
    m: int,
    alpha: complex,
    parity: str,
    n: Optional[int] = None,
) -> float:
    """Closed-form success probabilities of the protocol.

    With x = 2^m |alpha|^2 (the squared folded amplitude is 2x):

      parity='odd',  n given  : exp(-x) x^n / (2 n! (1 - exp(-2x)))
                                per-outcome on the minus channel, either
                                measured side, independent of the input
      parity='odd',  n=None   : both sides summed over odd counts; exactly 1/2
      parity='even', n given  : exp(-x) x^n / (2 n! (1 + exp(-2x)))
                                per-outcome on the plus channel
      parity='even', n=None   : (1 - exp(-x))^2 / (2 (1 + exp(-2x)))
                                both sides summed, plus channel; this is the
                                squared-numerator variant selected by the
                                engine adjudication

    Tends to 1/2 as alpha or m grows.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if abs(alpha) < 1e-8:
        raise ValueError("|alpha| too small")
    x = (2.0**m) * abs(alpha) ** 2
    # -expm1(-2x) == 1 - exp(-2x) without cancellation at small x
    if parity == "odd":
        if n is None:
            # 2 exp(-x) sinh(x) / (2 (1 - exp(-2x))) == 1/2 identically
            return 0.5
        if n % 2 != 1:
            raise ValueError("odd parity needs an odd count")
        log_p = -x + n * math.log(x) - math.lgamma(n + 1)
        return math.exp(log_p) / (-2.0 * math.expm1(-2.0 * x))
    if parity == "even":
        if n is None:
            return math.expm1(-x) ** 2 / (2.0 * (1.0 + math.exp(-2.0 * x)))
        if n % 2 != 0 or n < 2:
            raise ValueError("even parity needs a positive even count")
        log_p = -x + n * math.log(x) - math.lgamma(n + 1)
        return math.exp(log_p) / (2.0 * (1.0 + math.exp(-2.0 * x)))
    raise ValueError("parity must be 'odd' or 'even'")

