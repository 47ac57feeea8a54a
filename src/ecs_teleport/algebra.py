"""Exact linear algebra over finite superpositions of multimode coherent states.

Every state handled here is a `CoherentState`: a (K, M) array of coherent
labels, row t the amplitudes of the product state |g_t1, ..., g_tM>, with a
coefficient vector c (the pure state sum_t c_t |label_t>) or a coefficient
matrix C (the operator sum_jk C_jk |label_j><label_k|).  All inner products,
beam-splitter actions, photon-number projections, partial traces and
fidelities then have closed forms built from the single-mode overlap

    <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b),

so the whole calculus is exact up to floating point.  Coherent states carry
the standard normalization exp(-|a|^2/2) in the photon-number basis; this is
the only convention consistent with the overlap above.

`number_amplitudes` gives a coherent label's photon-number amplitudes, and
the Poisson truncation rule (`default_cutoff`, `poisson_tail`, `tail_cutoff`)
says how many numbers to keep.  Both engines size their tables with it, so it
lives here and the Fock engine imports it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

# exact algebra identities hold to 1e-12; labels closer than this are merged
LABEL_TOL = 1e-12
MIN_AMPLITUDE = 1e-8


class DimensionMismatchError(ValueError):
    """Operands are defined on different numbers of modes."""


class UnsupportedStructureError(ValueError):
    """The state lacks the structure (e.g. two independent branches) an operation needs."""


def overlap(a: complex, b: complex) -> complex:
    """Single-mode coherent overlap <a|b>; |result| <= 1 for finite inputs."""
    a = complex(a)
    b = complex(b)
    return cmath.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + a.conjugate() * b)


def gram(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """G[j, k] = <bra_j|ket_k> for label arrays of shape (J, M) and (K, M)."""
    if bra.shape[1] != ket.shape[1]:
        raise DimensionMismatchError(f"mode counts differ: {bra.shape[1]} vs {ket.shape[1]}")
    return np.exp(
        -0.5 * (np.abs(bra) ** 2).sum(axis=1)[:, None]
        - 0.5 * (np.abs(ket) ** 2).sum(axis=1)[None, :]
        + bra.conj() @ ket.T
    )


def dedupe_index(labels: np.ndarray, tol: float = LABEL_TOL) -> tuple[np.ndarray, list[int]]:
    """Greedy merge of labels that agree within `tol` per mode: each row joins
    the first class whose first member is that close, else starts one.

    Returns each row's class index and the row of each class's first member.
    """
    close = np.all(np.abs(labels[:, None] - labels) <= tol, axis=2).tolist()
    index, reps = [], []
    for t, row in enumerate(close):
        k = next((k for k, rep in enumerate(reps) if row[rep]), len(reps))
        if k == len(reps):
            reps.append(t)
        index.append(k)
    return np.array(index, dtype=int), reps


# lgamma(n + 1) / 2 for n below the largest count asked for, grown by `half_log_factorials`
_half_log_factorial_table = np.zeros(0)
_half_log_factorial_table.flags.writeable = False


def half_log_factorials(count: int) -> np.ndarray:
    """lgamma(n + 1) / 2 for n < count, a read-only view of a cached table."""
    global _half_log_factorial_table
    table = _half_log_factorial_table
    if count > len(table):
        # grow to `count`, computing the new entries only
        fresh = np.fromiter(map(math.lgamma, range(len(table) + 1, count + 1)), float)
        table = np.concatenate([table, 0.5 * fresh])
        table.flags.writeable = False
        _half_log_factorial_table = table
    return table[:count]


def number_amplitudes(beta: np.ndarray, n_max: int, n_min: int = 0) -> np.ndarray:
    """A[n - n_min, t] = <n|beta_t> for n = n_min..n_max, in log space so large counts never overflow."""
    counts = np.arange(n_min, n_max + 1)
    half_log_fact = half_log_factorials(n_max + 1)[n_min:]
    vacuum = beta == 0
    log_beta = np.log(np.where(vacuum, 1.0, beta))
    amps = np.exp(
        -0.5 * np.abs(beta) ** 2 + counts[:, None] * log_beta - half_log_fact[:, None]
    )
    amps[:, vacuum] = (counts == 0)[:, None]
    return amps


def default_cutoff(beta_max: float) -> int:
    """Per-mode photon cutoff keeping the Poisson tail of |beta_max|^2 below ~1e-10."""
    lam = abs(beta_max) ** 2
    return math.ceil(lam + 10.0 * math.sqrt(lam + 1.0) + 20.0)


def poisson_tail(beta: complex, cutoff: int) -> float:
    """Upper bound on sum_{n>cutoff} e^{-|b|^2} |b|^{2n}/n! (truncation weight)."""
    lam = abs(beta) ** 2
    if lam == 0.0:
        return 0.0
    log_head = -lam + (cutoff + 1) * math.log(lam) - math.lgamma(cutoff + 2)
    ratio = lam / (cutoff + 2)
    if ratio >= 1.0:
        return 1.0
    return math.exp(log_head) / (1.0 - ratio)


def tail_cutoff(beta: complex, tail: float) -> int:
    """Smallest cutoff whose `poisson_tail` at beta is at most `tail`."""
    cutoff = math.floor(abs(beta) ** 2)
    while poisson_tail(beta, cutoff) > tail:
        cutoff += 1
    return cutoff


@dataclass(frozen=True)
class CoherentState:
    """sum_t coeffs[t] |labels[t]> for a coefficient vector, or
    sum_jk coeffs[j, k] |labels[j]><labels[k]| for a coefficient matrix.

    The constructor checks shapes only; amplitudes are checked for finiteness
    where they enter (`superposition`, `channels.ChannelSpec`, the CLI).
    """

    labels: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=complex)
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if labels.ndim != 2 or not len(labels):
            raise ValueError("labels must be a nonempty (K, modes) array")
        if coeffs.shape not in ((len(labels),), (len(labels), len(labels))):
            raise ValueError(f"coefficients of shape {coeffs.shape} do not fit {len(labels)} labels")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def mode_count(self) -> int:
        return self.labels.shape[1]

    @property
    def is_pure(self) -> bool:
        return self.coeffs.ndim == 1

    def density(self) -> np.ndarray:
        """Coefficient matrix of the operator form: c c^H for a pure state."""
        return self.coeffs[:, None] * self.coeffs.conj() if self.is_pure else self.coeffs

    def trace(self) -> complex:
        """<x|x> for a pure state, tr(rho) for an operator."""
        # tr(|j><k|) = <k|j>, i.e. G[k, j]
        return complex((self.density() * gram(self.labels, self.labels).T).sum())

    def weighted(self, w: np.ndarray) -> "CoherentState":
        """The state with every ket |label_t> replaced by w[t] |label_t>."""
        coeffs = self.coeffs * w if self.is_pure else self.coeffs * (w[:, None] * np.conj(w))
        return CoherentState(self.labels, coeffs)


def superposition(pairs: Iterable[tuple[complex, Sequence[complex]]]) -> CoherentState:
    """Pure state from (coefficient, amplitude-sequence) pairs; every value must be finite."""
    pairs = list(pairs)
    coeffs = np.array([c for c, _ in pairs], dtype=complex)
    labels = np.array([tuple(a) for _, a in pairs], dtype=complex)
    if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(labels))):
        raise ValueError("coefficients and coherent amplitudes must be finite")
    return CoherentState(labels, coeffs)


def dedupe(state: CoherentState, tol: float = LABEL_TOL) -> CoherentState:
    """Merge labels that agree within `tol` per mode, summing their coefficients."""
    index, reps = dedupe_index(state.labels, tol)
    if len(reps) == len(index):
        return state  # every label is its own class: nothing merges
    merge = (index[None, :] == np.arange(len(reps))[:, None]).astype(float)
    coeffs = merge @ state.coeffs if state.is_pure else merge @ state.coeffs @ merge.T
    return CoherentState(state.labels[reps], coeffs)


def inner_product(x: CoherentState, y: CoherentState) -> complex:
    """<x|y> of two pure states."""
    return complex(x.coeffs.conj() @ gram(x.labels, y.labels) @ y.coeffs)


def norm(x: CoherentState) -> float:
    return math.sqrt(max(x.trace().real, 0.0))


def normalized(x: CoherentState) -> CoherentState:
    """Unit norm for a pure state, unit trace for an operator."""
    t = x.trace().real
    if t < 1e-300:
        raise ValueError("cannot normalize a null state")
    return replace(x, coeffs=x.coeffs / (math.sqrt(t) if x.is_pure else t))


def tensor(x: CoherentState, y: CoherentState) -> CoherentState:
    """x (x) y over the concatenated modes; an operator on either side makes both operators."""
    labels = np.concatenate(
        [np.repeat(x.labels, len(y.labels), axis=0), np.tile(y.labels, (len(x.labels), 1))],
        axis=1,
    )
    if x.is_pure == y.is_pure:
        return CoherentState(labels, np.kron(x.coeffs, y.coeffs))
    return CoherentState(labels, np.kron(x.density(), y.density()))


def check_modes(state_modes: int, modes: Iterable[int]) -> list[int]:
    """The listed modes, sorted and unique, after a range check."""
    modes = sorted(set(modes))
    for mode in modes:
        if not 0 <= mode < state_modes:
            raise IndexError(f"mode {mode} out of range for {state_modes} modes")
    return modes


def beam_splitter(state: CoherentState, i: int, j: int) -> CoherentState:
    """50/50 beam splitter on modes (i, j): (mu, nu) -> ((mu+nu)/sqrt2, (mu-nu)/sqrt2).

    Coefficients are untouched, only the labels move, so norms and traces are
    preserved exactly.
    """
    if i == j:
        raise IndexError("beam splitter needs two distinct modes")
    check_modes(state.mode_count, (i, j))
    labels = state.labels.copy()
    mu, nu = state.labels[:, i], state.labels[:, j]
    s = math.sqrt(0.5)
    labels[:, i] = (mu + nu) * s
    labels[:, j] = (mu - nu) * s
    return replace(state, labels=labels)


def projected(state: CoherentState, mode: int, n: int) -> CoherentState:
    """The unnormalized conditional state on the other modes after mode
    `mode` is projected onto the n-photon state."""
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    check_modes(state.mode_count, (mode,))
    f = number_amplitudes(state.labels[:, mode], n, n)[0]
    rest = CoherentState(state.labels[:, np.arange(state.mode_count) != mode], state.coeffs)
    return dedupe(rest.weighted(f))


def project_photon_number(state: CoherentState, mode: int, n: int) -> tuple[CoherentState, float]:
    """`projected`, and the outcome probability (its squared norm or trace)."""
    reduced = projected(state, mode, n)
    return reduced, max(reduced.trace().real, 0.0)


def trace_out(state: CoherentState, modes: Iterable[int]) -> CoherentState:
    """Partial trace over `modes`, in closed form via the traced modes' Gram matrix.

    tr_m(|a><b|) = <b_m|a_m> |a_rest><b_rest|; tracing every mode leaves a
    single empty label whose coefficient is the trace.
    """
    modes = check_modes(state.mode_count, modes)
    traced = state.labels[:, modes]
    coeffs = state.density() * gram(traced, traced).T
    return dedupe(CoherentState(np.delete(state.labels, modes, axis=1), coeffs))


def fidelity(a: CoherentState, b: CoherentState) -> float:
    """tr(a b) over the operator forms: |<a|b>|^2 for pure states, <a|b|a>
    for a pure reference a; real in [0, 1] for normalized states."""
    g = gram(a.labels, b.labels)
    # sum_jq (A G B)_jq conj(G_jq) = tr(A G B G^H)
    return float(np.einsum("jq,jq->", a.density() @ g @ b.density(), g.conj()).real)
