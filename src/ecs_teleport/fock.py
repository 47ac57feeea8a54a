"""Independent engine in a truncated photon-number basis.

Everything the closed-form coherent algebra computes is re-derived here from
number-basis numerics: states become coefficient tensors over |n_1..n_M>,
measurements become index slices, and the 50/50 beam splitter becomes the
exponential of its truncated quadratic generator.  That generator keeps the
total photon number N of the two modes fixed, so its exponential is one small
unitary block per N, found by `np.linalg.eigh`.  No coherent-label identity
is used; the engine's only job is to verify the exact algebra independently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .algebra import CoherentState, UnsupportedStructureError


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


def coherent_column(alpha: complex, dim: int) -> np.ndarray:
    """Truncated number-basis column of |alpha>."""
    col = np.zeros(dim, dtype=complex)
    c = complex(math.exp(-0.5 * abs(alpha) ** 2))
    for n in range(dim):
        col[n] = c
        c = c * alpha / math.sqrt(n + 1)
    return col


@dataclass
class FockVector:
    """Dense state tensor over per-mode truncated number bases."""

    dims: tuple[int, ...]
    data: np.ndarray

    @property
    def mode_count(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


def encode(state: CoherentState, cutoff: Union[int, Sequence[int], None] = None) -> FockVector:
    """Expand a pure coherent-label state in the truncated number basis.

    `cutoff` is one photon-number cutoff for every mode, a per-mode sequence,
    or None to apply the default cutoff rule per mode.  A cutoff below the rule
    is allowed but triggers a warning when the truncation weight is large.
    """
    modes = state.mode_count
    beta_max = np.abs(state.labels).max(axis=0).tolist()
    if cutoff is None:
        cuts = [default_cutoff(b) for b in beta_max]
    elif isinstance(cutoff, int):
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        cuts = [cutoff] * modes
    else:
        cuts = list(cutoff)
        if len(cuts) != modes:
            raise ValueError("need one cutoff per mode")
    for b, c in zip(beta_max, cuts):
        if poisson_tail(b, c) > 1e-6:
            warnings.warn(
                f"cutoff {c} leaves truncation weight {poisson_tail(b, c):.2e} "
                f"for amplitude {b:.3f}",
                stacklevel=2,
            )
    dims = tuple(c + 1 for c in cuts)
    half = modes // 2
    left = _branch_rows(state.labels[:, :half], dims[:half]) * state.coeffs[:, None]
    right = _branch_rows(state.labels[:, half:], dims[half:])
    return FockVector(dims, (left.T @ right).reshape(dims))


def _branch_rows(labels: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """(K, prod(dims)) matrix whose row k is the flattened product tensor of branch k."""
    rows = np.ones((len(labels), 1), dtype=complex)
    for mode, d in enumerate(dims):
        cols = np.array([coherent_column(a, d) for a in labels[:, mode].tolist()])
        rows = (rows[:, :, None] * cols[:, None, :]).reshape(len(labels), -1)
    return rows


def _mode_generator() -> np.ndarray:
    """Hermitian h = i log S of the 50/50 mode matrix S, so that S = exp(-i h)."""
    s = 1.0 / math.sqrt(2.0)
    w, v = np.linalg.eigh(np.array([[s, s], [s, -s]]))
    return 1j * ((v * np.log(w.astype(complex))) @ v.T)


_H = _mode_generator()


@lru_cache(maxsize=64)
def _bs_blocks(di: int, dj: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The 50/50 beam splitter on a (di, dj) truncation, one block per shell.

    The two-mode unitary, with U|mu, nu> = |(mu+nu)/sqrt2, (mu-nu)/sqrt2> on
    coherent labels, is exp(-i H) with H = h00 n_i + h11 n_j + h01 a_i^+ a_j
    + h10 a_i a_j^+ truncated to mu < di, nu < dj.  H keeps N = mu + nu fixed,
    so for each N it returns (mu, nu, U_N): the index pairs (mu, N - mu) inside
    the truncation and exp(-i H_N) on them, from `eigh` of the Hermitian H_N.
    Truncation keeps each H_N Hermitian, so each U_N is exactly unitary.
    """
    blocks = []
    for n in range(di + dj - 1):
        mu = np.arange(max(0, n - dj + 1), min(n, di - 1) + 1)
        nu = n - mu
        # <mu+1, nu-1| H |mu, nu> = h01 sqrt((mu+1) nu)
        hop = _H[0, 1] * np.sqrt((mu[:-1] + 1.0) * nu[:-1])
        ham = np.diag(_H[0, 0] * mu + _H[1, 1] * nu) + np.diag(hop, -1) + np.diag(hop.conj(), 1)
        w, v = np.linalg.eigh(ham)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        for arr in (mu, nu, u):
            arr.flags.writeable = False
        blocks.append((mu, nu, u))
    return tuple(blocks)


def bs_unitary(v: FockVector, i: int, j: int) -> FockVector:
    """Apply the 50/50 beam splitter to modes (i, j) of a Fock tensor.

    Each shell block U_N acts on the slice data[mu, nu, ...] of modes i, j;
    no (di dj) x (di dj) matrix is formed.
    """
    if i == j:
        raise IndexError("beam splitter needs two distinct modes")
    for m in (i, j):
        if not 0 <= m < v.mode_count:
            raise IndexError(f"mode {m} out of range")
    out = np.empty(v.data.shape, dtype=complex)
    src = np.moveaxis(v.data, (i, j), (0, 1))
    dst = np.moveaxis(out, (i, j), (0, 1))
    for mu, nu, u in _bs_blocks(v.dims[i], v.dims[j]):
        shell = src[mu, nu]
        dst[mu, nu] = (u @ shell.reshape(len(mu), -1)).reshape(shell.shape)
    return FockVector(v.dims, out)


def measure_number(v: FockVector, mode: int, n: int) -> tuple[FockVector, float]:
    """Project `mode` onto |n>; returns the unnormalized remainder and probability."""
    if not 0 <= mode < v.mode_count:
        raise IndexError(f"mode {mode} out of range")
    if not 0 <= n < v.dims[mode]:
        raise ValueError(f"photon number {n} outside the cutoff {v.dims[mode] - 1}")
    sliced = np.take(v.data, n, axis=mode)
    dims = v.dims[:mode] + v.dims[mode + 1 :]
    prob = float(np.vdot(sliced, sliced).real)
    return FockVector(dims, sliced), prob


def phase_pi(v: FockVector, modes: Sequence[int]) -> FockVector:
    """Pi phase shifter exp(-i pi n) on the listed modes: parity phases."""
    data = v.data
    for m in sorted(set(modes)):
        if not 0 <= m < v.mode_count:
            raise IndexError(f"mode {m} out of range")
        par = np.array([(-1.0) ** k for k in range(v.dims[m])])
        shape = [1] * v.mode_count
        shape[m] = v.dims[m]
        data = data * par.reshape(shape)
    return FockVector(v.dims, data)


def inner(v: FockVector, w: FockVector) -> complex:
    if v.dims != w.dims:
        raise ValueError("Fock tensors have different shapes")
    return complex(np.vdot(v.data, w.data))


def single_mode_overlap(a: complex, b: complex, cutoff: int | None = None) -> complex:
    """<a|b> evaluated as a truncated number-basis sum (no closed form used)."""
    if cutoff is None:
        cutoff = default_cutoff(max(abs(a), abs(b)))
    d = cutoff + 1
    return complex(np.vdot(coherent_column(a, d), coherent_column(b, d)))


def product_overlap(amps_a: Sequence[complex], amps_b: Sequence[complex]) -> complex:
    """Multimode <a|b> as a product of truncated single-mode sums."""
    out = 1.0 + 0j
    for a, b in zip(amps_a, amps_b):
        out *= single_mode_overlap(a, b)
    return out


# ---------------------------------------------------------------------------
# two-qubit reduction and concurrence


def reduce_to_qubits(
    state: CoherentState, bipartition: tuple[Sequence[int], Sequence[int]]
) -> np.ndarray:
    """Two-qubit density matrix of a two-branch pure state across a bipartition.

    Each side of the cut supports exactly two product branches; Gram-Schmidt
    turns them into an orthonormal {|0>, |1>} pair (|0> is the first branch,
    |1> the second orthogonalized against it).  All overlaps are evaluated as
    truncated number-basis sums, independent of the closed-form algebra.
    """
    side_a, side_b = (tuple(bipartition[0]), tuple(bipartition[1]))
    modes = state.mode_count
    if sorted(side_a + side_b) != list(range(modes)):
        raise ValueError("bipartition must split the modes exactly")
    branches = np.flatnonzero(state.coeffs != 0)
    if len(branches) != 2:
        raise UnsupportedStructureError("state must have exactly two branches")
    c1, c2 = state.coeffs[branches].tolist()
    lab1, lab2 = state.labels[branches]

    def basis_coeffs(side):
        # branch overlaps via truncated sums; returns (t, u) with
        # |branch2> = t |0> + u |1>, u = sqrt(1 - |t|^2)
        t = product_overlap(lab1[list(side)].tolist(), lab2[list(side)].tolist())
        usq = 1.0 - abs(t) ** 2
        if usq < 1e-14:
            raise UnsupportedStructureError(
                "branches are not linearly independent on one side of the cut"
            )
        return t, math.sqrt(usq)

    t_a, u_a = basis_coeffs(side_a)
    t_b, u_b = basis_coeffs(side_b)
    x = np.array(
        [c1 + c2 * t_a * t_b, c2 * t_a * u_b, c2 * u_a * t_b, c2 * u_a * u_b],
        dtype=complex,
    )
    nrm = np.vdot(x, x).real
    return np.outer(x, x.conjugate()) / nrm


_SY_SY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def wootters_concurrence(rho2: np.ndarray) -> float:
    """Concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit density matrix."""
    rho2 = np.asarray(rho2, dtype=complex)
    if rho2.shape != (4, 4):
        raise ValueError("expected a 4x4 density matrix")
    if np.max(np.abs(rho2 - rho2.conj().T)) > 1e-8:
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho2).real - 1.0) > 1e-8:
        raise ValueError("density matrix must have unit trace")
    w, v = np.linalg.eigh(rho2)
    if w.min() < -1e-9:
        raise ValueError("density matrix must be positive semidefinite")
    rho_tilde = _SY_SY @ rho2.conj() @ _SY_SY
    # eigenvalues of rho rho_tilde via the Hermitian form sqrt(rho) rho_tilde sqrt(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    evals = np.sort(np.linalg.eigvalsh(root @ rho_tilde @ root))
    # zero out eigensolver noise before the square root amplifies it
    evals[evals < 1e-14] = 0.0
    lams = np.sqrt(evals)
    return float(max(0.0, lams[3] - lams[2] - lams[1] - lams[0]))
