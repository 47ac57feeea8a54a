"""Independent engine in a truncated photon-number basis.

Everything the closed-form coherent algebra computes is re-derived here from
number-basis numerics.  A two-mode beam splitter with a real orthogonal 2x2
mode matrix (the 50/50 fold splitter, or the loss splitter that couples a
mode to its environment) becomes the exponential of its truncated quadratic
generator.  That generator keeps the total photon number N of the two modes
fixed, so its exponential is one small unitary block per N, found by
`np.linalg.eigh` on one stack of the blocks of each size.

States are held in one form, a matrix-product state (MPS): a list of
(left bond, levels, right bond) site tensors, one site per mode of cutoff + 1
levels, where a dense state would take (cutoff + 1)^M entries.  Only
`ProtocolTable.conditional_state` contracts one into a dense tensor, capped
at MAX_DENSE_ENTRIES.  Three public calls act on an MPS, and `verify` checks
the algebra with them alone: `branch_sites` builds the MPS of a K-branch
superposition with the branch as the bond, so no site is larger than K^2
(cutoff + 1); `split_pair` applies a beam splitter to the two levels of a
two-site tensor; `mps_overlap` contracts two MPSs site by site.  The
per-mode cutoffs come from the Poisson truncation rule in `algebra`
(`default_cutoff`, `tail_cutoff`).

`protocol_table` runs the whole protocol, loss included, as an MPS over the
site order [input m-1, ..., input 0, c_m, e_m, c_{m+1}, e_{m+1}, ...]: each
channel mode c_k is followed by its environment mode e_k.  Every gate acts
on two neighbouring sites, and an SVD after each gate keeps the bonds small
(TEBD; Vidal, quant-ph/0301063; Schollwoeck, arXiv:1008.3477).  The branches
enter only through `coherent_column`; no coherent-label identity is used, so
the engine verifies the exact algebra independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import (
    CoherentState,
    UnsupportedStructureError,
    default_cutoff,
    half_log_factorials,
    tail_cutoff,
)
from .channels import ChannelSpec, build_channel, build_input

# largest per-mode photon cutoff the engine expands; one column at the cap takes 16 MiB
MAX_CUTOFF = 2**20


def coherent_column(alpha: complex | np.ndarray, dim: int) -> np.ndarray:
    """Truncated number-basis column of |alpha>, |c_n| = exp(-|alpha|^2/2 + n log|alpha| -
    lgamma(n+1)/2) evaluated in log space, so that no factor under- or overflows.

    An array of amplitudes gives one column per amplitude, on a new last axis.
    """
    if dim - 1 > MAX_CUTOFF:
        raise ValueError(
            f"photon cutoff {dim - 1:.3g} exceeds the Fock engine's cap of {MAX_CUTOFF}; lower m or alpha"
        )
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    # np.hypot rounds as Python's abs(complex) does; np.abs can differ in the last bit
    r = np.hypot(alpha.real, alpha.imag)
    # the vacuum divides by 1, and its zero phase then empties every level past n = 0
    unit = np.where(r == 0.0, 1.0, r)
    log_mag = np.arange(dim) * np.log(unit) - 0.5 * r * r - half_log_factorials(dim)
    # each part divided alone, as Python's complex-by-float division does
    turns = np.empty(alpha.shape[:-1] + (dim,), dtype=complex)
    turns.real, turns.imag = alpha.real / unit, alpha.imag / unit
    turns[..., 0] = 1.0
    return np.exp(log_mag) * np.cumprod(turns, axis=-1)


_SQRT_HALF = 1.0 / math.sqrt(2.0)
# mode matrix of the 50/50 fold beam splitter: labels (mu, nu) -> ((mu+nu)/sqrt2, (mu-nu)/sqrt2)
FIFTY_FIFTY = ((_SQRT_HALF, _SQRT_HALF), (_SQRT_HALF, -_SQRT_HALF))


def loss_matrix(eta: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Mode matrix of loss on (channel, environment): the rotation taking the
    labels (g, 0) to (sqrt(eta) g, sqrt(1-eta) g)."""
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    return ((t, -r), (r, t))


def _mode_generator(mode_matrix) -> np.ndarray:
    """Hermitian h = i log S of a real orthogonal 2x2 mode matrix S, so that S = exp(-i h).

    A rotation (det S = 1) by theta = atan2(S10, S00) has log S = theta [[0, -1], [1, 0]],
    so h = [[0, -i theta], [i theta, 0]].  A reflection (det S = -1) has the eigenvalues 1
    and -1, and log(-1) = i pi on the projector (I - S) / 2 onto the -1 eigenvector, so
    h = -pi (I - S) / 2.
    """
    (s00, s01), (s10, s11) = mode_matrix
    if s00 * s11 - s01 * s10 > 0.0:
        theta = math.atan2(s10, s00)
        return np.array([[0.0, -1j * theta], [1j * theta, 0.0]])
    return -0.5 * math.pi * (np.eye(2) - np.array(mode_matrix))


@lru_cache(maxsize=64)
def _bs_blocks(di: int, dj: int, mode_matrix=FIFTY_FIFTY) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The beam splitter with a real orthogonal 2x2 `mode_matrix` S on a
    (di, dj) truncation, one stack of shells per shell size.

    The two-mode unitary, with U|mu, nu> = |S (mu, nu)> on coherent labels,
    is exp(-i H) with H = h00 n_i + h11 n_j + h01 a_i^+ a_j + h10 a_i a_j^+
    (h = i log S) truncated to mu < di, nu < dj.  H keeps N = mu + nu fixed,
    so for each shell size k it returns (levels, U): row N of the (shells, k)
    `levels` holds the flat indices mu dj + nu of the pairs (mu, N - mu) inside
    the truncation, and U_N = exp(-i H_N) on them, from `eigh` of the
    Hermitian H_N, is in the (shells, k, k) stack U.  Truncation keeps each
    H_N Hermitian, so each U_N is exactly unitary.
    """
    h = _mode_generator(mode_matrix)
    # H_N = D R D^H with D = diag(phase^mu) and R real symmetric, so `eigh` runs on real matrices
    phase = np.exp(1j * np.angle(h[0, 1]))
    shell = np.arange(di + dj - 1)
    first = np.maximum(0, shell - dj + 1)
    size = np.minimum(shell, di - 1) - first + 1
    blocks = []
    for k in range(1, min(di, dj) + 1):
        # every shell with k index pairs, stacked, so one `eigh` call serves them all
        rows = np.flatnonzero(size == k)
        mu = first[rows, None] + np.arange(k)
        nu = shell[rows, None] - mu
        ham = np.zeros((len(rows), k, k))
        diag = np.arange(k)
        ham[:, diag, diag] = h[0, 0].real * mu + h[1, 1].real * nu
        # |<mu+1, nu-1| H |mu, nu>| = |h01| sqrt((mu+1) nu)
        hop = abs(h[0, 1]) * np.sqrt((mu[:, :-1] + 1.0) * nu[:, :-1])
        ham[:, diag[1:], diag[:-1]] = ham[:, diag[:-1], diag[1:]] = hop
        w, v = np.linalg.eigh(ham)
        gauge = phase ** mu.astype(float)
        u = (v * np.exp(-1j * w)[:, None, :]) @ v.swapaxes(1, 2)
        u = gauge[:, :, None] * u * gauge.conj()[:, None, :]
        levels = mu * dj + nu
        levels.flags.writeable = u.flags.writeable = False
        blocks.append((levels, u))
    return tuple(blocks)


def _apply_blocks(data: np.ndarray, i: int, j: int, blocks) -> np.ndarray:
    """Apply shell stacks to axes (i, j) of `data`, viewed as one axis of di dj
    levels: one gather, batched matmul and scatter per stack, so no
    (di dj) x (di dj) matrix is formed."""
    src = np.moveaxis(data, (i, j), (0, 1))
    flat = src.reshape(src.shape[0] * src.shape[1], -1)
    out = np.empty(flat.shape, dtype=complex)
    for levels, u in blocks:
        out[levels] = u @ flat[levels]
    return np.moveaxis(out.reshape(src.shape), (0, 1), (i, j))


def split_pair(theta: np.ndarray, mode_matrix=FIFTY_FIFTY) -> np.ndarray:
    """Apply the beam splitter with `mode_matrix` (FIFTY_FIFTY or a
    `loss_matrix`) to the two levels of a (left, di, dj, right) two-site tensor."""
    return _apply_blocks(theta, 1, 2, _bs_blocks(theta.shape[1], theta.shape[2], mode_matrix))


# ---------------------------------------------------------------------------
# the protocol as a matrix-product state

# weight the protocol oracle may drop at each truncation: the Poisson tail
# past a mode's cutoff, and the squared singular values cut from a bond
ORACLE_TAIL = 1e-12
# most levels the two modes of one gate may carry together
MAX_PAIR_LEVELS = 100_000
# most entries of a dense conditional state
MAX_DENSE_ENTRIES = 10_000_000


@dataclass(frozen=True)
class ProtocolTable:
    """The protocol's outcome table from the Fock engine.

    `probabilities[l, n]` is the probability of l photons on the folded input
    mode and n on the first channel mode, for every l and n inside those two
    modes' cutoffs; `discarded_weight` is the squared norm the SVD cuts
    dropped, summed over every cut.
    """

    probabilities: np.ndarray
    discarded_weight: float
    # (l, n, bond) tensor of the measured pair, the emptied input modes projected on vacuum
    _pair: np.ndarray
    # right-canonical sites e_m, c_{m+1}, e_{m+1}, ..., c_2m, e_2m
    _right: tuple[np.ndarray, ...]

    def deviations(self, l: np.ndarray, n: np.ndarray, probability: np.ndarray) -> np.ndarray:
        """|probabilities - p| over the whole table, with p the `probability`
        of each record at its (`l`, `n`) and 0 at every other record; records
        outside the table are left out."""
        l, n, probability = np.asarray(l), np.asarray(n), np.asarray(probability)
        ref = np.zeros_like(self.probabilities)
        inside = (l < ref.shape[0]) & (n < ref.shape[1])
        ref[l[inside], n[inside]] = probability[inside]
        return np.abs(self.probabilities - ref)

    def conditional_state(self, l: int, n: int) -> np.ndarray:
        """Normalized state after the record (l, n), before any correction, as
        a dense tensor over Bob's m modes and then the m + 1 environment
        modes (one level each at eta = 1).  Tracing the environment gives
        Bob's state."""
        dims = [site.shape[1] for site in self._right]
        if math.prod(dims) > MAX_DENSE_ENTRIES:
            raise ValueError("conditional state too large to hold densely")
        data = _contract(self._pair[l, n], self._right)
        # site order e_m, c_{m+1}, e_{m+1}, ...: Bob's modes sit at the odd sites
        order = list(range(1, len(dims), 2)) + list(range(0, len(dims), 2))
        data = np.transpose(data, order)
        return data / np.linalg.norm(data)


def protocol_table(
    m: int,
    alpha: complex,
    kappa1: complex,
    kappa2: complex,
    sign: str = "minus",
    eta: float = 1.0,
) -> ProtocolTable:
    """Run the protocol through loss of transmissivity eta in the number basis.

    The state is an MPS over the sites [input m-1, ..., input 0, c_m, e_m,
    c_{m+1}, e_{m+1}, ..., c_2m, e_2m], built from the input at sqrt(eta)
    alpha (as `teleport.run_protocol` prepares it) and the channel at alpha,
    each environment mode e_k in vacuum.  A right-to-left sweep applies the
    loss beam splitter `loss_matrix(eta)` to every (c_k, e_k) pair.  A
    left-to-right sweep then folds: on each step the 50/50 beam splitter and
    a swap act as one gate, so the accumulator (input m-1) walks right and
    ends next to c_m, with the orthogonality centre.  The last 50/50 splitter
    acts on that pair, and the probabilities are its squared weights.

    Each mode gets the fewest photons that leave a Poisson tail of at most
    ORACLE_TAIL at the largest amplitude the mode carries; a mode that stays
    in vacuum gets one level, so at eta = 1 the environment is inert and the
    loss gate is the identity.  Every SVD drops the smallest singular values
    whose squares sum to at most ORACLE_TAIL.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    beta = math.sqrt(eta) * alpha
    inp = build_input(m, beta, kappa1, kappa2)
    chan = build_channel(ChannelSpec(m, alpha, sign))
    in_amp = np.abs(inp.labels).max(axis=0)[::-1]
    ch_amp = np.abs(chan.labels).max(axis=0)
    env_amp = math.sqrt(1.0 - eta) * ch_amp
    folded = 2.0 ** (m / 2.0) * abs(beta)  # both measured modes after the last splitter
    in_amp[0] = folded
    ch_amp[0] = max(ch_amp[0], folded)
    site_amp = np.concatenate([in_amp, np.stack([ch_amp, env_amp], 1).ravel()])
    dims = [tail_cutoff(a, ORACLE_TAIL) + 1 if a > 0 else 1 for a in site_amp.tolist()]
    if math.prod(sorted(dims)[-2:]) > MAX_PAIR_LEVELS:
        raise ValueError(
            f"Fock oracle infeasible: a two-mode gate on {sorted(dims)[-2:]} levels "
            f"exceeds {MAX_PAIR_LEVELS}; lower m or alpha"
        )
    env = np.zeros_like(chan.labels)
    sites = branch_sites(inp.labels[:, ::-1], inp.coeffs, dims[:m]) + branch_sites(
        np.stack([chan.labels, env], 2).reshape(len(env), -1), chan.coeffs, dims[m:]
    )

    # make every site but the last left-canonical; exact, so no bond is cut
    for i in range(len(sites) - 1):
        left, d, _ = sites[i].shape
        q, r = np.linalg.qr(sites[i].reshape(left * d, -1))
        sites[i] = q.reshape(left, d, -1)
        sites[i + 1] = np.tensordot(r, sites[i + 1], axes=1)

    # right to left: loss on each (c_k, e_k); the centre ends on site 0
    discarded = 0.0
    loss = loss_matrix(eta)
    for i in range(len(sites) - 2, -1, -1):
        theta = np.tensordot(sites[i], sites[i + 1], axes=1)
        if i >= m and (i - m) % 2 == 0:  # (c_k, e_k)
            theta = split_pair(theta, loss)
        sites[i], sites[i + 1], cut = _split(theta, centre_right=False)
        discarded += cut
    # left to right: fold the accumulator into input m-2, ..., 0, carrying the centre
    for i in range(m - 1):
        theta = np.tensordot(sites[i], sites[i + 1], axes=1)
        theta = split_pair(theta)
        sites[i], sites[i + 1], cut = _split(theta.swapaxes(1, 2), centre_right=True)
        discarded += cut
    pair = np.tensordot(sites[m - 1], sites[m], axes=1)
    pair = split_pair(pair)
    probs = np.einsum("alnc,alnc->ln", pair, pair.conj()).real

    vacuum = np.ones(1)
    for site in sites[: m - 1]:
        vacuum = vacuum @ site[:, 0, :]
    return ProtocolTable(probs, discarded, np.tensordot(vacuum, pair, axes=1), tuple(sites[m + 1 :]))


def branch_sites(labels: np.ndarray, coeffs: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """MPS of sum_k coeffs[k] prod_s |labels[k, s]>: the bond index is the branch."""
    eye = np.eye(len(coeffs))
    # one call at the largest cutoff; a column's first d levels are the column at cutoff d - 1
    columns = coherent_column(labels.T, max(dims))
    sites = [col[:, :d, None] * eye[:, None, :] for col, d in zip(columns, dims)]
    sites[0] = np.tensordot(coeffs, sites[0], axes=1)[None]
    sites[-1] = sites[-1].sum(axis=2, keepdims=True)
    return sites


def mps_overlap(bra: Sequence[np.ndarray], ket: Sequence[np.ndarray]) -> complex:
    """<bra|ket> of two MPSs over the same sites, each site a (left, d, right)
    tensor and both ends bonds of one, contracted site by site: a site costs
    about K_bra K_ket d (K_bra + K_ket), where the dense vectors hold prod d."""
    env = np.ones((1, 1))
    for b, k in zip(bra, ket, strict=True):
        left, d, right = b.shape
        # env[a, a'] k[a', s, c'] first, then conj(b)[a, s, c] over (a, s)
        ket_side = (env @ k.reshape(k.shape[0], -1)).reshape(left * d, -1)
        env = b.reshape(left * d, right).conj().T @ ket_side
    return complex(env[0, 0])


def _contract(bond: np.ndarray, sites: Sequence[np.ndarray]) -> np.ndarray:
    """Dense tensor of an MPS whose last site has a right bond of one: `bond`
    is the vector on the first site's left bond, and the result has one axis
    per site."""
    data = bond
    for site in sites:
        left = site.shape[0]
        data = data.reshape(-1, left) @ site.reshape(left, -1)
    return data.reshape([site.shape[1] for site in sites])


def _split(theta: np.ndarray, centre_right: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """Split a two-site tensor by SVD, cutting the tail of weight <= ORACLE_TAIL;
    returns the two sites, the centre on the side asked for, and the cut weight."""
    left, di, dj, right = theta.shape
    u, s, vh = np.linalg.svd(theta.reshape(left * di, dj * right), full_matrices=False)
    tail = np.cumsum(s[::-1] ** 2)[::-1]  # tail[k] = sum of s^2 from k on
    keep = max(1, int(np.count_nonzero(tail > ORACLE_TAIL)))
    cut = float(tail[keep]) if keep < len(s) else 0.0
    u, s, vh = u[:, :keep], s[:keep], vh[:keep]
    if centre_right:
        vh = s[:, None] * vh
    else:
        u = u * s
    return u.reshape(left, di, keep), vh.reshape(keep, dj, right), cut


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
        # the branch overlap as a product of truncated single-mode sums;
        # returns (t, u) with |branch2> = t |0> + u |1>, u = sqrt(1 - |t|^2)
        t = 1.0 + 0j
        for a, b in zip(lab1[list(side)].tolist(), lab2[list(side)].tolist()):
            t *= _truncated_overlap(a, b, default_cutoff(max(abs(a), abs(b))) + 1)
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


@lru_cache(maxsize=1024)
def _truncated_overlap(a: complex, b: complex, dim: int) -> complex:
    """<a|b> summed over the first `dim` levels.  Memoised, because the oracle
    asks for the same mode's overlap once per bipartition."""
    return complex(np.vdot(coherent_column(a, dim), coherent_column(b, dim)))


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


def channel_concurrence_oracle(spec: ChannelSpec, partition) -> float:
    """Wootters concurrence of the channel via the numeric qubit reduction."""
    if isinstance(partition, int):
        partition = (partition,)
    part_a = tuple(sorted(set(partition)))
    part_b = tuple(k for k in range(spec.m + 1) if k not in part_a)
    rho2 = reduce_to_qubits(build_channel(spec), (part_a, part_b))
    return wootters_concurrence(rho2)
