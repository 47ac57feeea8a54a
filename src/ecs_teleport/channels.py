"""Entangled-coherent-state channels and their entanglement analytics.

A channel for teleporting m modes lives on m+1 modes with the amplitude
ladder (2^{(m-1)/2}, 2^{(m-2)/2}, ..., sqrt2, 1, 1) * alpha; the state is the
normalized sum or difference of that product label and its negative.  The
m-mode input states use the same ladder one rung shorter.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    MIN_AMPLITUDE,
    CoherentState,
    UnsupportedStructureError,
    gram,
    normalized,
    superposition,
)


@dataclass(frozen=True)
class ChannelSpec:
    """Channel parameters: m teleported modes, amplitude alpha, branch sign."""

    m: int
    alpha: complex
    sign: str = "minus"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not cmath.isfinite(complex(self.alpha)):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if abs(self.alpha) < MIN_AMPLITUDE:
            raise ValueError(
                f"|alpha| must be >= {MIN_AMPLITUDE}; the channel degenerates at alpha = 0"
            )
        if self.sign not in ("plus", "minus"):
            raise ValueError("sign must be 'plus' or 'minus'")

    @property
    def relative_sign(self) -> float:
        return 1.0 if self.sign == "plus" else -1.0


def channel_amplitudes(m: int, alpha: complex) -> tuple[complex, ...]:
    """(2^{(m-1)/2}, ..., sqrt2, 1, 1) * alpha over m+1 modes."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ladder = [2.0 ** ((m - 1 - k) / 2.0) for k in range(m)] + [1.0]
    return tuple(complex(alpha) * r for r in ladder)


def input_amplitudes(m: int, alpha: complex) -> tuple[complex, ...]:
    """Amplitude ladder of the m-mode states the channel can carry."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return (complex(alpha),)
    return channel_amplitudes(m - 1, alpha)


def norm_constant(m: int, alpha: complex, sign: str) -> float:
    """1 / sqrt(2 (1 +- exp(-2^{m+1} |alpha|^2))), the channel normalization."""
    z = (2.0 ** (m + 1)) * abs(alpha) ** 2
    if sign == "plus":
        return 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-z)))
    return 1.0 / math.sqrt(-2.0 * math.expm1(-z))  # 1 - exp(-z) without cancellation


def build_channel(spec: ChannelSpec) -> CoherentState:
    """Normalized (m+1)-mode channel state A (|+branch> +- |-branch>)."""
    amps = channel_amplitudes(spec.m, spec.alpha)
    neg = tuple(-a for a in amps)
    raw = superposition([(1.0, amps), (spec.relative_sign, neg)])
    return normalized(raw)


def input_coefficients(kappa1: complex, kappa2: complex, label_gram) -> tuple[complex, complex]:
    """(kappa1, kappa2) normalized against the input labels' 2x2 Gram matrix,
    a nested sequence got from `label_gram()` after the vanish check, so a bad
    m raises next.

    The pair is first scaled by a power of four near 1 / its largest
    component, so a kappa whose square would overflow or underflow still
    normalizes.  The normalization does not depend on scale, and both that
    scale and the square root of its square are exact, so every pair that
    normalizes unscaled keeps its bits.
    """
    if kappa1 == 0 and kappa2 == 0:
        raise ValueError("kappa1 and kappa2 must not both vanish")
    # the Gram matrix is finite exactly when the amplitudes are, short of overflow
    (g11, g12), (g21, g22) = label_gram()
    c1, c2 = complex(kappa1), complex(kappa2)
    if not all(map(cmath.isfinite, (c1, c2, g11, g12, g21, g22))):
        raise ValueError("coefficients and coherent amplitudes must be finite")
    k = -2 * (math.frexp(max(abs(c1.real), abs(c1.imag), abs(c2.real), abs(c2.imag)))[1] // 2)
    c1 = complex(math.ldexp(c1.real, k), math.ldexp(c1.imag, k))
    c2 = complex(math.ldexp(c2.real, k), math.ldexp(c2.imag, k))
    a, b = c1.conjugate(), c2.conjugate()
    # sum_ab c_a conj(c_b) G_ba, the terms of `CoherentState.trace`, in row order
    t = (c1 * a * g11 + c1 * b * g21 + c2 * a * g12 + c2 * b * g22).real
    if t < 1e-300:
        raise ValueError("cannot normalize a null state")
    scale = 1.0 / math.sqrt(t)  # times the reciprocal, as NumPy divides a complex array by a float
    return c1 * scale, c2 * scale


def build_input(m: int, alpha: complex, kappa1: complex, kappa2: complex) -> CoherentState:
    """Normalized m-mode state kappa1 |+branch> + kappa2 |-branch>."""
    if abs(alpha) < MIN_AMPLITUDE:
        raise ValueError(f"|alpha| must be >= {MIN_AMPLITUDE}")

    def labels() -> np.ndarray:
        amps = input_amplitudes(m, alpha)
        return np.array([amps, tuple(-a for a in amps)], dtype=complex)
    coeffs = input_coefficients(kappa1, kappa2, lambda: gram(labels(), labels()).tolist())
    return CoherentState(labels(), coeffs)


def _partition_energy(spec: ChannelSpec, part_a) -> tuple[float, float]:
    amps = channel_amplitudes(spec.m, spec.alpha)
    part_a = sorted(set(part_a))
    for k in part_a:
        if not 0 <= k <= spec.m:
            raise ValueError(f"mode {k} outside the channel's 0..{spec.m} range")
    if not part_a or len(part_a) == spec.m + 1:
        raise ValueError("bipartition must leave modes on both sides")
    e_a = sum(abs(amps[k]) ** 2 for k in part_a)
    e_total = sum(abs(a) ** 2 for a in amps)
    return e_a, e_total - e_a


def concurrence_closed_form(spec: ChannelSpec, partition) -> float:
    """Concurrence of the channel across a bipartition, in closed form.

    `partition` is a lone channel-mode index or a set of them (the A side).
    With branch overlaps t_x = exp(-2 E_x) on side x (E_x the summed squared
    amplitudes) the two-branch state has concurrence

        C = 2 A^2 sqrt(1 - t_A^2) sqrt(1 - t_B^2),

    which is 1 for the minus branch across the 0|(rest) cut and tanh of the
    total energy for the plus branch.
    """
    if isinstance(partition, int):
        partition = (partition,)
    e_a, e_b = _partition_energy(spec, partition)
    t_a = math.exp(-2.0 * e_a)
    t_b = math.exp(-2.0 * e_b)
    a2 = norm_constant(spec.m, spec.alpha, spec.sign) ** 2
    return 2.0 * a2 * math.sqrt(1.0 - t_a**2) * math.sqrt(1.0 - t_b**2)


@dataclass(frozen=True)
class SchmidtPair:
    """Coefficients of a two-branch state in the Gram-Schmidt qubit basis."""

    x00: complex
    x01: complex
    x10: complex
    x11: complex

    def as_vector(self):
        return (self.x00, self.x01, self.x10, self.x11)

    @property
    def concurrence(self) -> float:
        return 2.0 * abs(self.x00 * self.x11 - self.x01 * self.x10)


def schmidt_coefficients(
    state: CoherentState, bipartition: tuple[tuple[int, ...], tuple[int, ...]]
) -> SchmidtPair:
    """Express a normalized two-branch pure state in the orthonormal basis
    built by Gram-Schmidt from its two branch products on each side of the cut.

    |0>_x is the first branch restricted to side x, |1>_x the second branch
    orthogonalized against it.
    """
    side_a, side_b = list(bipartition[0]), list(bipartition[1])
    if sorted(side_a + side_b) != list(range(state.mode_count)):
        raise ValueError("bipartition must split the modes exactly")
    branches = np.flatnonzero(state.coeffs != 0)
    if len(branches) != 2:
        raise UnsupportedStructureError("state must have exactly two branches")
    c1, c2 = state.coeffs[branches].tolist()
    lab1, lab2 = state.labels[branches]

    def gs(side):
        t = complex(gram(lab1[None, side], lab2[None, side])[0, 0])
        usq = 1.0 - abs(t) ** 2
        if usq < 1e-14:
            raise UnsupportedStructureError(
                "branches are not linearly independent on one side of the cut"
            )
        return t, math.sqrt(usq)

    t_a, u_a = gs(side_a)
    t_b, u_b = gs(side_b)
    return SchmidtPair(
        x00=c1 + c2 * t_a * t_b,
        x01=c2 * t_a * u_b,
        x10=c2 * u_a * t_b,
        x11=c2 * u_a * u_b,
    )

