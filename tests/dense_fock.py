"""Dense Fock reference, for the tests.

A state is a plain complex `np.ndarray` of coefficients over |n_1..n_M>, one
axis per mode of cutoff + 1 levels.  Its size is (cutoff + 1)^M, so the
package holds Fock states only as matrix-product states (`fock`); the tests
compare those against this form.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from ecs_teleport import fock
from ecs_teleport.algebra import CoherentState, poisson_tail


def encode(state: CoherentState, cutoff: int | Sequence[int]) -> np.ndarray:
    """Expand a pure coherent-label state in the truncated number basis.

    `cutoff` is one photon-number cutoff for every mode or a per-mode
    sequence; the result has cutoff + 1 levels on each mode's axis.  A cutoff
    below the default rule is allowed but triggers a warning when the
    truncation weight is large.
    """
    modes = state.mode_count
    if isinstance(cutoff, int):
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        cuts = [cutoff] * modes
    else:
        cuts = list(cutoff)
        if len(cuts) != modes:
            raise ValueError("need one cutoff per mode")
    beta_max = np.abs(state.labels).max(axis=0).tolist()
    for b, c in zip(beta_max, cuts):
        if poisson_tail(b, c) > 1e-6:
            warnings.warn(
                f"cutoff {c} leaves truncation weight {poisson_tail(b, c):.2e} "
                f"for amplitude {b:.3f}",
                stacklevel=2,
            )
    return fock._contract(np.ones(1), fock.branch_sites(state.labels, state.coeffs, [c + 1 for c in cuts]))


def bs_unitary(v: np.ndarray, i: int, j: int) -> np.ndarray:
    """Apply the 50/50 beam splitter to modes (i, j) of a Fock tensor."""
    if i == j:
        raise IndexError("beam splitter needs two distinct modes")
    for m in (i, j):
        if not 0 <= m < v.ndim:
            raise IndexError(f"mode {m} out of range")
    return fock._apply_blocks(v, i, j, fock._bs_blocks(v.shape[i], v.shape[j]))


def measure_number(v: np.ndarray, mode: int, n: int) -> tuple[np.ndarray, float]:
    """Project `mode` onto |n>; returns the unnormalized remainder and probability."""
    if not 0 <= mode < v.ndim:
        raise IndexError(f"mode {mode} out of range")
    if not 0 <= n < v.shape[mode]:
        raise ValueError(f"photon number {n} outside the cutoff {v.shape[mode] - 1}")
    sliced = np.take(v, n, axis=mode)
    return sliced, float(np.vdot(sliced, sliced).real)
