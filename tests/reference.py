"""Per-record reference of the protocol, for the tests.

`run_protocol` scores the whole outcome table in five record classes.  This
module keeps the per-record view that the tests compare it against:
`enumerate_outcomes` scores one folded state (the A = 1 case of the class
scoring), `bob_state` builds Bob's corrected state for one record from the
algebra's primitives, and `correction_for` names the correction of one
record.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from ecs_teleport import teleport
from ecs_teleport.algebra import CoherentState, check_modes, normalized, projected
from ecs_teleport.teleport import CORRECTIONS, ProtocolReport, correction_codes


def phase_shift_pi(state: CoherentState, modes: Iterable[int]) -> CoherentState:
    """Pi phase shift on the listed modes: every amplitude there is negated."""
    modes = check_modes(state.mode_count, modes)
    labels = state.labels.copy()
    labels[:, modes] *= -1
    return replace(state, labels=labels)


def correction_for(l: int, n: int, channel_sign: str) -> str:
    """The correction of the record (l, n); see `teleport.correction_codes`."""
    return CORRECTIONS[int(correction_codes(l, n, channel_sign))]


def bob_state(folded: CoherentState, m: int, l: int, n: int, sign: str = "minus") -> CoherentState:
    """Bob's corrected conditional state after the record (l, n) of a folded state.

    Projects mode m onto n photons and mode m-1 onto l, drops the m-1 emptied
    input modes, normalizes, then applies `correction_for(l, n, sign)`.  The
    sign flip |+branch> -> |+branch>, |-branch> -> -|-branch> is not unitary
    on non-orthogonal branches, so the flipped state is renormalized.
    """
    state = projected(projected(folded, m, n), m - 1, l)
    for _ in range(m - 1):
        state = projected(state, 0, 0)
    state = normalized(state)
    what = correction_for(l, n, sign)
    if what in ("phase_only", "phase_plus_sign"):
        state = phase_shift_pi(state, range(m))
    if what in ("sign_only", "phase_plus_sign"):
        signs = teleport._branch_signs(state.labels, teleport._default_plus_amps(state.labels))
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
    """The (l=0, n) and (l, n=0) measurement records of a folded state, each
    scored against the pure `reference`, with records below PROB_FLOOR
    dropped.

    The folded state's coefficient matrix C enters the `teleport._Geometry`
    as rho (x) F with rho = [1] and F = C, where `run_protocol` has the
    input's two labels and the channel's matrix; the table's mass is bounded
    by the folded state's trace.  A state whose measured-mode amplitudes do
    not factor into the record classes raises UnsupportedStructureError.
    """
    geometry = teleport._geometry(folded.labels, reference.labels, m, n_max, sign, folded.density(),
                                  folded.trace().real)
    return geometry.score([1 + 0j], reference.coeffs.tolist())
