"""Truncated number-basis engine: encoding, beam splitter, measurement,
qubit reduction and Wootters concurrence."""

import math

import numpy as np
import pytest

from ecs_teleport import fock
from ecs_teleport.algebra import CoherentState, UnsupportedStructureError, beam_splitter, superposition
from ecs_teleport.channels import ChannelSpec, build_channel, schmidt_coefficients
from conftest import random_state


def test_encode_vacuum():
    v = fock.encode(superposition([(1.0, (0.0,))]), 10)
    assert abs(v.data[0] - 1.0) < 1e-15
    assert np.linalg.norm(v.data[1:]) < 1e-15


def test_encode_unit_amplitude_two_photon_coefficient():
    # <2|alpha=1> = e^{-1/2} / sqrt(2)
    v = fock.encode(superposition([(1.0, (1.0,))]), 30)
    assert abs(v.data[2] - math.exp(-0.5) / math.sqrt(2)) < 1e-12


def test_encode_two_branch_norm_deficit():
    psi = superposition([(1.0, (1.0, 1.0)), (1.0, (-1.0, -1.0))])
    nrm = math.sqrt(2.0 * (1.0 + math.exp(-4.0)))
    v = fock.encode(CoherentState(psi.labels, psi.coeffs / nrm), 30)
    assert abs(v.norm() - 1.0) < 1e-10


def test_encode_warns_below_the_cutoff_rule():
    with pytest.warns(UserWarning):
        fock.encode(superposition([(1.0, (2.0,))]), 4)


def test_default_cutoff_rule_tail_bound():
    for beta in (0.5, 1.2, 2.83):
        cut = fock.default_cutoff(beta)
        assert fock.poisson_tail(beta, cut) < 1e-10


def test_bs_unitary_matches_coherent_action():
    a = 0.8
    x = superposition([(1.0, (a, a))])
    out = fock.bs_unitary(fock.encode(x, 40), 0, 1)
    ref = fock.encode(beam_splitter(x, 0, 1), 40)
    assert np.max(np.abs(out.data - ref.data)) < 1e-6


def test_bs_unitary_vacuum_invariant():
    v = fock.encode(superposition([(1.0, (0.0, 0.0))]), 8)
    out = fock.bs_unitary(v, 0, 1)
    assert np.max(np.abs(out.data - v.data)) < 1e-12


def test_bs_unitary_preserves_norm(rng):
    data = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    data /= np.linalg.norm(data)
    v = fock.FockVector((9, 9), data)
    assert abs(fock.bs_unitary(v, 0, 1).norm() - 1.0) < 1e-10


def test_bs_unitary_random_states_agree_with_algebra(rng):
    for _ in range(10):
        x = random_state(rng, 2, 3)
        fx = fock.bs_unitary(fock.encode(x, 18), 0, 1)
        ref = fock.encode(beam_splitter(x, 0, 1), 18)
        assert abs(fock.inner(ref, fx) - 1.0) < 1e-6


def test_measure_number_vacuum():
    v = fock.encode(superposition([(1.0, (0.0, 0.5))]), 10)
    _, p = fock.measure_number(v, 0, 0)
    assert abs(p - 1.0) < 1e-12


def test_measure_number_poisson():
    v = fock.encode(superposition([(1.0, (1.0,))]), 30)
    _, p = fock.measure_number(v, 0, 1)
    assert abs(p - math.exp(-1.0)) < 1e-12


def test_measure_number_probabilities_sum_to_squared_norm(rng):
    x = random_state(rng, 2, 2)
    v = fock.encode(x, 20)
    total = sum(fock.measure_number(v, 0, n)[1] for n in range(21))
    assert abs(total - v.norm() ** 2) < 1e-12


def test_measure_number_beyond_cutoff():
    v = fock.encode(superposition([(1.0, (0.5,))]), 10)
    with pytest.raises(ValueError):
        fock.measure_number(v, 0, 11)


# --- Wootters concurrence -----------------------------------------------------

def _bell():
    rho = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            rho[i, j] = 0.5
    return rho


def test_wootters_bell_state():
    assert abs(fock.wootters_concurrence(_bell()) - 1.0) < 1e-12


def test_wootters_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert fock.wootters_concurrence(rho) == 0.0


def test_wootters_rejects_nonphysical_input():
    bad = np.eye(4, dtype=complex)  # trace 4
    with pytest.raises(ValueError):
        fock.wootters_concurrence(bad)


def test_wootters_local_unitary_invariance(rng):
    def haar_2x2():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    rho = _bell()
    base = fock.wootters_concurrence(rho)
    for _ in range(5):
        u = np.kron(haar_2x2(), haar_2x2())
        rotated = u @ rho @ u.conj().T
        assert abs(fock.wootters_concurrence(rotated) - base) < 1e-9


# --- Gram-Schmidt qubit reduction ----------------------------------------------

def test_reduce_to_qubits_minus_channel_maximally_entangled():
    for m in (1, 3, 6):
        for alpha in (0.3, 1.0, 2.0):
            state = build_channel(ChannelSpec(m, alpha, "minus"))
            rho2 = fock.reduce_to_qubits(state, ((0,), tuple(range(1, m + 1))))
            assert abs(fock.wootters_concurrence(rho2) - 1.0) < 1e-6


def test_reduce_to_qubits_plus_channel_tanh():
    state = build_channel(ChannelSpec(3, 0.7, "plus"))
    rho2 = fock.reduce_to_qubits(state, ((0,), (1, 2, 3)))
    assert abs(fock.wootters_concurrence(rho2) - math.tanh(8 * 0.49)) < 1e-6


def test_reduce_to_qubits_rejects_dependent_branches():
    state = superposition([(0.8, (0.5, 0.5)), (0.6, (0.5, 0.5))])
    with pytest.raises(UnsupportedStructureError):
        fock.reduce_to_qubits(state, ((0,), (1,)))


def test_cross_branch_coefficients_vanish_at_large_amplitude():
    pair = schmidt_coefficients(
        build_channel(ChannelSpec(3, 2.0, "minus")), ((0,), (1, 2, 3))
    )
    # suppressed by exp(-2^m |alpha|^2) = exp(-32)
    assert abs(pair.x01) < 1e-13
    assert abs(pair.x10) < 1e-13
