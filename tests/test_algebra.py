"""Closed-form coherent algebra: overlaps, beam splitters, projections,
partial traces.  Expected numbers are either hand-derivable or re-computed by
the truncated number-basis engine inside the test."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecs_teleport import algebra, fock
from ecs_teleport.algebra import (
    CoherentState,
    DimensionMismatchError,
    beam_splitter,
    dedupe,
    fidelity,
    gram,
    half_log_factorials,
    inner_product,
    normalized,
    number_amplitudes,
    overlap,
    project_photon_number,
    superposition,
    tensor,
    trace_out,
)
from conftest import random_state
from dense_fock import encode, measure_number
from reference import phase_shift_pi

amplitudes = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


# --- single-mode overlap -----------------------------------------------------

def test_overlap_self_is_unity():
    for a in (0.3, 1.0 + 0.5j, -2.1j):
        assert abs(overlap(a, a) - 1.0) < 1e-12


def test_overlap_opposite_unit_amplitudes():
    assert abs(overlap(1.0, -1.0) - math.exp(-2.0)) < 1e-12


def test_overlap_half_amplitude_against_fock_sum():
    # e^{-0.5} = 0.6065307; the number-basis sum must agree at cutoff 30
    closed = overlap(0.5, -0.5)
    assert abs(closed - math.exp(-0.5)) < 1e-12
    summed = np.vdot(fock.coherent_column(0.5, 31), fock.coherent_column(-0.5, 31))
    assert abs(closed - summed) < 1e-12


@given(amplitudes, amplitudes)
def test_overlap_magnitude_bounded(a, b):
    assert abs(overlap(a, b)) <= 1.0 + 1e-12


@given(amplitudes, amplitudes)
def test_overlap_conjugate_symmetry(a, b):
    assert abs(overlap(a, b) - overlap(b, a).conjugate()) < 1e-12


# --- inner products ----------------------------------------------------------

def test_inner_product_two_mode_product_states():
    x = superposition([(1.0, (1.0, 1.0))])
    y = superposition([(1.0, (-1.0, -1.0))])
    assert abs(inner_product(x, x) - 1.0) < 1e-12
    assert abs(inner_product(x, y) - math.exp(-4.0)) < 1e-12


def test_inner_product_unnormalized_two_branch_state():
    # <psi|psi> for |a,a> + |-a,-a> at a=1 expands to 2 + 2 e^{-4}
    psi = superposition([(1.0, (1.0, 1.0)), (1.0, (-1.0, -1.0))])
    assert abs(inner_product(psi, psi) - 2.0 * (1.0 + math.exp(-4.0))) < 1e-12


def test_inner_product_mode_count_mismatch():
    x = superposition([(1.0, (1.0,))])
    y = superposition([(1.0, (1.0, 1.0))])
    with pytest.raises(DimensionMismatchError):
        inner_product(x, y)


def test_inner_product_conjugate_symmetry_random(rng):
    for _ in range(20):
        x = random_state(rng, 3, 3)
        y = random_state(rng, 3, 2)
        assert abs(inner_product(x, y) - inner_product(y, x).conjugate()) < 1e-12


# --- beam splitter -----------------------------------------------------------

def test_beam_splitter_merges_equal_amplitudes():
    a = 0.9
    out = beam_splitter(superposition([(1.0, (a, a))]), 0, 1)
    lab = out.labels[0]
    assert abs(lab[0] - math.sqrt(2) * a) < 1e-12
    assert abs(lab[1]) < 1e-12


def test_beam_splitter_opposite_amplitudes():
    a = 0.9
    out = beam_splitter(superposition([(1.0, (a, -a))]), 0, 1)
    lab = out.labels[0]
    assert abs(lab[0]) < 1e-12
    assert abs(lab[1] - math.sqrt(2) * a) < 1e-12


def test_beam_splitter_rejects_equal_modes():
    x = superposition([(1.0, (0.5, 0.5))])
    with pytest.raises(IndexError):
        beam_splitter(x, 1, 1)


def test_beam_splitter_preserves_inner_products(rng):
    for _ in range(20):
        x = random_state(rng, 3, 3)
        y = random_state(rng, 3, 2)
        before = inner_product(x, y)
        after = inner_product(beam_splitter(x, 0, 2), beam_splitter(y, 0, 2))
        assert abs(before - after) < 1e-12


# --- phase shifter -----------------------------------------------------------

def test_phase_shift_pi_flips_amplitudes():
    a = math.sqrt(2) * 0.7
    x = superposition([(1.0, (-a, -0.7, -0.7))])
    out = phase_shift_pi(x, (0, 1, 2))
    assert np.max(np.abs(out.labels[0] - (a, 0.7, 0.7))) <= 1e-12


def test_phase_shift_pi_empty_set_is_identity():
    x = superposition([(0.5j, (0.3, -0.2))])
    out = phase_shift_pi(x, ())
    assert np.array_equal(out.labels, x.labels) and np.array_equal(out.coeffs, x.coeffs)


def test_phase_shift_pi_involution(rng):
    x = random_state(rng, 3, 2)
    twice = phase_shift_pi(phase_shift_pi(x, (0, 2)), (0, 2))
    assert abs(inner_product(x, twice) - 1.0) < 1e-12


# --- photon-number projection -------------------------------------------------

def test_project_vacuum_mode():
    x = superposition([(1.0, (0.0, 0.8))])
    reduced, prob = project_photon_number(x, 0, 0)
    assert abs(prob - 1.0) < 1e-12
    assert reduced.labels.tolist() == [[0.8]]


def test_project_single_mode_poisson_statistics():
    beta = 1.1
    x = superposition([(1.0, (beta,))])
    for n in range(5):
        _, prob = project_photon_number(x, 0, n)
        expected = math.exp(-beta**2) * beta ** (2 * n) / math.factorial(n)
        assert abs(prob - expected) < 1e-12
        # independent number-basis check
        _, p_fock = measure_number(encode(x, 30), 0, n)
        assert abs(prob - p_fock) < 1e-9


def test_half_log_factorials_are_exact(monkeypatch):
    table = half_log_factorials(4096)
    assert table.tolist() == [0.5 * math.lgamma(n + 1) for n in range(4096)]
    for count in (1, 2, 3, 100, 1025):
        assert half_log_factorials(count).tolist() == table[:count].tolist()
    assert not table.flags.writeable
    # a table grown in steps holds the bits of one cold build
    empty = np.zeros(0)
    monkeypatch.setattr(algebra, "_half_log_factorial_table", empty)
    cold = half_log_factorials(70000)
    monkeypatch.setattr(algebra, "_half_log_factorial_table", empty)
    for count in (5, 4096, 70000):
        grown = half_log_factorials(count)
        assert len(grown) == count and not grown.flags.writeable
        assert len(algebra._half_log_factorial_table) == count  # no power-of-two slack
    assert grown.tolist() == cold.tolist()
    assert cold.tolist() == [0.5 * math.lgamma(n + 1) for n in range(70000)]


def test_number_amplitudes_reuse_the_cached_table(monkeypatch):
    beta = np.array([0.7, -1.2j, 0.0])
    monkeypatch.setattr(algebra, "_half_log_factorial_table", np.zeros(0))
    warm = number_amplitudes(beta, 511)  # grows the table to exactly 512 entries
    assert len(algebra._half_log_factorial_table) == 512

    def no_lgamma(x):
        raise AssertionError("lgamma called on a cached table")

    monkeypatch.setattr(math, "lgamma", no_lgamma)
    assert np.array_equal(number_amplitudes(beta, 300), warm[:301])
    assert np.array_equal(number_amplitudes(beta, 511), warm)


def test_project_rejects_negative_count():
    x = superposition([(1.0, (0.5,))])
    with pytest.raises(ValueError):
        project_photon_number(x, 0, -1)


def test_projection_probabilities_complete_within_tail(rng):
    x = random_state(rng, 2, 3)
    beta_max = np.abs(x.labels[:, 0]).max()
    cut = 25
    total = sum(project_photon_number(x, 0, n)[1] for n in range(cut + 1))
    assert abs(total - 1.0) <= algebra.poisson_tail(beta_max, cut) + 1e-12


# --- Gram matrices and operators ----------------------------------------------

def _operator(x):
    """The operator form |x><x| of a pure state."""
    return CoherentState(x.labels, x.density())


def _is_hermitian(op, tol=1e-12):
    return np.max(np.abs(op.coeffs - op.coeffs.conj().T)) <= tol


def test_gram_matrix_positive_semidefinite(rng):
    for _ in range(20):
        x = random_state(rng, 3, 4, amp_max=2.0)
        eigs = np.linalg.eigvalsh(gram(x.labels, x.labels))
        assert eigs.min() > -1e-10


def test_gram_matrix_matches_per_mode_overlaps(rng):
    x = random_state(rng, 3, 3)
    y = random_state(rng, 3, 2)
    g = gram(x.labels, y.labels)
    for j, a in enumerate(x.labels):
        for k, b in enumerate(y.labels):
            assert abs(g[j, k] - math.prod(overlap(p, q) for p, q in zip(a, b))) < 1e-12


def test_operator_trace_of_normalized_pure_state(rng):
    x = random_state(rng, 2, 3)
    op = _operator(x)
    assert not op.is_pure and x.is_pure
    assert abs(op.trace() - 1.0) < 1e-10
    assert _is_hermitian(op)


def test_trace_out_shared_mode_amplitude_leaves_coeffs():
    # tracing a mode where every label carries the same amplitude: factor 1
    x = superposition([(0.8, (0.5, 1.0)), (0.6, (0.5, -1.0))])
    op = _operator(normalized(x))
    reduced = trace_out(op, (0,))
    assert np.allclose(reduced.coeffs, op.coeffs)


def test_trace_out_everything_returns_scalar_trace(rng):
    x = random_state(rng, 3, 2)
    op = _operator(x)
    scalar = trace_out(op, (0, 1, 2))
    assert scalar.mode_count == 0
    assert abs(scalar.trace() - 1.0) < 1e-10


def test_trace_out_preserves_trace_and_hermiticity(rng):
    for _ in range(10):
        x = random_state(rng, 3, 3)
        op = _operator(x)
        reduced = trace_out(op, (1,))
        assert abs(reduced.trace() - op.trace()) < 1e-10
        assert _is_hermitian(reduced, 1e-10)


def test_operator_projection_matches_pure_projection(rng):
    x = random_state(rng, 2, 3)
    op = _operator(x)
    for n in range(4):
        reduced_pure, p_pure = project_photon_number(x, 1, n)
        reduced_op, p_op = project_photon_number(op, 1, n)
        assert reduced_pure.is_pure and not reduced_op.is_pure
        assert abs(p_pure - p_op) < 1e-10


def test_operator_fidelity_pure_self_is_one(rng):
    x = random_state(rng, 2, 2)
    op = _operator(x)
    assert abs(fidelity(op, op) - 1.0) < 1e-10


def test_operator_fidelity_dimension_mismatch(rng):
    a = _operator(random_state(rng, 2, 2))
    b = _operator(random_state(rng, 3, 2))
    with pytest.raises(DimensionMismatchError):
        fidelity(a, b)


def test_pure_fidelity_against_own_projector(rng):
    x = random_state(rng, 2, 3)
    assert abs(fidelity(x, _operator(x)) - 1.0) < 1e-10
    assert abs(fidelity(x, x) - 1.0) < 1e-12
    y = random_state(rng, 2, 2)
    assert abs(fidelity(x, y) - abs(inner_product(x, y)) ** 2) < 1e-12


def test_dedupe_merges_close_labels():
    x = superposition([(0.5, (0.3, 0.4)), (0.25, (0.3, 0.4 + 1e-15))])
    merged = dedupe(x)
    assert len(merged.labels) == 1
    assert abs(merged.coeffs[0] - 0.75) < 1e-12


def test_tensor_concatenates_modes():
    x = superposition([(1.0, (0.1,))])
    y = superposition([(1.0, (0.2, 0.3))])
    xy = tensor(x, y)
    assert xy.mode_count == 3
    assert xy.labels.tolist() == [[0.1, 0.2, 0.3]]


def test_tensor_with_an_operator_promotes_the_pure_side(rng):
    x = random_state(rng, 1, 2)
    y = random_state(rng, 2, 3)
    mixed = tensor(x, _operator(y))
    assert not mixed.is_pure
    assert np.allclose(mixed.coeffs, tensor(x, y).density(), atol=1e-15)


def test_state_constructor_checks_shapes():
    with pytest.raises(ValueError):
        CoherentState(np.zeros((2, 3)), np.ones(3))
    with pytest.raises(ValueError):
        CoherentState(np.zeros(3), np.ones(3))


@pytest.mark.parametrize("bad", (math.inf, math.nan, complex(0.0, math.inf)))
def test_superposition_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        superposition([(1.0, (0.5, bad))])
    with pytest.raises(ValueError):
        superposition([(bad, (0.5, 0.5))])
