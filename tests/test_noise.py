"""Loss channel and teleportation through loss.  The m=1 protocol is
re-simulated end to end with dense density matrices in the number basis,
including the environment trace, as a fully independent check."""

import math
import re
import warnings

import numpy as np
import pytest

from ecs_teleport import fock
from ecs_teleport.algebra import fidelity, superposition, tensor
from ecs_teleport.channels import ChannelSpec, build_channel, build_input
from ecs_teleport.noise import (
    apply_loss,
    channel_fidelity,
    lossy_channel_operator,
    teleported_fidelity_exact,
)
from ecs_teleport.teleport import (
    default_n_max,
    fold_network,
    run_protocol,
    teleport_through_noise,
)
from ecs_teleport.verify import noisy_fidelity_adjudication, teleported_fidelity_closed_form
from conftest import random_state
from dense_fock import bs_unitary
from reference import enumerate_outcomes


def test_loss_model_bounds():
    x = superposition([(1.0, (0.5,))])
    with pytest.raises(ValueError, match="eta must lie in"):
        apply_loss(x, -0.1)
    with pytest.raises(ValueError, match="eta must lie in"):
        apply_loss(x, 1.1)


def test_lossless_limit_is_projector(rng):
    x = random_state(rng, 2, 2)
    rho = apply_loss(x, 1.0)
    assert not rho.is_pure
    assert abs(fidelity(x, rho) - 1.0) < 1e-10


def test_full_loss_gives_vacuum():
    x = build_channel(ChannelSpec(3, 1.0, "minus"))
    rho = apply_loss(x, 0.0)
    assert len(rho.labels) == 1
    assert all(abs(a) < 1e-12 for a in rho.labels[0])
    assert abs(rho.trace() - 1.0) < 1e-10


def test_loss_preserves_trace_and_hermiticity(rng):
    for eta in (0.2, 0.7):
        x = random_state(rng, 3, 3)
        rho = apply_loss(x, eta)
        assert abs(rho.trace() - 1.0) < 1e-10
        assert np.max(np.abs(rho.coeffs - rho.coeffs.conj().T)) <= 1e-10


def test_loss_scales_amplitudes():
    x = build_channel(ChannelSpec(3, 1.0, "minus"))
    rho = apply_loss(x, 0.49)
    expected = tuple(0.7 * a for a in (2.0, math.sqrt(2), 1.0, 1.0))
    mags = sorted(max(abs(a) for a in lab) for lab in rho.labels)
    assert abs(mags[-1] - expected[0]) < 1e-12


def test_loss_cross_term_damping_factor():
    # four-mode minus channel: off-branch coefficients damped by
    # exp(-16 (1-eta) alpha^2) relative to the diagonal
    alpha, eta = 0.9, 0.6
    rho = apply_loss(build_channel(ChannelSpec(3, alpha, "minus")), eta)
    i, j = 0, 1
    ratio = abs(rho.coeffs[i, j]) / abs(rho.coeffs[i, i])
    assert abs(ratio - math.exp(-16 * (1 - eta) * alpha**2)) < 1e-12


def test_loss_semigroup_composition(rng):
    x = random_state(rng, 2, 2)
    twice = apply_loss(apply_loss(x, 0.8), 0.75)
    once = apply_loss(x, 0.6)
    assert len(twice.labels) == len(once.labels)
    assert np.max(np.abs(twice.labels - once.labels)) <= 1e-10
    assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-10


def test_partial_mode_loss():
    x = superposition([(1.0, (0.5, 0.8))])
    rho = apply_loss(x, 0.5, modes=(1,))
    assert abs(rho.labels[0][0] - 0.5) < 1e-12
    assert abs(rho.labels[0][1] - 0.8 * math.sqrt(0.5)) < 1e-12


# --- channel fidelity -----------------------------------------------------------

def test_channel_fidelity_lossless():
    assert abs(channel_fidelity(1.3, 1.0) - 1.0) < 1e-12


def test_channel_fidelity_half_transmissivity_is_half():
    for alpha in (0.2, 0.9, 1.7, 3.0):
        assert abs(channel_fidelity(alpha, 0.5) - 0.5) < 1e-12


def test_channel_fidelity_matches_operator_trace():
    for alpha in (0.4, 1.0, 2.2):
        for eta in (0.15, 0.5, 0.85):
            rho_pe = lossy_channel_operator(3, alpha, eta)
            ref = build_channel(ChannelSpec(3, math.sqrt(eta) * alpha, "minus"))
            assert abs(fidelity(ref, rho_pe) - channel_fidelity(alpha, eta)) < 1e-9


def _fock_overlap(amps_a, amps_b):
    """Multimode <a|b> as a product of truncated single-mode number-basis sums."""
    out = 1.0 + 0j
    for a, b in zip(amps_a, amps_b):
        d = fock.default_cutoff(max(abs(a), abs(b))) + 1
        out *= complex(np.vdot(fock.coherent_column(a, d), fock.coherent_column(b, d)))
    return out


def test_channel_fidelity_against_fock_gram():
    # rebuild the trace from truncated number-basis overlaps only
    alpha, eta = 1.0, 0.35
    amps = (2 * alpha, math.sqrt(2) * alpha, alpha, alpha)
    damped = tuple(math.sqrt(eta) * a for a in amps)
    total = sum(a**2 for a in amps)
    d = math.exp(-2 * (1 - eta) * total)
    m_pe = np.array([[1, -d], [-d, 1]]) / (2 * (1 - math.exp(-2 * total)))
    m_ref = np.array([[1, -1], [-1, 1]]) / (2 * (1 - math.exp(-2 * eta * total)))
    labs = [damped, tuple(-a for a in damped)]
    g = np.array([[_fock_overlap(a, b) for b in labs] for a in labs])
    trace = np.trace(m_ref @ g @ m_pe @ g).real
    assert abs(trace - channel_fidelity(alpha, eta)) < 1e-6


def test_channel_fidelity_small_amplitude_has_no_cancellation():
    # 1 - exp(-z) at z = 1.6e-13 kept only three significant digits
    assert abs(channel_fidelity(1e-7, 0.5) - 0.5) < 1e-12


def test_channel_fidelity_domain_errors():
    # alpha = 0 is no error: F tends to eta as alpha -> 0
    for eta in (0.0, 0.5, 1.0):
        assert channel_fidelity(0.0, eta) == eta
    with pytest.raises(ValueError):
        channel_fidelity(1.0, 1.2)
    # m counts teleported modes: the channel has m + 1 >= 2 modes
    for m in (0, -1):
        with pytest.raises(ValueError):
            channel_fidelity(1.0, 0.5, m)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_closed_forms_broadcast_bit_for_bit(m):
    # the figures evaluate a whole (alpha, eta) grid in one call; each cell must
    # hold the scalar call's bits, with no warning at alpha = 0 or at the eta edges
    alphas = np.array([0.0, 1e-9, 3e-4, 0.02, 0.5, 1.0 + 0.5j, 2.5, 30.0])
    etas = np.array([0.0, 1e-12, 0.3, 0.5, 1.0 - 1e-12, 1.0])[:, None]
    forms = {
        "channel": lambda a, e: channel_fidelity(a, e, m=m),
        "teleported": lambda a, e: teleported_fidelity_exact(m, a, e),
    }
    for form in forms.values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = form(alphas, etas)
            cells = [[form(a, e) for a in alphas.tolist()] for e in etas[:, 0].tolist()]
        assert grid.shape == (len(etas), len(alphas))
        assert all(type(v) is float for row in cells for v in row)
        assert np.array_equal(grid, np.array(cells))
        assert np.all((0.0 <= grid) & (grid <= 1.0))
    assert np.array_equal(forms["channel"](0.0, etas[:, 0]), etas[:, 0])
    assert np.array_equal(forms["teleported"](0.0, etas[:, 0]), etas[:, 0] / (2.0 - etas[:, 0]))


@pytest.mark.parametrize("m,alpha", [(3, 1e200), (3, 1e154), (1022, 5.0), (1, -2e154 + 1e154j)])
def test_closed_forms_take_their_limits_where_alpha_squared_overflows(m, alpha):
    # 2^(m+1) |alpha|^2 overflows to inf; inf * 0 gave NaN at the eta edges
    etas = np.array([0.0, 1e-300, 0.3, 0.5, 1.0 - 1e-12, 1.0])
    limits = np.array([0.0, 0.5, 0.5, 0.5, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(channel_fidelity(alpha, etas, m=m), limits)
        assert np.array_equal(teleported_fidelity_exact(m, alpha, etas), limits)
        assert [channel_fidelity(alpha, e, m=m) for e in (0.0, 1.0)] == [0.0, 1.0]
        assert [teleported_fidelity_exact(m, alpha, e) for e in (0.0, 1.0)] == [0.0, 1.0]


def test_closed_forms_reject_any_cell_outside_the_domain():
    for bad in (np.array([0.2, 1.2]), np.array([[0.5], [math.nan]]), np.array([-0.1])):
        with pytest.raises(ValueError, match=re.escape("eta must lie in [0, 1]")):
            channel_fidelity(np.ones(3), bad)
        with pytest.raises(ValueError, match=re.escape("eta must lie in [0, 1]")):
            teleported_fidelity_exact(3, np.ones(3), bad)
    with pytest.raises(ValueError, match="m must be >= 1"):
        teleported_fidelity_exact(0, np.ones(3), np.ones(3))


# --- teleportation through loss ---------------------------------------------------

def test_lossless_noisy_run_matches_noiseless_protocol():
    # at eta = 1 the driver's loss channel is the identity: its operator-form
    # run must match the kernel on the pure folded joint state
    k1, k2, alpha = 0.6, -0.5 + 0.3j, 1.0
    for m in (1, 2, 3, 4):
        n_max = default_n_max(m, alpha)
        for sign in ("minus", "plus"):
            inp = build_input(m, alpha, k1, k2)
            folded = fold_network(tensor(inp, build_channel(ChannelSpec(m, alpha, sign))), m)
            assert folded.is_pure
            pure = enumerate_outcomes(folded, m, n_max, sign=sign, reference=inp)
            lossless = run_protocol(m, alpha, k1, k2, sign, n_max=n_max, eta=1.0)
            records = [(o.l, o.n, o.correction) for o in pure.outcomes]
            assert [(o.l, o.n, o.correction) for o in lossless.outcomes] == records
            for a, b in zip(lossless.outcomes, pure.outcomes):
                assert abs(a.probability - b.probability) < 1e-12
                assert abs(a.fidelity - b.fidelity) < 1e-12


def test_noisy_outcome_fidelities_match_exact_closed_form():
    for m, alpha, eta in ((1, 0.8, 0.6), (2, 1.1, 0.4), (3, 1.0, 0.6), (3, 1.5, 0.85)):
        rep = teleport_through_noise(m, alpha, eta, 1.0, -1.0, n_max=8)
        expected = teleported_fidelity_exact(m, alpha, eta)
        for o in rep.outcomes:
            if o.is_success:
                assert abs(o.fidelity - expected) < 1e-9
        assert abs(rep.mean_fidelity - expected) < 1e-9


def test_exact_fidelity_rejects_eta_outside_unit_interval():
    for eta in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            teleported_fidelity_exact(3, 0.5, eta)


def test_exact_fidelity_small_amplitude_limit():
    # F -> eta / (2 - eta) as alpha -> 0; alpha = 0 returns the limit
    for eta in (0.0, 0.3, 0.6, 1.0):
        limit = eta / (2.0 - eta)
        assert abs(teleported_fidelity_exact(3, 0.0, eta) - limit) < 1e-15
        assert abs(teleported_fidelity_exact(3, 1e-7, eta) - limit) < 1e-12


def test_noisy_fidelity_depends_on_input_branch_combination():
    # the closed form covers the odd-cat input; the even-cat value differs
    minus_cat = teleport_through_noise(3, 1.0, 0.6, 1.0, -1.0, n_max=6)
    plus_cat = teleport_through_noise(3, 1.0, 0.6, 1.0, 1.0, n_max=6)
    assert abs(minus_cat.mean_fidelity - plus_cat.mean_fidelity) > 1e-3


def test_noisy_probabilities_still_complete():
    rep = teleport_through_noise(3, 1.0, 0.7, 0.8, 0.6, n_max=60)
    assert abs(rep.total_probability - 1.0) < 1e-9


def test_small_amplitude_loses_fidelity():
    for eta in (0.3, 0.5, 0.7):
        rep = teleport_through_noise(3, 0.3, eta, 1.0, -1.0, n_max=6)
        assert rep.mean_fidelity < 0.6


def test_fidelity_increases_with_transmissivity():
    values = [
        teleport_through_noise(3, 1.0, eta, 1.0, -1.0, n_max=6).mean_fidelity
        for eta in (0.3, 0.5, 0.7, 0.9, 1.0)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert abs(values[-1] - 1.0) < 1e-9


def test_noise_run_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        teleport_through_noise(3, 1.0, 0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        teleport_through_noise(3, 1.0, 1.5, 1.0, -1.0)


# --- independent dense simulation of the m=1 lossy protocol ------------------------


def _dense_lossy_protocol(alpha, eta, k1, k2, n_outcomes, dim=16):
    """Purified run in the number basis: a 5-mode state vector over the input,
    the two channel modes and one explicit environment mode per channel mode,
    the Fock-engine beam splitter, projective measurement, parity correction,
    and a branch-sign flip built from the encoded branch vectors.  Bob's
    state for record (l, n) is M M^H with M the (l, n) slice, which traces
    out the environment."""
    beta = math.sqrt(eta) * alpha
    col = fock.coherent_column
    se, sr = math.sqrt(eta), math.sqrt(1 - eta)

    # channel + environments as a pure 4-mode vector (ch1, ch2, env1, env2)
    a_minus = 1 / math.sqrt(2 * (1 - math.exp(-4 * alpha**2)))
    terms = [(a_minus, 1.0), (-a_minus, -1.0)]
    vec = np.zeros((dim,) * 4, dtype=complex)
    for coeff, s in terms:
        v = coeff * np.multiply.outer(
            np.multiply.outer(col(s * se * alpha, dim), col(s * se * alpha, dim)),
            np.multiply.outer(col(s * sr * alpha, dim), col(s * sr * alpha, dim)),
        )
        vec = vec + v

    nrm = abs(k1) ** 2 + abs(k2) ** 2 + 2 * math.exp(-2 * beta**2) * (k2.conjugate() * k1).real
    k1n, k2n = k1 / math.sqrt(nrm), k2 / math.sqrt(nrm)
    vin = k1n * col(beta, dim) + k2n * col(-beta, dim)
    psi = np.multiply.outer(vin, vec)  # (input, ch1, ch2, env1, env2)

    psi = bs_unitary(psi, 0, 1)

    par = np.array([(-1.0) ** k for k in range(dim)])
    plus, minus = col(beta, dim), col(-beta, dim)
    basis = np.stack([plus, minus], axis=1)
    flip = basis @ np.diag([1.0, -1.0]) @ np.linalg.pinv(basis)

    results = {}
    for l, n in n_outcomes:
        slab = psi[l, n].reshape(dim, dim * dim)
        bob = slab @ slab.conj().T
        p = np.trace(bob).real
        bob = bob / p
        if l == 0 and n > 0:
            bob = (par[:, None] * bob) * par[None, :]
            if n % 2 == 0:
                bob = flip @ bob @ flip.conj().T
                bob = bob / np.trace(bob).real
        elif n == 0 and l > 0 and l % 2 == 0:
            bob = flip @ bob @ flip.conj().T
            bob = bob / np.trace(bob).real
        fid = float(np.real(np.vdot(vin, bob @ vin)))
        results[(l, n)] = (p, fid)
    return results


def test_dense_simulation_confirms_noisy_engine():
    alpha, eta = 0.8, 0.6
    k1, k2 = 0.7, -0.55 + 0.2j
    outcomes = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0)]
    dense = _dense_lossy_protocol(alpha, eta, k1, k2, outcomes)
    rep = teleport_through_noise(1, alpha, eta, k1, k2, n_max=6)
    for (l, n), (p, fid) in dense.items():
        o = rep.outcome(l, n)
        assert abs(o.probability - p) < 1e-6
        assert abs(o.fidelity - fid) < 1e-6


def test_dense_simulation_confirms_exact_closed_form():
    alpha, eta = 0.8, 0.6
    dense = _dense_lossy_protocol(alpha, eta, 1.0 + 0j, -1.0 + 0j, [(0, 1), (0, 2), (3, 0)])
    expected = teleported_fidelity_exact(1, alpha, eta)
    for _, fid in dense.values():
        assert abs(fid - expected) < 1e-6


# --- closed-form candidates and adjudication ---------------------------------------

def test_closed_form_candidates_at_unit_transmissivity():
    flat, scaled = teleported_fidelity_closed_form(3, 1.2, 1.0)
    assert abs(flat - 1.0) < 1e-12
    assert abs(scaled - 1.0) < 1e-12
    assert abs(teleported_fidelity_exact(3, 1.2, 1.0) - 1.0) < 1e-12


def test_candidates_differ_away_from_unit_alpha():
    flat, scaled = teleported_fidelity_closed_form(3, 2.0, 0.6)
    exact = teleported_fidelity_exact(3, 2.0, 0.6)
    assert abs(flat - scaled) > 1e-3
    assert abs(scaled - exact) < abs(flat - exact)


def test_adjudication_selects_alpha_scaled_variant():
    result = noisy_fidelity_adjudication()
    assert result.passed, result.detail
    dev = re.search(r"alpha-scaled dev (\S+), flat dev (\S+);", result.detail)
    assert float(dev.group(1)) < 1e-6
    assert float(dev.group(2)) > 1e-3


def test_exact_form_tracks_engine_outside_adjudication_grid():
    worst = 0.0
    for alpha in (1.0, 2.0):
        for eta in (0.35, 0.75):
            rep = teleport_through_noise(3, alpha, eta, 1.0, -1.0, n_max=8)
            worst = max(worst, abs(rep.mean_fidelity - teleported_fidelity_exact(3, alpha, eta)))
    assert worst < 1e-9
