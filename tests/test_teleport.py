"""Protocol engine: fold network structure, outcome enumeration, corrections,
closed-form success probabilities, and the dual-engine outcome-table check."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecs_teleport import fock
from ecs_teleport.algebra import fidelity, project_photon_number, tensor
from ecs_teleport.channels import ChannelSpec, build_channel, build_input
from ecs_teleport.noise import channel_fidelity, lossy_channel_operator, teleported_fidelity_exact
from ecs_teleport.teleport import (
    PROB_FLOOR,
    bob_state,
    correction_for,
    default_n_max,
    enumerate_outcomes,
    fold_network,
    fold_pairs,
    run_protocol,
    success_probability_closed_form,
    teleport_through_noise,
)
from ecs_teleport.verify import even_success_unsquared_variant


def _joint(m, alpha, k1, k2, sign):
    return tensor(build_input(m, alpha, k1, k2), build_channel(ChannelSpec(m, alpha, sign)))


def _has_label(state, amps, tol):
    return bool(np.any(np.all(np.abs(state.labels - np.asarray(amps)) <= tol, axis=1)))


def test_fold_pairs_m3():
    assert fold_pairs(3) == [(2, 1), (2, 0), (2, 3)]
    assert fold_pairs(1) == [(0, 1)]


def test_fold_network_m3_branch_labels():
    a = 1.0
    s2, s22 = math.sqrt(2), 2 * math.sqrt(2)
    folded = fold_network(_joint(3, a, 0.7, 0.5, "minus"), 3)
    expected = {
        (1, 1): (0, 0, s22, 0, s2, 1, 1),      # same-sign branches fold onto the input-side mode
        (1, -1): (0, 0, 0, s22, -s2, -1, -1),  # opposite signs land on the channel-side mode
        (-1, 1): (0, 0, 0, -s22, s2, 1, 1),
        (-1, -1): (0, 0, -s22, 0, -s2, -1, -1),
    }
    for amps in expected.values():
        assert _has_label(folded, amps, 1e-12)


def test_fold_network_m2_hand_expansion():
    # input (a, a), channel (sqrt2 a, a, a): two splitters leave mode 0 empty
    # and send 2a to mode 1 (equal signs) or mode 2 (opposite signs)
    a = 0.9
    folded = fold_network(_joint(2, a, 1.0, 0.0, "minus"), 2)
    assert _has_label(folded, (0, 2 * a, 0, a, a), 1e-12)
    assert _has_label(folded, (0, 0, 2 * a, -a, -a), 1e-12)


@pytest.mark.parametrize("m", range(1, 7))
def test_fold_network_empties_leading_input_modes(m):
    folded = fold_network(_joint(m, 0.9, 0.8, -0.6, "minus"), m)
    for lab in folded.labels:
        for k in range(m - 1):
            assert abs(lab[k]) < 1e-12


def test_fold_network_wrong_mode_count():
    with pytest.raises(ValueError):
        fold_network(_joint(3, 1.0, 1.0, 1.0, "minus"), 2)


def test_no_outcomes_with_both_counts_nonzero():
    inp = build_input(3, 1.0, 0.6, 0.8)
    folded = fold_network(tensor(inp, build_channel(ChannelSpec(3, 1.0, "minus"))), 3)
    report = enumerate_outcomes(folded, 3, 10, reference=inp)
    assert all(o.l == 0 or o.n == 0 for o in report.outcomes)
    # direct projection of a doubly-nonzero record is exactly zero
    state, _ = project_photon_number(folded, 3, 2)
    _, p = project_photon_number(state, 2, 3)
    assert p < 1e-30


def test_born_rule_completeness():
    rep = run_protocol(3, 1.0, 1 / math.sqrt(2), 1 / math.sqrt(2), "minus")
    assert abs(rep.total_probability - 1.0) < 1e-9


def test_correction_rules():
    assert correction_for(0, 3, "minus") == "phase_only"
    assert correction_for(0, 4, "minus") == "phase_plus_sign"
    assert correction_for(3, 0, "minus") == "none"
    assert correction_for(4, 0, "minus") == "sign_only"
    assert correction_for(0, 4, "plus") == "phase_only"
    assert correction_for(0, 3, "plus") == "phase_plus_sign"
    assert correction_for(4, 0, "plus") == "none"
    assert correction_for(3, 0, "plus") == "sign_only"
    assert correction_for(0, 0, "minus") == "none"


@pytest.mark.parametrize("sign", ("minus", "plus"))
def test_round_trip_fidelity(rng, sign):
    for m in (1, 2, 3):
        for alpha in (0.5, 1.0):
            k1 = complex(rng.normal(), rng.normal())
            k2 = complex(rng.normal(), rng.normal())
            rep = run_protocol(m, alpha, k1, k2, sign, n_max=10)
            for o in rep.outcomes:
                if o.is_success:
                    assert abs(o.fidelity - 1.0) < 1e-9


def test_measurement_side_symmetry():
    rep = run_protocol(3, 0.9, 0.8, 0.6j, "minus", n_max=12)
    for k in range(1, 13):
        a = rep.outcome(0, k)
        b = rep.outcome(k, 0)
        assert a is not None and b is not None
        assert abs(a.probability - b.probability) < 1e-12


@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
def test_odd_outcome_probabilities_closed_form(alpha):
    # per-outcome closed form e^{-x} x^n / (2 n! (1 - e^{-2x})), x = 8 alpha^2
    rep = run_protocol(3, alpha, 0.7, 0.714j, "minus", n_max=21)
    x = 8 * alpha**2
    for n in range(1, 21, 2):
        expected = math.exp(-x + n * math.log(x) - math.lgamma(n + 1)) / (
            2 * (1 - math.exp(-2 * x))
        )
        assert abs(rep.outcome(0, n).probability - expected) < 1e-9
        assert abs(rep.outcome(n, 0).probability - expected) < 1e-9


@pytest.mark.parametrize("m", (2, 4, 5))
def test_generalized_odd_closed_form(m):
    alpha = 0.8
    rep = run_protocol(m, alpha, 0.6, -0.5, "minus", n_max=15)
    for n in range(1, 15, 2):
        expected = success_probability_closed_form(m, alpha, "odd", n)
        assert abs(rep.outcome(0, n).probability - expected) < 1e-9


def test_odd_aggregate_is_half():
    # both measured sides together: exactly 1/2 at every amplitude
    for alpha in (0.5, 1.0, 3.0):
        assert abs(success_probability_closed_form(3, alpha, "odd") - 0.5) < 1e-12
    rep = run_protocol(3, 1.0, 0.3, 0.8, "minus", n_max=40)
    engine = sum(
        o.probability for o in rep.outcomes if o.is_success and (o.l + o.n) % 2 == 1
    )
    assert abs(engine - 0.5) < 1e-9


def test_odd_probabilities_input_independent(rng):
    base = None
    for _ in range(6):
        k1 = complex(rng.normal(), rng.normal())
        k2 = complex(rng.normal(), rng.normal())
        rep = run_protocol(3, 0.8, k1, k2, "minus", n_max=9)
        probs = tuple(o.probability for o in rep.outcomes if o.l == 0 and o.n % 2 == 1)
        if base is None:
            base = probs
        else:
            assert max(abs(a - b) for a, b in zip(base, probs)) < 1e-9


def test_even_parity_aggregate_adjudication():
    # plus channel, even counts on either side; compare the squared-numerator
    # aggregate against the unsquared variant
    alpha = 0.7
    rep = run_protocol(3, alpha, 1 / math.sqrt(2), 1 / math.sqrt(2), "plus", n_max=40)
    engine = sum(
        o.probability for o in rep.outcomes if o.is_success and (o.l + o.n) % 2 == 0
    )
    squared = success_probability_closed_form(3, alpha, "even")
    unsquared = even_success_unsquared_variant(3, alpha)
    assert abs(engine - squared) < 1e-9
    assert abs(engine - unsquared) > 1e-3


def test_even_per_outcome_closed_form_plus_channel():
    alpha = 0.9
    rep = run_protocol(3, alpha, 0.4, 0.9, "plus", n_max=12)
    for n in (2, 4, 6):
        expected = success_probability_closed_form(3, alpha, "even", n)
        assert abs(rep.outcome(0, n).probability - expected) < 1e-9


def test_closed_form_argument_validation():
    with pytest.raises(ValueError):
        success_probability_closed_form(3, 1.0, "odd", 2)
    with pytest.raises(ValueError):
        success_probability_closed_form(3, 1.0, "even", 3)
    with pytest.raises(ValueError):
        success_probability_closed_form(3, 1.0, "sometimes")
    with pytest.raises(ValueError):
        success_probability_closed_form(0, 1.0, "odd")


def test_closed_form_small_amplitude_has_no_cancellation():
    # 1 - exp(-2x) at x = 8e-16 kept only one significant digit
    assert abs(success_probability_closed_form(1, 2e-8, "odd") - 0.5) < 1e-12
    x = 2.0 * 2e-8**2
    assert abs(success_probability_closed_form(1, 2e-8, "odd", 1) - 0.25) < 1e-12
    assert abs(success_probability_closed_form(1, 2e-8, "even") / (x * x / 4) - 1.0) < 1e-6


@pytest.mark.parametrize("alpha", (3.0, 30.0))
def test_closed_form_finite_at_large_folded_amplitude(alpha):
    # x = 2^8 alpha^2 overflowed sinh in the odd aggregate
    for parity in ("odd", "even"):
        value = success_probability_closed_form(8, alpha, parity)
        assert math.isfinite(value) and abs(value - 0.5) < 1e-12
    assert math.isfinite(success_probability_closed_form(8, alpha, "odd", 1))


def test_success_probability_reported(rng):
    rep = run_protocol(3, 1.0, 1.0, -1.0, "minus", n_max=30)
    # odd-cat input: the (0,0) record vanishes, so every outcome is a success
    assert abs(rep.success_probability - rep.total_probability) < 1e-12
    assert abs(rep.mean_fidelity - 1.0) < 1e-9


def test_limit_probability_half_at_large_amplitude():
    rep = run_protocol(3, 3.0, 0.7, 0.7, "minus")
    odd = sum(
        o.probability for o in rep.outcomes if o.is_success and (o.l + o.n) % 2 == 1
    )
    assert abs(odd - 0.5) < 1e-3


# --- dual-engine outcome table ---------------------------------------------------

def _fock_outcome_table(m, alpha, k1, k2, sign, n_top):
    """Outcome probabilities and Bob states from the number-basis engine."""
    joint = _joint(m, alpha, k1, k2, sign)
    lam = (np.abs(joint.labels).max(axis=0) ** 2).tolist()
    lam[m - 1] = lam[m] = (2.0**m) * alpha**2
    # per-mode tails stay below ~1e-8, comfortably inside the 1e-6 agreement bar
    cuts = [math.ceil(l + 5.0 * math.sqrt(l + 1.0) + 4.0) for l in lam]
    vec = fock.encode(joint, cuts)
    for i, j in fold_pairs(m):
        vec = fock.bs_unitary(vec, i, j)
    table = {}
    for n in range(n_top + 1):
        sliced, _ = fock.measure_number(vec, m, n)
        reduced, p = fock.measure_number(sliced, m - 1, 0)
        table[(0, n)] = (p, reduced)
    for l in range(1, n_top + 1):
        sliced, _ = fock.measure_number(vec, m, 0)
        reduced, p = fock.measure_number(sliced, m - 1, l)
        table[(l, 0)] = (p, reduced)
    return table, cuts


@pytest.mark.parametrize("m,alpha", [(1, 1.0), (2, 1.0), (3, 0.35)])
def test_outcome_tables_agree_with_fock_engine(m, alpha):
    k1, k2 = 0.8, -0.35 + 0.45j
    rep = run_protocol(m, alpha, k1, k2, "minus", n_max=6)
    folded = fold_network(_joint(m, alpha, k1, k2, "minus"), m)
    table, cuts = _fock_outcome_table(m, alpha, k1, k2, "minus", 6)
    for o in rep.outcomes:
        if (o.l, o.n) not in table:
            continue
        p_fock, reduced = table[(o.l, o.n)]
        assert abs(o.probability - p_fock) < 1e-6
        if o.probability > 1e-8 and o.correction in ("none", "phase_only"):
            # encode the engine's corrected Bob state and compare the collapse
            bob_cuts = cuts[m + 1 :]
            bob_ref = fock.encode(bob_state(folded, m, o.l, o.n, "minus"), bob_cuts)
            collapsed = reduced.data
            # strip the m-1 leading vacuum modes
            for _ in range(m - 1):
                collapsed = collapsed[0]
            collapsed = collapsed / np.linalg.norm(collapsed)
            if o.correction == "phase_only":
                probe = fock.FockVector(tuple(bob_cuts_plus_one(bob_cuts)), collapsed)
                probe = fock.phase_pi(probe, range(m))
                collapsed = probe.data
            fid = abs(np.vdot(bob_ref.data, collapsed)) ** 2
            assert abs(fid - 1.0) < 1e-6


def bob_cuts_plus_one(cuts):
    return [c + 1 for c in cuts]


# --- outcome-table kernel against a per-record reference -------------------------

def _folded(m, alpha, eta, k1, k2, sign):
    """Folded joint state and teleported input, built as the protocol driver does."""
    inp = build_input(m, math.sqrt(eta) * alpha, k1, k2)
    joint = tensor(inp, lossy_channel_operator(m, alpha, eta, sign))
    return fold_network(joint, m), inp


def _reference_table(folded, m, n_max, sign, reference):
    """(l, n) -> (probability, correction, fidelity), one projection chain per
    record through the algebra primitives; the fidelity scores `bob_state`."""
    records = [(0, n) for n in range(n_max + 1)] + [(l, 0) for l in range(1, n_max + 1)]
    table = {}
    for l, n in records:
        state, _ = project_photon_number(folded, m, n)
        _, prob = project_photon_number(state, m - 1, l)
        if prob < PROB_FLOOR:
            continue
        table[(l, n)] = (prob, correction_for(l, n, sign),
                         fidelity(reference, bob_state(folded, m, l, n, sign)))
    return table


@pytest.mark.parametrize("eta", (1.0, 0.3, 0.9))
@pytest.mark.parametrize("sign", ("minus", "plus"))
@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_kernel_matches_per_record_reference(m, sign, eta):
    alpha, n_max = 0.9, 24
    folded, inp = _folded(m, alpha, eta, 0.8, -0.35 + 0.45j, sign)
    report = enumerate_outcomes(folded, m, n_max, sign=sign, reference=inp)
    table = _reference_table(folded, m, n_max, sign, inp)
    assert [(o.l, o.n) for o in report.outcomes] == sorted(table)
    for o in report.outcomes:
        prob, correction, fid = table[(o.l, o.n)]
        assert o.correction == correction
        assert abs(o.probability - prob) < 1e-12
        assert abs(o.fidelity - fid) < 1e-12


def test_kernel_rejects_non_vacuum_input_mode():
    inp = build_input(3, 1.0, 1.0, 1.0)
    joint = tensor(inp, build_channel(ChannelSpec(3, 1.0)))
    with pytest.raises(AssertionError):
        enumerate_outcomes(joint, 3, 5, reference=inp)


kappas = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(
    k1=kappas,
    k2=kappas,
    m=st.integers(1, 6),
    alpha=st.floats(0.3, 2.0),
    eta=st.floats(0.2, 1.0),
)
def test_outcome_mass_is_complete(k1, k2, m, alpha, eta):
    report = run_protocol(m, alpha, k1, k2, "minus", eta=eta)
    assert abs(report.total_probability - 1.0) < 1e-9


@settings(max_examples=100, deadline=None)
@given(c=kappas, k1=kappas, k2=kappas, m=st.integers(1, 6), alpha=st.floats(0.3, 2.0),
       eta=st.floats(0.2, 1.0, exclude_max=True))
def test_engine_meets_closed_forms(c, k1, k2, m, alpha, eta):
    # odd-cat input: the lossy mean fidelity has an exact closed form
    lossy = teleport_through_noise(m, alpha, eta, c, -c, "minus")
    assert abs(lossy.mean_fidelity - teleported_fidelity_exact(m, alpha, eta)) < 1e-9
    # lossless minus channel: odd-count probabilities are input-independent closed forms
    for o in run_protocol(m, alpha, k1, k2, "minus").outcomes:
        count = o.l + o.n
        if count % 2 == 1:
            expected = success_probability_closed_form(m, alpha, "odd", count)
            assert abs(o.probability - expected) < 1e-9


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 12), alpha=st.floats(1e-8, 50.0), eta=st.floats(0.0, 1.0))
@example(m=1, alpha=1e-8, eta=0.0)
@example(m=1, alpha=1e-8, eta=1.0)
@example(m=12, alpha=50.0, eta=0.0)
@example(m=12, alpha=50.0, eta=1.0)
@example(m=12, alpha=1e-8, eta=0.5)
@example(m=1, alpha=50.0, eta=0.5)
def test_closed_forms_finite_and_bounded(m, alpha, eta):
    values = [
        success_probability_closed_form(m, alpha, "odd"),
        success_probability_closed_form(m, alpha, "even"),
        success_probability_closed_form(m, alpha, "odd", 1),
        success_probability_closed_form(m, alpha, "even", 2),
        channel_fidelity(alpha, eta, m),
        teleported_fidelity_exact(m, alpha, eta),
    ]
    for v in values:
        assert math.isfinite(v) and 0.0 <= v <= 1.0
