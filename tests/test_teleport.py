"""Protocol engine: fold network structure, outcome enumeration, corrections,
closed-form success probabilities, and the dual-engine outcome-table check."""

import contextlib
import functools
import math
import operator
import os
import re
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecs_teleport import fock, teleport
from ecs_teleport.algebra import (
    CoherentState,
    UnsupportedStructureError,
    fidelity,
    number_amplitudes,
    project_photon_number,
    tensor,
)
from ecs_teleport.channels import ChannelSpec, build_channel, build_input, input_coefficients
from ecs_teleport.noise import channel_fidelity, lossy_channel_operator, teleported_fidelity_exact
from ecs_teleport.teleport import (
    CORRECTIONS,
    PROB_FLOOR,
    ProtocolOutcome,
    correction_codes,
    default_n_max,
    fold_network,
    fold_pairs,
    run_protocol,
    success_probability_closed_form,
    teleport_through_noise,
)
from ecs_teleport.verify import even_success_unsquared_variant
from dense_fock import bs_unitary, encode
from reference import bob_state, correction_for, enumerate_outcomes


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
    with pytest.raises(ValueError, match="both counts nonzero"):
        correction_for(2, 3, "minus")


@pytest.mark.parametrize("sign", ("minus", "plus"))
def test_correction_codes_follow_the_documented_rule(sign):
    counts = np.arange(41)
    zeros = np.zeros_like(counts)
    swap = sign == "plus"
    # l on the input-side mode: odd l needs nothing (minus), even l the sign flip
    expected_l = ["none" if c == 0 or (c % 2 == 1) != swap else "sign_only" for c in counts]
    # n on the channel-side mode: always the phase, even n (minus) also the sign flip
    expected_n = ["none" if c == 0 else "phase_only" if (c % 2 == 1) != swap
                  else "phase_plus_sign" for c in counts]
    assert [CORRECTIONS[k] for k in correction_codes(counts, zeros, sign)] == expected_l
    assert [CORRECTIONS[k] for k in correction_codes(zeros, counts, sign)] == expected_n
    assert [correction_for(int(c), 0, sign) for c in counts] == expected_l
    assert [correction_for(0, int(c), sign) for c in counts] == expected_n


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

def _bob_fidelity(state, m, correction, reference):
    """<reference| rho |reference> for Bob's state after a `none` or
    `phase_only` correction; `state` is a Fock conditional state over Bob's m
    modes then the environment, which the partial trace removes."""
    bob_dims = state.shape[:m]
    if correction == "phase_only":
        # pi phase shifters exp(-i pi n) on Bob's modes: the sign (-1)^(n_1 + ... + n_m)
        parity = (-1.0) ** np.indices(bob_dims).sum(axis=0)
        state = state * parity.reshape(bob_dims + (1,) * (state.ndim - m))
    ref = encode(reference, [d - 1 for d in bob_dims]).ravel()
    amps = ref.conj() @ state.reshape(ref.size, -1)
    return float(np.vdot(amps, amps).real)


@pytest.mark.parametrize("m,alpha", [(1, 1.0), (2, 1.0), (3, 0.35)])
def test_outcome_tables_agree_with_fock_engine(m, alpha):
    k1, k2 = 0.8, -0.35 + 0.45j
    rep = run_protocol(m, alpha, k1, k2, "minus", n_max=6)
    folded = fold_network(_joint(m, alpha, k1, k2, "minus"), m)
    table = fock.protocol_table(m, alpha, k1, k2, "minus")
    assert np.max(table.deviations(rep.l, rep.n, rep.probability)[:7, :7]) < 1e-6
    for o in rep.outcomes:
        if o.probability > 1e-8 and o.correction in ("none", "phase_only"):
            # the collapsed Fock state carries the engine's corrected Bob state
            bob = bob_state(folded, m, o.l, o.n, "minus")
            state = table.conditional_state(o.l, o.n)
            assert state.shape[m:] == (1,) * (m + 1)  # no loss: the environment stays in vacuum
            assert abs(_bob_fidelity(state, m, o.correction, bob) - 1.0) < 1e-6


def _dense_fock_table(m, alpha, k1, k2, sign):
    """P[l, n] from one dense tensor over all 2m+1 modes: `encode`, then
    `bs_unitary` along the fold cascade."""
    joint = _joint(m, alpha, k1, k2, sign)
    lam = (np.abs(joint.labels).max(axis=0) ** 2).tolist()
    lam[m - 1] = lam[m] = (2.0**m) * abs(alpha) ** 2
    # per-mode tails stay below ~1e-8, comfortably inside the 1e-6 agreement bar
    vec = encode(joint, [math.ceil(x + 5.0 * math.sqrt(x + 1.0) + 4.0) for x in lam])
    for i, j in fold_pairs(m):
        vec = bs_unitary(vec, i, j)
    weights = np.moveaxis(np.abs(vec) ** 2, (m - 1, m), (0, 1))
    return weights.reshape(weights.shape[0], weights.shape[1], -1).sum(axis=2)


@pytest.mark.parametrize("m,alpha,sign", [(1, 1.0, "minus"), (2, 0.6, "minus"), (2, 0.8, "plus")])
def test_mps_table_matches_the_dense_fock_table(m, alpha, sign):
    k1, k2 = 0.6 - 0.2j, 0.5 + 0.4j
    mps = fock.protocol_table(m, alpha, k1, k2, sign).probabilities
    dense = _dense_fock_table(m, alpha, k1, k2, sign)
    rows, cols = min(mps.shape[0], dense.shape[0]), min(mps.shape[1], dense.shape[1])
    # every record, the (l > 0, n > 0) ones included
    assert np.max(np.abs(mps[:rows, :cols] - dense[:rows, :cols])) < 1e-6


@pytest.mark.parametrize("eta", (0.3, 0.6, 0.9))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_lossy_outcome_tables_agree_with_fock_engine(m, eta):
    k1, k2 = 0.8, -0.35 + 0.45j
    alpha = 0.9
    rep = run_protocol(m, alpha, k1, k2, "minus", eta=eta)
    table = fock.protocol_table(m, alpha, k1, k2, "minus", eta)
    assert np.max(table.deviations(rep.l, rep.n, rep.probability)) < 1e-9
    assert abs(table.probabilities.sum() - 1.0) < 1e-9
    if m == 3:
        return  # the dense conditional state would hold ~1e8 entries
    reference = build_input(m, math.sqrt(eta) * alpha, k1, k2)
    for o in rep.outcomes:
        if o.probability > 1e-6 and o.correction in ("none", "phase_only"):
            state = table.conditional_state(o.l, o.n)
            assert abs(_bob_fidelity(state, m, o.correction, reference) - o.fidelity) < 1e-6


# --- outcome-table kernel against a per-record reference -------------------------

def _folded(m, alpha, eta, k1, k2, sign):
    """Folded joint state and teleported input, built as the protocol driver does."""
    inp = build_input(m, math.sqrt(eta) * alpha, k1, k2)
    joint = tensor(inp, lossy_channel_operator(m, alpha, eta, sign))
    return fold_network(joint, m), inp


def _run_geometry(m, alpha, eta, sign, n_max):
    """The geometry `run_protocol` builds: the folded labels with the channel's matrix as factor."""
    folded, inp = _folded(m, alpha, eta, 0.6 + 0.1j, -0.3 + 0.7j, sign)
    factor = lossy_channel_operator(m, alpha, eta, sign).coeffs
    return teleport._geometry(folded.labels, inp.labels, m, n_max, sign, factor, 1.0), folded


def _reference_table(folded, m, n_max, sign, reference):
    """(l, n) -> (probability, correction, fidelity), one projection chain per
    record through the algebra primitives; the fidelity scores `bob_state`."""
    records = [(0, n) for n in range(n_max + 1)] + [(l, 0) for l in range(1, n_max + 1)]
    no_n = project_photon_number(folded, m, 0)[0]  # shared by every (l, 0) record
    table = {}
    for l, n in records:
        state = no_n if n == 0 else project_photon_number(folded, m, n)[0]
        _, prob = project_photon_number(state, m - 1, l)
        if prob < PROB_FLOOR:
            continue
        table[(l, n)] = (prob, correction_for(l, n, sign),
                         fidelity(reference, bob_state(folded, m, l, n, sign)))
    return table


KAPPA_PAIRS = [(0.8, -0.35 + 0.45j), (0.6 + 0.1j, -0.3 + 0.7j), (0.2j, 0.9)]


def _warm_runs_match_reference(geometries, m, alpha, sign, eta, tol):
    """Three inputs scored against one cached geometry, each against its own
    per-record reference table."""
    n_max = 24
    for k1, k2 in KAPPA_PAIRS:
        report = run_protocol(m, alpha, k1, k2, sign, n_max, eta)
        folded, inp = _folded(m, alpha, eta, k1, k2, sign)
        table = _reference_table(folded, m, n_max, sign, inp)
        assert [(o.l, o.n) for o in report.outcomes] == sorted(table)
        for o in report.outcomes:
            prob, correction, fid = table[(o.l, o.n)]
            assert o.correction == correction
            assert abs(o.probability - prob) < tol
            assert abs(o.fidelity - fid) < tol
    assert len(geometries) == 1


@pytest.mark.parametrize("alpha", (0.3, 2.0))
@pytest.mark.parametrize("eta", (1.0, 0.3, 0.9))
@pytest.mark.parametrize("sign", ("minus", "plus"))
@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_kernel_matches_per_record_reference(geometries, m, sign, eta, alpha):
    _warm_runs_match_reference(geometries, m, alpha, sign, eta, 1e-12)


@pytest.mark.parametrize("eta", (1.0, 0.3))
@pytest.mark.parametrize("sign", ("minus", "plus"))
@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_kernel_matches_per_record_reference_at_small_alpha(geometries, m, sign, eta):
    # the parity forms cancel terms of order 1 down to order alpha^2, so rounding
    # grows as 1 / alpha^2 on both sides: 1e-12 apart at alpha = 0.01
    _warm_runs_match_reference(geometries, m, 0.01, sign, eta, 1e-10)


@pytest.mark.parametrize("m,alpha,sign,eta", [
    (1, 0.3, "minus", 1.0), (3, 1.0, "plus", 0.6), (6, 0.8 - 0.4j, "minus", 0.3), (8, 2.0, "plus", 1.0),
])
def test_record_amplitudes_are_weight_times_class_pattern(m, alpha, sign, eta):
    n_max = default_n_max(m, math.sqrt(eta) * alpha)
    geometry, folded = _run_geometry(m, alpha, eta, sign, n_max)
    # <l|a_t><n|b_t> of every record on every folded label, as a dense reference
    amps = (number_amplitudes(folded.labels[:, m - 1], n_max)[geometry.ls]
            * number_amplitudes(folded.labels[:, m], n_max)[geometry.ns])
    _, patterns = teleport._class_patterns(folded.labels[:, m - 1 : m + 1], n_max)
    patterns = patterns[geometry.classes]
    # (0, 0) is its own class: weight 1, its vacuum amplitudes the pattern
    assert geometry.weights[0] == 1.0 and np.allclose(amps[0], patterns[0], rtol=1e-14, atol=0)
    amps, patterns = amps[1:], patterns[1:]
    assert set(np.unique(patterns)) <= {-1.0, 0.0, 1.0}
    g = np.sum(amps * patterns, axis=1) / np.sum(patterns * patterns, axis=1)
    assert np.all(np.abs(amps - g[:, None] * patterns) <= 1e-11 * np.abs(g)[:, None])
    assert np.allclose(np.abs(g) ** 2, geometry.weights[1:], rtol=1e-12, atol=1e-300)
    assert np.array_equal(geometry.codes[geometry.classes],
                          correction_codes(geometry.ls, geometry.ns, sign))


def _nudged(folded, mode, change):
    """The m = 3 folded state with `change` applied on `mode` of the first label lit on mode 3."""
    labels = folded.labels.copy()
    t = np.flatnonzero(np.abs(labels[:, 3]) > 0.5)[0]
    labels[t, mode] = change(labels[t, mode])
    return CoherentState(labels, folded.coeffs)


@pytest.mark.parametrize("mode,change", [
    (3, lambda a: a * (1 + 1e-6)),
    (3, lambda a: a * 1j),
    (2, lambda a: 1e-3),
], ids=["magnitude", "phase", "both-measured-modes-lit"])
def test_amplitudes_off_the_class_pattern_raise(mode, change):
    folded, inp = _folded(3, 1.0, 0.6, 0.6, 0.8, "minus")
    with pytest.raises(UnsupportedStructureError, match="class pattern"):
        enumerate_outcomes(_nudged(folded, mode, change), 3, 30, reference=inp)


def test_rounding_stays_inside_the_class_pattern():
    folded, inp = _folded(3, 1.0, 0.6, 0.6, 0.8, "minus")
    report = enumerate_outcomes(_nudged(folded, 3, lambda a: a * (1 + 1e-13)), 3, 30, reference=inp)
    assert abs(report.total_probability - 1.0) < 1e-9


@pytest.mark.parametrize("eta", (1.0, 0.6))
@pytest.mark.parametrize("sign", ("minus", "plus"))
@pytest.mark.parametrize("alpha", (0.01, 0.3, 1.0))
def test_odd_cat_vacuum_record_is_empty(alpha, sign, eta):
    # the odd cat has no vacuum term, so its (0, 0) form is 0 / 0 up to rounding
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for m in (1, 3, 8):
            rep = run_protocol(m, alpha, 0.6 - 0.3j, -0.6 + 0.3j, sign, eta=eta)
            vacuum = rep.outcome(0, 0)
            assert vacuum is None or vacuum.probability <= 1e-12
            assert abs(rep.success_probability - 1.0) < 1e-9


def test_geometry_at_max_n_max_fits_the_cache_bound():
    small, large = (_run_geometry(3, 1.0, 0.6, "minus", n)[0] for n in (10, 20))
    per_record = (large.nbytes - small.nbytes) // 20  # two records per count
    fixed = small.nbytes - per_record * 21
    assert fixed + per_record * (2 * teleport.MAX_N_MAX + 1) <= teleport.GEOMETRY_CACHE_BYTES


@pytest.mark.parametrize("m,alpha,sign,eta", [
    (1, 0.3, "minus", 1.0), (3, 1.0, "plus", 1.0), (6, 2.0, "minus", 1.0),
    (2, 1.0, "minus", 0.6), (3, 0.8, "plus", 0.3), (6, 1.5, "minus", 0.6),
])
def test_report_columns_match_its_rows(m, alpha, sign, eta):
    rep = run_protocol(m, alpha, 0.6 + 0.1j, -0.3 + 0.7j, sign, eta=eta)
    columns = (rep.l, rep.n, rep.probability, rep.correction, rep.fidelity)
    assert len({len(c) for c in columns}) == 1
    assert not np.any(rep.l * rep.n)
    # rows come in (l, n) order, which the CLI prints without sorting
    keys = list(zip(rep.l.tolist(), rep.n.tolist()))
    assert keys == sorted(set(keys))
    rows = [ProtocolOutcome(*r) for r in zip(
        rep.l.tolist(), rep.n.tolist(), rep.probability.tolist(),
        [CORRECTIONS[k] for k in rep.correction.tolist()], rep.fidelity.tolist())]
    assert list(rep.outcomes) == rows
    assert all(type(o) is ProtocolOutcome and o.is_success == ((o.l, o.n) != (0, 0)) for o in rep.outcomes)
    assert all(rep.outcome(o.l, o.n) == o for o in rows)
    assert rep.outcome(1, 1) is None and rep.outcome(0, len(rows) + 5) is None
    # sums in row order: from Python 3.12 the builtin sum of floats is compensated
    succ = [o for o in rep.outcomes if o.is_success]
    p_succ = functools.reduce(operator.add, (o.probability for o in succ))
    assert rep.success_probability == p_succ
    assert rep.mean_fidelity == functools.reduce(operator.add, (o.probability * o.fidelity for o in succ)) / p_succ
    assert rep.total_probability == functools.reduce(operator.add, (o.probability for o in rep.outcomes))
    with pytest.raises(ValueError):
        rep.probability[0] = 0.5  # the columns are read-only, so the rows cannot drift


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


# --- the geometry cache of run_protocol ---------------------------------------------

def _columns(rep):
    return (rep.l, rep.n, rep.probability, rep.correction, rep.fidelity,
            rep.success_probability, rep.mean_fidelity)


def _same_bits(a, b):
    return all(np.array_equal(x, y, equal_nan=True) and np.asarray(x).dtype == np.asarray(y).dtype
               for x, y in zip(_columns(a), _columns(b)))


@pytest.fixture
def geometries(monkeypatch):
    """An empty geometry cache in place of run_protocol's."""
    cache = teleport._GeometryCache(teleport.GEOMETRY_CACHE_BYTES)
    monkeypatch.setattr(teleport, "_geometries", cache)
    return cache


def _close_to(a, b):
    """The same records and corrections, probabilities within 1e-15 and
    fidelities and the mean fidelity within 1e-13: `run_protocol` and
    `enumerate_outcomes` score one folded state through two input labels and
    one, so their sums add in different orders."""
    return (np.array_equal(a.l, b.l) and np.array_equal(a.n, b.n)
            and np.array_equal(a.correction, b.correction)
            and np.allclose(a.probability, b.probability, rtol=0, atol=1e-15)
            and abs(a.success_probability - b.success_probability) <= 1e-15
            and np.allclose(a.fidelity, b.fidelity, rtol=0, atol=1e-13)
            and abs(a.mean_fidelity - b.mean_fidelity) <= 1e-13)


def _fresh_fold(m, alpha, k1, k2, sign, eta):
    """The outcome table of a freshly folded state, through `enumerate_outcomes`."""
    folded, inp = _folded(m, alpha, eta, k1, k2, sign)
    return enumerate_outcomes(folded, m, default_n_max(m, math.sqrt(eta) * alpha), sign, reference=inp)


CACHED_RUNS = [
    (1, 0.3, "minus", 1.0), (2, 0.8 - 0.4j, "plus", 0.6), (3, 1.0, "minus", 0.3),
    (3, 0.8 - 0.4j, "minus", 0.6), (6, 1.5, "plus", 1.0), (8, 2.0, "minus", 0.6),
]
CACHED_INPUTS = [(1.0, -1.0), (0.6 + 0.1j, -0.3 + 0.7j), (1.0, 1.0), (0.2j, 0.9)]


@pytest.mark.parametrize("m,alpha,sign,eta", CACHED_RUNS)
def test_warm_runs_give_the_bits_of_a_cold_run(monkeypatch, geometries, m, alpha, sign, eta):
    # every call after the first scores its kappas against the kept geometry
    for k1, k2 in CACHED_INPUTS:
        warm = run_protocol(m, alpha, k1, k2, sign, eta=eta)
        monkeypatch.setattr(teleport, "_geometries", teleport._GeometryCache(teleport.GEOMETRY_CACHE_BYTES))
        assert _same_bits(warm, run_protocol(m, alpha, k1, k2, sign, eta=eta))
        monkeypatch.setattr(teleport, "_geometries", geometries)
    assert len(geometries) == 1


@pytest.mark.parametrize("m,alpha,sign,eta", CACHED_RUNS)
def test_cached_runs_match_a_fresh_fold(geometries, m, alpha, sign, eta):
    for k1, k2 in CACHED_INPUTS:
        assert _close_to(run_protocol(m, alpha, k1, k2, sign, eta=eta), _fresh_fold(m, alpha, k1, k2, sign, eta))
    assert len(geometries) == 1


def _weighted_close_to(a, b):
    """The same records and corrections, and every probability, probability
    times fidelity and success sum within 1e-14 (the mean fidelity within
    1e-13).  Over arbitrary kappas a record's fidelity is a ratio of two forms
    that lose digits as its probability falls, on either path (and at the
    parent), so the fidelity itself is compared through p F."""
    return (np.array_equal(a.l, b.l) and np.array_equal(a.n, b.n)
            and np.array_equal(a.correction, b.correction)
            and np.allclose(a.probability, b.probability, rtol=0, atol=1e-14)
            and np.allclose(a.probability * a.fidelity, b.probability * b.fidelity, rtol=0, atol=1e-14)
            and abs(a.success_probability - b.success_probability) <= 1e-14
            and abs(a.mean_fidelity - b.mean_fidelity) <= 1e-13)


unit_kappas = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(lambda k: abs(k) >= 1e-3)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["odd", "even", "any"]), k1=unit_kappas, k2=unit_kappas,
       e1=st.floats(-100.0, 0.0), e2=st.floats(-100.0, 0.0), run=st.sampled_from(CACHED_RUNS))
@example(kind="odd", k1=1.0, k2=1.0, e1=-100.0, e2=0.0, run=CACHED_RUNS[0])
@example(kind="even", k1=1j, k2=1.0, e1=-100.0, e2=0.0, run=CACHED_RUNS[3])
@example(kind="any", k1=1.0, k2=-1j, e1=-100.0, e2=-100.0, run=CACHED_RUNS[2])
@example(kind="any", k1=1.0, k2=1.0, e1=-100.0, e2=0.0, run=CACHED_RUNS[1])
@example(kind="any", k1=2j, k2=-1.75j, e1=0.0, e2=0.0, run=CACHED_RUNS[0])
def test_warm_runs_match_a_fresh_fold(kind, k1, k2, e1, e2, run):
    # odd and even cats and any pair, each kappa scaled by 10^e down to 1e-100, scored warm
    k1, k2 = k1 * 10.0**e1, k2 * 10.0**e2
    k2 = {"odd": -k1, "even": k1, "any": k2}[kind]
    m, alpha, sign, eta = run
    run_protocol(m, alpha, 0.6, 0.8, sign, eta=eta)  # cache the geometry
    assert _weighted_close_to(run_protocol(m, alpha, k1, k2, sign, eta=eta), _fresh_fold(m, alpha, k1, k2, sign, eta))


SPELLINGS = [1.0, 1 + 0j, complex(1.0, -0.0), complex(-1.0, -0.0), complex(-1.0, 0.0), np.float64(1.0)]


@pytest.mark.parametrize("order", [SPELLINGS, SPELLINGS[::-1]])
def test_alpha_spellings_give_the_bits_of_a_cold_call(monkeypatch, order):
    # -1-0j == -1+0j, but the signed zero reaches the arithmetic, so a key
    # compared with == would hand one of them the other's bits
    cold = {}
    for alpha in SPELLINGS:
        monkeypatch.setattr(teleport, "_geometries", teleport._GeometryCache(1 << 30))
        cold[id(alpha)] = run_protocol(3, alpha, 0.6 + 0.1j, -0.3 + 0.7j, eta=0.6)
    cache = teleport._GeometryCache(1 << 30)
    monkeypatch.setattr(teleport, "_geometries", cache)
    for alpha in order:
        run_protocol(3, alpha, 0.8, 0.1j, eta=0.6)
    for alpha in order:
        assert _same_bits(run_protocol(3, alpha, 0.6 + 0.1j, -0.3 + 0.7j, eta=0.6), cold[id(alpha)])
    assert len(cache) == len(SPELLINGS)


def test_cached_arrays_are_read_only(geometries):
    first = run_protocol(3, 1.0, 0.6, 0.8, eta=0.6)
    (geometry,) = geometries._entries.values()
    arrays = geometry._arrays()
    assert len(arrays) == 4 + 4  # 4 per-record columns; codes, forms, overlaps and factor
    # the peaks and the reference Gram are Python numbers in tuples, immutable too
    assert type(geometry.peaks) is tuple and type(geometry.reference_gram) is tuple
    assert all(type(row) is tuple for row in geometry.reference_gram)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0
    assert _same_bits(run_protocol(3, 1.0, 0.6, 0.8, eta=0.6), first)


def test_cache_holds_no_more_bytes_than_its_bound(monkeypatch):
    one = teleport._GeometryCache(1 << 30)
    monkeypatch.setattr(teleport, "_geometries", one)
    run_protocol(3, 1.0, 0.6, 0.8)
    bound = 3 * one.nbytes  # room for about three geometries of this size
    cache = teleport._GeometryCache(bound)
    monkeypatch.setattr(teleport, "_geometries", cache)
    for alpha in np.linspace(0.9, 1.1, 12).tolist():
        rep = run_protocol(3, alpha, 0.6, 0.8)
        assert abs(rep.total_probability - 1.0) < 1e-9
        assert cache.nbytes <= bound
        assert cache.nbytes == sum(geometry.nbytes for geometry in cache._entries.values())
    assert 1 <= len(cache) < 12
    # a geometry above the bound is used but not kept, and evicts nothing
    small = teleport._GeometryCache(one.nbytes * 3 // 2)
    monkeypatch.setattr(teleport, "_geometries", small)
    run_protocol(3, 1.0, 0.6, 0.8)
    assert abs(run_protocol(6, 1.0, 0.6, 0.8).total_probability - 1.0) < 1e-9
    assert len(small) == 1 and small.nbytes == one.nbytes  # the m = 3 geometry stays


def test_key_tells_dtypes_with_the_same_bytes_apart(geometries):
    # float32 1.0 and int32 1065353216 share their four bytes
    one, big = np.array(1.0, np.float32), np.array(1065353216, np.int32)
    assert one.tobytes() == big.tobytes()
    assert teleport._exact_key(one) != teleport._exact_key(big)
    assert teleport._exact_key(np.zeros(2)) != teleport._exact_key(np.zeros((2, 1)))
    run_protocol(3, one, 0.6, 0.8, n_max=4)
    run_protocol(3, big, 0.6, 0.8, n_max=4)
    assert len(geometries) == 2


BAD_ARGUMENTS = [
    # (arguments, exception, message), in the order run_protocol checks them
    (dict(m=3, kappa1=0, kappa2=0), ValueError, "kappa1 and kappa2 must not both vanish"),
    (dict(m=3, kappa1=math.nan, kappa2=1), ValueError, "coefficients and coherent amplitudes must be finite"),
    (dict(m=3, kappa1=complex(0, math.inf), kappa2=0), ValueError,
     "coefficients and coherent amplitudes must be finite"),
    (dict(m=0, kappa1=0, kappa2=0), ValueError, "kappa1 and kappa2 must not both vanish"),
    (dict(m=0, kappa1=math.nan, kappa2=1), ValueError, "m must be >= 1"),
    (dict(m=0, kappa1=1, kappa2=1, sign="bogus"), ValueError, "m must be >= 1"),
    (dict(m=3, kappa1=math.nan, kappa2=1, sign="bogus"), ValueError,
     "coefficients and coherent amplitudes must be finite"),
    (dict(m=3, kappa1=0, kappa2=0, sign="bogus"), ValueError, "kappa1 and kappa2 must not both vanish"),
    (dict(m=3, kappa1=1, kappa2=1, sign="bogus"), ValueError, "sign must be 'plus' or 'minus'"),
    (dict(m=3, kappa1=1, kappa2=1, eta=1.5), ValueError, "eta must lie in [0, 1]"),
    (dict(m=3, kappa1=1, kappa2=1, eta=0.0), ValueError,
     "sqrt(eta) * |alpha| too small; the protocol degenerates"),
    (dict(m=3, kappa1=1, kappa2=1, n_max=0), ValueError, "n_max must be >= 1"),
    (dict(m=3, kappa1=0, kappa2=0, n_max=0), ValueError, "kappa1 and kappa2 must not both vanish"),
    (dict(m=3, kappa1=1, kappa2=1, n_max=0, sign="bogus"), ValueError, "sign must be 'plus' or 'minus'"),
    (dict(m=20, kappa1=1, kappa2=1), ValueError,
     "outcome table needs photon counts up to 1.06e+06 (limit 200000); lower m or alpha"),
    (dict(m=3, alpha=math.nan, kappa1=1, kappa2=1, n_max=5), ValueError,
     "coefficients and coherent amplitudes must be finite"),
    (dict(m=3, alpha=math.inf, kappa1=1, kappa2=1), OverflowError,
     "cannot convert float infinity to integer"),
    (dict(m=3.0, kappa1=1, kappa2=1), TypeError, "'float' object cannot be interpreted as an integer"),
]


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("arguments,error,message", BAD_ARGUMENTS)
def test_bad_arguments_raise_as_without_the_cache(geometries, warm, arguments, error, message):
    arguments = {"alpha": 1.0, **arguments}
    if warm:
        # cache the same geometry first, where it has one
        good = dict(arguments, kappa1=0.6, kappa2=0.8, m=int(arguments["m"]))
        try:
            run_protocol(**good)
        except (ValueError, OverflowError):
            pass
    held = len(geometries)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        run_protocol(**arguments)
    assert len(geometries) == held  # nothing is cached when a check fails


@contextlib.contextmanager
def _own_cache():
    """An empty geometry cache in place of run_protocol's, for a hypothesis example."""
    held = teleport._geometries
    teleport._geometries = cache = teleport._GeometryCache(teleport.GEOMETRY_CACHE_BYTES)
    try:
        yield cache
    finally:
        teleport._geometries = held


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("kappas,unit", [
    ((1e-200, 1e-200), (1.0, 1.0)), ((1e-200, 0.0), (1.0, 0.0)),
    ((1e200, -1e200), (1.0, -1.0)), ((1e200, 0.0), (1.0, 0.0)), ((5e-324, -5e-324j), (1.0, -1j)),
])
def test_kappas_whose_squares_leave_the_float_range_normalize(geometries, warm, kappas, unit):
    # their squares overflow or underflow, which once gave an empty table or "a null state"
    if warm:
        run_protocol(3, 1.0, 0.6, 0.8)
    report = run_protocol(3, 1.0, *kappas)
    assert abs(report.total_probability - 1.0) < 1e-9
    assert _close_to(report, run_protocol(3, 1.0, *unit))
    assert len(geometries) == 1


exact_parts = st.floats(-2.0, 2.0).filter(lambda x: x == 0 or abs(x) >= 1e-100)
exact_kappas = st.builds(complex, exact_parts, exact_parts).filter(lambda k: abs(k) >= 1e-3)


@settings(max_examples=40, deadline=None)
@given(k1=exact_kappas, k2=exact_kappas, j=st.integers(-200, 200), run=st.sampled_from(CACHED_RUNS))
@example(k1=1.0, k2=-1.0, j=200, run=CACHED_RUNS[0])
@example(k1=0.6 + 0.1j, k2=-0.3 + 0.7j, j=-200, run=CACHED_RUNS[5])
def test_kappas_scaled_by_a_power_of_four_give_the_same_bits(k1, k2, j, run):
    # the normalization scales the pair by a power of four near 1 / its largest component, so
    # kappa 4^j lands on the very pair kappa does, warm or cold
    m, alpha, sign, eta = run
    scale = 4.0**j
    scaled = [complex(k.real * scale, k.imag * scale) for k in (k1, k2)]
    with _own_cache():
        reference = run_protocol(m, alpha, k1, k2, sign, eta=eta)
        warm = run_protocol(m, alpha, *scaled, sign, eta=eta)
    with _own_cache():
        cold = run_protocol(m, alpha, *scaled, sign, eta=eta)
    assert _same_bits(warm, reference) and _same_bits(cold, reference)


def _full_records(folded, m, n_max):
    """Every record's (l, n), untrimmed Poisson weight and class, in (l, n) order."""
    count_weights, _ = teleport._class_patterns(folded.labels[:, m - 1 : m + 1], n_max)
    counts = np.arange(1, n_max + 1)
    keys = [(0, n) for n in range(n_max + 1)] + [(l, 0) for l in range(1, n_max + 1)]
    weights = np.concatenate([[1.0], count_weights[:, 1], count_weights[:, 0]])
    return keys, weights, np.concatenate([[0], 3 + counts % 2, 1 + counts % 2])


def _trim_is_exact(geometry, report, folded, m, n_max, forms):
    """Every record the geometry dropped has weight times class form below
    PROB_FLOOR, and the report keeps exactly the records at or above it."""
    keys, weights, classes = _full_records(folded, m, n_max)
    probs = weights * forms[classes]
    held = set(zip(geometry.ls.tolist(), geometry.ns.tolist()))
    dropped = [r for r, key in enumerate(keys) if key not in held]
    assert np.all(probs[dropped] < PROB_FLOOR)
    assert list(zip(report.l.tolist(), report.n.tolist())) == [
        key for key, p in zip(keys, probs.tolist()) if p >= PROB_FLOOR]


tiny_kappas = st.tuples(unit_kappas, st.floats(-100.0, 0.0)).map(lambda ke: ke[0] * 10.0 ** ke[1])


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 8), size=st.floats(0.05, 2.5), phase=st.sampled_from([0.0, 0.4, -2.0]),
       eta=st.floats(1e-3, 1.0), sign=st.sampled_from(["minus", "plus"]),
       kind=st.sampled_from(["odd", "even", "any"]), k1=tiny_kappas, k2=tiny_kappas,
       mass=st.sampled_from([1.0, 1e-3, 1e3, 1e-40]))
@example(m=8, size=2.0, phase=0.0, eta=1.0, sign="minus", kind="any", k1=0.6, k2=0.8, mass=1e3)
@example(m=3, size=1.0, phase=0.4, eta=0.6, sign="plus", kind="odd", k1=0.6, k2=0.8, mass=1e-40)
def test_trimmed_records_stay_below_the_floor(m, size, phase, eta, sign, kind, k1, k2, mass):
    alpha = size * complex(math.cos(phase), math.sin(phase))
    k2 = {"odd": -k1, "even": k1, "any": k2}[kind]
    n_max = default_n_max(m, math.sqrt(eta) * alpha)
    # a run: its cached geometry, scored with the normalized input
    with _own_cache() as cache:
        report = run_protocol(m, alpha, k1, k2, sign, eta=eta)
    (geometry,) = cache._entries.values()
    folded, inp = _folded(m, alpha, eta, k1, k2, sign)
    c = np.array(input_coefficients(k1, k2, lambda: geometry.reference_gram))
    _trim_is_exact(geometry, report, folded, m, n_max, (geometry.forms[0] @ (c[:, None] * c.conj()).ravel()).real)
    # `enumerate_outcomes` on a folded state of trace `mass`, which bounds its table's mass;
    # at 1e-40 no record is kept
    folded = CoherentState(folded.labels, folded.coeffs * mass)
    geometry = teleport._geometry(folded.labels, inp.labels, m, n_max, sign, folded.density(),
                                  folded.trace().real)
    report = enumerate_outcomes(folded, m, n_max, sign, reference=inp)
    _trim_is_exact(geometry, report, folded, m, n_max, geometry.forms[0, :, 0].real)


def _numpy_key(value) -> tuple:
    """The key part every value once got: type, then NumPy's dtype, shape and bytes."""
    bits = np.asarray(value)
    if bits.dtype == object:
        return type(value), value
    return type(value), bits.dtype.str, bits.shape, bits.tobytes()


def _nan(payload: int, negative: bool) -> float:
    return struct.unpack("d", struct.pack("Q", (negative << 63) | (0x7FF << 52) | payload))[0]


def _numpy_value(x, make):
    """`make(x)`, a NumPy scalar or 0-d array, rounded or cast as NumPy does without a warning."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        return make(x)


key_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.0, -1.0]),
    st.floats(allow_nan=True, allow_subnormal=True),
    st.builds(_nan, st.integers(1, (1 << 52) - 1), st.booleans()),  # NaN payloads
)
key_values = st.one_of(
    st.sampled_from([0, 1, -1, 2**63, 2**64, -(2**63) - 1]), st.integers(),
    key_floats, st.builds(complex, key_floats, key_floats),
    st.sampled_from(["minus", "plus", "", "minus\x00"]), st.text(max_size=4),
    st.builds(_numpy_value, key_floats, st.sampled_from([
        np.float64, np.float32, np.complex128, np.array, lambda x: np.array(x, np.float32),
        lambda x: np.array(x, complex)])),
    st.builds(_numpy_value, st.integers(-(2**31), 2**31 - 1), st.sampled_from([
        np.int32, np.int64, np.float32, np.array, lambda x: np.array(x, np.int32)])),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(key_values, min_size=2, max_size=6))
def test_key_parts_match_exactly_when_numpy_keys_do(values):
    # Python int, str, float and complex key without NumPy; two values must still match
    # exactly when their NumPy keys do.  Copies of each value make matches likely.
    values += [type(v)(v) if type(v) in (int, float, complex, str) else v for v in values]
    for a in values:
        for b in values:
            assert (teleport._exact_key(a) == teleport._exact_key(b)) == (_numpy_key(a) == _numpy_key(b))


def test_a_warm_run_builds_nothing(geometries):
    run_protocol(6, 1.5, 0.6, 0.8, eta=0.6)
    package = os.path.dirname(teleport.__file__) + os.sep
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run_protocol(6, 1.5, 0.3 - 0.9j, -1.1 + 0.2j, eta=0.6)
    finally:
        sys.setprofile(None)
    builders = {"build_input", "lossy_channel_operator", "apply_loss", "fold_network", "tensor", "_geometry",
                "gram", "dedupe_index"}
    assert not builders & set(calls)
    assert len(calls) <= 15  # run_protocol, its checks, five key parts, the lookup, the input and the score
