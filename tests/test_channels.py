"""Channel constructors, normalization constants, and entanglement analytics."""

import math

import numpy as np
import pytest

from ecs_teleport.algebra import (
    beam_splitter,
    inner_product,
    superposition,
)
from ecs_teleport.channels import (
    ChannelSpec,
    build_channel,
    build_input,
    channel_amplitudes,
    concurrence_closed_form,
    input_amplitudes,
    norm_constant,
    schmidt_coefficients,
)
from ecs_teleport.fock import channel_concurrence_oracle


def test_channel_amplitude_ladder():
    amps = channel_amplitudes(3, 1.0)
    assert np.allclose(amps, (2.0, math.sqrt(2), 1.0, 1.0))
    assert np.allclose(channel_amplitudes(1, 0.5), (0.5, 0.5))
    assert input_amplitudes(3, 1.0) == channel_amplitudes(2, 1.0)
    assert input_amplitudes(1, 0.7) == (0.7,)


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("alpha", (0.1, 0.9, 3.0))
@pytest.mark.parametrize("sign", ("plus", "minus"))
def test_channel_normalization(m, alpha, sign):
    state = build_channel(ChannelSpec(m, alpha, sign))
    assert abs(inner_product(state, state) - 1.0) < 1e-12


def test_norm_constant_values():
    # 1/sqrt(2 (1 +- e^{-2^{m+1} a^2}))
    for m, alpha in ((3, 1.0), (2, 0.6), (1, 1.2)):
        z = math.exp(-(2 ** (m + 1)) * alpha**2)
        assert abs(norm_constant(m, alpha, "minus") - 1 / math.sqrt(2 * (1 - z))) < 1e-14
        assert abs(norm_constant(m, alpha, "plus") - 1 / math.sqrt(2 * (1 + z))) < 1e-14


def test_channel_rejects_degenerate_amplitude():
    with pytest.raises(ValueError):
        ChannelSpec(3, 1e-9, "minus")
    with pytest.raises(ValueError):
        build_input(3, 0.0, 1.0, 1.0)


def test_channel_rejects_bad_sign_and_m():
    with pytest.raises(ValueError):
        ChannelSpec(3, 1.0, "both")
    with pytest.raises(ValueError):
        ChannelSpec(0, 1.0, "minus")


def test_ladder_self_similarity_under_fold():
    # folding the last two modes of the (m+2)-mode channel reproduces the
    # (m+1)-mode channel at amplitude sqrt(2) alpha, with a trailing vacuum
    for m in (1, 2, 3, 4):
        alpha = 0.8
        big = build_channel(ChannelSpec(m + 1, alpha, "minus"))
        folded = beam_splitter(big, m, m + 1)
        small = build_channel(ChannelSpec(m, math.sqrt(2) * alpha, "minus"))
        vac = superposition([(1.0, (0.0,))])
        from ecs_teleport.algebra import tensor

        expected = tensor(small, vac)
        assert abs(abs(inner_product(expected, folded)) - 1.0) < 1e-12


def test_build_input_product_state_limit():
    state = build_input(3, 1.0, 1.0, 0.0)
    assert np.count_nonzero(state.coeffs) == 1
    assert np.allclose(state.labels[0], (math.sqrt(2), 1.0, 1.0))


def test_build_input_normalizes_random_inputs(rng):
    for _ in range(10):
        k1 = complex(rng.normal(), rng.normal())
        k2 = complex(rng.normal(), rng.normal())
        state = build_input(3, 1.3, k1, k2)
        assert abs(inner_product(state, state) - 1.0) < 1e-12


def test_build_input_rejects_zero_pair():
    with pytest.raises(ValueError):
        build_input(3, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_non_finite_amplitudes_and_kappas_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        ChannelSpec(3, bad, "minus")
    with pytest.raises(ValueError, match="finite"):
        build_input(3, bad, 1.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        build_input(3, 1.0, complex(1.0, bad), 1.0)


# --- concurrence closed forms ---------------------------------------------------

def test_minus_channel_is_maximally_entangled_across_first_mode():
    for alpha in (0.2, 1.0, 2.5):
        spec = ChannelSpec(3, alpha, "minus")
        assert abs(concurrence_closed_form(spec, 0) - 1.0) < 1e-12


def test_plus_channel_concurrence_is_tanh_of_total_energy():
    spec = ChannelSpec(3, 0.5, "plus")
    assert abs(concurrence_closed_form(spec, 0) - math.tanh(2.0)) < 1e-12


def test_lone_mode_concurrence_explicit_shapes():
    # C_x = sqrt(1 - e^{-4 E_x}) sqrt(1 - e^{-4 (S - E_x)}) / (1 +- e^{-2 S}),
    # with E_x the lone mode's |amp|^2 and S the channel total; at m=3 the
    # partitions are E = 4a^2 (first), 2a^2 (second), a^2 (third and fourth)
    alpha = 1.0
    a2 = alpha**2
    for sign, pm in (("plus", 1.0), ("minus", -1.0)):
        spec = ChannelSpec(3, alpha, sign)
        denom = 1.0 + pm * math.exp(-16 * a2)

        def explicit(e_lone):
            return (
                math.sqrt(1 - math.exp(-4 * e_lone))
                * math.sqrt(1 - math.exp(-4 * (8 * a2 - e_lone)))
                / denom
            )

        assert abs(concurrence_closed_form(spec, 1) - explicit(2 * a2)) < 1e-12
        assert abs(concurrence_closed_form(spec, 2) - explicit(a2)) < 1e-12
        # the two unit-amplitude modes give identical values
        assert concurrence_closed_form(spec, 2) == concurrence_closed_form(spec, 3)


@pytest.mark.parametrize("alpha", (0.3, 0.7, 1.0, 1.5, 2.0))
@pytest.mark.parametrize("sign", ("plus", "minus"))
def test_closed_forms_match_numeric_wootters(alpha, sign):
    spec = ChannelSpec(3, alpha, sign)
    for lone in range(4):
        closed = concurrence_closed_form(spec, lone)
        oracle = channel_concurrence_oracle(spec, lone)
        assert abs(closed - oracle) < 1e-6


def test_concurrence_rejects_bad_partitions():
    spec = ChannelSpec(3, 1.0, "minus")
    with pytest.raises(ValueError):
        concurrence_closed_form(spec, 7)
    with pytest.raises(ValueError):
        concurrence_closed_form(spec, (0, 1, 2, 3))


# --- Schmidt coefficients -------------------------------------------------------

def test_schmidt_coefficients_unit_norm_and_concurrence():
    for m in (1, 2, 4, 6):
        state = build_channel(ChannelSpec(m, 1.0, "minus"))
        pair = schmidt_coefficients(state, ((0,), tuple(range(1, m + 1))))
        total = sum(abs(x) ** 2 for x in pair.as_vector())
        assert abs(total - 1.0) < 1e-10
        assert abs(pair.concurrence - 1.0) < 1e-9


def test_schmidt_coefficients_closed_expressions():
    m, alpha = 3, 0.8
    state = build_channel(ChannelSpec(m, alpha, "minus"))
    pair = schmidt_coefficients(state, ((0,), (1, 2, 3)))
    a = norm_constant(m, alpha, "minus")
    z = math.exp(-(2 ** (m + 1)) * alpha**2)
    t = math.exp(-(2**m) * alpha**2)
    assert abs(pair.x00 - a * (1 - z)) < 1e-12
    assert abs(pair.x01 - (-a * t * math.sqrt(1 - z))) < 1e-12
    assert abs(pair.x10 - pair.x01) < 1e-12
    assert abs(pair.x11 - (-a * (1 - z))) < 1e-12


def test_schmidt_coefficients_reject_single_branch():
    from ecs_teleport.algebra import UnsupportedStructureError

    state = superposition([(1.0, (0.5, 0.5))])
    with pytest.raises(UnsupportedStructureError):
        schmidt_coefficients(state, ((0,), (1,)))
