"""The verify suites fail on a broken Fock engine or a broken adjudication, keep
their memory small, and read the outcome table as columns."""

import math
import tracemalloc

import pytest

from ecs_teleport import fock, teleport, verify


def _swapped_axes(apply_blocks):
    return lambda data, i, j, blocks: apply_blocks(data, j, i, blocks)


def _conjugated_columns(coherent_column):
    return lambda alpha, dim: coherent_column(alpha, dim).conj()


def _wrong_mode_matrix(bs_blocks):
    s = 1.0 / math.sqrt(2.0)
    return lambda di, dj, mode_matrix=fock.FIFTY_FIFTY: bs_blocks(di, dj, ((s, -s), (s, s)))


def _reversed_levels(bs_blocks):
    return lambda di, dj, mode_matrix=fock.FIFTY_FIFTY: tuple(
        (levels[:, ::-1], u) for levels, u in bs_blocks(di, dj, mode_matrix)
    )


@pytest.mark.parametrize(
    "name, mutate",
    [
        ("_apply_blocks", _swapped_axes),
        ("coherent_column", _conjugated_columns),
        ("_bs_blocks", _wrong_mode_matrix),
        ("_bs_blocks", _reversed_levels),
    ],
)
def test_oracle_equivalence_fails_on_a_broken_engine(monkeypatch, name, mutate):
    monkeypatch.setattr(fock, name, mutate(getattr(fock, name)))
    result = verify.oracle_equivalence(0, 20)
    assert not result.passed, result.detail


def _wrong_split_pair(split_pair):
    s = 1.0 / math.sqrt(2.0)
    return lambda theta, mode_matrix=fock.FIFTY_FIFTY: split_pair(theta, ((s, -s), (s, s)))


@pytest.mark.parametrize("suite", ["oracle_equivalence", "lossy_protocol_oracle"])
def test_fock_suites_fail_on_a_wrong_split_pair(monkeypatch, suite):
    monkeypatch.setattr(fock, "split_pair", _wrong_split_pair(fock.split_pair))
    result = getattr(verify, suite)(0, 20)
    assert not result.passed, result.detail


def test_adjudication_fails_on_swapped_variants(monkeypatch):
    forms = verify.teleported_fidelity_closed_form
    monkeypatch.setattr(verify, "teleported_fidelity_closed_form", lambda m, a, e: forms(m, a, e)[::-1])
    result = verify.noisy_fidelity_adjudication()
    assert not result.passed, result.detail


def test_adjudication_fails_on_a_shifted_exact_form(monkeypatch):
    exact = verify.teleported_fidelity_exact
    monkeypatch.setattr(verify, "teleported_fidelity_exact", lambda m, a, e: exact(m, a, e) + 1e-8)
    result = verify.noisy_fidelity_adjudication()
    assert not result.passed, result.detail


def test_verify_passes_without_the_dense_fock_path():
    results = verify.run_all(0, 50)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
    # bytes of K^2 (cutoff + 1)^2 complex entries, K = 4 branches, cutoff 18:
    # the largest array the suite may make.  A few live at once, where one
    # dense 4-mode state would take 19^4 entries.
    largest = 16 * 4**2 * 19**2
    tracemalloc.start()
    try:
        verify.oracle_equivalence(0, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * largest


def _no_rows(report):
    raise AssertionError("verify read the report's rows")


def test_verify_reads_only_the_report_columns(monkeypatch):
    monkeypatch.setattr(teleport.ProtocolReport, "outcomes", property(_no_rows))
    results = verify.run_all(0, 12)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_run_all_is_reproducible_for_a_seed():
    lines = [r.line() for r in verify.run_all(3, 12)]
    assert lines == [r.line() for r in verify.run_all(3, 12)]
    # the seed reaches the scenarios: another seed draws other states
    assert verify.oracle_equivalence(4, 12).detail != verify.oracle_equivalence(3, 12).detail


# the suites that draw from `random.Random(seed)`; the others take no scenario from the seed
SEEDED_SUITES = (verify.oracle_equivalence, verify.round_trip, verify.probability_kappa_independence)


@pytest.mark.parametrize("seed", range(10))
def test_seeded_suites_pass_for_the_first_ten_seeds(seed):
    # at the CLI's default of 50 trials, as `verify --seed N` runs them
    results = [suite(seed, 50) for suite in SEEDED_SUITES]
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
