"""Truncated number-basis engine: encoding, beam splitter, measurement,
qubit reduction and Wootters concurrence."""

import ast
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ecs_teleport import fock
from ecs_teleport.algebra import CoherentState, UnsupportedStructureError, beam_splitter, poisson_tail, superposition
from ecs_teleport.channels import ChannelSpec, build_channel, schmidt_coefficients
from conftest import random_state
import dense_fock


def test_encode_vacuum():
    v = dense_fock.encode(superposition([(1.0, (0.0,))]), 10)
    assert abs(v[0] - 1.0) < 1e-15
    assert np.linalg.norm(v[1:]) < 1e-15


def test_encode_unit_amplitude_two_photon_coefficient():
    # <2|alpha=1> = e^{-1/2} / sqrt(2)
    v = dense_fock.encode(superposition([(1.0, (1.0,))]), 30)
    assert abs(v[2] - math.exp(-0.5) / math.sqrt(2)) < 1e-12


def test_encode_two_branch_norm_deficit():
    psi = superposition([(1.0, (1.0, 1.0)), (1.0, (-1.0, -1.0))])
    nrm = math.sqrt(2.0 * (1.0 + math.exp(-4.0)))
    v = dense_fock.encode(CoherentState(psi.labels, psi.coeffs / nrm), 30)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-10


def test_encode_warns_below_the_cutoff_rule():
    with pytest.warns(UserWarning):
        dense_fock.encode(superposition([(1.0, (2.0,))]), 4)


def _outer_product_encoding(state, dims):
    """Reference encoding: the sum of one outer product of coherent columns per branch."""
    data = np.zeros(dims, dtype=complex)
    for coeff, row in zip(state.coeffs.tolist(), state.labels.tolist()):
        acc = np.array(coeff, dtype=complex)
        for a, d in zip(row, dims):
            acc = np.multiply.outer(acc, fock.coherent_column(a, d))
        data += acc
    return data


@pytest.mark.parametrize("cutoffs", [[12], [10, 13], [5, 6, 5, 6, 5, 6, 4]])
def test_encode_matches_per_branch_outer_products(rng, cutoffs):
    state = random_state(rng, len(cutoffs), 4, amp_max=0.3)
    v = dense_fock.encode(state, cutoffs)
    dims = tuple(c + 1 for c in cutoffs)
    assert v.shape == dims
    assert np.max(np.abs(v - _outer_product_encoding(state, dims))) < 1e-14


# commands that together reach every CLI subcommand, the Fock oracle and `verify`'s seeded draws
_GUARDED_COMMANDS = (
    ["verify", "--trials", "2"],
    ["teleport", "--m", "2", "--alpha", "1", "--engine", "all"],
    ["channel-info", "--m", "2"],
    ["figures", "fig1"],
)


def test_importing_the_cli_leaves_scipy_out():
    # nor NumPy's lazily loaded random, fft and polynomial packages: `verify` draws its
    # scenarios from the standard library's `random.Random`, and numpy.random alone would add
    # about 6 MB and 10 ms to a CLI process.  Checked after the import and after each command.
    import ecs_teleport

    src = os.path.dirname(os.path.dirname(os.path.abspath(ecs_teleport.__file__)))
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        import ecs_teleport.cli as cli

        def loaded():
            return sorted(k for k in sys.modules if k.split(".")[0] == "scipy" or k.split(".")[:2]
                          in (["numpy", "random"], ["numpy", "fft"], ["numpy", "polynomial"]))

        print("import", loaded())
        for argv in {list(_GUARDED_COMMANDS)!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            print(argv[0], code, loaded())
    """)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    expected = ["import []"] + [f"{argv[0]} 0 []" for argv in _GUARDED_COMMANDS]
    assert out.stdout.splitlines() == expected, out.stderr


def test_package_imports_only_at_module_level_and_channels_leaves_fock_out():
    package = os.path.dirname(os.path.abspath(fock.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                local = [n for n in ast.walk(func) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not local, f"{name}:{local[0].lineno} imports inside {getattr(func, 'name', 'lambda')}"
        # the label-algebra engine stays independent of the Fock engine
        if name in ("algebra.py", "channels.py", "noise.py", "teleport.py"):
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    imported.add(node.module or "")
                    imported.update(alias.name for alias in node.names)
            assert not any(mod.split(".")[-1] == "fock" for mod in imported), name


def _recurrence_column(alpha, dim):
    """c_0 = exp(-|alpha|^2 / 2), c_{n+1} = c_n alpha / sqrt(n + 1)."""
    col = np.zeros(dim, dtype=complex)
    c = complex(math.exp(-0.5 * abs(alpha) ** 2))
    for n in range(dim):
        col[n] = c
        c = c * alpha / math.sqrt(n + 1)
    return col


@pytest.mark.parametrize("alpha", (0.0, 0.3, -1.2, 0.8 - 1.9j, 6.0))
def test_coherent_column_matches_the_recurrence(alpha):
    dim = fock.default_cutoff(alpha) + 1
    ref = _recurrence_column(alpha, dim)
    assert np.max(np.abs(fock.coherent_column(alpha, dim) - ref)) < 1e-14 * np.max(np.abs(ref))


def test_coherent_column_keeps_its_norm_past_exp_underflow():
    # exp(-|alpha|^2 / 2) underflows to 0 at |alpha|^2 = 1600; the column must not
    alpha = 40.0j
    col = fock.coherent_column(alpha, fock.default_cutoff(alpha) + 1)
    assert abs(np.linalg.norm(col) - 1.0) < 1e-10
    assert np.argmax(np.abs(col)) in (1599, 1600)


def test_coherent_column_rejects_cutoffs_above_the_cap():
    with pytest.raises(ValueError, match="cap"):
        fock.coherent_column(1.0, fock.MAX_CUTOFF + 2)


def test_default_cutoff_rule_tail_bound():
    for beta in (0.5, 1.2, 2.83):
        cut = fock.default_cutoff(beta)
        assert poisson_tail(beta, cut) < 1e-10


def test_bs_unitary_matches_coherent_action():
    a = 0.8
    x = superposition([(1.0, (a, a))])
    out = dense_fock.bs_unitary(dense_fock.encode(x, 40), 0, 1)
    ref = dense_fock.encode(beam_splitter(x, 0, 1), 40)
    assert np.max(np.abs(out - ref)) < 1e-6


def test_bs_unitary_vacuum_invariant():
    v = dense_fock.encode(superposition([(1.0, (0.0, 0.0))]), 8)
    out = dense_fock.bs_unitary(v, 0, 1)
    assert np.max(np.abs(out - v)) < 1e-12


def test_bs_unitary_preserves_norm(rng):
    data = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    data /= np.linalg.norm(data)
    assert abs(np.linalg.norm(dense_fock.bs_unitary(data, 0, 1)) - 1.0) < 1e-10


def test_bs_unitary_random_states_agree_with_algebra(rng):
    for _ in range(10):
        x = random_state(rng, 2, 3)
        fx = dense_fock.bs_unitary(dense_fock.encode(x, 18), 0, 1)
        ref = dense_fock.encode(beam_splitter(x, 0, 1), 18)
        assert abs(np.vdot(ref, fx) - 1.0) < 1e-6


def _eig_mode_generator(mode_matrix):
    """h = i V log(W) V^-1 from the eigendecomposition S = V W V^-1, Hermitian part."""
    w, v = np.linalg.eig(np.asarray(mode_matrix, dtype=float))
    h = 1j * ((v * np.log(w.astype(complex))) @ np.linalg.inv(v))
    return 0.5 * (h + h.conj().T)


def _dense_bs_reference(di, dj, mode_matrix=fock.FIFTY_FIFTY):
    """exp(-i H) of the whole truncated two-mode generator, built with kron and
    exponentiated by eigh of the (di dj) x (di dj) matrix."""
    h = _eig_mode_generator(mode_matrix)
    a_i = np.diag(np.sqrt(np.arange(1, di)), 1)
    a_j = np.diag(np.sqrt(np.arange(1, dj)), 1)
    ham = (
        h[0, 0] * np.kron(a_i.T @ a_i, np.eye(dj))
        + h[1, 1] * np.kron(np.eye(di), a_j.T @ a_j)
        + h[0, 1] * np.kron(a_i.T, a_j)
        + h[1, 0] * np.kron(a_i, a_j.T)
    )
    w, v = np.linalg.eigh(ham)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _shells(di, dj, blocks):
    """(levels, U_N) of every shell in the stacks, once each level 0..di dj - 1
    is found in exactly one row and each row on one shell."""
    covered = np.zeros(di * dj, dtype=int)
    shells = []
    for levels, u in blocks:
        assert u.shape == levels.shape + levels.shape[-1:]
        total = levels // dj + levels % dj
        assert np.all(total == total[:, :1])
        np.add.at(covered, levels.ravel(), 1)
        shells += zip(levels, u)
    assert np.all(covered == 1)
    return shells


@pytest.mark.parametrize("dims", [(5, 5), (7, 13), (13, 7)])
def test_bs_blocks_reassemble_the_dense_unitary(dims):
    di, dj = dims
    full = np.zeros((di * dj, di * dj), dtype=complex)
    for idx, u in _shells(di, dj, fock._bs_blocks(di, dj)):
        full[np.ix_(idx, idx)] = u
    assert np.max(np.abs(full - _dense_bs_reference(di, dj))) < 1e-12


@pytest.mark.parametrize("dims", [(1, 1), (5, 5), (7, 13), (13, 7), (41, 41)])
def test_bs_blocks_are_unitary(dims):
    for idx, u in _shells(*dims, fock._bs_blocks(*dims)):
        assert np.max(np.abs(u @ u.conj().T - np.eye(len(idx)))) < 1e-12


@pytest.mark.parametrize("eta", (0.0, 0.3, 0.6, 0.9, 1.0))
def test_loss_generator_exponentiates_to_the_loss_matrix(eta):
    w, v = np.linalg.eigh(fock._mode_generator(fock.loss_matrix(eta)))
    assert np.max(np.abs((v * np.exp(-1j * w)) @ v.conj().T - np.array(fock.loss_matrix(eta)))) < 1e-14


_S = 1.0 / math.sqrt(2.0)


@pytest.mark.parametrize("mode_matrix", [fock.FIFTY_FIFTY, ((_S, -_S), (_S, _S))] + [
    fock.loss_matrix(eta) for eta in (0.0, 1e-9, 0.3, 0.5, 0.6, 0.9, 1.0 - 1e-12, 1.0)
])
def test_mode_generator_matches_the_eigendecomposition(mode_matrix):
    assert np.max(np.abs(fock._mode_generator(mode_matrix) - _eig_mode_generator(mode_matrix))) < 1e-15


# every (di, dj) the other tests build blocks at, per mode matrix
_BUILT_BLOCKS = {
    fock.FIFTY_FIFTY: [
        (1, 1), (2, 2), (5, 5), (6, 4), (7, 13), (9, 6), (9, 9), (11, 11), (12, 14), (13, 7), (15, 9),
        (15, 10), (15, 12), (15, 15), (15, 18), (16, 11), (16, 16), (16, 19), (17, 11), (17, 13),
        (17, 17), (19, 10), (19, 12), (19, 19), (19, 23), (21, 13), (21, 21), (22, 14), (22, 22),
        (25, 12), (25, 15), (25, 25), (26, 15), (26, 26), (27, 27), (30, 17), (30, 30), (31, 14),
        (31, 17), (31, 31), (41, 41),
    ],
    fock.loss_matrix(1.0): [
        (2, 1), (9, 1), (10, 1), (11, 1), (12, 1), (13, 1), (15, 1), (17, 1), (19, 1), (20, 1), (21, 1),
        (26, 1), (27, 1), (30, 1),
    ],
    fock.loss_matrix(0.9): [(14, 8), (17, 8), (18, 9), (22, 9), (31, 11), (41, 37)],
    fock.loss_matrix(0.6): [(14, 11), (15, 11), (18, 13), (19, 13), (21, 14), (25, 16), (41, 37)],
    fock.loss_matrix(0.5): [(15, 12), (19, 15)],
    fock.loss_matrix(0.3): [(14, 13), (15, 13), (18, 16), (19, 17), (23, 20), (41, 37)],
    ((_S, -_S), (_S, _S)): [
        (15, 11), (15, 13), (16, 11), (16, 19), (19, 17), (19, 19), (21, 13), (21, 14), (21, 21),
    ],
}


@pytest.mark.parametrize("mode_matrix", list(_BUILT_BLOCKS))
def test_bs_blocks_match_the_eigendecomposition_generator(monkeypatch, mode_matrix):
    # the two generators differ by an ulp or two, which eigh turns into up to 2.9e-14 at
    # ||H_N|| ~ 110 (the (41, 41) 50/50 blocks): eigh's own rounding at that norm
    blocks = [fock._bs_blocks.__wrapped__(di, dj, mode_matrix) for di, dj in _BUILT_BLOCKS[mode_matrix]]
    monkeypatch.setattr(fock, "_mode_generator", _eig_mode_generator)
    for (di, dj), new in zip(_BUILT_BLOCKS[mode_matrix], blocks):
        ref_blocks = fock._bs_blocks.__wrapped__(di, dj, mode_matrix)
        for (idx, u), (ref_idx, ref) in zip(_shells(di, dj, new), _shells(di, dj, ref_blocks), strict=True):
            assert np.array_equal(idx, ref_idx)
            assert np.max(np.abs(u - ref)) < 1e-13, (di, dj)


@pytest.mark.parametrize("eta", (0.3, 0.6, 0.9))
def test_loss_blocks_are_unitary_and_map_the_labels(eta):
    dims = (41, 37)
    blocks = fock._bs_blocks(*dims, fock.loss_matrix(eta))
    for idx, u in _shells(*dims, blocks):
        assert np.max(np.abs(u @ u.conj().T - np.eye(len(idx)))) < 1e-12
    # |g>|0> -> |sqrt(eta) g>|sqrt(1 - eta) g> on the truncated pair
    g = 1.3 - 0.4j
    cuts = [d - 1 for d in dims]
    vin = dense_fock.encode(superposition([(1.0, (g, 0.0))]), cuts)
    out = fock._apply_blocks(vin, 0, 1, blocks)
    ref = dense_fock.encode(superposition([(1.0, (math.sqrt(eta) * g, math.sqrt(1 - eta) * g))]), cuts)
    assert np.max(np.abs(out - ref)) < 1e-12


def _shell_weights(data, i, j):
    """Weight of each total photon number n_i + n_j of modes i and j."""
    probs = np.moveaxis(np.abs(data) ** 2, (i, j), (0, 1))
    probs = probs.reshape(probs.shape[0], probs.shape[1], -1).sum(axis=2)
    total = np.add.outer(np.arange(probs.shape[0]), np.arange(probs.shape[1]))
    return np.bincount(total.ravel(), weights=probs.ravel())


@pytest.mark.parametrize("pair", [(0, 1), (2, 0)])
def test_bs_unitary_keeps_shell_weights(rng, pair):
    dims = (6, 4, 9)
    data = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    data /= np.linalg.norm(data)
    out = dense_fock.bs_unitary(data, *pair)
    assert np.max(np.abs(_shell_weights(out, *pair) - _shell_weights(data, *pair))) < 1e-12
    # and acts on that pair as the dense reference does
    i, j = pair
    u4 = _dense_bs_reference(dims[i], dims[j]).reshape(dims[i], dims[j], dims[i], dims[j])
    ref = np.moveaxis(np.tensordot(u4, data, axes=([2, 3], [i, j])), (0, 1), (i, j))
    assert np.max(np.abs(out - ref)) < 1e-12


def test_measure_number_vacuum():
    v = dense_fock.encode(superposition([(1.0, (0.0, 0.5))]), 10)
    _, p = dense_fock.measure_number(v, 0, 0)
    assert abs(p - 1.0) < 1e-12


def test_measure_number_poisson():
    v = dense_fock.encode(superposition([(1.0, (1.0,))]), 30)
    _, p = dense_fock.measure_number(v, 0, 1)
    assert abs(p - math.exp(-1.0)) < 1e-12


def test_measure_number_probabilities_sum_to_squared_norm(rng):
    x = random_state(rng, 2, 2)
    v = dense_fock.encode(x, 20)
    total = sum(dense_fock.measure_number(v, 0, n)[1] for n in range(21))
    assert abs(total - np.linalg.norm(v) ** 2) < 1e-12


def test_measure_number_beyond_cutoff():
    v = dense_fock.encode(superposition([(1.0, (0.5,))]), 10)
    with pytest.raises(ValueError):
        dense_fock.measure_number(v, 0, 11)


# --- branch MPS against the dense reference ------------------------------------

def test_coherent_column_stacks_one_column_per_amplitude():
    alphas = np.array([0.0, 0.3, -1.2, 0.8 - 1.9j, 6.0, 1e-9j, 0.0])
    dim = fock.default_cutoff(6.0) + 1
    cols = fock.coherent_column(alphas, dim)
    assert cols.shape == (len(alphas), dim)
    for a, col in zip(alphas.tolist(), cols):
        assert np.max(np.abs(col - fock.coherent_column(a, dim))) <= 1e-15
    assert np.array_equal(cols[0], np.eye(dim)[0])


def _mps(state, dims, order=None):
    order = list(range(state.mode_count)) if order is None else order
    return fock.branch_sites(state.labels[:, order], state.coeffs, [dims[k] for k in order])


def test_branch_sites_and_lossy_split_pair_at_unequal_dims(rng):
    # every site is the per-mode construction at its own cutoff, bit for bit
    dims, k = [1, 7, 19, 4], 3
    labels = rng.normal(size=(k, len(dims))) + 1j * rng.normal(size=(k, len(dims)))
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    eye = np.eye(k)
    ref = [fock.coherent_column(col, d)[:, :, None] * eye[:, None, :] for col, d in zip(labels.T, dims)]
    ref[0] = np.tensordot(coeffs, ref[0], axes=1)[None]
    ref[-1] = ref[-1].sum(axis=2, keepdims=True)
    for site, want in zip(fock.branch_sites(labels, coeffs, dims), ref, strict=True):
        assert np.array_equal(site, want)
    # the lossy oracle's gate shape: bonds above one and di != dj
    theta = rng.normal(size=(2, 15, 11, 3)) + 1j * rng.normal(size=(2, 15, 11, 3))
    u4 = _dense_bs_reference(15, 11, fock.loss_matrix(0.6)).reshape(15, 11, 15, 11)
    want = np.moveaxis(np.tensordot(u4, theta, axes=([2, 3], [1, 2])), (0, 1), (1, 2))
    assert np.max(np.abs(fock.split_pair(theta, fock.loss_matrix(0.6)) - want)) < 1e-12


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_mps_overlap_matches_the_dense_vdot(rng, modes):
    cutoffs = [14, 11, 13, 12][:modes]
    dims = [c + 1 for c in cutoffs]
    for kx, ky in ((1, 1), (4, 2), (3, 4)):
        x, y = random_state(rng, modes, kx), random_state(rng, modes, ky)
        dense = np.vdot(dense_fock.encode(x, cutoffs), dense_fock.encode(y, cutoffs))
        assert abs(fock.mps_overlap(_mps(x, dims), _mps(y, dims)) - dense) < 1e-13


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_two_site_splitter_matches_bs_unitary_on_every_pair(rng, modes):
    cutoff, d = 10, 11
    x = random_state(rng, modes, 4, amp_max=0.8)
    dense = dense_fock.encode(x, cutoff)
    for i in range(modes):
        for j in range(modes):
            if i == j:
                continue
            order = [i, j] + [k for k in range(modes) if k not in (i, j)]
            sites = _mps(x, [d] * modes, order)
            pair = np.tensordot(sites[0], sites[1], axes=1)
            pair = fock.split_pair(pair)
            out = fock._contract(np.ones(1), [pair.reshape(1, d * d, -1)] + sites[2:])
            out = np.transpose(out.reshape([d] * modes), np.argsort(order))
            assert np.max(np.abs(out - dense_fock.bs_unitary(dense, i, j))) < 1e-13


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_sliced_site_norm_matches_measure_number(rng, modes):
    cutoff = 12
    x = random_state(rng, modes, 3)
    sites = _mps(x, [cutoff + 1] * modes)
    dense = dense_fock.encode(x, cutoff)
    for mode in range(modes):
        for n in range(5):
            sliced = sites[:mode] + [sites[mode][:, n : n + 1]] + sites[mode + 1 :]
            p = fock.mps_overlap(sliced, sliced)
            assert abs(p - dense_fock.measure_number(dense, mode, n)[1]) < 1e-13


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
