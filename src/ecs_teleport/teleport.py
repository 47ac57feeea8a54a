"""Teleportation protocol: fold network, joint photon-number measurement,
classical correction, and closed-form success probabilities.

Global mode convention: the joint system carries the m input modes first
(0..m-1) and the m+1 channel modes after (m..2m).  The fold network cascades
50/50 beam splitters R_{m-1,m-2}, ..., R_{m-1,0}, then R_{m-1,m}; it empties
input modes 0..m-2 exactly and concentrates the interference on the measured
pair (mode m-1, mode m).  Bob holds modes m+1..2m.

`run_protocol` is the one protocol driver and the one scoring entry.  The
channel always passes through photon loss of transmissivity eta; the
lossless protocol is its eta = 1 run, where the loss is the identity.  It
computes the whole outcome table in one vectorized pass over five record
classes, each a Poisson weight per record times one quadratic form per
class.

The table splits into a `_Geometry`, built from the folded labels and the
right Kronecker factor F of the folded coefficient matrix c c^H (x) F (the
lossy channel's matrix), and its `score` of the input coefficients c, the
one scoring path.  `run_protocol` caches each geometry under the key
(m, alpha, eta, sign, resolved n_max), each part matched by type and exact
bits, and drops the least recently used entries to hold at most
GEOMETRY_CACHE_BYTES (64 MiB) of arrays.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .algebra import (
    MIN_AMPLITUDE,
    CoherentState,
    UnsupportedStructureError,
    beam_splitter,
    dedupe_index,
    default_cutoff,
    gram,
    half_log_factorials,
    tensor,
)
from .channels import build_input, input_coefficients
from .noise import lossy_channel_operator

# Corrections Bob may apply after hearing (l, n):
#   none            outcome already carries the input
#   phase_only      pi phase shifters on every one of Bob's modes
#   sign_only       sign flip of the negative branch
#   phase_plus_sign both of the above
CORRECTIONS = ("none", "phase_only", "sign_only", "phase_plus_sign")

# probability below which an outcome is treated as absent
PROB_FLOOR = 1e-30
# relative deviation a record's measured-mode amplitudes may show from weight times class pattern
PATTERN_TOL = 1e-9
# largest photon count the outcome table enumerates; its arrays grow with it
MAX_N_MAX = 200_000
# bytes of arrays `run_protocol` keeps; an entry holds 32 B per record some input can keep, ~0.6 MiB
# at MAX_N_MAX (the untrimmed table would take ~12 MiB), + ~1 KiB
GEOMETRY_CACHE_BYTES = 64 << 20


class ProtocolOutcome(NamedTuple):
    """One measurement record: l photons on the folded input mode, n on the
    first channel mode, the correction Bob applies and the fidelity of his
    corrected state.  A row of `ProtocolReport.outcomes`; the package itself
    reads the report's columns."""

    l: int
    n: int
    probability: float
    correction: str
    fidelity: float

    @property
    def is_success(self) -> bool:
        return (self.l, self.n) != (0, 0)


@dataclass(frozen=True, eq=False)
class ProtocolReport:
    """The outcome table as columns, one entry per kept record, in (l, n) order.

    `l` and `n` are the photon counts on the folded input mode and the first
    channel mode, `correction` the index into CORRECTIONS of Bob's correction
    and `fidelity` that of his corrected state.  `success_probability` sums
    every record except (0, 0); `mean_fidelity` is the probability-weighted
    fidelity over those records.  `outcomes` gives the same table as rows.
    """

    l: np.ndarray
    n: np.ndarray
    probability: np.ndarray
    correction: np.ndarray
    fidelity: np.ndarray
    success_probability: float
    mean_fidelity: float

    def __post_init__(self):
        # read-only columns, so the memoised `outcomes` rows cannot drift from them; a writable
        # column is replaced by a read-only view, which leaves the caller's array writable
        for name in ("l", "n", "probability", "correction", "fidelity"):
            column = getattr(self, name)
            if type(column) is not np.ndarray or column.flags.writeable:
                column = np.asarray(column).view()
                column.flags.writeable = False
                object.__setattr__(self, name, column)

    @cached_property
    def outcomes(self) -> tuple[ProtocolOutcome, ...]:
        # tuple.__new__ on zipped columns builds each row in C, skipping the NamedTuple's Python __new__
        corrections = map(CORRECTIONS.__getitem__, self.correction.tolist())
        return tuple(map(partial(tuple.__new__, ProtocolOutcome), zip(
            self.l.tolist(), self.n.tolist(), self.probability.tolist(),
            corrections, self.fidelity.tolist(),
        )))

    @property
    def total_probability(self) -> float:
        return float(self.probability.cumsum()[-1]) if self.probability.size else 0.0  # in row order

    def outcome(self, l: int, n: int) -> Optional[ProtocolOutcome]:
        """The record (l, n), or None when the table does not hold it."""
        hits = np.flatnonzero((self.l == l) & (self.n == n))
        return self.outcomes[hits[0]] if hits.size else None


def fold_pairs(m: int) -> list[tuple[int, int]]:
    """Beam-splitter cascade of the fold network, in application order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    acc = m - 1
    return [(acc, k) for k in range(m - 2, -1, -1)] + [(acc, m)]


def fold_network(joint: CoherentState, m: int) -> CoherentState:
    """Run the fold cascade on the joint state (pure or operator form)."""
    expected = 2 * m + 1
    if joint.mode_count != expected:
        raise ValueError(
            f"joint state must have {expected} modes for m={m}, got {joint.mode_count}"
        )
    state = joint
    for i, j in fold_pairs(m):
        state = beam_splitter(state, i, j)
    return state


def default_n_max(m: int, alpha: complex) -> int:
    """Enumeration bound from the cutoff rule at the folded amplitude 2^{m/2} alpha."""
    return default_cutoff(2.0 ** (m / 2.0) * abs(alpha))


def correction_codes(ls: np.ndarray, ns: np.ndarray, channel_sign: str) -> np.ndarray:
    """Index into CORRECTIONS of the correction that makes each record (ls[i],
    ns[i]) carry the input exactly.

    Minus channel: measuring n on the channel-side mode lands Bob on flipped
    branches, so odd n needs the pi phase shift alone and even n also the
    branch-sign flip; measuring l on the input-side mode leaves Bob upright,
    odd l needs nothing and even l only the sign flip.  The plus channel swaps
    the parity roles.  The record (0, 0) gets no correction.
    """
    ls, ns = np.asarray(ls), np.asarray(ns)
    if np.any((ls < 0) | (ns < 0)):
        raise ValueError("photon counts must be nonnegative")
    if np.any((ls != 0) & (ns != 0)):
        raise ValueError("outcomes with both counts nonzero never occur")
    counts = ls + ns
    phase = (ls == 0) & (counts > 0)
    flip = (counts > 0) & ((counts % 2 == 1) == (channel_sign == "plus"))
    return phase + 2 * flip


# the correction code of each record class (0, 0), even l, odd l, even n, odd n, on the
# minus (False) and plus (True) channel
_CLASS_CODES = {plus: correction_codes([0, 2, 1, 0, 0], [0, 0, 0, 2, 1], "plus" if plus else "minus")
                for plus in (False, True)}


def _default_plus_amps(amps: np.ndarray) -> np.ndarray:
    """Orientation of a branch pair given as label rows: the branch whose first
    nonvanishing amplitude has positive real part is "+"; protocols with real
    alpha > 0 satisfy this."""
    flat = amps.ravel()
    nonzero = np.flatnonzero(np.abs(flat) > 1e-12)
    if not nonzero.size:
        raise UnsupportedStructureError("cannot orient branches of a vacuum state")
    first = nonzero[0]
    row = amps[first // amps.shape[1]]
    return row if flat[first].real > 0 else -row


def _branch_signs(amps: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Classify each label row as the +branch (+1) or the -branch (-1)."""
    on_plus = np.all(np.abs(amps - plus) <= 1e-9, axis=1)
    on_minus = np.all(np.abs(amps + plus) <= 1e-9, axis=1)
    if not np.all(on_plus | on_minus):
        raise UnsupportedStructureError(
            "Bob state is not supported on the expected +-branch pair"
        )
    return np.where(on_plus, 1.0, -1.0)


def _class_patterns(pair: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the counts k = 1..n_max on each measured mode (counts x
    modes), and each record class's pattern over the folded labels.

    `pair` holds each folded label's amplitudes on modes m-1 and m (labels x
    2).  On one mode, with x0 the largest amplitude there and s_t in
    {0, 1, -1} whether and with which sign label t carries it, k photons
    there and none on the other mode have amplitude g_k s_t^k on label t, and
    the weight is |g_k|^2 = |<k|x0>|^2 = exp(-|x0|^2) |x0|^(2k) / k!.  The
    patterns are (0, 0)'s vacuum amplitudes, s^2 and s on mode m-1, then on
    mode m.  A label whose amplitude at some k leaves g_k s_t^k by more than
    PATTERN_TOL |g_k| raises UnsupportedStructureError.
    """
    square = np.abs(pair) ** 2
    peak = square.max(axis=0)
    top = pair[np.argmax(square, axis=0), [0, 1]]
    # a mode vacuum on every label gets zero patterns and zero weights
    ratio = pair / np.where(top == 0, 1.0, top)
    on = np.abs(ratio) > 0.5
    signs = np.where(ratio.real < 0, -1.0, 1.0) * on
    counts = np.arange(1, n_max + 1)[:, None]
    with np.errstate(divide="ignore"):  # log 0 = -inf where an amplitude is exactly vacuum
        log_ratio = np.log(np.where(on, ratio * signs, np.abs(ratio)))
        # |<k|x0>|^2 as twice the real part of number_amplitudes' exponent, in its order; real
        # arithmetic keeps a cold build as fast as the complex amplitude matrix it replaces
        weights = np.exp(2.0 * (-0.5 * peak + counts * np.log(top).real
                                - half_log_factorials(n_max + 1)[1:, None]))
    # log(amplitude / (g_k s_t^k)) = c_t + k log(s_t ratio_t) on a label the pattern holds is
    # linear in k, so its size peaks at k = 1 or n_max; on any other label it peaks at k = 1
    c = 0.5 * (peak - square - square[:, ::-1])
    drift = np.where(on, log_ratio, 0.0)
    spread = np.maximum(np.abs(c + drift), np.abs(c + n_max * drift))
    if np.any(np.where(on, spread > PATTERN_TOL, c + log_ratio.real > math.log(PATTERN_TOL))):
        raise UnsupportedStructureError(
            "measured-mode amplitudes are not a Poisson weight times a class pattern"
        )
    vacuum, even = np.exp(-0.5 * square).prod(axis=1), signs * signs
    return weights, np.array([vacuum, even[:, 0], signs[:, 0], even[:, 1], signs[:, 1]])


@dataclass(frozen=True, eq=False)
class _Geometry:
    """What the outcome table takes from all but the input's coefficients c.

    The table holds the (l=0, n) and (l, n=0) records.  Records with both
    counts nonzero carry exactly zero probability, because every branch of
    the folded state is exactly vacuum on one measured mode.  Let C be the
    folded coefficient matrix, G the Gram matrix of Bob's labels, which no
    record changes, and f_r[t] = <l|a_t><n|b_t> the measured-mode amplitudes
    of record r = (l, n) on folded label t, whose amplitudes on modes m-1 and
    m are a_t and b_t.  The record's probability is then f_r (C o G^T)
    f_r^H.  The fold leaves every label vacuum on one measured mode, and on
    the other it carries +x0 or -x0, the same amplitude for every label of
    that mode.  So f_r for (l, 0) is g_l s^l, where s_t in {0, 1, -1} says
    whether and with which sign label t carries x0 on mode m-1, and |g_l|^2 =
    exp(-|x0|^2) |x0|^(2l) / l! is a Poisson weight; (0, n) is alike on mode
    m.  s^l depends on l only through its parity, so the records fall into
    five classes with one pattern phi_k each: (0, 0) (its own vacuum
    amplitudes, weight 1), even l, odd l, even n and odd n.  A record's
    probability is its weight times its class's form q_k = phi_k (C o G^T)
    phi_k^T.  Its fidelity is a ratio of two such forms, so the weight
    cancels and every record of a class shares one: each correction negates
    every label or none and flips the sign of the -branch or not, and the
    correction is fixed by the class.  A state whose measured-mode amplitudes
    do not factor this way raises UnsupportedStructureError.

    Per record in (l, n) order ((0, 0), then (0, n) and (l, 0) for counts
    1..n_max): `ls`, `ns`, its Poisson weight `weights` (1 for (0, 0)) and
    `classes`: 0 for (0, 0), 1 and 2 for even and odd l, 3 and 4 for even and
    odd n.  Per class: `peaks`, its records' largest weight (0 if none), and
    `codes`, its correction code.  With C = rho (x) F, rho = c c^H over A
    input labels and F over K, folded label s = a K + i and q_k is sum_ab
    rho_ab M_kab, M_kab = sum_il phi_k,aK+i F_il G_bK+l,aK+i phi_k,bK+l.
    `forms` (2 x classes x A*A) holds M, then M with phi_k times the branch
    signs of Bob's corrected labels (his corrected norm); `overlaps` (classes
    x A x references x K) the signed reference overlaps of the corrected
    labels times phi_k; `factor` F; `reference_gram` the reference labels'
    Gram matrix as nested tuples of Python complex, which normalizes a run's
    input.  Every array is read-only.

    The records hold only those some input can keep.  Let T bound the total
    probability a normalized input puts on the table (`mass`: 1 for a run;
    a folded state scored whole, rho = [1] and F = C, puts its trace there).
    A class k then gets q_k W_k <= T, W_k its records' summed weight, so a
    record of weight w has probability w q_k <= w T / W_k.  A record with
    w T <= PROB_FLOOR W_k / 2 stays below PROB_FLOOR, with a factor 2 to
    spare for rounding, and is dropped at the build; `score` would drop it
    anyway.
    """

    ls: np.ndarray
    ns: np.ndarray
    weights: np.ndarray
    classes: np.ndarray
    peaks: tuple[float, ...]
    codes: np.ndarray
    forms: np.ndarray
    overlaps: np.ndarray
    factor: np.ndarray
    reference_gram: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        for array in self._arrays():
            array.flags.writeable = False

    def _arrays(self) -> list[np.ndarray]:
        values = (getattr(self, field.name) for field in fields(self))
        return [value for value in values if isinstance(value, np.ndarray)]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays())

    def score(self, coeffs: Sequence[complex], reference_coeffs: Sequence[complex]) -> ProtocolReport:
        """The outcome table of the input coefficients `coeffs`, scored against
        the pure reference with coefficients `reference_coeffs`, both given as
        Python complex."""
        c = np.array(coeffs)
        forms = (self.forms @ (c[:, None] * c.conj()).ravel()).real
        # c goes into w before F: a quartic form in c cancels to a few digits where a class nearly vanishes
        w = c @ (np.array(reference_coeffs).conj() @ self.overlaps)
        numerators = ((w @ self.factor) * w.conj()).sum(axis=1).real.tolist()
        # only classes with a kept record get a fidelity: the odd cat's (0, 0) form is 0 / 0
        q, norms = forms.tolist()
        fidelities = np.array([numerator / norm if peak * form >= PROB_FLOOR else math.nan
                               for numerator, norm, peak, form in zip(numerators, norms, self.peaks, q)])

        probs = self.weights * forms[0].take(self.classes)
        kept = (probs >= PROB_FLOOR).nonzero()[0]
        classes = self.classes.take(kept)
        columns = (self.ls.take(kept), self.ns.take(kept), probs.take(kept), self.codes.take(classes),
                   fidelities.take(classes))
        for column in columns:
            column.setflags(write=False)  # fresh, so the report keeps them as they are
        # success is every record but (0, 0), class 0, which comes first; cumsum adds in
        # record order, as a Python sum over the rows does
        first = 1 if classes.size and classes[0] == 0 else 0
        p, fidelity = columns[2][first:], columns[4][first:]
        p_succ = float(p.cumsum()[-1]) if p.size else 0.0
        mean_f = float((p * fidelity).cumsum()[-1]) / p_succ if p_succ > 0 else float("nan")
        return ProtocolReport(*columns, p_succ, mean_f)


def _geometry(labels: np.ndarray, reference_labels: np.ndarray, m: int, n_max: int, sign: str,
              factor: np.ndarray, mass: float) -> _Geometry:
    """The `_Geometry` of folded labels whose coefficient matrix is rho (x)
    `factor`, where a normalized rho puts at most `mass` on the table."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if np.any(np.abs(labels[:, : m - 1]) > 1e-9):
        raise AssertionError("fold network left a non-vacuum input mode")
    index, reps = dedupe_index(labels[:, m + 1 :])
    bob = labels[reps, m + 1 :]
    count_weights, patterns = _class_patterns(labels[:, m - 1 : m + 1], n_max)

    counts = np.arange(1, n_max + 1)
    ls = np.concatenate([np.zeros(n_max + 1, dtype=int), counts])
    ns = np.concatenate([np.arange(n_max + 1), np.zeros(n_max, dtype=int)])
    weights = np.concatenate([[1.0], count_weights[:, 1], count_weights[:, 0]])
    classes = np.concatenate([[0], 3 + counts % 2, 1 + counts % 2])
    even, odd = count_weights[1::2].max(axis=0, initial=0.0), count_weights[::2].max(axis=0, initial=0.0)
    peaks = (1.0, *np.stack([even, odd], axis=1).ravel().tolist())
    codes = _CLASS_CODES[sign == "plus"]

    # Bob's branch signs per class: all 1 unless its correction flips them, and read only
    # for a class that has records, as Bob's corrected state needs them only there
    phase, flip = codes % 2, codes // 2  # as CORRECTIONS orders them
    signs = np.ones((len(codes), len(reps)))
    for k in np.flatnonzero(flip * np.bincount(classes, minlength=len(codes))).tolist():
        corrected = -bob if phase[k] else bob
        signs[k] = _branch_signs(corrected, _default_plus_amps(corrected))
    overlaps = np.array([gram(reference_labels, bob), gram(reference_labels, -bob)])[phase] * signs[:, None]
    # folded label s = a K + i as the pair (a, i); C o G^T with rho left out, over (a, i, b, l)
    shape = (len(codes), len(labels) // len(factor), len(factor))
    phi = np.array([patterns, patterns * signs[:, index]]).reshape(2, *shape)
    weighted_gram = gram(bob, bob)[np.ix_(index, index)].T.reshape(shape[1:] * 2) * factor[:, None]
    forms = np.einsum("jcai,aibl,jcbl->jcab", phi, weighted_gram, phi).reshape(2, len(codes), -1)
    overlaps = (overlaps[:, :, index] * patterns[:, None]).reshape(shape[0], -1, *shape[1:])

    # drop the records no input can keep (see `_Geometry`)
    totals = np.bincount(classes, weights, minlength=len(codes))
    kept = np.flatnonzero(weights * mass > 0.5 * PROB_FLOOR * totals[classes])
    return _Geometry(ls[kept], ns[kept], weights[kept], classes[kept], peaks, codes, forms,
                     overlaps.transpose(0, 2, 1, 3), factor,
                     tuple(map(tuple, gram(reference_labels, reference_labels).tolist())))


def transmitted_amplitude(alpha: complex, eta: float) -> complex:
    """sqrt(eta) alpha, the amplitude Alice prepares her input at, after
    checking eta and that the protocol does not degenerate there."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    beta = math.sqrt(eta) * alpha
    if abs(beta) < MIN_AMPLITUDE:
        raise ValueError("sqrt(eta) * |alpha| too small; the protocol degenerates")
    return beta


class _GeometryCache:
    """Least-recently-used map of geometries, bounded by the bytes of their
    arrays.  An entry larger than the bound is returned but not kept."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict[tuple, _Geometry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple, build: Callable[[], _Geometry]) -> _Geometry:
        """The entry held under `key`, else `build()`'s, kept if it fits."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        entry = build()
        if entry.nbytes <= self.max_bytes:
            self._entries[key] = entry
            self.nbytes += entry.nbytes
            while self.nbytes > self.max_bytes:
                self.nbytes -= self._entries.popitem(last=False)[1].nbytes
        return entry


_geometries = _GeometryCache(GEOMETRY_CACHE_BYTES)


def _exact_key(value) -> tuple:
    """A cache key part that matches only the same type with the same dtype,
    shape and bits: -1-0j == -1+0j, yet the signed zero reaches the
    arithmetic.  A Python int or str keys by its value, a Python float or
    complex by its IEEE bytes (NaN payloads and signed zeros stay apart), and
    anything else by NumPy's dtype, shape and bytes.  A value NumPy holds only
    as an object (a huge int, a Fraction) keys by itself."""
    kind = type(value)
    if kind is int or kind is str:
        return kind, value
    if kind is float:
        return kind, struct.pack("d", value)
    if kind is complex:
        return kind, struct.pack("dd", value.real, value.imag)
    bits = np.asarray(value)
    if bits.dtype == object:
        return kind, value
    return kind, bits.dtype.str, bits.shape, bits.tobytes()


def run_protocol(
    m: int,
    alpha: complex,
    kappa1: complex,
    kappa2: complex,
    sign: str = "minus",
    n_max: Optional[int] = None,
    eta: float = 1.0,
) -> ProtocolReport:
    """Run the protocol over a channel with transmissivity eta: build, lose,
    fold, measure, correct, score.

    The partners know the transmissivity, so Alice prepares her input at the
    transmitted amplitude sqrt(eta) alpha; the fold network then empties the
    same modes at every eta and the outcome bookkeeping is unchanged.
    Per-outcome fidelities are scored against that input.  Only this
    matched-amplitude reading keeps the protocol's postselection structure
    intact; an input at the bare amplitude would interfere imperfectly and
    leak probability into mixed (l>0, n>0) records.  At eta = 1 the loss is
    the identity and every corrected success outcome reproduces the input
    exactly (for the minus channel; the plus channel via the swapped parity
    rules).  A default n_max above MAX_N_MAX is refused: the table would not
    fit, and a truncated one would hide mass.

    Only the input's coefficients c depend on kappa1 and kappa2, so the
    `_Geometry` with the channel's matrix as F and the input as reference is
    cached under (m, alpha, eta, sign, n_max) after n_max is resolved, each
    part compared by type and exact bits (0.0 and -0.0 key apart; see
    `_exact_key`), up to GEOMETRY_CACHE_BYTES of arrays, and each call
    scores c alone.  The geometry holds only the records some normalized
    input can keep (see `_Geometry`), so a warm run's work grows with the
    kept records, not with n_max.  A miss
    builds the input, loses and folds, so every check raises where and as it
    would without the cache and nothing is cached when one fails; a hit can
    fail only `channels.input_coefficients`' kappa checks.
    """
    beta = transmitted_amplitude(alpha, eta)
    if n_max is None:
        n_max = default_n_max(m, beta)
        if n_max > MAX_N_MAX:
            raise ValueError(
                f"outcome table needs photon counts up to {n_max:.3g} (limit {MAX_N_MAX}); lower m or alpha"
            )

    def build() -> _Geometry:
        inp = build_input(m, beta, kappa1, kappa2)
        channel = lossy_channel_operator(m, alpha, eta, sign)
        # `tensor` repeats the input labels and the fold moves labels only: C = rho (x) channel
        folded = fold_network(tensor(inp, channel), m)
        return _geometry(folded.labels, inp.labels, m, n_max, sign, channel.coeffs, 1.0)

    geometry = _geometries.get(tuple(map(_exact_key, (m, alpha, eta, sign, n_max))), build)
    coeffs = input_coefficients(kappa1, kappa2, lambda: geometry.reference_gram)
    return geometry.score(coeffs, coeffs)


def teleport_through_noise(
    m: int,
    alpha: complex,
    eta: float,
    kappa1: complex,
    kappa2: complex,
    sign: str = "minus",
    n_max: Optional[int] = None,
) -> ProtocolReport:
    """`run_protocol` with the transmissivity as the third argument."""
    return run_protocol(m, alpha, kappa1, kappa2, sign, n_max, eta)


# ---------------------------------------------------------------------------
# closed-form success probabilities


def success_probability_closed_form(
    m: int,
    alpha: complex,
    parity: str,
    n: Optional[int] = None,
) -> float:
    """Closed-form success probabilities of the protocol.

    With x = 2^m |alpha|^2 (the squared folded amplitude is 2x):

      parity='odd',  n given  : exp(-x) x^n / (2 n! (1 - exp(-2x)))
                                per-outcome on the minus channel, either
                                measured side, independent of the input
      parity='odd',  n=None   : both sides summed over odd counts; exactly 1/2
      parity='even', n given  : exp(-x) x^n / (2 n! (1 + exp(-2x)))
                                per-outcome on the plus channel
      parity='even', n=None   : (1 - exp(-x))^2 / (2 (1 + exp(-2x)))
                                both sides summed, plus channel; this is the
                                squared-numerator variant selected by the
                                engine adjudication

    Tends to 1/2 as alpha or m grows.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if abs(alpha) < 1e-8:
        raise ValueError("|alpha| too small")
    x = (2.0**m) * abs(alpha) ** 2
    # -expm1(-2x) == 1 - exp(-2x) without cancellation at small x
    if parity == "odd":
        if n is None:
            # 2 exp(-x) sinh(x) / (2 (1 - exp(-2x))) == 1/2 identically
            return 0.5
        if n % 2 != 1:
            raise ValueError("odd parity needs an odd count")
        log_p = -x + n * math.log(x) - math.lgamma(n + 1)
        return math.exp(log_p) / (-2.0 * math.expm1(-2.0 * x))
    if parity == "even":
        if n is None:
            return math.expm1(-x) ** 2 / (2.0 * (1.0 + math.exp(-2.0 * x)))
        if n % 2 != 0 or n < 2:
            raise ValueError("even parity needs a positive even count")
        log_p = -x + n * math.log(x) - math.lgamma(n + 1)
        return math.exp(log_p) / (2.0 * (1.0 + math.exp(-2.0 * x)))
    raise ValueError("parity must be 'odd' or 'even'")

