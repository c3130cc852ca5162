import csv
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import ROOT, ghz_negativity_formula, w_negativity_formula
from hypothesis import given
from hypothesis import strategies as st

from decohere import (
    AggregateDephasing,
    BipartiteCut,
    CapacityError,
    DensityMatrix,
    Family,
    FormulaUnavailableError,
    InvalidPartitionError,
    InvalidSizeError,
    StateFamily,
    apply_dephasing,
    cluster_negativity_formula,
    critical_gamma,
    distillability_check,
    enumerate_cuts,
    make_cluster,
    make_ghz,
    make_state,
    make_w,
    negativity_oracle,
    negativity_reports,
    partial_trace,
    partial_transpose,
    to_density,
)
from decohere import negativity, verify
from decohere.negativity import _SPECTRA, _dense_spectra
from decohere.tolerances import MAX_QUBITS, PSD_FLOOR
from decohere.verify import random_density, run_suite

SQRT2 = np.sqrt(2.0)
CLUSTER3_MIDDLE_CRITICAL = 0.29559774252208476  # root of g^3 + g^2 + 3g - 1


def homog(n, gamma):
    return AggregateDephasing.homogeneous(n, gamma)


def cut_of(n, members):
    return BipartiteCut.from_members(n, members)


def assert_matches_full(eigs, report, full, label):
    """A PT spectrum and its report against ``eigvalsh`` of the whole PT:
    sorted spectra, ``min_eigenvalue`` and ``negativity_sum`` within 1e-12,
    and the same count of eigenvalues below ``PSD_FLOOR``."""
    negatives = full[full < PSD_FLOOR]
    assert np.abs(np.sort(eigs) - full).max() <= 1e-12, label
    assert np.count_nonzero(eigs < PSD_FLOOR) == negatives.size, label
    assert abs(report.min_eigenvalue - full[0]) <= 1e-12, label
    assert abs(report.negativity_sum + negatives.sum()) <= 1e-12, label


def reference_pt_spectrum(rho, cut):
    """The dense spectrum by the route ``_dense_spectra`` replaced: the whole
    partial transpose, restricted to the indices whose row or column holds a
    nonzero, one ``eigvalsh`` call, padded with exact zeros and sorted."""
    pt = partial_transpose(rho, cut.cli_bitmask)
    nonzero = pt != 0
    live = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    eigs = np.linalg.eigvalsh(pt[np.ix_(live, live)])
    return np.sort(np.concatenate([eigs, np.zeros(rho.dim - live.size)]))


def reference_cluster_weights(gamma, cuts):
    """The stabilizer weights by the route the two-buffer build replaced:
    crossing edges from Python-int masks, f grown one qubit at a time into
    new arrays; a (k, 2^n) array."""
    k, n = gamma.shape
    flips = np.array([c.cli_bitmask ^ c.cli_bitmask >> 1 for c in cuts], dtype=object)
    signed = gamma.copy()
    signed[:, 1:][(flips[:, None] >> np.arange(n - 1) & 1).astype(bool)] *= -1.0
    f = np.stack([np.ones(k), gamma[:, 0]], axis=1)
    for i in range(1, n):
        pairs = f.reshape(k, -1, 2)
        grown = np.empty((k, pairs.shape[1], 2, 2))
        grown[..., 0] = pairs
        np.multiply(pairs[:, :, 0], gamma[:, i, None], out=grown[:, :, 0, 1])
        np.multiply(pairs[:, :, 1], signed[:, i, None], out=grown[:, :, 1, 1])
        f = grown.reshape(k, -1)
    return f


def reference_cluster_spectrum(gamma, cuts):
    """The cluster spectra by the route the autosort kernel replaced: the
    reference weights, an in-place butterfly pass per qubit (qubit 1
    first), then the 2^-n scale."""
    k, n = gamma.shape
    f = reference_cluster_weights(gamma, cuts)
    out = np.empty_like(f)
    for q in range(n):
        pairs, halves = f.reshape(k, 2**q, 2, -1), out.reshape(k, 2**q, 2, -1)
        np.add(pairs[:, :, 0], pairs[:, :, 1], out=halves[:, :, 0])
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=halves[:, :, 1])
        f, out = out, f
    return f * 2.0**-n


def weight_signs(cuts, n):
    """The sign of each stabilizer weight, one row per cut of an n-chain, a
    (k, 2^n) int64 array: ``_cluster_weights`` at gamma = 1, where every
    weight is exactly +-1."""
    f, _ = negativity._cluster_weights(np.ones(n), cuts)
    return f.reshape(len(cuts), 2**n).astype(np.int64)


def integer_polynomials(cuts, n):
    """The PT eigenvalues of each cut of an n-chain as integer polynomials in
    a homogeneous gamma, a (k, 2^n, n+1) int64 array: entry [r, t, w] is 2^n
    times the coefficient of gamma^w in the eigenvalue on graph ket t, the
    sum over |s| = w of sign_r(s) (-1)^(s.t), by an integer Walsh-Hadamard
    butterfly (qubit 1 the top bit)."""
    weight = np.array([bin(s).count("1") for s in range(2**n)])
    table = np.where(weight[:, None] == np.arange(n + 1), weight_signs(cuts, n)[:, :, None], 0)
    for q in range(n):
        pairs = table.reshape(len(cuts), 2**q, 2, -1, n + 1)
        a, b = pairs[:, :, 0].copy(), pairs[:, :, 1]
        pairs[:, :, 0] += b
        pairs[:, :, 1] = a - b
    return table


def highest_first(coefficients):
    """Integer coefficients, lowest power first, as the highest-power-first
    list of Python ints the root helpers take, leading zeros dropped."""
    out = [int(c) for c in coefficients][::-1]
    while out[0] == 0:
        out = out[1:]
    return out


def divide_out(q, p):
    """q / p^e for the largest e, q and p integer polynomials (highest power
    first) and p's leading coefficient +-1, so every quotient is integral."""
    while len(q) >= len(p):
        rest, quotient = list(q), []
        for _ in range(len(q) - len(p) + 1):
            c = rest[0] // p[0]
            quotient.append(c)
            rest = [x - c * y for x, y in zip(rest, p + [0] * (len(rest) - len(p)))][1:]
        if any(rest):
            break
        q = quotient
    return q


def exact_value(p, x):
    """The integer polynomial p (highest power first) at the rational x, by
    Horner's rule."""
    value = Fraction(0)
    for c in p:
        value = value * x + c
    return value


def exact_sign(p, x):
    """The sign of the integer polynomial p (highest power first) at the
    rational x."""
    value = exact_value(p, x)
    return (value > 0) - (value < 0)


def run_polynomial(m):
    """p_m(gamma) = (1, -gamma) T^m (1, 1)^T, T = [[1, -gamma], [1, gamma]],
    as integers, highest power first: 2^(m+1) times the PT eigenvalue on the
    all-ones graph ket of a run of m crossing edges. p_1 = 1 - 2g - g^2,
    p_2 = 1 - 3g - g^2 - g^3, p_3 = 1 - 4g - g^4."""
    a, b = [1] + [0] * (m + 1), [0, -1] + [0] * m  # (1, -gamma), lowest power first
    for _ in range(m):
        a, b = [x + y for x, y in zip(a, b)], [0] + [y - x for x, y in zip(a, b)][:-1]
    return [x + y for x, y in zip(a, b)][::-1]


def sturm(p):
    """The Sturm sequence of the nonconstant integer polynomial p (highest
    power first): p, p', then each negated remainder of the two before it,
    down to gcd(p, p'), a constant iff p is square-free. Pseudo-remainders
    scaled by positive integers keep every sign of the rational sequence."""
    chain = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while len(chain[-1]) > 1:
        r, b = chain[-2], chain[-1]
        lead, sign = abs(b[0]), 1 if b[0] > 0 else -1
        for _ in range(len(r) - len(b) + 1):  # cancel r's leading term
            r = [lead * x - sign * r[0] * y for x, y in zip(r, b + [0] * (len(r) - len(b)))][1:]
        while r and r[0] == 0:
            r = r[1:]
        if not r:
            break
        chain.append([-x // math.gcd(*r) for x in r])
    return chain


def variations(chain, k, j):
    """V, the sign changes along the integer polynomials ``chain`` at k / 2^j,
    zeros skipped, each sign exact by Horner's rule on 2^(j deg p) p(k / 2^j).
    On a Sturm sequence V(a) - V(b) counts the distinct roots in (a, b) if
    neither end is one, or in (a, b] if p(a) != 0 and p is square-free."""
    signs = []
    for p in chain:
        acc = 0
        for t, c in enumerate(p):
            acc = acc * k + (c << j * t)
        if acc:
            signs.append(acc > 0)
    return sum(x != y for x, y in zip(signs, signs[1:]))


def sturm_threshold(m):
    """tau_m by the Sturm route the run recurrence replaced: the smallest
    root in (0, 1) of the square-free ``run_polynomial(m)``, by the same
    dyadic bisection and stopping rule as ``_run_threshold``, counting
    roots in (0, x] as V(0) - V(x), or on (p, -1) once (lo, hi] holds one."""
    p = run_polynomial(m)
    chain = sturm(p)
    assert len(chain[-1]) == 1, f"p_{m} has a repeated root"
    first, above = variations(chain, 0, 0), variations(chain, 1, 0)
    lo, hi, j = 0, 1, 0
    while lo / (1 << j) != hi / (1 << j):
        if first - above == 1:
            chain, first, above = [p, [-1]], 1, 0
        mid, lo, hi, j = lo + hi, 2 * lo, 2 * hi, j + 1
        v = variations(chain, mid, j)
        lo, hi, above = (mid, hi, above) if v == first else (lo, mid, v)
    return lo / (1 << j)


def run_terms(m, gamma):
    """a_0 .. a_{m+1} of the run recurrence at ``gamma``: a_0 = 1, a_1 = 1 -
    gamma, a_{i+2} = (1 + gamma) a_{i+1} - 2 gamma a_i."""
    terms = [1, 1 - gamma]
    for _ in range(m):
        terms.append((1 + gamma) * terms[-1] - 2 * gamma * terms[-2])
    return terms


def alternating_cut(n):
    """Qubits 1, 3, 5, ... against 2, 4, ...: every chain edge crosses."""
    return BipartiteCut(n, sum(1 << q for q in range(0, n, 2)))


def padded(values, left_out):
    """One spectrum's ``values`` followed by the ``left_out`` zeros it does
    not store."""
    return np.concatenate([values, np.zeros(left_out)])


def full_structured(kind, gamma, cuts):
    """Every PT eigenvalue of each cut by the structured route, a (k, 2^n)
    array: the ``_SPECTRA`` values, for W the Gram eigenvalues in place of
    n zeros, then the other zeros left out."""
    values, left_out = _SPECTRA[kind](gamma, cuts)
    full = np.hstack([values, np.zeros((len(cuts), left_out))])
    if kind is Family.W:
        full[:, -gamma.size :] = negativity._w_gram_spectrum(gamma, cuts)
    return full


def reference_solve_stacked(held, dim):
    """``_solve_stacked`` by the route the one-row padding replaced: each
    spectrum concatenated with zeros, then sorted into a new array; a list."""
    by_size = {}
    for index, (_, block) in enumerate(held):
        by_size.setdefault(len(block), []).append(index)
    eigs = [None] * len(held)
    for indices in by_size.values():
        blocks = [held[i][1] for i in indices]
        stack = np.stack(blocks) if len(blocks) > 1 else blocks[0][None]
        for i, values in zip(indices, np.linalg.eigvalsh(stack)):
            eigs[i] = values
    return [
        (cut, np.sort(np.concatenate([values, np.zeros(dim - values.size)])))
        for (cut, _), values in zip(held, eigs)
    ]


def brute_run_lengths(cut):
    """The sorted lengths of a cut's runs of crossing edges: walk the chain
    edges on the cut's sides, closing a run at each edge that does not cross."""
    members, runs, length = set(cut._side(1)), [], 0
    for i in range(1, cut.n_qubits):
        if (i in members) != (i + 1 in members):
            length += 1
        elif length:
            runs, length = runs + [length], 0
    return tuple(sorted(runs + [length] if length else runs))


def reference_report(eigs, left_out=0):
    """``(min_eigenvalue, negativity_sum)`` of one spectrum, less the
    ``left_out`` zeros it does not store, by the per-row route ``_reports``
    replaced: pad with the zeros, sort, mask below ``PSD_FLOOR``, sum the
    mask. A zero minimum reads 0.0, never -0.0."""
    eigs = np.sort(padded(eigs, left_out))
    negatives = eigs[eigs < PSD_FLOOR]
    return float(eigs[0]) + 0.0, float(-negatives.sum()) if negatives.size else 0.0


def dense_spectra(rho, cuts):
    """``_dense_spectra`` of every cut, in order, each padded with the zeros
    it leaves out: once sorted, bit for bit the reference route's."""
    triples = list(_dense_spectra(rho, cuts))
    assert [cut for cut, _, _ in triples] == list(cuts)
    spectra = [padded(values, left_out) for _, values, left_out in triples]
    for cut, eigs in zip(cuts, spectra):
        assert np.sort(eigs).tobytes() == reference_pt_spectrum(rho, cut).tobytes(), cut.human()
    return spectra


class TestBipartiteCut:
    def test_canonicalizes_to_qubit_one_side(self):
        cut = BipartiteCut(3, 0b110)  # {2,3} given
        assert cut._side(1) == [1]
        assert cut.cli_bitmask == 0b001

    def test_human_format(self):
        cut = cut_of(3, {1, 3})
        assert cut.human() == "1,3|2"
        assert cut._side(0) == [2]

    def test_cli_bitmask_convention(self):
        # bit (i-1) set means qubit i on side one
        cut = BipartiteCut(4, 0b0101)  # qubits 1 and 3
        assert cut._side(1) == [1, 3]
        assert cut.cli_bitmask == 0b0101

    @pytest.mark.parametrize("bad", [0, 0b111, -1, 0b1000])
    def test_rejects_degenerate_masks(self, bad):
        with pytest.raises(InvalidPartitionError):
            BipartiteCut(3, bad)

    @pytest.mark.parametrize("n, mask", [(3, 1.5), (3, "1"), (-1, 1), (3.0, 1)])
    def test_rejects_non_integer_masks_and_bad_sizes(self, n, mask):
        with pytest.raises(InvalidPartitionError):
            BipartiteCut(n, mask)

    def test_from_members_rejects_non_integer_register_size(self):
        with pytest.raises(InvalidPartitionError):
            BipartiteCut.from_members("3", {1})

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cut_and_complement_are_one_object(self, n):
        full = 2**n - 1
        for cut in enumerate_cuts(n):
            twin = BipartiteCut(n, full ^ cut.cli_bitmask)
            assert twin == cut and hash(twin) == hash(cut)
            assert cut_of(n, cut._side(0)) == cut
            assert BipartiteCut(n, np.int64(cut.cli_bitmask)) == cut


class TestEnumerateCuts:
    def test_counts(self):
        assert len(enumerate_cuts(2)) == 1
        assert len(enumerate_cuts(3)) == 3
        assert len(enumerate_cuts(5)) == 15
        assert len(enumerate_cuts(10)) == 511

    def test_three_qubit_members(self):
        members = [cut._side(1) for cut in enumerate_cuts(3)]
        assert members == [[1], [1, 2], [1, 3]]

    def test_masks_ascend_and_stay_odd(self):
        masks = [cut.cli_bitmask for cut in enumerate_cuts(4)]
        assert masks == sorted(masks)
        assert all(m % 2 == 1 for m in masks)

    def test_rejects_single_qubit(self):
        with pytest.raises(InvalidSizeError):
            enumerate_cuts(1)

    def test_rejects_fractional_size(self):
        with pytest.raises(InvalidSizeError):
            enumerate_cuts(2.5)

    def test_rejects_string_size(self):
        with pytest.raises(InvalidSizeError):
            enumerate_cuts("3")

    def test_builds_every_cut_at_capacity(self):
        # the list doubles per qubit: 2,047 cuts at MAX_QUBITS
        cuts = enumerate_cuts(MAX_QUBITS)
        assert len(cuts) == len(set(cuts)) == 2 ** (MAX_QUBITS - 1) - 1

    def test_refuses_past_capacity_before_building_a_cut(self, monkeypatch):
        # 4,095 cuts past MAX_QUBITS: none of them is built
        built = []
        monkeypatch.setattr(BipartiteCut, "__post_init__", lambda cut: built.append(cut))
        with pytest.raises(CapacityError):
            enumerate_cuts(MAX_QUBITS + 1)
        assert built == []


def sampled_cuts(n):
    """Cuts of an n-qubit register too large to enumerate: the extreme
    canonical masks, the alternating one, masks with the top bit set or
    clear, and seeded random odd masks."""
    rng = np.random.default_rng(n)
    masks = [1, 2**n - 3, 2 ** (n - 1) + 1, 2 ** (n - 1) - 1, (4**n - 1) // 3 & (2**n - 3)]
    masks += [int.from_bytes(rng.bytes(n // 8 + 1), "little") % 2**n | 1 for _ in range(40)]
    return [BipartiteCut(n, m) for m in masks if m != 2**n - 1]


@pytest.mark.parametrize("n", [*range(2, 11), 63])
def test_crossing_edges_from_the_mask_match_members(n):
    """Edge (i, i+1) crosses a cut iff qubits i and i+1 lie on different
    sides, read here from the members rather than the mask. Masks of up
    to 63 qubits fit int64."""
    cuts = enumerate_cuts(n) if n <= 10 else sampled_cuts(n)
    want = [
        [(i in cut._side(1)) != (i + 1 in cut._side(1)) for i in range(1, n)]
        for cut in cuts
    ]
    assert negativity._crossing_edges(cuts, n).tolist() == want


class TestOracle:
    def test_ghz2_pure(self):
        report = negativity_oracle(to_density(make_ghz(2)), cut_of(2, {1}))
        assert abs(report.min_eigenvalue - (-0.5)) < 1e-12
        assert abs(report.negativity_sum - 0.5) < 1e-12

    def test_dephased_ghz4_any_cut(self):
        gamma = 0.9**2
        rho = apply_dephasing(to_density(make_ghz(4)), homog(4, gamma))
        for cut in enumerate_cuts(4):
            report = negativity_oracle(rho, cut)
            assert abs(report.min_eigenvalue - (-0.5 * gamma**4)) < 1e-12

    def test_w4_balanced_pure(self):
        report = negativity_oracle(to_density(make_w(4)), cut_of(4, {1, 2}))
        assert abs(report.min_eigenvalue - (-0.5)) < 1e-12
        assert abs(report.negativity_sum - 0.5) < 1e-12

    def test_product_state_reports_zero(self):
        plus = np.array([1.0, 1.0], dtype=complex) / SQRT2
        ket0 = np.array([1.0, 0.0], dtype=complex)
        rho = to_density(np.kron(ket0, plus))
        report = negativity_oracle(rho, cut_of(2, {1}))
        assert report.min_eigenvalue > -1e-12
        assert report.negativity_sum == 0.0

    def test_rejects_mismatched_cut(self):
        rho = to_density(make_ghz(3))
        with pytest.raises(InvalidPartitionError):
            negativity_oracle(rho, cut_of(2, {1}))
        with pytest.raises(InvalidPartitionError):
            negativity_reports(rho, [cut_of(3, {1}), cut_of(2, {1})])
        with pytest.raises(InvalidPartitionError):
            negativity_oracle((StateFamily(Family.GHZ, 3), homog(3, 0.5)), cut_of(2, {1}))

    def test_rejects_mismatched_aggregate(self):
        with pytest.raises(InvalidSizeError):
            negativity_oracle((StateFamily(Family.W, 3), homog(4, 0.5)), cut_of(3, {1}))

    @pytest.mark.parametrize(
        "state",
        [
            np.eye(4) / 4,
            (StateFamily(Family.W, 2), homog(2, 0.5), None),
            (homog(2, 0.5), StateFamily(Family.W, 2)),
        ],
    )
    def test_rejects_other_states(self, state):
        with pytest.raises(TypeError):
            negativity_oracle(state, cut_of(2, {1}))

    @given(st.integers(0, 10**6), st.integers(2, 4))
    def test_negativity_sum_bounds_min_eigenvalue(self, seed, n):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, n)
        cuts = enumerate_cuts(n)
        cut = cuts[int(rng.integers(len(cuts)))]
        report = negativity_oracle(rho, cut)
        assert report.negativity_sum >= -min(report.min_eigenvalue, 0.0) - 1e-12
        assert report.negativity_sum <= 0.5 + 1e-12


class TestNegativityReports:
    """``negativity_reports`` is the many-cut oracle: one report per cut, in
    order, each the report a one-cut call gives, on either path."""

    @staticmethod
    def states(kind, n):
        """The family pair and the explicitly dephased density matrix of one
        seeded draw with random gamma and phases."""
        rng = np.random.default_rng([n, 8, list(Family).index(kind)])
        family = StateFamily(kind, n)
        agg = AggregateDephasing(rng.uniform(0, 1, n), rng.uniform(0, 2 * np.pi, n))
        return (family, agg), apply_dephasing(to_density(make_state(family)), agg)

    @pytest.mark.parametrize(
        "kind, n", [(kind, n) for kind in Family for n in range(2, 9)] + [(Family.GHZ, 10)]
    )
    def test_equal_the_per_cut_oracle(self, kind, n):
        cuts = enumerate_cuts(n)
        for state in self.states(kind, n):
            got = negativity_reports(state, cuts)
            want = [negativity_oracle(state, cut) for cut in cuts]
            assert list(map(repr, got)) == list(map(repr, want))

    @pytest.mark.parametrize("kind", list(Family))
    def test_any_iterable_of_cuts(self, kind):
        cuts = enumerate_cuts(5)
        for state in self.states(kind, 5):
            assert negativity_reports(state, iter(cuts)) == negativity_reports(state, cuts)
            assert negativity_reports(state, (cut for cut in cuts[::-1])) == [
                negativity_oracle(state, cut) for cut in cuts[::-1]
            ]
            assert negativity_reports(state, []) == []

    @pytest.mark.parametrize("kind", list(Family))
    def test_rejects_a_non_cut(self, kind):
        pair, rho = self.states(kind, 3)
        with pytest.raises(TypeError):
            negativity_oracle(rho, 1)
        for state in (pair, rho):
            with pytest.raises(TypeError):
                negativity_reports(state, [1])
            with pytest.raises(TypeError):
                negativity_reports(state, [cut_of(3, {1}), 0b011])
        with pytest.raises(TypeError):
            critical_gamma(StateFamily(Family.CLUSTER, 3), [1])

    @pytest.mark.parametrize("kind", list(Family))
    def test_rejects_a_wrong_size_cut_or_aggregate(self, kind):
        # each family's structured path and the dense path check alike
        pair, rho = self.states(kind, 3)
        for state in (pair, rho):
            with pytest.raises(InvalidPartitionError):
                negativity_reports(state, [cut_of(2, {1})])
            with pytest.raises(InvalidPartitionError):
                negativity_reports(state, [cut_of(3, {1}), cut_of(4, {1})])
        for agg in (homog(2, 0.5), homog(4, 0.5)):
            with pytest.raises(InvalidSizeError):
                negativity_reports((StateFamily(kind, 3), agg), [cut_of(3, {1})])

    @staticmethod
    def spy_on_solvers(monkeypatch):
        """A list that records every ``eigvalsh``, kernel, Walsh-Hadamard
        and threshold-root call from here on."""
        calls = []

        def spy(name, function):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(negativity, "_walsh_hadamard", spy("walsh", negativity._walsh_hadamard))
        monkeypatch.setattr(negativity, "_run_threshold", spy("root", negativity._run_threshold))
        for kind, kernel in list(negativity._SPECTRA.items()):
            monkeypatch.setitem(negativity._SPECTRA, kind, spy(kind.value, kernel))
        return calls

    @pytest.mark.parametrize("kind, n", [(Family.CLUSTER, 7), (Family.W, 10)])
    def test_a_wrong_size_cut_last_stops_before_any_solve(self, kind, n, monkeypatch):
        # n = 7 fills a dense eigvalsh round per cut, n = 10 spans eight
        # kernel blocks: a check made while solving would have solved some
        pair, rho = self.states(kind, n)
        cuts = enumerate_cuts(n)
        calls = self.spy_on_solvers(monkeypatch)
        for state in (pair, rho):
            with pytest.raises(InvalidPartitionError):
                negativity_reports(state, [*cuts, cut_of(n - 1, {1})])
            assert calls == []
        family = StateFamily(Family.CLUSTER, n)
        with pytest.raises(InvalidPartitionError):
            critical_gamma(family, [*cuts, cut_of(n - 1, {1})])
        assert calls == []
        # the spies see the solves of the same calls without the bad cut
        negativity_reports(pair, cuts)
        assert calls
        calls.clear()
        negativity_reports(rho, cuts[:3])
        assert "eigvalsh" in calls
        calls.clear()
        critical_gamma(family, cuts)
        assert "root" in calls


def structured_minima(kind, agg, cuts=None):
    """``min_eigenvalue`` of the structured oracle on ``cuts`` (all cuts by
    default), in order."""
    cuts = enumerate_cuts(agg.n_qubits) if cuts is None else cuts
    pair = (StateFamily(kind, agg.n_qubits), agg)
    return [r.min_eigenvalue for r in negativity_reports(pair, cuts)]


class TestGHZFormula:
    """The reference ``ghz_negativity_formula`` and the structured GHZ
    kernel, at frozen values and against the dense oracle."""

    def test_pure_state_value(self):
        agg = homog(3, 1.0)
        for value in [ghz_negativity_formula(agg), *structured_minima(Family.GHZ, agg)]:
            assert abs(value - (-0.5)) < 1e-15

    def test_dead_qubit_kills_it(self):
        agg = AggregateDephasing(np.array([0.9, 0.0, 0.7]), np.zeros(3))
        assert ghz_negativity_formula(agg) == 0.0
        assert structured_minima(Family.GHZ, agg) == [0.0] * 3

    def test_two_collisions_three_qubits(self):
        # strength 0.9, two collisions each, three qubits: -(0.9^6)/2
        agg = homog(3, 0.9**2)
        for value in [ghz_negativity_formula(agg), *structured_minima(Family.GHZ, agg)]:
            assert abs(value - (-0.2657205)) < 1e-12

    @given(st.integers(0, 10**6))
    def test_matches_oracle_on_random_aggregates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        agg = AggregateDephasing(
            rng.uniform(0, 1, n), rng.uniform(0, 2 * np.pi, n)
        )
        rho = apply_dephasing(to_density(make_ghz(n)), agg)
        cuts = enumerate_cuts(n)
        cut = cuts[int(rng.integers(len(cuts)))]
        report = negativity_oracle(rho, cut)
        assert abs(report.min_eigenvalue - ghz_negativity_formula(agg)) < 1e-10

    # GHZ at n = 6 under homogeneous gamma = 0.01: every cut's PT minimum is
    # -gamma^6 / 2 = -5e-13, above PSD_FLOOR = -1e-10 (ROADMAP item 4)
    @staticmethod
    def small_gamma_spectra():
        n, agg = 6, homog(6, 0.01)
        rho = apply_dephasing(to_density(make_ghz(n)), agg)
        cuts = enumerate_cuts(n)
        return [
            [eigs for _, values, _ in negativity._spectra(state, cuts) for eigs in values]
            for state in (rho, (StateFamily(Family.GHZ, n), agg))
        ]

    def test_small_gamma_minimum_on_every_cut(self):
        for spectra in self.small_gamma_spectra():
            assert len(spectra) == 31
            for eigs in spectra:
                assert abs(eigs.min() - (-0.5 * 0.01**6)) <= 1e-15

    @pytest.mark.xfail(
        strict=True, reason="the absolute PSD_FLOOR reads -5e-13 as PPT (ROADMAP item 4)"
    )
    def test_small_gamma_is_npt_on_every_cut(self):
        for spectra in self.small_gamma_spectra():
            assert all(eigs.min() < PSD_FLOOR for eigs in spectra)


class TestWFormula:
    """The reference ``w_negativity_formula`` and the structured W kernel,
    at frozen values and against the dense oracle."""

    def test_matches_ghz_at_two_qubits(self):
        agg, cut = homog(2, 1.0), cut_of(2, {1})
        for value in [w_negativity_formula(agg, cut), *structured_minima(Family.W, agg)]:
            assert abs(value - (-0.5)) < 1e-15

    def test_balanced_cut_size_independent(self):
        # balanced cut of a homogeneous W state: -(gamma^2)/2 for any even size
        for n in (4, 6):
            gamma = 0.8
            agg = homog(n, gamma)
            cut = cut_of(n, set(range(1, n // 2 + 1)))
            for value in [w_negativity_formula(agg, cut), *structured_minima(Family.W, agg, [cut])]:
                assert abs(value - (-(gamma**2) / 2)) < 1e-15

    def test_single_decohered_qubit_closed_form(self):
        # only qubit 1 decohered: -(1/n) sqrt((n1 - 1 + g^2)(n - n1))
        n, gamma = 5, 0.6
        agg = AggregateDephasing(
            np.concatenate([[gamma], np.ones(n - 1)]), np.zeros(n)
        )
        cuts = enumerate_cuts(n)
        for cut, kernel in zip(cuts, structured_minima(Family.W, agg, cuts)):
            n1 = cut.cli_bitmask.bit_count()
            expected = -np.sqrt((n1 - 1 + gamma**2) * (n - n1)) / n
            assert abs(w_negativity_formula(agg, cut) - expected) < 1e-14
            assert abs(kernel - expected) < 1e-14

    @given(st.integers(0, 10**6))
    def test_matches_oracle_on_random_aggregates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        agg = AggregateDephasing(rng.uniform(0, 1, n), np.zeros(n))
        rho = apply_dephasing(to_density(make_w(n)), agg)
        cuts = enumerate_cuts(n)
        cut = cuts[int(rng.integers(len(cuts)))]
        report = negativity_oracle(rho, cut)
        assert abs(report.min_eigenvalue - w_negativity_formula(agg, cut)) < 1e-10

    def test_weakest_cut_is_most_balanced(self):
        agg, cuts = homog(6, 0.7), enumerate_cuts(6)
        balanced = cuts.index(cut_of(6, {1, 2, 3}))
        for values in ([w_negativity_formula(agg, cut) for cut in cuts],
                       structured_minima(Family.W, agg, cuts)):
            assert abs(values[balanced] - min(values)) < 1e-15


class TestClusterFormula:
    def test_pure_state_values(self):
        assert abs(cluster_negativity_formula(homog(2, 1.0), cut_of(2, {1})) - 0.5) < 1e-15
        for cut in enumerate_cuts(3):
            assert abs(cluster_negativity_formula(homog(3, 1.0), cut) - 0.5) < 1e-15

    def test_two_qubit_threshold_exact(self):
        value = cluster_negativity_formula(homog(2, SQRT2 - 1.0), cut_of(2, {1}))
        assert abs(value) < 1e-15

    def test_three_qubit_middle_threshold(self):
        # the cut isolating the middle qubit goes PPT last, at the cubic root
        value = cluster_negativity_formula(
            homog(3, CLUSTER3_MIDDLE_CRITICAL), cut_of(3, {1, 3})
        )
        assert abs(value) < 1e-12

    def test_outer_cut_threshold_matches_pair(self):
        # severing one bond: same threshold as the two-qubit chain
        value = cluster_negativity_formula(
            homog(3, SQRT2 - 1.0), cut_of(3, {1, 2})
        )
        assert abs(value) < 1e-15

    def test_clamps_to_zero_below_threshold(self):
        assert cluster_negativity_formula(homog(2, 0.2), cut_of(2, {1})) == 0.0

    def test_matches_oracle_negativity_sum(self):
        rng = np.random.default_rng(23)
        for n in (2, 3):
            base = to_density(make_cluster(n))
            for _ in range(25):
                agg = AggregateDephasing(rng.uniform(0, 1, n), np.zeros(n))
                rho = apply_dephasing(base, agg)
                for cut in enumerate_cuts(n):
                    report = negativity_oracle(rho, cut)
                    predicted = cluster_negativity_formula(agg, cut)
                    assert abs(report.negativity_sum - predicted) < 1e-10

    def test_outer_cut_negativity_splits_across_eigenvalues(self):
        # the outer cuts can carry two negative eigenvalues; their sum, not
        # the minimum one, is what the closed form tracks
        rho = apply_dephasing(to_density(make_cluster(3)), homog(3, 0.5))
        report = negativity_oracle(rho, cut_of(3, {1}))
        predicted = cluster_negativity_formula(homog(3, 0.5), cut_of(3, {1}))
        assert abs(predicted - 0.0625) < 1e-15
        assert abs(report.negativity_sum - predicted) < 1e-12
        assert -report.min_eigenvalue < predicted  # strictly split here

    def test_unavailable_beyond_three_qubits(self):
        with pytest.raises(FormulaUnavailableError):
            cluster_negativity_formula(homog(4, 0.5), cut_of(4, {1}))


class TestClosedFormChecks:
    """The cluster closed form checks the aggregate and the cut as
    ``negativity_reports`` checks a state and its cuts."""

    def test_cluster_formula_rejects_a_non_cut(self):
        with pytest.raises(TypeError):
            cluster_negativity_formula(homog(3, 0.5), 1)

    def test_cluster_formula_rejects_a_wrong_size_cut(self):
        for agg, cut in ((homog(3, 0.5), cut_of(2, {1})), (homog(2, 0.5), cut_of(3, {1}))):
            with pytest.raises(InvalidPartitionError):
                cluster_negativity_formula(agg, cut)


class TestDistillability:
    def test_pure_ghz_all_npt(self):
        verdict = distillability_check(to_density(make_ghz(3)))
        assert verdict.all_cuts_npt
        assert verdict.ppt_cuts == ()

    def test_dead_qubit_ghz_all_ppt(self):
        agg = AggregateDephasing(np.array([0.0, 1.0, 1.0]), np.zeros(3))
        rho = apply_dephasing(to_density(make_ghz(3)), agg)
        verdict = distillability_check(rho)
        assert not verdict.all_cuts_npt
        assert len(verdict.ppt_cuts) == 3

    def test_w_survives_one_dead_qubit_in_reduced_state(self):
        n = 4
        agg = AggregateDephasing(
            np.concatenate([[0.0], np.ones(n - 1)]), np.zeros(n)
        )
        rho = apply_dephasing(to_density(make_w(n)), agg)
        full = distillability_check(rho)
        assert not full.all_cuts_npt
        assert cut_of(n, {1}) in full.ppt_cuts
        # the cut isolating the dead qubit is exactly PPT; others stay NPT
        other = negativity_oracle(rho, cut_of(n, {1, 2}))
        assert abs(other.min_eigenvalue - (-SQRT2 / 4)) < 1e-12
        # dropping the dead qubit leaves a fully NPT three-qubit state
        reduced = partial_trace(rho, 0b1)
        inner = distillability_check(reduced)
        assert inner.all_cuts_npt
        for cut in enumerate_cuts(n - 1):
            report = negativity_oracle(reduced, cut)
            assert abs(report.min_eigenvalue - (-0.25)) < 1e-12

    @staticmethod
    def assert_every_cut_matches_structured(kind, n, monkeypatch):
        """``distillability_check`` on a dephased family state solves every
        cut once, in order, and each minimum eigenvalue, the verdict and the
        worst cut agree with the structured spectra to 1e-12."""
        rng = np.random.default_rng(n)
        agg = AggregateDephasing(rng.uniform(0, 1, n), rng.uniform(0, 2 * np.pi, n))
        family = StateFamily(kind, n)
        rho = apply_dephasing(to_density(make_state(family)), agg)
        solved = []
        dense = negativity._dense_spectra

        def record(state, cuts):
            for cut, values, left_out in dense(state, cuts):
                solved.append((cut, padded(values, left_out).min()))
                yield cut, values, left_out

        monkeypatch.setattr(negativity, "_dense_spectra", record)
        verdict = distillability_check(rho)
        cuts = enumerate_cuts(n)
        assert [cut for cut, _ in solved] == cuts
        structured = {
            cut: padded(values, left_out).min()
            for block, spectra, left_out in negativity._spectra((family, agg), cuts)
            for cut, values in zip(block, spectra)
        }
        for cut, smallest in solved:
            assert abs(smallest - structured[cut]) <= 1e-12, cut.human()
        assert verdict.all_cuts_npt
        assert verdict.all_cuts_npt == all(value < PSD_FLOOR for value in structured.values())
        assert structured[verdict.worst_cut] >= max(structured.values()) - 1e-12

    def test_dephased_w9_every_cut(self, monkeypatch):
        # 255 cuts at dim 512; the dense path solves each PT on its
        # 1 + 9 + |A||B| live indices
        self.assert_every_cut_matches_structured(Family.W, 9, monkeypatch)

    @pytest.mark.parametrize("kind", [Family.GHZ, Family.W])
    def test_dephased_ten_qubits_every_cut(self, kind, monkeypatch):
        # all 511 cuts at dim 1024
        self.assert_every_cut_matches_structured(kind, 10, monkeypatch)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", list(Family))
    def test_family_pair_matches_the_dense_verdict(self, kind, n):
        # random gamma and phases, and the same draw with one qubit at gamma
        # = 0. Cuts with one spectrum tie exactly on the structured path and
        # to rounding on the dense one, so where the worst cuts differ their
        # minima must tie.
        family = StateFamily(kind, n)
        pure = to_density(make_state(family))
        rng = np.random.default_rng([n, 9, list(Family).index(kind)])
        live = rng.uniform(0, 1, n)
        dead = live.copy()
        dead[rng.integers(n)] = 0.0
        for gamma in (live, dead):
            agg = AggregateDephasing(gamma, rng.uniform(0, 2 * np.pi, n))
            fast = distillability_check((family, agg))
            dense = distillability_check(apply_dephasing(pure, agg))
            assert fast.all_cuts_npt == dense.all_cuts_npt
            assert fast.ppt_cuts == dense.ppt_cuts
            reports = negativity_reports((family, agg), enumerate_cuts(n))
            minima = {r.cut: r.min_eigenvalue for r in reports}
            assert fast.worst_cut == max(minima, key=minima.get)
            assert fast.worst_cut == dense.worst_cut or abs(
                minima[dense.worst_cut] - minima[fast.worst_cut]
            ) <= 1e-12

    def test_worst_cut_is_closest_to_ppt(self):
        # between the two thresholds only the middle-qubit cut stays NPT, so
        # the worst (closest-to-PPT) cut must be one of the outer ones
        rho = apply_dephasing(to_density(make_cluster(3)), homog(3, 0.35))
        verdict = distillability_check(rho)
        assert not verdict.all_cuts_npt
        assert verdict.worst_cut.cli_bitmask != 0b101
        assert cut_of(3, {1, 3}) not in verdict.ppt_cuts


class TestStructuredMatchesDense:
    """Both oracle paths against ``eigvalsh`` of the whole partial transpose
    of the explicit dephased state: the structured spectrum of each family,
    and the dense path, which solves only the PT's support."""

    @staticmethod
    def assert_agree(family, agg, cuts):
        rho = apply_dephasing(to_density(make_state(family)), agg)
        for cut, dense in zip(cuts, dense_spectra(rho, cuts)):
            full = np.linalg.eigvalsh(partial_transpose(rho, cut.cli_bitmask))
            [structured] = full_structured(family.kind, agg.gamma, [cut])
            report = negativity_oracle((family, agg), cut)
            assert_matches_full(structured, report, full, ("structured", cut.human()))
            report = negativity_oracle(rho, cut)
            assert_matches_full(dense, report, full, ("dense", cut.human()))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", list(Family))
    def test_every_cut_random_aggregate(self, kind, n):
        rng = np.random.default_rng([n, list(Family).index(kind)])
        agg = AggregateDephasing(rng.uniform(0, 1, n), rng.uniform(0, 2 * np.pi, n))
        self.assert_agree(StateFamily(kind, n), agg, enumerate_cuts(n))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", list(Family))
    def test_every_cut_one_dead_qubit(self, kind, n):
        # gamma = 0 on one qubit empties the rows and columns of the PT
        # entries that cross it, so the dense path drops them
        rng = np.random.default_rng([n, list(Family).index(kind), 0])
        gamma = rng.uniform(0, 1, n)
        gamma[rng.integers(n)] = 0.0
        agg = AggregateDephasing(gamma, rng.uniform(0, 2 * np.pi, n))
        self.assert_agree(StateFamily(kind, n), agg, enumerate_cuts(n))

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("kind", list(Family))
    def test_every_cut_homogeneous_extremes(self, kind, n, gamma):
        self.assert_agree(StateFamily(kind, n), homog(n, gamma), enumerate_cuts(n))

    @pytest.mark.parametrize("kind", list(Family))
    def test_ten_qubits(self, kind):
        rng = np.random.default_rng([10, list(Family).index(kind)])
        agg = AggregateDephasing(rng.uniform(0, 1, 10), rng.uniform(0, 2 * np.pi, 10))
        # one qubit alone, the alternating cut and the half/half cut
        cuts = [BipartiteCut(10, m) for m in (0b1, 0b0101010101, 0b11111)]
        self.assert_agree(StateFamily(kind, 10), agg, cuts)


def _ghz_without_gamma1(gamma, cuts):
    dropped = gamma.copy()
    dropped[0] = 1.0
    return negativity._ghz_spectrum(dropped, cuts)


def _w_prefactor_n_minus_1(gamma, cuts):
    n = gamma.size
    values, left_out = negativity._w_spectrum(gamma, cuts)
    return values * n / (n - 1), left_out


def _cluster_sign_on_kept_edges(gamma, cuts):
    # per cut, a side pattern whose crossing edges are exactly its kept edges
    flipped = []
    for cut in cuts:
        side, members = True, {1}
        for i in range(1, gamma.size):
            side ^= (i in cut._side(1)) == (i + 1 in cut._side(1))
            if side:
                members.add(i + 1)
        flipped.append(SimpleNamespace(cli_bitmask=sum(1 << (q - 1) for q in members)))
    return negativity._cluster_spectrum(gamma, flipped)


@pytest.mark.parametrize(
    "kind, mutant",
    [
        (Family.GHZ, _ghz_without_gamma1),
        (Family.W, _w_prefactor_n_minus_1),
        (Family.CLUSTER, _cluster_sign_on_kept_edges),
    ],
)
def test_verify_fails_a_mutated_structured_spectrum(monkeypatch, kind, mutant):
    """``verify`` gates the structured path: a wrong family kernel fails that
    family's structured-vs-dense property and no other."""
    monkeypatch.setitem(negativity._SPECTRA, kind, mutant)
    failed = [r.name for r in run_suite(max_n=5, seed=7) if not r.passed]
    assert failed == [f"{kind.value}_structured_vs_dense"]


def test_verify_fails_a_mutated_w_gram_spectrum(monkeypatch):
    """No report reads the W Gram eigenvalues, so ``verify`` compares them
    apart: scaled ones fail the W structured-vs-dense property alone."""
    gram = verify._w_gram_spectrum
    monkeypatch.setattr(verify, "_w_gram_spectrum", lambda gamma, cuts: 1.5 * gram(gamma, cuts))
    failed = [r.name for r in run_suite(max_n=5, seed=7) if not r.passed]
    assert failed == ["w_structured_vs_dense"]


@pytest.mark.parametrize("n", range(2, 7))
def test_pt_spectrum_bounded_by_frobenius_norm(n):
    """A PT permutes entries, so no PT eigenvalue exceeds ||rho||_F in
    magnitude: ``pt_spectrum_range`` may skip states with ||rho||_F <= 1/2."""
    rng = np.random.default_rng([n, 7])
    for _ in range(5):
        rho = random_density(rng, n)
        fro = np.linalg.norm(rho.mat)
        for cut in enumerate_cuts(n):
            eigs = np.linalg.eigvalsh(partial_transpose(rho, cut.cli_bitmask))
            assert np.abs(eigs).max() <= fro * (1.0 + 1e-12), cut.human()


def test_pt_spectrum_range_still_eigensolves(monkeypatch):
    """The Frobenius skip leaves the n = 2 draws to the eigensolver, so the
    property never becomes vacuous."""
    solved = []

    def spy(rho, cuts):
        for block, values, left_out in negativity._spectra(rho, cuts):
            solved.extend([rho.n_qubits] * len(block))
            yield block, values, left_out

    monkeypatch.setattr(verify, "_spectra", spy)
    result = verify.check_pt_spectrum_range(5, np.random.default_rng([7, 2]))
    assert result.passed
    assert 2 in solved


def test_verify_gates_the_family_pt_range(monkeypatch):
    """Family states out of [-1/2, 1] fail ``*_structured_vs_dense`` even
    when the structured and dense spectra agree."""
    spectra = negativity._spectra
    monkeypatch.setattr(
        verify,
        "_spectra",
        lambda state, cuts: (
            (block, 3.0 * rows, left_out) for block, rows, left_out in spectra(state, cuts)
        ),
    )
    failed = [r.name for r in run_suite(max_n=5, seed=7) if not r.passed]
    assert "ghz_structured_vs_dense" in failed


class TestDenseSupport:
    """The dense path eigensolves the indices whose PT row or column holds a
    nonzero, and pads the spectrum with exact zeros: the same bits as the
    reference route, which builds the whole partial transpose."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_random_full_rank(self, n):
        rng = np.random.default_rng([n, 99])
        for _ in range(3):
            rho = random_density(rng, n)
            cuts = enumerate_cuts(n)
            for cut, eigs in zip(cuts, dense_spectra(rho, cuts)):
                full = np.linalg.eigvalsh(partial_transpose(rho, cut.cli_bitmask))
                assert_matches_full(eigs, negativity_oracle(rho, cut), full, cut.human())

    def test_one_sided_zero_pattern(self):
        # Hermitian only within HERMITICITY_TOL: entries (127, k) = eps for
        # k = 1..126, below the diagonal, while rows 1..126 are zero.
        # eigvalsh reads the lower triangle, so it sees a star with
        # eigenvalues +-eps*sqrt(126); keeping only nonzero rows would drop
        # indices 1..126 and lose it. Qubit 1 is 0 on all these indices, so
        # the PT on {1} leaves the entries in place.
        n, eps = 8, 0.9e-12
        mat = np.zeros((2**n, 2**n), dtype=complex)
        mat[0, 0] = 1.0
        mat[127, 1:127] = eps
        rho = DensityMatrix(n, mat)
        cut = cut_of(n, {1})
        full = np.linalg.eigvalsh(partial_transpose(rho, cut.cli_bitmask))
        assert full[0] < -10 * eps
        [eigs] = dense_spectra(rho, [cut])
        assert_matches_full(eigs, negativity_oracle(rho, cut), full, cut.human())

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", list(Family))
    def test_eigensolve_size(self, kind, n, monkeypatch):
        # every gamma in (0, 1): GHZ keeps |0...0>, |1...1> and the pair the
        # PT couples; W keeps |0...0>, the n single and the |A||B| crossing
        # double excitations; the cluster state has a full diagonal
        rng = np.random.default_rng([n, list(Family).index(kind), 1])
        agg = AggregateDephasing(rng.uniform(0.05, 0.95, n), rng.uniform(0, 2 * np.pi, n))
        rho = apply_dephasing(to_density(make_state(StateFamily(kind, n))), agg)
        sizes, calls = [], []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            # a stack of matrices: one size per matrix solved
            calls.append(a.shape)
            sizes.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        cuts = enumerate_cuts(n)
        expected = [
            {
                Family.GHZ: 4,
                Family.W: 1 + n + len(cut._side(1)) * len(cut._side(0)),
                Family.CLUSTER: 2**n,
            }[kind]
            for cut in cuts
        ]
        for cut, size in zip(cuts, expected):
            sizes.clear()
            negativity_oracle(rho, cut)
            assert sizes == [size], cut.human()
        # all cuts at once: the same solves, blocks of one size stacked
        sizes.clear()
        calls.clear()
        list(_dense_spectra(rho, cuts))
        assert sorted(sizes) == sorted(expected)
        if kind is Family.GHZ:
            assert len(calls) == 1


class TestSolveStacked:
    """``_solve_stacked`` gives each block's eigenvalues, left unsorted for
    ``_reports``, and the count of zeros the block leaves out of ``dim``:
    padded with those zeros and sorted, the bytes of the
    concatenate-and-sort route."""

    @staticmethod
    def assert_reference(got, held, dim):
        want = reference_solve_stacked(held, dim)
        assert [cut for cut, _, _ in got] == [cut for cut, _ in want]
        for (cut, values, left_out), (_, b) in zip(got, want):
            assert np.sort(padded(values, left_out)).tobytes() == b.tobytes(), cut.human()

    @pytest.mark.parametrize("kind", [*Family, "random"])
    def test_every_round_of_a_dense_state(self, kind, monkeypatch):
        stream = 0 if kind == "random" else list(Family).index(kind) + 1
        n, rng = 6, np.random.default_rng([6, 21, stream])
        if kind == "random":
            rho = random_density(rng, n)
        else:
            agg = AggregateDephasing(rng.uniform(0.05, 0.95, n), rng.uniform(0, 2 * np.pi, n))
            rho = apply_dephasing(to_density(make_state(StateFamily(kind, n))), agg)
        solve, rounds = negativity._solve_stacked, []

        def spy(held, dim):
            got = list(solve(held, dim))
            self.assert_reference(got, held, dim)
            rounds.append(len(held))
            yield from got

        monkeypatch.setattr(negativity, "_solve_stacked", spy)
        assert len(negativity_reports(rho, enumerate_cuts(n))) == sum(rounds) == 31

    def test_random_blocks_of_mixed_sizes(self):
        rng = np.random.default_rng(21)
        held = []
        for size in [1, 3, 3, 8, 5, 8, 16, 1, 4]:
            a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            held.append((cut_of(5, {1}), a + a.conj().T))
        held.append((cut_of(5, {1, 2}), np.zeros((4, 4), dtype=complex)))
        held.append((cut_of(5, {2}), -np.eye(2, dtype=complex)))
        self.assert_reference(list(negativity._solve_stacked(held, 32)), held, 32)


class TestHomogeneousNPT:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", list(Family))
    def test_matches_oracle_verdict(self, kind, n):
        # the structured verdict at a homogeneous phase-free gamma, against
        # dephasing plus the dense oracle: every cut, gamma = 0 through 1
        family = StateFamily(kind, n)
        base = to_density(make_state(family))
        for cut in enumerate_cuts(n):
            for gamma in np.linspace(0.0, 1.0, 21):
                agg = homog(n, float(gamma))
                assert negativity_oracle((family, agg), cut).npt == negativity_oracle(
                    apply_dephasing(base, agg), cut
                ).npt, (cut.human(), gamma)


class TestStructuredKernels:
    """Each ``_SPECTRA`` kernel takes one gamma vector and k cuts, and gives
    one row per cut; each row holds the same floats as a one-cut call."""

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("kind", list(Family))
    def test_batched_rows_equal_one_row_calls(self, kind, n):
        rng = np.random.default_rng([n, 2, list(Family).index(kind)])
        cuts = enumerate_cuts(n)
        for gamma in rng.uniform(0, 1, (3, n)):
            batched, left_out = _SPECTRA[kind](gamma, cuts)
            assert left_out >= 0
            assert batched.shape == (len(cuts), 2**n - left_out)
            for row, cut in enumerate(cuts):
                single = _SPECTRA[kind](gamma, [cut])
                assert np.array_equal(batched[row], single[0][0]), cut.human()
                assert single[1] == left_out

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("kind", list(Family))
    def test_batched_reports_equal_the_oracle(self, kind, n):
        rng = np.random.default_rng([n, 3, list(Family).index(kind)])
        family = StateFamily(kind, n)
        agg = AggregateDephasing(rng.uniform(0, 1, n), rng.uniform(0, 2 * np.pi, n))
        cuts = enumerate_cuts(n)
        got = negativity_reports((family, agg), cuts)
        assert got == [negativity_oracle((family, agg), cut) for cut in cuts]


def degenerate_gammas(n):
    """Seeded per-qubit gammas with exact 0s and 1s: one dead qubit among
    ones (the cuts isolating it have a dead side, the others pairs at gamma
    = 1), a dead half against a half at 1, and three draws with about a
    third of the qubits at 0 and a third at 1."""
    rng = np.random.default_rng([n, 28])
    dead_qubit = np.ones(n)
    dead_qubit[rng.integers(n)] = 0.0
    dead_half = np.zeros(n)
    dead_half[rng.permutation(n)[: n // 2]] = 1.0
    draws = []
    for _ in range(3):
        gamma = rng.uniform(0, 1, n)
        gamma[rng.random(n) < 1 / 3] = 0.0
        gamma[rng.random(n) < 1 / 3] = 1.0
        draws.append(gamma)
    return [dead_qubit, dead_half, *draws]


class TestDegenerateSpectra:
    """GHZ and W pairs and their dense states at gammas with exact 0s and
    1s, every cut: each report is the padded reference of the values and
    the count of zeros its path leaves out, and a zero minimum is 0.0,
    never -0.0."""

    @staticmethod
    def assert_padded_reference(state, cuts):
        """The reports of ``state`` on ``cuts``, checked against
        ``reference_report`` of each ``_spectra`` row; returns them."""
        reports = negativity_reports(state, cuts)
        rows = [
            (values, left_out)
            for _, spectra, left_out in negativity._spectra(state, cuts)
            for values in spectra
        ]
        assert len(rows) == len(reports)
        for report, (values, left_out) in zip(reports, rows):
            assert values.size + left_out == 2**report.cut.n_qubits
            fields = (report.min_eigenvalue, report.negativity_sum)
            assert list(map(repr, fields)) == list(map(repr, reference_report(values, left_out)))
            if report.min_eigenvalue == 0.0:
                assert math.copysign(1.0, report.min_eigenvalue) == 1.0, report.cut.human()
        return reports

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("kind", [Family.GHZ, Family.W])
    def test_every_cut(self, kind, n):
        family, cuts = StateFamily(kind, n), enumerate_cuts(n)
        pure, zeros = to_density(make_state(family)), 0
        for gamma in degenerate_gammas(n):
            agg = AggregateDephasing(gamma, np.zeros(n))
            fast = self.assert_padded_reference((family, agg), cuts)
            dense = self.assert_padded_reference(apply_dephasing(pure, agg), cuts)
            full = full_structured(kind, gamma, cuts)
            for a, b, eigs in zip(fast, dense, full):
                # the whole spectrum, W Gram eigenvalues included, has the
                # same negatives; its minimum differs by a Gram eigenvalue's
                # rounding where a zero is the report's
                want_min, want_sum = reference_report(eigs)
                assert a.negativity_sum == want_sum, a.cut.human()
                assert abs(a.min_eigenvalue - want_min) <= 1e-15, a.cut.human()
                assert abs(a.min_eigenvalue - b.min_eigenvalue) <= 1e-12, a.cut.human()
                assert abs(a.negativity_sum - b.negativity_sum) <= 1e-12, a.cut.human()
                zeros += a.min_eigenvalue == 0.0
        assert zeros  # the dead qubit alone is a PPT cut

    @pytest.mark.parametrize("n", [3, 4])
    def test_ghz_dead_qubit_reads_positive_zero(self, n):
        # the padded route read -0.0 at n = 3 and 0.0 at n = 4, by sort order
        agg = AggregateDephasing(np.array([0.9, 0.0, 0.7, 0.8][:n]), np.zeros(n))
        minima = structured_minima(Family.GHZ, agg)
        assert list(map(repr, minima)) == ["0.0"] * len(minima)


class TestNoEigensolve:
    """GHZ and W reports read only the values that can be negative: no
    ``eigvalsh`` call and no array of 2^n values per cut."""

    @pytest.mark.parametrize("kind, width", [(Family.GHZ, 4), (Family.W, 2)])
    def test_every_cut_at_the_capacity(self, kind, width, monkeypatch):
        n = MAX_QUBITS
        rng = np.random.default_rng([n, 28, width])
        pair = (StateFamily(kind, n), AggregateDephasing(rng.uniform(0, 1, n), np.zeros(n)))
        cuts = enumerate_cuts(n)
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args, **kwargs: calls.append(args))
        tracemalloc.start()
        reports = negativity_reports(pair, cuts)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(reports) == len(cuts) == 2047
        assert calls == []
        assert {values.shape[1] for _, values, _ in negativity._spectra(pair, cuts)} == {width}
        # beyond the reports, less than four rows of 2^n floats at a time
        # (2^n-value rows took 1.2 MB: a block of 16 and its sorted copy)
        assert peak - held < 4 * 8 * 2**n
        assert all(r.npt for r in reports)


class TestClusterKernel:
    """``_cluster_spectrum`` runs its transform in autosort order and builds f
    in two reused buffers; every value is the reference kernel's, bit for bit."""

    @staticmethod
    def assert_reference(gamma, cuts):
        got, left_out = negativity._cluster_spectrum(gamma, cuts)
        assert left_out == 0
        assert got.shape == (len(cuts), 2**gamma.size)
        rows = np.repeat(gamma[None, :], len(cuts), axis=0)
        assert got.tobytes() == reference_cluster_spectrum(rows, cuts).tobytes()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_random_gammas(self, n):
        cuts = enumerate_cuts(n)
        for gamma in np.random.default_rng([n, 4]).uniform(0, 1, (3, n)):
            self.assert_reference(gamma, cuts)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_homogeneous_gammas(self, n):
        cuts = enumerate_cuts(n)
        for gamma in np.random.default_rng([n, 5]).uniform(0, 1, 3):
            self.assert_reference(np.full(n, gamma), cuts)

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_rows_at_the_ends(self, n, value):
        self.assert_reference(np.full(n, value), enumerate_cuts(n))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_a_call_spanning_two_blocks(self, n):
        # one row more than a block holds, cuts repeated: the blocks of
        # _spectra and one reference call over all rows agree
        rows = negativity._BLOCK_VALUES >> n
        cuts = (enumerate_cuts(n) * (rows + 1))[: rows + 1]
        agg = AggregateDephasing(np.random.default_rng([n, 6]).uniform(0, 1, n), np.zeros(n))
        blocks = list(negativity._spectra((StateFamily(Family.CLUSTER, n), agg), cuts))
        assert [block for block, _, _ in blocks] == [cuts[:rows], cuts[rows:]]
        assert [left_out for _, _, left_out in blocks] == [0, 0]
        got = np.concatenate([spectra for _, spectra, _ in blocks])
        gamma = np.repeat(agg.gamma[None, :], len(cuts), axis=0)
        assert got.tobytes() == reference_cluster_spectrum(gamma, cuts).tobytes()


class TestBlockReports:
    """``_reports`` summarizes a block with one sort; each row's report is
    a one-row ``_reports`` call on that row and the per-row reference, bit
    for bit, with or without zeros left out."""

    @staticmethod
    def assert_rows_match(spectra):
        cuts = [BipartiteCut(3, 1)] * len(spectra)
        for left_out in (0, 1, 5):
            got = negativity._reports(cuts, spectra, left_out)
            assert [r.cut for r in got] == cuts
            for report, row in zip(got, spectra):
                [single] = negativity._reports(cuts[:1], row[None], left_out)
                fields = [report.min_eigenvalue, report.negativity_sum]
                assert list(map(repr, fields)) == list(map(repr, reference_report(row, left_out)))
                assert list(map(repr, fields)) == [
                    repr(single.min_eigenvalue), repr(single.negativity_sum)
                ]

    def test_edge_values(self):
        below, noise = 2 * PSD_FLOOR, 0.5 * PSD_FLOOR
        spectra = np.array(
            [
                [0.5, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0],  # nothing negative
                [0.5, 0.25, 0.125, 0.0625, 0.5, 0.25, 0.125, 0.0625],  # all positive
                [0.5, noise, -0.0, 0.0, 0.5, noise, -0.0, 0.0],  # noise only
                [-0.0, 0.0, -0.0, 0.0, 0.5, 0.5, 0.0, -0.0],  # signed zeros
                [0.0, -0.0, 0.0, -0.0, 0.5, 0.5, -0.0, 0.0],
                [PSD_FLOOR, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0],  # at the floor
                [below, 0.6, noise, -0.0, 0.4, 0.0, -below, 0.0],
                [-0.125, -0.0625, -0.03, noise, below, 0.6, 0.4, 0.2675],
            ]
        )
        self.assert_rows_match(spectra)

    def test_zero_minimum_rule(self):
        # the row's minimum, or 0.0 where that is >= 0 and zeros were left
        # out; a zero minimum is +0.0 whichever zero sorts first
        spectra = np.array([[0.5, 0.25], [-0.0, 0.5], [0.0, -0.0], [-0.0, -0.0], [-0.25, 0.0]])
        for left_out, want in [(0, [0.25, 0.0, 0.0, 0.0, -0.25]), (2, [0.0, 0.0, 0.0, 0.0, -0.25])]:
            got = [r.min_eigenvalue for r in negativity._reports([None] * 5, spectra, left_out)]
            assert list(map(repr, got)) == list(map(repr, want))

    @pytest.mark.parametrize("negatives", [1, 2, 7, 8, 9, 31, 200, 1000])
    def test_rows_with_many_negatives(self, negatives):
        # past 8 values the pairwise sum unrolls, past 128 it splits
        rng = np.random.default_rng(negatives)
        spectra = rng.uniform(0, 1, (5, 1024))
        for row, scale in zip(spectra, [1e-3, 1e-9, 1e-11, 1.0, 0.5]):
            row[rng.choice(1024, negatives, replace=False)] *= -scale
        self.assert_rows_match(spectra)


class TestCriticalGamma:
    def test_two_qubit_cluster_threshold(self):
        [value] = critical_gamma(StateFamily(Family.CLUSTER, 2), [cut_of(2, {1})])
        assert abs(value - (SQRT2 - 1.0)) < 1e-7

    def test_three_qubit_cluster_middle_threshold(self):
        [value] = critical_gamma(StateFamily(Family.CLUSTER, 3), [cut_of(3, {1, 3})])
        assert abs(value - 0.295598) < 5e-6
        residual = value**3 + value**2 + 3 * value - 1.0
        assert abs(residual) < 1e-8

    def test_three_qubit_cluster_outer_threshold(self):
        [value] = critical_gamma(StateFamily(Family.CLUSTER, 3), [cut_of(3, {1})])
        assert abs(value - (SQRT2 - 1.0)) < 1e-7

    def test_shuffled_cuts_keep_input_order(self):
        # every 6-qubit cut, shuffled: thresholds come back in input order
        # and equal the golden CSV of cluster_thresholds.py, bit for bit
        golden = ROOT / "tests" / "data" / "golden" / "thresholds_n6.csv"
        with golden.open(newline="") as fh:
            want = {
                int(row["cut_bitmask"]): float(row["critical_gamma"])
                for row in csv.DictReader(fh)
                if row["n_qubits"] == "6"
            }
        cuts = enumerate_cuts(6)
        np.random.default_rng(6).shuffle(cuts)
        got = critical_gamma(StateFamily(Family.CLUSTER, 6), cuts)
        assert len(want) == 31
        assert got == [want[cut.cli_bitmask] for cut in cuts]

    def test_builds_no_spectrum_and_solves_each_run_once(self, monkeypatch):
        # all 2,047 cuts of a 12-qubit chain: no kernel runs, and each
        # longest run m = 1..11 is solved once per process
        def refuse(*args):
            raise AssertionError("critical_gamma built a spectrum")

        for name in ("_cluster_weights", "_walsh_hadamard", "_cluster_spectrum"):
            monkeypatch.setattr(negativity, name, refuse)
        negativity._run_threshold.cache_clear()
        cuts = enumerate_cuts(MAX_QUBITS)
        family = StateFamily(Family.CLUSTER, MAX_QUBITS)
        got = critical_gamma(family, cuts)
        assert len(got) == len(cuts) == 2047
        assert negativity._run_threshold.cache_info().misses == MAX_QUBITS - 1
        assert critical_gamma(family, cuts[::-1]) == got[::-1]
        assert negativity._run_threshold.cache_info().misses == MAX_QUBITS - 1

    def test_no_cuts_give_no_thresholds(self):
        assert critical_gamma(StateFamily(Family.CLUSTER, 5), []) == []

    def test_duplicate_cuts_each_get_their_own_threshold(self):
        family = StateFamily(Family.CLUSTER, 3)
        cuts = [cut_of(3, {1}), cut_of(3, {1, 3}), cut_of(3, {1}), cut_of(3, {1, 2})]
        cuts.append(cuts[1])
        got = critical_gamma(family, cuts)
        assert got == [critical_gamma(family, [cut])[0] for cut in cuts]
        assert got[0] == got[2] == got[3] != got[1] == got[4]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_weight_signs_from_the_masks(self, n):
        # sign (-1)^|s & s >> 1 & crossing| per cut, the crossing edge
        # (i, i+1) as bit n-1-i of s, where qubit 1 is the top bit
        cuts = enumerate_cuts(n)
        signs = weight_signs(cuts, n)
        s = np.arange(2**n)
        for cut, row in zip(cuts, signs):
            members = cut._side(1)
            crossing = sum(
                1 << (n - 1 - i) for i in range(1, n) if (i in members) != (i + 1 in members)
            )
            flips = np.array([bin(v).count("1") for v in s & s >> 1 & crossing])
            assert row.tolist() == ((-1) ** flips).tolist(), cut.human()

    @pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
    def test_longest_run_from_the_sides(self, n):
        cuts = enumerate_cuts(n)
        got = [negativity._longest_run(cut) for cut in cuts]
        assert got == [max(brute_run_lengths(cut)) for cut in cuts]

    def test_class_counts(self):
        counts = {n: len(set(map(brute_run_lengths, enumerate_cuts(n)))) for n in (7, 10, 12)}
        assert counts == {7: 14, 10: 41, 12: 76}

    @pytest.mark.parametrize(
        "n, mask, want",
        [
            (64, int("01" * 32, 2), (63,)),
            (64, 0b1011 | 0b101 << 60, (3, 4)),
            (100, 1, (1,)),
            (100, 1 | 1 << 99, (1, 1)),
            (100, (2**100 - 1) // 3, (99,)),
            (100, 0b0101010101 << 90 | 1, (1, 10)),
        ],
    )
    def test_longest_run_of_long_chains(self, n, mask, want):
        # masks past 2^63 are Python ints
        cut = BipartiteCut(n, mask)
        assert brute_run_lengths(cut) == want
        assert negativity._longest_run(cut) == max(want)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_polynomial_table_against_the_reference(self, n):
        cuts = enumerate_cuts(n)
        table = integer_polynomials(cuts, n)
        # evaluated at random homogeneous gamma, the spectrum of every cut
        gamma = np.random.default_rng([n, 18]).uniform(0, 1, len(cuts))
        powers = gamma[:, None] ** np.arange(n + 1)
        got = np.sort(np.einsum("rtw,rw->rt", table * 2.0**-n, powers), axis=1)
        want = np.sort(reference_cluster_spectrum(np.repeat(gamma[:, None], n, axis=1), cuts), axis=1)
        assert np.abs(got - want).max() <= 1e-15
        # the cuts of one run-length class have the same polynomials, up to
        # the order of the kets
        first = {}
        for cut, rows in zip(cuts, table):
            rows = rows[np.lexsort(rows.T)]
            same = first.setdefault(brute_run_lengths(cut), rows)
            assert np.array_equal(rows, same), cut.human()

    @pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
    @pytest.mark.parametrize("kind", [Family.GHZ, Family.W])
    def test_ghz_and_w_turn_npt_at_zero(self, kind, n):
        cuts = enumerate_cuts(n)
        assert critical_gamma(StateFamily(kind, n), cuts) == [0.0] * len(cuts)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", [Family.GHZ, Family.W])
    def test_ghz_and_w_are_ppt_at_zero_and_npt_above(self, kind, n):
        # PT minimum -gamma^n/2 or -gamma^2 sqrt(|A||B|)/n: 0 at gamma = 0,
        # negative above it
        family, cuts = StateFamily(kind, n), enumerate_cuts(n)
        ppt = negativity_reports((family, homog(n, 0.0)), cuts)
        npt = negativity_reports((family, homog(n, 0.5)), cuts)
        assert all(r.min_eigenvalue >= 0.0 for r in ppt)
        assert all(r.min_eigenvalue < PSD_FLOOR for r in npt)

    def test_rejects_mismatched_cut(self):
        with pytest.raises(InvalidPartitionError):
            critical_gamma(StateFamily(Family.CLUSTER, 3), [cut_of(2, {1})])
        with pytest.raises(InvalidPartitionError):
            critical_gamma(StateFamily(Family.GHZ, 3), [cut_of(2, {1})])
        with pytest.raises(InvalidPartitionError):
            critical_gamma(StateFamily(Family.CLUSTER, 3), [cut_of(3, {1}), cut_of(2, {1})])


class TestExactThresholds:
    """A cut's threshold is tau_M of its longest run M, the smallest root in
    (0, 1) of the integer polynomial p_M, rounded to the nearest double."""

    # relative offset of gamma either side of a threshold. Above it the
    # minimum PT eigenvalue must sit 100 |PSD_FLOOR| below PSD_FLOOR. Below
    # it the exact minimum is >= 0 (no ket is negative there), but it is
    # the product of one small factor per longest run, O(OFFSET^k) for k
    # such runs, so no small offset clears 100 |PSD_FLOOR| above the floor
    # on every cut; the computed minimum must be above PSD_FLOOR / 100.
    OFFSET = 1e-4

    def test_run_polynomials(self):
        assert run_polynomial(1) == [-1, -2, 1]
        assert run_polynomial(2) == [-1, -1, -3, 1]
        assert run_polynomial(3) == [-1, 0, 0, -4, 1]

    @pytest.mark.parametrize(
        "roots",
        [
            [Fraction(1, 2)],
            [Fraction(1, 4), Fraction(3, 8), Fraction(5, 8)],
            [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(-1)],
            [Fraction(1, 5), Fraction(7, 3), Fraction(7, 3), Fraction(7, 3)],
        ],
    )
    def test_sturm_counts_the_distinct_roots_between_two_points(self, roots):
        p = [1]
        for r in roots:  # times (den x - num)
            p = [a * r.denominator - b * r.numerator for a, b in zip(p + [0], [0] + p)]
        chain = sturm(p)
        assert (len(chain[-1]) == 1) == (len(set(roots)) == len(roots))
        points = [k for k in range(-17, 40) if Fraction(k, 16) not in roots]
        for a in points:
            for b in points:
                if a < b:
                    want = len({r for r in roots if Fraction(a, 16) < r < Fraction(b, 16)})
                    got = variations(chain, a, 4) - variations(chain, b, 4)
                    assert got == want, (a, b)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_no_ket_goes_negative_below_the_run_threshold(self, m):
        # the alternating cut of an (m+1)-chain is one run of m crossing
        # edges. Its all-ones ket is p_m; every ket is p_m^e times an h with
        # no root in (0, hi), hi the double above tau_m, so none is negative
        # on (0, tau_m). Integer arithmetic throughout.
        n = m + 1
        cut = alternating_cut(n)
        assert brute_run_lengths(cut) == (m,)
        [table] = integer_polynomials([cut], n)
        p = run_polynomial(m)
        assert highest_first(table[-1]) == p
        k, den = math.nextafter(negativity._run_threshold(m), 1.0).as_integer_ratio()
        j = den.bit_length() - 1
        for row in {tuple(row) for row in table.tolist()}:
            q = highest_first(row)
            assert q[-1] == 1  # each eigenvalue is 2^-n at gamma = 0
            h = divide_out(q, p)
            if len(h) > 1:
                assert exact_sign(h, Fraction(k, den)) != 0
                chain = sturm(h)
                assert variations(chain, 0, 0) == variations(chain, k, j), q

    def test_p_m_is_the_last_term_of_the_run_recurrence(self):
        # both sides have degree m + 1, so agreeing at the m + 2 points
        # 0 .. m + 1 makes them the same polynomial
        for m in range(40):
            p = run_polynomial(m)
            assert len(p) == m + 2
            assert [run_terms(m, x)[-1] for x in range(m + 2)] == [
                exact_value(p, x) for x in range(m + 2)
            ], m

    @pytest.mark.parametrize("m", range(1, 26))
    def test_the_integer_test_is_the_recurrence_at_dyadics(self, m):
        # random dyadics on (0, 1), and the half-ulp neighbours of tau_m
        # either side of the root
        rng = np.random.default_rng([m, 25])
        points = [(int(rng.integers(1 << j)), j) for j in rng.integers(1, 61, 200).tolist()]
        tau = Fraction(negativity._run_threshold(m))
        for side in (0.0, 1.0):
            x = (tau + Fraction(math.nextafter(float(tau), side))) / 2
            points.append((x.numerator, x.denominator.bit_length() - 1))
        verdicts = set()
        for k, j in points:
            want = all(a > 0 for a in run_terms(m, Fraction(k, 1 << j))[1:])
            assert negativity._below_threshold(m, k, j) == want, (k, j)
            assert want == (Fraction(k, 1 << j) < tau)  # no point is within an ulp
            verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("m", range(1, 41))
    def test_threshold_is_the_sturm_bisection(self, m):
        assert negativity._run_threshold(m) == sturm_threshold(m)

    def test_long_runs_approach_three_minus_two_sqrt2_from_above(self):
        # tau_m falls strictly, stays above 3 - 2 sqrt(2) (exactly: 3 - tau
        # < 2 sqrt(2)), and at m = 199 sits 2.339 / 200^2 above it
        taus = [negativity._run_threshold(m) for m in range(1, 201)]
        assert all(a > b for a, b in zip(taus, taus[1:]))
        assert all((3 - Fraction(tau)) ** 2 < 8 for tau in taus)
        gap = (taus[198] - (3 - 2 * math.sqrt(2))) * 200**2
        assert abs(gap - 2.339) < 1e-3

    @pytest.mark.parametrize("n", range(2, 11))
    def test_verdicts_either_side_of_each_threshold(self, n):
        # the Walsh kernel for every n, the dense oracle too for n <= 8
        family, cuts = StateFamily(Family.CLUSTER, n), enumerate_cuts(n)
        by_tau = {}
        for cut, tau in zip(cuts, critical_gamma(family, cuts)):
            by_tau.setdefault(tau, []).append(cut)
        for tau, group in by_tau.items():
            for gamma, npt in ((tau * (1 - self.OFFSET), False), (tau * (1 + self.OFFSET), True)):
                agg = homog(n, gamma)
                reports = negativity_reports((family, agg), group)
                minima = np.array([r.min_eigenvalue for r in reports])
                if npt:
                    assert (minima <= 101 * PSD_FLOOR).all(), tau
                else:
                    assert (minima >= PSD_FLOOR / 100).all(), tau
                assert [r.npt for r in reports] == [npt] * len(group), (tau, npt)
                if n <= 8:
                    rho = apply_dephasing(to_density(make_cluster(n)), agg)
                    dense = negativity_reports(rho, group)
                    assert [r.npt for r in dense] == [npt] * len(group), (tau, npt)

    @pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
    def test_each_threshold_is_the_correctly_rounded_root(self, n):
        # p_M changes sign between the half-ulp neighbours of the returned
        # double, so the root lies strictly between them
        cuts = enumerate_cuts(n)
        got = critical_gamma(StateFamily(Family.CLUSTER, n), cuts)
        by_run = {}
        for cut, tau in zip(cuts, got):
            by_run.setdefault(negativity._longest_run(cut), set()).add(tau)
        assert sorted(by_run) == list(range(1, n))
        for m, taus in by_run.items():
            [tau] = taus
            p, x = run_polynomial(m), Fraction(tau)
            below = (x + Fraction(math.nextafter(tau, 0.0))) / 2
            above = (x + Fraction(math.nextafter(tau, 1.0))) / 2
            assert (exact_sign(p, below), exact_sign(p, above)) == (1, -1), m
        if n == 2:
            assert got == [0.41421356237309503]  # sqrt(2) - 1, to 17 digits
