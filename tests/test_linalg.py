import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decohere import (
    BipartiteCut,
    CapacityError,
    DensityMatrix,
    InvalidPartitionError,
    NormalizationError,
    QubitSubset,
    SymmetryViolationError,
    apply_dephasing,
    enumerate_cuts,
    kron,
    partial_trace,
    partial_transpose,
)
from decohere.verify import random_aggregate, random_density

I2 = np.eye(2)
P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
S_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|


def pt_reference(mat, n, members):
    """Partial transpose by swapping flat-index bits between row and column
    (qubit 1 the most significant bit). The tensor-view kernel must
    reproduce it exactly."""
    mask = sum(1 << (n - q) for q in members)
    idx = np.arange(2**n)
    rows, cols = idx[:, None], idx[None, :]
    return mat[(rows & ~mask) | (cols & mask), (cols & ~mask) | (rows & mask)]


def dephased_random_density(seed, n):
    rng = np.random.default_rng(seed)
    return apply_dephasing(random_density(rng, n), random_aggregate(rng, n))


def density(mat):
    n = int(np.log2(mat.shape[0]))
    return DensityMatrix(n, mat)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_projector_pair(self):
        assert np.array_equal(kron(P0, P1), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_raising_pair_hits_ghz_corner(self):
        # S+ (x) S+ is |00><11| — the off-diagonal corner of a two-qubit GHZ
        expected = np.zeros((4, 4))
        expected[0, 3] = 1.0
        assert np.array_equal(kron(S_PLUS, S_PLUS), expected)

    def test_capacity_wall(self):
        big = np.eye(2**7)
        with pytest.raises(CapacityError):
            kron(big, big)  # 2**14 > 2**12


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.5
        with pytest.raises(SymmetryViolationError):
            DensityMatrix(2, mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NormalizationError):
            DensityMatrix(1, np.eye(2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, np.eye(2) / 2)

    def test_rejects_nan(self):
        mat = np.eye(2, dtype=complex) / 2
        mat[1, 1] = np.nan
        with pytest.raises(ValueError):
            DensityMatrix(1, mat)

    def test_assert_psd_catches_negative_direction(self):
        mat = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        rho = DensityMatrix(2, mat)
        with pytest.raises(NormalizationError):
            rho.assert_psd()


class TestQubitSubset:
    def test_complement(self):
        sub = QubitSubset(4, frozenset({2, 4}))
        assert sub.complement().members == frozenset({1, 3})

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidPartitionError):
            QubitSubset(2, frozenset({3}))
        # Non-integer members are rejected, not truncated to a valid qubit.
        for bad in (1.5, 2.9, "2"):
            with pytest.raises(InvalidPartitionError):
                QubitSubset(3, frozenset({bad}))
            with pytest.raises(InvalidPartitionError):
                BipartiteCut.from_members(3, {bad})

    def test_rejects_non_integer_register_size(self):
        with pytest.raises(InvalidPartitionError):
            QubitSubset(2.5, frozenset({1}))

    def test_accepts_numpy_integers(self):
        assert type(QubitSubset(np.int64(3), frozenset({1})).n_qubits) is int
        sub = QubitSubset(3, frozenset({np.int64(2)}))
        assert sub.members == frozenset({2})
        assert all(type(q) is int for q in sub.members)


class TestPartialTrace:
    def test_product_state_factors(self):
        rng = np.random.default_rng(5)
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 1)
        joint = density(kron(rho_a.mat, rho_b.mat))
        reduced = partial_trace(joint, QubitSubset(2, frozenset({2})))
        assert np.abs(reduced.mat - rho_a.mat).max() < 1e-14

    def test_ghz3_loses_coherence(self):
        from decohere import make_ghz, to_density

        rho = to_density(make_ghz(3))
        reduced = partial_trace(rho, QubitSubset(3, frozenset({3})))
        expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert np.abs(reduced.mat - expected).max() < 1e-15

    def test_keeps_original_qubit_order(self):
        rng = np.random.default_rng(11)
        parts = [random_density(rng, 1) for _ in range(3)]
        joint = density(kron(kron(parts[0].mat, parts[1].mat), parts[2].mat))
        reduced = partial_trace(joint, QubitSubset(3, frozenset({2})))
        expected = kron(parts[0].mat, parts[2].mat)
        assert np.abs(reduced.mat - expected).max() < 1e-14

    @given(st.integers(0, 10**6), st.integers(2, 4))
    def test_trace_preserved(self, seed, n):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, n)
        size = int(rng.integers(1, n))
        members = frozenset(map(int, rng.choice(np.arange(1, n + 1), size, replace=False)))
        reduced = partial_trace(rho, QubitSubset(n, members))
        assert abs(reduced.mat.trace() - 1.0) < 1e-12

    def test_rejects_empty_and_full(self):
        rho = density(np.eye(4, dtype=complex) / 4)
        with pytest.raises(InvalidPartitionError):
            partial_trace(rho, QubitSubset(2, frozenset()))
        with pytest.raises(InvalidPartitionError):
            partial_trace(rho, QubitSubset(2, frozenset({1, 2})))


class TestPartialTranspose:
    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_involution(self, seed, n):
        rho = dephased_random_density(seed, n)
        for cut in enumerate_cuts(n):
            once = partial_transpose(rho, cut.p1)
            assert np.array_equal(once, pt_reference(rho.mat, n, cut.p1.members))
            # the same index swap again, by the reference
            assert np.array_equal(pt_reference(once, n, cut.p1.members), rho.mat)
            assert np.abs(once - once.conj().T).max() < 1e-15
            # PT only moves entries: its Hermiticity defect is exactly rho's
            defect = np.abs(rho.mat - rho.mat.conj().T).max()
            assert np.abs(once - once.conj().T).max() == defect
            assert abs(once.trace() - 1.0) < 1e-14

    @pytest.mark.parametrize("members", [{1}, {10}, {1, 2, 3, 4, 5}, {2, 4, 6, 8, 10}])
    def test_matches_reference_at_ten_qubits(self, members):
        rho = dephased_random_density(10, 10)
        once = partial_transpose(rho, QubitSubset(10, frozenset(members)))
        assert np.array_equal(once, pt_reference(rho.mat, 10, members))

    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(3)
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 1)
        joint = density(kron(rho_a.mat, rho_b.mat))
        pt = partial_transpose(joint, QubitSubset(2, frozenset({1})))
        assert np.abs(pt - kron(rho_a.mat.T, rho_b.mat)).max() < 1e-15
        assert np.linalg.eigvalsh(pt)[0] > -1e-12

    def test_ghz2_spectrum(self):
        from decohere import make_ghz, to_density

        pt = partial_transpose(to_density(make_ghz(2)), QubitSubset(2, frozenset({1})))
        eigs = np.linalg.eigvalsh(pt)
        assert np.abs(eigs - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-12


class TestHermitianEigenvalues:
    def test_dephased_ghz3_minimum(self):
        from decohere import AggregateDephasing, make_ghz, negativity_oracle, to_density

        rho = apply_dephasing(
            to_density(make_ghz(3)), AggregateDephasing.homogeneous(3, 0.5)
        )
        report = negativity_oracle(rho, BipartiteCut.from_members(3, {1}))
        assert abs(report.min_eigenvalue - (-0.0625)) < 1e-12
