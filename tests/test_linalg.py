import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decohere import (
    BipartiteCut,
    CapacityError,
    DensityMatrix,
    InvalidPartitionError,
    InvalidSizeError,
    NormalizationError,
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

    def test_rejects_non_integer_qubit_count(self):
        with pytest.raises(InvalidSizeError):
            DensityMatrix(2.0, np.eye(4) / 4)

    def test_rejects_zero_qubits(self):
        with pytest.raises(InvalidSizeError):
            DensityMatrix(0, np.array([[1.0]]))

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


def members(n, mask):
    """The 1-based qubits of a mask: bit q-1 set means qubit q."""
    return {q for q in range(1, n + 1) if mask >> (q - 1) & 1}


def trace_reference(mat, n, traced):
    """Partial trace by summing the entries whose flat indices agree on the
    traced qubits' bits (qubit 1 the most significant bit), each added at
    the index that the kept qubits' bits form. The tensor-view kernel must
    reproduce it."""
    kept = [q for q in range(1, n + 1) if q not in traced]
    idx = np.arange(2**n)
    bits = {q: idx >> (n - q) & 1 for q in range(1, n + 1)}
    reduced = sum(bits[q] << (len(kept) - 1 - k) for k, q in enumerate(kept))
    label = sum(bits[q] << k for k, q in enumerate(sorted(traced)))
    out = np.zeros((2 ** len(kept),) * 2, dtype=complex)
    rows, cols = np.broadcast_arrays(reduced[:, None], reduced[None, :])
    np.add.at(out, (rows, cols), np.where(label[:, None] == label[None, :], mat, 0.0))
    return out


class TestQubitMask:
    """Cuts, partial trace and partial transpose take a qubit set as its
    bitmask and share one check of it."""

    RHO = random_density(np.random.default_rng(1), 3)
    TAKES_MASK = {
        "cut": lambda mask: BipartiteCut(3, mask).cli_bitmask,
        "trace": lambda mask: partial_trace(TestQubitMask.RHO, mask).mat,
        "transpose": lambda mask: partial_transpose(TestQubitMask.RHO, mask),
    }

    @pytest.mark.parametrize("op", list(TAKES_MASK))
    @pytest.mark.parametrize(
        "mask",
        [0, 0b111, 0b1000, -1, 1.0, None],
        ids=["empty", "full", "wide", "negative", "float", "none"],
    )
    def test_rejects(self, op, mask):
        with pytest.raises(InvalidPartitionError):
            self.TAKES_MASK[op](mask)

    @pytest.mark.parametrize("op", list(TAKES_MASK))
    def test_accepts_numpy_integers(self, op):
        takes_mask = self.TAKES_MASK[op]
        assert np.array_equal(takes_mask(np.int64(0b110)), takes_mask(0b110))
        cut = BipartiteCut(np.int64(3), np.int64(0b110))
        assert type(cut.n_qubits) is int and type(cut.cli_bitmask) is int

    @pytest.mark.parametrize("bad", [0, 4, 10**18, 1.5, 2.0, "2", None])
    def test_from_members_rejects(self, bad):
        with pytest.raises(InvalidPartitionError):
            BipartiteCut.from_members(3, {bad})

    def test_from_members_counts_a_repeat_once(self):
        assert BipartiteCut.from_members(3, [1, 3, 3, np.int64(1)]) == BipartiteCut(3, 0b101)
        assert BipartiteCut.from_members(3, [2, 2]) == BipartiteCut(3, 0b010)


class TestEveryMask:
    """Every nonempty proper mask, not only the canonical cuts (which all
    hold qubit 1), against the index-level references."""

    @pytest.mark.parametrize("n", range(2, 5))
    def test_partial_transpose(self, n):
        rho = dephased_random_density([n, 3], n)
        full = 2**n - 1
        for mask in range(1, full):
            once = partial_transpose(rho, mask)
            assert np.array_equal(once, pt_reference(rho.mat, n, members(n, mask))), mask
            # transposing the other side too transposes the whole matrix
            assert np.array_equal(partial_transpose(rho, full ^ mask), once.T), mask

    @pytest.mark.parametrize("n", range(2, 5))
    def test_partial_trace(self, n):
        rho = random_density(np.random.default_rng([n, 4]), n)
        for mask in range(1, 2**n - 1):
            reduced = partial_trace(rho, mask)
            expected = trace_reference(rho.mat, n, members(n, mask))
            assert reduced.n_qubits == n - len(members(n, mask))
            assert np.abs(reduced.mat - expected).max() < 1e-15, mask


class TestPartialTrace:
    def test_product_state_factors(self):
        rng = np.random.default_rng(5)
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 1)
        joint = density(kron(rho_a.mat, rho_b.mat))
        reduced = partial_trace(joint, 0b10)
        assert np.abs(reduced.mat - rho_a.mat).max() < 1e-14

    def test_ghz3_loses_coherence(self):
        from decohere import make_ghz, to_density

        rho = to_density(make_ghz(3))
        reduced = partial_trace(rho, 0b100)
        expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert np.abs(reduced.mat - expected).max() < 1e-15

    def test_keeps_original_qubit_order(self):
        rng = np.random.default_rng(11)
        parts = [random_density(rng, 1) for _ in range(3)]
        joint = density(kron(kron(parts[0].mat, parts[1].mat), parts[2].mat))
        reduced = partial_trace(joint, 0b010)
        expected = kron(parts[0].mat, parts[2].mat)
        assert np.abs(reduced.mat - expected).max() < 1e-14

    @given(st.integers(0, 10**6), st.integers(2, 4))
    def test_trace_preserved(self, seed, n):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, n)
        size = int(rng.integers(1, n))
        members = frozenset(map(int, rng.choice(np.arange(1, n + 1), size, replace=False)))
        reduced = partial_trace(rho, sum(1 << (q - 1) for q in members))
        assert abs(reduced.mat.trace() - 1.0) < 1e-12

    def test_rejects_empty_and_full(self):
        rho = density(np.eye(4, dtype=complex) / 4)
        with pytest.raises(InvalidPartitionError):
            partial_trace(rho, 0)
        with pytest.raises(InvalidPartitionError):
            partial_trace(rho, 0b11)


class TestPartialTranspose:
    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_involution(self, seed, n):
        rho = dephased_random_density(seed, n)
        for cut in enumerate_cuts(n):
            once = partial_transpose(rho, cut.cli_bitmask)
            assert np.array_equal(once, pt_reference(rho.mat, n, cut._side(1)))
            # the same index swap again, by the reference
            assert np.array_equal(pt_reference(once, n, cut._side(1)), rho.mat)
            assert np.abs(once - once.conj().T).max() < 1e-15
            # PT only moves entries: its Hermiticity defect is exactly rho's
            defect = np.abs(rho.mat - rho.mat.conj().T).max()
            assert np.abs(once - once.conj().T).max() == defect
            assert abs(once.trace() - 1.0) < 1e-14

    @pytest.mark.parametrize("members", [{1}, {10}, {1, 2, 3, 4, 5}, {2, 4, 6, 8, 10}])
    def test_matches_reference_at_ten_qubits(self, members):
        rho = dephased_random_density(10, 10)
        once = partial_transpose(rho, sum(1 << (q - 1) for q in members))
        assert np.array_equal(once, pt_reference(rho.mat, 10, members))

    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(3)
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 1)
        joint = density(kron(rho_a.mat, rho_b.mat))
        pt = partial_transpose(joint, 0b01)
        assert np.abs(pt - kron(rho_a.mat.T, rho_b.mat)).max() < 1e-15
        assert np.linalg.eigvalsh(pt)[0] > -1e-12

    def test_ghz2_spectrum(self):
        from decohere import make_ghz, to_density

        pt = partial_transpose(to_density(make_ghz(2)), 0b01)
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
