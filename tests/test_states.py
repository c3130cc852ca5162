import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decohere import (
    CapacityError,
    Family,
    InvalidSizeError,
    NormalizationError,
    StateFamily,
    kron,
    make_cluster,
    make_ghz,
    make_state,
    make_w,
    to_density,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
S_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
S_MINUS = S_PLUS.conj().T


def chain_kron(mats):
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


class TestGHZ:
    def test_two_qubit_amplitudes(self):
        psi = make_ghz(2)
        expected = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        assert np.abs(psi - expected).max() < 1e-15

    def test_density_corners(self):
        rho = to_density(make_ghz(4))
        mat = rho.mat
        assert abs(mat[0, 0] - 0.5) < 1e-15
        assert abs(mat[15, 15] - 0.5) < 1e-15
        assert abs(mat[0, 15] - 0.5) < 1e-15
        # everything else vanishes
        mat = mat.copy()
        mat[np.ix_([0, 15], [0, 15])] = 0.0
        assert np.abs(mat).max() < 1e-15

    def test_three_qubit_operator_expansion(self):
        # 1/2 (P0 P0 P0 + S+ S+ S+ + S- S- S- + P1 P1 P1), written with
        # single-qubit projectors and raising/lowering operators
        expected = 0.5 * (
            chain_kron([P0] * 3)
            + chain_kron([S_PLUS] * 3)
            + chain_kron([S_MINUS] * 3)
            + chain_kron([P1] * 3)
        )
        assert np.abs(to_density(make_ghz(3)).mat - expected).max() < 1e-15


class TestW:
    def test_two_qubit_amplitudes(self):
        psi = make_w(2)
        expected = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
        assert np.abs(psi - expected).max() < 1e-15

    def test_support_is_single_excitation(self):
        for n in range(2, 7):
            psi = make_w(n)
            for idx, amp in enumerate(psi):
                if idx.bit_count() == 1:
                    assert abs(amp - 1 / np.sqrt(n)) < 1e-15
                else:
                    assert amp == 0.0

    def test_density_entries_uniform(self):
        mat = to_density(make_w(3)).mat
        hot = [0b100, 0b010, 0b001]
        for r in hot:
            for c in hot:
                assert abs(mat[r, c] - 1 / 3) < 1e-15


class TestCluster:
    def test_two_qubit_amplitudes(self):
        psi = make_cluster(2)
        expected = np.array([1.0, 1.0, 1.0, -1.0]) / 2.0
        assert np.abs(psi - expected).max() < 1e-15

    def test_single_qubit_marginals_maximally_mixed(self):
        from decohere import partial_trace

        rho = to_density(make_cluster(3))
        for q in (1, 2, 3):
            reduced = partial_trace(rho, 0b111 ^ 1 << (q - 1))
            assert np.abs(reduced.mat - np.eye(2) / 2).max() < 1e-15

    @given(st.integers(2, 7))
    def test_sign_rule(self, n):
        # amplitude sign flips once per adjacent 11 pair in the bitstring
        psi = make_cluster(n)
        scale = 2 ** (-n / 2)
        for idx, amp in enumerate(psi):
            sign = -1 if (idx & (idx >> 1)).bit_count() % 2 else 1
            assert abs(amp - sign * scale) < 1e-15

    def test_matches_gate_by_gate_construction(self):
        for n in (2, 3, 4, 5):
            psi = np.full(2**n, 2 ** (-n / 2), dtype=complex)
            for bond in range(1, n):
                b1, b2 = n - bond, n - bond - 1
                for idx in range(2**n):
                    if (idx >> b1) & 1 and (idx >> b2) & 1:
                        psi[idx] = -psi[idx]
            assert np.abs(make_cluster(n) - psi).max() < 1e-15


class TestFamilyPlumbing:
    def test_make_state_dispatch(self):
        assert np.array_equal(make_state(StateFamily(Family.GHZ, 3)), make_ghz(3))
        assert np.array_equal(make_state(StateFamily(Family.W, 4)), make_w(4))
        assert np.array_equal(make_state(StateFamily(Family.CLUSTER, 2)), make_cluster(2))

    def test_family_parses_from_string(self):
        assert Family("ghz") is Family.GHZ
        with pytest.raises(ValueError):
            Family("bell")

    @pytest.mark.parametrize("kind", ["ghz", "cluster", None, 0])
    def test_rejects_a_kind_that_is_not_a_family(self, kind):
        # a family name would pass as the cluster state in make_state
        with pytest.raises(TypeError, match="Family"):
            StateFamily(kind, 3)

    @pytest.mark.parametrize("maker", [make_ghz, make_w, make_cluster])
    def test_rejects_single_qubit(self, maker):
        with pytest.raises(InvalidSizeError):
            maker(1)

    @pytest.mark.parametrize("n", [2.5, 2.9, "3"])
    def test_rejects_non_integer_qubit_counts(self, n):
        with pytest.raises(InvalidSizeError):
            StateFamily(Family.GHZ, n)
        with pytest.raises(InvalidSizeError):
            StateFamily(Family.W, n)
        with pytest.raises(InvalidSizeError):
            make_ghz(n)  # no silent truncation to 2 qubits

    def test_accepts_numpy_integer_qubit_counts(self):
        assert StateFamily(Family.W, np.int64(3)).n_qubits == 3
        assert np.array_equal(make_cluster(np.int64(3)), make_cluster(3))

    def test_rejects_oversized(self):
        from decohere import CapacityError

        with pytest.raises(CapacityError):
            StateFamily(Family.GHZ, 13)

    @pytest.mark.parametrize("kind", list(Family))
    def test_states_are_normalized_pure(self, kind):
        for n in (2, 5):
            psi = make_state(StateFamily(kind, n))
            assert abs(np.vdot(psi, psi) - 1.0) < 1e-12
            rho = to_density(psi)
            purity = np.trace(rho.mat @ rho.mat).real
            assert abs(purity - 1.0) < 1e-12

    def test_to_density_rejects_unnormalized(self):
        for bad in ([1.0, 1.0], [np.nan, 0.0]):
            with pytest.raises(NormalizationError):
                to_density(np.array(bad, dtype=complex))

    def test_to_density_rejects_a_matrix(self):
        # a normalized 2x2 array would otherwise read as a 2-qubit ket
        with pytest.raises(InvalidSizeError):
            to_density(np.eye(2) / np.sqrt(2.0))

    def test_to_density_rejects_a_single_amplitude(self):
        # it would otherwise be a 0-qubit state
        with pytest.raises(InvalidSizeError):
            to_density(np.array([1.0 + 0.0j]))

    def test_to_density_checks_capacity_before_allocating(self):
        psi = make_ghz(12)
        psi = np.concatenate([psi, np.zeros_like(psi)])  # a 13-qubit ket
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                to_density(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the 2**13 x 2**13 product would be 1 GiB
