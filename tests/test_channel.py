import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decohere import (
    AggregateDephasing,
    CollisionParams,
    DensityMatrix,
    InvalidPartitionError,
    InvalidSizeError,
    MicroCollisionSpec,
    NormalizationError,
    apply_dephasing,
    apply_microscopic_collision,
    build_collision_unitary,
    collision_params,
    make_ghz,
    make_w,
    perp_ket,
    schedule_aggregate,
    to_density,
)
from decohere.verify import random_aggregate, random_density, random_ket, random_micro_spec

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
MIXED = DensityMatrix(1, np.eye(2, dtype=complex) / 2)


def dephasing_reference(mat, agg):
    """Dephasing by a dense dim x dim factor per qubit, built from flat-index
    bits (qubit 1 the most significant) and multiplied together in qubit
    order before it touches ``mat``. The tensor-view kernel must reproduce
    it bit for bit."""
    n = agg.n_qubits
    idx = np.arange(2**n)
    factors = np.ones(mat.shape, dtype=np.complex128)
    for i in range(n):
        bit = (idx >> (n - 1 - i)) & 1
        diff = bit[:, None] - bit[None, :]
        g, ph = agg.gamma[i], agg.phase[i]
        factors *= np.where(diff == 0, 1.0, g * np.exp(-1j * ph * diff))
    return mat * factors


def pauli_axis_spec(theta, phi):
    """Spec whose conditional-flip product V1^dag V0 is a traceless spin axis."""
    psi = np.array([np.cos(theta), np.sin(theta) * np.exp(1j * phi)])
    return MicroCollisionSpec(
        psi=psi,
        phi_ket=KET1,
        xi=MIXED,
        psi_perp_phase=np.pi,
        phi_perp_phase=np.pi,
    )


class TestPerpKet:
    @given(st.integers(0, 10**6), st.floats(0.0, 6.28))
    def test_orthonormal(self, seed, phase):
        ket = random_ket(np.random.default_rng(seed))
        perp = perp_ket(ket, phase)
        assert abs(np.vdot(ket, perp)) < 1e-12
        assert abs(np.vdot(perp, perp) - 1.0) < 1e-12

    def test_phase_convention(self):
        perp = perp_ket(KET0, 0.0)
        assert np.abs(perp - KET1).max() < 1e-15
        flipped = perp_ket(KET1, np.pi)
        assert np.abs(flipped - KET0).max() < 1e-12


class TestCollisionUnitary:
    def test_transparent_environment_gives_identity(self):
        # both conditional rotations equal the identity, so nothing happens
        spec = MicroCollisionSpec(
            psi=KET0, phi_ket=KET1, xi=MIXED, phi_perp_phase=np.pi
        )
        assert np.abs(spec.v0() - np.eye(2)).max() < 1e-15
        assert np.abs(spec.v1() - np.eye(2)).max() < 1e-15
        assert np.abs(build_collision_unitary(spec) - np.eye(4)).max() < 1e-15

    def test_conditional_flip_block(self):
        spec = MicroCollisionSpec(
            psi=KET1,
            phi_ket=KET1,
            xi=MIXED,
            psi_perp_phase=np.pi,
            phi_perp_phase=np.pi,
        )
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.abs(spec.v0() - flip).max() < 1e-15
        expected = np.eye(4, dtype=complex)
        expected[:2, :2] = flip
        assert np.abs(build_collision_unitary(spec) - expected).max() < 1e-15

    @given(st.integers(0, 10**6))
    def test_unitary(self, seed):
        spec = random_micro_spec(np.random.default_rng(seed))
        u = build_collision_unitary(spec)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_pauli_axis_is_traceless(self):
        for theta, phi in [(0.3, 0.0), (1.1, 2.0), (np.pi / 2, np.pi / 3)]:
            spec = pauli_axis_spec(theta, phi)
            x = spec.v1().conj().T @ spec.v0()
            assert abs(np.trace(x)) < 1e-12
            assert np.abs(x.conj().T @ x - np.eye(2)).max() < 1e-12


class TestCollisionParams:
    def test_transparent_collision_keeps_everything(self):
        spec = MicroCollisionSpec(
            psi=KET0, phi_ket=KET1, xi=MIXED, phi_perp_phase=np.pi
        )
        params = collision_params(spec)
        assert abs(params.strength - 1.0) < 1e-15
        assert abs(params.phase) < 1e-15

    def test_maximally_mixed_environment_kills_traceless_axis(self):
        for theta, phi in [(0.7, 0.4), (np.pi / 2, 0.0), (2.0, 5.0)]:
            params = collision_params(pauli_axis_spec(theta, phi))
            assert params.strength < 1e-12

    def test_eigenstate_environment_keeps_strength_one(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        spec = MicroCollisionSpec(
            psi=KET1,
            phi_ket=KET1,
            xi=to_density(plus),
            psi_perp_phase=np.pi,
            phi_perp_phase=np.pi,
        )
        params = collision_params(spec)
        assert abs(params.strength - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            CollisionParams(strength=-0.1, phase=0.0)
        with pytest.raises(ValueError):
            CollisionParams(strength=1.1, phase=0.0)
        for phase in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                CollisionParams(strength=0.5, phase=phase)
        wrapped = CollisionParams(strength=0.5, phase=2 * np.pi + 1.0)
        assert abs(wrapped.phase - 1.0) < 1e-12


class TestMicroSpecValidation:
    def test_rejects_unnormalized_kets(self):
        for bad in (2 * KET0, np.array([np.nan, 0.0])):
            with pytest.raises(NormalizationError):
                MicroCollisionSpec(psi=bad, phi_ket=KET1, xi=MIXED)

    def test_rejects_multiqubit_environment(self):
        with pytest.raises(InvalidSizeError):
            MicroCollisionSpec(
                psi=KET0, phi_ket=KET1, xi=DensityMatrix(2, np.eye(4) / 4)
            )

    @pytest.mark.parametrize("name", ["psi_perp_phase", "phi_perp_phase"])
    @pytest.mark.parametrize("phase", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_perp_phases(self, name, phase):
        # an infinite phase would give NaN unitary entries and a NaN strength
        with pytest.raises(ValueError, match=name):
            MicroCollisionSpec(psi=KET0, phi_ket=KET1, xi=MIXED, **{name: phase})


class TestMicroscopicCollision:
    def test_dead_collision_wipes_ghz_corners(self):
        rho = to_density(make_ghz(2))
        spec = pauli_axis_spec(np.pi / 2, 0.0)  # strength 0
        out = apply_microscopic_collision(rho, 1, spec)
        assert abs(out.mat[0, 3]) < 1e-15
        assert abs(out.mat[0, 0] - 0.5) < 1e-14
        assert abs(out.mat[3, 3] - 0.5) < 1e-14

    def test_agrees_with_reduced_map(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            rho = random_density(rng, 3)
            spec = random_micro_spec(rng)
            qubit = int(rng.integers(1, 4))
            micro = apply_microscopic_collision(rho, qubit, spec)
            params = collision_params(spec)
            gamma = np.ones(3)
            phase = np.zeros(3)
            gamma[qubit - 1] = params.strength
            phase[qubit - 1] = params.phase
            reduced = apply_dephasing(rho, AggregateDephasing(gamma, phase))
            assert np.abs(micro.mat - reduced.mat).max() < 1e-10

    def test_rejects_bad_qubit_index(self):
        rho = to_density(make_ghz(3))
        spec = pauli_axis_spec(0.3, 0.0)
        with pytest.raises(InvalidPartitionError):
            apply_microscopic_collision(rho, 0, spec)
        with pytest.raises(InvalidPartitionError):
            apply_microscopic_collision(rho, 4, spec)


class TestAggregateDephasing:
    def test_identity_channel(self):
        rho = to_density(make_w(3))
        out = apply_dephasing(rho, AggregateDephasing.homogeneous(3, 1.0))
        assert np.array_equal(out.mat, rho.mat)

    def test_ghz_corner_scaling(self):
        n = 4
        agg = AggregateDephasing(
            np.array([0.9, 0.8, 0.7, 0.6]), np.array([0.1, 0.2, 0.3, 0.4])
        )
        out = apply_dephasing(to_density(make_ghz(n)), agg)
        # the |0..0><1..1| corner rotates the same way a collision's
        # tr(xi V1^dag V0) does: by +phase
        corner = 0.5 * np.prod(agg.gamma) * np.exp(1j * np.sum(agg.phase))
        assert abs(out.mat[0, 2**n - 1] - corner) < 1e-14
        assert abs(out.mat[2**n - 1, 0] - np.conj(corner)) < 1e-14
        assert abs(out.mat[0, 0] - 0.5) < 1e-15

    def test_w_cross_terms_scale_per_qubit(self):
        agg = AggregateDephasing(np.array([0.5, 1.0, 1.0]), np.zeros(3))
        out = apply_dephasing(to_density(make_w(3)), agg)
        third = 1.0 / 3.0
        # |100><010| and |100><001| touch qubit 1; |010><001| does not
        assert abs(out.mat[0b100, 0b010] - 0.5 * third) < 1e-15
        assert abs(out.mat[0b100, 0b001] - 0.5 * third) < 1e-15
        assert abs(out.mat[0b010, 0b001] - third) < 1e-15

    def test_diagonal_always_fixed(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 3)
        agg = AggregateDephasing(
            rng.uniform(0, 1, 3), rng.uniform(0, 2 * np.pi, 3)
        )
        out = apply_dephasing(rho, agg)
        assert np.abs(np.diag(out.mat) - np.diag(rho.mat)).max() < 1e-15

    @given(st.integers(0, 10**6))
    def test_composition_multiplies_strengths_adds_phases(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 3)
        g1, g2 = rng.uniform(0, 1, (2, 3))
        p1, p2 = rng.uniform(0, 2 * np.pi, (2, 3))
        two_step = apply_dephasing(
            apply_dephasing(rho, AggregateDephasing(g1, p1)), AggregateDephasing(g2, p2)
        )
        fused = apply_dephasing(rho, AggregateDephasing(g1 * g2, (p1 + p2) % (2 * np.pi)))
        assert np.abs(two_step.mat - fused.mat).max() < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(InvalidSizeError):
            apply_dephasing(to_density(make_ghz(3)), AggregateDephasing.homogeneous(2, 0.5))

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            AggregateDephasing(np.array([0.5, 1.2]), np.zeros(2))
        with pytest.raises(ValueError):
            AggregateDephasing(np.array([np.nan]))
        with pytest.raises(ValueError):
            AggregateDephasing(np.array([0.5]), np.array([np.inf]))

    def test_a_tiny_negative_phase_wraps_to_zero(self):
        # its % 2*pi rounds to exactly 2*pi, which is 0 again
        assert AggregateDephasing([0.5], [-1e-300]).phase[0] == 0.0
        assert CollisionParams(0.5, -1e-300).phase == 0.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_phases_lie_in_one_period(self, phases):
        # in [0, 2*pi), by the rule CollisionParams applies to one phase
        agg = AggregateDephasing(np.full(len(phases), 0.5), phases)
        assert ((agg.phase >= 0.0) & (agg.phase < 2 * np.pi)).all()
        assert agg.phase.tolist() == [CollisionParams(0.5, p).phase for p in phases]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10])
    def test_matches_dense_factor_reference(self, n):
        rng = np.random.default_rng(n)
        rho = random_density(rng, n)
        agg = random_aggregate(rng, n)
        assert np.array_equal(apply_dephasing(rho, agg).mat, dephasing_reference(rho.mat, agg))


class TestSchedules:
    def test_empty_schedule_is_identity(self):
        agg = schedule_aggregate(((), (), ()))
        assert np.array_equal(agg.gamma, np.ones(3))
        assert np.array_equal(agg.phase, np.zeros(3))

    def test_repeated_collisions_multiply(self):
        agg = schedule_aggregate(((CollisionParams(0.9),) * 3,) * 2)
        assert np.abs(agg.gamma - 0.9**3).max() < 1e-15

    def test_one_dead_collision_zeroes_qubit(self):
        agg = schedule_aggregate(
            (
                (CollisionParams(0.8, 0.0), CollisionParams(0.0, 0.0)),
                (CollisionParams(0.8, 0.0),),
            )
        )
        assert agg.gamma[0] == 0.0
        assert abs(agg.gamma[1] - 0.8) < 1e-15

    def test_phases_accumulate_mod_2pi(self):
        agg = schedule_aggregate(((CollisionParams(1.0, np.pi),) * 4,) * 2)
        assert np.abs(agg.phase).max() < 1e-12
