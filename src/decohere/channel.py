"""Collisional decoherence: microscopic collisions and the reduced map.

The physical picture: each system qubit suffers a sequence of bipartite
"collisions" with fresh environment qubits. A single collision is a
controlled unitary — the environment qubit evolves under one unitary when
the system qubit is |0> and another when it is |1>:

    U = |0><0| (x) V0  +  |1><1| (x) V1,
    V0 = |psi><0| + |psi_perp><1|,      V1 = |phi_perp><0| + |phi><1|.

Tracing out the environment leaves an exactly solvable single-qubit map: the
populations are untouched and the coherences pick up a factor whose modulus
``strength`` and argument ``phase`` are the polar parts of
``tr(xi . V1^dag V0)`` for environment state ``xi``. Collisions compose by
multiplying strengths and adding phases, so a whole history aggregates into
one (gamma, Phi) pair per qubit: off-diagonal entries of the n-qubit density
matrix get scaled by ``gamma_i`` and rotated by ``exp(+- i Phi_i)`` for each
qubit whose bra/ket bits disagree.

``AggregateDephasing`` holds those pairs, the one form in which dephasing
data travels; ``schedule_aggregate`` folds per-qubit histories into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidPartitionError, InvalidSizeError
from .linalg import DensityMatrix, _qubit_view, kron, norm_check, partial_trace

TWO_PI = 2.0 * np.pi


def _mod_2pi(x):
    """x mod 2*pi in [0, 2*pi), elementwise: the % of a tiny negative number
    can land exactly on 2*pi, which wraps to 0."""
    out = np.remainder(x, TWO_PI)
    return np.where(out == TWO_PI, 0.0, out)


@dataclass(frozen=True)
class CollisionParams:
    """Polar data of one collision: coherence shrink factor and phase kick."""

    strength: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(f"collision strength must be in [0, 1], got {self.strength}")
        if not np.isfinite(self.phase):
            raise ValueError(f"collision phase must be finite, got {self.phase}")
        object.__setattr__(self, "phase", float(_mod_2pi(self.phase)))


@dataclass(frozen=True, eq=False)
class AggregateDephasing:
    """The net per-qubit dephasing data: gamma in [0,1] and a phase."""

    gamma: np.ndarray
    phase: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=np.float64)
        phase = np.zeros_like(gamma) if self.phase is None else self.phase
        phase = np.asarray(phase, dtype=np.float64)
        if gamma.ndim != 1:
            raise InvalidSizeError("gamma must be a 1-D array")
        if phase.shape != gamma.shape:
            raise InvalidSizeError(
                f"phase shape {phase.shape} does not match gamma shape {gamma.shape}"
            )
        # Written so that NaN, which fails every comparison, is rejected too.
        if not np.all((gamma >= 0.0) & (gamma <= 1.0)):
            raise ValueError("gamma values must lie in [0, 1]")
        if not np.isfinite(phase).all():
            raise ValueError("phase values must be finite")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "phase", _mod_2pi(phase))

    @property
    def n_qubits(self) -> int:
        return self.gamma.size

    @classmethod
    def homogeneous(cls, n_qubits: int, gamma: float, phase: float = 0.0):
        return cls(np.full(n_qubits, float(gamma)), np.full(n_qubits, float(phase)))


def schedule_aggregate(histories) -> AggregateDephasing:
    """Collapse collision histories into per-qubit (gamma, phase) pairs.

    ``histories[i]`` is the ordered sequence of ``CollisionParams`` suffered
    by qubit ``i+1``, so n is ``len(histories)``. Strengths multiply in
    order from 1.0 and phases add (mod 2*pi); an empty history leaves
    gamma = 1, phase = 0.
    """
    gamma = np.ones(len(histories))
    phase = np.zeros(len(histories))
    for i, entries in enumerate(histories):
        for p in entries:
            gamma[i] *= p.strength
            phase[i] += p.phase
    return AggregateDephasing(gamma, phase)


def perp_ket(ket: np.ndarray, phase: float = 0.0) -> np.ndarray:
    """A unit ket orthogonal to the given single-qubit ket.

    For ket (a, b) this returns ``exp(i*phase) * (-conj(b), conj(a))``. The
    overall phase is physically free; it is exposed because the derived
    collision parameters rotate with it, which some constructions exploit.
    """
    ket = np.asarray(ket, dtype=np.complex128)
    if ket.shape != (2,):
        raise InvalidSizeError(f"expected a single-qubit ket of shape (2,), got {ket.shape}")
    return np.exp(1j * phase) * np.array([-np.conj(ket[1]), np.conj(ket[0])])


@dataclass(frozen=True, eq=False)
class MicroCollisionSpec:
    """Full microscopic data of one collision.

    ``psi``/``phi_ket`` are the environment kets that |0>/|1> of the system
    qubit steer the environment onto; the perpendicular partners are built
    with the caller-supplied phases, which must be finite. ``xi`` is the
    (mixed, in general) pre-collision environment state.
    """

    psi: np.ndarray
    phi_ket: np.ndarray
    xi: DensityMatrix
    psi_perp_phase: float = 0.0
    phi_perp_phase: float = 0.0

    def __post_init__(self):
        for name in ("psi_perp_phase", "phi_perp_phase"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        psi = np.asarray(self.psi, dtype=np.complex128)
        phi_ket = np.asarray(self.phi_ket, dtype=np.complex128)
        for name, ket in (("psi", psi), ("phi_ket", phi_ket)):
            if ket.shape != (2,):
                raise InvalidSizeError(f"{name} must have shape (2,), got {ket.shape}")
            norm_check(ket)
        if self.xi.n_qubits != 1:
            raise InvalidSizeError("environment state xi must be a single qubit")
        self.xi.assert_psd()
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi_ket", phi_ket)

    def v0(self) -> np.ndarray:
        """Environment unitary selected by system |0>: columns (psi, psi_perp)."""
        return np.column_stack([self.psi, perp_ket(self.psi, self.psi_perp_phase)])

    def v1(self) -> np.ndarray:
        """Environment unitary selected by system |1>: columns (phi_perp, phi)."""
        return np.column_stack([perp_ket(self.phi_ket, self.phi_perp_phase), self.phi_ket])


def build_collision_unitary(spec: MicroCollisionSpec) -> np.ndarray:
    """The 4x4 controlled collision: block-diagonal (V0, V1).

    Row/column index is (system bit, environment bit) with the system bit
    most significant. Orthonormal columns of V0 and V1 make this unitary by
    construction.
    """
    u = np.zeros((4, 4), dtype=np.complex128)
    u[:2, :2] = spec.v0()
    u[2:, 2:] = spec.v1()
    return u


def collision_params(spec: MicroCollisionSpec) -> CollisionParams:
    """Reduce a microscopic collision to its (strength, phase) pair.

    The reduced single-qubit map scales coherences by the environment
    expectation of ``V1^dag V0``; its modulus is the strength (clipped into
    [0, 1] against float fuzz at the boundary) and its argument the phase.
    """
    overlap = complex(np.trace(spec.xi.mat @ (spec.v1().conj().T @ spec.v0())))
    strength = min(abs(overlap), 1.0)
    return CollisionParams(strength, float(np.angle(overlap)))


def apply_microscopic_collision(
    rho: DensityMatrix, qubit: int, spec: MicroCollisionSpec
) -> DensityMatrix:
    """One collision, the long way: adjoin the environment, evolve, trace out.

    The environment qubit is appended as the least significant bit, the 4x4
    collision unitary acts on (system qubit, environment) via tensor
    contraction, and the environment is traced back out. Must agree with
    ``apply_dephasing`` using ``collision_params(spec)`` on the same qubit.
    """
    n = rho.n_qubits
    if not 1 <= qubit <= n:
        raise InvalidPartitionError(f"qubit {qubit} outside 1..{n}")

    full = kron(rho.mat, spec.xi.mat)  # raises CapacityError if n+1 too large
    # The environment is qubit n+1 of the joint register.
    tensor, axes = _qubit_view(full, n + 1)
    (sys_row, sys_col), (env_row, env_col) = axes[qubit], axes[n + 1]

    u4 = build_collision_unitary(spec).reshape(2, 2, 2, 2)

    tensor = np.tensordot(u4, tensor, axes=([2, 3], [sys_row, env_row]))
    tensor = np.moveaxis(tensor, [0, 1], [sys_row, env_row])
    tensor = np.tensordot(tensor, np.conj(u4), axes=([sys_col, env_col], [2, 3]))
    tensor = np.moveaxis(tensor, [-2, -1], [sys_col, env_col])

    evolved = DensityMatrix(n + 1, tensor.reshape(2 ** (n + 1), 2 ** (n + 1)))
    return partial_trace(evolved, 1 << n)  # bit n: the environment, qubit n+1


def apply_dephasing(rho: DensityMatrix, agg: AggregateDephasing) -> DensityMatrix:
    """The reduced channel: populations kept, coherences shrunk and rotated.

    Entry (r, c) of rho is multiplied by the product over qubits of 1 (bits
    agree) or ``gamma_i * exp(-i * Phi_i * (bit_r - bit_c))`` (bits differ).
    Each qubit's 2x2 factor sits on its axis pair of the tensor view; the
    factors are multiplied together in qubit order 1..n, by broadcasting,
    before the result touches rho. Each 2x2 factor is positive semidefinite
    (eigenvalues 1 +- gamma), so their Schur product is too, which is why
    dephasing preserves positivity.
    """
    n = rho.n_qubits
    if agg.n_qubits != n:
        raise InvalidSizeError(f"aggregate covers {agg.n_qubits} qubits, state has {n}")
    tensor, axes = _qubit_view(rho.mat, n)
    diff = np.array([[0, -1], [1, 0]])  # bit_r - bit_c
    factor = np.ones((1,) * (2 * n), dtype=np.complex128)
    for q, (g, ph) in enumerate(zip(agg.gamma, agg.phase), start=1):
        shape = [1] * (2 * n)
        for axis in axes[q]:
            shape[axis] = 2
        factor = factor * np.where(diff == 0, 1.0, g * np.exp(-1j * ph * diff)).reshape(shape)
    # Dephasing keeps the invariants of the validated rho, so no re-check.
    return DensityMatrix._unchecked(n, (tensor * factor).reshape(rho.dim, rho.dim))
