"""Constructors for the three multiqubit families under study.

All three are pure states on ``n >= 2`` qubits, returned as 1-D amplitude
arrays in the computational basis (qubit 1 = most significant bit):

* GHZ: equal superposition of the all-zeros and all-ones kets.
* W: equal superposition of the ``n`` single-excitation kets.
* Linear cluster: controlled-Z chain applied to ``|+>^n`` — every amplitude
  has modulus ``2**(-n/2)``, with a sign flip for each adjacent pair of 1s in
  the bitstring.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidSizeError
from .linalg import DensityMatrix, norm_check, outer
from .tolerances import MAX_QUBITS


class Family(enum.Enum):
    GHZ = "ghz"
    W = "w"
    CLUSTER = "cluster"


@dataclass(frozen=True)
class StateFamily:
    """A family tag plus a qubit count — enough to build the state."""

    kind: Family
    n_qubits: int

    def __post_init__(self):
        if not isinstance(self.kind, Family):
            raise TypeError(f"kind must be a Family, got {self.kind!r}")
        try:
            object.__setattr__(self, "n_qubits", operator.index(self.n_qubits))
        except TypeError as exc:
            raise InvalidSizeError(f"n_qubits must be an integer, got {self.n_qubits!r}") from exc
        if self.n_qubits < 2:
            raise InvalidSizeError(
                f"{self.kind.value} states need at least 2 qubits, got {self.n_qubits}"
            )
        if self.n_qubits > MAX_QUBITS:
            raise CapacityError(
                f"{self.n_qubits} qubits exceeds the dense capacity of {MAX_QUBITS}"
            )


def make_ghz(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2)."""
    n = StateFamily(Family.GHZ, n).n_qubits
    psi = np.zeros(2**n, dtype=np.complex128)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return psi


def make_w(n: int) -> np.ndarray:
    """Equal superposition of all weight-1 basis kets, 1/sqrt(n) each."""
    n = StateFamily(Family.W, n).n_qubits
    psi = np.zeros(2**n, dtype=np.complex128)
    for q in range(n):
        psi[1 << q] = 1.0 / np.sqrt(n)
    return psi


def make_cluster(n: int) -> np.ndarray:
    """Linear cluster state: CZ on each adjacent pair of |+>^n.

    Since CZ is diagonal, the amplitude of basis index ``b`` is just
    ``2**(-n/2)`` times ``(-1)**(number of adjacent 11 pairs in b)``. Qubit
    adjacency maps to bit adjacency under the MSB-first convention, so
    ``b & (b >> 1)`` marks exactly the adjacent pairs.
    """
    n = StateFamily(Family.CLUSTER, n).n_qubits
    scale = 2.0 ** (-n / 2.0)
    psi = np.empty(2**n, dtype=np.complex128)
    for b in range(2**n):
        pairs = (b & (b >> 1)).bit_count()
        psi[b] = scale * (-1.0) ** pairs
    return psi


def make_state(family: StateFamily) -> np.ndarray:
    if family.kind is Family.GHZ:
        return make_ghz(family.n_qubits)
    if family.kind is Family.W:
        return make_w(family.n_qubits)
    return make_cluster(family.n_qubits)


def to_density(psi: np.ndarray) -> DensityMatrix:
    """Outer product of a normalized state vector, as a DensityMatrix.

    Only the ket is checked, before the dim x dim product is allocated: it
    must be 1-D, with at least 2 amplitudes.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1 or psi.size < 2:
        raise InvalidSizeError(
            f"expected a 1-D ket of at least 2 amplitudes, got shape {psi.shape}"
        )
    norm_check(psi)
    n = int(psi.size).bit_length() - 1
    if 2**n != psi.size:
        raise InvalidSizeError(f"amplitude count {psi.size} is not a power of 2")
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the dense capacity of {MAX_QUBITS}")
    return DensityMatrix._unchecked(n, outer(psi))
