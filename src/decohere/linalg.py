"""Dense complex linear algebra over qubit registers.

Conventions used everywhere in this package:

* Qubit indices are 1-based. Qubit 1 is the *most significant* bit of a
  computational-basis index, so for three qubits the basis ket ``|q1 q2 q3>``
  has index ``q1*4 + q2*2 + q3``.
* Operations on single qubits of a matrix work on its tensor view of rank
  2n (one length-2 axis per qubit per index) from ``_qubit_view``: qubit q
  sits on axes ``(q-1, n+q-1)``, its row and its column.
* A set of qubits is an ``int`` bitmask: bit q-1 set means qubit q is in
  the set, so bit i names axes ``(i, n+i)`` of the tensor view. Cuts,
  ``partial_trace`` and ``partial_transpose`` share one check of such a
  mask: an integer naming a nonempty proper subset of the register.
* Matrices are plain ``numpy`` complex128 arrays; state vectors are 1-D
  arrays of length ``2**n``.

Spectra come from ``np.linalg.eigvalsh`` on a validated density matrix or
on the part of its partial transpose that holds nonzeros. The dense oracle
in ``negativity`` finds a matrix's nonzeros once for all cuts, gathers each
cut's live block straight from the matrix through the bit swap that
``partial_transpose`` performs (and calls ``partial_transpose`` only when
every index is live), solves blocks of equal size in one stacked call and
pads the rest with exact zeros. A partial transpose only moves entries, so
its Hermiticity defect is exactly that of the matrix it came from.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import (
    CapacityError,
    InvalidPartitionError,
    InvalidSizeError,
    NormalizationError,
    SymmetryViolationError,
)
from .tolerances import (
    HERMITICITY_TOL,
    MAX_QUBITS,
    NORMALIZATION_TOL,
    PSD_FLOOR,
    TRACE_TOL,
)


def _as_complex(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(out).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return out


def _check_qubit_mask(n_qubits: int, mask: int) -> tuple[int, int]:
    """Validate a set of the qubits of an ``n_qubits`` register, given as its
    bitmask (bit q-1 set means qubit q is in the set): both integers, the set
    nonempty and proper. Returns ``(n_qubits, mask)`` as ints and raises
    InvalidPartitionError otherwise."""
    try:
        n, mask = operator.index(n_qubits), operator.index(mask)
        proper = 0 < mask < 2**n - 1
    except TypeError:
        proper = False
    if not proper:
        raise InvalidPartitionError(
            f"qubit mask {mask!r} is not a nonempty proper subset of {n_qubits!r} qubits"
        )
    return n, mask


class DensityMatrix:
    """A validated n-qubit density matrix.

    The public constructor is the only place the invariants are checked:
    an integer qubit count from 1 to the capacity, then finite entries,
    shape, Hermiticity within ``HERMITICITY_TOL`` and unit trace.
    ``to_density``, which checks its ket first, and ``apply_dephasing``,
    which keeps the diagonal bit for bit and scales each (r, c)/(c, r) pair
    by conjugate factors of modulus <= 1, keep the invariants of validated
    input and skip the re-check via ``_unchecked``.
    A partial trace sums entries and a collision multiplies matrices, so
    their results are checked again.

    Every map here preserves positive semidefiniteness, so its eigensolve
    runs only when a trust boundary (a user-supplied environment state, a
    test) calls :meth:`assert_psd`.
    """

    __slots__ = ("n_qubits", "mat")

    def __init__(self, n_qubits: int, mat):
        try:
            n_qubits = operator.index(n_qubits)
        except TypeError as exc:
            raise InvalidSizeError(f"n_qubits must be an integer, got {n_qubits!r}") from exc
        if n_qubits < 1:
            raise InvalidSizeError(f"a density matrix needs at least 1 qubit, got {n_qubits}")
        if n_qubits > MAX_QUBITS:
            raise CapacityError(
                f"{n_qubits} qubits exceeds the dense capacity of {MAX_QUBITS}"
            )
        mat = _as_complex(mat)
        dim = 2**n_qubits
        if mat.shape != (dim, dim):
            raise ValueError(
                f"expected a {dim}x{dim} matrix for {n_qubits} qubits, got {mat.shape}"
            )
        require_hermitian(mat)
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise NormalizationError(f"density matrix trace {tr} differs from 1")
        self.n_qubits = n_qubits
        self.mat = mat

    @classmethod
    def _unchecked(cls, n_qubits: int, mat: np.ndarray) -> "DensityMatrix":
        """Wrap a matrix known to keep the invariants (see the class docstring)."""
        rho = cls.__new__(cls)
        rho.n_qubits = n_qubits
        rho.mat = mat
        return rho

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def assert_psd(self) -> None:
        """Raise NormalizationError unless all eigenvalues are >= PSD_FLOOR."""
        smallest = np.linalg.eigvalsh(self.mat)[0]
        if smallest < PSD_FLOOR:
            raise NormalizationError(
                f"density matrix has negative eigenvalue {smallest:.3e}"
            )


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two square matrices.

    The result dimension is capped at ``2**MAX_QUBITS``; growing past that
    raises :class:`CapacityError` instead of silently allocating gigabytes.
    """
    a = _as_complex(a)
    b = _as_complex(b)
    if a.shape[0] * b.shape[0] > 2**MAX_QUBITS:
        raise CapacityError(
            f"kron result dimension {a.shape[0] * b.shape[0]} exceeds 2**{MAX_QUBITS}"
        )
    return np.kron(a, b)


def require_hermitian(a: np.ndarray) -> None:
    defect = np.abs(a - a.conj().T).max()
    if defect > HERMITICITY_TOL:
        raise SymmetryViolationError(
            f"matrix is not Hermitian within {HERMITICITY_TOL:.1e}: defect {defect:.3e}"
        )


def _qubit_view(a: np.ndarray, n_qubits: int) -> tuple[np.ndarray, dict[int, tuple[int, ...]]]:
    """View a ket or a square matrix over ``n_qubits`` qubits as a tensor with
    one length-2 axis per qubit per index, and name each qubit's axes.

    Each flat index splits into its bits, qubit 1 the most significant, so
    qubit q owns axis q-1 of a ket and axes (q-1, n+q-1), its row and its
    column, of a matrix. Returns the view and ``{q: axes of qubit q}``.
    """
    n = n_qubits
    axes = {q: tuple(k * n + q - 1 for k in range(a.ndim)) for q in range(1, n + 1)}
    return a.reshape((2,) * (a.ndim * n)), axes


def partial_trace(rho: DensityMatrix, traced: int) -> DensityMatrix:
    """Trace out the qubits of the mask ``traced`` (bit q-1 set means qubit
    q), keeping the rest in original order.

    Ties the column axis n+i of each set bit i to its row axis i on the
    tensor view, in a single einsum.
    """
    n, traced = _check_qubit_mask(rho.n_qubits, traced)
    tensor, _ = _qubit_view(rho.mat, n)
    # Tying a qubit's column subscript to its row subscript sums over that
    # qubit's diagonal.
    subscripts = list(range(2 * n))
    kept = []
    for i in range(n):
        if traced >> i & 1:
            subscripts[n + i] = i
        else:
            kept.append(i)
    reduced = np.einsum(tensor, subscripts, kept + [n + i for i in kept])

    m = len(kept)
    return DensityMatrix(m, reduced.reshape(2**m, 2**m))


def partial_transpose(rho: DensityMatrix, transposed: int) -> np.ndarray:
    """Transpose only the indices of the qubits of the mask ``transposed``
    (bit q-1 set means qubit q).

    Swaps the row axis i and column axis n+i of each set bit i on the tensor
    view, so entry ``(r, c)`` of the result is taken from ``(r', c')`` where
    the bits of ``r`` and ``c`` on the transposed qubits are swapped. The
    result is a new array, never a view of ``rho``. The output stays
    Hermitian but is generally not positive — its negative eigenvalues are
    the entanglement witnesses everything downstream consumes.
    """
    n, transposed = _check_qubit_mask(rho.n_qubits, transposed)
    tensor, _ = _qubit_view(rho.mat, n)
    order = list(range(2 * n))
    for i in range(n):
        if transposed >> i & 1:
            order[i], order[n + i] = n + i, i
    return tensor.transpose(order).reshape(rho.dim, rho.dim)


def outer(psi: np.ndarray) -> np.ndarray:
    """Outer product |psi><psi| of a 1-D state vector."""
    psi = np.asarray(psi, dtype=np.complex128)
    return np.outer(psi, psi.conj())


def norm_check(psi: np.ndarray) -> None:
    nrm = float(np.vdot(psi, psi).real)
    # Written so that a NaN norm, which fails every comparison, is rejected.
    if not abs(nrm - 1.0) <= NORMALIZATION_TOL:
        raise NormalizationError(f"state vector squared norm {nrm} differs from 1")
