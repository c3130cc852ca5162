"""Entanglement via the partial-transpose spectrum.

A state is entangled across a bipartite cut whenever its partial transpose
has a negative eigenvalue (NPT); a necessary condition for full n-partite
distillability is NPT across *every* cut. This module enumerates cuts,
computes the exact PT spectrum (the oracle), evaluates the closed-form
predictions available for the GHZ, W, and short linear-cluster families, and
locates critical dephasing strengths by bisection. The bisection reads the
oracle's NPT verdict without running it: homogeneous dephasing of the PT is
a fixed mask, and a Cholesky factorization settles the sign of the smallest
eigenvalue (see ``critical_gamma``).

Two scalar summaries of a PT spectrum are reported side by side:

* ``min_eigenvalue`` — the single most negative eigenvalue (signed);
* ``negativity_sum`` — the sum of |negative eigenvalues|, the standard
  negativity.

They coincide when exactly one eigenvalue is negative (GHZ always; W in
every regime we have probed; cluster chains on their middle cut), but they
genuinely differ on the outer cuts of a 3-qubit cluster chain, where the
negativity is split across two eigenvalues. The GHZ and W closed forms below
predict the signed minimum eigenvalue; the cluster closed form predicts the
negativity sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import AggregateDephasing
from .errors import BracketError, FormulaUnavailableError, InvalidPartitionError, InvalidSizeError
from .linalg import DensityMatrix, QubitSubset, _qubit_view, partial_transpose
from .states import Family, StateFamily, make_state, to_density
from .tolerances import BISECTION_WIDTH, PSD_FLOOR


@dataclass(frozen=True)
class BipartiteCut:
    """A partition of an n-qubit register into two nonempty groups.

    Canonical form: ``p1`` is the side containing qubit 1, so a cut and its
    complement are one object. Construction canonicalizes automatically.
    """

    n_qubits: int
    p1: QubitSubset

    def __post_init__(self):
        if self.p1.n_qubits != self.n_qubits:
            raise InvalidPartitionError(
                f"subset over {self.p1.n_qubits} qubits used in a {self.n_qubits}-qubit cut"
            )
        size = len(self.p1)
        if size == 0 or size == self.n_qubits:
            raise InvalidPartitionError("cut sides must both be nonempty")
        if 1 not in self.p1.members:
            object.__setattr__(self, "p1", self.p1.complement())

    @classmethod
    def from_members(cls, n_qubits: int, members) -> "BipartiteCut":
        return cls(n_qubits, QubitSubset(n_qubits, frozenset(members)))

    @classmethod
    def from_cli_bitmask(cls, n_qubits: int, bitmask: int) -> "BipartiteCut":
        """Decode the external encoding: bit (i-1) set means qubit i in P1."""
        if not 0 < bitmask < 2**n_qubits - 1:
            raise InvalidPartitionError(
                f"cut bitmask {bitmask} does not describe a proper bipartition "
                f"of {n_qubits} qubits"
            )
        members = frozenset(i + 1 for i in range(n_qubits) if bitmask >> i & 1)
        return cls(n_qubits, QubitSubset(n_qubits, members))

    @property
    def p2(self) -> QubitSubset:
        return self.p1.complement()

    @property
    def cli_bitmask(self) -> int:
        mask = 0
        for q in self.p1.members:
            mask |= 1 << (q - 1)
        return mask

    def human(self) -> str:
        """Render as e.g. ``1,3|2``."""
        left = ",".join(str(q) for q in self.p1.sorted_members())
        right = ",".join(str(q) for q in self.p2.sorted_members())
        return f"{left}|{right}"


@dataclass(frozen=True)
class NegativityReport:
    """PT-spectrum summary for one cut."""

    cut: BipartiteCut
    min_eigenvalue: float
    negativity_sum: float

    @property
    def npt(self) -> bool:
        """The cut's verdict: NPT iff the minimum eigenvalue is below ``PSD_FLOOR``."""
        return self.min_eigenvalue < PSD_FLOOR


@dataclass(frozen=True)
class DistillabilityVerdict:
    """All-cuts NPT summary: the necessary condition for distillability."""

    all_cuts_npt: bool
    ppt_cuts: tuple[BipartiteCut, ...]
    worst_cut: BipartiteCut


def enumerate_cuts(n_qubits: int) -> list[BipartiteCut]:
    """All 2**(n-1) - 1 canonical cuts, ascending by external bitmask.

    Canonical cuts keep qubit 1 in P1, so their bitmasks are exactly the odd
    integers below the all-qubits mask.
    """
    if n_qubits < 2:
        raise InvalidSizeError(f"cuts need at least 2 qubits, got {n_qubits}")
    full = 2**n_qubits - 1
    return [
        BipartiteCut.from_cli_bitmask(n_qubits, mask) for mask in range(1, full, 2)
    ]


def negativity_oracle(rho: DensityMatrix, cut: BipartiteCut) -> NegativityReport:
    """Exact PT spectrum summary for one cut.

    Eigenvalues below ``PSD_FLOOR`` count as negative; anything in
    ``[PSD_FLOOR, 0]`` is eigensolver noise and treated as zero.
    """
    eigs = np.linalg.eigvalsh(partial_transpose(rho, cut.p1))
    negatives = eigs[eigs < PSD_FLOOR]
    return NegativityReport(
        cut=cut,
        min_eigenvalue=float(eigs[0]),
        negativity_sum=float(-negatives.sum()) if negatives.size else 0.0,
    )


def ghz_negativity_formula(agg: AggregateDephasing) -> float:
    """Most negative PT eigenvalue of a dephased GHZ state: any cut gives
    the same value, -(1/2) * prod(gamma_i)."""
    return -0.5 * float(np.prod(agg.gamma))


def w_negativity_formula(agg: AggregateDephasing, cut: BipartiteCut) -> float:
    """Most negative PT eigenvalue of a dephased W state for a given cut:
    -(1/N) * sqrt(sum of gamma^2 over P1 * sum of gamma^2 over P2)."""
    if agg.n_qubits != cut.n_qubits:
        raise InvalidSizeError(
            f"aggregate covers {agg.n_qubits} qubits, cut is over {cut.n_qubits}"
        )
    g2 = agg.gamma**2
    left = sum(g2[q - 1] for q in cut.p1.members)
    right = sum(g2[q - 1] for q in cut.p2.members)
    return -float(np.sqrt(left * right)) / cut.n_qubits


def _edge_negativity(g_a: float, g_b: float) -> float:
    """Negativity carried by one entangled edge of a cluster chain."""
    return (g_a * g_b + g_a + g_b - 1.0) / 4.0


def _chain_negativity(g1: float, g2: float, g3: float) -> float:
    """Three-qubit chain term for the middle cut of a 3-qubit cluster."""
    return ((1.0 + g1) * g2 * (1.0 + g3) - (1.0 - g1) * (1.0 - g3)) / 8.0


def cluster_negativity_formula(agg: AggregateDephasing, cut: BipartiteCut) -> float:
    """Closed-form negativity of a dephased linear cluster state (2 or 3 qubits).

    Returns the *negativity* — the sum of |negative PT eigenvalues| — which
    is zero exactly when the cut is PPT. This is not always the magnitude of
    the single most negative eigenvalue: on the outer cuts of a 3-qubit
    chain the negativity is split across two eigenvalues. On the middle cut
    and for 2 qubits the PT has at most one negative eigenvalue, so there
    the two readings agree.
    """
    n = cut.n_qubits
    if agg.n_qubits != n:
        raise InvalidSizeError(
            f"aggregate covers {agg.n_qubits} qubits, cut is over {n}"
        )
    g = agg.gamma
    if n == 2:
        return max(_edge_negativity(g[0], g[1]), 0.0)
    if n == 3:
        members = cut.p1.members
        if members == {1}:
            return max(_edge_negativity(g[0], g[1]), 0.0)
        if members == {1, 2}:
            return max(_edge_negativity(g[1], g[2]), 0.0)
        # middle cut {1,3}|{2}
        return max(
            _edge_negativity(g[0], g[1]),
            _edge_negativity(g[1], g[2]),
            _chain_negativity(g[0], g[1], g[2]),
            0.0,
        )
    raise FormulaUnavailableError(
        f"no closed-form cluster negativity for {n} qubits; use negativity_oracle"
    )


def closed_form(
    family: StateFamily, agg: AggregateDephasing, cut: BipartiteCut
) -> tuple[float, str]:
    """Dispatch to the family's closed form.

    Returns ``(value, predicts)`` where ``predicts`` names the oracle
    quantity the formula is a prediction of: ``"min_eigenvalue"`` (signed)
    for GHZ and W, ``"negativity_sum"`` for the cluster chain.

    Raises FormulaUnavailableError when the family/size has no closed form.
    """
    if family.kind is Family.GHZ:
        return ghz_negativity_formula(agg), "min_eigenvalue"
    if family.kind is Family.W:
        return w_negativity_formula(agg, cut), "min_eigenvalue"
    return cluster_negativity_formula(agg, cut), "negativity_sum"


def distillability_check(rho: DensityMatrix) -> DistillabilityVerdict:
    """Check the all-cuts-NPT necessary condition for n-partite distillability."""
    reports = [negativity_oracle(rho, cut) for cut in enumerate_cuts(rho.n_qubits)]
    ppt = tuple(r.cut for r in reports if not r.npt)
    worst = max(reports, key=lambda r: r.min_eigenvalue).cut
    return DistillabilityVerdict(
        all_cuts_npt=not ppt,
        ppt_cuts=ppt,
        worst_cut=worst,
    )


def _differing_qubits(n_qubits: int) -> np.ndarray:
    """``d[r, c]``: the number of qubits whose bits differ between basis
    indices r and c, built one qubit at a time on the tensor view."""
    n = n_qubits
    d = np.zeros((2**n, 2**n), dtype=np.uint8)
    tensor, axes = _qubit_view(d, n)
    differ = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    for row, col in axes.values():
        shape = [1] * (2 * n)
        shape[row] = shape[col] = 2
        tensor += differ.reshape(shape)
    return d


def _homogeneous_npt(family: StateFamily, cut: BipartiteCut) -> Callable[[float], bool]:
    """The oracle's NPT verdict on ``cut`` as a function of a homogeneous,
    phase-free gamma, without dephasing the state or solving for eigenvalues.

    Such dephasing multiplies entry (r, c) by ``gamma**d[r, c]``, with ``d``
    from :func:`_differing_qubits`. A partial transpose swaps row and column
    bits of the transposed qubits, which leaves ``d`` as it is, so the PT of
    the dephased state is that same mask times the PT of the pure state,
    built once here. The mask is 1 on the diagonal, so the shift by
    ``-PSD_FLOOR * I`` is applied once, before masking. The minimum
    eigenvalue is below ``PSD_FLOOR`` exactly when the shifted matrix is not
    positive definite, i.e. when its Cholesky factorization fails; the shift
    also keeps the exact zero eigenvalues of a PSD partial transpose from
    failing it.
    """
    pt = partial_transpose(to_density(make_state(family)), cut.p1)
    # Every family ket is real, so its PT is real symmetric.
    assert not pt.imag.any(), f"{family.kind.value} partial transpose is not real"
    shifted = np.ascontiguousarray(pt.real)
    shifted.flat[:: shifted.shape[0] + 1] -= PSD_FLOOR
    differ = _differing_qubits(family.n_qubits)
    powers = np.arange(family.n_qubits + 1)

    def is_npt(gamma: float) -> bool:
        try:
            np.linalg.cholesky((gamma**powers)[differ] * shifted)
        except np.linalg.LinAlgError:
            return True
        return False

    return is_npt


def critical_gamma(
    family: StateFamily,
    cut: BipartiteCut,
    lo: float,
    hi: float,
) -> float:
    """Bisect for the homogeneous gamma where a cut switches NPT <-> PPT.

    All qubits share one gamma (no phase — phases never move eigenvalues).
    The predicate is the oracle's NPT verdict for the given cut, so this
    works for any family and size the oracle can handle, including cluster
    chains too long for a closed form. Each step reaches that verdict with
    one mask multiply and one Cholesky factorization of the shifted partial
    transpose instead of a dephasing and an eigensolve (see
    :func:`_homogeneous_npt`). ``lo`` and ``hi`` must straddle the
    transition or BracketError is raised.
    """
    if cut.n_qubits != family.n_qubits:
        raise InvalidPartitionError(
            f"cut is over {cut.n_qubits} qubits, family has {family.n_qubits}"
        )
    if not 0.0 <= lo < hi <= 1.0:
        raise BracketError(f"bracket [{lo}, {hi}] is not an ordered subinterval of [0, 1]")

    is_npt = _homogeneous_npt(family, cut)
    lo_npt = is_npt(lo)
    if lo_npt == is_npt(hi):
        raise BracketError(
            f"cut {cut.human()} is {'NPT' if lo_npt else 'PPT'} at both ends of "
            f"[{lo}, {hi}]; no transition to bisect"
        )

    a, b = float(lo), float(hi)
    while b - a > BISECTION_WIDTH:
        mid = 0.5 * (a + b)
        if is_npt(mid) == lo_npt:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
