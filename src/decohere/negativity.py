"""Entanglement via the partial-transpose spectrum.

A state is entangled across a bipartite cut whenever its partial transpose
has a negative eigenvalue (NPT); a necessary condition for full n-partite
distillability is NPT across *every* cut. This module enumerates cuts,
computes the exact PT spectrum (the oracle), evaluates the closed-form
negativity of cluster chains of 2 and 3 qubits, and gives the critical
dephasing strengths of cluster cuts as exact roots.

A cut is its canonical bitmask (``BipartiteCut``), the qubit-set
convention of ``linalg``: enumeration, CSV rows, the structured spectra and
the dense partial transpose all read the mask, and the W kernel reads the
sides' qubits off it.

The oracle is one call, ``negativity_reports(state, cuts)``, which checks
the state and every cut once (``negativity_oracle`` is its one-cut case).
It has two paths, chosen by what it is given. Each path gives, per cut,
the PT eigenvalues it computes and the count of the others, each >= 0,
that it leaves out: zeros are counted, not stored. A ``DensityMatrix``
gets its partial transpose eigensolved only on the indices whose row or
column holds a nonzero; every other index is an exact zero eigenvalue, so
a dephased GHZ PT is solved as a 4 x 4 matrix and a W PT as one of size
1 + n + |A||B|.
One pass over the nonzeros of rho serves every cut: each cut's live
indices are read through the PT's bit swap, only that block is gathered
from rho, and blocks of equal size are solved in one stacked ``eigvalsh``
call. A family state under an ``AggregateDephasing`` gets its spectrum
written down from the family's structure, with no 2^n x 2^n matrix (Hein,
Eisert, Briegel, PRA 69, 062311 (2004)): a dephased graph state stays
diagonal in the graph-state basis and the PT only flips stabilizer signs,
so the cluster spectrum is one Walsh-Hadamard transform of all 2^n values,
run in autosort order with the floats of an in-place butterfly. The GHZ
spectrum is {1/2, 1/2, +-prod(gamma)/2} and 2^n - 4 zeros, so a GHZ report
takes O(1) memory. The W PT is block diagonal, and its only eigenvalue that
can be negative is -(1/n) sqrt(sum_A gamma^2 * sum_B gamma^2); its Gram
blocks are positive semidefinite, so a W report reads that value and its
partner, takes O(n) memory and no eigensolve. These two kernels are the
GHZ and W closed forms, so rows report no separate formula for them. The
structured path evaluates all the cuts of a point in blocked batched
kernel calls, each block summarized after one sort. At homogeneous gamma a
cluster cut turns NPT where its longest run of m crossing edges does, at
the exact smallest root in (0, 1) of one integer polynomial; GHZ and W
turn NPT at gamma = 0 (NPT for all gamma > 0).

Two scalar summaries of a PT spectrum are reported side by side:

* ``min_eigenvalue`` — the single most negative eigenvalue (signed);
* ``negativity_sum`` — the sum of |negative eigenvalues|, the standard
  negativity (Vidal, Werner, PRA 65, 032314 (2002)).

They coincide when exactly one eigenvalue is negative (GHZ and W always;
cluster chains on their middle cut), but they genuinely differ on the outer
cuts of a 3-qubit cluster chain, where the negativity is split across two
eigenvalues. The cluster closed form below predicts the negativity sum.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .channel import AggregateDephasing
from .errors import CapacityError, FormulaUnavailableError, InvalidPartitionError, InvalidSizeError
from .linalg import DensityMatrix, _check_qubit_mask, partial_transpose
from .states import Family, StateFamily
from .tolerances import MAX_QUBITS, PSD_FLOOR


@dataclass(frozen=True)
class BipartiteCut:
    """A partition of an n-qubit register into two nonempty groups, held as
    its external bitmask: bit (i-1) set means qubit i is in P1.

    Canonical form: P1 is the side containing qubit 1, so the mask is odd
    and a cut and its complement are one object: ``BipartiteCut(3, 0b110)``
    is ``1|2,3``, mask 1.
    """

    n_qubits: int
    cli_bitmask: int

    def __post_init__(self):
        n, mask = _check_qubit_mask(self.n_qubits, self.cli_bitmask)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "cli_bitmask", mask if mask & 1 else (2**n - 1) ^ mask)

    @classmethod
    def from_members(cls, n_qubits: int, members) -> "BipartiteCut":
        """The cut with the 1-based qubits ``members`` on one side; a
        repeated member counts once."""
        mask = 0
        for q in members:
            try:
                inside = 1 <= (q := operator.index(q)) <= operator.index(n_qubits)
            except TypeError:
                inside = False
            if not inside:
                raise InvalidPartitionError(f"qubit {q!r} is not one of 1..{n_qubits!r}")
            mask |= 1 << (q - 1)
        return cls(n_qubits, mask)

    def _side(self, bit: int) -> list[int]:
        """The qubits of P1 (``bit`` 1) or P2 (``bit`` 0), ascending."""
        return [q for q in range(1, self.n_qubits + 1) if self.cli_bitmask >> (q - 1) & 1 == bit]

    def human(self) -> str:
        """Render as e.g. ``1,3|2``: both sides from one pass over the mask."""
        sides, mask = ([], []), self.cli_bitmask
        for q in range(1, self.n_qubits + 1):
            sides[mask & 1].append(str(q))
            mask >>= 1
        return ",".join(sides[1]) + "|" + ",".join(sides[0])


@dataclass(frozen=True)
class NegativityReport:
    """PT-spectrum summary for one cut."""

    cut: BipartiteCut
    min_eigenvalue: float
    negativity_sum: float

    @property
    def npt(self) -> bool:
        """NPT iff the minimum PT eigenvalue is below ``PSD_FLOOR``."""
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
    integers below the all-qubits mask. Past ``MAX_QUBITS`` it raises
    CapacityError before building any cut: the list doubles per qubit.
    """
    try:
        n_qubits = operator.index(n_qubits)
    except TypeError as exc:
        raise InvalidSizeError(f"n_qubits must be an integer, got {n_qubits!r}") from exc
    if n_qubits < 2:
        raise InvalidSizeError(f"cuts need at least 2 qubits, got {n_qubits}")
    if n_qubits > MAX_QUBITS:
        raise CapacityError(f"{n_qubits} qubits exceeds the cut capacity of {MAX_QUBITS}")
    return [BipartiteCut(n_qubits, mask) for mask in range(1, 2**n_qubits - 1, 2)]


def _reports(cuts, spectra: np.ndarray, left_out: int) -> list[NegativityReport]:
    """Summarize a block of PT spectra, row r that of ``cuts[r]`` less
    ``left_out`` values >= 0 it does not store: exact zeros, or W Gram
    eigenvalues beside a stored value <= 0. Values below ``PSD_FLOOR``
    count as negative, those in ``[PSD_FLOOR, 0]`` as rounding noise. One
    sort serves the block; each row's negatives are the prefix of its
    sorted row, summed as one slice (a one-row call's sum). The minimum is
    the row's, or 0.0 where that is >= 0 and values were left out; a zero
    minimum is always 0.0, never -0.0 (adding 0.0 changes nothing else)."""
    ordered = np.sort(spectra, axis=1)
    counts = (ordered < PSD_FLOOR).sum(axis=1).tolist()
    lowest = ordered[:, 0]
    minima = ((np.minimum(lowest, 0.0) if left_out else lowest) + 0.0).tolist()
    return [
        NegativityReport(cut, low, float(-row[:c].sum()) if c else 0.0)
        for cut, row, c, low in zip(cuts, ordered, counts, minima)
    ]


def _ghz_spectrum(gamma: np.ndarray, cuts) -> tuple[np.ndarray, int]:
    """The PT couples |0...0> and |1...1> only through the pair (1_A 0_B,
    0_A 1_B), whose block has zero diagonal: {1/2, 1/2, +-prod(gamma)/2},
    the same on every cut, and 2^n - 4 zeros, counted, not stored. A GHZ
    report takes O(1) memory and no eigensolve."""
    out = np.empty((len(cuts), 4))
    half = 0.5 * np.prod(gamma)
    out[:] = 0.5, 0.5, half, -half
    return out, 2**gamma.size - 4


def _w_sides(gamma: np.ndarray, cut: BipartiteCut) -> list[np.ndarray]:
    """The gammas of P1 and of P2 of ``cut``, each in qubit order."""
    return [gamma[[q - 1 for q in cut._side(bit)]] for bit in (1, 0)]


def _w_spectrum(gamma: np.ndarray, cuts) -> tuple[np.ndarray, int]:
    """The two eigenvalues of the W PT that can be negative, +-(1/n)
    sqrt(sum_A gamma^2 * sum_B gamma^2), and the 2^n - 2 others, counted,
    not stored. A W report takes O(n) memory and no eigensolve.

    The PT is block diagonal: the Gram blocks G_AA/n and G_BB/n on the
    single excitations, G_ij = gamma_i gamma_j, G_ii = 1; the arrow block on
    span{|0...0>, |e_i + e_j> : i in A, j in B}, whose only nonzero
    eigenvalues are the pair above; and zeros. For gamma in [0, 1], G =
    diag(1 - gamma^2) + gamma gamma^T is a sum of two positive
    semidefinite matrices (a nonnegative diagonal and a rank-one outer
    product), so every Gram eigenvalue is >= 0 >= -arrow/n: none is below
    the pair's minimum or counts towards the negativity sum, and the report
    of the whole spectrum is that of the pair with 2^n - 2 values >= 0 left
    out. Only full-spectrum comparisons compute the Gram eigenvalues
    (``_w_gram_spectrum``)."""
    n = gamma.size
    out = np.empty((len(cuts), 2))
    for row, cut in zip(out, cuts):
        sides = _w_sides(gamma, cut)
        arrow = np.sqrt(np.sum(sides[0] ** 2) * np.sum(sides[1] ** 2))
        row[:] = arrow / n, (-arrow) / n
    return out, 2**n - 2


def _w_gram_spectrum(gamma: np.ndarray, cuts) -> np.ndarray:
    """The n Gram-block eigenvalues of each cut's W PT that ``_w_spectrum``
    leaves out, eigvalsh of G_AA then of G_BB, over n; a (k, n) array."""
    n = gamma.size
    out = np.empty((len(cuts), n))
    for row, cut in zip(out, cuts):
        blocks = []
        for side in _w_sides(gamma, cut):
            gram = np.outer(side, side)
            np.fill_diagonal(gram, 1.0)
            blocks.append(np.linalg.eigvalsh(gram))
        row[:] = np.concatenate(blocks) / n
    return out


def _crossing_edges(cuts, n_qubits: int) -> np.ndarray:
    """Which chain edges cross each cut: entry [r, i-1] is True iff qubits i
    and i+1 lie on different sides of ``cuts[r]``. Bit i-1 of ``m ^ m >> 1``
    compares bits i-1 and i of the mask m. The masks are int64, so n <= 63;
    the callers stop at ``MAX_QUBITS`` (kernel) or at 3 (closed form)."""
    flips = np.array([c.cli_bitmask ^ c.cli_bitmask >> 1 for c in cuts], dtype=np.int64)
    return (flips[:, None] >> np.arange(n_qubits - 1) & 1).astype(bool)


def _cluster_weights(gamma: np.ndarray, cuts) -> tuple[np.ndarray, np.ndarray]:
    """The stabilizer weights f of ``_cluster_spectrum`` on each of the k
    ``cuts`` at the one per-qubit ``gamma``, and a spare buffer, two flat
    arrays of k 2^n values. f is grown one qubit at a time in the two
    buffers used in turn: appending s_{i+1} as the lowest bit, f(.., s_i, 1)
    is f(.., s_i) times gamma_{i+1}, or times signed[r, i-1] when s_i = 1.
    Negating a factor is exact, so each value is the plain sequential
    product with its crossing signs, and at gamma = 1 exactly the sign."""
    k, n = len(cuts), gamma.size
    # signed[r, i-1] is gamma_{i+1}, negated if edge (i, i+1) crosses cuts[r]
    signed = np.where(_crossing_edges(cuts, n), -gamma[1:], gamma[1:])
    f, spare = np.empty(k << n), np.empty(k << n)
    f[: 2 * k].reshape(k, 2)[:] = 1.0, gamma[0]
    for i in range(1, n):
        pairs, grown = f[: k << i].reshape(k, -1, 2), spare[: k << (i + 1)].reshape(k, -1, 2, 2)
        grown[..., 0] = pairs
        np.multiply(pairs[:, :, 0], gamma[i], out=grown[:, :, 0, 1])
        np.multiply(pairs[:, :, 1], signed[:, i - 1, None], out=grown[:, :, 1, 1])
        f, spare = spare, f
    return f, spare


def _walsh_hadamard(f: np.ndarray, spare: np.ndarray, n: int) -> np.ndarray:
    """The scaled Walsh-Hadamard transform 2^-n sum_s f(s) (-1)^(s.t) of each
    row of 2^n values of the flat buffer ``f``, as a (k, 2^n) array; ``f``
    and ``spare`` (as long as ``f``) are overwritten.

    Each pass (autosort, or Stockham, order) writes a + b and a - b of the
    halves a, b on the leading bit, interleaved as the trailing bit, so
    every pass runs on long loops. Pass q leads with qubit q, the order of
    an in-place butterfly: the same additions in the same order give the
    same floats, and after n passes each index is back.
    """
    k = f.size >> n
    for _ in range(n):
        halves, pairs = f.reshape(k, 2, -1), spare.reshape(k, -1, 2)
        np.add(halves[:, 0], halves[:, 1], out=pairs[..., 0])
        np.subtract(halves[:, 0], halves[:, 1], out=pairs[..., 1])
        f, spare = spare, f
    f *= 2.0**-n
    return f.reshape(k, -1)


def _cluster_spectrum(gamma: np.ndarray, cuts) -> tuple[np.ndarray, int]:
    """Walsh-Hadamard transform of the stabilizer weights, one row of all
    2^n eigenvalues per cut, none left out.

    The dephased state is 2^-n sum_s f(s) K^s over the stabilizer products
    K^s, with f(s) = prod_i gamma_i^s_i. The PT flips the sign of K^s once
    per crossing edge (i, i+1) with s_i = s_{i+1} = 1, and the K^s stay
    commuting, so the eigenvalue on the graph-basis ket |t> is
    2^-n sum_s f(s) (-1)^(s.t). Qubit 1 is the most significant bit of s.
    """
    return _walsh_hadamard(*_cluster_weights(gamma, cuts), gamma.size), 0


# The structured PT spectra, by family: gamma of shape (n,) and k cuts give
# ``(values, left_out)``, row r of the (k, m) array ``values`` the eigenvalues
# of cuts[r] that can move a report, and ``left_out`` = 2^n - m the count of
# the others (zeros, and the W Gram eigenvalues, all >= 0). Rows never mix,
# so a row holds the same floats whichever cuts share its call.
_SPECTRA = {Family.GHZ: _ghz_spectrum, Family.W: _w_spectrum, Family.CLUSTER: _cluster_spectrum}

# Most spectrum values one kernel call may hold: blocks of 2^16 / 2^n cuts
# keep each temporary at 512 KiB, where all 2,047 cuts of a 12-qubit chain
# at once would need arrays of 67 MB each.
_BLOCK_VALUES = 2**16


def _blocks(k: int, n: int) -> list[slice]:
    """Slices of at most ``_BLOCK_VALUES >> n`` (at least one) of k rows."""
    rows = max(1, _BLOCK_VALUES >> n)
    return [slice(start, start + rows) for start in range(0, k, rows)]


# Most complex block entries ``_dense_spectra`` holds for one round of
# stacked ``eigvalsh`` calls (256 KiB, one 128 x 128 block): rounds of 2^16
# entries raised the peak resident set of ``decohere verify --max-n 7`` from
# 42.9 to 44.1 MB (2-core Xeon, numpy 2.4 with OpenBLAS).
_DENSE_STACK_ENTRIES = 2**14


def _dense_spectra(rho: DensityMatrix, cuts):
    """Yield ``(cut, values, left_out)`` for each cut of the checked
    sequence ``cuts``, in order: the eigenvalues of ``rho``'s partial
    transpose on that cut, solved on its support, unsorted, and the count
    of exact zeros left out.

    Entry (i, j) of the PT is rho[i ^ d, j ^ d], d = (i ^ j) & m, where m
    holds the index bits of P1's qubits, so each nonzero (a, b) of ``rho``
    (found once per state) lands at (a ^ d, b ^ d), d = (a ^ b) & m. An
    index whose PT row and column are both zero is an exact eigenvalue 0,
    so only the block of the other indices is gathered and solved, and the
    others are counted, not stored. Rows alone would not do: ``eigvalsh``
    reads one triangle, and a matrix Hermitian only within
    ``HERMITICITY_TOL`` can hold an entry whose mirror is zero. When every
    index is live, the axis swap of ``partial_transpose`` is faster than a
    gather. Blocks of equal size among consecutive cuts, up to
    ``_DENSE_STACK_ENTRIES`` entries, share one stacked ``eigvalsh`` call,
    which gives each block the floats of a call of its own.
    """
    n, dim, mat = rho.n_qubits, rho.dim, rho.mat
    full_support = np.count_nonzero(mat) == mat.size
    if not full_support:
        rows, cols = np.nonzero(mat)
        moved = rows ^ cols
    held, entries = [], 0
    for cut in cuts:
        m = int(f"{cut.cli_bitmask:0{n}b}"[::-1], 2)  # qubit q is index bit n - q
        if full_support:
            live = np.arange(dim)
        else:
            swap = moved & m
            marked = np.zeros(dim, dtype=bool)
            marked[rows ^ swap] = marked[cols ^ swap] = True
            live = np.flatnonzero(marked)
        if held and entries + live.size**2 > _DENSE_STACK_ENTRIES:
            yield from _solve_stacked(held, dim)
            held, entries = [], 0
        if live.size == dim:
            block = partial_transpose(rho, cut.cli_bitmask)
        else:
            swap = (live[:, None] ^ live) & m
            block = mat[live[:, None] ^ swap, live ^ swap]
        held.append((cut, block))
        entries += block.size
    yield from _solve_stacked(held, dim)


def _solve_stacked(held, dim: int):
    """Yield ``(cut, values, left_out)`` for the ``(cut, block)`` pairs of
    ``held``, in order: one ``eigvalsh`` call per block size, each block's
    eigenvalues unsorted (``_reports`` sorts them) and ``dim`` less their
    count, the zeros the block leaves out."""
    by_size = {}
    for index, (_, block) in enumerate(held):
        by_size.setdefault(len(block), []).append(index)
    eigs = [None] * len(held)
    for indices in by_size.values():
        blocks = [held[i][1] for i in indices]
        stack = np.stack(blocks) if len(blocks) > 1 else blocks[0][None]
        for i, values in zip(indices, np.linalg.eigvalsh(stack)):
            eigs[i] = values
    for (cut, _), values in zip(held, eigs):
        yield cut, values, dim - values.size


State = Union[DensityMatrix, tuple[StateFamily, AggregateDephasing]]


def _n_qubits(state: State) -> int:
    """The register size of ``state``, a ``DensityMatrix`` or a
    ``(StateFamily, AggregateDephasing)`` pair of one size."""
    if isinstance(state, DensityMatrix):
        return state.n_qubits
    family, agg = state if isinstance(state, tuple) and len(state) == 2 else (None, None)
    if not isinstance(family, StateFamily) or not isinstance(agg, AggregateDephasing):
        raise TypeError("state must be a DensityMatrix or a (StateFamily, AggregateDephasing) pair")
    n = family.n_qubits
    if agg.n_qubits != n:
        raise InvalidSizeError(f"aggregate covers {agg.n_qubits} qubits, family has {n}")
    return n


def _check_cuts(cuts, n: int) -> list[BipartiteCut]:
    """The iterable ``cuts`` as a list of ``BipartiteCut`` over n qubits:
    TypeError for a non-cut, InvalidPartitionError for another size."""
    cuts = list(cuts)
    for cut in cuts:
        if not isinstance(cut, BipartiteCut):
            raise TypeError(f"a cut must be a BipartiteCut, got {cut!r}")
        if cut.n_qubits != n:
            raise InvalidPartitionError(f"cut is over {cut.n_qubits} qubits, state has {n}")
    return cuts


def _spectra(state: State, cuts: list[BipartiteCut]):
    """Yield ``(block, values, left_out)`` triples covering the checked list
    ``cuts`` in order, row r of ``values`` the PT eigenvalues of
    ``block[r]`` that can move its report and ``left_out`` the count of the
    others, each >= 0: for a family pair one ``_SPECTRA`` call on
    ``agg.gamma`` per ``_blocks`` slice, for a ``DensityMatrix`` one row per
    cut from ``_dense_spectra``. ``_reports(*triple)`` summarizes one."""
    if isinstance(state, DensityMatrix):
        for cut, values, left_out in _dense_spectra(state, cuts):
            yield [cut], values[None], left_out
        return
    family, agg = state
    for block in _blocks(len(cuts), family.n_qubits):
        yield (cuts[block], *_SPECTRA[family.kind](agg.gamma, cuts[block]))


def negativity_reports(state: State, cuts) -> list[NegativityReport]:
    """Exact PT spectrum summaries for the iterable ``cuts``, in order.

    ``state`` is either a ``DensityMatrix``, whose partial transpose is
    solved densely on the rows and columns it touches, the rest counted as
    exact zeros (``_dense_spectra``), or a ``(StateFamily,
    AggregateDephasing)`` pair: the family state under that dephasing, whose
    PT spectrum is written down from the family's structure in blocked
    batched kernel calls, with no matrix and, for GHZ and W, no eigensolve;
    phases are local Rz rotations and do not enter it. The state and every
    cut are checked first.
    """
    cuts = _check_cuts(cuts, _n_qubits(state))
    return [r for triple in _spectra(state, cuts) for r in _reports(*triple)]


def negativity_oracle(state: State, cut: BipartiteCut) -> NegativityReport:
    """Exact PT spectrum summary for one cut: ``negativity_reports``."""
    return negativity_reports(state, [cut])[0]


def _edge_negativity(g_a: float, g_b: float) -> float:
    """Negativity carried by one entangled edge of a cluster chain."""
    return (g_a * g_b + g_a + g_b - 1.0) / 4.0


def _chain_negativity(g1: float, g2: float, g3: float) -> float:
    """Three-qubit chain term for the middle cut of a 3-qubit cluster."""
    return ((1.0 + g1) * g2 * (1.0 + g3) - (1.0 - g1) * (1.0 - g3)) / 8.0


# The longest cluster chain with a closed form (edge terms and a chain term)
_CLUSTER_FORMULA_QUBITS = 3


def _cluster_formula(g: np.ndarray, cut: BipartiteCut) -> float:
    """``cluster_negativity_formula`` at the per-qubit gammas ``g`` on a
    checked cut of a chain of at most ``_CLUSTER_FORMULA_QUBITS``: one term
    per crossing edge, plus the chain term on the middle cut."""
    crossing = np.flatnonzero(_crossing_edges([cut], cut.n_qubits)[0])
    terms = [_edge_negativity(g[i], g[i + 1]) for i in crossing]
    if crossing.size == 2:
        terms.append(_chain_negativity(g[0], g[1], g[2]))
    return max(*terms, 0.0)


def cluster_negativity_formula(agg: AggregateDephasing, cut: BipartiteCut) -> float:
    """Closed-form negativity of a dephased linear cluster state (2 or 3 qubits).

    Returns the *negativity* — the sum of |negative PT eigenvalues| — which
    is zero exactly when the cut is PPT. This is not always the magnitude of
    the single most negative eigenvalue: on the outer cuts of a 3-qubit
    chain the negativity is split across two eigenvalues. On the middle cut
    and for 2 qubits the PT has at most one negative eigenvalue, so there
    the two readings agree.
    """
    n = _check_cuts([cut], agg.n_qubits)[0].n_qubits
    if n > _CLUSTER_FORMULA_QUBITS:
        raise FormulaUnavailableError(
            f"no closed-form cluster negativity for {n} qubits; use negativity_oracle"
        )
    return _cluster_formula(agg.gamma, cut)


def distillability_check(state: State) -> DistillabilityVerdict:
    """Check the all-cuts-NPT necessary condition for n-partite
    distillability: ``negativity_reports`` of either kind of state."""
    reports = negativity_reports(state, enumerate_cuts(_n_qubits(state)))
    ppt = tuple(r.cut for r in reports if not r.npt)
    worst = max(reports, key=lambda r: r.min_eigenvalue).cut
    return DistillabilityVerdict(
        all_cuts_npt=not ppt,
        ppt_cuts=ppt,
        worst_cut=worst,
    )


def _longest_run(cut: BipartiteCut) -> int:
    """The longest run of crossing edges of a cluster cut: the longest run
    of 1 bits of ``m ^ m >> 1`` below bit n-1. At homogeneous gamma the cut
    turns NPT where that run does (``critical_gamma``)."""
    flips = (cut.cli_bitmask ^ cut.cli_bitmask >> 1) & ((1 << cut.n_qubits - 1) - 1)
    return max(map(len, f"{flips:b}".split("0")))


def _below_threshold(m: int, k: int, j: int) -> bool:
    """Whether gamma = k / 2^j lies below tau_m (for 0 <= k < 2^j): whether
    a_1 .. a_{m+1} are all positive, where a_0 = 1, a_1 = 1 - gamma and
    a_{i+2} = (1 + gamma) a_{i+1} - 2 gamma a_i, so that a_{m+1} = p_m
    (``critical_gamma``). Exact: the terms are A_i = 2^(ij) a_i, with A_0 =
    1, A_1 = 2^j - k and A_{i+2} = (2^j + k) A_{i+1} - 2k 2^j A_i in Python
    ints, and the scan stops at the first A_i <= 0."""
    one = 1 << j
    grow, shrink = one + k, 2 * k * one
    before, term = 1, one - k
    for _ in range(m):
        if term <= 0:
            return False
        before, term = term, grow * term - shrink * before
    return term > 0


@functools.cache
def _run_threshold(m: int) -> float:
    """tau_m rounded to the nearest double; once per m and process.

    The lemma: ``_below_threshold(m, k, j)`` holds exactly on (0, tau_m).
    Let r_i = a_{i+1} / a_i, so r_0 = 1 - x and r_{i+1} = 1 + x - 2x / r_i
    at gamma = x. If the test holds at x in (0, 1), then 0 < r_i(x) <= 1
    for i <= m (r_i <= 1 gives r_{i+1} <= 1 - x). For y in (0, x], by
    induction r_i(y) >= r_i(x) > 0 and r_{i+1}(y) >= 1 + y (1 - 2 / r_i(x))
    >= r_{i+1}(x), as 1 - 2 / r_i(x) < 0; so the test holds on all of (0,
    x], and the set where it holds is an interval (0, x*) with x* < 1 (a_1
    = 0 at 1). It is open, as the a_i are continuous. At x* it is a_{m+1}
    that vanishes: were a_{i+1} the first to vanish, i < m, then a_{i+2}(x*)
    = -2 x* a_i(x*) < 0 and the test would fail just below x*. So x* is a
    root of p_m = a_{m+1}, p_m > 0 on (0, x*), and x* = tau_m. Just above
    it a_1 .. a_m stay positive and the test fails, so p_m < 0 there.

    Corollaries. The test for m contains the test for m - 1, so tau_m <=
    tau_{m-1}. For x <= 3 - 2 sqrt(2) the map r -> 1 + x - 2x / r, which
    rises on r > 0, has a larger fixed point mu = (1 + x + sqrt(x^2 - 6x +
    1)) / 2 > 0, and r_0 = 1 - x >= mu since (1 - 3x)^2 - (x^2 - 6x + 1) =
    8x^2; so r_i >= mu for every i, the test holds, and tau_m > 3 - 2
    sqrt(2) for every m.

    A bisection on dyadics keeps tau_m in (lo, hi], starting from (0, 1]:
    the midpoint goes to lo if the test holds there, else to hi. It stops
    when lo and hi round to one double, as the root between them then does
    (``int / int`` rounds correctly, and tau_m is irrational, never halfway
    between two doubles: p_m(0) = 1 and p_m's leading coefficient is -1, so
    its only possible rational roots are +-1)."""
    lo, hi, j = 0, 1, 0
    while lo / (1 << j) != hi / (1 << j):
        mid, lo, hi, j = lo + hi, 2 * lo, 2 * hi, j + 1
        lo, hi = (mid, hi) if _below_threshold(m, mid, j) else (lo, mid)
    return lo / (1 << j)


def critical_gamma(family: StateFamily, cuts) -> list[float]:
    """The homogeneous gamma above which each cut is NPT, and at or below
    which it is PPT, one per cut in the order of ``cuts``; no spectrum is
    built. All qubits share one gamma; phases never move eigenvalues.

    GHZ and W: 0.0 on every cut. Their PT minimum, -gamma^n/2 or -gamma^2
    sqrt(|A||B|)/n, is 0 at gamma = 0 and negative for every gamma > 0.

    Cluster chains: tau_M (``_run_threshold``), the exact root rounded to
    the nearest double, M the longest run of crossing edges of the cut
    (``_longest_run``). The PT spectrum is the Kronecker product of the
    runs' spectra sigma_m and of {(1 +- gamma)/2} per lone qubit (Hein,
    Eisert, Briegel, PRA 69, 062311 (2004)). Those are positive and every
    factor has trace 1, so the cut is NPT iff some sigma_m is (the trace
    norm is multiplicative: Vidal, Werner, PRA 65, 032314 (2002)). On the
    all-ones graph ket sigma_m is 2^-(m+1) p_m(gamma), p_m = (1, -gamma)
    T^m (1, 1)^T with T = [[1, -gamma], [1, gamma]], which is the a_{m+1}
    of ``_below_threshold``. tau_m is the smallest root of p_m in (0, 1):
    p_m > 0 on (0, tau_m) and p_m < 0 just above it (the lemma in
    ``_run_threshold``), so sigma_m is negative just above tau_m. That no
    other graph ket is negative below tau_m is checked in integer
    arithmetic for m <= 12, not proven. tau_m is nonincreasing in m (a
    corollary there; also, measuring an end qubit in Z is LOCC and maps
    sigma_m to sigma_{m-1}, which is thus PPT wherever sigma_m is), and
    tau_m > 3 - 2 sqrt(2) for every m (the other corollary). So the cut
    turns NPT at tau_M.
    """
    cuts = _check_cuts(cuts, family.n_qubits)
    if family.kind is not Family.CLUSTER:
        return [0.0] * len(cuts)
    return [_run_threshold(_longest_run(cut)) for cut in cuts]
