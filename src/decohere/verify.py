"""Seeded self-verification battery.

Every structural invariant the library relies on — linear-algebra identities,
channel conservation laws, microscopic/reduced agreement, and, per family,
agreement of the structured PT spectrum (the path behind every CSV row and
threshold) with the dense eigensolver on every cut, with the dense spectrum
inside the PT range [-1/2, 1] — is encoded here as a named property over
seeded random inputs. The ``decohere verify`` subcommand runs this suite and
reports one pass/fail line per property with the worst observed error; the
test suite reuses the same functions.

Each property draws from its own deterministically derived RNG stream, so
identical (max_n, seed) arguments always exercise identical inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .channel import (
    AggregateDephasing,
    CollisionParams,
    MicroCollisionSpec,
    apply_dephasing,
    apply_microscopic_collision,
    build_collision_unitary,
    collision_params,
    perp_ket,
    schedule_aggregate,
)
from .linalg import DensityMatrix, _qubit_view, partial_trace, partial_transpose
from .negativity import (
    BipartiteCut,
    _reports,
    _spectra,
    _w_gram_spectrum,
    enumerate_cuts,
    negativity_reports,
)
from .states import Family, StateFamily, make_cluster, make_ghz, make_state, make_w, to_density


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    worst: float
    bound: float
    detail: str = ""


# --------------------------------------------------------------------------
# Random generators
# --------------------------------------------------------------------------


def random_density(rng: np.random.Generator, n_qubits: int) -> DensityMatrix:
    """A generic full-rank density matrix: normalized A A^dag."""
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    return DensityMatrix(n_qubits, mat / mat.trace().real)


def random_ket(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_schedule(
    rng: np.random.Generator,
    n_qubits: int,
    strength_low: float = 0.0,
    strength_high: float = 1.0,
    min_collisions: int = 0,
    max_collisions: int = 3,
) -> tuple[tuple[CollisionParams, ...], ...]:
    """One random collision history per qubit, for ``schedule_aggregate``."""
    per_qubit = []
    for _ in range(n_qubits):
        count = int(rng.integers(min_collisions, max_collisions + 1))
        per_qubit.append(
            tuple(
                CollisionParams(
                    float(rng.uniform(strength_low, strength_high)),
                    float(rng.uniform(0.0, 2.0 * np.pi)),
                )
                for _ in range(count)
            )
        )
    return tuple(per_qubit)


def random_aggregate(rng: np.random.Generator, n_qubits: int) -> AggregateDephasing:
    gamma = rng.uniform(0.0, 1.0, n_qubits)
    return AggregateDephasing(gamma, rng.uniform(0.0, 2.0 * np.pi, n_qubits))


def random_micro_spec(rng: np.random.Generator) -> MicroCollisionSpec:
    return MicroCollisionSpec(
        psi=random_ket(rng),
        phi_ket=random_ket(rng),
        xi=random_density(rng, 1),
        psi_perp_phase=float(rng.uniform(0.0, 2.0 * np.pi)),
        phi_perp_phase=float(rng.uniform(0.0, 2.0 * np.pi)),
    )


def random_cut(rng: np.random.Generator, n_qubits: int) -> BipartiteCut:
    return BipartiteCut(n_qubits, int(rng.integers(1, 2**n_qubits - 1)))


# --------------------------------------------------------------------------
# Properties — linear algebra core
# --------------------------------------------------------------------------


def check_partial_trace_preserves_trace(max_n: int, rng: np.random.Generator) -> PropertyResult:
    worst = 0.0
    for n in range(2, max_n + 1):
        for _ in range(10):
            rho = random_density(rng, n)
            traced = rng.choice(n, int(rng.integers(1, n)), replace=False)
            reduced = partial_trace(rho, int(np.sum(1 << traced)))
            worst = max(worst, abs(reduced.mat.trace() - 1.0))
    return PropertyResult("partial_trace_preserves_trace", worst <= 1e-12, worst, 1e-12)


def check_partial_transpose_involution(max_n: int, rng: np.random.Generator) -> PropertyResult:
    """PT twice is the identity; PT once keeps Hermiticity and trace."""
    worst = 0.0
    for n in range(2, max_n + 1):
        for _ in range(10):
            rho = random_density(rng, n)
            cut = random_cut(rng, n)
            pt = partial_transpose(rho, cut.cli_bitmask)
            # A PT of a density matrix is Hermitian with unit trace, so it validates.
            twice = partial_transpose(DensityMatrix(n, pt), cut.cli_bitmask)
            worst = max(worst, np.abs(twice - rho.mat).max())
            worst = max(worst, np.abs(pt - pt.conj().T).max())
            worst = max(worst, abs(pt.trace() - rho.mat.trace()))
    return PropertyResult("partial_transpose_involution", worst <= 1e-14, worst, 1e-14)


def check_pt_spectrum_range(max_n: int, rng: np.random.Generator) -> PropertyResult:
    """PT eigenvalues of random states lie in [-1/2, 1] (Rana, PRA 87, 054301).

    A PT only permutes entries, so every PT eigenvalue has |lambda| <=
    ||rho^Gamma||_F = ||rho||_F. A state with ||rho||_F <= 1/2 therefore
    keeps the range on every cut and is not eigensolved; in practice that is
    every draw from n = 4 on. The dephased family states' range is checked
    by ``check_structured_vs_dense``, which holds their dense spectra.
    """
    worst = 0.0  # amount by which the range is exceeded
    for n in range(2, max_n + 1):
        for _ in range(5):
            rho = random_density(rng, n)
            if np.linalg.norm(rho.mat) <= 0.5:
                continue
            for _, values, _ in _spectra(rho, enumerate_cuts(n)):
                worst = max(worst, float(-0.5 - values.min()), float(values.max() - 1.0))
    return PropertyResult("pt_spectrum_range", worst <= 1e-9, worst, 1e-9)


# --------------------------------------------------------------------------
# Properties — state constructors
# --------------------------------------------------------------------------


def check_state_normalization(max_n: int, rng: np.random.Generator) -> PropertyResult:
    worst = 0.0
    for n in range(2, max_n + 1):
        for psi in (make_ghz(n), make_w(n), make_cluster(n)):
            worst = max(worst, abs(float(np.vdot(psi, psi).real) - 1.0))
    return PropertyResult("state_normalization", worst <= 1e-12, worst, 1e-12)


def check_permutation_symmetry(max_n: int, rng: np.random.Generator) -> PropertyResult:
    """GHZ and W density matrices are invariant under any qubit swap."""
    worst = 0.0
    for n in range(2, max_n + 1):
        for psi in (make_ghz(n), make_w(n)):
            tensor, axes = _qubit_view(np.outer(psi, psi.conj()), n)
            for qa, qb in itertools.combinations(range(1, n + 1), 2):
                order = list(range(2 * n))
                for a, b in zip(axes[qa], axes[qb]):
                    order[a], order[b] = b, a
                worst = max(worst, np.abs(tensor.transpose(order) - tensor).max())
    return PropertyResult("ghz_w_permutation_symmetry", worst == 0.0, worst, 0.0)


def check_cluster_against_cz_chain(max_n: int, rng: np.random.Generator) -> PropertyResult:
    """The closed-form amplitudes match gate-by-gate CZ application to |+>^n."""
    worst = 0.0
    for n in range(2, max_n + 1):
        psi = np.full(2**n, 2.0 ** (-n / 2.0), dtype=np.complex128)
        tensor, axes = _qubit_view(psi, n)
        for q in range(1, n):
            # CZ on qubits (q, q+1) flips the sign where both are 1.
            index = [slice(None)] * n
            index[axes[q][0]] = index[axes[q + 1][0]] = 1
            tensor[tuple(index)] *= -1.0
        worst = max(worst, np.abs(psi - make_cluster(n)).max())
        worst = max(worst, np.abs(np.abs(make_cluster(n)) - 2.0 ** (-n / 2.0)).max())
    return PropertyResult("cluster_matches_cz_chain", worst <= 1e-15, worst, 1e-15)


# --------------------------------------------------------------------------
# Properties — collision channel
# --------------------------------------------------------------------------


def check_collision_unitarity(max_n: int, rng: np.random.Generator) -> PropertyResult:
    worst = 0.0
    eye = np.eye(4)
    for _ in range(100):
        u = build_collision_unitary(random_micro_spec(rng))
        worst = max(worst, np.abs(u.conj().T @ u - eye).max())
    return PropertyResult("collision_unitarity", worst <= 1e-12, worst, 1e-12)


def check_perp_orthogonality(max_n: int, rng: np.random.Generator) -> PropertyResult:
    worst = 0.0
    for _ in range(100):
        ket = random_ket(rng)
        perp = perp_ket(ket, float(rng.uniform(0.0, 2.0 * np.pi)))
        worst = max(worst, abs(np.vdot(perp, ket)))
        worst = max(worst, abs(float(np.vdot(perp, perp).real) - 1.0))
    return PropertyResult("perp_ket_orthonormality", worst <= 1e-12, worst, 1e-12)


def check_dephasing_preserves_density(max_n: int, rng: np.random.Generator) -> PropertyResult:
    """Dephasing keeps the diagonal exactly and the state Hermitian and PSD."""
    worst = 0.0
    for n in range(2, max_n + 1):
        for _ in range(6):
            rho = random_density(rng, n)
            out = apply_dephasing(rho, random_aggregate(rng, n))
            worst = max(worst, np.abs(np.diag(out.mat) - np.diag(rho.mat)).max())
            worst = max(worst, np.abs(out.mat - out.mat.conj().T).max())
            smallest = np.linalg.eigvalsh(out.mat)[0]
            worst = max(worst, max(0.0, float(-smallest)))
    return PropertyResult("dephasing_preserves_density", worst <= 1e-10, worst, 1e-10)


def check_dephasing_composition(max_n: int, rng: np.random.Generator) -> PropertyResult:
    """Two dephasings compose by multiplying gammas and adding phases."""
    worst = 0.0
    for n in range(2, max_n + 1):
        for _ in range(6):
            rho = random_density(rng, n)
            a = random_aggregate(rng, n)
            b = random_aggregate(rng, n)
            combined = AggregateDephasing(a.gamma * b.gamma, a.phase + b.phase)
            lhs = apply_dephasing(apply_dephasing(rho, a), b).mat
            rhs = apply_dephasing(rho, combined).mat
            worst = max(worst, np.abs(lhs - rhs).max())
    return PropertyResult("dephasing_composition", worst <= 1e-12, worst, 1e-12)


def check_schedule_aggregation(max_n: int, rng: np.random.Generator) -> PropertyResult:
    worst = 0.0
    # empty history: full coherence
    agg = schedule_aggregate(((), (), ()))
    worst = max(worst, np.abs(agg.gamma - 1.0).max(), np.abs(agg.phase).max())
    # K identical collisions: strength**K, phases summed mod 2*pi
    for _ in range(25):
        strength = float(rng.uniform(0.0, 1.0))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        k = int(rng.integers(1, 5))
        agg = schedule_aggregate(((CollisionParams(strength, phase),) * k,) * 2)
        worst = max(worst, np.abs(agg.gamma - strength**k).max())
        worst = max(worst, np.abs(np.exp(1j * agg.phase) - np.exp(1j * k * phase)).max())
    # one dead collision kills the whole qubit's coherence
    agg = schedule_aggregate(
        (
            (CollisionParams(0.9), CollisionParams(0.0), CollisionParams(0.7)),
            (CollisionParams(0.5),),
        )
    )
    worst = max(worst, abs(agg.gamma[0]), abs(agg.gamma[1] - 0.5))
    return PropertyResult("schedule_aggregation", worst <= 1e-12, worst, 1e-12)


def check_micro_reduced_agreement(max_n: int, rng: np.random.Generator) -> PropertyResult:
    """The microscopic collision equals the reduced map it aggregates to."""
    worst = 0.0
    n = min(3, max_n)
    for _ in range(40):
        rho = random_density(rng, n)
        spec = random_micro_spec(rng)
        qubit = int(rng.integers(1, n + 1))
        micro = apply_microscopic_collision(rho, qubit, spec).mat

        params = collision_params(spec)
        agg = schedule_aggregate([(params,) if q == qubit else () for q in range(1, n + 1)])
        reduced = apply_dephasing(rho, agg).mat
        worst = max(worst, np.abs(micro - reduced).max())
    return PropertyResult("micro_reduced_agreement", worst <= 1e-10, worst, 1e-10)


# --------------------------------------------------------------------------
# Properties — negativity
# --------------------------------------------------------------------------


def check_strict_positivity_persistence(max_n: int, rng: np.random.Generator) -> PropertyResult:
    """With every collision strength strictly inside (0, 1), GHZ and W stay
    NPT on every cut.

    Strengths are drawn from [0.6, 0.999] with at most two collisions per
    qubit so the surviving negativity sits far above the eigensolver noise
    floor — the physical statement holds for any strengths in (0,1), but a
    product of many near-zero gammas is numerically indistinguishable from 0.
    """
    worst_margin = -np.inf  # most PPT-like min eigenvalue seen (want < 0)
    for n in range(2, min(7, max_n) + 1):
        for maker in (make_ghz, make_w):
            rho = to_density(maker(n))
            for _ in range(4):
                sched = random_schedule(
                    rng, n, strength_low=0.6, strength_high=0.999,
                    min_collisions=1, max_collisions=2,
                )
                dephased = apply_dephasing(rho, schedule_aggregate(sched))
                for report in negativity_reports(dephased, enumerate_cuts(n)):
                    worst_margin = max(worst_margin, report.min_eigenvalue)
    return PropertyResult(
        "strict_positivity_persistence",
        worst_margin < 0.0,
        worst_margin,
        0.0,
        "largest min-eigenvalue over all sampled cuts (must stay negative)",
    )


def check_cluster_vs_ghz_ordering(max_n: int, rng: np.random.Generator) -> PropertyResult:
    """On 2 qubits the dephased cluster chain is strictly less negative than
    GHZ for homogeneous gamma below 1: (1/2)g^2 - edge term = (g-1)^2/4 > 0.

    On 3 qubits no such ordering exists — the cluster negativity *exceeds*
    (1/2)g^3 over most of the NPT range; the observed counterexample is
    logged in the detail string.
    """
    worst_gap = np.inf  # smallest (ghz - cluster) on the n=2 grid; must stay > 0
    rho2 = to_density(make_cluster(2))
    grid = np.round(np.arange(0.45, 0.999, 0.05), 10)
    for g in grid:
        agg = AggregateDephasing.homogeneous(2, float(g))
        [report] = negativity_reports(apply_dephasing(rho2, agg), enumerate_cuts(2))
        worst_gap = min(worst_gap, 0.5 * g * g - report.negativity_sum)

    detail = "n=2 ordering strict"
    if max_n >= 3:
        g = 0.6
        rho3 = to_density(make_cluster(3))
        agg = AggregateDephasing.homogeneous(3, g)
        dephased = apply_dephasing(rho3, agg)
        worst3 = max(r.negativity_sum for r in negativity_reports(dephased, enumerate_cuts(3)))
        detail += (
            f"; n=3 counterexample logged: at g={g} cluster reaches {worst3:.3f} "
            f"vs GHZ {0.5 * g**3:.3f} (no n=3 assertion)"
        )
    return PropertyResult(
        "cluster_vs_ghz_ordering_n2", worst_gap > 0.0, worst_gap, 0.0, detail
    )


# --------------------------------------------------------------------------
# Properties — structured spectra vs the dense oracle
# --------------------------------------------------------------------------


def _with_zeros(values: np.ndarray, left_out: int) -> np.ndarray:
    """The rows of ``values``, each followed by ``left_out`` zeros."""
    return np.hstack([values, np.zeros((len(values), left_out))])


def check_structured_vs_dense(
    kind: Family, max_n: int, rng: np.random.Generator
) -> PropertyResult:
    """The structured PT spectrum of ``kind``, which every CSV row and
    threshold reads, equals the dense spectrum of the explicitly dephased
    state on every cut, and so do the two oracle reports. The dense
    spectrum also stays in the PT range [-1/2, 1]; any excess counts
    towards ``worst`` like a disagreement.

    Per n there are two aggregates: random gamma and phases, and the same
    kind of draw with one random qubit at gamma = 0, which empties PT rows
    and columns. Phases reach the dense side only, so agreement also shows
    that they never move the spectrum. The spectra are compared in full:
    each row gets its left-out zeros written in, and a W row its Gram
    eigenvalues (``_w_gram_spectrum``), which no report reads. The reports
    are what ``negativity_reports`` returns: ``_reports`` of the structured
    ``_spectra`` triples, and one ``_reports`` call on the dense rows with
    their zeros written in, which gives the same floats as one per cut. So
    each cut is eigensolved once and each aggregate takes one batched
    kernel call per block.
    """
    worst = 0.0
    for n in range(2, max_n + 1):
        family = StateFamily(kind, n)
        pure = to_density(make_state(family))
        live, dead = random_aggregate(rng, n), random_aggregate(rng, n)
        gamma = dead.gamma.copy()
        gamma[rng.integers(n)] = 0.0
        cuts = enumerate_cuts(n)
        for agg in (live, AggregateDephasing(gamma, dead.phase)):
            fast, dense = (
                list(_spectra(state, cuts)) for state in ((family, agg), apply_dephasing(pure, agg))
            )
            reports = [r for triple in fast for r in _reports(*triple)]
            fast, dense = (
                np.concatenate([_with_zeros(values, left_out) for _, values, left_out in side])
                for side in (fast, dense)
            )
            if kind is Family.W:
                fast[:, -n:] = _w_gram_spectrum(agg.gamma, cuts)  # in place of n zeros
            spread = np.abs(np.sort(fast) - np.sort(dense)).max()
            worst = max(worst, spread, -0.5 - dense.min(), dense.max() - 1.0)
            for a, b in zip(reports, _reports(cuts, dense, 0)):
                worst = max(
                    worst,
                    abs(a.min_eigenvalue - b.min_eigenvalue),
                    abs(a.negativity_sum - b.negativity_sum),
                )
    return PropertyResult(f"{kind.value}_structured_vs_dense", worst <= 1e-12, worst, 1e-12)


ALL_CHECKS: list[Callable[[int, np.random.Generator], PropertyResult]] = [
    check_partial_trace_preserves_trace,
    check_partial_transpose_involution,
    check_pt_spectrum_range,
    check_state_normalization,
    check_permutation_symmetry,
    check_cluster_against_cz_chain,
    check_collision_unitarity,
    check_perp_orthogonality,
    check_dephasing_preserves_density,
    check_dephasing_composition,
    check_schedule_aggregation,
    check_micro_reduced_agreement,
    check_strict_positivity_persistence,
    check_cluster_vs_ghz_ordering,
    *(partial(check_structured_vs_dense, kind) for kind in Family),
]


def run_suite(max_n: int = 5, seed: int = 7) -> list[PropertyResult]:
    """Run every property check, each on its own seeded RNG stream."""
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    results = []
    for index, check in enumerate(ALL_CHECKS):
        rng = np.random.default_rng([seed, index])
        results.append(check(max_n, rng))
    return results


def format_report(results: list[PropertyResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name:<38} worst {r.worst: .3e}  (bound {r.bound:g})"
        if r.detail:
            line += f"  [{r.detail}]"
        lines.append(line)
    failed = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - failed}/{len(results)} properties passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
