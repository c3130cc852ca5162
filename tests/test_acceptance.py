"""End-to-end acceptance gate.

Nine tests, one per top-level contract item, each asserting at its stated
tolerance. ``pytest -v`` therefore shows one pass/fail line per item; each
test also prints a one-line metric summary (visible with ``-s`` or in the
captured output).
"""

import time
import warnings
from pathlib import Path

import numpy as np
from conftest import ghz_negativity_formula, run_python, w_negativity_formula

from decohere import (
    AggregateDephasing,
    BipartiteCut,
    CollisionParams,
    DensityMatrix,
    Family,
    MicroCollisionSpec,
    StateFamily,
    apply_dephasing,
    apply_microscopic_collision,
    cluster_negativity_formula,
    collision_params,
    critical_gamma,
    distillability_check,
    enumerate_cuts,
    make_cluster,
    make_ghz,
    make_state,
    make_w,
    negativity_oracle,
    partial_trace,
    schedule_aggregate,
    to_density,
)
from decohere.verify import (
    random_cut,
    random_density,
    random_micro_spec,
    random_schedule,
)

SQRT2 = np.sqrt(2.0)
KET1 = np.array([0.0, 1.0], dtype=complex)
GRID = tuple(round(k * 0.1, 10) for k in range(11))


def test_criterion_1_ghz_formula_tracks_random_schedules():
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    cases, worst = 0, 0.0
    for n in range(2, 9):
        base = to_density(make_ghz(n))
        for _ in range(29):
            agg = schedule_aggregate(random_schedule(rng, n, max_collisions=4))
            report = negativity_oracle(apply_dephasing(base, agg), random_cut(rng, n))
            err = abs(report.min_eigenvalue - ghz_negativity_formula(agg))
            worst = max(worst, err)
            assert err <= 1e-8
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 200
    assert elapsed < 60.0
    print(
        f"[criterion 1] PASS - GHZ closed form vs oracle: {cases} random "
        f"schedules, n in 2..8, worst error {worst:.3e}, {elapsed:.1f}s"
    )


def test_criterion_2_ghz_homogeneous_decay_slope():
    lam = 0.9
    sizes = np.arange(2, 9)
    worst_rel = 0.0
    for k in (1, 2, 3):
        logs = []
        for n in sizes:
            agg = AggregateDephasing.homogeneous(int(n), lam**k)
            rho = apply_dephasing(to_density(make_ghz(int(n))), agg)
            report = negativity_oracle(rho, enumerate_cuts(int(n))[0])
            logs.append(np.log(abs(report.min_eigenvalue)))
        slope = np.polyfit(sizes, logs, 1)[0]
        rel = abs(slope - k * np.log(lam)) / abs(k * np.log(lam))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-6
    print(
        f"[criterion 2] PASS - log-negativity slope equals K*ln(0.9) for "
        f"K in 1..3, worst relative error {worst_rel:.3e}"
    )


def test_criterion_3_single_dead_collision_disentangles_ghz():
    rng = np.random.default_rng(33)
    checked = 0
    for n in range(2, 7):
        base = to_density(make_ghz(n))
        for dead_qubit in range(1, n + 1):
            per_qubit = []
            for q in range(1, n + 1):
                collisions = [
                    CollisionParams(
                        float(rng.uniform(0.2, 1.0)), float(rng.uniform(0, 2 * np.pi))
                    )
                    for _ in range(3)
                ]
                if q == dead_qubit:
                    collisions[int(rng.integers(3))] = CollisionParams(0.0, 0.0)
                per_qubit.append(tuple(collisions))
            agg = schedule_aggregate(per_qubit)
            verdict = distillability_check(apply_dephasing(base, agg))
            assert not verdict.all_cuts_npt
            # PPT verdicts use the -1e-10 floor, so this is "every cut >= -1e-10"
            assert len(verdict.ppt_cuts) == 2 ** (n - 1) - 1
            checked += 1
    print(
        f"[criterion 3] PASS - one dead collision makes every cut PPT: "
        f"{checked} (n, qubit) combinations, n in 2..6"
    )


def test_criterion_4_w_formula_per_cut():
    lam = 0.8
    worst = 0.0
    for n in range(2, 8):
        base = to_density(make_w(n))
        for k in (1, 2):
            aggregates = [AggregateDephasing.homogeneous(n, lam**k)]
            for touched in (1, n):  # decohere one end qubit, leave the rest alone
                gamma = np.ones(n)
                gamma[touched - 1] = lam**k
                aggregates.append(AggregateDephasing(gamma, np.zeros(n)))
            for agg in aggregates:
                rho = apply_dephasing(base, agg)
                for cut in enumerate_cuts(n):
                    report = negativity_oracle(rho, cut)
                    err = abs(report.min_eigenvalue - w_negativity_formula(agg, cut))
                    worst = max(worst, err)
                    assert err <= 1e-8
    worst_balanced = 0.0
    for n in (4, 6):
        base = to_density(make_w(n))
        balanced = BipartiteCut.from_members(n, set(range(1, n // 2 + 1)))
        for k in (1, 2):
            agg = AggregateDephasing.homogeneous(n, lam**k)
            report = negativity_oracle(apply_dephasing(base, agg), balanced)
            err = abs(report.min_eigenvalue - (-(lam ** (2 * k)) / 2))
            worst_balanced = max(worst_balanced, err)
            assert err <= 1e-10
    print(
        f"[criterion 4] PASS - W closed form on every cut, n in 2..7: worst "
        f"error {worst:.3e}; balanced-cut size independence worst "
        f"{worst_balanced:.3e}"
    )


def test_criterion_5_w_residual_entanglement_survives_dead_qubit():
    for n in range(3, 7):
        gamma = np.ones(n)
        gamma[0] = 0.0
        rho = apply_dephasing(
            to_density(make_w(n)), AggregateDephasing(gamma, np.zeros(n))
        )
        full = distillability_check(rho)
        assert not full.all_cuts_npt
        assert len(full.ppt_cuts) >= 1
        reduced = partial_trace(rho, 0b1)
        inner = distillability_check(reduced)
        assert inner.all_cuts_npt
    print(
        "[criterion 5] PASS - W with one fully dephased qubit: full state "
        "gains a PPT cut, remaining qubits stay NPT on every cut, n in 3..6"
    )


def test_criterion_6_cluster_critical_points():
    [pair] = critical_gamma(StateFamily(Family.CLUSTER, 2), [BipartiteCut.from_members(2, {1})])
    err_pair = abs(pair - (SQRT2 - 1.0))
    assert err_pair <= 1e-7
    [chain] = critical_gamma(
        StateFamily(Family.CLUSTER, 3), [BipartiteCut.from_members(3, {1, 3})]
    )
    err_chain = abs(chain - 0.295598)
    assert err_chain <= 5e-6
    residual = chain**3 + chain**2 + 3 * chain - 1.0
    assert abs(residual) <= 1e-8
    print(
        f"[criterion 6] PASS - thresholds: |pair - (sqrt(2)-1)| = "
        f"{err_pair:.3e}, |chain - 0.295598| = {err_chain:.3e}, cubic "
        f"residual {abs(residual):.3e}"
    )


def test_criterion_7_cluster_formulas_on_gamma_grids():
    worst_sum = 0.0  # formula vs sum of negative-eigenvalue magnitudes
    worst_single = 0.0  # formula vs |min eigenvalue| where that reading holds
    split_gap = 0.0  # ...and where it provably cannot (logged, not failed)
    points = 0

    base2 = to_density(make_cluster(2))
    pair_cut = BipartiteCut.from_members(2, {1})
    for g1 in GRID:
        for g2 in GRID:
            agg = AggregateDephasing(np.array([g1, g2]), np.zeros(2))
            report = negativity_oracle(apply_dephasing(base2, agg), pair_cut)
            predicted = cluster_negativity_formula(agg, pair_cut)
            err_sum = abs(report.negativity_sum - predicted)
            err_single = abs(max(-report.min_eigenvalue, 0.0) - predicted)
            worst_sum = max(worst_sum, err_sum)
            worst_single = max(worst_single, err_single)
            assert err_sum <= 1e-8
            assert err_single <= 1e-8  # the pair PT has one negative eigenvalue
            points += 1

    base3 = to_density(make_cluster(3))
    middle = BipartiteCut.from_members(3, {1, 3})  # isolates the middle qubit
    for g1 in GRID:
        for g2 in GRID:
            for g3 in GRID:
                agg = AggregateDephasing(np.array([g1, g2, g3]), np.zeros(3))
                rho = apply_dephasing(base3, agg)
                homogeneous = g1 == g2 == g3
                for cut in enumerate_cuts(3):
                    report = negativity_oracle(rho, cut)
                    predicted = cluster_negativity_formula(agg, cut)
                    err_sum = abs(report.negativity_sum - predicted)
                    worst_sum = max(worst_sum, err_sum)
                    assert err_sum <= 1e-8
                    err_single = abs(max(-report.min_eigenvalue, 0.0) - predicted)
                    if homogeneous and cut == middle:
                        # middle cut: single negative eigenvalue, hard assert
                        worst_single = max(worst_single, err_single)
                        assert err_single <= 1e-8
                    else:
                        split_gap = max(split_gap, err_single)
                points += 1

    if split_gap > 1e-8:
        warnings.warn(
            "three-qubit chain: on the outer cuts (all grid points) and on "
            "the middle-qubit cut (strongly asymmetric points only) the "
            "partial transpose carries two negative eigenvalues, so the "
            f"closed form matches their summed magnitude (worst error "
            f"{worst_sum:.1e}) rather than |min eigenvalue| alone (gap up to "
            f"{split_gap:.3f}); recorded here, not a failure",
            stacklevel=1,
        )
    print(
        f"[criterion 7] PASS - cluster formulas on {points} grid points: "
        f"negativity-sum error {worst_sum:.3e}; single-eigenvalue reading "
        f"error {worst_single:.3e} where it applies, eigenvalue-split gap "
        f"{split_gap:.3f} elsewhere (logged)"
    )


def test_criterion_8_microscopic_collision_matches_reduced_map():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        rho = random_density(rng, 3)
        spec = random_micro_spec(rng)
        qubit = int(rng.integers(1, 4))
        micro = apply_microscopic_collision(rho, qubit, spec)
        params = collision_params(spec)
        gamma, phase = np.ones(3), np.zeros(3)
        gamma[qubit - 1] = params.strength
        phase[qubit - 1] = params.phase
        reduced = apply_dephasing(rho, AggregateDephasing(gamma, phase))
        err = np.abs(micro.mat - reduced.mat).max()
        worst = max(worst, err)
        assert err <= 1e-10
    # maximally mixed environment + traceless conditional-rotation product
    # (a spin axis): the collision strength must vanish outright
    mixed = DensityMatrix(1, np.eye(2, dtype=complex) / 2)
    worst_dead = 0.0
    for theta, phi in [(0.3, 0.0), (np.pi / 2, 0.0), (1.1, 2.0), (2.4, 4.4), (0.77, 5.9)]:
        psi = np.array([np.cos(theta), np.sin(theta) * np.exp(1j * phi)])
        spec = MicroCollisionSpec(
            psi=psi,
            phi_ket=KET1,
            xi=mixed,
            psi_perp_phase=np.pi,
            phi_perp_phase=np.pi,
        )
        strength = collision_params(spec).strength
        worst_dead = max(worst_dead, strength)
        assert strength <= 1e-12
    print(
        f"[criterion 8] PASS - microscopic collision vs reduced map: 100 "
        f"seeded cases, worst entrywise gap {worst:.3e}; mixed-environment "
        f"spin-axis strengths <= {worst_dead:.3e}"
    )


def test_criterion_9_channel_sanity_and_self_verification():
    rng = np.random.default_rng(99)
    families = list(Family)
    worst_compose = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        if rng.random() < 0.5:
            rho = to_density(make_state(StateFamily(families[int(rng.integers(3))], n)))
        else:
            rho = random_density(rng, n)
        g1, g2 = rng.uniform(0, 1, (2, n))
        p1, p2 = rng.uniform(0, 2 * np.pi, (2, n))
        out = apply_dephasing(rho, AggregateDephasing(g1, p1))
        assert abs(out.mat.trace().real - 1.0) <= 1e-12
        assert np.abs(out.mat - out.mat.conj().T).max() <= 1e-14
        out.assert_psd()
        two_step = apply_dephasing(out, AggregateDephasing(g2, p2))
        fused = apply_dephasing(
            rho, AggregateDephasing(g1 * g2, (p1 + p2) % (2 * np.pi))
        )
        err = np.abs(two_step.mat - fused.mat).max()
        worst_compose = max(worst_compose, err)
        assert err <= 1e-12
    start = time.perf_counter()
    proc = run_python("-m", "decohere", "verify", "--max-n", "5", timeout=300)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300.0
    # seed 7 is the default; every report line is pinned
    golden = Path(__file__).parent / "data" / "golden"
    assert proc.stdout == (golden / "verify_n5_seed7.txt").read_text()
    # every cut of every n up to 7 is gated too
    proc7 = run_python("-m", "decohere", "verify", "--max-n", "7", "--seed", "7", timeout=300)
    assert proc7.returncode == 0, proc7.stdout + proc7.stderr
    assert proc7.stdout == (golden / "verify_n7_seed7.txt").read_text()
    print(
        f"[criterion 9] PASS - 500 channel-sanity cases (trace/Hermiticity/"
        f"PSD/composition, worst composition gap {worst_compose:.3e}); "
        f"self-verification exit 0 in {elapsed:.1f}s"
    )
