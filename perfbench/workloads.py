"""Workload inputs, generated from a seed, and the checks on their outputs.

This module imports numpy only, never ``decohere``: the checks must not
depend on the code they check. Every check returns ``(attempted, failed,
notes)``, where an output is a CSV row, a threshold or a verify property.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

WORKLOADS = ("allcuts_cluster9", "sweep_w11", "thresholds_cluster7", "verify7")

# allcuts_cluster9 checks every row cheaply and this many rows (plus the
# first and the last cut) against the reference eigensolve.
SAMPLED_ROWS = 14
EIG_TOL = 1e-10
THRESHOLD_TOL = 1e-8
PSD_FLOOR = -1e-10  # the program's NPT threshold, restated for negativity_sum

SUMMARY = re.compile(r"^(\d+)/(\d+) properties passed")
THRESHOLD_TABLE = Path(__file__).with_name("thresholds_cluster7.json")


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def make_input(workload: str, seed: int, size: int | None = None) -> dict:
    """The workload's input spec; the same seed gives the same spec.

    ``size`` shrinks the problem (qubit count or largest chain) for the
    harness self-test; the benchmark always uses the default.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "allcuts_cluster9":
        n = size or 9
        config = {
            "family": "cluster",
            "n_qubits": n,
            "schedule": {
                "gammas": [float(g) for g in rng.uniform(0.6, 0.98, n)],
                "phis": [float(p) for p in rng.uniform(0.0, 2 * math.pi, n)],
            },
            "cuts": "all",
        }
        return {"workload": workload, "command": "single", "config": config}
    if workload == "sweep_w11":
        n = size or 11
        lambdas = np.sort(rng.uniform(0.75, 0.95, 2))
        while lambdas[1] <= lambdas[0]:
            lambdas = np.sort(rng.uniform(0.75, 0.95, 2))
        config = {
            "family": "w",
            "n_qubits": n,
            "schedule": {"K": 2, "lambda": float(lambdas[0]),
                         "phi": float(rng.uniform(0.0, 2 * math.pi))},
            "cuts": [1, 31 if n > 5 else 3],
            "sweep": {"parameter": "lambda", "values": [float(x) for x in lambdas]},
        }
        return {"workload": workload, "command": "sweep", "config": config}
    if workload == "thresholds_cluster7":
        # No random input: the bracket and chains are those of the script.
        return {"workload": workload, "command": "thresholds", "max_n": size or 7}
    if workload == "verify7":
        return {"workload": workload, "command": "verify", "max_n": size or 7, "seed": seed}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def output_name(spec: dict) -> str:
    """File, inside the pass's directory, that holds the program's output."""
    return {"single": "rows.csv", "sweep": "rows.csv",
            "thresholds": "thresholds.csv", "verify": "report.txt"}[spec["command"]]


# --------------------------------------------------------------------------
# Reference numerics (the benchmark's own, independent of decohere)
# --------------------------------------------------------------------------


def cluster_density(n: int) -> np.ndarray:
    """|C_n><C_n| for the linear cluster state, qubit 1 the most significant bit."""
    b = np.arange(2**n)
    pairs = np.array([int(x).bit_count() for x in b & (b >> 1)])
    psi = np.where(pairs % 2, -1.0, 1.0) * 2.0 ** (-n / 2)
    return np.outer(psi, psi).astype(np.complex128)


def dephase(rho: np.ndarray, gammas, phis) -> np.ndarray:
    """Multiply in each qubit's 2x2 coherence factor on the rank-2n tensor view.

    Factor (a, b) is 1 on the diagonal and gamma * exp(-i phi (a - b)) off it.
    """
    n = len(gammas)
    t = rho.reshape((2,) * (2 * n)).copy()
    for q, (g, ph) in enumerate(zip(gammas, phis)):
        f = np.array([[1.0, g * np.exp(1j * ph)], [g * np.exp(-1j * ph), 1.0]])
        shape = [1] * (2 * n)
        shape[q] = shape[n + q] = 2
        t *= f.reshape(shape)
    return t.reshape(rho.shape)


def pt_spectrum(rho: np.ndarray, n: int, cut_bitmask: int) -> np.ndarray:
    """Eigenvalues of the partial transpose on the qubits set in the bitmask
    (bit i-1 set means qubit i), by swapping row and column tensor axes."""
    axes = list(range(2 * n))
    for q in range(n):
        if cut_bitmask >> q & 1:
            axes[q], axes[n + q] = n + q, q
    t = rho.reshape((2,) * (2 * n)).transpose(axes)
    return np.linalg.eigvalsh(t.reshape(rho.shape))


def w_min_eigenvalue(n: int, gamma: float, cut_bitmask: int) -> float:
    """Closed form for homogeneous W: -(gamma^2 / N) sqrt(|P1| |P2|)."""
    k = bin(cut_bitmask).count("1")
    return -gamma**2 * math.sqrt(k * (n - k)) / n


def cubic_root() -> float:
    """Real root in (0, 1) of g^3 + g^2 + 3g - 1: the middle cut of a 3-chain."""
    roots = np.roots([1.0, 1.0, 3.0, -1.0])
    return float(next(r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1))


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------


def _read_rows(path: Path) -> list[dict]:
    """CSV rows keyed by column name, so added columns do not break a check."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(";")]


def check_allcuts(spec: dict, out: Path, seed: int) -> tuple[int, int, list[str]]:
    config = spec["config"]
    n = config["n_qubits"]
    gammas, phis = config["schedule"]["gammas"], config["schedule"]["phis"]
    masks = list(range(1, 2**n - 1, 2))
    rows = {}
    for row in _read_rows(out):
        try:
            rows[int(row["cut_bitmask"])] = row
        except (KeyError, ValueError):
            pass
    bad, notes = set(), []
    for mask in masks:
        row = rows.get(mask)
        try:
            ok = (
                row is not None
                and row["family"] == "cluster"
                and int(row["n_qubits"]) == n
                and np.allclose(_floats(row["gammas"]), gammas, rtol=0, atol=1e-15)
                and float(row["negativity_sum"]) >= 0.0
                and math.isfinite(float(row["min_eigenvalue"]))
            )
        except (KeyError, ValueError):
            ok = False
        if not ok:
            bad.add(mask)
    if bad:
        notes.append(f"{len(bad)} rows missing or malformed, e.g. cut {min(bad)}")

    rng = np.random.default_rng([seed, 1009])
    picked = rng.choice(masks, min(SAMPLED_ROWS, len(masks)), replace=False)
    sample = sorted({masks[0], masks[-1], *(int(m) for m in picked)})
    rho = dephase(cluster_density(n), gammas, phis)
    for mask in sample:
        if mask in bad:
            continue
        eigs = pt_spectrum(rho, n, mask)
        want_min = eigs[0]
        want_sum = -eigs[eigs < PSD_FLOOR].sum()
        got_min = float(rows[mask]["min_eigenvalue"])
        got_sum = float(rows[mask]["negativity_sum"])
        if abs(got_min - want_min) > EIG_TOL or abs(got_sum - want_sum) > EIG_TOL:
            bad.add(mask)
            notes.append(f"cut {mask}: min_eigenvalue {got_min!r} vs reference {want_min!r}")
    return len(masks), len(bad), notes


def check_sweep(spec: dict, out: Path, seed: int) -> tuple[int, int, list[str]]:
    config = spec["config"]
    n, k = config["n_qubits"], config["schedule"]["K"]
    expected = [(lam, mask) for lam in config["sweep"]["values"] for mask in config["cuts"]]
    rows = _read_rows(out)
    failed, notes = 0, []
    for i, (lam, mask) in enumerate(expected):
        gamma = lam**k
        want = w_min_eigenvalue(n, gamma, mask)
        try:
            row = rows[i]
            got = float(row["min_eigenvalue"])
            ok = (
                row["family"] == "w"
                and int(row["cut_bitmask"]) == mask
                and np.allclose(_floats(row["gammas"]), gamma, rtol=1e-14, atol=0)
                and abs(got - want) <= EIG_TOL
            )
        except (IndexError, KeyError, ValueError):
            ok, got = False, None
        if not ok:
            failed += 1
            notes.append(f"lambda {lam!r} cut {mask}: min_eigenvalue {got!r} vs closed form {want!r}")
    if len(rows) > len(expected):
        notes.append(f"{len(rows)} rows, expected {len(expected)}")
        failed = len(expected)
    return len(expected), failed, notes


def check_thresholds(spec: dict, out: Path, seed: int) -> tuple[int, int, list[str]]:
    table = json.loads(THRESHOLD_TABLE.read_text())["critical_gamma"]
    wanted = {key: value for key, value in table.items() if int(key.split(":")[0]) <= spec["max_n"]}
    got = {}
    for row in _read_rows(out):
        try:
            got[f"{int(row['n_qubits'])}:{int(row['cut_bitmask'])}"] = float(row["critical_gamma"])
        except (KeyError, ValueError):
            pass
    pair, middle = math.sqrt(2.0) - 1.0, cubic_root()
    closed = {"2:1": pair, "3:1": pair, "3:3": pair, "3:5": middle}
    failed, notes = 0, []
    for key, want in wanted.items():
        value = got.get(key)
        refs = [want] + ([closed[key]] if key in closed else [])
        if value is None or any(abs(value - ref) > THRESHOLD_TOL for ref in refs):
            failed += 1
            notes.append(f"n:cut {key}: critical gamma {value!r} vs {refs}")
    extra = set(got) - set(wanted)
    if extra:
        notes.append(f"unexpected thresholds {sorted(extra)}")
        failed = len(wanted)
    return len(wanted), failed, notes


def check_verify(spec: dict, out: Path, seed: int, returncode: int) -> tuple[int, int, list[str]]:
    try:
        lines = out.read_text(encoding="utf-8").splitlines()
    except OSError:
        lines = []
    props = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    fails = [line.split()[1] for line in props if line.startswith("FAIL ")]
    summary = [m for m in map(SUMMARY.match, lines) if m]
    declared = int(summary[-1].group(2)) if summary else 0
    attempted = max(len(props), declared, 1)
    failed = len(fails) + (attempted - len(props))
    notes = [f"FAIL {name}" for name in fails]
    if returncode != 0 and failed == 0:
        failed = attempted
        notes.append(f"exit code {returncode} although every property passed")
    if not summary:
        notes.append("no summary line")
    return attempted, failed, notes


def check_output(spec: dict, out: Path, seed: int, returncode: int) -> tuple[int, int, list[str]]:
    """Check one pass's output file; a non-zero exit fails the whole pass."""
    command = spec["command"]
    if command == "verify":
        return check_verify(spec, out, seed, returncode)
    check = {"single": check_allcuts, "sweep": check_sweep, "thresholds": check_thresholds}[command]
    attempted, failed, notes = check(spec, out, seed)
    if returncode != 0:
        notes.append(f"exit code {returncode}")
        failed = attempted
    return attempted, failed, notes
