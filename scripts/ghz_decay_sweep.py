"""Sweep GHZ size under homogeneous collisions and fit the decay slope.

For each (strength, collisions-per-qubit) pair the most negative eigenvalue
of the partially transposed state falls off exponentially in the qubit
count; the fitted slope of ln|min eigenvalue| vs n should land on
collisions_per_qubit * ln(strength). Prints the fit table and optionally
writes every row to CSV.

Usage:
    python3 scripts/ghz_decay_sweep.py [--max-n 8] [--out rows.csv]
"""

import argparse
import sys

import numpy as np

from decohere import MAX_QUBITS
from decohere.experiment import parse_config, run_sweep, write_csv

STRENGTHS = (0.85, 0.90, 0.95)
COLLISION_COUNTS = (1, 2)


def sweep_rows(strength, collisions, max_n):
    config = parse_config({
        "family": "ghz",
        "n_qubits": 2,
        "schedule": {"K": collisions, "lambda": strength},
        "cuts": [1],  # any cut gives the same spectrum for this family
        "sweep": {"parameter": "n_qubits", "values": list(range(2, max_n + 1))},
    })
    return run_sweep(config)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=8, help="largest qubit count")
    parser.add_argument("--out", help="write all sweep rows to this CSV file")
    args = parser.parse_args(argv)
    if not 3 <= args.max_n <= MAX_QUBITS:
        parser.error(f"--max-n must be in [3, {MAX_QUBITS}]; fitting a slope needs 3 sizes")
    try:  # opened before the sweep runs, so a bad path fails fast
        out = open(args.out, "w", encoding="utf-8", newline="") if args.out else None
    except OSError as exc:
        parser.error(f"--out: cannot write {args.out}: {exc.strerror}")

    all_rows = []
    print(f"{'strength':>9} {'collisions':>10} {'slope':>12} {'expected':>12} {'misfit':>10}")
    for strength in STRENGTHS:
        for collisions in COLLISION_COUNTS:
            rows = sweep_rows(strength, collisions, args.max_n)
            all_rows.extend(rows)
            sizes = np.array([row.n_qubits for row in rows])
            logs = np.log([-row.min_eigenvalue for row in rows])
            slope = np.polyfit(sizes, logs, 1)[0]
            expected = collisions * np.log(strength)
            print(
                f"{strength:>9.2f} {collisions:>10d} {slope:>12.8f} "
                f"{expected:>12.8f} {abs(slope - expected):>10.2e}"
            )

    if out:
        with out as fh:
            write_csv(all_rows, fh)
        print(f"wrote {len(all_rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
