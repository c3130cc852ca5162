"""Locate the dephasing thresholds where linear cluster states lose NPT cuts.

Unlike GHZ and W states, cluster chains become PPT across individual cuts at
nonzero homogeneous gamma. This script prints the threshold of every cut of
chains up to --max-n; for the 2- and 3-qubit chains it also checks, with
exact signs, that they are the correctly rounded roots of the closed forms
(sqrt(2)-1, the root of 1 - 2g - g^2, and the root of g^3 + g^2 + 3g - 1
for the middle-qubit cut). A cut's threshold is that of its longest run of m
crossing edges: tau_m, the smallest root in (0, 1) of one integer
polynomial, found once per m by bisecting on an exact integer test (every
term of the run recurrence a_{i+2} = (1 + g) a_{i+1} - 2g a_i, a_0 = 1,
a_1 = 1 - g, is positive at g) and rounded to the nearest double (see
decohere.negativity.critical_gamma). No matrix or spectrum is built. Each
cut is rendered once, for the printed line, the CSV row and the middle-cut
check.

Usage:
    python3 scripts/cluster_thresholds.py [--max-n 5] [--out thresholds.csv]
"""

import argparse
import csv
import math
import sys

from decohere import MAX_QUBITS, Family, StateFamily, critical_gamma, enumerate_cuts


def chain_thresholds(n):
    """(bitmask, rendered cut, critical gamma) for every cut of the n-chain."""
    cuts = enumerate_cuts(n)
    gammas = critical_gamma(StateFamily(Family.CLUSTER, n), cuts)
    return [(cut.cli_bitmask, cut.human(), gamma) for cut, gamma in zip(cuts, gammas)]


def rounding(coeffs, g):
    """The verdict "correctly rounded" if the double g is a correctly rounded
    root of the integer polynomial p = ``coeffs`` (highest power first),
    that is, if p has opposite signs at the two half-ulp neighbours of g.
    Exact: each neighbour is num / den in Python ints, and den^deg p(num /
    den) has the sign of p there."""
    a, b = g.as_integer_ratio()
    values = []
    for side in (0.0, 1.0):
        c, d = math.nextafter(g, side).as_integer_ratio()
        num, den, acc = a * d + b * c, 2 * b * d, 0
        for power, coeff in enumerate(coeffs):
            acc = acc * num + coeff * den**power
        values.append(acc)
    return "correctly rounded" if values[0] * values[1] < 0 else "NOT correctly rounded"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5, help="longest chain")
    parser.add_argument("--out", help="write cut/threshold rows to this CSV file")
    args = parser.parse_args(argv)
    if not 2 <= args.max_n <= MAX_QUBITS:
        parser.error(f"--max-n must be in [2, {MAX_QUBITS}]")
    try:  # opened before any chain is solved, so a bad path fails fast
        out = open(args.out, "w", encoding="utf-8", newline="") if args.out else None
    except OSError as exc:
        parser.error(f"--out: cannot write {args.out}: {exc.strerror}")

    rows = []
    for n in range(2, args.max_n + 1):
        print(f"chain of {n} qubits:")
        thresholds = chain_thresholds(n)
        for mask, human, gamma in thresholds:
            print(f"  cut {human:>12}  critical gamma = {gamma:.9f}")
            rows.append((n, mask, human, gamma))
        last = max(gamma for *_, gamma in thresholds)
        print(f"  all cuts PPT below gamma = {min(g for *_, g in thresholds):.9f}, "
              f"all NPT above {last:.9f}")

        if n == 2:
            exact = rounding([-1, -2, 1], thresholds[0][2])
            print(f"  closed form sqrt(2)-1, root of 1 - 2g - g^2: {exact}")
        if n == 3:
            middle = next(g for _, h, g in thresholds if h == "1,3|2")
            exact = rounding([1, 1, 3, -1], middle)
            print(f"  middle-qubit cut, root of g^3 + g^2 + 3g - 1: {exact}")

    if out:
        with out as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n_qubits", "cut_bitmask", "cut_human", "critical_gamma"])
            for n, mask, human, gamma in rows:
                writer.writerow([n, mask, human, repr(float(gamma))])
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
