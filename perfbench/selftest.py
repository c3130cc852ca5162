"""Harness self-test: every correctness check rejects a perturbed output.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

For each workload it runs the program once on a shrunken input, asserts
that the check accepts the real output, then applies each perturbation to
a copy and asserts that the check counts at least one failed output. It
also asserts that BENCHMARK.json names exactly the metrics run.py reports.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import contextlib
import csv
import json
import shutil
import sys
from pathlib import Path

from child import ROOT, prepare
from run import END_TO_END
from tracing import per_layer_names
from workloads import WORKLOADS, check_output, make_input, output_name

SEED = 5
SIZES = {"allcuts_cluster9": 5, "sweep_w11": 5, "thresholds_cluster7": 4, "verify7": 3}


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _shift(column: str, index: int, delta: float):
    def edit(rows):
        rows[index][column] = repr(float(rows[index][column]) + delta)
        return rows
    return lambda path: _edit_csv(path, edit)


def _drop(index: int):
    def edit(rows):
        del rows[index]
        return rows
    return lambda path: _edit_csv(path, edit)


def _edit_text(old: str, new: str):
    def perturb(path: Path):
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return perturb


def _drop_line(prefix: str):
    def perturb(path: Path):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        path.write_text("".join(lines[:first] + lines[first + 1:]), encoding="utf-8")
    return perturb


# (label, file perturbation or None, exit code reported for the pass)
PERTURBATIONS = {
    "allcuts_cluster9": [
        ("first cut's min_eigenvalue off by 1e-6", _shift("min_eigenvalue", 0, 1e-6), 0),
        ("last cut's negativity_sum off by 1e-6", _shift("negativity_sum", -1, 1e-6), 0),
        ("one row missing", _drop(3), 0),
        ("non-zero exit", None, 1),
    ],
    "sweep_w11": [
        ("min_eigenvalue off by 1e-6", _shift("min_eigenvalue", 2, 1e-6), 0),
        ("last row missing", _drop(-1), 0),
        ("non-zero exit", None, 1),
    ],
    "thresholds_cluster7": [
        ("pair threshold off by 1e-7", _shift("critical_gamma", 0, 1e-7), 0),
        ("middle-cut threshold off by 1e-7", _shift("critical_gamma", 3, 1e-7), 0),
        ("last threshold off by 1e-7", _shift("critical_gamma", -1, 1e-7), 0),
        ("one threshold missing", _drop(5), 0),
        ("non-zero exit", None, 1),
    ],
    "verify7": [
        ("one property FAIL", _edit_text("PASS ", "FAIL "), 1),
        ("one property line missing", _drop_line("PASS "), 0),
        ("exit code 1 with every property PASS", None, 1),
    ],
}


def _run_program(spec: dict, passdir: Path) -> int:
    entry, argv, stdout_path = prepare(spec, passdir)
    with open(stdout_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        return entry(argv)


def _check_benchmark_json() -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    if [(m["name"], m["unit"]) for m in doc["end_to_end"]] != list(END_TO_END):
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] != per_layer_names():
        errors.append("BENCHMARK.json per_layer differs from tracing.per_layer_names()")
    if [w["name"] for w in doc["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return errors


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    errors = _check_benchmark_json()
    for workload in WORKLOADS:
        spec = make_input(workload, SEED, size=SIZES[workload])
        passdir = workdir / workload
        passdir.mkdir(parents=True)
        returncode = _run_program(spec, passdir)
        out = passdir / output_name(spec)
        attempted, failed, notes = check_output(spec, out, SEED, returncode)
        status = "ok" if failed == 0 and attempted > 0 else "WRONG"
        print(f"{workload}: real output, {attempted} attempted, {failed} failed: {status}")
        if status != "ok":
            errors.append(f"{workload}: check rejects the real output: {notes}")
        for label, perturb, code in PERTURBATIONS[workload]:
            copy = passdir / f"perturbed-{out.name}"
            shutil.copyfile(out, copy)
            if perturb:
                perturb(copy)
            _, failed, _ = check_output(spec, copy, SEED, code)
            status = "rejected" if failed > 0 else "MISSED"
            print(f"  {label}: {failed} failed: {status}")
            if failed == 0:
                errors.append(f"{workload}: check accepts a perturbed output ({label})")
    for error in errors:
        print(f"selftest: {error}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "every check rejects every perturbation"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
