"""The runnable experiment under scripts/ and the README's Python example,
each in its own interpreter."""

import pytest
from conftest import ROOT, run_python

GOLDEN = ROOT / "tests" / "data" / "golden"


def run_script(name, *args, timeout=120, cwd=None):
    return run_python(str(ROOT / "scripts" / name), *args, timeout=timeout, cwd=cwd)


def test_cluster_thresholds_rows(tmp_path):
    out = tmp_path / "f.csv"
    proc = run_script("cluster_thresholds.py", "--max-n", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "n_qubits,cut_bitmask,cut_human,critical_gamma"
    assert len(lines[1:]) == 4  # one cut at n=2, three at n=3


def test_max_n_past_dense_capacity_is_a_usage_error():
    # rejected up front, before any chain is solved
    proc = run_script("cluster_thresholds.py", "--max-n", "13", timeout=30)
    assert proc.returncode == 2
    assert "--max-n" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("max_n", [6, 8])
def test_cluster_thresholds_match_golden(tmp_path, max_n):
    # stdout and --out CSV, byte for byte: every threshold is the exact
    # root tau_m of its cut's longest run, rounded to the nearest double,
    # so any change to a printed digit is a change of root or rounding
    name = f"thresholds_n{max_n}"
    proc = run_script(
        "cluster_thresholds.py", "--max-n", str(max_n), "--out", f"{name}.csv", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_text()
    assert (tmp_path / f"{name}.csv").read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_unwritable_out_is_a_usage_error(tmp_path):
    # rejected before anything is computed or printed
    missing = tmp_path / "no-dir" / "x.csv"
    proc = run_script("cluster_thresholds.py", "--max-n", "4", "--out", str(missing), timeout=30)
    assert proc.returncode == 2
    assert "--out" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_readme_quick_tour_runs_as_written():
    """The quick-tour block is the documented API: it must run unchanged and
    end on the cluster-pair threshold sqrt(2) - 1."""
    tour = (ROOT / "README.md").read_text().split("## Quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert abs(float(proc.stdout.splitlines()[-1]) - (2**0.5 - 1)) < 1e-9
