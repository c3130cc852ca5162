import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings

ROOT = Path(__file__).resolve().parent.parent

# One deterministic profile for the whole suite: bounded example counts keep
# the eigensolver-heavy properties quick, and derandomization keeps CI runs
# reproducible run-to-run.
settings.register_profile(
    "suite",
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def run_python(*args, timeout=120, cwd=None):
    """Run this interpreter on ``args`` with ``src/`` importable, capturing
    text output: ``pythonpath`` in pyproject.toml reaches only the pytest
    process, not its children."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env, timeout=timeout
    )


# References for the GHZ and W closed forms. The package's structured
# kernels evaluate the same expressions; the tests hold those kernels, and
# the dense eigensolver, to these.


def ghz_negativity_formula(agg):
    """Most negative PT eigenvalue of a dephased GHZ state: any cut gives
    the same value, -(1/2) * prod(gamma_i)."""
    return -0.5 * float(np.prod(agg.gamma))


def w_negativity_formula(agg, cut):
    """Most negative PT eigenvalue of a dephased W state on ``cut``:
    -(1/N) * sqrt(sum of gamma^2 over P1 * sum of gamma^2 over P2)."""
    g2 = agg.gamma**2
    inside = np.array([cut.cli_bitmask >> q & 1 for q in range(cut.n_qubits)], dtype=bool)
    return -float(np.sqrt(g2[inside].sum() * g2[~inside].sum())) / cut.n_qubits
