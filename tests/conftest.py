import os
import subprocess
import sys
from pathlib import Path

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
