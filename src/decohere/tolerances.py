"""Numerical tolerances, centralized.

Every comparison threshold the library uses is a constant here, so that the
values are visible in a single place instead of scattered as magic numbers.
"""

# Max-norm bound on ``A - A.conj().T`` for density matrices.
HERMITICITY_TOL = 1e-12
# Allowed deviation of a density-matrix trace from 1.
TRACE_TOL = 1e-12
# Most negative eigenvalue still accepted as "positive semidefinite"; also the
# threshold below which a partial-transpose eigenvalue counts as genuinely
# negative (NPT).
PSD_FLOOR = -1e-10
# Allowed deviation of a state-vector squared norm from 1.
NORMALIZATION_TOL = 1e-12

# Dense 2^12 x 2^12 complex128 is ~268 MB; one working copy plus the partial
# transpose is the practical ceiling for a desktop-class machine.
MAX_QUBITS = 12
