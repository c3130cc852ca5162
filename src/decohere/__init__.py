"""Collisional dephasing of multiqubit states and its entanglement cost.

The library builds GHZ, W, and linear-cluster states, decoheres them with
per-qubit collision channels (microscopic controlled-unitary form or the
reduced dephasing map), and measures what survives via partial-transpose
negativity across every bipartite cut — exact PT spectra (structured per
family, dense for any state). The GHZ and W structured spectra are those
families' closed forms; ``cluster_negativity_formula`` is the independent
closed form of 2- and 3-qubit cluster chains.
"""

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
from .errors import (
    CapacityError,
    ConfigError,
    DecohereError,
    FormulaUnavailableError,
    InvalidPartitionError,
    InvalidSizeError,
    NormalizationError,
    SymmetryViolationError,
)
from .experiment import (
    ExperimentConfig,
    ResultRow,
    load_config,
    parse_config,
    run_single,
    run_sweep,
    write_csv,
)
from .linalg import (
    DensityMatrix,
    kron,
    partial_trace,
    partial_transpose,
)
from .negativity import (
    BipartiteCut,
    DistillabilityVerdict,
    NegativityReport,
    cluster_negativity_formula,
    critical_gamma,
    distillability_check,
    enumerate_cuts,
    negativity_oracle,
    negativity_reports,
)
from .states import Family, StateFamily, make_cluster, make_ghz, make_state, make_w, to_density
from .tolerances import MAX_QUBITS

__version__ = "0.1.0"
