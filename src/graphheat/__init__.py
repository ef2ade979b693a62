"""Heat-semigroup controllability and observability on weighted graphs.

The package verifies, at finite scale, the interplay between graph
geometry and the heat equation: weak observability estimates with
explicit constants, Gramian-based minimal-energy control synthesis with
certified contraction targets, eigenfunction obstructions to exact null
control, two-sided necessity bounds, and Monte Carlo cross-validation
through the associated continuous-time random walk.

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to 1 where they are unset, before numpy is
imported, so a run writes the same bytes on any number of cores: BLAS
rounds a product by how it splits the work.  A count set in the
environment is kept, and numpy imported before graphheat keeps its own.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .covering import (
    CoveringMap,
    CoveringValidation,
    build_cyclic_cover,
    lemma_sets,
    lift_function,
    validate_covering,
)
from .control import (
    ControlResult,
    ControlSignal,
    Gramian,
    StabilizationReport,
    gramian,
    hautus_obstruction,
    stabilize,
    synth_control,
    verify_control,
)
from .families import FamilyResult, build_family, parity_subset
from .graph import (
    AssumptionReport,
    FullSetInradiusWarning,
    MetricKind,
    WeightedGraph,
    build_graph,
    covering_radius,
    distance,
    folner_ratio,
    graph_from_json,
    graph_to_json,
    inradius,
    load_graph_json,
    load_subset_json,
    max_ball_volume,
    validate_assumptions,
)
from .observability import (
    UPReport,
    WeakObsConstants,
    WeakObsVerification,
    exact_obs_constant,
    up_paper_bound,
    up_sharp_constant,
    up_sweep,
    verify_weak_obs,
    verify_weak_obs_multi,
    weak_obs_constants,
)
from .scenarios import (
    Scenario,
    ScenarioOutcome,
    TaskReport,
    emit_report,
    load_scenario,
    run_scenario,
)
from .spectral import (
    SpectralDecomposition,
    apply_laplacian,
    eigendecompose,
    op_norm_H_plus_1,
    semigroup_apply,
    time_lr_norm,
)
from .stochastic import (
    FarVertexReport,
    MCEstimate,
    NecessityReport,
    PathBatch,
    erlang_tail,
    far_vertex_sequence,
    fk_estimate,
    necessity_bounds_check,
    sample_ctmc_paths,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "ControlResult",
    "ControlSignal",
    "CoveringMap",
    "CoveringValidation",
    "FamilyResult",
    "FarVertexReport",
    "FullSetInradiusWarning",
    "Gramian",
    "MCEstimate",
    "MetricKind",
    "NecessityReport",
    "PathBatch",
    "Scenario",
    "ScenarioOutcome",
    "SpectralDecomposition",
    "StabilizationReport",
    "TaskReport",
    "UPReport",
    "WeakObsConstants",
    "WeakObsVerification",
    "WeightedGraph",
    "apply_laplacian",
    "build_cyclic_cover",
    "build_family",
    "build_graph",
    "covering_radius",
    "distance",
    "eigendecompose",
    "emit_report",
    "erlang_tail",
    "exact_obs_constant",
    "far_vertex_sequence",
    "fk_estimate",
    "folner_ratio",
    "gramian",
    "graph_from_json",
    "graph_to_json",
    "hautus_obstruction",
    "inradius",
    "lemma_sets",
    "lift_function",
    "load_graph_json",
    "load_scenario",
    "load_subset_json",
    "max_ball_volume",
    "necessity_bounds_check",
    "op_norm_H_plus_1",
    "parity_subset",
    "run_scenario",
    "sample_ctmc_paths",
    "semigroup_apply",
    "stabilize",
    "synth_control",
    "time_lr_norm",
    "up_paper_bound",
    "up_sharp_constant",
    "up_sweep",
    "validate_assumptions",
    "validate_covering",
    "verify_control",
    "verify_weak_obs",
    "verify_weak_obs_multi",
    "weak_obs_constants",
]
