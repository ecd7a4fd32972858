"""Simulation and dependency-graph recovery for non-stationary multivariate
Hawkes processes."""

# Set before the submodule imports: sweep shard keys include it.
__version__ = "0.1.0"

from .detect import (
    DetectorConfig,
    calibrate_threshold,
    detect,
    detect_subset,
    load_graph,
    pair_scores,
    save_graph,
    suggest_epsilon,
    theorem_schedule,
    theorem_threshold,
)
from .expectations import (
    DriftReport,
    ExpectationReport,
    drift_matrix,
    mc_delta_drift,
    mc_indicator,
    predicted_pair,
    predicted_pattern,
    predicted_triple,
    within_envelope,
)
from .experiments import (
    InfeasibleModelError,
    ModelRanges,
    RateBoundReport,
    TrialResult,
    planted_model,
    random_model,
    rate_bound_check,
    run_trial,
    sweep,
)
from .model import (
    AssumptionCheck,
    BaselineSpec,
    DependencyGraph,
    HawkesModel,
    KernelSpec,
    ModelConstants,
    ValidationReport,
    load_model,
    save_model,
    true_graph,
    validate_model,
)
from .simulation import (
    Event,
    EventLog,
    child_seed,
    intensity,
    load_events,
    max_intensity_trace,
    save_events,
    simulate,
)
from .stats import (
    BinGrid,
    PairStatistics,
    PairTable,
    accumulate_all,
    bin_count,
    bin_events,
    jitter,
    window_count,
)
