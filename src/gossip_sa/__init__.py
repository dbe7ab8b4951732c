"""Multi-agent stochastic approximation with randomized gossip averaging.

Agents take projected stochastic gradient steps on their own utilities and
average with random neighbors; the package simulates the scheme, checks
the sufficient conditions it relies on, and measures agreement,
convergence and the asymptotic fluctuation law.
"""

from .config import (
    ConfigError,
    ExperimentSpec,
    apply_overrides,
    build_run_config,
    parse_config,
    preset_dict,
    preset_names,
    preset_spec,
    spec_from_dict,
)
from .constraints import (
    ActiveSet,
    Box,
    BudgetSimplex,
    ConstraintSet,
    DependentGradientsWarning,
    Halfspaces,
    InfeasiblePointError,
    Unconstrained,
    active_set,
    default_active_tolerance,
    kt_residual,
    projection_drift,
)
from .core import (
    AssumptionCheck,
    AssumptionError,
    AssumptionReport,
    DivergenceError,
    NonFiniteObservationError,
    Problem,
    RunConfig,
    RunResult,
    SimulationAbort,
    StepSchedule,
    gossip_step,
    local_step,
    rm_iterate,
    run,
    run_ensemble,
    run_replicas,
    validate_assumptions,
)
from .diagnostics import (
    CltEstimate,
    CltSpec,
    InsufficientReplicasError,
    TraceRecord,
    clt_check,
    disagreement_norm,
    fit_decay_exponent,
    network_average,
    replica_mean_squared_disagreement,
    solve_lyapunov,
)
from .network import (
    Graph,
    GossipModel,
    check_doubly_stochastic,
    expected_mixing_matrix,
    is_connected,
    pairwise_matrix,
    sample_gossip,
    spectral_gap,
)
from .power import (
    ObjectiveEstimate,
    PowerScenario,
    build_power_problem,
    estimate_objective,
    random_feasible_start,
    rate,
    rate_gradient,
    sample_channels,
    stochastic_oracle,
    weighted_gradient_estimate,
)
from .runner import run_clt_study, run_experiment, validation_report

__version__ = "0.1.0"
