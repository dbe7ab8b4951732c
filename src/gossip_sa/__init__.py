"""Multi-agent stochastic approximation with randomized gossip averaging.

Agents take projected stochastic gradient steps on their own utilities and
average with random neighbors; the package simulates the scheme, checks
the sufficient conditions it relies on, and measures agreement,
convergence and the asymptotic fluctuation law.

The names below are the documented library surface; everything else is
imported from its submodule (``gossip_sa.config``, ``gossip_sa.diagnostics``
and so on).
"""

from .config import ConfigError
from .constraints import Box, BudgetSimplex, ConstraintSet, Halfspaces, Unconstrained
from .core import (
    AssumptionError,
    DivergenceError,
    NonFiniteObservationError,
    Problem,
    RunConfig,
    SimulationAbort,
    StepSchedule,
    run,
    run_ensemble,
)
from .diagnostics import InsufficientReplicasError
from .network import GossipModel, Graph

__version__ = "0.1.0"
