"""Distributed stochastic-approximation engine.

Each iteration applies a projected ascent step per agent along a noisy
observation of its own negative utility gradient, then mixes the agents'
temporary states with a random doubly stochastic matrix.  The state is an
``(n_agents, dim)`` array of per-agent blocks; the mixing matrix acts on
blocks, so the Kronecker lift onto the stacked vector never needs to be
materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constraints import ConstraintSet, Unconstrained, kt_residual
from .diagnostics import CltSpec, TraceRecord, disagreement_norm, network_average
from .network import GossipModel, is_connected, sample_gossip, spectral_gap

#: Stacked-state norm beyond which a run is declared divergent.
DIVERGENCE_LIMIT = 1e12

# Spawn keys deriving the independent random streams of a replica from the
# run seed: dynamics (observations and gossip), diagnostics (Monte-Carlo
# summaries attached to trace records), and the initial state.  The ensemble
# runner has a stream of its own, disjoint from every per-replica key.
_DYNAMICS = 0
_DIAGNOSTICS = 1
_INITIAL = 2
_ENSEMBLE = 1000


def _stream(seed: int, replica: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replica, role)))


class SimulationAbort(RuntimeError):
    """A run stopped before completing; carries the records emitted so far."""

    def __init__(self, message: str, iteration: int | None = None, records=()):
        super().__init__(message)
        self.iteration = iteration
        self.records = tuple(records)


class DivergenceError(SimulationAbort):
    """The stacked state norm exceeded the divergence guard."""


class NonFiniteObservationError(SimulationAbort):
    """An oracle draw contained NaN or infinity."""

    def __init__(self, message: str, agent: int, iteration: int | None = None, records=()):
        super().__init__(message, iteration=iteration, records=records)
        self.agent = agent


class AssumptionError(RuntimeError):
    """Configuration failed the assumption validators and was not overridden."""

    def __init__(self, report: "AssumptionReport"):
        super().__init__("assumption checks failed:\n" + report.format())
        self.report = report


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying step sizes ``gamma0 * n**-xi`` with ``n`` from 1.

    Exponents are restricted to ``(0, 1]`` so the step mass diverges; the
    stricter range ``(1/2, 1]`` needed by the convergence theory is enforced
    by :func:`validate_assumptions`, not here, so that runs probing its
    violation remain expressible.
    """

    gamma0: float
    xi: float

    def __post_init__(self) -> None:
        if self.gamma0 <= 0.0:
            raise ValueError("gamma0 must be positive")
        if not 0.0 < self.xi <= 1.0:
            raise ValueError("xi must lie in (0, 1]")

    def gamma(self, n: int) -> float:
        if n < 1:
            raise ValueError("iteration index starts at 1")
        return self.gamma0 * float(n) ** (-self.xi)

    def gamma_array(self, n_iter: int) -> np.ndarray:
        """Steps for iterations ``1..n_iter`` as one array."""
        return self.gamma0 * np.arange(1, n_iter + 1, dtype=float) ** (-self.xi)


@dataclass(eq=False)
class Problem:
    """Optimization target seen through per-agent noisy gradient observations.

    ``gradient`` maps a ``(..., n_agents, dim)`` stack of agent blocks to
    the stack of local gradients: row ``i`` of the result is agent ``i``'s
    gradient at its own block, e.g. ``lambda theta: theta - centers`` for
    quadratic utilities.  It must broadcast over leading axes; this is what
    lets many replicas advance at once.

    ``oracle(theta, rng)`` must return the stacked observation for every
    agent given the ``(n_agents, dim)`` block matrix.  When omitted it is
    ``-gradient(theta)`` plus isotropic Gaussian noise of standard deviation
    ``noise_scale`` (a scalar, or a callable of the block matrix for
    state-dependent scaling).

    ``objective`` and ``residual`` are optional diagnostic hooks with
    signature ``(average, rng) -> float``; the residual defaults to the
    norm of the summed gradient (unconstrained) or the stationarity
    residual against the constraint set.
    """

    dim: int
    n_agents: int
    gradient: Callable[[np.ndarray], np.ndarray] | None
    constraint: ConstraintSet | None = None
    noise_scale: float | Callable = 0.0
    oracle: Callable | None = None
    objective: Callable | None = None
    residual: Callable | None = None
    clt_spec: CltSpec | None = None

    def __post_init__(self) -> None:
        if self.dim < 1 or self.n_agents < 1:
            raise ValueError("dim and n_agents must be positive")
        if self.constraint is None:
            self.constraint = Unconstrained(self.dim)
        if self.constraint.dim != self.dim:
            raise ValueError("constraint dimension does not match the problem dimension")
        if self.oracle is None:
            if self.gradient is None:
                raise ValueError("provide either an oracle or a gradient")
            self.oracle = self._gaussian_oracle
        if self.residual is None and self.gradient is not None:
            self.residual = self._gradient_residual
        if self.clt_spec is not None and self.clt_spec.dim != self.dim:
            raise ValueError("clt_spec dimension does not match the problem dimension")

    def mean_gradient(self, theta: np.ndarray) -> np.ndarray:
        """Gradient of the aggregate utility (sum over agents) at one point."""
        if self.gradient is None:
            raise ValueError("this problem has no closed-form gradient")
        theta = np.asarray(theta, dtype=float)
        stacked = np.broadcast_to(theta, (self.n_agents, self.dim))
        return self.gradient(stacked).sum(axis=0)

    def _gaussian_oracle(self, theta, rng: np.random.Generator) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        scale = self.noise_scale(theta) if callable(self.noise_scale) else self.noise_scale
        # ``s*z - g`` in place: bit-identical to ``-g + s*z`` without temporaries.
        y = rng.standard_normal(theta.shape)
        y *= scale
        y -= self.gradient(theta)
        return y

    def _gradient_residual(self, average, rng) -> float:
        grad = self.mean_gradient(average)
        if isinstance(self.constraint, Unconstrained):
            return float(np.linalg.norm(grad))
        return kt_residual(self.constraint, average, grad)


@dataclass(eq=False)
class RunConfig:
    """Everything one reproducible run needs.

    ``initial_state`` is either a fixed ``(n_agents, dim)`` array shared by
    all replicas or a callable ``rng -> array`` drawn independently per
    replica.  Replica ``r`` of a config seeds its streams from
    ``(seed, r)``, so replicas are decoupled and the whole experiment is a
    pure function of the configuration.
    """

    problem: Problem
    gossip: GossipModel
    schedule: StepSchedule
    initial_state: np.ndarray | Callable[[np.random.Generator], np.ndarray]
    n_iter: int
    seed: int = 0
    replicas: int = 1
    record_every: int = 10
    override_checks: bool = False

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise ValueError("n_iter must be at least 1")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.gossip.graph.n_agents != self.problem.n_agents:
            raise ValueError("gossip graph and problem disagree on the number of agents")
        if not callable(self.initial_state):
            self.initial_state = _validated_state(
                np.asarray(self.initial_state, dtype=float), self.problem
            )


def _validated_state(state: np.ndarray, problem: Problem) -> np.ndarray:
    if state.shape != (problem.n_agents, problem.dim):
        raise ValueError(
            f"initial state must have shape {(problem.n_agents, problem.dim)}, "
            f"got {state.shape}"
        )
    if not np.isfinite(state).all():
        raise ValueError("initial state must be finite")
    outside = problem.constraint.first_infeasible(state)
    if outside is not None:
        raise ValueError(f"initial block of agent {outside + 1} is infeasible")
    return state


def _initial_state(config: RunConfig, replica: int) -> np.ndarray:
    if callable(config.initial_state):
        drawn = np.asarray(config.initial_state(_stream(config.seed, replica, _INITIAL)), float)
        return _validated_state(drawn, config.problem)
    return np.array(config.initial_state, dtype=float)


def local_step(theta, y, gamma: float, constraint: ConstraintSet) -> np.ndarray:
    """Projected ascent step ``P[theta_i + gamma * y_i]`` for every block.

    The stepped ``(n_agents, dim)`` stack is projected in one
    ``constraint.project`` call, whatever the constraint kind.  ``gamma``
    comes from a :class:`StepSchedule`, which keeps it nonnegative; a step
    that underflows to zero leaves ``theta`` in place.
    """
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        agent = int(np.argwhere(~finite.all(axis=-1))[0][0]) + 1
        raise NonFiniteObservationError(
            f"non-finite observation for agent {agent}", agent=agent
        )
    return constraint.project(theta + gamma * y)


def gossip_step(theta, w) -> np.ndarray:
    """Mix the agent blocks with the doubly stochastic matrix ``w``.

    Row ``i`` of the result is the ``w``-weighted combination of the input
    blocks; the network average is preserved because the column sums are one.
    ``w`` is not checked here: the engine only passes matrices of its gossip
    model, which are checked once, when the model builds them.
    """
    return w @ theta


@dataclass(frozen=True, eq=False)
class RunResult:
    """Trace and terminal state of one replica."""

    records: tuple[TraceRecord, ...]
    final_state: np.ndarray
    initial_state: np.ndarray
    replica: int

    @property
    def initial_disagreement(self) -> float:
        return disagreement_norm(self.initial_state)


def _make_record(n, gamma, theta, problem, diag_rng) -> TraceRecord:
    average = network_average(theta)
    record_residual = float("nan")
    if problem.residual is not None:
        record_residual = float(problem.residual(average, diag_rng))
    record_objective = float("nan")
    if problem.objective is not None:
        record_objective = float(problem.objective(average, diag_rng))
    return TraceRecord(
        n=n,
        gamma=gamma,
        disagreement=disagreement_norm(theta),
        average=average,
        residual=record_residual,
        objective=record_objective,
    )


def _check_recorded_feasibility(theta, constraint, n) -> None:
    outside = constraint.first_infeasible(theta)
    if outside is not None:
        raise SimulationAbort(
            f"block of agent {outside + 1} left the feasible set at iteration {n}",
            iteration=n,
        )


def run(config: RunConfig, replica: int = 0) -> RunResult:
    """Execute one replica and return its trace and final state.

    The run is bit-reproducible as a function of ``(config, replica)``.  Each
    iteration draws the stacked observation given the previous state, takes
    the projected local step with the step size of iteration ``n``, then
    draws the mixing matrix (independently of the observation) and mixes.
    A record is emitted every ``record_every`` iterations and at the final
    iteration, after checking that every block is feasible.  Whatever the
    constraint, the run aborts with :class:`DivergenceError` when the stacked
    norm passes :data:`DIVERGENCE_LIMIT` or is NaN.  Every
    :class:`SimulationAbort` carries its iteration and the records collected
    so far.
    """
    report = validate_assumptions(config)
    if not report.ok and not config.override_checks:
        raise AssumptionError(report)
    rng = _stream(config.seed, replica, _DYNAMICS)
    diag_rng = _stream(config.seed, replica, _DIAGNOSTICS)
    theta0 = _initial_state(config, replica)
    theta = theta0.copy()
    problem, schedule, gossip = config.problem, config.schedule, config.gossip
    records: list[TraceRecord] = []
    try:
        for n in range(1, config.n_iter + 1):
            gamma = schedule.gamma(n)
            y = problem.oracle(theta, rng)
            temporary = local_step(theta, y, gamma, problem.constraint)
            theta = gossip_step(temporary, sample_gossip(gossip, n, rng))
            # ``sqrt(x . x)`` is what ``np.linalg.norm`` computes, bit for
            # bit; written ``not <=`` so that a NaN state aborts too.
            flat = theta.ravel()
            if not (math.sqrt(flat.dot(flat)) <= DIVERGENCE_LIMIT):
                raise DivergenceError(
                    f"stacked state norm exceeded {DIVERGENCE_LIMIT:g} at iteration {n}",
                    iteration=n,
                )
            if n % config.record_every == 0 or n == config.n_iter:
                _check_recorded_feasibility(theta, problem.constraint, n)
                records.append(_make_record(n, gamma, theta, problem, diag_rng))
    except SimulationAbort as err:
        if err.iteration is None:
            err.iteration = n
        err.records = tuple(records)
        raise
    return RunResult(
        records=tuple(records), final_state=theta, initial_state=theta0, replica=replica
    )


def run_replicas(config: RunConfig) -> list[RunResult]:
    """Execute ``config.replicas`` independent replicas sequentially."""
    return [run(config, replica) for replica in range(config.replicas)]


def run_ensemble(config: RunConfig) -> np.ndarray:
    """Advance all replicas simultaneously and return the final states.

    Vectorizes the replica loop into array operations, which is what makes
    large fluctuation studies affordable.  Requires an unconstrained problem
    whose oracle broadcasts over a leading replica axis (the default
    Gaussian oracle does).  Per-replica initial states match those of
    sequential runs; the dynamics draws come from one shared stream, so the
    ensemble is statistically equivalent to, but not draw-for-draw identical
    with, a loop of :func:`run` calls.

    Each iteration draws the observations, then one block of ``2 * replicas``
    uniforms: the first half decides which replicas exchange, the second
    picks their edge by :meth:`GossipModel.pick_edges` (threshold counting,
    linear in the number of edges; it beats a binary search up to about 60
    edges).  Every replica is then mixed by one flat pairwise average
    over the ``(replicas * n_agents, dim)`` view of the state; a lazy
    replica averages an agent with itself, which leaves it unchanged
    exactly.  The state is updated in place; the oracle's array is not.
    The run aborts with :class:`DivergenceError` once some entry's magnitude
    passes :data:`DIVERGENCE_LIMIT` or is NaN.
    """
    report = validate_assumptions(config)
    if not report.ok and not config.override_checks:
        raise AssumptionError(report)
    if not isinstance(config.problem.constraint, Unconstrained):
        raise NotImplementedError("vectorized replicas support unconstrained problems only")

    n_replicas = config.replicas
    rng = _stream(config.seed, 0, _ENSEMBLE)
    theta = np.stack([_initial_state(config, r) for r in range(n_replicas)])
    n_agents = theta.shape[1]
    flat = theta.reshape(n_replicas * n_agents, -1)
    gammas = config.schedule.gamma_array(config.n_iter)
    steps = np.arange(1, config.n_iter + 1, dtype=float)
    gossip = config.gossip
    activation = np.minimum(1.0, gossip.activation_scale * steps ** (-gossip.activation_decay))
    endpoints = np.stack(gossip._edge_table[:2])
    offsets = np.arange(n_replicas) * n_agents

    uniforms = np.empty(2 * n_replicas)
    activation_draws = uniforms[:n_replicas]
    edge_draws = uniforms[n_replicas:]
    lazy = np.empty(n_replicas, dtype=bool)
    picked = gossip.pick_edges(edge_draws)
    rows = np.empty((2, n_replicas), dtype=np.intp)
    pair = np.empty((2, n_replicas, flat.shape[1]))

    for n in range(1, config.n_iter + 1):
        y = np.asarray(config.problem.oracle(theta, rng), dtype=float)
        if not np.isfinite(y).all():
            replica, agent = _first_non_finite(y, theta.shape)
            raise NonFiniteObservationError(
                f"non-finite observation for agent {agent} in replica {replica} "
                f"at iteration {n}",
                agent=agent,
                iteration=n,
            )
        theta += gammas[n - 1] * y
        rng.random(out=uniforms)
        gossip.pick_edges(edge_draws, out=picked)
        np.take(endpoints, picked, axis=1, out=rows)
        rows += offsets
        if activation[n - 1] < 1.0:
            np.greater_equal(activation_draws, activation[n - 1], out=lazy)
            np.copyto(rows[1], rows[0], where=lazy)
        np.take(flat, rows, axis=0, out=pair)
        mixed = pair[0]
        mixed += pair[1]
        mixed *= 0.5
        flat[rows] = mixed
        if not (float(np.abs(theta).max()) <= DIVERGENCE_LIMIT):
            raise DivergenceError(
                f"ensemble state exceeded {DIVERGENCE_LIMIT:g} at iteration {n}",
                iteration=n,
            )
    return theta


def _first_non_finite(y: np.ndarray, shape: tuple) -> tuple[int, int]:
    """0-based replica and 1-based agent of the first non-finite entry of ``y``."""
    bad = np.flatnonzero(~np.isfinite(np.broadcast_to(y, shape)))[0]
    replica, agent, _ = np.unravel_index(bad, shape)
    return int(replica), int(agent) + 1


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    """Pass/fail outcome of every applicable configuration check."""

    checks: tuple[AssumptionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> tuple[AssumptionCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def format(self) -> str:
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"{status} {check.name}: {check.detail}")
        return "\n".join(lines)


def validate_assumptions(config: RunConfig) -> AssumptionReport:
    """Check the sufficient conditions under which the run is known to behave.

    The conditions are sufficient rather than necessary, so callers may
    override a failing report (``config.override_checks``) to probe their
    violation on purpose.
    """
    xi = config.schedule.xi
    gamma0 = config.schedule.gamma0
    eta = config.gossip.activation_decay
    checks = [
        AssumptionCheck(
            "step_exponent",
            0.5 < xi <= 1.0,
            f"xi={xi:g} (step exponent must lie in (1/2, 1])",
        ),
        AssumptionCheck(
            "laziness_vs_step",
            eta < xi - 0.5,
            f"eta={eta:g}, xi - 1/2 = {xi - 0.5:g} (need eta < xi - 1/2)",
        ),
    ]
    connected = is_connected(config.gossip.graph)
    rho = spectral_gap(config.gossip, 1)
    checks.append(
        AssumptionCheck(
            "connectivity",
            connected,
            f"connected={connected}, rho={rho:.6g} (need a connected graph, rho < 1)",
        )
    )
    spec = config.problem.clt_spec
    if spec is not None and xi == 1.0:
        value = 2.0 * spec.decay_rate * gamma0
        checks.append(
            AssumptionCheck(
                "clt_step_scale",
                value > 1.0,
                f"2*L*gamma0 = {value:.6g} (need 2*L*gamma0 > 1 when xi = 1)",
            )
        )
    return AssumptionReport(tuple(checks))
