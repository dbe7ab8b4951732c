"""Distributed stochastic-approximation engine.

Each iteration applies a projected ascent step per agent along a noisy
observation of its own negative utility gradient, then mixes the agents'
temporary states with a random doubly stochastic matrix.  The state of a
replica is an ``(n_agents, dim)`` array of per-agent blocks; the mixing
matrix acts on blocks, so the Kronecker lift onto the stacked vector never
needs to be materialized.  :func:`run` advances several replicas as one
``(replicas, n_agents, dim)`` batch, each on its own random streams.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constraints import ConstraintSet, Unconstrained, block_norms, kt_residual
from .diagnostics import CltSpec, trace_dtype
from .network import GossipModel, is_connected, sample_gossip, spectral_gap

#: Stacked-state norm beyond which a run is declared divergent.
DIVERGENCE_LIMIT = 1e12

# Spawn keys deriving the independent random streams of a replica from the
# run seed: gossip (mixing draws), diagnostics (Monte-Carlo summaries attached
# to trace records), the initial state and observations (the oracle's noise).
# The ensemble runner has a stream of its own, disjoint from every per-replica
# key.
_GOSSIP = 0
_DIAGNOSTICS = 1
_INITIAL = 2
_OBSERVATION = 3
_ENSEMBLE = 1000

#: Most bytes one block of draws may hold: the observation noise
#: :func:`run` draws ahead, and the sample of one call a record hook makes.
#: A generator fills its output in order, so cutting a block shorter leaves
#: every number in place.
BLOCK_BYTES = 8 << 20

#: :func:`run` draws each replica's observation noise this many steps at a
#: time, or fewer when the ``(replicas, steps, *noise_shape)`` block would
#: pass :data:`BLOCK_BYTES`, and its gossip uniforms this many numbers at a
#: time, or fewer when ``replicas`` blocks of them would.
NOISE_BLOCK_STEPS = 64

#: :func:`run` evaluates its trace records this many record steps at a
#: time, in one :func:`_make_record` call, and at the last iteration or an
#: abort whatever is pending.  Each record is evaluated from the state
#: copied at its own step, so the blocking leaves every number in place.
#: A hook that draws a sample for the points of a block splits them into
#: calls whose sample fits in :data:`BLOCK_BYTES`.
RECORD_BLOCK = 4

#: :func:`run_ensemble` makes each step's shared draws on a worker thread,
#: ahead of the step that uses them, when a step draws at least this many
#: numbers (noise and uniforms) and the process may run on two CPUs or
#: more; below it the loop draws them itself.  The worker overlaps the
#: draws, which release the interpreter lock, with the rest of the step, but
#: costs a handoff and lock contention each step.  On a 2-CPU VM, with four
#: scalar agents (six numbers per replica), it lost at 875 replicas (5 250
#: numbers, +10%) and won at 1 000 (6 000 numbers, -8%).
DRAW_AHEAD_NUMBERS = 6000


def _stream(seed: int, replica: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replica, role)))


class _UniformBlocks:
    """``rng``'s uniforms, handed out one per :meth:`random` call.

    Each refill is one ``rng.random(size)`` call.  A generator fills an
    array with exactly the doubles its successive scalar calls return, so
    the source yields ``rng.random()``'s sequence; it only draws up to
    ``size - 1`` numbers past the last one taken.  The source is built
    from C-level iterators alone, so neither taking a number nor a refill
    enters a Python frame.
    """

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator, size: int):
        blocks = itertools.starmap(rng.random, itertools.repeat((size,)))
        refills = map(np.ndarray.tolist, blocks)
        self.random = itertools.chain.from_iterable(refills).__next__


class SimulationAbort(RuntimeError):
    """A run stopped before completing; carries the records emitted so far.

    ``replica`` names the replica that failed, when one did; :func:`run`
    reports it by replica number, and ``records`` are the rows that replica
    recorded before the abort: its row of :attr:`RunResult.records`, cut
    short.  An abort with no record table (that of :func:`run_ensemble`)
    carries ``()``.
    """

    def __init__(
        self, message: str, iteration: int | None = None, records=(), replica: int | None = None
    ):
        super().__init__(message)
        self.iteration = iteration
        self.records = records
        self.replica = replica


class DivergenceError(SimulationAbort):
    """The stacked state norm exceeded the divergence guard."""


class NonFiniteObservationError(SimulationAbort):
    """An oracle draw contained NaN or infinity."""

    def __init__(
        self,
        message: str,
        agent: int,
        iteration: int | None = None,
        records=(),
        replica: int | None = None,
    ):
        super().__init__(message, iteration=iteration, records=records, replica=replica)
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


@dataclass(eq=False)
class Problem:
    """Optimization target seen through per-agent noisy gradient observations.

    ``gradient`` maps a ``(..., n_agents, dim)`` stack of agent blocks to
    the stack of local gradients: row ``i`` of the result is agent ``i``'s
    gradient at its own block, e.g. ``lambda theta: theta - centers`` for
    quadratic utilities.  It must broadcast over leading axes; this is what
    lets many replicas advance at once.

    ``oracle(theta, noise)`` is a pure function: it returns every agent's
    observation in the shape of the ``(replicas, n_agents, dim)`` batch
    ``theta``, from ``theta`` and one ``(replicas, *noise_shape)`` noise
    draw.  Both engines call it once per iteration, on a state they later
    update in place, and neither mutates what it returns.  When omitted it
    is ``-gradient(theta) + noise_scale * noise``.

    ``draw(rng, lead)`` says how that noise is drawn: it returns an array
    of shape ``(*lead, *noise_shape)`` from the generator ``rng``.  The
    default draws standard normals, with ``noise_shape`` ``(n_agents,
    dim)``.  :func:`run` draws each replica's noise from its own
    observation stream, :func:`run_ensemble` the whole batch's from its one
    shared stream.

    ``evaluate(averages, rngs) -> (residuals, objectives)`` is the optional
    diagnostic hook of trace records.  ``averages`` is a ``(replicas, k,
    dim)`` block of network averages: row ``r`` holds replica ``r``'s ``k``
    record points in record order, and ``rngs`` are the replicas'
    diagnostics generators in order, so row ``r`` is evaluated from
    ``rngs[r]``.  It returns one residual and one objective per point, each
    of shape ``(replicas, k)``; a negative residual makes :func:`run` raise
    :class:`ValueError` at the end of its block.  Power allocation's hook
    makes one ``estimate_objective`` call per replica per block.  Given a
    gradient it defaults to :meth:`gradient_residual` and no objective
    (NaN).
    """

    dim: int
    n_agents: int
    gradient: Callable[[np.ndarray], np.ndarray] | None
    constraint: ConstraintSet | None = None
    noise_scale: float = 0.0
    oracle: Callable | None = None
    evaluate: Callable | None = None
    clt_spec: CltSpec | None = None
    draw: Callable | None = None
    noise_shape: tuple[int, ...] | None = None

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
        if self.draw is None:
            self.draw = self._standard_normal_draw
        if self.noise_shape is None:
            self.noise_shape = (self.n_agents, self.dim)
        self.noise_shape = tuple(self.noise_shape)
        if self.evaluate is None and self.gradient is not None:
            self.evaluate = self._gradient_evaluate
        if self.clt_spec is not None and self.clt_spec.dim != self.dim:
            raise ValueError("clt_spec dimension does not match the problem dimension")

    def mean_gradient(self, theta: np.ndarray) -> np.ndarray:
        """Gradient of the aggregate utility (sum over agents) at each point of a stack."""
        if self.gradient is None:
            raise ValueError("this problem has no closed-form gradient")
        theta = np.asarray(theta, dtype=float)
        shape = (*theta.shape[:-1], self.n_agents, self.dim)
        return self.gradient(np.broadcast_to(theta[..., None, :], shape)).sum(axis=-2)

    def _gaussian_oracle(self, theta, noise) -> np.ndarray:
        """``-gradient(theta) + noise_scale * noise``, one batch of observations."""
        # ``s*z - g`` without touching ``noise``: bit-identical to ``-g + s*z``.
        y = np.multiply(noise, self.noise_scale)
        y -= self.gradient(np.asarray(theta, dtype=float))
        return y

    def _standard_normal_draw(self, rng: np.random.Generator, lead) -> np.ndarray:
        return rng.standard_normal((*lead, *self.noise_shape))

    def gradient_residual(self, averages) -> np.ndarray:
        """Norm of the summed gradient (unconstrained) or the stationarity
        residual against the set, at every point of a stack."""
        grads = self.mean_gradient(averages)
        if isinstance(self.constraint, Unconstrained):
            return block_norms(grads)
        return kt_residual(self.constraint, averages, grads)

    def _gradient_evaluate(self, averages, rngs):
        return self.gradient_residual(averages), np.full(averages.shape[:-1], float("nan"))


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


def _initial_batch(config: RunConfig, replicas) -> np.ndarray:
    """Pass the assumption gate, then stack the initial states of ``replicas``."""
    report = validate_assumptions(config)
    if not report.ok and not config.override_checks:
        raise AssumptionError(report)
    if not callable(config.initial_state):
        return np.stack([config.initial_state] * len(replicas))
    draws = [config.initial_state(_stream(config.seed, r, _INITIAL)) for r in replicas]
    return np.stack([_validated_state(np.asarray(x, float), config.problem) for x in draws])


def _draw_noise(problem: Problem, rng: np.random.Generator, lead: tuple[int, ...]) -> np.ndarray:
    """``problem.draw(rng, lead)``, refused unless it has shape ``(*lead, *noise_shape)``."""
    noise = problem.draw(rng, lead)
    expected = (*lead, *problem.noise_shape)
    if np.shape(noise) != expected:
        raise ValueError(f"the draw returned noise of shape {np.shape(noise)}, expected {expected}")
    return noise


def _observe(problem: Problem, theta: np.ndarray, noise) -> np.ndarray:
    """``problem.oracle(theta, noise)``, refused unless it has the batch's shape."""
    y = np.asarray(problem.oracle(theta, noise), dtype=float)
    if y.shape != theta.shape:
        raise ValueError(f"the oracle returned shape {y.shape}, expected the batch's {theta.shape}")
    return y


def _check_finite(y: np.ndarray) -> None:
    """Abort on a non-finite entry of the stack or batch ``y``, naming its
    0-based position in the batch (``replica``) and its 1-based agent."""
    if not np.isfinite(y).all():
        batch = np.isfinite(y).reshape(-1, *y.shape[-2:])
        replica, agent, _ = map(int, np.unravel_index(np.argmin(batch), batch.shape))
        raise NonFiniteObservationError(
            f"non-finite observation for agent {agent + 1}", agent=agent + 1, replica=replica
        )


def _check_divergence(theta: np.ndarray, n: int) -> None:
    """Abort once the stacked norm of some replica of the batch ``theta``
    passes :data:`DIVERGENCE_LIMIT` or is NaN, naming its 0-based position.

    Entries within half the limit over ``sqrt(n_agents * dim)`` keep every
    norm below half the limit, whatever the rounding, so one max-abs screen
    clears the whole batch.  Only when it fails is each norm taken exactly,
    as ``sqrt(x . x)``: ``np.linalg.norm``, bit for bit.  NaN fails ``<=``.
    """
    if np.abs(theta).max() <= 0.5 * DIVERGENCE_LIMIT / math.sqrt(theta[0].size):
        return
    for r, x in enumerate(theta.reshape(len(theta), -1)):
        if not (math.sqrt(x.dot(x)) <= DIVERGENCE_LIMIT):
            raise DivergenceError(
                f"stacked state norm exceeded {DIVERGENCE_LIMIT:g} at iteration {n}",
                iteration=n,
                replica=r,
            )


def _report_abort(err: SimulationAbort, n: int, replicas, records) -> None:
    """Complete ``err``, raised at iteration ``n`` by a check that named a
    0-based position in the batch (or none, meaning the first): name that
    replica's number, stamp the iteration and attach its records."""
    position = err.replica or 0
    err.replica = replicas[position]
    err.args = (f"{err.args[0]} in replica {err.replica}",)
    if err.iteration is None:
        err.iteration = n
    err.records = records[position]


def local_step(theta, y, gamma: float, constraint: ConstraintSet) -> np.ndarray:
    """Projected ascent step ``P[theta_i + gamma * y_i]`` for every block.

    ``theta`` and ``y`` are an ``(n_agents, dim)`` stack of blocks or an
    ``(replicas, n_agents, dim)`` batch of them; either way all blocks are
    projected in one ``constraint.project`` call, whatever the constraint
    kind.  A non-finite observation names its 0-based position in the batch
    (``replica``) and its 1-based agent.  ``gamma`` comes from a
    :class:`StepSchedule`, which keeps it nonnegative; a step that
    underflows to zero leaves ``theta`` in place.
    """
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_finite(y)
    return constraint.project(theta + gamma * y)


def gossip_step(theta, w, out: np.ndarray | None = None) -> np.ndarray:
    """Mix the agent blocks with the doubly stochastic matrix ``w``.

    Row ``i`` of the result is the ``w``-weighted combination of the input
    blocks; the network average is preserved because the column sums are one.
    A batch of ``(replicas, n_agents, dim)`` states is mixed by a
    ``(replicas, n_agents, n_agents)`` stack of matrices, one per replica.
    ``w`` is not checked here: the engine only passes matrices of its gossip
    model, which are doubly stochastic by construction.  The result is
    written to ``out`` when it is given.
    """
    return np.matmul(w, theta, out=out)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Traces and terminal states of a batch of replicas.

    ``records`` is the batch's trace table: a ``(replicas, n_records)``
    ``np.recarray`` of :func:`~gossip_sa.diagnostics.trace_dtype` rows, row
    ``i`` holding replica ``replicas[i]``'s trace, so a column is
    ``records["disagreement"]`` and a replica's last row is
    ``records[i, -1]``.  ``final_states`` and ``initial_states`` are the
    batch's ``(replicas, n_agents, dim)`` states, and ``initial_disagreement``
    holds each replica's initial disagreement, by the rule of the records.
    """

    records: np.recarray
    final_states: np.ndarray
    initial_states: np.ndarray
    replicas: tuple[int, ...]
    initial_disagreement: np.ndarray


def _disagreement(states):
    """The network averages of a ``(..., n_agents, dim)`` stack of states,
    and the norm of each state's deviation from its average."""
    averages = states.mean(axis=-2)
    deviations = states - averages[..., None, :]
    return averages, block_norms(deviations.reshape(*states.shape[:-2], -1))


def _make_record(theta_block, problem, diag_rngs, out) -> None:
    """Evaluate the trace rows ``out``, of shape ``(replicas, k)``, from the
    ``(replicas, k, n_agents, dim)`` block ``theta_block`` of the states at
    their ``k`` record steps; ``out``'s ``n`` and ``gamma`` are already set.

    Each reduction over the block keeps the bits of the one on a single
    replica's state.  One ``problem.evaluate`` call gets the block of
    averages and ``diag_rngs``, one generator per replica, and gives the
    residual and objective columns (power allocation's hook makes one
    ``estimate_objective`` call per replica on it); a negative residual is
    rejected, since it is a norm, with :class:`ValueError` at the end of its
    block.
    """
    averages, out["disagreement"] = _disagreement(theta_block)
    out["average"] = averages
    if problem.evaluate is None:
        out["residual"] = out["objective"] = float("nan")
        return
    out["residual"], out["objective"] = problem.evaluate(averages, diag_rngs)
    if (out["residual"] < 0.0).any():
        raise ValueError("the evaluate hook returned a negative residual, which is a norm")


def _check_recorded_feasibility(theta, constraint, n) -> None:
    """Abort unless every block of the stack or batch ``theta`` is feasible.

    The batch is flattened to one ``(replicas * n_agents, dim)`` stack, so
    that each block is held to its own tolerance; the first failure names
    its 0-based position in the batch (``replica``) and its 1-based agent.
    """
    n_agents, dim = theta.shape[-2:]
    outside = constraint.first_infeasible(theta.reshape(-1, dim))
    if outside is not None:
        replica, agent = divmod(outside, n_agents)
        raise SimulationAbort(
            f"block of agent {agent + 1} left the feasible set at iteration {n}",
            iteration=n,
            replica=replica,
        )


@np.errstate(all="ignore")
def run(config: RunConfig, replicas=None) -> RunResult:
    """Execute the given replicas of ``config`` as one batch.

    Returns one :class:`RunResult` whose rows follow ``replicas``, in
    order; by default the replicas are ``range(config.replicas)``.  The
    batch state is a ``(replicas, n_agents, dim)`` array, and each replica
    draws from its own ``(seed, replica)`` streams exactly the numbers a
    solo run draws, so ``run(config, range(R)).records[r]`` equals
    ``run(config, [r]).records[0]`` bit for bit,
    given an oracle that computes each replica alike in a batch of any size
    from that replica's state and noise alone, as the default one does with
    an elementwise ``problem.gradient``.
    Each replica's observation stream draws its noise by ``problem.draw``,
    :data:`NOISE_BLOCK_STEPS` iterations at a time (fewer for a large
    batch), and its gossip stream its mixing matrices' uniforms, in refills
    of up to :data:`NOISE_BLOCK_STEPS` numbers under the same byte cap,
    taken one by one in order, so the draws are those of scalar calls.
    Each iteration makes one ``problem.oracle(theta, noise)`` call on that
    iteration's noise, draws each replica's mixing matrix at the
    iteration's one exchange probability, takes the projected local step
    with the step size of iteration ``n`` and mixes.  A draw or an observation
    of the wrong shape raises :class:`ValueError`.  Every ``record_every``
    iterations and at the last, once every block is checked feasible, the
    batch is recorded: its step and step size at once, its state into a block of
    :data:`RECORD_BLOCK` record steps, which one :func:`_make_record` call
    then evaluates for all replicas, when the block is full, at the last
    iteration or on an abort; for power allocation that is one
    ``estimate_objective`` call per replica per block.  A negative residual
    from ``problem.evaluate`` raises :class:`ValueError` at the end of its
    block.  Whatever the constraint, a replica aborts the run with
    :class:`DivergenceError` when its stacked norm passes
    :data:`DIVERGENCE_LIMIT` or is NaN.

    The batch stops at the first iteration where any replica fails.  The
    :class:`SimulationAbort` names the lowest-numbered position that failed
    there: its ``replica`` attribute and message give that replica's
    number, and it carries the iteration and the rows that replica recorded.

    The call ignores numpy's float errors, so no float warning leaves it: a
    non-finite observation or state ends the run through its guard, and a
    record value past the largest float, or undefined, is ``inf`` or ``nan``.
    """
    replicas = [int(r) for r in (range(config.replicas) if replicas is None else replicas)]
    if not replicas or min(replicas) < 0:
        raise ValueError("replicas must be a nonempty sequence of nonnegative integers")
    theta0 = _initial_batch(config, replicas)
    theta = theta0.copy()
    observation_rngs = [_stream(config.seed, r, _OBSERVATION) for r in replicas]
    diag_rngs = [_stream(config.seed, r, _DIAGNOSTICS) for r in replicas]
    problem, schedule, gossip = config.problem, config.schedule, config.gossip
    w = np.empty((len(replicas), problem.n_agents, problem.n_agents))
    # Each replica's gossip uniforms, ``refill`` at a time: one per lazy
    # step and two per exchange, so any refill size yields the same draws.
    refill = max(1, min(NOISE_BLOCK_STEPS, BLOCK_BYTES // (len(replicas) * 8)))
    gossip_sources = [_UniformBlocks(_stream(config.seed, r, _GOSSIP), refill) for r in replicas]
    # Per-replica views of the mixing buffer, and the replica's gossip source.
    slots = list(zip(w, gossip_sources))
    # Each replica's observation noise for the next ``steps`` iterations.
    step_bytes = len(replicas) * math.prod(problem.noise_shape) * 8
    steps = max(1, min(NOISE_BLOCK_STEPS, BLOCK_BYTES // step_bytes, config.n_iter))
    block = np.empty((len(replicas), steps, *problem.noise_shape))
    # One trace row per replica and record step; ``filled`` steps recorded so
    # far, of which the first ``done`` are evaluated and the rest wait in
    # ``pending``, one state each.
    n_records = -(-config.n_iter // config.record_every)  # ceil(n_iter / record_every)
    table = np.empty((len(replicas), n_records), trace_dtype(problem.dim))
    pending = np.empty((len(replicas), RECORD_BLOCK, problem.n_agents, problem.dim))
    filled = done = 0

    def evaluate_pending():
        nonlocal done
        _make_record(pending[:, : filled - done], problem, diag_rngs, table[:, done:filled])
        done = filled

    try:
        for n in range(1, config.n_iter + 1):
            gamma = schedule.gamma(n)
            k = (n - 1) % steps
            if k == 0:
                size = min(steps, config.n_iter - n + 1)
                for noise, g in zip(block, observation_rngs):
                    noise[:size] = _draw_noise(problem, g, (size,))
            y = _observe(problem, theta, block[:, k])
            p = gossip.activation_probability(n)
            for mix, g in slots:
                mix[...] = sample_gossip(gossip, p, g)
            gossip_step(local_step(theta, y, gamma, problem.constraint), w, out=theta)
            _check_divergence(theta, n)
            if n % config.record_every == 0 or n == config.n_iter:
                _check_recorded_feasibility(theta, problem.constraint, n)
                table["n"][:, filled] = n
                table["gamma"][:, filled] = gamma
                pending[:, filled - done] = theta
                filled += 1
                if filled - done == RECORD_BLOCK or n == config.n_iter:
                    evaluate_pending()
    except SimulationAbort as err:
        if filled > done:
            evaluate_pending()
        _report_abort(err, n, replicas, table[:, :filled].view(np.recarray))
        raise
    _, disagreement = _disagreement(theta0)
    return RunResult(table.view(np.recarray), theta, theta0, tuple(replicas), disagreement)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _draw_ahead(problem: Problem, rng, n_replicas: int, n_iter: int, handoff, stop) -> None:
    """The worker of :func:`_shared_draws`: put each step's draws on
    ``handoff``, in step order, until ``n_iter`` steps are drawn or ``stop``
    is set.  An exception is put in the place of its step's draws and ends
    the worker.  Threads do not inherit numpy's error state, so the draws
    run under the engine's policy here."""
    lead = (n_replicas,)
    try:
        with np.errstate(all="ignore"):
            for _ in range(n_iter):
                if stop.is_set():
                    return
                noise = _draw_noise(problem, rng, lead)
                handoff.put((noise, rng.random(out=np.empty(2 * n_replicas))))
    except BaseException as exc:
        handoff.put(exc)


@contextmanager
def _shared_draws(problem: Problem, rng, n_replicas: int, n_iter: int):
    """Yield a callable that returns each step's shared draws in turn: the
    noise, ``problem.draw(rng, (n_replicas,))``, then ``2 * n_replicas``
    uniforms from ``rng.random(out=...)``.

    A large step's draws come from a worker thread that makes them ahead
    (:data:`DRAW_AHEAD_NUMBERS`); a smaller step's are made by the call.
    Either way ``rng`` makes the same calls in the same order, so every
    number is the same, and an exception a draw raises is raised by the call
    for its step.  The worker is stopped and joined however the block
    exits.
    """
    lead = (n_replicas,)
    numbers = n_replicas * (math.prod(problem.noise_shape) + 2)
    if numbers < DRAW_AHEAD_NUMBERS or _usable_cpus() < 2:
        uniforms = np.empty(2 * n_replicas)
        yield lambda: (_draw_noise(problem, rng, lead), rng.random(out=uniforms))
        return
    import queue

    # One step's draws wait in the handoff while the worker makes the next
    # and the loop uses the one before: at most three steps' draws are held.
    handoff = queue.Queue(maxsize=1)
    stop = threading.Event()
    worker = threading.Thread(
        target=_draw_ahead,
        args=(problem, rng, n_replicas, n_iter, handoff, stop),
        name="gossip-sa-draws",
        daemon=True,
    )

    def take():
        draws = handoff.get()
        if isinstance(draws, BaseException):
            raise draws
        return draws

    worker.start()
    try:
        yield take
    finally:
        stop.set()
        # The worker puts at most one more item once ``stop`` is set; this
        # frees a slot for it, so it cannot block.
        try:
            handoff.get_nowait()
        except queue.Empty:
            pass
        worker.join()


@np.errstate(all="ignore")
def run_ensemble(config: RunConfig) -> np.ndarray:
    """Advance all replicas simultaneously and return the final states.

    Vectorizes the replica loop into array operations, which is what makes
    large fluctuation studies affordable.  Requires an unconstrained
    problem.  Per-replica initial states, step sizes and exchange
    probabilities match those of :func:`run`; the noise and gossip draws
    come from one shared stream, so the ensemble is statistically
    equivalent to, but not draw-for-draw identical with, :func:`run`.

    Each iteration takes the batch's noise, ``problem.draw(rng,
    (replicas,))``, and one block of ``2 * replicas`` uniforms,
    ``rng.random(out=...)``, in that order from the shared stream, and makes
    one oracle call on the noise.  The first half of the uniforms decides
    which replicas exchange, the second picks their edge by
    :meth:`GossipModel.pick_edges`.
    Every replica is then mixed by one pairwise average, gathered from and
    scattered back to the flat view of the state by the index of each
    entry; a lazy replica averages an agent with itself, which leaves it
    unchanged exactly.  The state is updated in place; the oracle's array
    is not.  Like :func:`run`, the ensemble ignores numpy's float errors,
    so no float warning leaves it, and a non-finite observation or state
    ends it through its guard.

    The guard is one :func:`_check_divergence` of the state after the
    step, and the observations are checked only when it finds a divergent
    replica.  A non-finite observation always leaves a non-finite entry in
    the state, even under a step that underflows to zero (``0 * inf`` is
    NaN), so the guard fails on it, and the observation is named before any
    divergent state: the abort is the one a check before the step raises.

    When a step draws at least :data:`DRAW_AHEAD_NUMBERS` numbers (6 000:
    1 000 replicas of four scalar agents) and the process may use two CPUs
    or more, a worker thread makes each step's draws while the loop runs
    the step before, and hands them over one step at a time; below that
    size the loop makes them itself.  The stream makes the same calls in
    the same order either way, so the result, and any exception a draw
    raises at its step, is the same on both sides of the rule.  The worker
    runs under the same float policy, and it is stopped and joined before
    the call returns or raises.
    """
    if not isinstance(config.problem.constraint, Unconstrained):
        raise NotImplementedError("vectorized replicas support unconstrained problems only")
    replicas = range(config.replicas)
    theta = _initial_batch(config, replicas)
    rng = _stream(config.seed, 0, _ENSEMBLE)
    problem, schedule, gossip = config.problem, config.schedule, config.gossip
    n_replicas, n_agents, dim = theta.shape
    # Indices count single entries of the state, so the pair average is
    # gathered and scattered along the one axis of its flat view.
    flat = theta.reshape(-1)
    endpoints = np.stack(gossip._edge_table[:2]) * dim
    offsets = (np.arange(n_replicas) * (n_agents * dim))[:, None] + np.arange(dim)

    lazy = np.empty(n_replicas, dtype=bool)
    picked = np.empty(n_replicas, dtype=np.intp)
    ends = np.empty((2, n_replicas), dtype=np.intp)
    entries = np.empty((2, n_replicas, dim), dtype=np.intp)
    first, second = entries
    with _shared_draws(problem, rng, n_replicas, config.n_iter) as draws:
        try:
            for n in range(1, config.n_iter + 1):
                noise, uniforms = draws()
                y = _observe(problem, theta, noise)
                gossip.pick_edges(uniforms[n_replicas:], out=picked)
                np.take(endpoints, picked, axis=1, out=ends)
                p = gossip.activation_probability(n)
                if p < 1.0:
                    np.greater_equal(uniforms[:n_replicas], p, out=lazy)
                    np.copyto(ends[1], ends[0], where=lazy)
                np.add(ends[..., None], offsets, out=entries)
                theta += schedule.gamma(n) * y
                pair = flat[entries]
                mixed = pair[0]
                mixed += pair[1]
                mixed *= 0.5
                flat[first] = mixed
                flat[second] = mixed
                try:
                    _check_divergence(theta, n)
                except DivergenceError:
                    # An observation that is a view of the state was the finite
                    # state before the step; any other is checked here.
                    if not np.may_share_memory(y, theta):
                        _check_finite(y)
                    raise
        except SimulationAbort as err:
            _report_abort(err, n, replicas, [()] * n_replicas)
            raise
    return theta


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
    rho = spectral_gap(config.gossip)
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
