"""Multiuser power allocation over shared fading subchannels.

``n_users`` transmitter-receiver pairs share ``n_channels`` parallel
subchannels and interfere with each other.  The decision variable stacks
every user's per-channel powers into one vector, and each agent of the
distributed run keeps its own estimate of that full allocation.  The
objective is the weighted sum of ergodic rates; agents observe single
channel realizations, so their rate gradients are unbiased one-sample
estimates of the ergodic gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .constraints import BudgetSimplex, kt_residual
from .core import Problem


@dataclass(frozen=True, eq=False)
class PowerScenario:
    """Static parameters of the interference network."""

    n_users: int
    n_channels: int
    budgets: np.ndarray
    noise_vars: np.ndarray
    weights: np.ndarray
    channel_distribution: str | Callable = "exponential"

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_channels < 1:
            raise ValueError("need at least one user and one subchannel")
        for name in ("budgets", "noise_vars", "weights"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.shape != (self.n_users,):
                raise ValueError(f"{name} must have one entry per user")
            if np.any(arr <= 0.0):
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        """Length of the stacked allocation vector."""
        return self.n_users * self.n_channels

    def power_matrix(self, theta) -> np.ndarray:
        """Reshape a stacked allocation into (user, channel) form."""
        return np.asarray(theta, dtype=float).reshape(self.n_users, self.n_channels)

    def feasible_set(self) -> BudgetSimplex:
        """Nonnegative powers with one budget per user block."""
        return BudgetSimplex.per_user(self.n_users, self.n_channels, self.budgets)


def sample_channels(
    rng: np.random.Generator,
    n_users: int,
    n_channels: int,
    n_draws: int | None = None,
    distribution: str | Callable = "exponential",
) -> np.ndarray:
    """Draw i.i.d. channel power gains ``gains[j, i, k]`` (transmitter j,
    receiver i, subchannel k), optionally with a leading draw axis."""
    shape: tuple[int, ...] = (n_users, n_users, n_channels)
    if n_draws is not None:
        shape = (n_draws, *shape)
    if callable(distribution):
        gains = np.asarray(distribution(rng, shape), dtype=float)
        if gains.shape != shape:
            raise ValueError("channel sampler returned the wrong shape")
        return gains
    if distribution == "exponential":
        return rng.standard_exponential(shape)
    if distribution == "constant":
        return np.ones(shape)
    raise ValueError(f"unknown channel distribution {distribution!r}")


def _user_index(scenario: PowerScenario, user: int) -> int:
    if not 1 <= user <= scenario.n_users:
        raise ValueError(f"user index must lie in [1, {scenario.n_users}], got {user}")
    return user - 1


def _receiver_terms(scenario, theta, gains, i):
    """Per-channel signal and interference-plus-noise terms for receiver ``i``."""
    p = scenario.power_matrix(theta)
    incoming = gains[..., :, i, :]  # all transmitters toward receiver i
    own_gain = incoming[..., i, :]
    load = np.einsum("...jk,jk->...k", incoming, p)
    signal = own_gain * p[i]
    interference = load - signal
    return incoming, own_gain, signal, scenario.noise_vars[i] + interference


def rate(scenario: PowerScenario, theta, gains, user: int):
    """Achievable rate of ``user`` (natural log) for given gains.

    ``gains`` may carry leading batch axes, in which case an array of rates
    is returned.
    """
    i = _user_index(scenario, user)
    _, _, signal, floor = _receiver_terms(scenario, theta, gains, i)
    value = np.log1p(signal / floor).sum(axis=-1)
    return float(value) if np.ndim(value) == 0 else value


def rate_gradient(scenario: PowerScenario, theta, gains, user: int) -> np.ndarray:
    """Gradient of ``user``'s rate with respect to the full stacked allocation.

    The own-power components are ``gain / (floor + signal)`` per channel;
    the cross components are nonpositive, reflecting that other users'
    power only adds interference.  Supports leading batch axes on ``gains``.
    """
    i = _user_index(scenario, user)
    incoming, own_gain, signal, floor = _receiver_terms(scenario, theta, gains, i)
    total = floor + signal
    cross_factor = (signal / (floor * total))[..., None, :]
    grad = -incoming * cross_factor
    grad[..., i, :] = own_gain / total
    return grad.reshape(*gains.shape[:-3], scenario.dim)


def _all_receiver_terms(scenario, p, gains):
    """Per-channel terms of every receiver at once, indexed ``[..., i, k]``.

    ``p[i]`` is the ``(n_users, n_channels)`` power matrix receiver ``i``
    sees.  Returns the incoming gains ``[..., i, j, k]`` (transmitter ``j``
    toward receiver ``i``), the own gains, the signals and the
    interference-plus-noise floors, each the same numbers
    :func:`_receiver_terms` gives for one receiver.
    """
    diag = np.arange(scenario.n_users)
    incoming = np.swapaxes(gains, -3, -2)
    own_gain = incoming[..., diag, diag, :]
    load = np.einsum("...ijk,ijk->...ik", incoming, p)
    signal = own_gain * p[diag, diag]
    interference = load - signal
    return incoming, own_gain, signal, scenario.noise_vars[:, None] + interference


def _all_rate_gradients(scenario, p, gains) -> np.ndarray:
    """Every receiver's rate gradient, ``[..., i, :]`` for user ``i + 1``.

    Row ``i`` equals ``rate_gradient(scenario, p_i, gains, i + 1)``, where
    ``p_i = p[i]`` is the matrix receiver ``i`` sees.
    """
    diag = np.arange(scenario.n_users)
    incoming, own_gain, signal, floor = _all_receiver_terms(scenario, p, gains)
    total = floor + signal
    cross_factor = (signal / (floor * total))[..., None, :]
    grad = -incoming * cross_factor
    grad[..., diag, diag, :] = own_gain / total
    return grad.reshape(*grad.shape[:-2], scenario.dim)


def stochastic_oracle(
    scenario: PowerScenario, theta_blocks, rng: np.random.Generator
) -> np.ndarray:
    """Stacked ascent observations from one fresh channel realization.

    Agent ``i`` is receiver ``i`` evaluated at its own allocation estimate
    ``theta_blocks[i]``; all agents are evaluated together, and row ``i``
    equals ``weights[i] * rate_gradient(scenario, theta_blocks[i], gains,
    i + 1)`` bit for bit.  Conforms to the engine's oracle interface; the
    sign is an ascent direction, equivalent to descending the negated
    weighted ergodic sum rate.
    """
    theta_blocks = np.asarray(theta_blocks, dtype=float)
    if theta_blocks.shape != (scenario.n_users, scenario.dim):
        raise ValueError(
            f"expected blocks of shape {(scenario.n_users, scenario.dim)}, "
            f"got {theta_blocks.shape}"
        )
    gains = sample_channels(
        rng,
        scenario.n_users,
        scenario.n_channels,
        distribution=scenario.channel_distribution,
    )
    p = theta_blocks.reshape(scenario.n_users, scenario.n_users, scenario.n_channels)
    return scenario.weights[:, None] * _all_rate_gradients(scenario, p, gains)


class ObjectiveEstimate(NamedTuple):
    value: float
    std_error: float


def _shared(scenario: PowerScenario, theta) -> np.ndarray:
    """One allocation seen by every receiver, as a read-only broadcast."""
    p = scenario.power_matrix(theta)
    return np.broadcast_to(p, (scenario.n_users, *p.shape))


def _draw_gains(scenario: PowerScenario, mc_trials: int, rng: np.random.Generator):
    if mc_trials < 1:
        raise ValueError("mc_trials must be at least 1")
    return sample_channels(
        rng,
        scenario.n_users,
        scenario.n_channels,
        n_draws=mc_trials,
        distribution=scenario.channel_distribution,
    )


def estimate_objective(
    scenario: PowerScenario, theta, mc_trials: int, rng: np.random.Generator
) -> ObjectiveEstimate:
    """Monte-Carlo estimate of the weighted ergodic sum rate at ``theta``.

    The users' weighted rates are summed in user order, starting from zero.
    """
    gains = _draw_gains(scenario, mc_trials, rng)
    _, _, signal, floor = _all_receiver_terms(scenario, _shared(scenario, theta), gains)
    rates = np.log1p(signal / floor).sum(axis=-1)
    totals = np.zeros(mc_trials)
    for i in range(scenario.n_users):
        totals += scenario.weights[i] * rates[:, i]
    std_error = float(totals.std(ddof=1) / np.sqrt(mc_trials)) if mc_trials > 1 else 0.0
    return ObjectiveEstimate(value=float(totals.mean()), std_error=std_error)


def weighted_gradient_estimate(
    scenario: PowerScenario, theta, mc_trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte-Carlo estimate of the ascent gradient of the weighted ergodic sum rate.

    The users' weighted mean gradients are summed in user order, starting
    from zero.
    """
    gains = _draw_gains(scenario, mc_trials, rng)
    means = _all_rate_gradients(scenario, _shared(scenario, theta), gains).mean(axis=0)
    total = np.zeros(scenario.dim)
    for i in range(scenario.n_users):
        total += scenario.weights[i] * means[i]
    return total


#: Active-set tolerance for trace residuals of projected runs.  Iterates hover
#: an O(step size) distance off the boundary (own-power observations are
#: strictly positive, so projection is undone a little every round), which the
#: strict default tolerance would classify as "no constraint active".
RESIDUAL_ACTIVE_TOL = 1e-3


def build_power_problem(scenario: PowerScenario, mc_trials: int = 1000) -> Problem:
    """Wrap a scenario as an engine problem.

    The stationarity residual and the objective of trace records are
    Monte-Carlo estimates over fresh channel draws (the ergodic gradient has
    no closed form), evaluated with ``mc_trials`` samples each.
    """
    feasible = scenario.feasible_set()

    def oracle(blocks, rng):
        return stochastic_oracle(scenario, blocks, rng)

    def objective(average, rng):
        return estimate_objective(scenario, average, mc_trials, rng).value

    def residual(average, rng):
        ascent = weighted_gradient_estimate(scenario, average, mc_trials, rng)
        tol = RESIDUAL_ACTIVE_TOL * (1.0 + float(np.linalg.norm(average)))
        return kt_residual(feasible, average, -ascent, tol=tol)

    return Problem(
        dim=scenario.dim,
        n_agents=scenario.n_users,
        gradient=None,
        constraint=feasible,
        oracle=oracle,
        objective=objective,
        residual=residual,
    )


def random_feasible_start(
    scenario: PowerScenario, n_agents: int
) -> Callable[[np.random.Generator], np.ndarray]:
    """Sampler of stacked initial blocks, uniform on per-channel capped boxes.

    Each coordinate of user ``j`` is drawn from ``[0, budget_j / K]``, which
    keeps every user block inside its budget; projection is applied anyway
    as a guard.
    """
    caps = np.repeat(scenario.budgets / scenario.n_channels, scenario.n_channels)
    feasible = scenario.feasible_set()

    def sampler(rng: np.random.Generator) -> np.ndarray:
        blocks = rng.uniform(0.0, caps, size=(n_agents, scenario.dim))
        return feasible.project(blocks)

    return sampler
