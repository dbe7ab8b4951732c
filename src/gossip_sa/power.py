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
from functools import cached_property
from typing import Callable, NamedTuple

import math

import numpy as np

from . import core
from .constraints import BudgetSimplex, kt_residual

#: Channel laws by name: each draw rule maps ``(rng, shape)`` to a new
#: C-ordered array of i.i.d. power gains of that shape.
CHANNEL_LAWS: dict[str, Callable[[np.random.Generator, tuple], np.ndarray]] = {
    "exponential": np.random.Generator.standard_exponential,
    "constant": lambda rng, shape: np.ones(shape),
}


@dataclass(frozen=True, eq=False)
class PowerScenario:
    """Static parameters of the interference network: ``budgets``,
    ``noise_vars`` and ``weights`` hold one positive finite entry per user."""

    n_users: int
    n_channels: int
    budgets: np.ndarray
    noise_vars: np.ndarray
    weights: np.ndarray
    channel_distribution: str = "exponential"

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_channels < 1:
            raise ValueError("need at least one user and one subchannel")
        for name in ("budgets", "noise_vars", "weights"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.shape != (self.n_users,):
                raise ValueError(f"{name} must have one entry per user")
            if not np.all((arr > 0.0) & (arr < np.inf)):  # NaN fails both
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, arr)
        if self.channel_distribution not in CHANNEL_LAWS:
            raise ValueError(
                f"unknown channel distribution {self.channel_distribution!r}, "
                f"expected one of {', '.join(CHANNEL_LAWS)}"
            )

    @cached_property
    def gain_shape(self) -> tuple[int, int, int]:
        """Shape of one channel realization ``gains[j, i, k]``: transmitter
        ``j``, receiver ``i``, subchannel ``k``."""
        return (self.n_users, self.n_users, self.n_channels)

    def draw(self, rng: np.random.Generator, lead: tuple[int, ...] = ()) -> np.ndarray:
        """I.i.d. channel power gains of shape ``(*lead, *gain_shape)``,
        drawn from ``rng`` under the scenario's channel law."""
        return CHANNEL_LAWS[self.channel_distribution](rng, (*lead, *self.gain_shape))

    @property
    def dim(self) -> int:
        """Length of the stacked allocation vector."""
        return self.n_users * self.n_channels

    def feasible_set(self) -> BudgetSimplex:
        """Nonnegative powers with one budget per user block."""
        return BudgetSimplex.per_user(self.n_users, self.n_channels, self.budgets)


def _all_receiver_terms(scenario, p, gains):
    """Per-channel terms of every receiver at once, indexed ``[..., i, k]``.

    ``p[..., i, :, :]`` is the ``(n_users, n_channels)`` power matrix
    receiver ``i`` sees; leading axes of ``p`` and ``gains`` broadcast.
    Returns the own gains (a view of ``gains``), the signals and the
    interference-plus-noise floors, each bit for bit what the per-user
    reference form in ``tests/reference.py`` gives for one receiver.
    """
    incoming = gains.swapaxes(-3, -2)  # [..., i, j, k]: transmitter j toward receiver i
    own_gain = incoming.diagonal(0, -3, -2).swapaxes(-1, -2)
    load = np.einsum("...ijk,...ijk->...ik", incoming, p)
    signal = own_gain * p.diagonal(0, -3, -2).swapaxes(-1, -2)
    interference = load - signal
    return own_gain, signal, scenario.noise_vars[:, None] + interference


def _all_rate_gradients(scenario, gains, terms, out=None) -> np.ndarray:
    """Every receiver's rate gradient, laid out as ``gains``: entry
    ``[..., j, i, k]`` is the derivative of user ``i + 1``'s rate in
    transmitter ``j``'s power on subchannel ``k``, at ``p[..., i, :, :]``,
    the matrix receiver ``i`` sees, bit for bit the per-user form in
    ``tests/reference.py``.

    ``terms`` are :func:`_all_receiver_terms` of ``(p, gains)``.  The
    gradients are written to ``out`` when it is given: a C-ordered array,
    which may be ``gains`` itself.
    """
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be a C-ordered array")
    own_gain, signal, floor = terms
    total = floor + signal
    own = own_gain / total  # before ``out`` may overwrite the own gains
    cross_factor = (signal / (floor * total))[..., None, :, :]
    # ``-(a * b)`` in place: bit-identical to ``(-a) * b`` with one temporary less.
    grad = np.multiply(gains, cross_factor, out=out, order="C")
    np.negative(grad, out=grad)
    # The own-power entries ``[..., i, i, :]`` are every ``n + 1``-th row of
    # the flattened ``(j, i)`` axes; ``grad`` is C-ordered, so the reshape
    # is a view and the write lands in ``grad``.
    n = scenario.n_users
    grad.reshape(*grad.shape[:-3], n * n, -1)[..., :: n + 1, :] = own
    return grad


def stochastic_oracle(scenario: PowerScenario, theta_blocks, gains) -> np.ndarray:
    """Stacked ascent observations on one channel realization per stack.

    Agent ``i`` is receiver ``i`` evaluated at its own allocation estimate
    ``theta_blocks[i]``; all agents are evaluated together, and row ``i``
    is ``weights[i]`` times user ``i + 1``'s rate gradient there, bit for
    bit the per-user form in ``tests/reference.py``.  Leading axes of
    ``theta_blocks`` are independent stacks, and ``gains`` holds one
    :meth:`PowerScenario.draw` realization for each, with the same leading
    shape.  The sign is an ascent direction, equivalent to descending the
    negated weighted ergodic sum rate.
    """
    theta_blocks = np.asarray(theta_blocks, dtype=float)
    if theta_blocks.shape[-2:] != (scenario.n_users, scenario.dim):
        raise ValueError(
            f"expected blocks of shape {(scenario.n_users, scenario.dim)}, "
            f"got {theta_blocks.shape}"
        )
    shape = (*theta_blocks.shape[:-2], *scenario.gain_shape)
    if np.shape(gains) != shape:
        raise ValueError(f"expected gains of shape {shape}, got {np.shape(gains)}")
    p = theta_blocks.reshape(shape)
    grad = _all_rate_gradients(scenario, gains, _all_receiver_terms(scenario, p, gains))
    weighted = np.multiply(scenario.weights[:, None, None], grad.swapaxes(-3, -2), order="C")
    return weighted.reshape(*weighted.shape[:-2], scenario.dim)


class ObjectiveEstimate(NamedTuple):
    value: float | np.ndarray
    ascent: np.ndarray


def estimate_objective(
    scenario: PowerScenario, theta, mc_trials: int, rng: np.random.Generator
) -> ObjectiveEstimate:
    """Monte-Carlo estimates of the weighted ergodic sum rate at ``theta``
    and of its ascent gradient, both over one sample of ``mc_trials``
    channel draws (common random numbers).

    ``theta`` is one allocation of length ``dim``, which gives a float
    ``value`` and a ``(dim,)`` ``ascent``, or a ``(..., dim)`` stack of
    them, which gives a ``value`` per point and an ascent per point.  The
    stack draws its samples in one call, point after point in C order, so
    each point gets bit for bit what a call on it alone would, one call
    after another on the same generator.  The users' weighted rates, and
    their weighted mean gradients, are summed in user order, starting from
    zero.
    """
    if mc_trials < 1:
        raise ValueError("mc_trials must be at least 1")
    theta = np.asarray(theta, dtype=float)
    lead = theta.shape[:-1]
    gains = scenario.draw(rng, (*lead, mc_trials))
    # Every receiver of every trial sees the point's one allocation.
    p = theta.reshape(*lead, 1, 1, scenario.n_users, scenario.n_channels)
    p = np.broadcast_to(p, (*lead, 1, *scenario.gain_shape))
    terms = _all_receiver_terms(scenario, p, gains)
    _, signal, floor = terms
    rates = np.log1p(signal / floor).sum(axis=-1)
    totals = np.zeros((*lead, mc_trials))
    for i in range(scenario.n_users):
        totals += scenario.weights[i] * rates[..., i]
    # The gradients overwrite the sample, which nothing reads afterwards.
    grad = _all_rate_gradients(scenario, gains, terms, out=gains)
    means = grad.swapaxes(-3, -2).mean(axis=-4).reshape(*lead, scenario.n_users, scenario.dim)
    ascent = np.zeros((*lead, scenario.dim))
    for i in range(scenario.n_users):
        ascent += scenario.weights[i] * means[..., i, :]
    # A single point's mean is a numpy float scalar, which is a ``float``.
    return ObjectiveEstimate(value=totals.mean(axis=-1), ascent=ascent)


def weighted_gradient_estimate(
    scenario: PowerScenario, theta, mc_trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte-Carlo estimate of the ascent gradient of the weighted ergodic
    sum rate: the ``ascent`` of :func:`estimate_objective`."""
    return estimate_objective(scenario, theta, mc_trials, rng).ascent


def build_power_problem(scenario: PowerScenario, mc_trials: int) -> core.Problem:
    """Wrap a scenario as an engine problem.

    The noise of an observation is one channel realization per replica,
    drawn by :meth:`PowerScenario.draw`, and the oracle evaluates the whole
    batch on it in one :func:`stochastic_oracle` call.  The stationarity
    residual and the objective of a trace record are Monte-Carlo estimates
    (the ergodic gradient has no closed form) over one common sample of
    ``mc_trials`` channel draws per record point: one
    :func:`estimate_objective` call gives both, for all of a replica's
    points of a record block, from that replica's diagnostics generator,
    one replica after another.  When that sample would pass
    :data:`gossip_sa.core.BLOCK_BYTES`, read at each call, a replica's
    points are split into runs of consecutive points, one call each, which
    draws the same numbers.  The residuals of the whole block are then taken
    in one stacked :func:`kt_residual` call.
    """
    feasible = scenario.feasible_set()
    point_bytes = mc_trials * math.prod(scenario.gain_shape) * 8

    def oracle(theta, gains):
        return stochastic_oracle(scenario, theta, gains)

    def evaluate(averages, rngs):
        size = max(1, core.BLOCK_BYTES // point_bytes)
        ascents = np.empty(averages.shape)
        values = np.empty(averages.shape[:-1])
        for points, g, ascent, value in zip(averages, rngs, ascents, values):
            for i in range(0, len(points), size):
                est = estimate_objective(scenario, points[i : i + size], mc_trials, g)
                ascent[i : i + size], value[i : i + size] = est.ascent, est.value
        return kt_residual(feasible, averages, -ascents), values

    return core.Problem(
        dim=scenario.dim,
        n_agents=scenario.n_users,
        gradient=None,
        constraint=feasible,
        oracle=oracle,
        evaluate=evaluate,
        draw=scenario.draw,
        noise_shape=scenario.gain_shape,
    )
