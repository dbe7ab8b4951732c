"""Observables of a distributed run.

Covers the layout of a trace row, power-law fits of the disagreement decay,
and the asymptotic covariance of the normalized average error: a continuous
Lyapunov solve on the theory side and a filtered replica ensemble on the
empirical side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .core import StepSchedule

#: Fewest replicas a fluctuation study may use.
MIN_CLT_REPLICAS = 100
#: Fewest replicas that must survive the convergence filter of a study.
MIN_CLT_REPLICAS_USED = 30
#: Farthest a replica's final network average may end from the limit point.
CLT_RADIUS = 0.5


class InsufficientReplicasError(RuntimeError):
    """Too few replicas survive the convergence filter to estimate a covariance."""


def trace_dtype(dim: int) -> np.dtype:
    """One trace row, its fields in file-column order: the iteration ``n``,
    its step ``gamma``, the ``disagreement``, ``residual`` and ``objective``
    at the network average, and that ``(dim,)`` ``average``."""
    return np.dtype(
        [
            ("n", np.int64),
            ("gamma", float),
            ("disagreement", float),
            ("residual", float),
            ("objective", float),
            ("average", float, (dim,)),
        ]
    )


def fit_decay_exponent(ns, values) -> float:
    """Estimated exponent ``b`` of a power-law tail ``values ~ n**-b``.

    Fits a least-squares line to ``log(values)`` against ``log(ns)`` over the
    trailing half of the sequence and returns the negated slope.
    Returns ``nan`` when the tail contains no positive values (degenerate
    trace); requires at least 50 positive tail points otherwise.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.shape != values.shape or ns.ndim != 1:
        raise ValueError("ns and values must be 1-d arrays of equal length")
    start = int(round(ns.size * 0.5))
    tail_n = ns[start:]
    tail_v = values[start:]
    positive = tail_v > 0.0
    if not positive.any():
        return float("nan")
    if int(positive.sum()) < 50:
        raise ValueError(
            f"need at least 50 positive tail points to fit a decay exponent, "
            f"got {int(positive.sum())}"
        )
    slope = np.polyfit(np.log(tail_n[positive]), np.log(tail_v[positive]), 1)[0]
    return float(-slope)


def solve_lyapunov(h, zeta: float, q) -> np.ndarray:
    """Solve ``(h + zeta I) S + S (h + zeta I)^T = -q`` for the covariance ``S``.

    Uses the dense Kronecker formulation of the d^2 x d^2 linear system,
    which is exact and adequate for the small dimensions used here (tens at
    most).  The shifted matrix must be stable so that the solution exists,
    is unique, and inherits symmetry and definiteness from ``q``.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if h.shape[0] != h.shape[1] or h.shape != q.shape:
        raise ValueError("h and q must be square matrices of the same size")
    if zeta < 0.0:
        raise ValueError("zeta must be nonnegative")
    d = h.shape[0]
    a = h + zeta * np.eye(d)
    eigvals = np.linalg.eigvals(a)
    worst = eigvals[np.argmax(eigvals.real)]
    if worst.real >= 0.0:
        raise ValueError(
            f"shifted matrix is not stable: eigenvalue {worst} has nonnegative real part"
        )
    lhs = np.kron(np.eye(d), a) + np.kron(a, np.eye(d))
    sigma = np.linalg.solve(lhs, -q.reshape(-1, order="F")).reshape((d, d), order="F")
    return 0.5 * (sigma + sigma.T)


@dataclass(frozen=True, eq=False)
class CltSpec:
    """Ingredients of the normality check around a known limit point.

    ``drift_jacobian`` is the Jacobian at ``theta_star`` of the averaged
    drift (for agents minimizing ``f_i`` it is ``-(1/N) sum_i hess f_i``);
    ``noise_cov`` is the covariance of the across-agent average of the
    observation noise at consensus on ``theta_star``.  The drift must be
    finite and stable, and the covariance finite, symmetric and positive
    semidefinite.  ``theta_star`` may not be NaN, but may be infinite: a
    mean center past the largest float is left to the run's guards.
    """

    theta_star: np.ndarray
    drift_jacobian: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self) -> None:
        star = np.atleast_1d(np.asarray(self.theta_star, dtype=float))
        jac = np.atleast_2d(np.asarray(self.drift_jacobian, dtype=float))
        cov = np.atleast_2d(np.asarray(self.noise_cov, dtype=float))
        d = star.size
        if jac.shape != (d, d) or cov.shape != (d, d):
            raise ValueError("drift_jacobian and noise_cov must be d x d matrices")
        if np.isnan(star).any():
            raise ValueError("theta_star must not be NaN")
        for name, arr in (("drift_jacobian", jac), ("noise_cov", cov)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if np.max(np.linalg.eigvals(jac).real) >= 0.0:
            raise ValueError("drift_jacobian must be stable (eigenvalue real parts < 0)")
        if float(np.max(np.abs(cov - cov.T))) > 1e-10:
            raise ValueError("noise_cov must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-12 * max(float(np.max(np.abs(cov))), 1.0):
            raise ValueError("noise_cov must be positive semidefinite")
        object.__setattr__(self, "theta_star", star)
        object.__setattr__(self, "drift_jacobian", jac)
        object.__setattr__(self, "noise_cov", cov)

    @property
    def dim(self) -> int:
        return int(self.theta_star.size)

    @property
    def decay_rate(self) -> float:
        """Stability margin: minus the largest eigenvalue real part of the drift."""
        return float(-np.max(np.linalg.eigvals(self.drift_jacobian).real))

    @property
    def degenerate(self) -> bool:
        """Whether the noise covariance is not positive definite, so that the
        normalized fluctuations are degenerate."""
        scale = max(float(np.max(np.abs(self.noise_cov))), 1.0)
        return bool(np.min(np.linalg.eigvalsh(self.noise_cov)) <= 1e-15 * scale)

    def covariance(self, schedule: "StepSchedule") -> tuple[float, np.ndarray]:
        """The fluctuation law under ``schedule``: the shift ``zeta`` and the
        covariance solving the shifted Lyapunov equation.

        The shift is ``0`` for step exponents below one and ``1/(2 gamma0)``
        at exponent one.  Raises ``ValueError`` when the shifted drift is not
        stable, which at exponent one is ``2 * decay_rate * gamma0 <= 1``.
        """
        zeta = 0.0 if schedule.xi < 1.0 else 1.0 / (2.0 * schedule.gamma0)
        return zeta, solve_lyapunov(self.drift_jacobian, zeta, self.noise_cov)


@dataclass(frozen=True, eq=False)
class CltEstimate:
    """Empirical versus predicted covariance of the normalized average error."""

    empirical_cov: np.ndarray
    theoretical_cov: np.ndarray
    n_replicas_used: int
    relative_error: float
    zeta: float
    scaled_disagreement: float
    degenerate: bool


@np.errstate(all="ignore")
def clt_check(
    final_states, clt_spec: CltSpec, schedule: "StepSchedule", n_tail: int
) -> CltEstimate:
    """Compare replica fluctuations at iteration ``n_tail`` with the predicted law.

    ``final_states`` holds one ``(n_agents, dim)`` state per replica, taken
    at iteration ``n_tail``.  Replicas whose network average ended farther
    than :data:`CLT_RADIUS` from the limit point are dropped: they stand in
    for the trajectories that converged elsewhere, which the asymptotic
    statement conditions away.  The surviving averages are scaled by
    ``gamma(n_tail)**-1/2`` and their second moment about zero is compared,
    in relative Frobenius distance, with :meth:`CltSpec.covariance`.
    Per-agent samples are scaled the same way and their residual
    disagreement is reported; it should be negligible, confirming that the
    limiting fluctuation is common to all agents.  Like the engines, the
    check ignores numpy's float errors: a moment that passes the largest
    float, or is undefined, is reported as ``inf`` or ``nan``.
    """
    finals = np.asarray(final_states, dtype=float)
    if finals.ndim != 3:
        raise ValueError("final_states must have shape (replicas, n_agents, dim)")
    n_replicas = finals.shape[0]
    if n_replicas < MIN_CLT_REPLICAS:
        raise ValueError(
            f"at least {MIN_CLT_REPLICAS} replicas are required, got {n_replicas}"
        )
    d = clt_spec.dim
    if finals.shape[2] != d:
        raise ValueError("state dimension does not match the limit-point dimension")

    averages = finals.mean(axis=1)
    deviations = averages - clt_spec.theta_star
    keep = np.linalg.norm(deviations, axis=1) <= CLT_RADIUS
    n_used = int(keep.sum())
    if n_used < MIN_CLT_REPLICAS_USED:
        raise InsufficientReplicasError(
            f"only {n_used} of {n_replicas} replicas ended within {CLT_RADIUS} "
            "of the limit point"
        )

    gamma_tail = schedule.gamma(n_tail)
    scale = 1.0 / np.sqrt(gamma_tail)
    samples = scale * deviations[keep]
    empirical = samples.T @ samples / n_used

    zeta, theoretical = clt_spec.covariance(schedule)

    theo_norm = float(np.linalg.norm(theoretical))
    degenerate = clt_spec.degenerate or theo_norm <= 1e-300
    if degenerate and theo_norm <= 1e-300:
        relative_error = float("nan")
    else:
        relative_error = float(np.linalg.norm(empirical - theoretical) / theo_norm)

    blocks = scale * (finals[keep] - clt_spec.theta_star)
    spread = np.linalg.norm(blocks - blocks.mean(axis=1, keepdims=True), axis=(1, 2))
    scaled_disagreement = float(spread.mean())

    return CltEstimate(
        empirical_cov=empirical,
        theoretical_cov=theoretical,
        n_replicas_used=n_used,
        relative_error=relative_error,
        zeta=float(zeta),
        scaled_disagreement=scaled_disagreement,
        degenerate=bool(degenerate),
    )
