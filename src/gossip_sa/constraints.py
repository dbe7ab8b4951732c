"""Convex polyhedra with exact Euclidean projections.

Every constraint is linear, ``q_j(theta) = a_j . theta - b_j <= 0``: a set
declares its rows ``a_j`` and ``b_j`` once, as ``normals`` and ``offsets``,
which is what the feasibility, active-set and first-order optimality
helpers below consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

#: Hard cap on the number of halfspaces (projection enumerates active subsets).
MAX_HALFSPACES = 10
#: Relative rounding bound on the emptiness test of a halfspace system.
EMPTINESS_TOL = 1e-12


class InfeasiblePointError(ValueError):
    """A point lies outside the feasible set beyond the stated tolerance."""


def default_active_tolerance(theta) -> float:
    """Scale-aware tolerance for declaring a constraint active at ``theta``."""
    return 1e-8 * (1.0 + float(np.linalg.norm(theta)))


class ConstraintSet:
    """Polyhedron ``{theta in R^d : normals @ theta <= offsets}``.

    A kind sets ``normals`` (one row per constraint, ``m x dim``) and
    ``offsets`` (``m``) once and supplies an exact Euclidean ``project``.
    ``project`` and ``constraint_values`` act along the last axis; any
    leading axes are a stack of independent blocks of length ``dim``.
    """

    dim: int
    normals: np.ndarray
    offsets: np.ndarray

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection of every block of ``x`` onto the set."""
        raise NotImplementedError

    def constraint_values(self, theta) -> np.ndarray:
        """Constraint values ``q_j(theta)`` per block; feasibility means all <= 0.

        Every block is reduced on its own, the same way whether it comes
        alone or in a stack.
        """
        theta = np.asarray(theta, dtype=float)
        return (theta[..., None, :] * self.normals).sum(axis=-1) - self.offsets

    def first_infeasible(self, blocks) -> int | None:
        """0-based index of the first of the ``(k, dim)`` blocks outside the set.

        Each block is held to its own scale-aware tolerance
        :func:`default_active_tolerance`; ``None`` when every block is inside.
        """
        if not self.offsets.size:
            return None
        values = self.constraint_values(blocks)
        tols = [default_active_tolerance(block) for block in blocks]
        outside = np.flatnonzero(~(values.max(axis=-1) <= tols))
        return int(outside[0]) if outside.size else None

    def contains(self, theta) -> bool:
        """Feasibility of one point within its scale-aware tolerance."""
        return self.first_infeasible(np.atleast_2d(theta)) is None


class Unconstrained(ConstraintSet):
    """The whole space; projection is the identity."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = int(dim)
        self.normals = np.zeros((0, self.dim))
        self.offsets = np.zeros(0)

    def project(self, x):
        return np.asarray(x, dtype=float)

    def __repr__(self) -> str:
        return f"Unconstrained(dim={self.dim})"


class Box(ConstraintSet):
    """Coordinatewise bounds ``lower <= theta <= upper`` (entries may be infinite)."""

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not np.all(lower <= upper):
            raise ValueError("box requires lower <= upper coordinatewise")
        self.lower = lower
        self.upper = upper
        self.dim = lower.size
        # Rows exist only for finite bounds: uppers first, then lowers.  Each
        # row has one nonzero product, so its value is exactly the bound gap.
        up = np.flatnonzero(np.isfinite(upper))
        lo = np.flatnonzero(np.isfinite(lower))
        eye = np.eye(self.dim)
        self.normals = np.concatenate([eye[up], -eye[lo]])
        self.offsets = np.concatenate([upper[up], -lower[lo]])

    def project(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def __repr__(self) -> str:
        return f"Box(lower={self.lower.tolist()}, upper={self.upper.tolist()})"


def _project_capped_simplex(x: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Project every group ``x[..., g, :]`` onto ``{y >= 0, sum(y) <= budgets[g]}``.

    Where clipping to the nonnegative orthant already satisfies the budget,
    that clip is the projection.  On the other (tight) rows the classic
    sorted-threshold rule projects onto the budget face (Duchi et al., ICML
    2008); ``rho`` is the last sorted index whose threshold condition holds.
    """
    y = np.maximum(x, 0.0)
    tight = np.nonzero(~(y.sum(axis=-1) <= budgets))
    if not tight[0].size:
        return y
    xt = x[tight]
    u = np.sort(xt, axis=-1)[:, ::-1]
    css = np.cumsum(u, axis=-1) - budgets[tight[-1], None]
    size = x.shape[-1]
    held = u > css / np.arange(1, size + 1)
    last = size - 1 - np.argmax(held[:, ::-1], axis=-1)
    tau = css[np.arange(last.size), last] / (last + 1)
    y[tight] = np.maximum(xt - tau[:, None], 0.0)
    return y


def _gather(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``x[..., index]`` laid out C-contiguously.

    Row sums of the gathered groups then run along a contiguous axis, which
    is what makes them equal, bit for bit, the sum of each group taken on
    its own (``x[..., index]`` would put the stack axis innermost).
    """
    return np.take(x, index, axis=-1)


class BudgetSimplex(ConstraintSet):
    """Per-group capped simplices: coordinates nonnegative, group sums bounded.

    ``groups`` is a partition of ``range(dim)`` (0-based coordinate indices);
    each group ``g`` carries its own budget and the feasible set is
    ``{theta >= 0, sum(theta[g]) <= budget_g for every g}``.
    """

    def __init__(self, budgets, groups):
        budgets = np.atleast_1d(np.asarray(budgets, dtype=float))
        if np.any(budgets <= 0.0):
            raise ValueError("every group budget must be positive")
        groups = tuple(tuple(int(k) for k in g) for g in groups)
        if len(groups) != budgets.size:
            raise ValueError("need exactly one budget per group")
        flat = sorted(k for g in groups for k in g)
        dim = len(flat)
        if not groups or any(len(g) == 0 for g in groups):
            raise ValueError("groups must be nonempty")
        if flat != list(range(dim)):
            raise ValueError("groups must partition the coordinate indices 0..d-1")
        self.budgets = budgets
        self.groups = groups
        self.dim = dim
        # Nonnegativity rows first, then one indicator row per group.
        self.normals = np.concatenate([-np.eye(dim), np.zeros((len(groups), dim))])
        for r, g in enumerate(groups):
            self.normals[dim + r, list(g)] = 1.0
        self.offsets = np.concatenate([np.zeros(dim), budgets])
        # Groups of one size are gathered together: (group numbers, a
        # (groups, size) coordinate index array, their budgets) per size.
        self._by_size = []
        for size in sorted({len(g) for g in groups}):
            rows = np.array([r for r, g in enumerate(groups) if len(g) == size])
            index = np.array([groups[r] for r in rows], dtype=np.intp)
            self._by_size.append((rows, index, budgets[rows]))

    def project(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for _, index, budgets in self._by_size:
            out[..., index] = _project_capped_simplex(_gather(x, index), budgets)
        return out

    def constraint_values(self, theta):
        # Each group is summed over its own coordinates only; the base
        # formula's sum over all ``dim`` products rounds differently once a
        # group has three or more coordinates.
        theta = np.asarray(theta, dtype=float)
        sums = np.empty(theta.shape[:-1] + self.budgets.shape)
        for rows, index, _ in self._by_size:
            sums[..., rows] = _gather(theta, index).sum(axis=-1)
        return np.concatenate([-theta, sums - self.budgets], axis=-1)

    @classmethod
    def per_user(cls, n_users: int, n_channels: int, budgets) -> "BudgetSimplex":
        """Stacked per-user allocations: user ``i`` owns a block of ``n_channels``."""
        groups = tuple(
            tuple(range(i * n_channels, (i + 1) * n_channels)) for i in range(n_users)
        )
        return cls(budgets=budgets, groups=groups)

    def __repr__(self) -> str:
        return f"BudgetSimplex(budgets={self.budgets.tolist()}, groups={self.groups})"


class Halfspaces(ConstraintSet):
    """Intersection of halfspaces ``normals @ theta <= offsets``.

    Projection enumerates subsets of potentially active constraints and
    keeps the KKT-consistent candidate, so the number of halfspaces is
    capped at ``MAX_HALFSPACES``.  Emptiness is rejected at construction
    by a linear program for the largest uniform slack ``t <= 1`` with
    ``normals[i] @ y + t * |normals[i]| <= offsets[i]`` for every row.  The
    set is empty exactly when ``t < 0``; rounding is allowed for up to
    ``EMPTINESS_TOL * (1 + max_i |offsets[i]| / |normals[i]|)``, a far finer
    cut than the solver's own feasibility tolerance, which lets through
    empty systems that projection cannot satisfy.
    """

    def __init__(self, normals, offsets):
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        if normals.ndim != 2 or offsets.ndim != 1 or normals.shape[0] != offsets.size:
            raise ValueError("need one offset per normal row")
        if normals.shape[0] > MAX_HALFSPACES:
            raise ValueError(f"at most {MAX_HALFSPACES} halfspaces are supported")
        lengths = np.linalg.norm(normals, axis=1)
        if np.any(lengths == 0.0):
            raise ValueError("halfspace normals must be nonzero")
        import scipy.optimize  # deferred: costs most of the package's import time

        dim = normals.shape[1]
        slack = scipy.optimize.linprog(
            c=np.r_[np.zeros(dim), -1.0],
            A_ub=np.column_stack([normals, lengths]),
            b_ub=offsets,
            bounds=[(None, None)] * dim + [(None, 1.0)],
            method="highs",
        )
        bound = EMPTINESS_TOL * (1.0 + float(np.max(np.abs(offsets) / lengths)))
        if not (slack.success and slack.x[-1] >= -bound):
            raise ValueError("halfspace system has an empty feasible set")
        self.normals = normals
        self.offsets = offsets
        self.dim = normals.shape[1]

    def project(self, x):
        return _per_block(self._project_block, x)

    def _project_block(self, x):
        p = self.normals.shape[0]
        tol = 1e-9 * (1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(self.offsets)))
        best = None
        best_d2 = np.inf
        for size in range(p + 1):
            for subset in itertools.combinations(range(p), size):
                if subset:
                    a = self.normals[list(subset)]
                    try:
                        lam = np.linalg.solve(a @ a.T, a @ x - self.offsets[list(subset)])
                    except np.linalg.LinAlgError:
                        continue  # rank-deficient subset
                    if np.any(lam < -1e-12):
                        continue  # multiplier signs rule this subset out
                    y = x - a.T @ lam
                else:
                    y = x
                if np.max(self.normals @ y - self.offsets, initial=-np.inf) > tol:
                    continue
                d2 = float(np.dot(y - x, y - x))
                if d2 < best_d2:
                    best, best_d2 = y, d2
        if best is None:
            raise RuntimeError("projection enumeration found no feasible candidate")
        return best

    def __repr__(self) -> str:
        return f"Halfspaces(normals={self.normals.tolist()}, offsets={self.offsets.tolist()})"


def _per_block(fn, x) -> np.ndarray:
    """Apply the 1-d map ``fn`` to every block along the last axis of ``x``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return fn(x)
    out = np.stack([fn(block) for block in x.reshape(-1, x.shape[-1])])
    return out.reshape(*x.shape[:-1], out.shape[-1])


@dataclass(frozen=True)
class ActiveSet:
    """Indices (0-based) of constraints active at a point, with the tolerance used."""

    indices: tuple[int, ...]
    tolerance: float


def active_set(cs: ConstraintSet, theta, tol: float | None = None) -> ActiveSet:
    """Constraints with ``q_j(theta) >= -tol``; ``theta`` must be feasible within ``tol``."""
    theta = np.asarray(theta, dtype=float)
    if tol is None:
        tol = default_active_tolerance(theta)
    vals = cs.constraint_values(theta)
    if vals.size and float(np.max(vals)) > tol:
        worst = int(np.argmax(vals))
        raise InfeasiblePointError(
            f"point violates constraint {worst} by {float(vals[worst]):.3e} "
            f"(tolerance {tol:.3e})"
        )
    idx = np.flatnonzero(vals >= -tol)
    return ActiveSet(indices=tuple(int(k) for k in idx), tolerance=float(tol))


def kt_residual(cs: ConstraintSet, theta, grad, tol: float | None = None) -> float:
    """Distance from ``-grad`` to the cone spanned by active constraint gradients.

    Zero certifies first-order stationarity of ``theta`` for minimizing a
    function with gradient ``grad`` over the set.  With no active constraint
    the cone is ``{0}`` and the residual is simply ``|grad|``.  Nonnegative
    multipliers are found by nonnegative least squares; the distance to the
    cone is unique even when the active gradients are linearly dependent.
    """
    grad = np.asarray(grad, dtype=float)
    act = active_set(cs, theta, tol)
    if not act.indices:
        return float(np.linalg.norm(grad))
    rows = cs.normals[list(act.indices)]
    import scipy.optimize  # deferred: costs most of the package's import time

    _, resid = scipy.optimize.nnls(rows.T, -grad)
    return float(resid)


def projection_drift(cs: ConstraintSet, theta, y, gamma: float) -> np.ndarray:
    """Finite-step drift ``(P(theta + gamma*y) - theta) / gamma``.

    As ``gamma`` shrinks this tends to ``y`` at interior points; on a smooth
    boundary with unit outward normal ``e`` it tends to
    ``y - max(y.e, 0) e``, i.e. the outward component of ``y`` is removed.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    return (cs.project(theta + gamma * y) - theta) / gamma
