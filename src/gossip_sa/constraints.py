"""Convex polyhedra with exact Euclidean projections.

Every constraint is linear, ``q_j(theta) = a_j . theta - b_j <= 0``: a set
declares its rows ``a_j`` and ``b_j`` once, as ``normals`` and ``offsets``,
which is what the feasibility helpers below consume.  Boxes clip, budget
simplices threshold their sorted groups and general halfspace systems
solve a least-distance program by NNLS.  First-order optimality is
measured through the set's own projection.
"""

from __future__ import annotations

import numpy as np

#: Relative rounding bound on the emptiness test of a halfspace system.
EMPTINESS_TOL = 1e-12
#: Ratio of a group's largest entry to its budget past which projection can cancel.
CANCELLATION_RATIO = 2.0**10


def block_norms(x) -> np.ndarray:
    """Euclidean norm of every block of ``x``; the blocks lie along the last axis.

    Each norm is ``sqrt(x . x)`` taken as one stacked matrix product, which
    keeps the bits of ``np.linalg.norm`` taken on each block alone
    (``einsum`` and ``norm(axis=-1)`` do not).
    """
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0])


def default_active_tolerance(theta) -> np.ndarray:
    """Scale-aware tolerance ``1e-8 * (1 + |block|)`` of every block of ``theta``.

    A block whose squared norm overflows (a norm past about 1.3e154) is
    measured over its largest entry ``m``, as ``1e-8 * m * |block / m|``, so
    a finite block always gets a finite tolerance; a block with an infinite
    entry gets NaN, which no constraint value passes.  Every other block
    keeps the bits of :func:`block_norms`.
    """
    theta = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        tolerance = np.asarray(1e-8 * (1.0 + block_norms(theta)))
        huge = np.isinf(tolerance)
        if huge.any():
            blocks = theta[huge]
            largest = np.abs(blocks).max(axis=-1, keepdims=True)
            tolerance[huge] = 1e-8 * largest[..., 0] * block_norms(blocks / largest)
    return tolerance[()]


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
        outside = np.flatnonzero(~(values.max(axis=-1) <= default_active_tolerance(blocks)))
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
    Index 0 always holds in exact arithmetic (``u_0 - (u_0 - b) = b > 0``),
    so it is forced where rounding fails it, as when a budget is below the
    rounding of the largest entry.  Where an entry dwarfs the budget, ``x - tau``
    cancels and can overshoot the budget by half an ulp of that entry; such
    rows, and only they, are scaled back onto the budget.
    """
    # Array methods rather than the ``np.`` wrappers: the same kernels,
    # without a Python call each on a path taken at every projection.
    y = np.maximum(x, 0.0)
    tight = (~(y.sum(axis=-1) <= budgets)).nonzero()
    if not tight[0].size:
        return y
    xt = x[tight]
    u = xt.copy()
    u.sort(axis=-1)
    u = u[:, ::-1]
    css = u.cumsum(axis=-1)
    bt = budgets[tight[-1]]
    css -= bt[:, None]
    size = x.shape[-1]
    # The threshold ``css[rho] / (rho + 1)`` is the entry of ``ratio`` at rho.
    ratio = css / np.arange(1, size + 1)
    holds = u > ratio
    holds[:, 0] = True
    last = size - 1 - holds[:, ::-1].argmax(axis=-1)
    # ``xt`` is a copy (advanced indexing), so it is shifted and clipped in place.
    xt -= ratio[np.arange(last.size), last, None]
    np.maximum(xt, 0.0, out=xt)
    cancels = u[:, 0] / CANCELLATION_RATIO > bt
    if np.count_nonzero(cancels):
        sums = xt.sum(axis=-1)
        over = cancels & (sums - bt > (size * np.finfo(float).eps) * bt)
        xt[over] *= (bt[over] / sums[over])[:, None]
    y[tight] = xt
    return y


def _gather(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``x[..., index]`` laid out C-contiguously.

    Row sums of the gathered groups then run along a contiguous axis, which
    is what makes them equal, bit for bit, the sum of each group taken on
    its own (``x[..., index]`` would put the stack axis innermost).
    """
    return x.take(index, axis=-1)


class BudgetSimplex(ConstraintSet):
    """Per-group capped simplices: coordinates nonnegative, group sums bounded.

    ``groups`` is a partition of ``range(dim)`` (0-based coordinate indices);
    each group ``g`` carries its own budget and the feasible set is
    ``{theta >= 0, sum(theta[g]) <= budget_g for every g}``.
    """

    def __init__(self, budgets, groups):
        budgets = np.atleast_1d(np.asarray(budgets, dtype=float))
        if not np.all(budgets > 0.0):  # NaN fails it
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
        # Groups that run in order over equal contiguous blocks (as
        # ``per_user`` builds them) are the last axis reshaped to
        # (groups, size): no gather, no scatter.
        size = dim // len(groups)
        blocks = tuple(tuple(range(r * size, (r + 1) * size)) for r in range(len(groups)))
        self._blocks = (len(groups), size) if groups == blocks else None
        # Otherwise groups of one size are gathered together: (group numbers,
        # a (groups, size) coordinate index array, their budgets) per size.
        self._by_size = []
        if self._blocks is None:
            for size in sorted({len(g) for g in groups}):
                rows = np.array([r for r, g in enumerate(groups) if len(g) == size])
                index = np.array([groups[r] for r in rows], dtype=np.intp)
                self._by_size.append((rows, index, budgets[rows]))

    def project(self, x):
        x = np.asarray(x, dtype=float)
        if self._blocks is not None:
            blocks = x.reshape(*x.shape[:-1], *self._blocks)
            return _project_capped_simplex(blocks, self.budgets).reshape(x.shape)
        out = np.empty_like(x)
        for _, index, budgets in self._by_size:
            out[..., index] = _project_capped_simplex(_gather(x, index), budgets)
        return out

    def constraint_values(self, theta):
        # Each group is summed over its own coordinates only; the base
        # formula's sum over all ``dim`` products rounds differently once a
        # group has three or more coordinates.
        theta = np.asarray(theta, dtype=float)
        if self._blocks is not None:
            sums = theta.reshape(*theta.shape[:-1], *self._blocks).sum(axis=-1)
            return np.concatenate([-theta, sums - self.budgets], axis=-1)
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

    The set keeps unit rows: ``normals`` and ``offsets`` are the given ones
    over the row lengths, each length taken on its row over the row's
    largest entry so that it cannot overflow, and an offset whose ratio is
    infinite is refused.  A constraint value is thus a signed distance to
    its plane.  Projection solves Lawson & Hanson's least-distance program
    (*Solving Least Squares Problems*, 1974, ch. 23) by NNLS, an active-set
    method, so any number of rows is allowed.  Emptiness is rejected at
    construction by a linear program for the largest uniform slack
    ``t <= 1`` with ``u @ y + t <= c / s`` for every unit row ``u`` and
    offset ``c``, scaled into ``[-1, 1]`` by ``s = 1 + max |c|``, since
    HiGHS takes entries of 1e20 and beyond for infinite.  The set is empty
    exactly when ``t < 0``; rounding is allowed for up to ``EMPTINESS_TOL``,
    a far finer cut than the solver's own feasibility tolerance, which lets
    through empty systems that projection cannot satisfy.
    """

    def __init__(self, normals, offsets):
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        if normals.ndim != 2 or offsets.ndim != 1 or normals.shape[0] != offsets.size:
            raise ValueError("need one offset per normal row")
        if not (np.isfinite(normals).all() and np.isfinite(offsets).all()):
            raise ValueError("halfspace normals and offsets must be finite")
        peaks = np.abs(normals).max(axis=1, initial=0.0)
        if np.any(peaks == 0.0):
            raise ValueError("halfspace normals must be nonzero")
        scaled = normals / peaks[:, None]
        lengths = np.linalg.norm(scaled, axis=1)  # in [1, sqrt(dim)]
        with np.errstate(over="ignore"):
            self.offsets = offsets / peaks / lengths
        if not np.isfinite(self.offsets).all():
            raise ValueError("a halfspace offset over its row length passes the largest float")
        import scipy.optimize  # deferred: costs most of the package's import time

        self.normals = scaled / lengths[:, None]
        self.dim = dim = normals.shape[1]
        slack = scipy.optimize.linprog(
            c=np.r_[np.zeros(dim), -1.0],
            A_ub=np.column_stack([self.normals, np.ones(len(offsets))]),
            b_ub=self.offsets / (1.0 + float(np.max(np.abs(self.offsets)))),
            bounds=[(None, None)] * dim + [(None, 1.0)],
            method="highs",
        )
        if not (slack.success and slack.x[-1] >= -EMPTINESS_TOL):
            raise ValueError("halfspace system has an empty feasible set")
        self._nnls = scipy.optimize.nnls

    def project(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self._project_block(x)
        return np.apply_along_axis(self._project_block, -1, x)

    def _project_block(self, x):
        # Lawson & Hanson's least-distance program: d = P(x) - x is the
        # shortest step with -A d >= A x - b.  On unit rows, with h = A x - b
        # scaled by its largest entry s > 0, NNLS gives the u >= 0 minimising
        # |E u - f| for E = [-A^T; h^T / s] and f = e_last; then d = -s * r[:-1]
        # / r[-1] for r = E u - f.  Unscaled, far points of thin sets land
        # outside; scaled by max |h|, a far slack row hides every violation.
        h = self.normals @ x - self.offsets
        s = h.max()
        if s <= 0.0:
            return x
        if not np.isfinite(h).all():
            # Nothing to project: the NaN block fails the engine's divergence guard.
            return np.full(self.dim, np.nan)
        e = np.vstack([-self.normals.T, h / s])
        f = np.zeros(self.dim + 1)
        f[-1] = 1.0
        r = e @ self._nnls(e, f)[0] - f
        if not r[-1] < 0.0:
            raise RuntimeError("least-distance program found no feasible step")
        return x - s * r[:-1] / r[-1]

    def __repr__(self) -> str:
        return f"Halfspaces(normals={self.normals.tolist()}, offsets={self.offsets.tolist()})"


def kt_residual(cs: ConstraintSet, theta, grad):
    """Natural stationarity residual ``|theta - P(theta - grad)|``.

    It vanishes exactly at the Kuhn-Tucker points of minimizing a function
    with gradient ``grad`` over the convex set (Calamai & More, Math.
    Programming 39, 1987), and is ``|grad|`` wherever the unit step stays
    inside.  It needs no active-set tolerance: the set's own projection
    decides which constraints bind.  ``theta`` and ``grad`` may be stacks of
    blocks along the last axis, projected in one call: the result is then
    one residual per block, each equal to the residual of its block alone,
    and a float for a single block.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    return block_norms(cs.project(theta - grad) - theta)[()]

