import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gossip_sa.constraints import (
    Box,
    BudgetSimplex,
    ConstraintSet,
    Halfspaces,
    Unconstrained,
    block_norms,
    default_active_tolerance,
    kt_residual,
)

from reference import projection_drift


def brute_force_capped_simplex(x, budget):
    """Enumerate zero-patterns of the projection onto {y >= 0, sum y <= budget}.

    Case 1 (slack budget): clip to the orthant.  Case 2 (tight budget): for
    every candidate set of zeroed coordinates, shift the rest by a common
    threshold and keep the KKT-consistent candidate.  Independent of the
    production sorted-threshold rule.
    """
    x = np.asarray(x, dtype=float)
    clipped = np.maximum(x, 0.0)
    best, best_d2 = None, np.inf
    if clipped.sum() <= budget + 1e-12:
        best, best_d2 = clipped, float(np.sum((clipped - x) ** 2))
    d = x.size
    for zeros in itertools.product([False, True], repeat=d):
        free = [k for k in range(d) if not zeros[k]]
        if not free:
            continue
        tau = (x[free].sum() - budget) / len(free)
        y = np.zeros(d)
        y[free] = x[free] - tau
        if np.any(y[free] <= 0):
            continue
        if tau < -1e-12:  # budget multiplier must be nonnegative
            continue
        if any(x[k] - tau > 1e-12 for k in range(d) if zeros[k]):
            continue  # zeroed coordinate fails its sign condition
        d2 = float(np.sum((y - x) ** 2))
        if d2 < best_d2:
            best, best_d2 = y, d2
    assert best is not None
    return best


def brute_force_halfspace_projection(cs, x):
    """Enumerate subsets of potentially active rows of the ``Halfspaces`` ``cs``.

    Each subset's candidate solves its rows as equalities; the nearest one
    with nonnegative multipliers that lies inside (within a rounding bound
    that grows with ``|x|``) is kept.  Exponential in the row count and
    independent of the production least-distance program.
    """
    x = np.asarray(x, dtype=float)
    p = cs.normals.shape[0]
    tol = 1e-9 * (1.0 + np.linalg.norm(x) + np.linalg.norm(cs.offsets))
    best, best_d2 = None, np.inf
    for size in range(p + 1):
        for subset in itertools.combinations(range(p), size):
            y = x
            if subset:
                a = cs.normals[list(subset)]
                try:
                    lam = np.linalg.solve(a @ a.T, a @ x - cs.offsets[list(subset)])
                except np.linalg.LinAlgError:
                    continue  # rank-deficient subset
                if not np.isfinite(lam).all() or np.any(lam < -1e-12):
                    continue  # the solve overflowed, or the multiplier signs rule it out
                y = x - a.T @ lam
            if np.max(cs.normals @ y - cs.offsets) > tol or not cs.contains(y):
                continue
            d2 = float(np.dot(y - x, y - x))
            if d2 < best_d2:
                best, best_d2 = y, d2
    assert best is not None
    return best


def row_scales(m, seed=0):
    """Factors for ``m`` halfspace rows, log-uniform in [1e-150, 1e150], from
    a generator of their own so that a test's own draws stay the same."""
    return 10.0 ** np.random.default_rng(seed).uniform(-150.0, 150.0, size=m)


def random_sets(rng):
    dim = int(rng.integers(1, 5))
    box = Box(rng.uniform(-2, 0, size=dim), rng.uniform(0.5, 2, size=dim))
    simplex = BudgetSimplex(budgets=[float(rng.uniform(0.5, 3.0))], groups=[tuple(range(dim))])
    normals = rng.normal(size=(3, dim))
    offsets = normals @ rng.normal(size=dim) + rng.uniform(0.5, 1.5, size=3)
    half = Halfspaces(normals, offsets)  # feasible by construction
    return [Unconstrained(dim), box, simplex, half]


class TestProject:
    def test_unconstrained_identity(self):
        cs = Unconstrained(2)
        x = np.array([3.7, -2.0])
        assert np.array_equal(cs.project(x), x)

    def test_box_clamp(self):
        cs = Box([0.0, 0.0], [1.0, 1.0])
        assert np.array_equal(cs.project([1.5, -0.3]), [1.0, 0.0])

    def test_budget_simplex_symmetric_face_point(self):
        cs = BudgetSimplex(budgets=[1.0], groups=[(0, 1)])
        assert np.allclose(cs.project([0.9, 0.9]), [0.5, 0.5], atol=1e-12)

    def test_budget_simplex_interior_identity(self):
        cs = BudgetSimplex(budgets=[1.0], groups=[(0, 1)])
        x = np.array([0.2, 0.3])
        assert np.allclose(cs.project(x), x, atol=1e-15)

    def test_budget_simplex_matches_enumeration_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            d = int(rng.integers(1, 7))
            budget = float(rng.uniform(0.3, 2.5))
            cs = BudgetSimplex(budgets=[budget], groups=[tuple(range(d))])
            x = rng.uniform(-2, 2, size=d)
            assert np.allclose(cs.project(x), brute_force_capped_simplex(x, budget), atol=1e-8)

    def test_budget_simplex_grouped(self):
        cs = BudgetSimplex(budgets=[1.0, 2.0], groups=[(0, 1), (2, 3)])
        y = cs.project([0.9, 0.9, -1.0, 5.0])
        assert np.allclose(y[:2], [0.5, 0.5], atol=1e-12)
        assert np.allclose(y[2:], [0.0, 2.0], atol=1e-12)

    def test_halfspace_projection(self):
        cs = Halfspaces([[1.0, 0.0]], [1.0])  # x <= 1
        assert np.allclose(cs.project([2.0, 0.3]), [1.0, 0.3], atol=1e-12)
        assert np.allclose(cs.project([0.5, 0.3]), [0.5, 0.3], atol=1e-15)

    def test_halfspaces_corner(self):
        cs = Halfspaces([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert np.allclose(cs.project([3.0, 2.0]), [1.0, 1.0], atol=1e-12)

    def test_halfspaces_far_point_lands_inside_a_thin_cone(self):
        # The cone is 1e-8 thin at |x| ~ 115: a projection accurate only to
        # a rounding bound that grows with |x| lands outside, e.g. at
        # [0, -4.5e-8], which violates a row by 4e-8.
        cs = Halfspaces([[1, 2], [-2, -2], [0, -2]], [1e-8] * 3)
        y = cs.project([95.0, -65.0])
        assert cs.contains(y)
        assert np.linalg.norm(y) <= 1e-7

    def test_nearly_dependent_rows_skip_the_overflowing_subset(self):
        # Rows 1, 2 are parallel and row 3 nearly repeats row 0, so the
        # equality solve on rows 1-3 overflows instead of raising; the
        # origin is inside and must come back unchanged.
        cs = Halfspaces(
            [[1.0, 0.0, 0.0], [0.0, -1.75, 0.0], [0.0, 1.0, 0.0], [1.0, -7.85e-154, 0.0]],
            [1.0] * 4,
        )
        assert np.array_equal(cs.project(np.zeros(3)), np.zeros(3))

    def test_halfspaces_give_a_nan_block_for_a_non_finite_point(self):
        # No projection exists to compute; the engine's divergence guard
        # stops a run on the NaN block.
        cs = Halfspaces([[1.0, 0.0]], [1.0])
        assert np.isnan(cs.project([np.inf, 0.0])).all()
        projected = cs.project([[0.0, 0.0], [np.inf, 0.0]])
        assert np.array_equal(projected[0], [0.0, 0.0])
        assert np.isnan(projected[1]).all()

    def test_empty_halfspace_system_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Halfspaces([[1.0], [-1.0]], [-1.0, -1.0])  # x <= -1 and x >= 1

    @pytest.mark.parametrize(
        "normals,offsets",
        [
            ([[1.0, 1.0]], [-1e20]),
            ([[1e25, 0.0]], [1.0]),
            ([[1.0, 0.0]], [-1e100]),
            ([[1.7e308, 1.7e308]], [1.0]),
        ],
    )
    def test_nonempty_systems_of_extreme_scale_are_accepted(self, normals, offsets):
        # The emptiness program's solver takes entries of 1e20 and beyond
        # for infinite, so it is posed on unit rows and offsets in [-1, 1];
        # a row's length is taken without overflowing, even past the largest float.
        cs = Halfspaces(normals, offsets)
        assert cs.contains(cs.project(np.zeros(cs.dim)))

    def test_empty_system_of_extreme_scale_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Halfspaces([[1.0], [-1.0]], [-1e20, -1e20])  # x <= -1e20 and x >= 1e20
        with pytest.raises(ValueError, match="finite"):
            Halfspaces([[1.0], [-1.0]], [np.inf, 1.0])

    def test_many_halfspaces_project_inside(self):
        # 40 rows in dimension 3: no cap on the row count.  The same set is
        # then given by rows scaled from 1e-150 to 1e150.
        rng = np.random.default_rng(11)
        normals = rng.normal(size=(40, 3))
        offsets = normals @ rng.normal(size=3) + rng.uniform(0.1, 1.0, size=40)
        for scales in (np.ones(40), row_scales(40)):
            cs = Halfspaces(scales[:, None] * normals, scales * offsets)
            for _ in range(10):
                x = rng.normal(scale=5.0, size=3)
                px = cs.project(x)
                assert cs.contains(px)
                for _ in range(100):
                    z = cs.project(rng.normal(scale=5.0, size=3))
                    assert float(np.dot(x - px, z - px)) <= 1e-9

    def test_halfspaces_match_the_enumeration(self):
        # Random systems of up to 6 rows; every third one is 1e-8 thin, every
        # third has zero slack (a cone apex) and every fourth a parallel row.
        rng = np.random.default_rng(12)
        for trial in range(150):
            dim, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            normals = rng.normal(size=(m, dim))
            if m > 1 and trial % 4 == 1:
                normals[-1] = rng.uniform(0.5, 2.0) * normals[0]
            inside = rng.normal(size=dim)
            slack = [rng.uniform(0.1, 1.0, size=m), 1e-8 * rng.uniform(size=m), np.zeros(m)]
            cs = Halfspaces(normals, normals @ inside + slack[trial % 3])
            for x in inside + 10.0 ** rng.uniform(-1, 3, size=(2, 1)) * rng.normal(size=(2, dim)):
                y, ref = cs.project(x), brute_force_halfspace_projection(cs, x)
                scale = 1.0 + np.linalg.norm(x)
                assert cs.contains(y)
                values, ref_worst = cs.constraint_values(y), cs.constraint_values(ref).max()
                assert values.max() <= max(ref_worst, 0.0) + 1e-12 * scale
                # A reference point outside by more than rounding can be the
                # nearer one; x - y then still lies in the normal cone below.
                if ref_worst <= 1e-12 * scale:
                    assert np.linalg.norm(y - x) <= np.linalg.norm(ref - x) + 1e-8 * scale
                # Kuhn-Tucker: x - y is a nonnegative combination of the rows
                # tight at y, so y is the nearest point of the set.
                tight = values >= -1e-12 * scale
                if tight.any():
                    assert scipy.optimize.nnls(cs.normals[tight].T, x - y)[1] <= 1e-12 * scale
                else:
                    assert np.array_equal(y, x)

    def test_box_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_box_rejects_nan_bounds(self):
        for lower, upper in [([np.nan], [1.0]), ([0.0], [np.nan]), ([0.0, np.nan], [1.0, 1.0])]:
            with pytest.raises(ValueError, match="lower <= upper"):
                Box(lower, upper)
        Box([-np.inf, 0.0], [1.0, np.inf])  # open sides stay allowed


class TestProjectionProperties:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_nonexpansive(self, seed):
        rng = np.random.default_rng(seed)
        for cs in random_sets(rng):
            for _ in range(250):
                x = rng.normal(scale=2.0, size=cs.dim)
                y = rng.normal(scale=2.0, size=cs.dim)
                dist_proj = np.linalg.norm(cs.project(x) - cs.project(y))
                assert dist_proj <= np.linalg.norm(x - y) + 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for cs in random_sets(rng):
            for _ in range(250):
                x = rng.normal(scale=2.0, size=cs.dim)
                once = cs.project(x)
                assert np.allclose(cs.project(once), once, atol=1e-12)

    def test_far_points_land_inside_thin_halfspace_systems(self):
        # Rows with offsets of 1e-8 leave a set far thinner than any rounding
        # bound that grows with |x| ~ 100: only an exact projection lands inside,
        # also when the rows are scaled from 1e-150 to 1e150.
        rng = np.random.default_rng(40)
        for trial in range(100):
            dim, m = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            normals = rng.normal(size=(m, dim))
            inside = 1e-8 * rng.normal(size=dim)
            slack = 1e-8 * (1.0 if trial % 2 else rng.uniform(size=m))
            points = rng.normal(scale=100.0, size=(5, dim))
            for scales in (np.ones(m), row_scales(m, trial)):
                cs = Halfspaces(scales[:, None] * normals, scales * (normals @ inside + slack))
                for x in points:
                    assert cs.contains(cs.project(x))

    def test_budget_simplex_feasible_for_any_positive_budget(self):
        # A budget below the rounding of the largest entry fails every
        # sorted threshold test in floating point; the first one holds in
        # exact arithmetic, so the projection must still land inside.
        cs = BudgetSimplex([1e-5], [(0, 1)])
        assert cs.contains(cs.project([1e12, 5e11]))
        rng = np.random.default_rng(41)
        for _ in range(5000):
            d = int(rng.integers(1, 7))
            cs = BudgetSimplex([10.0 ** rng.uniform(-320, 3)], [range(d)])
            x = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
            assert cs.contains(cs.project(x))

    def test_budget_simplex_feasible_far_above_the_budget(self):
        # Where an entry dwarfs its budget, shifting it onto the budget face
        # cancels, and the sum could exceed the budget by half an ulp of that
        # entry; on single groups, partitions and stacks the result is inside.
        cs = BudgetSimplex([0.1], [(0,)])
        assert cs.contains(cs.project([1e11]))
        rng = np.random.default_rng(43)
        for trial in range(5000):
            d = int(rng.integers(1, 9))
            groups = [tuple(range(d))] if trial % 2 else random_partition(rng, d)
            cs = BudgetSimplex(10.0 ** rng.uniform(-3, 3, size=len(groups)), groups)
            x = rng.normal(size=(2, d)) * 10.0 ** rng.uniform(-3, 12, size=(2, d))
            assert cs.first_infeasible(cs.project(x)) is None

    def test_budget_simplex_within_rounding_of_the_exact_projection(self):
        # Against the sorted-threshold rule in rational arithmetic: the
        # forced first threshold, taken where rounding fails them all, still
        # lands within a few roundings of the largest entry.
        rng = np.random.default_rng(42)
        for _ in range(2000):
            d = int(rng.integers(1, 7))
            budget = 10.0 ** rng.uniform(-320, 3)
            x = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
            got = BudgetSimplex([budget], [range(d)]).project(x)
            want = exact_capped_simplex(x, budget)
            scale = np.abs(x).max() + budget
            assert np.abs(got - want).max() <= 4 * d * np.finfo(float).eps * scale

    def test_variational_characterization(self):
        rng = np.random.default_rng(3)
        for cs in random_sets(rng):
            for _ in range(10):
                x = rng.normal(scale=2.0, size=cs.dim)
                px = cs.project(x)
                for _ in range(100):
                    z = cs.project(rng.normal(scale=2.0, size=cs.dim))
                    assert float(np.dot(x - px, z - px)) <= 1e-9


def reference_capped_simplex(x, budget):
    """The per-group sort-threshold rule, one 1-d group at a time."""
    y = np.maximum(x, 0.0)
    if y.sum() <= budget:
        return y
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - budget
    idx = np.arange(1, x.size + 1)
    rho = idx[u > css / idx][-1]
    tau = css[rho - 1] / rho
    return np.maximum(x - tau, 0.0)


def exact_capped_simplex(x, budget):
    """The sort-threshold rule in rational arithmetic, rounded once at the end."""
    x = [Fraction(float(v)) for v in x]
    budget = Fraction(float(budget))
    if sum(max(v, 0) for v in x) <= budget:
        return np.array([float(max(v, 0)) for v in x])
    css = 0
    for k, v in enumerate(sorted(x, reverse=True), start=1):
        css += v
        if v > (css - budget) / k:
            tau = (css - budget) / k
    return np.array([float(max(v - tau, 0)) for v in x])


def random_partition(rng, d):
    """Groups of a shuffled ``range(d)``, of random (often uneven) sizes."""
    perm = rng.permutation(d)
    n_cuts = int(rng.integers(0, d))
    cuts = np.sort(rng.choice(np.arange(1, d), size=n_cuts, replace=False))
    return [tuple(int(k) for k in g) for g in np.split(perm, cuts)]


class TestStackedProjection:
    """Projecting a stack of blocks equals projecting each block, bit for bit."""

    def test_budget_simplex_equals_per_group_rule(self):
        rng = np.random.default_rng(30)
        for trial in range(600):
            d = int(rng.integers(1, 11))
            groups = [tuple(range(d))] if trial % 3 == 0 else random_partition(rng, d)
            budgets = rng.uniform(0.1, 3.0, size=len(groups))
            cs = BudgetSimplex(budgets=budgets, groups=groups)
            shape = [(3,), (2, 4)][trial % 2]
            x = rng.uniform(-2.0, 2.0, size=(*shape, d)) * rng.choice([0.2, 1.0, 5.0])
            flat = x.reshape(-1, d)
            flat[0] = -np.abs(flat[0])  # all-negative block
            g = list(groups[0])
            flat[1, g] = budgets[0] / len(g)  # group exactly on its budget
            expected = np.empty_like(flat)
            for row, block in zip(expected, flat):
                for group, budget in zip(groups, budgets):
                    row[list(group)] = reference_capped_simplex(block[list(group)], budget)
            assert np.array_equal(cs.project(x), expected.reshape(x.shape))
            for row, block in zip(expected, flat):
                assert np.array_equal(cs.project(block), row)

    def test_tight_budgets_project_stacks_like_single_blocks(self):
        # Budgets far below the entries' rounding take the forced first
        # threshold; on gathered groups and stacks of blocks, each block
        # still lands inside, as it does when projected alone.
        rng = np.random.default_rng(34)
        for _ in range(300):
            d = int(rng.integers(2, 11))
            groups = random_partition(rng, d)
            budgets = 10.0 ** rng.uniform(-320, 3, size=len(groups))
            cs = BudgetSimplex(budgets=budgets, groups=groups)
            x = rng.normal(size=(2, 3, d)) * 10.0 ** rng.uniform(-3, 3)
            got = cs.project(x)
            assert cs.contains(got.reshape(-1, d))
            for row, block in zip(got.reshape(-1, d), x.reshape(-1, d)):
                assert np.array_equal(cs.project(block), row)

    def test_gather_tables_only_for_sets_that_gather(self):
        assert BudgetSimplex.per_user(3, 2, [1.0, 2.0, 3.0])._by_size == []
        cs = BudgetSimplex([1.0, 2.0, 3.0], [(0, 2), (1, 3, 4), (5, 6)])
        assert cs._blocks is None
        assert [(rows.tolist(), index.tolist()) for rows, index, _ in cs._by_size] == [
            ([0, 2], [[0, 2], [5, 6]]),
            ([1], [[1, 3, 4]]),
        ]

    def test_budget_simplex_constraint_values_equal_per_block(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            d = int(rng.integers(1, 11))
            groups = random_partition(rng, d)
            budgets = rng.uniform(0.1, 3.0, size=len(groups))
            cs = BudgetSimplex(budgets=budgets, groups=groups)
            x = rng.uniform(-2.0, 2.0, size=(4, d))
            expected = [
                np.concatenate(
                    [-block, [block[list(g)].sum() - b for g, b in zip(groups, budgets)]]
                )
                for block in x
            ]
            assert np.array_equal(cs.constraint_values(x), np.stack(expected))

    def test_per_user_layout_equals_the_gather_path(self):
        # ``per_user`` groups are a reshape of the last axis; the same
        # partition with its groups listed out of order is gathered instead.
        rng = np.random.default_rng(33)
        for trial in range(400):
            n_users, n_channels = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            budgets = rng.uniform(0.1, 3.0, size=n_users)
            cs = BudgetSimplex.per_user(n_users, n_channels, budgets)
            order = rng.permutation(n_users)
            if np.array_equal(order, np.arange(n_users)):
                order = order[::-1]
            shuffled = BudgetSimplex(budgets[order], [cs.groups[r] for r in order])
            assert cs._blocks is not None and shuffled._blocks is None
            shape = [(), (3,), (2, 4)][trial % 3]
            x = rng.uniform(-2.0, 2.0, size=(*shape, cs.dim)) * rng.choice([0.2, 1.0, 5.0])
            assert np.array_equal(cs.project(x), shuffled.project(x))
            values = cs.constraint_values(x)
            want = shuffled.constraint_values(x)
            back = np.argsort(order)  # the shuffled set's group rows, in user order
            assert np.array_equal(values[..., : cs.dim], want[..., : cs.dim])
            assert np.array_equal(values[..., cs.dim :], want[..., cs.dim :][..., back])
            # Blocks on, just inside and just outside their budgets.
            blocks = cs.project(x).reshape(-1, cs.dim)
            blocks *= rng.choice([1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-7], size=(len(blocks), 1))
            assert cs.first_infeasible(blocks) == shuffled.first_infeasible(blocks)

    def test_box_and_halfspaces_equal_per_block(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            for cs in random_sets(rng):
                x = rng.normal(scale=2.0, size=(2, 3, cs.dim))
                flat = x.reshape(-1, cs.dim)
                projected = np.stack([cs.project(block) for block in flat])
                values = np.stack([cs.constraint_values(block) for block in flat])
                assert np.array_equal(cs.project(x), projected.reshape(x.shape))
                assert np.array_equal(
                    cs.constraint_values(x), values.reshape(*x.shape[:-1], -1)
                )


def coords(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def constraint_sets(draw) -> ConstraintSet:
    """A random set of every kind; box sides may be open, halfspaces are nonempty."""
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["unconstrained", "box", "simplex", "halfspaces"]))
    if kind == "unconstrained":
        return Unconstrained(dim)
    if kind == "box":
        lower = draw(st.lists(coords(-2.0, -0.1) | st.just(-np.inf), min_size=dim, max_size=dim))
        upper = draw(st.lists(coords(0.1, 2.0) | st.just(np.inf), min_size=dim, max_size=dim))
        return Box(lower, upper)
    if kind == "simplex":
        perm = draw(st.permutations(range(dim)))
        cuts = sorted(draw(st.sets(st.integers(1, dim - 1)))) if dim > 1 else []
        groups = [perm[a:b] for a, b in zip([0, *cuts], [*cuts, dim])]
        budgets = draw(st.lists(coords(0.1, 3.0), min_size=len(groups), max_size=len(groups)))
        return BudgetSimplex(budgets=budgets, groups=groups)
    m = draw(st.integers(1, 4))
    normals = draw(hnp.arrays(float, (m, dim), elements=coords(-2.0, 2.0)))
    assume(np.all(np.linalg.norm(normals, axis=1) > 0.1))
    inside = draw(hnp.arrays(float, dim, elements=coords(-1.0, 1.0)))
    slack = draw(hnp.arrays(float, m, elements=coords(0.1, 1.0)))
    return Halfspaces(normals, normals @ inside + slack)


@st.composite
def sets_and_stacks(draw):
    """A set with two equally shaped stacks of blocks around it."""
    cs = draw(constraint_sets())
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), cs.dim)
    x, y = (draw(hnp.arrays(float, shape, elements=coords(-4.0, 4.0))) for _ in range(2))
    return cs, x, y


def cone_distance(cs, theta, grad):
    """Distance from ``-grad`` to the cone of the rows with ``q_j(theta) >= 0``."""
    rows = cs.normals[cs.constraint_values(theta) >= 0.0]
    if not rows.size:
        return float(np.linalg.norm(grad))
    return float(scipy.optimize.nnls(rows.T, -np.asarray(grad))[1])


class TestConstraintInvariants:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(sets_and_stacks())
    def test_rows_projection_and_stationarity(self, case):
        cs, x, y = case
        assert cs.normals.shape == (cs.offsets.size, cs.dim)
        flat = x.reshape(-1, cs.dim)

        # The values are the declared rows, evaluated block by block.
        values = cs.constraint_values(x)
        assert values.shape == x.shape[:-1] + cs.offsets.shape
        if isinstance(cs, BudgetSimplex):
            rows = x @ cs.normals.T - cs.offsets
            scale = np.abs(x) @ np.abs(cs.normals.T) + np.abs(cs.offsets)
            assert np.all(np.abs(values - rows) <= 1e-12 * scale)
        else:
            rows = [[np.sum(b * a) - o for a, o in zip(cs.normals, cs.offsets)] for b in flat]
            assert np.array_equal(values.reshape(len(flat), -1), np.reshape(rows, (len(flat), -1)))
        if isinstance(cs, Box):
            up, lo = np.isfinite(cs.upper), np.isfinite(cs.lower)
            gaps = np.concatenate([x[..., up] - cs.upper[up], cs.lower[lo] - x[..., lo]], axis=-1)
            assert np.array_equal(values, gaps)

        # Projection lands inside, stays put when repeated and never expands.
        px, py = cs.project(x), cs.project(y)
        assert cs.first_infeasible(px.reshape(-1, cs.dim)) is None
        assert np.allclose(cs.project(px), px, rtol=0.0, atol=1e-12)
        moved = np.linalg.norm(px - py, axis=-1)
        assert np.all(moved <= np.linalg.norm(x - y, axis=-1) + 1e-12)

        # The projection of an isotropic quadratic's center is its constrained
        # minimizer, a Kuhn-Tucker point of the set.
        for center in flat:
            theta = cs.project(center)
            assert kt_residual(cs, theta, theta - center) <= 1e-12

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(sets_and_stacks())
    def test_residual_is_the_unit_projected_step(self, case):
        cs, x, y = case
        for theta, grad in zip(cs.project(x).reshape(-1, cs.dim), y.reshape(-1, cs.dim)):
            residual = kt_residual(cs, theta, grad)
            assert residual == np.linalg.norm(theta - cs.project(theta - grad))
            # At a point of the set the unit-step residual is at most the
            # distance from -g to the normal cone, the cone of the rows active
            # there: the projected step shrinks per unit length as the step
            # grows (Calamai & More 1987), and its short-step limit is -g less
            # its normal-cone part (Moreau's decomposition).
            assert residual <= cone_distance(cs, theta, grad) + 1e-12

    def test_first_infeasible_is_zero_based_and_per_block(self):
        cs = Box([0.0, 0.0], [1.0, 1.0])
        blocks = np.array([[0.5, 0.5], [1.0 + 1e-9, 0.0], [2.0, 0.0]])
        # 1e-9 is inside the second block's tolerance 1e-8 * (1 + |block|).
        assert cs.first_infeasible(blocks) == 2
        assert cs.first_infeasible(blocks[:2]) is None
        assert Unconstrained(2).first_infeasible(np.full((3, 2), 1e300)) is None

    def test_default_tolerance_is_scale_aware(self):
        theta = np.array([1e6, 0.0])
        assert default_active_tolerance(theta) == pytest.approx(1e-8 * (1.0 + 1e6))

    def test_tolerance_past_the_squared_range_stays_finite(self):
        # 1e160 squared overflows; the norm is then taken over the largest
        # entry, without a warning, and the far point is outside the box.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not Box([0.0], [1.0]).contains(np.array([1e160]))
            tolerance = default_active_tolerance(np.array([[1e160, -1e160], [3.0, 4.0]]))
        assert tolerance[0] == pytest.approx(1e-8 * math.sqrt(2.0) * 1e160, rel=1e-15)
        assert tolerance[1] == 1e-8 * (1.0 + 5.0)

    def test_stacked_tolerances_equal_the_per_block_rule(self):
        # One call on a stack gives, bit for bit, 1e-8 * (1 + norm(block))
        # of every block taken alone, and of a single block.
        rng = np.random.default_rng(13)
        for _ in range(400):
            dim, k = int(rng.integers(1, 9)), int(rng.integers(1, 100))
            blocks = rng.normal(size=(k, dim)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
            expected = [1e-8 * (1.0 + float(np.linalg.norm(block))) for block in blocks]
            assert np.array_equal(default_active_tolerance(blocks), expected)
            assert default_active_tolerance(blocks[0]) == expected[0]

    @settings(max_examples=200, deadline=None)
    @given(
        length=st.integers(1, 64),
        rows=st.integers(1, 20),
        exponent=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_norms_equal_per_row_norms_bitwise(self, length, rows, exponent, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, length)) * 10.0**exponent
        expected = [np.linalg.norm(row) for row in x]
        assert np.array_equal(block_norms(x), expected)
        assert np.array_equal(block_norms(x.reshape(1, rows, length))[0], expected)
        assert block_norms(x[0]) == expected[0]


class TestKtResidual:
    def test_stacked_residuals_equal_per_block_calls(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            for cs in random_sets(rng):
                theta = cs.project(rng.normal(size=(5, cs.dim)))
                grad = rng.normal(scale=2.0, size=(5, cs.dim))
                expected = [kt_residual(cs, t, g) for t, g in zip(theta, grad)]
                assert np.array_equal(kt_residual(cs, theta, grad), expected)

    def test_unconstrained_is_gradient_norm(self):
        cs = Unconstrained(2)
        assert kt_residual(cs, [0.0, 0.0], [1.0, 2.0]) == pytest.approx(np.sqrt(5.0))

    def test_zero_gradient_interior(self):
        cs = Box([0.0, 0.0], [1.0, 1.0])
        assert kt_residual(cs, [0.5, 0.5], [0.0, 0.0]) == 0.0

    def test_outward_gradient_absorbed_at_bound(self):
        # At the upper bound with -g pointing outward, -g = 3 * dq with dq = +1.
        cs = Box([0.0], [1.0])
        assert kt_residual(cs, [1.0], [-3.0]) <= 1e-12

    def test_equals_gradient_norm_when_inactive(self):
        rng = np.random.default_rng(4)
        cs = Box([-1.0, -1.0], [1.0, 1.0])
        for _ in range(100):
            theta = rng.uniform(-0.5, 0.5, size=2)
            # The unit step theta - g stays inside: the residual is |g|.
            g = rng.uniform(-0.5, 0.5, size=2)
            assert kt_residual(cs, theta, g) == pytest.approx(np.linalg.norm(g))
            # A longer step is cut where it leaves the box.
            g = 4.0 * rng.normal(size=2)
            stop = np.clip(theta - g, -1.0, 1.0)
            assert kt_residual(cs, theta, g) == pytest.approx(np.linalg.norm(theta - stop))

    def test_dependent_gradients_give_the_independent_residual(self):
        # Two coinciding halfspaces make the active gradients dependent; the
        # cone they span, and so the distance to it, is that of one of them.
        dependent = Halfspaces([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        single = Halfspaces([[1.0, 0.0]], [1.0])
        for grad in ([1.0, 1.0], [-3.0, 0.5], [0.0, -2.0]):
            expected = kt_residual(single, [1.0, 0.0], grad)
            assert abs(kt_residual(dependent, [1.0, 0.0], grad) - expected) <= 1e-12

    def test_tangential_component_survives(self):
        # On the face x = 1 the outward part of -g is absorbed and the
        # tangential part is what remains.
        cs = Box([0.0, 0.0], [1.0, 1.0])
        assert kt_residual(cs, [1.0, 0.5], [-3.0, 0.25]) == 0.25
        # -g points inward: nothing is absorbed, but the unit step stops at
        # the far bound 0, so the residual is 1 rather than |g| = 2.
        assert kt_residual(Box([0.0], [1.0]), [1.0], [2.0]) == 1.0


def halfspace_drift_limit(normal, theta, y):
    """Closed-form small-step drift on the boundary of a single halfspace."""
    e = np.asarray(normal, float) / np.linalg.norm(normal)
    outward = max(float(np.dot(y, e)), 0.0)
    return np.asarray(y, float) - outward * e


class TestProjectionDrift:
    def test_interior_is_exact(self):
        # Identity projection: drift equals y up to the rounding of theta + gamma*y.
        cs = Box([0.0, 0.0], [1.0, 1.0])
        theta = np.array([0.5, 0.5])
        y = np.array([0.3, -0.2])
        drift = projection_drift(cs, theta, y, 1e-3)
        assert np.allclose(drift, y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gamma", [1e-2, 1e-4, 1e-6])
    def test_outward_component_removed_on_boundary(self, gamma):
        cs = Halfspaces([[1.0, 0.0]], [1.0])
        drift = projection_drift(cs, [1.0, 0.0], [2.0, 1.0], gamma)
        assert np.allclose(drift, [0.0, 1.0], atol=1e-9)

    def test_inward_direction_untouched(self):
        cs = Halfspaces([[1.0, 0.0]], [1.0])
        drift = projection_drift(cs, [1.0, 0.0], [-2.0, 1.0], 1e-6)
        assert np.allclose(drift, [-2.0, 1.0], atol=1e-9)

    def test_matches_closed_form_on_random_halfspaces(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            normal = rng.normal(size=dim)
            normal /= np.linalg.norm(normal)
            offset = float(rng.normal())
            cs = Halfspaces([normal], [offset])
            base = rng.normal(size=dim)
            theta = base + (offset - float(normal @ base)) * normal  # on the boundary
            y = rng.normal(size=dim) * 3.0
            drift = projection_drift(cs, theta, y, 1e-6)
            assert np.allclose(drift, halfspace_drift_limit(normal, theta, y), atol=1e-4)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            projection_drift(Unconstrained(1), [0.0], [1.0], 0.0)
