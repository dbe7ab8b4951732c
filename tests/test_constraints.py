import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gossip_sa.constraints import (
    Box,
    BudgetSimplex,
    ConstraintSet,
    Halfspaces,
    InfeasiblePointError,
    Unconstrained,
    active_set,
    default_active_tolerance,
    kt_residual,
    projection_drift,
)


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

    def test_empty_halfspace_system_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Halfspaces([[1.0], [-1.0]], [-1.0, -1.0])  # x <= -1 and x >= 1

    def test_too_many_halfspaces_rejected(self):
        with pytest.raises(ValueError, match="at most"):
            Halfspaces(np.ones((11, 2)), np.ones(11))

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
        # minimizer, a Kuhn-Tucker point of the box.
        if isinstance(cs, Box):
            for center in flat:
                theta = cs.project(center)
                assert kt_residual(cs, theta, theta - center) <= 1e-12

    def test_first_infeasible_is_zero_based_and_per_block(self):
        cs = Box([0.0, 0.0], [1.0, 1.0])
        blocks = np.array([[0.5, 0.5], [1.0 + 1e-9, 0.0], [2.0, 0.0]])
        # 1e-9 is inside the second block's tolerance 1e-8 * (1 + |block|).
        assert cs.first_infeasible(blocks) == 2
        assert cs.first_infeasible(blocks[:2]) is None
        assert Unconstrained(2).first_infeasible(np.full((3, 2), 1e300)) is None


class TestActiveSet:
    def test_box_upper_bound_active(self):
        cs = Box([0.0], [1.0])
        act = active_set(cs, [1.0], tol=1e-9)
        assert act.indices == (0,)  # the single finite upper bound

    def test_budget_active_at_face(self):
        cs = BudgetSimplex(budgets=[1.0], groups=[(0, 1)])
        act = active_set(cs, [0.5, 0.5], tol=1e-9)
        assert act.indices == (2,)  # 0,1 are positivity rows, 2 is the budget

    def test_interior_empty(self):
        cs = Box([0.0, 0.0], [1.0, 1.0])
        assert active_set(cs, [0.4, 0.6], tol=1e-9).indices == ()

    def test_grossly_infeasible_rejected(self):
        cs = Box([0.0], [1.0])
        with pytest.raises(InfeasiblePointError):
            active_set(cs, [1.5], tol=1e-9)

    def test_default_tolerance_is_scale_aware(self):
        theta = np.array([1e6, 0.0])
        assert default_active_tolerance(theta) == pytest.approx(1e-8 * (1.0 + 1e6))


class TestKtResidual:
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
            g = rng.normal(size=2)
            assert kt_residual(cs, theta, g) == pytest.approx(np.linalg.norm(g))

    def test_dependent_gradients_give_the_independent_residual(self):
        # Two coinciding halfspaces make the active gradients dependent; the
        # cone they span, and so the distance to it, is that of one of them.
        dependent = Halfspaces([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        single = Halfspaces([[1.0, 0.0]], [1.0])
        for grad in ([1.0, 1.0], [-3.0, 0.5], [0.0, -2.0]):
            expected = kt_residual(single, [1.0, 0.0], grad)
            assert abs(kt_residual(dependent, [1.0, 0.0], grad) - expected) <= 1e-12

    def test_tangential_component_survives(self):
        cs = Box([0.0], [1.0])
        # -g points inward: nothing absorbable, residual is |g|.
        assert kt_residual(cs, [1.0], [2.0]) == pytest.approx(2.0)


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
