import math

import numpy as np
import pytest

from gossip_sa.config import preset_spec
from gossip_sa.constraints import BudgetSimplex
from gossip_sa.network import Graph, is_connected
from gossip_sa.power import (
    PowerScenario,
    build_power_problem,
    estimate_objective,
    random_feasible_start,
    rate,
    rate_gradient,
    sample_channels,
    stochastic_oracle,
    weighted_gradient_estimate,
)


def small_scenario(n_users=3, n_channels=2, **kwargs):
    defaults = dict(
        budgets=np.ones(n_users),
        noise_vars=np.full(n_users, 0.5),
        weights=np.ones(n_users),
    )
    defaults.update(kwargs)
    return PowerScenario(n_users=n_users, n_channels=n_channels, **defaults)


def random_scenario(rng, n_users, n_channels):
    return PowerScenario(
        n_users=n_users,
        n_channels=n_channels,
        budgets=rng.uniform(0.5, 2.0, size=n_users),
        noise_vars=rng.uniform(0.01, 1.0, size=n_users),
        weights=rng.uniform(0.1, 1.0, size=n_users),
    )


def random_feasible_point(scenario, rng):
    caps = np.repeat(scenario.budgets / scenario.n_channels, scenario.n_channels)
    return rng.uniform(0.05, 1.0, size=scenario.dim) * caps


class TestRate:
    def test_zero_power_zero_rate(self):
        scen = small_scenario()
        gains = sample_channels(np.random.default_rng(0), 3, 2)
        assert rate(scen, np.zeros(scen.dim), gains, 1) == 0.0

    def test_single_user_no_interference(self):
        scen = PowerScenario(1, 1, budgets=[1.0], noise_vars=[1.0], weights=[1.0])
        gains = np.ones((1, 1, 1))
        assert rate(scen, np.array([1.0]), gains, 1) == pytest.approx(math.log(2.0))

    def test_two_user_interference_literal(self):
        scen = PowerScenario(2, 1, budgets=[1, 1], noise_vars=[1.0, 1.0], weights=[1, 1])
        gains = np.zeros((2, 2, 1))
        gains[0, 0, 0] = 2.0  # user 1 direct gain
        gains[1, 0, 0] = 1.0  # user 2 interfering at receiver 1
        gains[1, 1, 0] = 1.0
        gains[0, 1, 0] = 1.0
        theta = np.array([1.0, 1.0])
        assert rate(scen, theta, gains, 1) == pytest.approx(math.log(2.0))

    def test_nonnegative_and_zero_iff_unpowered(self):
        scen = small_scenario()
        rng = np.random.default_rng(1)
        gains = sample_channels(rng, 3, 2)
        for _ in range(50):
            theta = random_feasible_point(scen, rng)
            assert rate(scen, theta, gains, 2) > 0.0
        theta = random_feasible_point(scen, rng)
        theta[2:4] = 0.0  # user 2's block
        assert rate(scen, theta, gains, 2) == 0.0

    def test_monotone_in_own_and_others_powers(self):
        scen = small_scenario()
        rng = np.random.default_rng(2)
        for _ in range(100):
            gains = sample_channels(rng, 3, 2)
            theta = random_feasible_point(scen, rng)
            user = int(rng.integers(1, 4))
            k = int(rng.integers(scen.dim))
            bump = np.zeros(scen.dim)
            bump[k] = 0.01
            delta = rate(scen, theta + bump, gains, user) - rate(scen, theta, gains, user)
            if k // scen.n_channels == user - 1:
                assert delta > 0.0  # own power helps
            else:
                assert delta <= 1e-12  # interference hurts


class TestRateGradient:
    def test_zero_power_components(self):
        scen = small_scenario(noise_vars=[0.5, 0.25, 1.0])
        gains = sample_channels(np.random.default_rng(3), 3, 2)
        g = rate_gradient(scen, np.zeros(scen.dim), gains, 2)
        own = g.reshape(3, 2)[1]
        assert np.allclose(own, gains[1, 1, :] / 0.25, atol=1e-12)
        cross = np.delete(g.reshape(3, 2), 1, axis=0)
        assert np.allclose(cross, 0.0)

    def test_matches_central_differences(self):
        scen = small_scenario()
        rng = np.random.default_rng(4)
        step = 1e-6
        worst = 0.0
        for _ in range(100):
            gains = sample_channels(rng, 3, 2)
            theta = random_feasible_point(scen, rng)
            user = int(rng.integers(1, 4))
            exact = rate_gradient(scen, theta, gains, user)
            approx = np.empty_like(exact)
            for k in range(scen.dim):
                bump = np.zeros(scen.dim)
                bump[k] = step
                approx[k] = (
                    rate(scen, theta + bump, gains, user)
                    - rate(scen, theta - bump, gains, user)
                ) / (2 * step)
            worst = max(worst, np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert worst <= 1e-6

    def test_cross_components_nonpositive(self):
        scen = small_scenario()
        rng = np.random.default_rng(5)
        for _ in range(100):
            gains = sample_channels(rng, 3, 2)
            theta = random_feasible_point(scen, rng)
            user = int(rng.integers(1, 4))
            g = rate_gradient(scen, theta, gains, user).reshape(3, 2)
            cross = np.delete(g, user - 1, axis=0)
            assert np.all(cross <= 0.0)

    def test_batched_gains(self):
        scen = small_scenario()
        rng = np.random.default_rng(6)
        gains = sample_channels(rng, 3, 2, n_draws=7)
        theta = random_feasible_point(scen, rng)
        batch = rate_gradient(scen, theta, gains, 1)
        assert batch.shape == (7, scen.dim)
        for t in range(7):
            assert np.allclose(batch[t], rate_gradient(scen, theta, gains[t], 1))


class TestSampleChannels:
    def test_exponential_moments(self):
        rng = np.random.default_rng(7)
        draws = sample_channels(rng, 2, 1, n_draws=25000)  # 10^5 gains total
        flat = draws.ravel()
        assert flat.size == 10**5
        assert abs(flat.mean() - 1.0) <= 0.02
        assert abs(flat.var() - 1.0) <= 0.05
        assert np.all(flat > 0.0)

    def test_constant_distribution(self):
        gains = sample_channels(np.random.default_rng(8), 2, 3, distribution="constant")
        assert np.array_equal(gains, np.ones((2, 2, 3)))

    def test_callable_distribution(self):
        gains = sample_channels(
            np.random.default_rng(9), 2, 2, distribution=lambda rng, s: np.full(s, 2.0)
        )
        assert np.array_equal(gains, np.full((2, 2, 2), 2.0))

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            sample_channels(np.random.default_rng(0), 2, 2, distribution="rayleigh")


class TestStochasticOracle:
    def test_deterministic_channels_equal_exact_gradient(self):
        scen = small_scenario(channel_distribution="constant")
        rng = np.random.default_rng(10)
        blocks = np.stack([random_feasible_point(scen, rng) for _ in range(3)])
        obs = stochastic_oracle(scen, blocks, rng)
        ones = np.ones((3, 3, 2))
        for i in range(3):
            expected = scen.weights[i] * rate_gradient(scen, blocks[i], ones, i + 1)
            assert np.array_equal(obs[i], expected)

    def test_equals_per_agent_loop_bitwise(self):
        # The stacked oracle must equal the literal loop over agents, each
        # receiver evaluated at its own allocation, on the same channel draw.
        rng = np.random.default_rng(21)
        for _ in range(300):
            n_users = int(rng.integers(1, 6))
            n_channels = int(rng.integers(1, 4))
            scen = random_scenario(rng, n_users, n_channels)
            blocks = rng.uniform(0.0, 1.0, size=(n_users, scen.dim))
            seed = int(rng.integers(2**32))
            obs = stochastic_oracle(scen, blocks, np.random.default_rng(seed))
            gains = sample_channels(np.random.default_rng(seed), n_users, n_channels)
            expected = np.stack(
                [
                    scen.weights[i] * rate_gradient(scen, blocks[i], gains, i + 1)
                    for i in range(n_users)
                ]
            )
            assert np.array_equal(obs, expected)

    def test_conditional_mean_matches_ergodic_gradient(self):
        # Oracle draws at a fixed block must average to the ergodic gradient,
        # estimated independently with ten times the sample size; the bound is
        # three standard errors of the difference of the two estimators.
        scen = small_scenario(weights=[0.5, 1.0, 1.5])
        rng = np.random.default_rng(11)
        theta = random_feasible_point(scen, rng)
        blocks = np.tile(theta, (3, 1))
        draws = 10**5
        acc = np.zeros((3, scen.dim))
        sq = np.zeros((3, scen.dim))
        for _ in range(draws):
            obs = stochastic_oracle(scen, blocks, rng)
            acc += obs
            sq += obs**2
        mean = acc / draws
        var = sq / draws - mean**2
        ref_rng = np.random.default_rng(12)
        for i in range(3):
            chunks = [
                scen.weights[i]
                * rate_gradient(
                    scen, theta, sample_channels(ref_rng, 3, 2, n_draws=10**5), i + 1
                ).mean(axis=0)
                for _ in range(10)
            ]
            reference = np.mean(chunks, axis=0)
            se_diff = np.sqrt(var[i] / draws + var[i] / (10 * draws))
            assert np.all(np.abs(mean[i] - reference) <= 3.0 * se_diff + 1e-9)

    def test_zero_power_mean_strictly_positive_on_own_channels(self):
        scen = small_scenario()
        rng = np.random.default_rng(13)
        blocks = np.zeros((3, scen.dim))
        mean = np.zeros((3, scen.dim))
        for _ in range(2000):
            mean += stochastic_oracle(scen, blocks, rng)
        mean /= 2000
        for i in range(3):
            own = mean[i].reshape(3, 2)[i]
            assert np.all(own > 0.0)


class TestObjective:
    def test_zero_allocation_exactly_zero(self):
        scen = small_scenario()
        for trials in (1, 10, 1000):
            est = estimate_objective(
                scen, np.zeros(scen.dim), trials, np.random.default_rng(14)
            )
            assert est.value == 0.0
            assert est.std_error == 0.0

    def test_doubling_trials_halves_squared_standard_error(self):
        scen = small_scenario()
        rng = np.random.default_rng(15)
        theta = random_feasible_point(scen, rng)
        est_t = estimate_objective(scen, theta, 4000, rng)
        est_2t = estimate_objective(scen, theta, 8000, rng)
        ratio = est_2t.std_error**2 / est_t.std_error**2
        assert 0.4 <= ratio <= 0.6

    def test_weighted_gradient_estimate_is_ascent_direction(self):
        scen = small_scenario()
        rng = np.random.default_rng(16)
        theta = random_feasible_point(scen, rng)
        g = weighted_gradient_estimate(scen, theta, 20000, rng)
        step = 1e-4 * g / np.linalg.norm(g)
        up = estimate_objective(scen, theta + step, 200000, np.random.default_rng(17))
        down = estimate_objective(scen, theta - step, 200000, np.random.default_rng(17))
        assert up.value > down.value


class TestEstimatesEqualPerUserLoops:
    """The all-receiver Monte-Carlo records equal per-user loops, bit for bit."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(22)
        for _ in range(150):
            n_users = int(rng.integers(1, 6))
            n_channels = int(rng.integers(1, 4))
            scen = random_scenario(rng, n_users, n_channels)
            theta = rng.uniform(0.0, 1.0, size=scen.dim)
            trials = int(rng.integers(1, 200))
            seed = int(rng.integers(2**32))
            gains = sample_channels(np.random.default_rng(seed), n_users, n_channels, trials)
            yield scen, theta, trials, seed, gains

    def test_estimate_objective(self):
        for scen, theta, trials, seed, gains in self.cases():
            totals = np.zeros(trials)
            for i in range(scen.n_users):
                totals += scen.weights[i] * rate(scen, theta, gains, i + 1)
            est = estimate_objective(scen, theta, trials, np.random.default_rng(seed))
            assert est.value == float(totals.mean())
            if trials > 1:
                assert est.std_error == float(totals.std(ddof=1) / np.sqrt(trials))

    def test_weighted_gradient_estimate(self):
        for scen, theta, trials, seed, gains in self.cases():
            total = np.zeros(scen.dim)
            for i in range(scen.n_users):
                grad = rate_gradient(scen, theta, gains, i + 1)
                total += scen.weights[i] * grad.mean(axis=0)
            got = weighted_gradient_estimate(scen, theta, trials, np.random.default_rng(seed))
            assert np.array_equal(got, total)


def preset_scenario():
    """The four-user network of the ``power-alloc`` preset."""
    spec = preset_spec("power-alloc")
    power = {k: v for k, v in spec.problem.power.items() if k != "mc_trials"}
    return PowerScenario(n_users=spec.graph.n_agents, **power)


class TestScenario:
    def test_reference_parameters(self):
        scen = preset_scenario()
        assert scen.n_channels == 2
        assert scen.weights[1] == pytest.approx(0.2)
        assert scen.noise_vars[2] == pytest.approx(0.02)
        assert scen.weights[0] == scen.weights[2] == pytest.approx(0.3)
        assert scen.noise_vars[0] == scen.noise_vars[3] == pytest.approx(0.1)
        assert scen.weights.tolist() == [0.3, 0.2, 0.3, 0.2]
        assert scen.noise_vars.tolist() == [0.1, 0.05, 0.02, 0.1]
        assert scen.budgets.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert scen.dim == 8  # agent block dimension; stacked network state is 32

    def test_reference_graph(self):
        spec = preset_spec("power-alloc")
        graph = Graph.from_edges(spec.graph.n_agents, spec.graph.edges)
        assert graph.edges == ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
        assert is_connected(graph)

    def test_feasible_set_is_per_user_budget_simplex(self):
        scen = preset_scenario()
        feas = scen.feasible_set()
        manual = BudgetSimplex(
            budgets=scen.budgets,
            groups=[(0, 1), (2, 3), (4, 5), (6, 7)],
        )
        rng = np.random.default_rng(18)
        for _ in range(50):
            x = rng.uniform(-1, 2, size=8)
            assert np.allclose(feas.project(x), manual.project(x), atol=1e-12)

    def test_random_start_is_feasible(self):
        scen = preset_scenario()
        sampler = random_feasible_start(scen, 4)
        feas = scen.feasible_set()
        blocks = sampler(np.random.default_rng(19))
        assert blocks.shape == (4, 8)
        for block in blocks:
            assert feas.contains(block)

    def test_problem_wiring(self):
        scen = preset_scenario()
        problem = build_power_problem(scen, mc_trials=50)
        assert problem.dim == 8 and problem.n_agents == 4
        rng = np.random.default_rng(20)
        blocks = random_feasible_start(scen, 4)(rng)
        obs = problem.oracle(blocks, rng)
        assert obs.shape == (4, 8)
        avg = blocks.mean(axis=0)
        assert problem.objective(avg, rng) > 0.0
        assert problem.residual(avg, rng) >= 0.0
