import dataclasses
import math

import numpy as np
import pytest

from gossip_sa.config import apply_overrides, build_run_config, preset_dict, spec_from_dict
from gossip_sa.constraints import BudgetSimplex
from gossip_sa.core import run
from gossip_sa.network import Graph, is_connected
from gossip_sa.power import (
    PowerScenario,
    _all_rate_gradients,
    _all_receiver_terms,
    build_power_problem,
    estimate_objective,
    stochastic_oracle,
    weighted_gradient_estimate,
)

from reference import preset_spec, rate, rate_gradient


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
        gains = scen.draw(np.random.default_rng(0))
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
        gains = scen.draw(rng)
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
            gains = scen.draw(rng)
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
        gains = scen.draw(np.random.default_rng(3))
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
            gains = scen.draw(rng)
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
            gains = scen.draw(rng)
            theta = random_feasible_point(scen, rng)
            user = int(rng.integers(1, 4))
            g = rate_gradient(scen, theta, gains, user).reshape(3, 2)
            cross = np.delete(g, user - 1, axis=0)
            assert np.all(cross <= 0.0)

    def test_batched_gains(self):
        scen = small_scenario()
        rng = np.random.default_rng(6)
        gains = scen.draw(rng, (7,))
        theta = random_feasible_point(scen, rng)
        batch = rate_gradient(scen, theta, gains, 1)
        assert batch.shape == (7, scen.dim)
        for t in range(7):
            assert np.allclose(batch[t], rate_gradient(scen, theta, gains[t], 1))


class TestScenarioDraw:
    def test_exponential_moments(self):
        rng = np.random.default_rng(7)
        draws = small_scenario(2, 1).draw(rng, (25000,))  # 10^5 gains total
        flat = draws.ravel()
        assert flat.size == 10**5
        assert abs(flat.mean() - 1.0) <= 0.02
        assert abs(flat.var() - 1.0) <= 0.05
        assert np.all(flat > 0.0)

    def test_constant_distribution(self):
        scen = small_scenario(2, 3, channel_distribution="constant")
        gains = scen.draw(np.random.default_rng(8))
        assert np.array_equal(gains, np.ones((2, 2, 3)))

    def test_unknown_distribution_rejected(self):
        # An unknown law fails when the scenario is built, naming the law.
        with pytest.raises(ValueError, match="distribution 'rayleigh'"):
            small_scenario(2, 2, channel_distribution="rayleigh")


class TestStochasticOracle:
    def test_deterministic_channels_equal_exact_gradient(self):
        scen = small_scenario(channel_distribution="constant")
        rng = np.random.default_rng(10)
        blocks = np.stack([random_feasible_point(scen, rng) for _ in range(3)])
        obs = stochastic_oracle(scen, blocks, scen.draw(rng))
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
            gains = scen.draw(np.random.default_rng(seed))
            obs = stochastic_oracle(scen, blocks, gains)
            expected = np.stack(
                [
                    scen.weights[i] * rate_gradient(scen, blocks[i], gains, i + 1)
                    for i in range(n_users)
                ]
            )
            assert np.array_equal(obs, expected)

    def test_leading_axes_take_one_realization_per_stack(self):
        # A (2, 3) batch of block stacks takes gains with that leading shape
        # in one call; each stack equals the per-agent loop on its own
        # realization, bit for bit.
        rng = np.random.default_rng(22)
        scen = random_scenario(rng, 3, 2)
        blocks = rng.uniform(0.0, 1.0, size=(2, 3, 3, scen.dim))
        gains = scen.draw(np.random.default_rng(23), (2, 3))
        obs = stochastic_oracle(scen, blocks, gains)
        assert obs.shape == blocks.shape
        for a in range(2):
            for b in range(3):
                expected = np.stack(
                    [
                        scen.weights[i]
                        * rate_gradient(scen, blocks[a, b, i], gains[a, b], i + 1)
                        for i in range(3)
                    ]
                )
                assert np.array_equal(obs[a, b], expected)

    def test_conditional_mean_matches_ergodic_gradient(self):
        # Oracle draws at a fixed block must average to the ergodic gradient,
        # estimated independently with ten times the sample size; the bound is
        # three standard errors of the difference of the two estimators.
        scen = small_scenario(weights=[0.5, 1.0, 1.5])
        rng = np.random.default_rng(11)
        theta = random_feasible_point(scen, rng)
        blocks = np.tile(theta, (3, 1))
        draws = 10**5
        gains = scen.draw(rng, (draws,))
        obs = stochastic_oracle(scen, np.broadcast_to(blocks, (draws, 3, scen.dim)), gains)
        mean = obs.sum(axis=0) / draws
        var = (obs**2).sum(axis=0) / draws - mean**2
        ref_rng = np.random.default_rng(12)
        for i in range(3):
            chunks = [
                scen.weights[i]
                * rate_gradient(scen, theta, scen.draw(ref_rng, (10**5,)), i + 1).mean(axis=0)
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
            mean += stochastic_oracle(scen, blocks, scen.draw(rng))
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

    def test_doubling_trials_halves_squared_standard_error(self):
        # The estimate is a mean of independent trials, so its variance over
        # independent samples halves when the trials double.
        scen = small_scenario()
        rng = np.random.default_rng(15)
        theta = random_feasible_point(scen, rng)
        variances = [
            np.var([estimate_objective(scen, theta, trials, rng).value for _ in range(2000)])
            for trials in (50, 100)
        ]
        assert 0.4 <= variances[1] / variances[0] <= 0.6

    def test_weighted_gradient_estimate_is_ascent_direction(self):
        scen = small_scenario()
        rng = np.random.default_rng(16)
        theta = random_feasible_point(scen, rng)
        g = weighted_gradient_estimate(scen, theta, 20000, rng)
        step = 1e-4 * g / np.linalg.norm(g)
        up = estimate_objective(scen, theta + step, 200000, np.random.default_rng(17))
        down = estimate_objective(scen, theta - step, 200000, np.random.default_rng(17))
        assert up.value > down.value

    def test_ascent_equals_weighted_gradient_estimate(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            scen = random_scenario(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            theta = rng.uniform(0.0, 1.0, size=scen.dim)
            trials = int(rng.integers(1, 200))
            seed = int(rng.integers(2**32))
            est = estimate_objective(scen, theta, trials, np.random.default_rng(seed))
            got = weighted_gradient_estimate(scen, theta, trials, np.random.default_rng(seed))
            assert np.array_equal(est.ascent, got)


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
            gains = scen.draw(np.random.default_rng(seed), (trials,))
            yield scen, theta, trials, seed, gains

    def test_estimate_objective(self):
        for scen, theta, trials, seed, gains in self.cases():
            totals = np.zeros(trials)
            for i in range(scen.n_users):
                totals += scen.weights[i] * rate(scen, theta, gains, i + 1)
            est = estimate_objective(scen, theta, trials, np.random.default_rng(seed))
            assert est.value == float(totals.mean())

    def test_weighted_gradient_estimate(self):
        for scen, theta, trials, seed, gains in self.cases():
            total = np.zeros(scen.dim)
            for i in range(scen.n_users):
                grad = rate_gradient(scen, theta, gains, i + 1)
                total += scen.weights[i] * grad.mean(axis=0)
            got = weighted_gradient_estimate(scen, theta, trials, np.random.default_rng(seed))
            assert np.array_equal(got, total)


class TestStackedEstimates:
    """A stack of points is estimated in one call, bit for bit as one call
    per point, in C order, on the same generator."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(24)
        for case in range(60):
            scen = random_scenario(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            if case % 10 == 9:
                scen = dataclasses.replace(scen, channel_distribution="constant")
            lead = ((int(rng.integers(1, 6)),), (2, int(rng.integers(1, 4))))[case % 2]
            points = rng.uniform(0.0, 1.0, size=(*lead, scen.dim))
            yield scen, points, int(rng.integers(1, 200)), int(rng.integers(2**32))

    def test_stack_equals_one_call_per_point(self):
        for scen, points, trials, seed in self.cases():
            stacked_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = estimate_objective(scen, points, trials, stacked_rng)
            assert got.value.shape == points.shape[:-1]
            assert got.ascent.shape == points.shape
            for index in np.ndindex(points.shape[:-1]):
                want = estimate_objective(scen, points[index], trials, single_rng)
                assert got.value[index] == want.value
                assert np.array_equal(got.ascent[index], want.ascent)
            assert stacked_rng.bit_generator.state == single_rng.bit_generator.state

    def test_single_point_gives_a_float_and_a_vector(self):
        scen = small_scenario()
        theta = random_feasible_point(scen, np.random.default_rng(25))
        est = estimate_objective(scen, theta, 50, np.random.default_rng(26))
        assert isinstance(est.value, float)
        assert est.ascent.shape == (scen.dim,)

    def test_gradients_refuse_an_out_that_is_not_c_ordered(self):
        # The own-power entries are written through a reshape of ``out``,
        # which is a view only of a C-ordered array.
        scen = small_scenario()
        gains = scen.draw(np.random.default_rng(27), (5,))
        p = np.broadcast_to(np.full(scen.gain_shape[1:], 0.3), (5, *scen.gain_shape))
        terms = _all_receiver_terms(scen, p, gains)
        with pytest.raises(ValueError, match="C-ordered"):
            _all_rate_gradients(scen, gains, terms, out=np.asfortranarray(gains))
        want = _all_rate_gradients(scen, gains, terms)
        assert np.array_equal(_all_rate_gradients(scen, gains, terms, out=gains), want)


def preset_scenario():
    """The four-user network of the ``power-alloc`` preset."""
    spec = preset_spec("power-alloc")
    power = {k: v for k, v in spec.problem.power.items() if k != "mc_trials"}
    return PowerScenario(n_users=spec.graph.n_agents, **power)


def preset_start(rng):
    """Initial blocks of the ``power-alloc`` preset, from its config's sampler."""
    return build_run_config(preset_spec("power-alloc")).initial_state(rng)


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
        feas = scen.feasible_set()
        blocks = preset_start(np.random.default_rng(19))
        assert blocks.shape == (4, 8)
        for block in blocks:
            assert feas.contains(block)

    def test_problem_wiring(self):
        scen = preset_scenario()
        problem = build_power_problem(scen, mc_trials=50)
        assert problem.dim == 8 and problem.n_agents == 4
        rng = np.random.default_rng(20)
        blocks = preset_start(rng)
        obs = problem.oracle(blocks[None], problem.draw(rng, (1,)))
        assert obs.shape == (1, 4, 8)
        avg = blocks.mean(axis=0)
        residuals, objectives = problem.evaluate(avg[None, None], [rng])
        assert residuals.shape == objectives.shape == (1, 1)
        assert residuals[0, 0] >= 0.0 and objectives[0, 0] > 0.0

    def test_oracle_evaluates_each_replica_on_its_own_gains(self):
        # The draw is the scenario's with the batch's leading shape, and row
        # r of the hook's batch is the stacked oracle on replica r alone.
        scen = preset_scenario()
        problem = build_power_problem(scen, mc_trials=50)
        rng = np.random.default_rng(21)
        theta = np.stack([preset_start(rng) for _ in range(3)])
        gains = problem.draw(np.random.default_rng(5), (3,))
        assert np.array_equal(gains, scen.draw(np.random.default_rng(5), (3,)))
        assert problem.noise_shape == scen.gain_shape == gains.shape[1:]
        obs = problem.oracle(theta, gains)
        assert obs.shape == theta.shape
        for r in range(3):
            assert np.array_equal(obs[r], stochastic_oracle(scen, theta[r], gains[r]))

    def test_oracle_refuses_gains_of_the_wrong_shape(self):
        scen = preset_scenario()
        blocks = preset_start(np.random.default_rng(22))
        gains = scen.draw(np.random.default_rng(23), (2,))
        with pytest.raises(ValueError, match=r"gains of shape \(4, 4, 2\), got \(2, 4, 4, 2\)"):
            stochastic_oracle(scen, blocks, gains)


class TestKuhnTuckerAtXiThreeQuarters:
    """Claim (ii) on power allocation: at step exponent 0.75 the network
    average approaches the Kuhn-Tucker set of the ergodic sum rate.

    The preset runs at xi = 1 and gamma0 = 1, where the step mass grows
    only like log n, and its residual does not fall; at xi = 0.75, with
    the preset otherwise unchanged, it does.  The bound was fixed before
    this run, as the estimator's noise floor at a fixed point plus a
    margin.  The point is the final network average of a 10**5-step run
    of the same config at seed 1000.  There 400 repeated 1000-draw
    estimates of the residual all read 0.00132: the unit step from that
    point projects onto the same corner of the budget sets whatever the
    sample, so the estimate is the point's distance to the corner (at the
    corner itself all 400 read 0).  The margin, 0.02, leaves room for the
    distance still left after 10**4 steps.
    """

    NOISE_FLOOR = 0.00132
    MARGIN = 0.02

    def test_median_residual_of_the_last_tenth_falls_below_the_bound(self):
        spec = spec_from_dict(apply_overrides(preset_dict("power-alloc"), ["schedule.xi=0.75"]))
        assert (spec.run.n_iter, spec.run.record_every) == (10**4, 100)
        assert spec.problem.power["mc_trials"] == 10**3
        residual = run(build_run_config(spec)).records[0].residual
        window = len(residual) // 10
        first, last = np.median(residual[:window]), np.median(residual[-window:])
        assert last < self.NOISE_FLOOR + self.MARGIN
        assert last < first
