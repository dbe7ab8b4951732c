import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossip_sa import core, power
from gossip_sa.config import apply_overrides, build_run_config, preset_dict, spec_from_dict
from gossip_sa.constraints import Box, BudgetSimplex, Halfspaces, Unconstrained
from gossip_sa.core import (
    _DIAGNOSTICS,
    _ENSEMBLE,
    _GOSSIP,
    _OBSERVATION,
    AssumptionError,
    DivergenceError,
    NonFiniteObservationError,
    Problem,
    RunConfig,
    SimulationAbort,
    StepSchedule,
    _check_recorded_feasibility,
    _initial_batch,
    _stream,
    _UniformBlocks,
    gossip_step,
    local_step,
    run,
    run_ensemble,
    validate_assumptions,
)
from gossip_sa.diagnostics import CltSpec
from gossip_sa.network import Graph, GossipModel, pairwise_matrix, sample_gossip
from gossip_sa.power import PowerScenario, estimate_objective
from reference import disagreement_norm


def quadratic_problem(centers, sigma=0.0, constraint=None, clt=False):
    centers = np.asarray(centers, dtype=float)
    n_agents, dim = centers.shape
    clt_spec = None
    if clt:
        clt_spec = CltSpec(
            theta_star=centers.mean(axis=0),
            drift_jacobian=-np.eye(dim),
            noise_cov=(sigma**2 / n_agents) * np.eye(dim),
        )

    def evaluate(avgs, rngs):
        gaps = (avgs[..., None, :] - centers).reshape(*avgs.shape[:-1], -1)
        return problem.gradient_residual(avgs), 0.5 * (gaps**2).sum(axis=-1)

    problem = Problem(
        dim=dim,
        n_agents=n_agents,
        gradient=lambda th: th - centers,
        constraint=constraint,
        noise_scale=sigma,
        evaluate=evaluate,
        clt_spec=clt_spec,
    )
    return problem


def force_draw_source(monkeypatch, source):
    """Make :func:`run_ensemble` draw on its worker thread (``"worker"``) or
    in its loop (``"inline"``) whatever the step size and CPU count; leave
    the size rule as it is for ``"real"``."""
    if source == "worker":
        monkeypatch.setattr(core, "DRAW_AHEAD_NUMBERS", 0)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    elif source == "inline":
        monkeypatch.setattr(core, "DRAW_AHEAD_NUMBERS", math.inf)


def two_agent_config(**kwargs):
    defaults = dict(
        problem=quadratic_problem([[0.0], [4.0]]),
        gossip=GossipModel(Graph.from_edges(2, [(1, 2)])),
        schedule=StepSchedule(gamma0=0.5, xi=0.75),
        initial_state=np.zeros((2, 1)),
        n_iter=10,
        seed=0,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestStepSchedule:
    def test_first_step_equals_gamma0(self):
        sched = StepSchedule(gamma0=0.5, xi=0.75)
        assert sched.gamma(1) == 0.5

    def test_strictly_decreasing(self):
        sched = StepSchedule(gamma0=1.0, xi=0.6)
        gammas = [sched.gamma(n) for n in range(1, 101)]
        assert np.all(np.diff(gammas) < 0)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            StepSchedule(gamma0=0.0, xi=0.75)
        with pytest.raises(ValueError):
            StepSchedule(gamma0=1.0, xi=1.2)
        with pytest.raises(ValueError):
            StepSchedule(gamma0=1.0, xi=0.75).gamma(0)


class TestLocalStep:
    def test_zero_observation_is_identity(self):
        theta = np.array([[0.3, -0.1], [1.0, 2.0]])
        out = local_step(theta, np.zeros_like(theta), 0.1, Unconstrained(2))
        assert np.array_equal(out, theta)

    def test_box_clamp(self):
        out = local_step(np.array([[0.9]]), np.array([[0.5]]), 1.0, Box([0.0], [1.0]))
        assert out[0, 0] == 1.0

    def test_affine_update(self):
        theta = np.array([[0.2], [0.4]])
        y = np.array([[1.0], [-1.0]])
        out = local_step(theta, y, 0.1, Unconstrained(1))
        assert np.allclose(out, [[0.3], [0.3]], atol=1e-15)

    def test_nonfinite_observation_names_agent(self):
        theta = np.zeros((3, 2))
        y = np.zeros((3, 2))
        y[1, 0] = np.nan
        with pytest.raises(NonFiniteObservationError) as info:
            local_step(theta, y, 0.1, Unconstrained(2))
        assert info.value.agent == 2

    def test_nonfinite_observation_in_a_batch_names_replica_and_agent(self):
        y = np.zeros((3, 4, 2))
        y[1, 2, 1] = np.inf
        y[2, 0, 0] = np.nan
        with pytest.raises(NonFiniteObservationError) as info:
            local_step(np.zeros_like(y), y, 0.1, Unconstrained(2))
        assert (info.value.replica, info.value.agent) == (1, 3)

    def test_general_projection_path(self):
        cs = BudgetSimplex(budgets=[1.0], groups=[(0, 1)])
        theta = np.array([[0.4, 0.4], [0.1, 0.1]])
        y = np.ones_like(theta)
        out = local_step(theta, y, 1.0, cs)
        assert np.allclose(out[0], [0.5, 0.5], atol=1e-12)
        for block in out:
            assert cs.contains(block)

    @pytest.mark.parametrize(
        "cs",
        [
            Unconstrained(2),
            Box([0.0, 0.0], [1.0, 1.0]),
            BudgetSimplex(budgets=[1.0], groups=[(0, 1)]),
            Halfspaces([[1.0, 1.0]], [1.0]),
        ],
        ids=["unconstrained", "box", "budget-simplex", "halfspaces"],
    )
    def test_projects_the_stack_in_one_call(self, cs, monkeypatch):
        calls = []
        project = cs.project

        def spy(x):
            calls.append(np.shape(x))
            return project(x)

        monkeypatch.setattr(cs, "project", spy)
        theta = np.array([[0.4, 0.4], [0.1, 0.1], [0.9, -0.2]])
        out = local_step(theta, np.ones_like(theta), 1.0, cs)
        assert calls == [theta.shape]
        assert np.array_equal(out, np.stack([project(b) for b in theta + 1.0]))


class TestRecordedFeasibility:
    def test_names_first_infeasible_agent(self):
        cs = BudgetSimplex(budgets=[1.0, 1.0], groups=[(0, 1), (2,)])
        theta = np.array([[0.5, 0.5, 1.0], [0.2, 0.2, 1.5], [-0.1, 0.0, 0.0]])
        with pytest.raises(SimulationAbort, match="agent 2 left the feasible set at iteration 7"):
            _check_recorded_feasibility(theta, cs, 7)

    def test_per_block_tolerance(self):
        # Each block is held to its own scale-aware tolerance, as contains()
        # holds it: the same overshoot passes on a long block, not a short one.
        cs = Box([0.0, -10.0], [1.0, 10.0])
        long_block = np.array([1.0 + 3e-8, 9.0])
        short_block = np.array([1.0 + 3e-8, 0.0])
        assert cs.contains(long_block) and not cs.contains(short_block)
        _check_recorded_feasibility(np.stack([long_block, long_block]), cs, 1)
        with pytest.raises(SimulationAbort, match="agent 2"):
            _check_recorded_feasibility(np.stack([long_block, short_block]), cs, 1)

    def test_batch_holds_each_block_to_its_own_tolerance(self):
        # A batch is checked block by block, not replica by replica: the
        # short block of replica 1 fails although that replica's stack, as
        # one point, would be long enough to pass.
        cs = Box([0.0, -10.0], [1.0, 10.0])
        long_block = np.array([1.0 + 3e-8, 9.0])
        short_block = np.array([1.0 + 3e-8, 0.0])
        ok = np.stack([long_block, long_block, long_block])
        batch = np.stack([ok, [long_block, short_block, long_block]])
        _check_recorded_feasibility(np.stack([ok, ok]), cs, 3)
        with pytest.raises(SimulationAbort, match="agent 2 left the feasible set at iteration 3") as info:
            _check_recorded_feasibility(batch, cs, 3)
        assert info.value.replica == 1


class TestGossipStep:
    def test_identity(self):
        theta = np.arange(6, dtype=float).reshape(3, 2)
        assert np.array_equal(gossip_step(theta, np.eye(3)), theta)

    def test_full_averaging(self):
        theta = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        out = gossip_step(theta, np.ones((3, 3)) / 3.0)
        assert np.allclose(out, np.tile(theta.mean(axis=0), (3, 1)), atol=1e-12)

    def test_pairwise_literal(self):
        theta = np.array([[0.0], [2.0], [5.0]])
        out = gossip_step(theta, pairwise_matrix(1, 2, 3))
        assert np.allclose(out, [[1.0], [1.0], [5.0]], atol=1e-15)

    def test_average_preserved_and_disagreement_contracts(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            w = pairwise_matrix(int(i), int(j), n)
            theta = rng.normal(size=(n, int(rng.integers(1, 4)))) * 2.0
            out = gossip_step(theta, w)
            avg_err = np.linalg.norm(out.mean(axis=0) - theta.mean(axis=0))
            assert avg_err <= 1e-12 * (1.0 + np.linalg.norm(theta))
            assert disagreement_norm(out) <= disagreement_norm(theta) + 1e-12


class TestRmIterate:
    """One full iteration of ``run``: local step, then gossip."""

    def test_two_agent_hand_computed_step(self):
        # Quadratic pulls toward (0, 4); first step halves the gap, gossip averages.
        result = run(two_agent_config(n_iter=1))
        assert np.array_equal(result.final_states[0], [[1.0], [1.0]])

    def test_zero_noise_decoupled_without_gossip(self):
        # Lazy network (tiny activation): each agent descends its own quadratic.
        centers = np.array([[0.0], [4.0]])
        problem = quadratic_problem(centers)
        gossip = GossipModel(Graph.from_edges(2, [(1, 2)]), activation_scale=1e-12)
        config = RunConfig(
            problem=problem,
            gossip=gossip,
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=np.zeros((2, 1)),
            n_iter=200,
            seed=1,
            override_checks=True,  # probing a deliberately silent network
        )
        result = run(config)
        assert np.allclose(result.final_states[0], centers, atol=1e-2)

    def test_matches_centralized_descent_under_full_averaging(self):
        # Zero noise, identical utilities, full averaging every step: the
        # network trajectory equals centralized projected gradient descent.
        center = np.array([[1.5, -0.5]])
        centers = np.tile(center, (3, 1))
        problem = quadratic_problem(centers, constraint=Box([0.0, -1.0], [1.0, 1.0]))
        schedule = StepSchedule(gamma0=0.8, xi=0.75)
        theta = np.tile(np.array([0.2, 0.9]), (3, 1))
        x = np.array([0.2, 0.9])
        full = np.ones((3, 3)) / 3.0
        for n in range(1, 51):
            gamma = schedule.gamma(n)
            y = problem.oracle(theta, problem.draw(np.random.default_rng(0), ()))
            theta = gossip_step(local_step(theta, y, gamma, problem.constraint), full)
            x = problem.constraint.project(x - gamma * (x - center[0]))
            for block in theta:
                assert np.allclose(block, x, atol=1e-12)


class TestRun:
    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError, match="n_iter"):
            two_agent_config(n_iter=0)

    def test_same_seed_identical_traces(self):
        config = two_agent_config(
            problem=quadratic_problem([[0.0], [4.0]], sigma=0.3), n_iter=300
        )
        a = run(config)
        b = run(config)
        assert len(a.records[0]) == len(b.records[0])
        for ra, rb in zip(a.records[0], b.records[0]):
            assert ra.n == rb.n
            assert ra.disagreement == rb.disagreement
            assert np.array_equal(ra.average, rb.average)
        assert np.array_equal(a.final_states[0], b.final_states[0])

    def test_replicas_differ_and_are_reproducible(self):
        config = two_agent_config(
            problem=quadratic_problem([[0.0], [4.0]], sigma=0.3),
            n_iter=100,
            replicas=3,
            initial_state=lambda rng: rng.uniform(-1, 1, size=(2, 1)),
        )
        result = run(config)
        assert len(result.final_states) == 3
        assert not np.array_equal(result.final_states[0], result.final_states[1])
        again = run(config, [1])
        assert np.array_equal(again.final_states[0], result.final_states[1])

    @staticmethod
    def spoiling_config(iteration, **kwargs):
        """Two-agent noisy config whose oracle gives agent 2 a NaN
        observation at ``iteration`` (never when it is None)."""
        centers = np.array([[0.0], [4.0]])
        calls = []

        def oracle(theta, noise):
            calls.append(None)
            y = centers - theta + 0.3 * noise
            if len(calls) == iteration:
                y[:, 1] = np.nan
            return y

        problem = Problem(dim=1, n_agents=2, gradient=lambda th: th - centers, oracle=oracle)
        return two_agent_config(problem=problem, **kwargs)

    @pytest.mark.parametrize(
        "n_iter,record_every", [(25, 10), (30, 10), (5, 10), (1, 1), (7, 1)]
    )
    def test_records_every_k_and_final(self, n_iter, record_every):
        schedule = dict(n_iter=n_iter, record_every=record_every)
        result = run(self.spoiling_config(None, **schedule))
        records = result.records[0]
        multiples = list(range(record_every, n_iter + 1, record_every))
        assert records["n"].tolist() == sorted({*multiples, n_iter})
        assert len(records) == math.ceil(n_iter / record_every)
        # Aborting at the last iteration keeps every earlier row, bit for bit.
        with pytest.raises(NonFiniteObservationError) as info:
            run(self.spoiling_config(n_iter, **schedule))
        prefix = info.value.records
        assert len(prefix) == len(records) - 1
        assert prefix.dtype == records.dtype
        assert prefix.tobytes() == records[: len(prefix)].tobytes()

    def test_divergence_guard_carries_partial_trace(self):
        # Concave utility turns the update into an expanding map.
        centers = np.array([[0.0], [0.0]])
        problem = Problem(dim=1, n_agents=2, gradient=lambda th: -th, noise_scale=0.0)
        config = RunConfig(
            problem=problem,
            gossip=GossipModel(Graph.from_edges(2, [(1, 2)])),
            schedule=StepSchedule(gamma0=2.0, xi=0.75),
            initial_state=np.ones((2, 1)),
            n_iter=10**6,
            seed=3,
            record_every=50,
        )
        with pytest.raises(DivergenceError) as info:
            run(config)
        assert info.value.iteration is not None
        assert len(info.value.records) > 0  # partial trace survives

    def test_constrained_blocks_stay_feasible(self):
        cs = Box([0.0, 0.0], [1.0, 1.0])
        centers = np.array([[1.3, 0.3], [1.7, 0.7], [1.5, 0.4], [1.5, 0.6]])
        problem = quadratic_problem(centers, sigma=0.2, constraint=cs)
        graph = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        config = RunConfig(
            problem=problem,
            gossip=GossipModel(graph),
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=np.full((4, 2), 0.5),
            n_iter=500,
            seed=4,
            record_every=25,
        )
        result = run(config)
        for block in result.final_states[0]:
            assert cs.contains(block)
        assert result.records[0, -1].residual >= 0.0

    def test_infeasible_initial_state_rejected(self):
        cs = Box([0.0], [1.0])
        problem = quadratic_problem([[0.5], [0.5]], constraint=cs)
        with pytest.raises(ValueError, match="infeasible"):
            two_agent_config(problem=problem, initial_state=np.full((2, 1), 2.0))

    def test_start_past_the_squared_range_rejected(self):
        # The tolerance of a block whose square overflows stays finite.
        problem = quadratic_problem([[0.5], [0.5]], constraint=Box([0.0], [1.0]))
        with pytest.raises(ValueError, match="initial block of agent 2 is infeasible"):
            two_agent_config(problem=problem, initial_state=np.array([[0.5], [1e160]]))


def preset_config(name, *overrides):
    return build_run_config(spec_from_dict(apply_overrides(preset_dict(name), overrides)))


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.n, a.gamma, a.disagreement) == (b.n, b.gamma, b.disagreement)
        assert np.array_equal(a.average, b.average)
        assert np.array_equal([a.residual, a.objective], [b.residual, b.objective], equal_nan=True)


def assert_same_result(got, i, want, j):
    """Row ``i`` of the batch result ``got`` equals row ``j`` of ``want``."""
    assert got.replicas[i] == want.replicas[j]
    assert np.array_equal(got.initial_states[i], want.initial_states[j])
    assert np.array_equal(got.final_states[i], want.final_states[j])
    assert_same_records(got.records[i], want.records[j])


class TestBatch:
    """A batch advances replicas together; each equals its solo run exactly."""

    @pytest.mark.parametrize(
        "name,overrides",
        [
            # Exchange probability 0.6 * n**-0.2: lazy steps draw one
            # uniform, exchanges two.
            ("quadratic-consensus", ("laziness.c=0.6", "laziness.eta=0.2")),
            ("constrained-toy", ("run.record_every=7",)),
            ("power-alloc", ("problem.power.mc_trials=20", "run.record_every=25")),
        ],
    )
    def test_replica_equals_its_solo_run_bitwise(self, name, overrides):
        config = preset_config(name, "run.n_iter=150", "run.replicas=3", *overrides)
        batch = run(config, range(3))
        assert batch.replicas == (0, 1, 2)
        for r in range(3):
            assert_same_result(batch, r, run(config, [r]), 0)

    def test_runs_every_replica_of_the_config_by_default(self):
        config = preset_config("quadratic-consensus", "run.n_iter=100", "run.replicas=3")
        default = run(config)
        explicit = run(config, range(config.replicas))
        assert default.replicas == (0, 1, 2)
        for r in range(3):
            assert_same_result(default, r, explicit, r)

    def test_any_replica_selection_in_any_order(self):
        config = preset_config("quadratic-consensus", "run.n_iter=100")
        picked = run(config, [5, 2])
        assert picked.replicas == (5, 2)
        assert_same_result(picked, 0, run(config, [5]), 0)
        assert_same_result(picked, 1, run(config), 2)

    def test_one_oracle_call_per_iteration_on_the_whole_batch(self):
        # Each call gets the (replicas, n_agents, dim) batch and that
        # iteration's noise; replica r's noise over the run is the rows of
        # one sequential draw from its observation stream, across blocks.
        calls = []

        def oracle(theta, noise):
            calls.append((theta.shape, noise.copy()))
            return -theta

        problem = Problem(dim=2, n_agents=4, gradient=None, oracle=oracle)
        n_iter = 2 * core.NOISE_BLOCK_STEPS + 5
        config = RunConfig(
            problem=problem,
            gossip=GossipModel(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])),
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=np.ones((4, 2)),
            n_iter=n_iter,
            seed=3,
        )
        run(config, [4, 0, 7])
        assert len(calls) == n_iter
        assert all(shape == (3, 4, 2) for shape, _ in calls)
        received = np.stack([noise for _, noise in calls], axis=1)
        for position, r in enumerate((4, 0, 7)):
            sequential = problem.draw(_stream(3, r, _OBSERVATION), (n_iter,))
            assert np.array_equal(received[position], sequential)

    def test_rejects_an_empty_or_negative_selection(self):
        config = two_agent_config()
        for replicas in ([], [0, -1]):
            with pytest.raises(ValueError, match="replicas"):
                run(config, replicas)

    @staticmethod
    def counting_config(bad, n_replicas=3):
        """Custom-oracle batch whose ``bad(iteration, position, y)`` may spoil
        an observation; the oracle visits the replicas in order."""
        calls = []

        def oracle(theta, noise):
            observations = np.empty_like(theta)
            for y, state, z in zip(observations, theta, noise):
                iteration, position = divmod(len(calls), n_replicas)
                calls.append(None)
                y[...] = -state + 0.5 * z
                bad(iteration + 1, position, y)
            return observations

        problem = Problem(dim=1, n_agents=4, gradient=None, oracle=oracle)
        graph = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        return RunConfig(
            problem=problem,
            gossip=GossipModel(graph),
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=np.ones((4, 1)),
            n_iter=6,
            record_every=1,
            replicas=n_replicas,
        )

    def test_nonfinite_observation_names_replica_agent_and_its_records(self):
        def spoil(iteration, position, y):
            if (iteration, position) == (4, 2):
                y[2, 0] = np.nan

        clean = run(self.counting_config(lambda *args: None))
        with pytest.raises(NonFiniteObservationError) as info:
            run(self.counting_config(spoil))
        err = info.value
        assert (err.agent, err.replica, err.iteration) == (3, 2, 4)
        assert "non-finite observation for agent 3 in replica 2" in str(err)
        assert [rec.n for rec in err.records] == [1, 2, 3]
        for got, want in zip(err.records, clean.records[2]):
            assert np.array_equal(got.average, want.average)
            assert got.disagreement == want.disagreement

    def test_divergence_names_the_first_failing_replica(self):
        # Replicas 1 and 2 blow up at iteration 3, replica 0 never does.
        def spoil(iteration, position, y):
            if iteration == 3 and position >= 1:
                y[:] = 1e13

        with pytest.raises(DivergenceError) as info:
            run(self.counting_config(spoil))
        err = info.value
        assert (err.replica, err.iteration) == (1, 3)
        assert str(err) == "stacked state norm exceeded 1e+12 at iteration 3 in replica 1"
        assert [rec.n for rec in err.records] == [1, 2]


class TestNoiseBlocks:
    """``run`` draws observation noise a block of iterations at a time; the
    blocking changes no bit of any output."""

    @pytest.mark.parametrize(
        "name,overrides",
        [
            ("quadratic-consensus", ("run.replicas=2",)),
            ("power-alloc", ("problem.power.mc_trials=20",)),
        ],
    )
    def test_short_run_records_the_first_rows_of_a_long_one(self, name, overrides):
        # K + 3 iterations end in a 3-step block, 3K + 1 in full blocks and a
        # 1-step one; recording every iteration compares every state.
        k = core.NOISE_BLOCK_STEPS
        short, long = (
            run(preset_config(name, f"run.n_iter={n}", "run.record_every=1", *overrides))
            for n in (k + 3, 3 * k + 1)
        )
        assert len(short.records) == len(long.records)
        for a, b in zip(short.records, long.records):
            assert len(a) == k + 3
            assert a.tobytes() == b[: k + 3].tobytes()

    def test_byte_cap_shortens_the_block_without_changing_a_bit(self, monkeypatch):
        config = preset_config("quadratic-consensus", "run.n_iter=152", "run.replicas=3")
        want = run(config)
        leads = []
        draw = config.problem.draw

        def spy(rng, lead):
            leads.append(lead)
            return draw(rng, lead)

        # Room for 5 iterations of the batch's noise, and not quite 6.
        step_bytes = 3 * math.prod(config.problem.noise_shape) * 8
        monkeypatch.setattr(core, "BLOCK_BYTES", 6 * step_bytes - 1)
        monkeypatch.setattr(config.problem, "draw", spy)
        spies = spy_on_gossip_streams(monkeypatch)
        got = run(config)
        assert leads == [(5,)] * 3 * 30 + [(2,)] * 3
        # The gossip refills are held to the same budget: 47 numbers for
        # each of the 3 replicas fit in it, and 48 would not.
        refill = (6 * step_bytes - 1) // (3 * 8)
        assert refill == 47
        for spy in spies.values():
            assert spy.calls and all(call == ((refill,), {}) for call in spy.calls)
        for r in range(3):
            assert_same_result(got, r, want, r)

    # Exchange probability 0.6 * n**-0.2: the replicas take different
    # numbers of gossip uniforms, one per lazy step and two per exchange.
    LAZY = ("laziness.c=0.6", "laziness.eta=0.2", "run.replicas=3", "run.n_iter=150")

    @pytest.mark.parametrize("steps", [1, 3])
    def test_gossip_refill_size_changes_no_bit(self, monkeypatch, steps):
        config = preset_config("quadratic-consensus", *self.LAZY)
        want = run(config)
        monkeypatch.setattr(core, "NOISE_BLOCK_STEPS", steps)
        got = run(config)
        for a, b in zip(got.final_states, want.final_states):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(got.records, want.records):
            assert a.tobytes() == b.tobytes()

    def test_gossip_uniforms_are_drawn_in_blocks(self, monkeypatch):
        # Each refill is one ``random(size)`` call, made only when the
        # previous block is spent: ceil(used / size) calls per replica.
        config = preset_config("quadratic-consensus", *self.LAZY)
        spies = spy_on_gossip_streams(monkeypatch)
        run(config)
        size = core.NOISE_BLOCK_STEPS
        for r, spy in spies.items():
            counter = CountingRng(_stream(config.seed, r, _GOSSIP))
            for n in range(1, config.n_iter + 1):
                sample_gossip(config.gossip, config.gossip.activation_probability(n), counter)
            assert config.n_iter < counter.used < 2 * config.n_iter
            assert spy.calls == [((size,), {})] * -(-counter.used // size)


class SpyGenerator:
    """Wraps a generator and logs the arguments of each ``random`` call."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def random(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return self.rng.random(*args, **kwargs)


class CountingRng:
    """Wraps a generator and counts the scalar uniforms taken from it."""

    def __init__(self, rng):
        self.rng = rng
        self.used = 0

    def random(self):
        self.used += 1
        return self.rng.random()


def spy_on_gossip_streams(monkeypatch):
    """Wrap every gossip stream ``run`` builds in a :class:`SpyGenerator`;
    returns the spies by replica, filled as the streams are built."""
    spies = {}
    stream = core._stream

    def spying_stream(seed, replica, role):
        rng = stream(seed, replica, role)
        if role == _GOSSIP:
            rng = spies[replica] = SpyGenerator(rng)
        return rng

    monkeypatch.setattr(core, "_stream", spying_stream)
    return spies


class TestUniformBlocks:
    """The gossip source hands out its generator's scalar draws in order."""

    @pytest.mark.parametrize("size", [1, 3, 64])
    def test_yields_the_scalar_draws_of_its_generator(self, size):
        # Three full refills and one number of a fourth.
        count = 3 * size + 1
        source = _UniformBlocks(np.random.default_rng(5), size)
        scalars = np.random.default_rng(5)
        assert [source.random() for _ in range(count)] == [scalars.random() for _ in range(count)]

    def test_sample_gossip_draws_the_same_matrices_from_either(self):
        model = GossipModel(
            Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
            activation_scale=0.6,
            activation_decay=0.2,
        )
        source = _UniformBlocks(np.random.default_rng(9), 64)
        rng = np.random.default_rng(9)
        lazy = 0
        for n in range(1, 1001):
            p = model.activation_probability(n)
            drawn = sample_gossip(model, p, source)
            assert drawn is sample_gossip(model, p, rng)
            lazy += drawn is model._alphabet[0]
        assert 0 < lazy < 1000


class TestAverageInvariant:
    """With unit Hessians the network average's recursion has no graph term,
    and a replica's observation noise does not depend on the graph or the
    laziness: gossip may reorder rounding but never moves the average."""

    def test_graph_and_laziness_leave_the_recorded_average_unmoved(self):
        # The bound is fixed in advance, about 700 times the largest
        # difference measured at this size.
        variants = [
            (),
            ("laziness.c=0.7", "laziness.eta=0.1"),
            ("graph.edges=[[1,2],[2,3],[3,4]]", "laziness.c=0.5", "laziness.eta=0.2"),
        ]
        averages = [
            np.stack(
                [
                    trace["average"]
                    for trace in run(
                        preset_config(
                            "quadratic-consensus", "run.n_iter=3000", "run.replicas=3", *extra
                        )
                    ).records
                ]
            )
            for extra in variants
        ]
        for other in averages[1:]:
            assert other.shape == averages[0].shape
            assert np.max(np.abs(other - averages[0])) <= 1e-13


class TestShapeChecks:
    """A custom oracle or draw of the wrong shape is refused, not broadcast."""

    @pytest.mark.parametrize("engine", [run, run_ensemble])
    def test_observation_of_the_wrong_shape_is_refused(self, engine):
        # One (n_agents, dim) observation would reach all three replicas.
        problem = Problem(dim=1, n_agents=2, gradient=None, oracle=lambda theta, noise: -theta[0])
        config = two_agent_config(problem=problem, replicas=3)
        expected = r"oracle returned shape \(2, 1\), expected the batch's \(3, 2, 1\)"
        with pytest.raises(ValueError, match=expected):
            engine(config)

    @pytest.mark.parametrize("engine,lead", [(run, (10,)), (run_ensemble, (3,))])
    def test_noise_of_the_wrong_shape_is_refused(self, engine, lead):
        centers = np.array([[0.0], [4.0]])
        problem = Problem(
            dim=1,
            n_agents=2,
            gradient=lambda th: th - centers,
            noise_scale=0.3,
            draw=lambda rng, lead: rng.standard_normal((2, 1)),
        )
        config = two_agent_config(problem=problem, replicas=3)
        expected = rf"draw returned noise of shape \(2, 1\), expected \({lead[0]}, 2, 1\)"
        with pytest.raises(ValueError, match=expected):
            engine(config)


def literal_make_record(n, gamma, theta, evaluate, diag_rng):
    """One replica's record from its ``(n_agents, dim)`` state, as ``run``
    made it before records were batched: ``evaluate`` is a per-point hook
    ``(average, rng) -> (residual, objective)``.  The fields come in file
    order."""
    average = theta.mean(axis=0)
    residual, objective = evaluate(average, diag_rng)
    return n, gamma, disagreement_norm(theta), float(residual), float(objective), average


def literal_hook(name, problem):
    """The per-point residual and objective of a preset, written out."""
    spec = spec_from_dict(preset_dict(name)).problem
    if name == "power-alloc":
        power = dict(spec.power)
        trials = power.pop("mc_trials")
        scenario = PowerScenario(n_users=problem.n_agents, **power)

        def evaluate(average, rng):
            # One sample gives both columns.
            estimate = estimate_objective(scenario, average, trials, rng)
            step = problem.constraint.project(average + estimate.ascent) - average
            return np.linalg.norm(step), estimate.value

        return evaluate
    centers = np.asarray(spec.centers, dtype=float)

    def evaluate(average, rng):
        grad = np.sum([average - c for c in centers], axis=0)
        if isinstance(problem.constraint, Unconstrained):
            residual = np.linalg.norm(grad)
        else:
            residual = np.linalg.norm(problem.constraint.project(average - grad) - average)
        return residual, 0.5 * np.sum((average - centers) ** 2)

    return evaluate


class TestBatchedRecords:
    """One record call per block of record steps gives every replica its own
    records, each evaluated from the state at its own step."""

    @staticmethod
    def capture_records(monkeypatch, calls):
        """Wrap ``_make_record`` so that each call appends ``(ns, gammas,
        theta_block copy, diag_rngs)`` to ``calls``."""
        make_record = core._make_record

        def capture(theta_block, problem, diag_rngs, out):
            # Every replica of a record step shares its n and gamma.
            ns, gammas = out["n"][0].tolist(), out["gamma"][0].tolist()
            calls.append((ns, gammas, theta_block.copy(), diag_rngs))
            return make_record(theta_block, problem, diag_rngs, out)

        monkeypatch.setattr(core, "_make_record", capture)

    @pytest.mark.parametrize(
        "name,overrides",
        [
            ("quadratic-consensus", ()),
            ("quadratic-consensus", ("laziness.c=0.6", "laziness.eta=0.2")),
            ("constrained-toy", ()),
            ("power-alloc", ()),
            # 22 records: five full blocks and a partial last one.
            ("power-alloc", ("run.record_every=7",)),
        ],
    )
    def test_records_equal_the_per_replica_reference_bitwise(self, monkeypatch, name, overrides):
        config = preset_config(name, "run.n_iter=150", *overrides)
        calls = []
        self.capture_records(monkeypatch, calls)
        result = run(config, range(3))
        states = [
            (n, g, block[:, j])
            for ns, gammas, block, _ in calls
            for j, (n, g) in enumerate(zip(ns, gammas))
        ]
        ns = [n for n in range(1, 151) if n % config.record_every == 0 or n == 150]
        assert [n for n, _, _ in states] == ns
        assert all(len(ns) <= core.RECORD_BLOCK for ns, _, _, _ in calls)
        hook = literal_hook(name, config.problem)
        for r, records in enumerate(result.records):
            diag_rng = _stream(config.seed, r, _DIAGNOSTICS)
            rows = [literal_make_record(n, g, theta[r], hook, diag_rng) for n, g, theta in states]
            assert_same_records(records, np.rec.array(rows, dtype=records.dtype))

    def test_power_record_draws_one_sample_per_replica(self, monkeypatch):
        # After a run, every diagnostics stream has made exactly one draw of
        # ``mc_trials`` channel sets per record: one record for a
        # one-iteration run, six (a full block and a partial one) for 23
        # iterations recorded every 4.
        spec = spec_from_dict(preset_dict("power-alloc")).problem
        power = dict(spec.power)
        trials = power.pop("mc_trials")
        calls = []
        self.capture_records(monkeypatch, calls)
        for overrides, n_records in (
            (("run.n_iter=1",), 1),
            (("run.n_iter=23", "run.record_every=4"), 6),
        ):
            config = preset_config("power-alloc", *overrides)
            calls.clear()
            result = run(config, range(2))
            assert len(result.records[0]) == n_records
            diag_rngs = calls[0][3]
            assert all(rngs is diag_rngs for _, _, _, rngs in calls)
            scenario = PowerScenario(n_users=config.problem.n_agents, **power)
            for r, got in enumerate(diag_rngs):
                fresh = _stream(config.seed, r, _DIAGNOSTICS)
                for _ in range(n_records):
                    scenario.draw(fresh, (trials,))
                assert got.bit_generator.state == fresh.bit_generator.state

    def test_abort_inside_a_block_keeps_its_records_evaluated(self):
        # Records fall every 7 steps and blocks end at steps 28 and 56.  A NaN
        # observation at step 45 aborts with records 1-6 filled, the last two
        # still pending: they are evaluated before the abort is raised.
        overrides = ("run.n_iter=100", "run.replicas=3", "run.record_every=7")
        clean = run(preset_config("power-alloc", *overrides))
        config = preset_config("power-alloc", *overrides)
        oracle, calls = config.problem.oracle, []

        def spoiled(theta, noise):
            calls.append(None)
            y = oracle(theta, noise)
            if len(calls) == 45:
                y[1, 2, 0] = np.nan
            return y

        config.problem.oracle = spoiled
        with pytest.raises(NonFiniteObservationError) as info:
            run(config)
        err = info.value
        assert (err.replica, err.agent, err.iteration) == (1, 3, 45)
        assert err.records["n"].tolist() == [7, 14, 21, 28, 35, 42]
        assert err.records.tobytes() == clean.records[1, :6].tobytes()
        assert np.isfinite(err.records["residual"]).all()
        assert np.isfinite(err.records["objective"]).all()

    def test_power_blocks_past_the_sample_cap_split_alike(self, monkeypatch):
        # 15 records per replica: three full blocks and one of three points,
        # one estimate call per replica per block.  With a budget of two
        # points' sample the points go two to a call, and with one below a
        # single point's sample every point gets its own call; either way
        # the records keep every bit.
        overrides = ("run.n_iter=100", "run.replicas=2", "run.record_every=7")
        shapes = []
        estimate = power.estimate_objective

        def counted(scenario, theta, mc_trials, rng):
            shapes.append(np.shape(theta)[:-1])
            return estimate(scenario, theta, mc_trials, rng)

        monkeypatch.setattr(power, "estimate_objective", counted)
        config = preset_config("power-alloc", *overrides)
        whole = run(config)
        assert shapes == [(4,)] * 6 + [(3,)] * 2
        mc_trials = preset_dict("power-alloc")["problem"]["power"]["mc_trials"]
        point_bytes = mc_trials * math.prod(config.problem.noise_shape) * 8
        for budget, want in ((2 * point_bytes, [(2,)] * 12 + [(2,), (1,)] * 2), (1, [(1,)] * 30)):
            shapes.clear()
            monkeypatch.setattr(core, "BLOCK_BYTES", budget)
            split = run(preset_config("power-alloc", *overrides))
            assert shapes == want
            for a, b in zip(whole.records, split.records):
                assert a.tobytes() == b.tobytes()

    def test_missing_hooks_record_nan(self):
        problem = Problem(dim=1, n_agents=2, gradient=None, oracle=lambda theta, noise: -theta)
        result = run(two_agent_config(problem=problem, n_iter=3, record_every=1))
        for record in result.records[0]:
            assert np.isnan(record.residual) and np.isnan(record.objective)

    def test_negative_residual_from_the_hook_is_rejected(self):
        def evaluate(averages, rngs):
            return np.full(len(averages), -1.0), np.zeros(len(averages))

        problem = Problem(
            dim=1, n_agents=2, gradient=None, oracle=lambda theta, noise: -theta, evaluate=evaluate
        )
        with pytest.raises(ValueError, match="negative residual"):
            run(two_agent_config(problem=problem, n_iter=3, record_every=1))

    def test_nan_residual_from_the_hook_is_recorded(self):
        def evaluate(averages, rngs):
            return np.full(len(averages), np.nan), np.zeros(len(averages))

        problem = Problem(
            dim=1, n_agents=2, gradient=None, oracle=lambda theta, noise: -theta, evaluate=evaluate
        )
        result = run(two_agent_config(problem=problem, n_iter=3, record_every=1))
        assert np.isnan(result.records[0]["residual"]).all()


class TestOracle:
    def test_unbiasedness_per_agent(self):
        sigma = 0.5
        centers = np.array([[1.0, -1.0], [0.5, 2.0]])
        problem = quadratic_problem(centers, sigma=sigma)
        theta = np.array([[0.2, 0.1], [-0.4, 0.6]])
        rng = np.random.default_rng(5)
        draws = 10**5
        batch = problem.oracle(np.broadcast_to(theta, (draws, 2, 2)), problem.draw(rng, (draws,)))
        bound = 4.0 * sigma / np.sqrt(draws)
        for i in range(2):
            expected = -(theta[i] - centers[i])
            err = np.linalg.norm(batch[:, i, :].mean(axis=0) - expected)
            assert err <= bound

    def test_stacked_oracle_equals_per_agent_literal(self):
        sigma = 0.3
        rng = np.random.default_rng(12)
        centers = rng.normal(size=(4, 3))
        problem = quadratic_problem(centers, sigma=sigma)
        for shape in [(4, 3), (7, 4, 3)]:
            theta = rng.normal(size=shape) * 5.0
            got = problem.oracle(theta, problem.draw(np.random.default_rng(99), shape[:-2]))
            noise = np.random.default_rng(99).standard_normal(shape)
            drift = np.stack([-(theta[..., i, :] - centers[i]) for i in range(4)], axis=-2)
            assert np.array_equal(got, drift + sigma * noise)

    def test_one_gradient_call_per_draw(self):
        centers = np.array([[1.0], [2.0], [3.0]])
        shapes = []

        def gradient(theta):
            shapes.append(theta.shape)
            return theta - centers

        problem = Problem(dim=1, n_agents=3, gradient=gradient, noise_scale=0.1)
        problem.oracle(np.zeros((3, 1)), np.zeros((3, 1)))
        problem.oracle(np.zeros((5, 3, 1)), np.zeros((5, 3, 1)))
        assert shapes == [(3, 1), (5, 3, 1)]

    def test_mean_gradient_equals_per_agent_sum(self):
        rng = np.random.default_rng(13)
        centers = rng.normal(size=(5, 3))
        problem = quadratic_problem(centers)
        for _ in range(20):
            average = rng.normal(size=3) * 10.0
            literal = np.sum([average - c for c in centers], axis=0)
            assert np.array_equal(problem.mean_gradient(average), literal)

    def test_needs_oracle_or_gradient(self):
        with pytest.raises(ValueError, match="oracle or a gradient"):
            Problem(dim=1, n_agents=2, gradient=None)


class TestValidateAssumptions:
    def test_reference_configuration_passes(self):
        config = two_agent_config(schedule=StepSchedule(gamma0=0.5, xi=0.75))
        report = validate_assumptions(config)
        assert report.ok
        assert {c.name for c in report.checks} >= {
            "step_exponent",
            "laziness_vs_step",
            "connectivity",
        }

    def test_clt_step_scale_failure(self):
        problem = quadratic_problem([[0.0], [0.0]], sigma=1.0, clt=True)
        config = two_agent_config(problem=problem, schedule=StepSchedule(1.0, 1.0))
        assert validate_assumptions(config).ok  # 2 * 1 * 1 > 1
        config = two_agent_config(problem=problem, schedule=StepSchedule(0.4, 1.0))
        report = validate_assumptions(config)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"clt_step_scale"}
        assert "2*L*gamma0" in report.format()

    def test_laziness_sufficient_condition(self):
        gossip = GossipModel(Graph.from_edges(2, [(1, 2)]), activation_decay=0.3)
        config = two_agent_config(gossip=gossip, schedule=StepSchedule(0.5, 0.6))
        report = validate_assumptions(config)
        assert {c.name for c in report.checks if not c.passed} == {"laziness_vs_step"}

    def test_small_step_exponent_fails(self):
        # xi = 0.4 also sinks the laziness comparison (eta = 0 >= xi - 1/2 < 0).
        config = two_agent_config(schedule=StepSchedule(0.5, 0.4))
        report = validate_assumptions(config)
        assert "step_exponent" in {c.name for c in report.checks if not c.passed}
        assert not report.ok

    def test_disconnected_graph_fails_and_blocks_run(self):
        graph = Graph.from_edges(4, [(1, 2), (3, 4)])
        centers = np.zeros((4, 1))
        problem = quadratic_problem(centers)
        config = RunConfig(
            problem=problem,
            gossip=GossipModel(graph),
            schedule=StepSchedule(0.5, 0.75),
            initial_state=np.zeros((4, 1)),
            n_iter=5,
            seed=0,
        )
        report = validate_assumptions(config)
        assert {c.name for c in report.checks if not c.passed} == {"connectivity"}
        with pytest.raises(AssumptionError):
            run(config)
        config.override_checks = True
        run(config)  # explicit override executes


class TestRunEnsemble:
    def test_matches_sequential_run_without_randomness(self):
        # Zero noise and a single always-active edge make dynamics deterministic.
        centers = np.array([[0.0], [4.0]])
        problem = quadratic_problem(centers)
        config = RunConfig(
            problem=problem,
            gossip=GossipModel(Graph.from_edges(2, [(1, 2)])),
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=np.array([[1.0], [2.0]]),
            n_iter=100,
            seed=6,
            replicas=3,
        )
        finals = run_ensemble(config)
        sequential = run(config)
        assert sequential.replicas == (0, 1, 2)
        for r, final in enumerate(sequential.final_states):
            assert np.array_equal(finals[r], final)

    def test_statistics_match_sequential(self):
        centers = np.zeros((2, 1))
        problem = quadratic_problem(centers, sigma=1.0)
        config = RunConfig(
            problem=problem,
            gossip=GossipModel(Graph.from_edges(2, [(1, 2)])),
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=np.zeros((2, 1)),
            n_iter=400,
            seed=7,
            replicas=400,
            record_every=400,
        )
        finals = run_ensemble(config)
        ens_var = float(np.mean(finals.mean(axis=1) ** 2))
        seq = list(run(config, range(150)).final_states)
        seq_var = float(np.mean(np.asarray(seq).mean(axis=1) ** 2))
        assert ens_var == pytest.approx(seq_var, rel=0.4)

    def test_constrained_problems_unsupported(self):
        problem = quadratic_problem([[0.5], [0.5]], constraint=Box([0.0], [1.0]))
        config = two_agent_config(problem=problem, initial_state=np.full((2, 1), 0.5))
        with pytest.raises(NotImplementedError):
            run_ensemble(config)

    def test_deterministic(self):
        problem = quadratic_problem([[0.0], [0.0]], sigma=1.0)
        config = two_agent_config(problem=problem, n_iter=50, replicas=8)
        assert np.array_equal(run_ensemble(config), run_ensemble(config))

    FIVE_EDGES = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    SHAPES = {
        "lazy": (4, FIVE_EDGES, 1, 0.6, 0.2, 64, 300),
        "always-active": (4, FIVE_EDGES, 1, 1.0, 0.0, 64, 300),
        "d2": (4, FIVE_EDGES, 2, 0.8, 0.1, 64, 300),
        "two-agents": (2, [(1, 2)], 1, 0.5, 0.0, 64, 300),
        # The shape of the clt-ensemble benchmark, briefly.
        "benchmark-shape": (4, FIVE_EDGES, 1, 1.0, 0.0, 4000, 30),
    }

    # Each shape through each source; the benchmark shape also at the real
    # size rule, under its old name.
    @pytest.mark.parametrize(
        "shape,source",
        [pytest.param(shape, "inline", id=shape) for shape in SHAPES if shape != "benchmark-shape"]
        + [pytest.param("benchmark-shape", "real", id="benchmark-shape")]
        + [pytest.param("benchmark-shape", "inline", id="benchmark-shape-inline")]
        + [pytest.param(shape, "worker", id=f"{shape}-worker") for shape in SHAPES],
    )
    def test_matches_literal_loop_bitwise(self, shape, source, monkeypatch):
        n_agents, edges, dim, c, eta, replicas, n_iter = self.SHAPES[shape]
        force_draw_source(monkeypatch, source)
        rng = np.random.default_rng(14)
        weights = rng.uniform(0.2, 2.0, size=len(edges))
        config = RunConfig(
            problem=quadratic_problem(rng.normal(size=(n_agents, dim)), sigma=0.5),
            gossip=GossipModel(
                Graph.from_edges(n_agents, edges, weights),
                activation_scale=c,
                activation_decay=eta,
            ),
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=lambda r: r.uniform(-1.0, 1.0, size=(n_agents, dim)),
            n_iter=n_iter,
            seed=15,
            replicas=replicas,
        )
        assert np.array_equal(run_ensemble(config), literal_run_ensemble(config))

    def test_oracle_output_not_mutated(self):
        # Neither the engine nor the default oracle writes to its input
        # noise, and the engine leaves the oracle's output alone.
        problem = quadratic_problem([[0.0], [1.0]], sigma=1.0)
        returned = []

        def oracle(theta, noise):
            y = problem._gaussian_oracle(theta, noise)
            returned.append((noise, noise.copy(), y, y.copy()))
            return y

        problem.oracle = oracle
        run_ensemble(two_agent_config(problem=problem, n_iter=20, replicas=5))
        assert len(returned) == 20
        for noise, noise_copy, y, copy in returned:
            assert np.array_equal(noise, noise_copy)
            assert np.array_equal(y, copy)

    def test_nonfinite_observation_names_replica_and_agent(self):
        calls = []

        def oracle(theta, noise):
            calls.append(None)
            y = np.zeros_like(theta)
            if len(calls) == 2:
                y[2, 2, 0] = np.inf
                y[3, 0, 0] = np.nan
            return y

        problem = Problem(dim=1, n_agents=4, gradient=None, oracle=oracle)
        graph = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        config = RunConfig(
            problem=problem,
            gossip=GossipModel(graph),
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=np.zeros((4, 1)),
            n_iter=5,
            replicas=5,
        )
        with pytest.raises(NonFiniteObservationError) as info:
            run_ensemble(config)
        assert info.value.agent == 3
        assert info.value.iteration == 2
        assert "agent 3 in replica 2" in str(info.value)

    def test_steps_by_the_schedule(self):
        # gamma0 * 14**-0.75 differs in the last bit between scalar and array
        # powers; both engines must take the step of StepSchedule.gamma.
        def oracle(theta, noise):
            calls.append(None)
            return np.full(theta.shape, float(len(calls) == 14))

        problem = Problem(dim=1, n_agents=2, gradient=None, oracle=oracle)
        config = two_agent_config(problem=problem, n_iter=20)
        calls = []
        finals = run_ensemble(config)
        calls = []
        sequential = run(config)
        assert sequential.final_states[0, 0, 0] == config.schedule.gamma(14)
        assert np.array_equal(finals[0], sequential.final_states[0])

    def test_divergence_names_the_first_failing_replica(self):
        # Replicas 1 and 2 blow up at iteration 3, replica 0 never does.
        calls = []

        def oracle(theta, noise):
            calls.append(None)
            y = -theta
            if len(calls) == 3:
                y[1:] = 1e13
            return y

        problem = Problem(dim=1, n_agents=4, gradient=None, oracle=oracle)
        graph = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        config = RunConfig(
            problem=problem,
            gossip=GossipModel(graph),
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=np.ones((4, 1)),
            n_iter=6,
            replicas=3,
        )
        with pytest.raises(DivergenceError) as info:
            run_ensemble(config)
        err = info.value
        assert (err.replica, err.iteration, err.records) == (1, 3, ())
        assert str(err) == "stacked state norm exceeded 1e+12 at iteration 3 in replica 1"


class TestEnsembleGuard:
    """:func:`run_ensemble` guards the state once, after the step; the
    observations are checked only when that guard finds a divergent replica."""

    @staticmethod
    def config(oracle, **kwargs):
        problem = Problem(dim=1, n_agents=4, gradient=None, oracle=oracle)
        defaults = dict(
            problem=problem,
            gossip=GossipModel(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])),
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=np.zeros((4, 1)),
            n_iter=5,
            replicas=4,
        )
        defaults.update(kwargs)
        return RunConfig(**defaults)

    def test_nonfinite_observation_named_before_an_overflow_in_its_step(self):
        # At iteration 3 replica 0's step overflows to inf and replica 2
        # observes NaN: the observation is named, not the divergence.
        calls = []

        def oracle(theta, noise):
            calls.append(None)
            y = np.zeros_like(theta)
            if len(calls) == 3:
                y[0] = 1e308
                y[2, 1, 0] = np.nan
            return y

        config = self.config(oracle, schedule=StepSchedule(gamma0=10.0, xi=0.75))
        with pytest.raises(NonFiniteObservationError) as info:
            run_ensemble(config)
        err = info.value
        assert (err.replica, err.agent, err.iteration) == (2, 2, 3)

    def test_nonfinite_observation_under_a_zero_step(self):
        # gamma0 * 2**-1 rounds to 0.0, and 0 * NaN is NaN: the state still
        # carries the NaN, so the abort comes at iteration 2.
        schedule = StepSchedule(gamma0=5e-324, xi=1.0)
        assert schedule.gamma(1) > 0.0 and schedule.gamma(2) == 0.0
        calls = []

        def oracle(theta, noise):
            calls.append(None)
            y = np.zeros_like(theta)
            if len(calls) == 2:
                y[1, 3, 0] = np.nan
            return y

        config = self.config(oracle, schedule=schedule)
        with pytest.raises(NonFiniteObservationError) as info:
            run_ensemble(config)
        err = info.value
        assert (err.replica, err.agent, err.iteration) == (1, 4, 2)

    def test_observation_that_is_the_state_overflows_as_divergence(self):
        # The oracle hands back the state itself, finite when observed; the
        # step doubles it past the largest float.
        config = self.config(
            lambda theta, noise: theta,
            schedule=StepSchedule(gamma0=1.0, xi=1.0),
            initial_state=np.full((4, 1), 1e308),
        )
        with pytest.raises(DivergenceError) as info:
            run_ensemble(config)
        assert (info.value.replica, info.value.iteration) == (0, 1)

    @pytest.mark.parametrize(
        "entry,aborts", [(2.6e11, False), (1e12, False), (np.nextafter(1e12, np.inf), True)]
    )
    def test_screen_boundary(self, entry, aborts):
        # Replica 1's first agent steps to ``entry`` and stays there: every
        # replica is lazy, so its norm is exactly ``entry``.  The screen
        # clears entries up to 1e12 / 2 / sqrt(4) = 2.5e11; past it each
        # norm is taken exactly, and only a norm past 1e12 aborts.
        def oracle(theta, noise):
            y = np.zeros_like(theta)
            y[1, 0, 0] = entry - theta[1, 0, 0]
            return y

        graph = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        config = self.config(
            oracle,
            gossip=GossipModel(graph, activation_scale=1e-300),
            schedule=StepSchedule(gamma0=1.0, xi=1.0),
        )
        if aborts:
            with pytest.raises(DivergenceError) as info:
                run_ensemble(config)
            assert (info.value.replica, info.value.iteration) == (1, 1)
        else:
            finals = run_ensemble(config)
            assert finals[1, 0, 0] == entry
            assert np.count_nonzero(finals) == 1


class TestEnsembleMixer:
    """One step of :func:`run_ensemble` under a zero oracle is pure mixing."""

    @staticmethod
    @st.composite
    def configs(draw):
        n_agents = draw(st.integers(2, 6))
        pairs = [(i, j) for i in range(1, n_agents + 1) for j in range(i + 1, n_agents + 1)]
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        weights = draw(st.lists(st.floats(0.01, 100.0), min_size=len(edges), max_size=len(edges)))
        dim = draw(st.integers(1, 3))
        zero = lambda theta, noise: np.zeros_like(theta)  # noqa: E731
        problem = Problem(dim=dim, n_agents=n_agents, gradient=None, oracle=zero)
        return RunConfig(
            problem=problem,
            gossip=GossipModel(
                Graph.from_edges(n_agents, edges, weights),
                activation_scale=draw(st.just(1e-300) | st.floats(0.01, 2.0)),
            ),
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=lambda rng: rng.normal(size=(n_agents, dim)),
            n_iter=1,
            seed=draw(st.integers(0, 2**32)),
            replicas=draw(st.integers(1, 40)),
            override_checks=True,
        )

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(configs())
    def test_each_replica_averages_one_edge_or_stays(self, config):
        # Initial rows are distinct normal draws, so an exchange changes both
        # rows of its edge, and an unchanged replica is a lazy one.
        before = _initial_batch(config, range(config.replicas))
        after = run_ensemble(config)
        edges = {(i - 1, j - 1) for i, j in config.gossip.graph.edges}
        exchanged = 0
        for old, new in zip(before, after):
            changed = tuple(np.flatnonzero((old != new).any(axis=1)))
            assert disagreement_norm(new) <= disagreement_norm(old)
            if not changed:
                continue
            assert changed in edges
            a, b = old[list(changed)]
            assert np.array_equal(new[list(changed)], [0.5 * (a + b)] * 2)
            assert np.array_equal(new[changed[0]] + new[changed[1]], a + b)
            exchanged += 1
        p = config.gossip.activation_probability(1)
        if p == 1.0:
            assert exchanged == config.replicas
        if p == 1e-300:  # every replica is lazy, and unchanged bit for bit
            assert exchanged == 0


    @pytest.mark.parametrize(
        "c,source",
        [
            pytest.param(c, source, id=f"{c!r}" if source == "inline" else f"{c!r}-worker")
            for source in ("inline", "worker")
            for c in [1e-300, 0.1, 0.5, 0.6, float(np.nextafter(1.0, 0.0))]
        ],
    )
    def test_activation_exchanges_exactly_below_p(self, c, source, monkeypatch):
        # One zero-oracle step on scripted uniforms: a replica whose
        # activation draw is 0 or the float just below p exchanges; one at p
        # or the float just above it stays lazy.
        gossip = GossipModel(Graph.from_edges(2, [(1, 2)]), activation_scale=c)
        p = gossip.activation_probability(1)
        assert p < 1.0
        activation = [0.0, np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)]

        class ScriptedUniforms:
            def standard_normal(self, size):
                return np.zeros(size)

            def random(self, out):
                out[...] = np.r_[activation, np.zeros(len(activation))]
                return out

        monkeypatch.setattr("gossip_sa.core._stream", lambda *args: ScriptedUniforms())
        force_draw_source(monkeypatch, source)
        zero = lambda theta, noise: np.zeros_like(theta)  # noqa: E731
        start = np.array([[0.0], [1.0]])
        config = RunConfig(
            problem=Problem(dim=1, n_agents=2, gradient=None, oracle=zero),
            gossip=gossip,
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=start,
            n_iter=1,
            replicas=len(activation),
            override_checks=True,
        )
        after = run_ensemble(config)
        assert np.array_equal(after, [[[0.5], [0.5]]] * 2 + [start] * 2)


class TestDrawAhead:
    """:func:`run_ensemble`'s worker thread changes nothing a caller sees:
    every failure is the inline loop's, raised at the same step, and no
    thread outlives the call."""

    STEP = 4  # the step at which each scripted failure happens

    @classmethod
    def config(cls, fail=None):
        """Four scalar agents, 16 replicas, 10 steps; ``fail`` names what
        goes wrong at step :attr:`STEP`."""
        draws, observations = [], []

        def draw(rng, lead):
            draws.append(None)
            if len(draws) == cls.STEP and fail == "draw-raises":
                raise RuntimeError(f"draw {cls.STEP} failed")
            if len(draws) == cls.STEP and fail == "draw-shape":
                return rng.standard_normal((*lead, 4, 2))
            return rng.standard_normal((*lead, 4, 1))

        def oracle(theta, noise):
            observations.append(None)
            y = noise - theta
            if len(observations) == cls.STEP:
                if fail == "divergence":
                    y[5:] = 1e13
                elif fail == "non-finite":
                    y[9, 2, 0] = np.nan
                elif fail == "oracle-raises":
                    raise ZeroDivisionError("oracle failed")
                elif fail == "interrupt":
                    raise KeyboardInterrupt
            return y

        problem = Problem(dim=1, n_agents=4, gradient=None, oracle=oracle, draw=draw)
        config = RunConfig(
            problem=problem,
            gossip=GossipModel(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])),
            schedule=StepSchedule(gamma0=0.5, xi=0.75),
            initial_state=np.zeros((4, 1)),
            n_iter=10,
            replicas=16,
        )
        return config, observations

    @classmethod
    def outcome(cls, monkeypatch, source, fail=None):
        """What a run through ``source`` returned or raised, and the oracle
        calls it made; the threads alive are those alive before it."""
        config, observations = cls.config(fail)
        with monkeypatch.context() as patch:
            force_draw_source(patch, source)
            before = threading.enumerate()
            try:
                result = run_ensemble(config)
            except (Exception, KeyboardInterrupt) as err:
                result = err
            assert threading.enumerate() == before
        return result, len(observations)

    def test_normal_end_equals_the_inline_run(self, monkeypatch):
        worker, calls = self.outcome(monkeypatch, "worker")
        inline, _ = self.outcome(monkeypatch, "inline")
        assert calls == 10
        assert np.array_equal(worker, inline)

    @pytest.mark.parametrize(
        "fail",
        ["draw-raises", "draw-shape", "divergence", "non-finite", "oracle-raises", "interrupt"],
    )
    def test_failure_is_the_inline_one_at_its_step(self, monkeypatch, fail):
        worker, worker_calls = self.outcome(monkeypatch, "worker", fail)
        inline, inline_calls = self.outcome(monkeypatch, "inline", fail)
        assert isinstance(inline, BaseException)
        # A failed draw ends the run before its step's oracle call.
        assert inline_calls == self.STEP - fail.startswith("draw")
        assert worker_calls == inline_calls
        fields = ("replica", "iteration", "agent", "records")
        assert type(worker) is type(inline)
        assert str(worker) == str(inline)
        assert [getattr(worker, f, None) for f in fields] == [getattr(inline, f, None) for f in fields]

    def test_draw_that_overflows_emits_no_warning(self, monkeypatch):
        # exp overflows to inf on about half the draws; the noise is then 1.
        def draw(rng, lead):
            return np.minimum(np.exp(1000.0 * rng.standard_normal((*lead, 4, 1))), 1.0)

        config, _ = self.config()
        config.problem.draw = draw
        finals = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for source in ("worker", "inline"):
                with monkeypatch.context() as patch:
                    force_draw_source(patch, source)
                    finals[source] = run_ensemble(config)
        assert np.array_equal(finals["worker"], finals["inline"])


def literal_run_ensemble(config):
    """The ensemble loop as first written, without its guards: two uniform
    draws, a ``searchsorted`` edge pick and 2-D fancy-index mixing of the
    active replicas only.  The reference for bitwise checks of the lean loop."""
    n_replicas = config.replicas
    rng = _stream(config.seed, 0, _ENSEMBLE)
    theta = _initial_batch(config, range(n_replicas))
    edge_i, edge_j, cum = config.gossip._edge_table
    n_edges = cum.size

    for n in range(1, config.n_iter + 1):
        noise = config.problem.draw(rng, (n_replicas,))
        y = np.asarray(config.problem.oracle(theta, noise), dtype=float)
        theta = theta + config.schedule.gamma(n) * y
        active = rng.random(n_replicas) < config.gossip.activation_probability(n)
        draws = rng.random(n_replicas)
        rows = np.flatnonzero(active)
        if rows.size:
            picked = np.minimum(
                np.searchsorted(cum, draws[rows], side="right"), n_edges - 1
            )
            a = edge_i[picked]
            b = edge_j[picked]
            mixed = 0.5 * (theta[rows, a] + theta[rows, b])
            theta[rows, a] = mixed
            theta[rows, b] = mixed
    return theta


class TestDivergenceGuards:
    """A step can overflow to opposite infinities whose average is NaN;
    both guards must still stop the run."""

    def overflowing_config(self, **kwargs):
        def oracle(theta, noise):
            y = np.empty_like(theta)
            y[..., 0, :] = 1e308
            y[..., 1, :] = -1e308
            return y

        problem = Problem(dim=1, n_agents=2, gradient=None, oracle=oracle)
        return two_agent_config(
            problem=problem, schedule=StepSchedule(gamma0=10.0, xi=0.75), **kwargs
        )

    def test_run_aborts_on_nan_state(self):
        with pytest.raises(DivergenceError) as info:
            run(self.overflowing_config())
        assert info.value.iteration == 1

    def test_ensemble_aborts_on_nan_state(self):
        with pytest.raises(DivergenceError) as info:
            run_ensemble(self.overflowing_config(replicas=3))
        assert (info.value.replica, info.value.iteration) == (0, 1)


class TestNonconvexKuhnTucker:
    """Claim (ii) on a nonconvex objective: the network average converges
    to the Kuhn-Tucker set of the summed utility.

    Four agents on a 4-cycle observe ``theta**3 - theta - b_i`` with
    ``sum(b_i) = 0``: the sum is the gradient of a double well, stationary
    at -1, 0 and 1.  In the box [-0.5, 2] the set is {-0.5, 0, 1}, -0.5
    on the boundary.  The size, ``DELTA``, ``FRACTION`` and the windows
    were fixed before the seed; a replica that leaves the unstable point
    late arrives late, so the test asks a fraction, not every replica.
    Each run takes about 0.5 s.
    """

    OFFSETS = np.array([[0.3], [0.1], [-0.1], [-0.3]])
    DELTA = 0.1  # distance of a final network average to a KT point
    FRACTION = 0.9  # of replicas within DELTA of the KT set
    WINDOW = 10  # records per residual window

    def final_averages_and_residuals(self, constraint, low, high):
        problem = Problem(
            dim=1,
            n_agents=4,
            gradient=lambda theta: theta**3 - theta - self.OFFSETS,
            constraint=constraint,
            noise_scale=0.5,
        )
        config = RunConfig(
            problem=problem,
            gossip=GossipModel(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])),
            schedule=StepSchedule(gamma0=0.2, xi=0.75),
            initial_state=lambda rng: rng.uniform(low, high, (4, 1)),
            n_iter=5000,
            seed=0,
            replicas=40,
            record_every=50,
        )
        records = run(config).records
        return records["average"][:, -1, 0], records["residual"]

    def limits(self, finals, kt_points):
        """Replicas within DELTA of each KT point, and the fraction near any."""
        near = np.abs(finals[:, None] - np.asarray(kt_points)) <= self.DELTA
        return near.sum(axis=0), near.any(axis=1).mean()

    def assert_residual_falls(self, residuals):
        first = np.median(residuals[:, : self.WINDOW])
        assert np.median(residuals[:, -self.WINDOW :]) < first

    def test_free_double_well(self):
        finals, residuals = self.final_averages_and_residuals(None, -1.5, 1.5)
        counts, fraction = self.limits(finals, [-1.0, 0.0, 1.0])
        assert fraction >= self.FRACTION
        assert np.count_nonzero(counts) >= 2  # two distinct KT points are limits
        self.assert_residual_falls(residuals)

    def test_boxed_double_well_reaches_the_boundary_point(self):
        finals, residuals = self.final_averages_and_residuals(Box([-0.5], [2.0]), -0.5, 0.5)
        counts, fraction = self.limits(finals, [-0.5, 0.0, 1.0])
        assert fraction >= self.FRACTION
        assert np.count_nonzero(counts) >= 2
        assert counts[0] >= 1  # the boundary point -0.5 is a limit
        self.assert_residual_falls(residuals)
