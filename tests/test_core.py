import numpy as np
import pytest

from gossip_sa import network
from gossip_sa.constraints import Box, BudgetSimplex, Halfspaces, Unconstrained
from gossip_sa.core import (
    _ENSEMBLE,
    AssumptionError,
    DivergenceError,
    NonFiniteObservationError,
    Problem,
    RunConfig,
    SimulationAbort,
    StepSchedule,
    _check_recorded_feasibility,
    _initial_state,
    _stream,
    gossip_step,
    local_step,
    run,
    run_ensemble,
    run_replicas,
    validate_assumptions,
)
from gossip_sa.diagnostics import CltSpec, disagreement_norm, network_average
from gossip_sa.network import Graph, GossipModel, pairwise_matrix


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
    return Problem(
        dim=dim,
        n_agents=n_agents,
        gradient=lambda th: th - centers,
        constraint=constraint,
        noise_scale=sigma,
        objective=lambda avg, rng: float(0.5 * np.sum((avg - centers) ** 2)),
        clt_spec=clt_spec,
    )


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
        gammas = sched.gamma_array(100)
        assert np.all(np.diff(gammas) < 0)
        assert gammas[9] == pytest.approx(sched.gamma(10))

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

    def test_model_rejects_matrices_that_are_not_doubly_stochastic(self, monkeypatch):
        # gossip_step trusts its matrix: the model checks each one once, when
        # it builds its alphabet, so a bad exchange matrix never reaches a run.
        bad = [
            (np.array([[0.7, 0.3], [0.5, 0.5]]), "doubly stochastic"),
            (np.array([[np.nan, 0.5], [0.5, 0.5]]), "NaN"),
        ]
        for w, message in bad:
            monkeypatch.setattr(network, "pairwise_matrix", lambda i, j, n, w=w: w.copy())
            model = GossipModel(Graph.from_edges(2, [(1, 2)]))
            with pytest.raises(ValueError, match=message):
                model._alphabet

    def test_average_preserved_and_disagreement_contracts(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            w = pairwise_matrix(int(i), int(j), n)
            theta = rng.normal(size=(n, int(rng.integers(1, 4)))) * 2.0
            out = gossip_step(theta, w)
            avg_err = np.linalg.norm(network_average(out) - network_average(theta))
            assert avg_err <= 1e-12 * (1.0 + np.linalg.norm(theta))
            assert disagreement_norm(out) <= disagreement_norm(theta) + 1e-12


class TestRmIterate:
    """One full iteration of ``run``: local step, then gossip."""

    def test_two_agent_hand_computed_step(self):
        # Quadratic pulls toward (0, 4); first step halves the gap, gossip averages.
        result = run(two_agent_config(n_iter=1))
        assert np.array_equal(result.final_state, [[1.0], [1.0]])

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
        assert np.allclose(result.final_state, centers, atol=1e-2)

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
            y = problem.oracle(theta, np.random.default_rng(0))
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
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.n == rb.n
            assert ra.disagreement == rb.disagreement
            assert np.array_equal(ra.average, rb.average)
        assert np.array_equal(a.final_state, b.final_state)

    def test_replicas_differ_and_are_reproducible(self):
        config = two_agent_config(
            problem=quadratic_problem([[0.0], [4.0]], sigma=0.3),
            n_iter=100,
            replicas=3,
            initial_state=lambda rng: rng.uniform(-1, 1, size=(2, 1)),
        )
        results = run_replicas(config)
        assert len(results) == 3
        assert not np.array_equal(results[0].final_state, results[1].final_state)
        again = run(config, replica=1)
        assert np.array_equal(again.final_state, results[1].final_state)

    def test_records_every_k_and_final(self):
        config = two_agent_config(n_iter=25, record_every=10)
        result = run(config)
        assert [rec.n for rec in result.records] == [10, 20, 25]

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
        assert info.value.records  # partial trace survives

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
        for block in result.final_state:
            assert cs.contains(block)
        assert result.records[-1].residual >= 0.0

    def test_infeasible_initial_state_rejected(self):
        cs = Box([0.0], [1.0])
        problem = quadratic_problem([[0.5], [0.5]], constraint=cs)
        with pytest.raises(ValueError, match="infeasible"):
            two_agent_config(problem=problem, initial_state=np.full((2, 1), 2.0))


class TestOracle:
    def test_unbiasedness_per_agent(self):
        sigma = 0.5
        centers = np.array([[1.0, -1.0], [0.5, 2.0]])
        problem = quadratic_problem(centers, sigma=sigma)
        theta = np.array([[0.2, 0.1], [-0.4, 0.6]])
        rng = np.random.default_rng(5)
        draws = 10**5
        batch = problem.oracle(np.broadcast_to(theta, (draws, 2, 2)), rng)
        bound = 4.0 * sigma / np.sqrt(draws)
        for i in range(2):
            expected = -(theta[i] - centers[i])
            err = np.linalg.norm(batch[:, i, :].mean(axis=0) - expected)
            assert err <= bound

    def test_state_dependent_scale_hook(self):
        centers = np.array([[0.0]])
        problem = Problem(
            dim=1,
            n_agents=1,
            gradient=lambda th: th,
            noise_scale=lambda theta: 0.0,
        )
        out = problem.oracle(np.array([[2.0]]), np.random.default_rng(0))
        assert np.allclose(out, [[-2.0]], atol=1e-15)

    def test_stacked_oracle_equals_per_agent_literal(self):
        sigma = 0.3
        rng = np.random.default_rng(12)
        centers = rng.normal(size=(4, 3))
        problem = quadratic_problem(centers, sigma=sigma)
        for shape in [(4, 3), (7, 4, 3)]:
            theta = rng.normal(size=shape) * 5.0
            got = problem.oracle(theta, np.random.default_rng(99))
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
        problem.oracle(np.zeros((3, 1)), np.random.default_rng(0))
        problem.oracle(np.zeros((5, 3, 1)), np.random.default_rng(0))
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
        failed = {c.name for c in report.failures}
        assert failed == {"clt_step_scale"}
        assert "2*L*gamma0" in report.format()

    def test_laziness_sufficient_condition(self):
        gossip = GossipModel(Graph.from_edges(2, [(1, 2)]), activation_decay=0.3)
        config = two_agent_config(gossip=gossip, schedule=StepSchedule(0.5, 0.6))
        report = validate_assumptions(config)
        assert {c.name for c in report.failures} == {"laziness_vs_step"}

    def test_small_step_exponent_fails(self):
        # xi = 0.4 also sinks the laziness comparison (eta = 0 >= xi - 1/2 < 0).
        config = two_agent_config(schedule=StepSchedule(0.5, 0.4))
        report = validate_assumptions(config)
        assert "step_exponent" in {c.name for c in report.failures}
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
        assert {c.name for c in report.failures} == {"connectivity"}
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
        for r in range(3):
            assert np.array_equal(finals[r], sequential.final_state)

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
        seq = [run(config, r).final_state for r in range(150)]
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

    @pytest.mark.parametrize(
        "n_agents,edges,dim,c,eta",
        [
            (4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 1, 0.6, 0.2),
            (4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 1, 1.0, 0.0),
            (4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 2, 0.8, 0.1),
            (2, [(1, 2)], 1, 0.5, 0.0),
        ],
        ids=["lazy", "always-active", "d2", "two-agents"],
    )
    def test_matches_literal_loop_bitwise(self, n_agents, edges, dim, c, eta):
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
            n_iter=300,
            seed=15,
            replicas=64,
        )
        assert np.array_equal(run_ensemble(config), literal_run_ensemble(config))

    def test_oracle_output_not_mutated(self):
        problem = quadratic_problem([[0.0], [1.0]], sigma=1.0)
        returned = []

        def oracle(theta, rng):
            y = problem._gaussian_oracle(theta, rng)
            returned.append((y, y.copy()))
            return y

        problem.oracle = oracle
        run_ensemble(two_agent_config(problem=problem, n_iter=20, replicas=5))
        assert len(returned) == 20
        for y, copy in returned:
            assert np.array_equal(y, copy)

    def test_nonfinite_observation_names_replica_and_agent(self):
        calls = []

        def oracle(theta, rng):
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


def literal_run_ensemble(config):
    """The ensemble loop as first written, without its guards: two uniform
    draws, a ``searchsorted`` edge pick and 2-D fancy-index mixing of the
    active replicas only.  The reference for bitwise checks of the lean loop."""
    n_replicas = config.replicas
    rng = _stream(config.seed, 0, _ENSEMBLE)
    theta = np.stack([_initial_state(config, r) for r in range(n_replicas)])
    gammas = config.schedule.gamma_array(config.n_iter)
    steps = np.arange(1, config.n_iter + 1, dtype=float)
    activation = np.minimum(
        1.0, config.gossip.activation_scale * steps ** (-config.gossip.activation_decay)
    )
    edge_i, edge_j, cum = config.gossip._edge_table
    n_edges = cum.size

    for n in range(1, config.n_iter + 1):
        y = np.asarray(config.problem.oracle(theta, rng), dtype=float)
        theta = theta + gammas[n - 1] * y
        active = rng.random(n_replicas) < activation[n - 1]
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
        def oracle(theta, rng):
            y = np.empty_like(theta)
            y[..., 0, :] = 1e308
            y[..., 1, :] = -1e308
            return y

        problem = Problem(dim=1, n_agents=2, gradient=None, oracle=oracle)
        return two_agent_config(
            problem=problem, schedule=StepSchedule(gamma0=10.0, xi=0.75), **kwargs
        )

    def test_run_aborts_on_nan_state(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                run(self.overflowing_config())
        assert info.value.iteration == 1

    def test_ensemble_aborts_on_nan_state(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                run_ensemble(self.overflowing_config(replicas=3))
        assert info.value.iteration == 1
