"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <k> <name>: PASS/FAIL`` line (visible
with ``pytest -s``) and enforces the criterion's runtime budget.  Tolerances
are fixed here, not tuned at run time.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from gossip_sa.config import build_run_config, preset_dict, spec_from_dict
from gossip_sa.constraints import BudgetSimplex, Halfspaces
from gossip_sa.core import run, run_ensemble
from gossip_sa.diagnostics import (
    clt_check,
    fit_decay_exponent,
    solve_lyapunov,
)
from gossip_sa.network import Graph, GossipModel, pairwise_matrix, spectral_gap
from gossip_sa.runner import run_experiment

from reference import preset_spec, projection_drift, rate, rate_gradient
from test_constraints import brute_force_capped_simplex


@contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget_seconds is not None and elapsed > budget_seconds:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeds the {budget_seconds:.0f}s budget"
            )
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")


def test_01_spectral_gap_oracle():
    with criterion(1, "spectral-gap-oracle", budget_seconds=1.0):
        edges = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        model = GossipModel(Graph.from_edges(4, edges))
        rho = spectral_gap(model)
        # independent brute force: enumerate the alphabet, eigendecompose
        expectation = sum(pairwise_matrix(i, j, 4) / len(edges) for i, j in edges)
        brute = float(
            np.max(np.abs(np.linalg.eigvalsh(expectation - np.ones((4, 4)) / 4.0)))
        )
        assert abs(rho - brute) <= 1e-12
        assert abs(rho - 2.0 / 3.0) <= 1e-12
        two = GossipModel(Graph.from_edges(2, [(1, 2)]))
        assert abs(spectral_gap(two)) <= 1e-12


def test_02_agreement_and_convergence():
    """Seed census (``tests/seed_census.py``): fails at 0 of seeds 0-99.
    The disagreement ratio reads 0.0016-0.0032, the average error
    0.0007-0.0014 and ``beta_hat`` 1.38-1.72."""
    with criterion(2, "agreement-and-convergence", budget_seconds=60.0):
        spec = preset_spec("quadratic-consensus")
        assert spec.run.n_iter == 10**4 and spec.run.replicas == 20
        assert spec.schedule.gamma0 == 0.5 and spec.schedule.xi == 0.75
        result = run(build_run_config(spec))

        center_mean = np.asarray(spec.problem.centers, dtype=float).mean(axis=0)
        initial = np.median(result.initial_disagreement)
        final = np.median([trace[-1].disagreement for trace in result.records])
        assert final <= 1e-2 * initial

        avg_err = np.median(
            [np.linalg.norm(trace[-1].average - center_mean) for trace in result.records]
        )
        assert avg_err <= 0.05

        ns = result.records["n"][0]
        mean_sq = (result.records["disagreement"] ** 2).mean(axis=0)
        assert fit_decay_exponent(ns, mean_sq) > 1.0


@pytest.mark.parametrize(
    "preset,expected_sigma,expected_zeta",
    [("scalar-clt", 0.125, 0.0), ("scalar-clt-xi1", 0.25, 0.5)],
)
def test_03_clt_covariance(preset, expected_sigma, expected_zeta):
    """Seed census (``tests/seed_census.py``, seeds 0-39): ``scalar-clt``
    fails at 4 of 40 (relative error 0.0004-0.275), ``scalar-clt-xi1`` at
    0 of 40 (0.002-0.144)."""
    with criterion(3, f"clt-covariance[{preset}]", budget_seconds=300.0):
        spec = preset_spec(preset)
        assert spec.run.replicas == 500 and spec.run.n_iter == 10**5
        config = build_run_config(spec)
        # scalar quadratic network: averaged noise covariance sigma^2 / N
        assert config.problem.clt_spec.noise_cov[0, 0] == pytest.approx(0.25)
        finals = run_ensemble(config)
        estimate = clt_check(
            finals, config.problem.clt_spec, config.schedule, spec.run.n_iter
        )
        assert estimate.zeta == pytest.approx(expected_zeta)
        assert estimate.theoretical_cov[0, 0] == pytest.approx(expected_sigma)
        assert estimate.relative_error <= 0.15


def test_04_lyapunov_solver():
    with criterion(4, "lyapunov-solver", budget_seconds=5.0):
        rng = np.random.default_rng(40)
        for trial in range(100):
            d = int(rng.integers(1, 9))
            h = rng.normal(size=(d, d))
            h -= (np.max(np.linalg.eigvals(h).real) + rng.uniform(0.2, 2.0)) * np.eye(d)
            m = rng.normal(size=(d, d))
            q = m @ m.T + 0.1 * np.eye(d)
            zeta = 0.0 if trial % 2 == 0 else float(
                rng.uniform(0.0, -0.9 * np.max(np.linalg.eigvals(h).real))
            )
            sigma = solve_lyapunov(h, zeta, q)
            shifted = h + zeta * np.eye(d)
            residual = np.linalg.norm(shifted @ sigma + sigma @ shifted.T + q)
            assert residual <= 1e-10 * (1.0 + np.linalg.norm(q))
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(solve_lyapunov(-np.eye(2), 0.0, q), q / 2.0)


def test_05_projection_oracle():
    with criterion(5, "projection-oracle", budget_seconds=10.0):
        rng = np.random.default_rng(50)
        for _ in range(1000):
            d = int(rng.integers(1, 7))
            if d >= 2 and rng.random() < 0.3:
                split = int(rng.integers(1, d))
                groups = [tuple(range(split)), tuple(range(split, d))]
            else:
                groups = [tuple(range(d))]
            budgets = rng.uniform(0.3, 2.5, size=len(groups))
            cs = BudgetSimplex(budgets=budgets, groups=groups)
            x = rng.uniform(-2.0, 2.0, size=d)
            projected = cs.project(x)
            oracle = np.empty(d)
            for g, b in zip(groups, budgets):
                oracle[list(g)] = brute_force_capped_simplex(x[list(g)], float(b))
            assert np.allclose(projected, oracle, atol=1e-8)
            # nonexpansiveness and idempotence on the same instance
            y = rng.uniform(-2.0, 2.0, size=d)
            assert (
                np.linalg.norm(projected - cs.project(y))
                <= np.linalg.norm(x - y) + 1e-12
            )
            assert np.allclose(cs.project(projected), projected, atol=1e-12)


def test_06_constrained_convergence():
    """Seed census (``tests/seed_census.py``): fails at 0 of seeds 0-99.
    The median residual reads 0.0008-0.0041 and the error 0.0002-0.0010."""
    with criterion(6, "constrained-convergence", budget_seconds=60.0):
        spec = preset_spec("constrained-toy")
        assert spec.run.n_iter == 10**4 and spec.run.replicas == 20
        result = run(build_run_config(spec))
        # the aggregate quadratic is centered outside the box; its constrained
        # optimum is the box projection of the center mean
        center_mean = np.asarray(spec.problem.centers, dtype=float).mean(axis=0)
        optimum = np.clip(center_mean, 0.0, 1.0)
        assert np.median([trace[-1].residual for trace in result.records]) <= 1e-2
        err = np.median(
            [np.linalg.norm(trace[-1].average - optimum) for trace in result.records]
        )
        assert err <= 0.05


def test_07_rate_gradient_and_drift():
    with criterion(7, "rate-gradient-and-drift", budget_seconds=5.0):
        from gossip_sa.power import PowerScenario

        scen = PowerScenario(
            n_users=3,
            n_channels=2,
            budgets=np.ones(3),
            noise_vars=np.array([0.5, 0.25, 1.0]),
            weights=np.ones(3),
        )
        rng = np.random.default_rng(70)
        caps = np.repeat(scen.budgets / scen.n_channels, scen.n_channels)
        step = 1e-6
        worst = 0.0
        for _ in range(100):
            gains = scen.draw(rng)
            theta = rng.uniform(0.05, 1.0, size=scen.dim) * caps
            user = int(rng.integers(1, 4))
            exact = rate_gradient(scen, theta, gains, user)
            approx = np.empty_like(exact)
            for k in range(scen.dim):
                bump = np.zeros(scen.dim)
                bump[k] = step
                approx[k] = (
                    rate(scen, theta + bump, gains, user)
                    - rate(scen, theta - bump, gains, user)
                ) / (2.0 * step)
            worst = max(worst, np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert worst <= 1e-6

        for _ in range(100):
            dim = int(rng.integers(2, 5))
            normal = rng.normal(size=dim)
            normal /= np.linalg.norm(normal)
            offset = float(rng.normal())
            cs = Halfspaces([normal], [offset])
            base = rng.normal(size=dim)
            theta = base + (offset - float(normal @ base)) * normal
            y = rng.normal(size=dim) * 3.0
            drift = projection_drift(cs, theta, y, 1e-6)
            closed = y - max(float(y @ normal), 0.0) * normal
            assert np.linalg.norm(drift - closed) <= 1e-4


def test_08_power_scenario_trends():
    """Seed census (``tests/seed_census.py``): fails at 25 of seeds 0-99,
    all on the disagreement windows, whose ratio reads 0.023-0.094
    against 0.05; the objective half never fails."""
    with criterion(8, "power-scenario-trends", budget_seconds=300.0):
        spec = preset_spec("power-alloc")
        assert spec.run.n_iter == 10**4
        assert spec.run.record_every == 100
        assert spec.problem.power["mc_trials"] == 10**3
        config = build_run_config(spec)
        # the engine re-checks feasibility of every block at every recorded
        # iteration and aborts on violation, so completing is the feasibility check
        result = run(config)
        feasible = config.problem.constraint
        for block in result.final_states[0]:
            assert feasible.contains(block)

        records = result.records[0]
        window = max(1, len(records) // 10)
        disagreement = np.array([rec.disagreement for rec in records])
        objective = np.array([rec.objective for rec in records])
        assert disagreement[-window:].mean() <= 0.05 * disagreement[:window].mean()
        assert objective[-window:].mean() >= objective[:window].mean()


def test_09_determinism(tmp_path):
    with criterion(9, "determinism"):
        reduced = {
            "quadratic-consensus": ["run.n_iter=500", "run.replicas=2"],
            "constrained-toy": ["run.n_iter=500", "run.replicas=2"],
            "power-alloc": ["run.n_iter=500", "problem.power.mc_trials=100"],
        }
        from gossip_sa.config import apply_overrides

        for preset, overrides in reduced.items():
            outputs = []
            for attempt in ("a", "b"):
                data = apply_overrides(preset_dict(preset), overrides)
                data["output"] = {"directory": str(tmp_path / f"{preset}-{attempt}")}
                result = run_experiment(spec_from_dict(data))
                outputs.append(
                    [path.read_bytes() for path in result.trace_paths]
                    + [result.summary_path.read_bytes()]
                )
            assert outputs[0] == outputs[1], f"{preset} rerun differed"
