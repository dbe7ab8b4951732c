import numpy as np
import pytest
import scipy.linalg

from gossip_sa.core import StepSchedule
from gossip_sa.diagnostics import (
    CLT_RADIUS,
    MIN_CLT_REPLICAS_USED,
    CltSpec,
    InsufficientReplicasError,
    clt_check,
    fit_decay_exponent,
    solve_lyapunov,
)
from reference import disagreement_norm


class TestAverages:
    def test_scalar_two_agents(self):
        assert np.mean([[0.0], [4.0]], axis=0) == pytest.approx([2.0])

    def test_consensus_fixed_point(self):
        v = np.array([1.3, -0.7])
        theta = np.tile(v, (5, 1))
        assert np.allclose(theta.mean(axis=0), v, atol=1e-15)
        assert disagreement_norm(theta) == 0.0

    def test_three_agent_average(self):
        theta = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        assert np.allclose(theta.mean(axis=0), [1.0, 1.0], atol=1e-15)

    def test_two_agent_disagreement(self):
        assert disagreement_norm([[0.0], [4.0]]) == pytest.approx(np.sqrt(8.0))

    def test_pythagorean_decomposition(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            theta = rng.normal(size=(n, d)) * 3.0
            total = float(np.sum(theta**2))
            avg = theta.mean(axis=0)
            split = n * float(np.sum(avg**2)) + disagreement_norm(theta) ** 2
            assert abs(total - split) <= 1e-12 * (1.0 + total)


class TestFitDecayExponent:
    def test_exact_power_law(self):
        ns = np.arange(1, 1001, dtype=float)
        values = ns**-1.5
        assert abs(fit_decay_exponent(ns, values) - 1.5) <= 0.01

    def test_modulated_power_law(self):
        ns = np.arange(1, 2001, dtype=float)
        values = 3.0 * ns**-2.0 * (1.0 + 0.1 * np.sin(ns))
        assert abs(fit_decay_exponent(ns, values) - 2.0) <= 0.05

    def test_constant_trace(self):
        ns = np.arange(1, 301, dtype=float)
        values = np.full_like(ns, 0.7)
        assert abs(fit_decay_exponent(ns, values)) <= 0.01

    def test_all_zero_trace_flags_nan(self):
        ns = np.arange(1, 301, dtype=float)
        assert np.isnan(fit_decay_exponent(ns, np.zeros_like(ns)))

    def test_too_few_positive_points_rejected(self):
        ns = np.arange(1, 41, dtype=float)
        with pytest.raises(ValueError, match="50"):
            fit_decay_exponent(ns, ns**-1.0)

    def test_window_restricts_to_tail(self):
        # Transient head plus clean n^-2 tail: the tail fit ignores the head.
        ns = np.arange(1, 1001, dtype=float)
        values = ns**-2.0
        values[:200] = 1.0
        assert abs(fit_decay_exponent(ns, values) - 2.0) <= 0.01


class TestSolveLyapunov:
    def test_identity_drift_halves_q(self):
        sigma = solve_lyapunov(-np.eye(3), 0.0, np.eye(3))
        assert np.array_equal(sigma, 0.5 * np.eye(3))

    def test_positive_shift_weakens_contraction(self):
        # Shifted drift -1 + 0.5 = -0.5 doubles the stationary variance.
        sigma = solve_lyapunov(np.array([[-1.0]]), 0.5, np.array([[1.0]]))
        assert sigma[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_random_stable_systems_match_schur_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            h = rng.normal(size=(d, d))
            h -= (np.max(np.linalg.eigvals(h).real) + rng.uniform(0.3, 1.5)) * np.eye(d)
            m = rng.normal(size=(d, d))
            q = m @ m.T + 0.2 * np.eye(d)
            sigma = solve_lyapunov(h, 0.0, q)
            residual = h @ sigma + sigma @ h.T + q
            assert np.linalg.norm(residual) <= 1e-10 * (1.0 + np.linalg.norm(q))
            oracle = scipy.linalg.solve_continuous_lyapunov(h, -q)
            assert np.allclose(sigma, oracle, atol=1e-9)
            # symmetric positive definite output
            assert np.linalg.norm(sigma - sigma.T) <= 1e-12
            assert np.min(np.linalg.eigvalsh(sigma)) > 0.0

    def test_unstable_shift_rejected_with_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            solve_lyapunov(np.array([[-1.0]]), 2.0, np.array([[1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), 0.0, np.eye(3))


class TestCltSpec:
    def test_scalar_quadratic_network_covariance(self):
        # Per-agent noise variance sigma^2 over N agents: averaged noise
        # covariance sigma^2/N, stationary covariance sigma^2/(2N).
        sigma, n_agents = 1.0, 4
        spec = CltSpec(
            theta_star=np.zeros(1),
            drift_jacobian=-np.eye(1),
            noise_cov=(sigma**2 / n_agents) * np.eye(1),
        )
        out = solve_lyapunov(spec.drift_jacobian, 0.0, spec.noise_cov)
        assert out[0, 0] == pytest.approx(sigma**2 / (2 * n_agents))
        assert spec.decay_rate == pytest.approx(1.0)
        assert not spec.degenerate

    def test_unstable_drift_rejected(self):
        with pytest.raises(ValueError, match="stable"):
            CltSpec(np.zeros(1), np.eye(1), np.eye(1))

    def test_degenerate_noise_flagged(self):
        spec = CltSpec(np.zeros(1), -np.eye(1), np.zeros((1, 1)))
        assert spec.degenerate

    def test_covariance_shift_rule(self):
        # Below xi = 1 the equation is unshifted; at xi = 1 the drift -I is
        # shifted by 1/(2 gamma0), and it must stay stable: 2 gamma0 > 1.
        spec = CltSpec(np.zeros(1), -np.eye(1), 0.25 * np.eye(1))
        zeta, sigma = spec.covariance(StepSchedule(gamma0=0.5, xi=0.75))
        assert zeta == 0.0 and sigma[0, 0] == pytest.approx(0.125)
        zeta, sigma = spec.covariance(StepSchedule(gamma0=1.0, xi=1.0))
        assert zeta == 0.5 and sigma[0, 0] == pytest.approx(0.25)
        with pytest.raises(ValueError, match="not stable"):
            spec.covariance(StepSchedule(gamma0=0.4, xi=1.0))


def synthetic_finals(rng, n_replicas, n_agents, cov, schedule, n_tail, theta_star):
    """Replica states at consensus with the prescribed fluctuation law."""
    d = np.atleast_1d(theta_star).size
    chol = np.linalg.cholesky(np.atleast_2d(cov))
    z = rng.normal(size=(n_replicas, d)) @ chol.T
    samples = theta_star + np.sqrt(schedule.gamma(n_tail)) * z
    return np.repeat(samples[:, None, :], n_agents, axis=1)


class TestCltCheck:
    def test_recovers_prescribed_covariance(self):
        schedule = StepSchedule(gamma0=0.5, xi=0.75)
        spec = CltSpec(np.zeros(1), -np.eye(1), 0.25 * np.eye(1))
        target = solve_lyapunov(-np.eye(1), 0.0, 0.25 * np.eye(1))
        rng = np.random.default_rng(2)
        finals = synthetic_finals(rng, 2000, 4, target, schedule, 10**5, np.zeros(1))
        est = clt_check(finals, spec, schedule, 10**5)
        assert est.zeta == 0.0
        assert est.n_replicas_used == 2000
        assert est.relative_error <= 0.1
        assert est.scaled_disagreement == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(est.empirical_cov - est.empirical_cov.T) <= 1e-10
        assert np.linalg.norm(est.theoretical_cov - est.theoretical_cov.T) <= 1e-10

    def test_zeta_selection_at_unit_exponent(self):
        schedule = StepSchedule(gamma0=1.0, xi=1.0)
        spec = CltSpec(np.zeros(1), -np.eye(1), 0.25 * np.eye(1))
        rng = np.random.default_rng(3)
        finals = synthetic_finals(rng, 200, 4, 0.25 * np.eye(1), schedule, 10**4, np.zeros(1))
        est = clt_check(finals, spec, schedule, 10**4)
        assert est.zeta == pytest.approx(0.5)
        assert est.theoretical_cov[0, 0] == pytest.approx(0.25)

    def test_requires_hundred_replicas(self):
        schedule = StepSchedule(gamma0=0.5, xi=0.75)
        spec = CltSpec(np.zeros(1), -np.eye(1), np.eye(1))
        finals = np.zeros((99, 4, 1))
        with pytest.raises(ValueError, match="100"):
            clt_check(finals, spec, schedule, 100)

    def test_convergence_filter_and_insufficiency(self):
        schedule = StepSchedule(gamma0=0.5, xi=0.75)
        spec = CltSpec(np.zeros(1), -np.eye(1), np.eye(1))
        finals = np.full((200, 4, 1), 5.0)  # everyone far from the limit point
        with pytest.raises(InsufficientReplicasError):
            clt_check(finals, spec, schedule, 100)

    def test_survivor_floor(self):
        # Exactly MIN_CLT_REPLICAS_USED survivors suffice; one fewer does not.
        schedule = StepSchedule(gamma0=0.5, xi=0.75)
        spec = CltSpec(np.zeros(1), -np.eye(1), np.eye(1))
        finals = np.full((200, 4, 1), 2.0 * CLT_RADIUS)
        finals[:MIN_CLT_REPLICAS_USED] = 0.0
        assert clt_check(finals, spec, schedule, 100).n_replicas_used == MIN_CLT_REPLICAS_USED
        finals[0] = 2.0 * CLT_RADIUS
        with pytest.raises(InsufficientReplicasError, match=f"only {MIN_CLT_REPLICAS_USED - 1} "):
            clt_check(finals, spec, schedule, 100)

    def test_filter_keeps_near_replicas_only(self):
        schedule = StepSchedule(gamma0=0.5, xi=0.75)
        spec = CltSpec(np.zeros(1), -np.eye(1), 0.25 * np.eye(1))
        rng = np.random.default_rng(4)
        near = synthetic_finals(rng, 150, 4, 0.125 * np.eye(1), schedule, 10**5, np.zeros(1))
        far = np.full((50, 4, 1), 3.0)
        est = clt_check(np.concatenate([near, far]), spec, schedule, 10**5)
        assert est.n_replicas_used == 150

    def test_degenerate_noise_propagates(self):
        schedule = StepSchedule(gamma0=0.5, xi=0.75)
        spec = CltSpec(np.zeros(1), -np.eye(1), np.zeros((1, 1)))
        finals = np.zeros((120, 4, 1))
        est = clt_check(finals, spec, schedule, 10**4)
        assert est.degenerate
        assert np.isnan(est.relative_error)
        assert np.allclose(est.empirical_cov, 0.0)

    def test_standard_error_shrinks_with_replicas(self):
        # Monitored, not tightly asserted: going from 250 to 500 replicas
        # should shrink the spread of the variance estimate roughly by sqrt 2.
        schedule = StepSchedule(gamma0=0.5, xi=0.75)
        spec = CltSpec(np.zeros(1), -np.eye(1), 0.25 * np.eye(1))
        target = solve_lyapunov(-np.eye(1), 0.0, 0.25 * np.eye(1))
        rng = np.random.default_rng(5)
        errors = {250: [], 500: []}
        for _ in range(40):
            finals = synthetic_finals(rng, 500, 4, target, schedule, 10**5, np.zeros(1))
            for m in errors:
                est = clt_check(finals[:m], spec, schedule, 10**5)
                errors[m].append(est.relative_error)
        spread_250 = np.std(errors[250])
        spread_500 = np.std(errors[500])
        assert spread_500 < spread_250  # loose: shrinking, not the exact rate
