import os
import subprocess
import sys

import numpy as np
import pytest

import gossip_sa
from gossip_sa.cli import main
from gossip_sa.config import (
    ConfigError,
    apply_overrides,
    build_run_config,
    parse_config,
    preset_dict,
    preset_names,
    preset_spec,
    spec_from_dict,
)
from gossip_sa.power import four_user_graph, four_user_scenario
from gossip_sa.runner import read_trace, run_experiment

MINIMAL = """
problem:
  kind: quadratic-consensus
graph:
  n_agents: 4
  edges: [[1, 2], [1, 3], [2, 3], [2, 4], [3, 4]]
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        spec = parse_config(MINIMAL)
        assert spec.schedule.xi == 0.75
        assert spec.laziness.eta == 0.0
        assert spec.run.record_every == 10
        assert spec.problem.dim == 2

    def test_small_step_exponent_rejected(self):
        with pytest.raises(ConfigError, match=r"must be in \(1/2, 1\]"):
            parse_config(MINIMAL + "schedule:\n  xi: 0.4\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="schedule.exponent"):
            parse_config(MINIMAL + "schedule:\n  exponent: 0.75\n")
        with pytest.raises(ConfigError, match="'momentum'"):
            parse_config(MINIMAL + "momentum: 0.9\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("problem:\n  kind: [unclosed\n")

    def test_file_and_inline_equivalent(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(MINIMAL)
        assert parse_config(path) == parse_config(MINIMAL)

    def test_missing_file_feedback(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config("no_such_file.yaml")

    def test_round_trip_preserves_fields(self):
        for name in preset_names():
            spec = preset_spec(name)
            assert spec_from_dict(spec.to_config_dict()) == spec

    def test_bad_edges_rejected(self):
        with pytest.raises(ConfigError, match="edges"):
            parse_config("problem:\n  kind: quadratic-consensus\ngraph:\n  n_agents: 3\n  edges: []\n")
        with pytest.raises(ConfigError):
            parse_config(
                "problem:\n  kind: quadratic-consensus\ngraph:\n  n_agents: 3\n  edges: [[1, 5]]\n"
            )

    def test_centers_shape_checked(self):
        text = MINIMAL + "problem:\n  kind: quadratic-consensus\n  dim: 2\n  centers: [[1, 0]]\n"
        with pytest.raises(ConfigError, match="centers"):
            parse_config(text)

    def test_run_section_ranges(self):
        with pytest.raises(ConfigError, match="n_iter"):
            parse_config(MINIMAL + "run:\n  n_iter: 0\n")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(MINIMAL + "run:\n  seed: -1\n")

    def test_power_dim_is_derived(self):
        spec = preset_spec("power-alloc")
        assert spec.problem.dim == 8
        with pytest.raises(ConfigError, match="dim"):
            spec_from_dict(apply_overrides(preset_dict("power-alloc"), ["problem.dim=7"]))


class TestPresets:
    def test_power_preset_matches_reference_scenario(self):
        spec = preset_spec("power-alloc")
        scen = four_user_scenario()
        power = spec.problem.power
        assert power["n_channels"] == scen.n_channels
        assert power["weights"] == list(scen.weights)
        assert power["noise_vars"] == list(scen.noise_vars)
        assert power["budgets"] == list(scen.budgets)
        assert tuple(tuple(e) for e in spec.graph.edges) == four_user_graph().edges

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_dict("nonexistent")

    def test_preset_key_with_overrides(self):
        spec = parse_config("preset: quadratic-consensus\nrun:\n  seed: 123\n")
        assert spec.run.seed == 123
        assert spec.schedule.gamma0 == 0.5  # preset value survives

    def test_all_presets_buildable(self):
        for name in preset_names():
            config = build_run_config(preset_spec(name))
            assert config.problem.n_agents == 4

    def test_quadratic_gradient_equals_broadcast_difference(self):
        spec = preset_spec("quadratic-consensus")
        centers = np.asarray(spec.problem.centers, dtype=float)
        gradient = build_run_config(spec).problem.gradient
        rng = np.random.default_rng(3)
        # Stacks of changing shape, one repeated, then a single state.
        for shape in [(7, 4, 2), (7, 4, 2), (3, 5, 4, 2), (4, 2)]:
            theta = rng.normal(size=shape)
            assert np.array_equal(gradient(theta), theta - centers)


class TestOverrides:
    def test_typed_values(self):
        data = apply_overrides({}, ["run.seed=3", "schedule.xi=0.8", "run.override_checks=true"])
        assert data == {
            "run": {"seed": 3, "override_checks": True},
            "schedule": {"xi": 0.8},
        }

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            apply_overrides({}, ["no_equals_sign"])


class TestRunExperiment:
    def test_trace_layout_and_roundtrip(self, tmp_path):
        data = preset_dict("quadratic-consensus")
        data["run"].update(n_iter=300, replicas=2)
        data["output"] = {"directory": str(tmp_path / "exp")}
        result = run_experiment(spec_from_dict(data))
        assert len(result.trace_paths) == 2
        header, values = read_trace(result.trace_paths[0])
        assert header == ["n", "gamma", "disagreement", "residual", "objective", "avg_1", "avg_2"]
        assert len(header) == 5 + 2
        assert np.isfinite(values).all()
        # 17 significant digits round-trip bit-exactly
        recs = result.results[0].records
        assert values[0, 2] == recs[0].disagreement
        assert values[-1, 5] == recs[-1].average[0]

    @pytest.mark.parametrize(
        "preset", ["quadratic-consensus", "constrained-toy", "power-alloc", "scalar-clt"]
    )
    def test_trace_columns_finite_for_every_preset(self, tmp_path, preset):
        data = preset_dict(preset)
        data["run"].update(n_iter=200, replicas=1, record_every=20)
        if preset == "power-alloc":
            data["problem"]["power"]["mc_trials"] = 50
        data["output"] = {"directory": str(tmp_path / preset)}
        spec = spec_from_dict(data)
        result = run_experiment(spec)
        header, values = read_trace(result.trace_paths[0])
        assert len(header) == 5 + spec.problem.dim
        assert np.isfinite(values).all()

    @pytest.mark.parametrize(
        "preset,zeta", [("scalar-clt", 0.0), ("scalar-clt-xi1", 0.5)]
    )
    def test_clt_study_records_zeta(self, tmp_path, preset, zeta):
        from gossip_sa.runner import run_clt_study

        data = preset_dict(preset)
        data["run"].update(n_iter=300, replicas=120)
        data["output"] = {"directory": str(tmp_path / preset)}
        result = run_clt_study(spec_from_dict(data))
        assert result.summary["zeta"] == zeta
        text = result.summary_path.read_text()
        assert f"zeta = {zeta:g}" in text
        assert "empirical_cov_1_1" in text and "theoretical_cov_1_1" in text

    def test_summary_recomputable_from_traces(self, tmp_path):
        from gossip_sa.diagnostics import fit_decay_exponent

        data = preset_dict("quadratic-consensus")
        data["run"].update(n_iter=2000, replicas=3)
        data["output"] = {"directory": str(tmp_path / "exp")}
        result = run_experiment(spec_from_dict(data))
        ns = None
        sq = []
        finals = []
        for path in result.trace_paths:
            _, values = read_trace(path)
            ns = values[:, 0]
            sq.append(values[:, 2] ** 2)
            finals.append(values[-1, 3])
        beta = fit_decay_exponent(ns, np.mean(sq, axis=0))
        assert beta == pytest.approx(result.summary["beta_hat"])
        assert float(np.median(finals)) == pytest.approx(
            result.summary["final_residual_median"]
        )


class TestCli:
    def test_scenario_run_validate_flow(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        assert main(["scenario", "quadratic-consensus", "--out", str(cfg)]) == 0
        code = main(
            [
                "run",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "out"),
                "--override",
                "run.n_iter=200",
                "--replicas",
                "2",
                "--seed",
                "9",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "summary:" in captured
        assert (tmp_path / "out" / "trace_r001.csv").exists()
        assert main(["validate", "--config", str(cfg)]) == 0

    def test_scenario_prints_yaml(self, capsys):
        assert main(["scenario", "power-alloc"]) == 0
        out = capsys.readouterr().out
        assert "noise_vars" in out and "0.02" in out

    def test_config_error_exit_code(self, capsys):
        code = main(["run", "--preset", "quadratic-consensus", "--override", "schedule.xi=0.3"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_validate_failing_report_exit_code(self, capsys):
        code = main(
            [
                "validate",
                "--preset",
                "quadratic-consensus",
                "--override",
                "laziness.eta=0.4",
            ]
        )
        assert code == 3
        assert "FAIL laziness_vs_step" in capsys.readouterr().out

    def test_clt_replica_floor_is_config_error(self, capsys):
        code = main(
            ["clt", "--preset", "scalar-clt", "--replicas", "10"]
        )
        assert code == 2
        assert "at least 100 replicas" in capsys.readouterr().err

    def test_run_abort_exit_code(self, tmp_path, capsys):
        # Disconnected graph without override: assumption failure aborts (exit 3).
        code = main(
            [
                "run",
                "--preset",
                "quadratic-consensus",
                "--out",
                str(tmp_path / "x"),
                "--override",
                "graph.edges=[[1,2],[3,4]]",
            ]
        )
        assert code == 3
        assert "aborted" in capsys.readouterr().err

    def test_assumption_abort_exit_code(self, tmp_path, capsys):
        # Break the xi = 1 step-scale condition: the run aborts with exit 3
        # unless the checks are explicitly overridden.
        code = main(
            [
                "clt",
                "--preset",
                "scalar-clt-xi1",
                "--override",
                "schedule.gamma0=0.4",
                "--override",
                "run.n_iter=50",
                "--out",
                str(tmp_path / "y"),
            ]
        )
        assert code == 3
        assert "aborted" in capsys.readouterr().err

    def test_insufficient_converged_replicas_exit_code(self, tmp_path, capsys):
        # Limit point far away and a single iteration: every replica fails the
        # convergence filter, which is the insufficient-data outcome (exit 4).
        code = main(
            [
                "clt",
                "--preset",
                "scalar-clt",
                "--replicas",
                "120",
                "--override",
                "problem.centers=[[10],[10],[10],[10]]",
                "--override",
                "run.n_iter=1",
                "--out",
                str(tmp_path / "z"),
            ]
        )
        assert code == 4
        assert "insufficient data" in capsys.readouterr().err

    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize dominates start-up time; only halfspace sets and the
        # stationarity residual need it, and they import it when called.
        src = os.path.dirname(os.path.dirname(gossip_sa.__file__))
        probe = "import sys, gossip_sa.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"
