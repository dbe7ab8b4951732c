import ast
import copy
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gossip_sa
from gossip_sa import config
from gossip_sa.cli import main
from gossip_sa.config import (
    PROBLEM_KINDS,
    ConfigError,
    apply_overrides,
    build_run_config,
    preset_dict,
    preset_names,
    spec_from_dict,
)
from gossip_sa.diagnostics import trace_dtype
from gossip_sa.runner import run_clt_study, run_experiment, write_trace
from reference import parse_config, preset_spec, read_trace

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

    def test_long_inline_text_is_not_taken_for_a_path(self):
        directory = "d" * 300
        text = "{problem: {kind: quadratic-consensus}, output: {directory: %s}}" % directory
        assert parse_config(text).output.directory == directory

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

    def test_config_dict_holds_only_fields_that_apply(self):
        problem = preset_spec("power-alloc").to_config_dict()["problem"]
        assert set(problem) == {"kind", "power"}
        problem = preset_spec("constrained-toy").to_config_dict()["problem"]
        assert set(problem) == {"kind", "dim", "noise_sigma", "centers", "constraint"}
        assert set(problem["constraint"]) == {"kind", "lower", "upper"}


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_dict("nonexistent")

    def test_preset_key_with_overrides(self):
        spec = parse_config("preset: quadratic-consensus\nrun:\n  seed: 123\n")
        assert spec.run.seed == 123
        assert spec.schedule.gamma0 == 0.5  # preset value survives

    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_leaf_differs_from_the_schema(self, name):
        # A preset restates no default: dropping any one of its values
        # changes the resolved spec, or leaves a required key unset.
        preset = config._PRESETS[name]
        full = spec_from_dict(preset)

        def leaves(node, path=()):
            for key, value in node.items():
                if isinstance(value, dict):
                    yield from leaves(value, (*path, key))
                else:
                    yield (*path, key)

        paths = list(leaves(preset))
        assert paths
        for path in paths:
            trimmed = copy.deepcopy(preset)
            node = trimmed
            for key in path[:-1]:
                node = node[key]
            del node[path[-1]]
            try:
                resolved = spec_from_dict(trimmed)
            except ConfigError:
                continue  # such as a missing problem.kind
            assert resolved != full, path

    @pytest.mark.parametrize("name", preset_names())
    def test_preset_dict_is_resolved(self, name):
        # The mapping holds every key that applies, so resolving and
        # rendering it again gives it back, and it resolves to the preset.
        data = preset_dict(name)
        assert spec_from_dict(data).to_config_dict() == data
        assert spec_from_dict(data) == preset_spec(name)
        assert data["output"]["directory"] == f"out/{name}"
        assert data["run"]["override_checks"] is False

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
        overrides = ["run.seed=3", "schedule.xi=0.8", "run.override_checks=true"]
        # Exponent literals are floats by the YAML 1.2 rule.
        overrides += ["schedule.gamma0=5e-1", "a.b=1.0e3", "graph.weights=[1e-3, 2]"]
        data = apply_overrides({}, overrides)
        assert data == {
            "run": {"seed": 3, "override_checks": True},
            "schedule": {"xi": 0.8, "gamma0": 0.5},
            "a": {"b": 1000.0},
            "graph": {"weights": [0.001, 2]},
        }
        assert parse_config(MINIMAL + "schedule: {gamma0: 1e-1}\n").schedule.gamma0 == 0.1

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            apply_overrides({}, ["no_equals_sign"])

    def test_exponent_literal_writes_the_same_bytes(self, tmp_path, monkeypatch):
        outputs = []
        for name, literal in (("short", "5e-1"), ("long", "5.0e-1")):
            out = tmp_path / name
            out.mkdir()
            override = f"schedule.gamma0={literal}"
            assert run_from(out, monkeypatch, "quadratic-consensus", override) == 0
            files = sorted(p for p in out.rglob("*") if p.is_file())
            outputs.append({p.relative_to(out): p.read_bytes() for p in files})
        assert outputs[0] and outputs[0] == outputs[1]


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
        recs = result.result.records[0]
        assert values[0, 2] == recs[0].disagreement
        assert values[-1, 5] == recs[-1].average[0]

    def test_trace_row_is_the_per_field_format(self, tmp_path):
        # One "%d" + ",%.17g" * k format per row writes the bytes of str(n)
        # and format(float(v), ".17g") joined field by field, on the edge
        # cases of float formatting and with numpy float64 averages.
        special = [
            float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
            1.7976931348623157e308, 1e16, 2.0**53 + 2,
        ]
        norms = [v for v in special if not v < 0.0]
        records = np.rec.array(
            [
                (
                    10 * (k + 1),
                    special[k],
                    norms[k % len(norms)],
                    norms[(k + 1) % len(norms)],
                    special[k - 1],
                    np.roll(np.array(special, dtype=np.float64), k)[:3],
                )
                for k in range(len(special))
            ],
            dtype=trace_dtype(3),
        )
        path = tmp_path / "trace.csv"
        write_trace(path, records)
        expected = [
            ",".join(
                [str(rec.n)]
                + [
                    format(float(v), ".17g")
                    for v in (rec.gamma, rec.disagreement, rec.residual, rec.objective)
                ]
                + [format(float(v), ".17g") for v in rec.average]
            )
            for rec in records
        ]
        lines = path.read_text().splitlines()
        assert lines[0] == "n,gamma,disagreement,residual,objective,avg_1,avg_2,avg_3"
        assert lines[1:] == expected

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

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["run", "--preset", "quadratic-consensus", "--out", "{file}/sub"], "output.directory"),
            (["clt", "--preset", "scalar-clt", "--out", "{file}/sub"], "output.directory"),
            (["scenario", "quadratic-consensus", "--out", "{missing}/x.yaml"], "--out"),
        ],
        ids=["run", "clt", "scenario"],
    )
    def test_unwritable_output_exits_2_naming_the_field(
        self, tmp_path, monkeypatch, capsys, argv, name
    ):
        # The output directory is made before any engine work, so no engine runs.
        for engine in ("core.run", "runner.run_ensemble"):
            fail = lambda config, engine=engine: pytest.fail(f"{engine} ran")  # noqa: E731
            monkeypatch.setattr(f"gossip_sa.{engine}", fail)
        (tmp_path / "file").write_text("")
        paths = {"file": tmp_path / "file", "missing": tmp_path / "missing"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{name}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,blocked",
        [
            (["run", "--preset", "quadratic-consensus", "--replicas", "1"], "trace_r000.csv"),
            (["run", "--preset", "quadratic-consensus", "--replicas", "1"], "summary.txt"),
            (["clt", "--preset", "scalar-clt"], "clt_summary.txt"),
        ],
        ids=["run-trace", "run-summary", "clt-summary"],
    )
    def test_unwritable_output_file_exits_2_naming_the_field(self, tmp_path, capsys, argv, blocked):
        # A directory in the way of an output file inside an existing --out.
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        argv = [*argv, "--override", "run.n_iter=50", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'output.directory'" in err
        assert blocked in err and "Traceback" not in err

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

    def test_constrained_divergence_stopped_by_the_norm_guard(self, tmp_path, monkeypatch, capsys):
        # A box open on three sides lets the state grow without bound; the
        # stacked-norm guard stops the run before numpy overflows, whatever
        # the constraint kind, and names the state rather than the oracle.
        overrides = (
            "schedule.gamma0=1000",
            "schedule.xi=0.51",
            "problem.constraint.lower=[-.inf, -.inf]",
            "problem.constraint.upper=[.inf, 1]",
            "run.n_iter=200",
        )
        assert run_from(tmp_path, monkeypatch, "constrained-toy", *overrides) == 3
        assert "stacked state norm exceeded 1e+12 at iteration 5" in capsys.readouterr().err

    def test_diverging_clt_names_the_replica(self, tmp_path, monkeypatch, capsys):
        # The ensemble aborts under run's divergence rule, with run's report.
        monkeypatch.chdir(tmp_path)
        argv = ["clt", "--preset", "scalar-clt", "--replicas", "100"]
        argv += ["--override", "schedule.gamma0=1000", "--override", "run.n_iter=50"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "aborted: stacked state norm exceeded 1e+12 at iteration 5 in replica 0\n"

    @pytest.mark.parametrize(
        "argv",
        [["run", "--preset", "quadratic-consensus"], ["clt", "--preset", "scalar-clt"]],
        ids=["run", "clt"],
    )
    def test_running_out_of_memory_exits_3_without_a_traceback(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        def exhausted(config):
            raise MemoryError("Unable to allocate 104. GiB for an array")

        for engine in ("core.run", "runner.run_ensemble"):
            monkeypatch.setattr(f"gossip_sa.{engine}", exhausted)
        assert main([*argv, "--out", str(tmp_path / "oom")]) == 3
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 104. GiB for an array\n"

    def test_overflowing_objective_is_recorded_as_infinity_silently(self, tmp_path):
        # The quadratic objective of a center at 1e300 overflows in its
        # square; the record hook runs with overflow ignored, as the step
        # does, so no RuntimeWarning (an error under this suite) is raised.
        data = apply_overrides(
            preset_dict("constrained-toy"),
            ["run.n_iter=200", "problem.centers=[[1e300, 0], [0, 0], [0, 0], [0, 0]]"],
        )
        data["output"] = {"directory": str(tmp_path / "far")}
        result = run_experiment(spec_from_dict(data))
        assert np.isposinf(result.result.records["objective"]).all()

    def test_overflowing_halfspace_run_aborts_without_a_traceback(self, tmp_path):
        # The first step overflows to infinity; the halfspace projection
        # gives that point a NaN block, which the divergence guard stops.
        src = os.path.dirname(os.path.dirname(gossip_sa.__file__))
        argv = ["run", "--preset", "quadratic-consensus", "--out", str(tmp_path / "h")]
        for item in (
            "problem.constraint={kind: halfspaces, normals: [[1, 0]], offsets: [1]}",
            "schedule.gamma0=1e200",
            "problem.noise_sigma=1e150",
            "run.n_iter=5",
        ):
            argv += ["--override", item]
        out = subprocess.run(
            [sys.executable, "-m", "gossip_sa.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert out.returncode == 3
        assert "aborted: stacked state norm exceeded 1e+12 at iteration 1" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["run", "--preset", "quadratic-consensus"], 3),
            (
                ["run", "--preset", "quadratic-consensus", "--override",
                 "problem.constraint={kind: halfspaces, normals: [[1, 0]], offsets: [1]}"],
                3,
            ),
            (["run", "--preset", "constrained-toy"], 0),
            (["clt", "--preset", "scalar-clt", "--override", "run.override_checks=true"], 3),
        ],
    )
    def test_overflowing_step_warns_nothing(self, argv, code, tmp_path, monkeypatch, capsys):
        # The step overflows at iteration 1; the divergence guard or the box
        # projection deals with the result, and numpy stays silent.
        monkeypatch.chdir(tmp_path)
        for item in ("schedule.gamma0=1e200", "problem.noise_sigma=1e150", "run.n_iter=5"):
            argv = [*argv, "--override", item]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        assert caught == []
        err = capsys.readouterr().err
        if code == 3:
            assert err == "aborted: stacked state norm exceeded 1e+12 at iteration 1 in replica 0\n"
        else:
            assert err == ""

    def test_step_underflowing_to_zero_runs(self, tmp_path, monkeypatch):
        # gamma(2) underflows to 0.0 from the smallest positive gamma0: a
        # zero step leaves the state in place instead of failing the run.
        assert run_from(tmp_path, monkeypatch, "quadratic-consensus", "schedule.gamma0=5.0e-324") == 0

    def test_power_run_with_a_budget_below_rounding_stays_feasible(self, tmp_path, monkeypatch):
        # A budget far below the rounding of the other powers once sent the
        # projection to its last sorted threshold, leaving the set (exit 3).
        budgets = "problem.power.budgets=[1e-20, 1, 1, 1]"
        assert run_from(tmp_path, monkeypatch, "power-alloc", budgets, "run.n_iter=200") == 0

    def test_far_start_stays_inside_a_thin_halfspace_cone(self, tmp_path, capsys):
        # Centers far from a thin cone once made the first projection accept
        # a point that the recorded-feasibility check then rejected (exit 3).
        overrides = (
            "run.n_iter=300",
            "run.record_every=1",
            "run.replicas=1",
            "problem.constraint={kind: halfspaces, normals: [[1, 2], [-2, -2], [0, -2]], "
            "offsets: [1.0e-8, 1.0e-8, 1.0e-8]}",
            "problem.centers=[[95, -65], [95, -65], [95, -65], [95, -65]]",
        )
        argv = ["run", "--preset", "quadratic-consensus", "--seed", "2"]
        for item in overrides:
            argv += ["--override", item]
        assert main([*argv, "--out", str(tmp_path / "cone")]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows,code,err",
        [
            ("normals: [[1.0e+16, 1.0]], offsets: [0.5]", 0, ""),
            ("normals: [[1.0e+200, 1.0]], offsets: [0.5]", 0, ""),
            (
                "normals: [[1.0e-150, 0]], offsets: [1.0e+200]",
                2,
                "config error: 'problem.constraint': "
                "a halfspace offset over its row length passes the largest float\n",
            ),
        ],
        ids=["long-row", "row-whose-square-overflows", "offset-past-the-largest-float"],
    )
    def test_halfspaces_of_extreme_scale_run_or_are_refused(
        self, tmp_path, monkeypatch, capsys, rows, code, err
    ):
        # The projected start of a row of length 1e16 was once refused for
        # its raw row value; a row of length 1e200 overflowed its norm, and
        # an offset of 1e350 on the unit row reached the LP as infinity.
        constraint = f"problem.constraint={{kind: halfspaces, {rows}}}"
        assert run_from(tmp_path, monkeypatch, "quadratic-consensus", constraint) == code
        assert capsys.readouterr().err == err

    def test_centers_whose_mean_overflows_end_in_an_abort(self, tmp_path, monkeypatch, capsys):
        # The fluctuation law's limit point, the mean center, is infinite;
        # the divergence guard stops the run, and numpy stays silent.
        centers = "problem.centers=[[1.7e308, 0], [1.7e308, 0], [0, 0], [0, 0]]"
        assert run_from(tmp_path, monkeypatch, "quadratic-consensus", centers) == 3
        err = capsys.readouterr().err
        assert err == "aborted: stacked state norm exceeded 1e+12 at iteration 1 in replica 0\n"

    def test_clt_error_past_the_largest_float_is_infinite_silently(self, tmp_path):
        # gamma(60)**-1/2 scales the deviations so far that the second moment
        # is about 1e300, and the norm of its distance to the law overflows.
        data = apply_overrides(
            preset_dict("scalar-clt"),
            ["schedule.gamma0=1e-300", "run.n_iter=60", "run.replicas=100"],
        )
        data["output"] = {"directory": str(tmp_path / "clt")}
        assert math.isinf(run_clt_study(spec_from_dict(data)).estimate.relative_error)

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

    def test_clt_without_a_fluctuation_law_aborts_even_when_overridden(self, tmp_path, capsys):
        # With 2 L gamma0 <= 1 at xi = 1 the shifted Lyapunov equation has no
        # solution, so the study stops before it writes or runs anything.
        out = tmp_path / "y"
        code = main(
            [
                "clt",
                "--preset",
                "scalar-clt-xi1",
                "--override",
                "schedule.gamma0=0.4",
                "--override",
                "run.override_checks=true",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert "FAIL clt_step_scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_noiseless_quadratic_writes_nothing_to_stderr(self, tmp_path, capsys, command):
        # A degenerate fluctuation law concerns only a study that runs it.
        argv = [command, "--preset", "quadratic-consensus", "--out", str(tmp_path / "out")]
        argv += ["--override", "problem.noise_sigma=0", "--override", "run.n_iter=20"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert caught == []
        assert capsys.readouterr().err == ""

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

    @staticmethod
    def loaded_by_cli_import(module):
        """Whether ``import gossip_sa.cli`` loads ``module``, in a fresh
        interpreter."""
        src = os.path.dirname(os.path.dirname(gossip_sa.__file__))
        probe = f"import sys, gossip_sa.cli; print({module!r} in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip() == "True"

    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize dominates start-up time; only halfspace sets need it,
        # and they import it when built.
        assert not self.loaded_by_cli_import("scipy.optimize")

    def test_import_leaves_concurrent_futures_unloaded(self):
        # The ensemble draws on the calling thread, so no module of the
        # package needs an executor (importing one costs 3-5 ms).
        assert not self.loaded_by_cli_import("concurrent.futures")

    def test_package_imports_no_thread_module(self):
        # Read from the source, since numpy itself loads threading.
        package = os.path.dirname(gossip_sa.__file__)
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                for module in modules:
                    assert module.split(".")[0] not in ("threading", "concurrent"), (name, module)

    def test_clt_run_leaves_scipy_unloaded(self, tmp_path):
        # The replica study needs no scipy module; loading scipy.linalg alone
        # adds about 22 MB to the peak memory of a 4000-replica study.
        src = os.path.dirname(os.path.dirname(gossip_sa.__file__))
        probe = (
            "import sys\n"
            "from gossip_sa.cli import main\n"
            "code = main(['clt', '--preset', 'scalar-clt', '--override', 'run.n_iter=300',\n"
            "             '--override', 'run.replicas=100', '--out', sys.argv[1]])\n"
            "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "clt")],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.splitlines()[-1] == "0 []"

    def test_power_run_leaves_scipy_unloaded(self, tmp_path):
        # The stationarity residual of power records goes through the
        # budget-simplex projection, so a power run needs no scipy module.
        src = os.path.dirname(os.path.dirname(gossip_sa.__file__))
        probe = (
            "import sys\n"
            "from gossip_sa.cli import main\n"
            "code = main(['run', '--preset', 'power-alloc', '--override', 'run.n_iter=300',\n"
            "             '--override', 'problem.power.mc_trials=20', '--out', sys.argv[1]])\n"
            "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "power")],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--preset", "quadratic-consensus", "--override", "run.n_iter=300"],
            ["clt", "--preset", "scalar-clt-xi1", "--replicas", "4000",
             "--override", "run.n_iter=300"],
            ["run", "--preset", "power-alloc", "--replicas", "500",
             "--override", "run.n_iter=20", "--override", "run.record_every=10",
             "--override", "problem.power.mc_trials=1"],
        ],
    )
    def test_blas_thread_count_leaves_outputs_unchanged(self, argv, tmp_path):
        # 4000 scalar replicas of 4 agents, or 500 power replicas of 4 agents
        # by 8 channels, are 16 000 entries per batch, above OpenBLAS's
        # threading size: no product may span the batch in a way whose
        # rounding depends on how many threads share it.
        src = os.path.dirname(os.path.dirname(gossip_sa.__file__))
        written = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            subprocess.run(
                [sys.executable, "-m", "gossip_sa.cli", *argv, "--out", str(out)],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                check=True,
            )
            files = sorted(p for p in out.rglob("*") if p.is_file())
            written.append({p.relative_to(out): p.read_bytes() for p in files})
        assert written[0] and written[0] == written[1]


# Malformed entries that once ended in a traceback, a runtime abort or a
# silent success: (preset, override, the dotted field the message names).
CENTERS = "problem.centers=[[{}], [0, 1], [-1, 0], [0, -1]]"
MALFORMED = [
    ("quadratic-consensus", CENTERS.format("a, 0"), "problem.centers"),
    ("quadratic-consensus", "graph.weights=[1, 1, 1, 1, a]", "graph.weights"),
    ("constrained-toy", "problem.constraint.lower=[a, 0]", "problem.constraint.lower"),
    ("constrained-toy", "problem.constraint.upper=[1, a]", "problem.constraint.upper"),
    (
        "quadratic-consensus",
        "problem.constraint={kind: halfspaces, normals: [[a, 0]], offsets: [1]}",
        "problem.constraint.normals",
    ),
    ("quadratic-consensus", CENTERS.format(".inf, 0"), "problem.centers"),
    ("constrained-toy", "problem.constraint.lower=[.nan, 0]", "problem.constraint.lower"),
    ("constrained-toy", "problem.constraint.upper=[1, .nan]", "problem.constraint.upper"),
    ("constrained-toy", "problem.constraint.lower=[.inf, 0]", "problem.constraint.lower"),
    ("constrained-toy", "problem.constraint.upper=[1, -.inf]", "problem.constraint.upper"),
    ("quadratic-consensus", CENTERS.format("1, true"), "problem.centers"),
    ("quadratic-consensus", "graph.weights=[1, 1, 1, 1, true]", "graph.weights"),
    ("quadratic-consensus", "graph.weights=[.inf, 1, 1, 1, 1]", "graph.weights"),
    ("quadratic-consensus", "problem.power={n_channels: 2}", "problem.power"),
    ("power-alloc", "problem.centers=[[0, 0], [0, 0], [0, 0], [0, 0]]", "problem.centers"),
    ("power-alloc", "problem.constraint={kind: box}", "problem.constraint"),
    ("power-alloc", "problem.noise_sigma=0.1", "problem.noise_sigma"),
    # Rejected while the run is built, by the library, yet named by field.
    ("quadratic-consensus", "graph.edges=[[1, 1], [1, 3], [2, 3], [2, 4], [3, 4]]", "graph.edges"),
    ("quadratic-consensus", "graph.edges=[[1, 2], [2, 1], [2, 3], [2, 4], [3, 4]]", "graph.edges"),
    ("quadratic-consensus", "graph.weights=[1.0e+308, 1.0e+308, 1, 1, 1]", "graph.weights"),
    ("constrained-toy", "problem.constraint.lower=[2, 0]", "problem.constraint"),
    (
        "constrained-toy",
        "problem.constraint={kind: box, lower: [-1.0e+308, 0], upper: [1.0e+308, 1]}",
        "problem.constraint",
    ),
    (
        "quadratic-consensus",
        "problem.constraint={kind: halfspaces, normals: [[1, 0], [-1, 0]], offsets: [-1, -1]}",
        "problem.constraint",
    ),
    (
        "quadratic-consensus",
        "problem.constraint={kind: halfspaces, normals: [[0, 0]], offsets: [1]}",
        "problem.constraint",
    ),
    ("quadratic-consensus", "problem.noise_sigma=1.0e+300", "problem.noise_sigma"),
    ("quadratic-consensus", "problem.noise_sigma=1e300", "problem.noise_sigma"),
    ("quadratic-consensus", "run.n_iter=1e4", "run.n_iter"),
    # Empty, though within the linear solver's own feasibility tolerance.
    (
        "constrained-toy",
        "problem.constraint={kind: halfspaces, normals: [[1.0, 0.0], [-1.0, 0.0]], "
        "offsets: [-1.0, 0.99999999]}",
        "problem.constraint",
    ),
]


def run_from(tmp_path, monkeypatch, preset, *overrides):
    """``gossip-sa run`` on a short preset run inside ``tmp_path``, warnings as errors."""
    monkeypatch.chdir(tmp_path)
    args = ["run", "--preset", preset, "--replicas", "1", "--override", "run.n_iter=20"]
    for item in overrides:
        args += ["--override", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(args)


class TestMalformedConfigs:
    @pytest.mark.parametrize("preset,override,name", MALFORMED)
    def test_exits_2_naming_the_field(self, tmp_path, monkeypatch, capsys, preset, override, name):
        assert run_from(tmp_path, monkeypatch, preset, override) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{name}" in err

    def test_open_box_sides_accepted(self, tmp_path, monkeypatch):
        lower, upper = "problem.constraint.lower=[-.inf, 0]", "problem.constraint.upper=[1, .inf]"
        assert run_from(tmp_path, monkeypatch, "constrained-toy", lower, upper) == 0

    @pytest.mark.parametrize(
        "lower,upper,bounds",
        [("[5, 5]", "[.inf, .inf]", (5.0, np.inf)), ("[-.inf, -.inf]", "[-5, -5]", (-np.inf, -5.0))],
    )
    def test_half_open_box_beyond_the_unit_start_runs(
        self, tmp_path, monkeypatch, lower, upper, bounds
    ):
        # The start once drew its open side from 1 (or -1) whatever the
        # finite bound, so here from a span with high < low: a traceback.
        overrides = (f"problem.constraint.lower={lower}", f"problem.constraint.upper={upper}")
        assert run_from(tmp_path, monkeypatch, "constrained-toy", *overrides, "run.n_iter=200") == 0
        (path,) = (tmp_path / "out" / "constrained-toy").glob("trace_*.csv")
        _, values = read_trace(path)
        averages = values[:, 5:]
        assert len(averages) == 20
        assert ((bounds[0] <= averages) & (averages <= bounds[1])).all()

    def test_validate_exits_2_naming_the_field(self, capsys):
        override = "problem.centers=[[a, 0], [0, 1], [-1, 0], [0, -1]]"
        code = main(["validate", "--preset", "quadratic-consensus", "--override", override])
        assert code == 2
        assert "'problem.centers" in capsys.readouterr().err


# Config key names, nested as in a config file.
SCHEMA_KEYS = {
    "problem": {
        "kind": None,
        "dim": None,
        "noise_sigma": None,
        "centers": None,
        "constraint": dict.fromkeys(["kind", "lower", "upper", "normals", "offsets"]),
        "power": dict.fromkeys(
            ["n_channels", "weights", "noise_vars", "budgets", "mc_trials", "channel_distribution"]
        ),
    },
    "graph": dict.fromkeys(["n_agents", "edges", "weights"]),
    "schedule": dict.fromkeys(["gamma0", "xi"]),
    "laziness": dict.fromkeys(["c", "eta"]),
    "run": dict.fromkeys(["n_iter", "seed", "replicas", "record_every", "override_checks"]),
    "output": dict.fromkeys(["directory"]),
}
LEAF_PATHS = [
    (section, key, *([sub] if sub else []))
    for section, keys in SCHEMA_KEYS.items()
    for key, subs in keys.items()
    for sub in (subs or [None])
]

# Small integers: sizes such as n_agents and dim set the arrays a build allocates.
SCALARS = st.one_of(
    st.none(),
    st.integers(-2, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from(["box", "halfspaces", "exponential", "constant", *PROBLEM_KINDS]),
)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=8)


def mappings(keys):
    """Mappings of some of ``keys`` (sections or junk values) plus a junk key."""
    optional = {k: (mappings(sub) | VALUES) if sub else VALUES for k, sub in keys.items()}
    return st.fixed_dictionaries({}, optional={**optional, "junk": VALUES})


def scalar_paths(node, path=()):
    """Paths of the scalar entries of a nested config, list entries included."""
    if not isinstance(node, (dict, list)):
        return [path]
    children = node.items() if isinstance(node, dict) else enumerate(node)
    return [p for key, child in children for p in scalar_paths(child, (*path, key))]


@st.composite
def altered_presets(draw):
    """A preset with a few schema keys set to arbitrary values and scalar entries replaced."""
    data = preset_dict(draw(st.sampled_from(preset_names())))
    for path in draw(st.lists(st.sampled_from(LEAF_PATHS), max_size=2)):
        node = data
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[path[-1]] = draw(VALUES)
    for _ in range(draw(st.integers(1, 2))):
        *parents, last = draw(st.sampled_from(scalar_paths(data)))
        node = data
        for key in parents:
            node = node[key]
        node[last] = draw(SCALARS)
    return data


@st.composite
def valid_configs(draw, full_range=False):
    """Config mappings that satisfy the schema, over every kind and option.

    Float entries range over +-1e6 (positive ones over [1e-6, 1e6], noise
    scales over [0, 10]); with ``full_range`` over every finite double of
    their sign.
    """
    finite, positive, sigma = st.floats(-1e6, 1e6), st.floats(1e-6, 1e6), st.floats(0.0, 10.0)
    if full_range:
        finite = st.floats(allow_nan=False, allow_infinity=False)
        positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
        sigma = st.floats(0.0, allow_infinity=False)

    def floats(strategy, n):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    n = draw(st.integers(2, 5))
    pairs = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique_by=tuple))
    graph = {"n_agents": n, "edges": edges}
    if draw(st.booleans()):
        graph["weights"] = floats(positive, len(edges))
    kind = draw(st.sampled_from(PROBLEM_KINDS))
    problem = {"kind": kind}
    if kind == "power-alloc":
        power = {"n_channels": draw(st.integers(1, 3)), "mc_trials": draw(st.integers(1, 50))}
        for key in ("weights", "noise_vars", "budgets"):
            if draw(st.booleans()):
                power[key] = floats(positive, n)
        power["channel_distribution"] = draw(st.sampled_from(["exponential", "constant"]))
        problem["power"] = power
    else:
        dim = draw(st.integers(1, 3))
        problem.update(dim=dim, noise_sigma=draw(sigma))
        if draw(st.booleans()):
            problem["centers"] = [floats(finite, dim) for _ in range(n)]
        constraint = draw(st.sampled_from([None, "box", "halfspaces"]))
        if constraint == "box":
            lower = floats(finite | st.just(-np.inf), dim)
            upper = [max(lo, up) for lo, up in zip(lower, floats(finite | st.just(np.inf), dim))]
            problem["constraint"] = {"kind": "box", "lower": lower, "upper": upper}
        elif constraint == "halfspaces":
            rows = draw(st.integers(1, 3))
            normals = [floats(finite, dim) for _ in range(rows)]
            problem["constraint"] = {
                "kind": "halfspaces", "normals": normals, "offsets": floats(finite, rows)
            }
    return {
        "problem": problem,
        "graph": graph,
        "schedule": {"gamma0": draw(positive), "xi": draw(st.floats(0.5, 1.0, exclude_min=True))},
        "laziness": {"c": draw(positive), "eta": draw(st.floats(0.0, 1.0))},
        "run": {
            "n_iter": draw(st.integers(1, 10**6)),
            "seed": draw(st.integers(0, 2**32)),
            "replicas": draw(st.integers(1, 1000)),
            "record_every": draw(st.integers(1, 1000)),
            "override_checks": draw(st.booleans()),
        },
        "output": {"directory": draw(st.text(min_size=1, max_size=8))},
    }


class TestSchemaProperties:
    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(mappings(SCHEMA_KEYS) | altered_presets() | valid_configs())
    def test_any_mapping_gives_a_spec_or_a_config_error(self, data):
        try:
            spec = spec_from_dict(data)
        except ConfigError:
            return
        assert spec_from_dict(spec.to_config_dict()) == spec
        try:
            build_run_config(spec)
        except ConfigError:
            pass

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(valid_configs())
    def test_round_trip_of_valid_specs(self, data):
        spec = spec_from_dict(data)
        assert spec_from_dict(spec.to_config_dict()) == spec

    @settings(
        max_examples=150, deadline=None, database=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(valid_configs(full_range=True), st.sampled_from(["run", "validate", "clt"]))
    def test_every_valid_config_ends_in_a_documented_exit_code(
        self, tmp_path, capsys, data, command
    ):
        # Floats over the whole double range: every run, check or study ends
        # in exit 0, 2, 3 or 4, without a traceback and without a numpy
        # warning (an error under this suite).
        run = data["run"]
        run["n_iter"] = min(run["n_iter"], 60)
        run["replicas"] = 100 if command == "clt" else min(run["replicas"], 3)
        if "power" in data["problem"]:
            power = data["problem"]["power"]
            power["mc_trials"] = min(power["mc_trials"], 20)
        data["output"]["directory"] = str(tmp_path / "fuzz")
        assert main([command, "--config", yaml.safe_dump(data)]) in (0, 2, 3, 4)
        assert "Traceback" not in capsys.readouterr().err


@st.composite
def boxes(draw):
    """A box of one to three sides, each end infinite or finite in [-10, 10]."""
    lower, upper = [], []
    for _ in range(draw(st.integers(1, 3))):
        a, b = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2)))
        lower.append(-math.inf if draw(st.booleans()) else a)
        upper.append(math.inf if draw(st.booleans()) else b)
    return lower, upper


class TestStartRule:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(boxes(), st.integers(0, 2**32))
    def test_box_start_is_feasible_and_keeps_every_working_draw(self, box, seed):
        lower, upper = np.array(box[0]), np.array(box[1])
        data = preset_dict("constrained-toy")
        del data["problem"]["centers"]
        data["problem"]["dim"] = len(lower)
        data["problem"]["constraint"] = {"kind": "box", "lower": box[0], "upper": box[1]}
        blocks = build_run_config(spec_from_dict(data)).initial_state(np.random.default_rng(seed))
        assert blocks.shape == (4, len(lower))
        assert np.isfinite(blocks).all()
        assert ((lower <= blocks) & (blocks <= upper)).all()
        # The rule's box: an open side reaches 1 past the finite one, or to +-1.
        low = np.where(np.isfinite(lower), lower, np.where(upper >= -1.0, -1.0, upper - 1.0))
        high = np.where(np.isfinite(upper), upper, np.where(low <= 1.0, 1.0, low + 1.0))
        assert ((low <= blocks) & (blocks <= high)).all()
        # Where the earlier rule, +-1 on every open side, gave a valid span,
        # the draw is that rule's, bit for bit.
        old_low = np.where(np.isfinite(lower), lower, -1.0)
        old_high = np.where(np.isfinite(upper), upper, 1.0)
        if (old_low <= old_high).all():
            old = np.random.default_rng(seed).uniform(old_low, old_high, size=(4, len(lower)))
            assert blocks.tobytes() == np.clip(old, lower, upper).tobytes()
