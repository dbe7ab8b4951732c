import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gossip_sa
from gossip_sa.cli import main
from gossip_sa.config import (
    PROBLEM_KINDS,
    ConfigError,
    apply_overrides,
    build_run_config,
    parse_config,
    preset_dict,
    preset_names,
    preset_spec,
    spec_from_dict,
)
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

    def test_step_underflowing_to_zero_runs(self, tmp_path, monkeypatch):
        # gamma(2) underflows to 0.0 from the smallest positive gamma0: a
        # zero step leaves the state in place instead of failing the run.
        assert run_from(tmp_path, monkeypatch, "quadratic-consensus", "schedule.gamma0=5.0e-324") == 0

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
def valid_configs(draw):
    """Config mappings that satisfy the schema, over every kind and option."""
    finite, positive = st.floats(-1e6, 1e6), st.floats(1e-6, 1e6)

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
        problem.update(dim=dim, noise_sigma=draw(st.floats(0.0, 10.0)))
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
    # A zero noise_sigma warns that the fluctuation law is degenerate.
    @pytest.mark.filterwarnings("ignore:noise covariance is not positive definite")
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
