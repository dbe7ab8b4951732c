"""Experiment configuration: YAML schema, named presets, assembly into runs.

Configs are nested key-value mappings with a strict schema: unknown keys
are rejected by name, and range violations are reported with the offending
value.  A top-level ``preset`` key loads one of the named presets first;
any other keys then override the preset's values.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .constraints import Box, ConstraintSet, Halfspaces, Unconstrained
from .core import Problem, RunConfig, StepSchedule
from .diagnostics import CltSpec
from .network import Graph, GossipModel
from .power import PowerScenario, build_power_problem, random_feasible_start

PROBLEM_KINDS = ("quadratic-consensus", "constrained-toy", "power-alloc")


class ConfigError(ValueError):
    """A configuration could not be parsed or failed validation."""


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    dim: int = 2
    noise_sigma: float = 0.1
    centers: tuple | None = None
    constraint: dict | None = None
    power: dict | None = None


@dataclass(frozen=True)
class GraphSpec:
    n_agents: int = 4
    edges: tuple = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    weights: tuple | None = None


@dataclass(frozen=True)
class ScheduleSpec:
    gamma0: float = 0.5
    xi: float = 0.75


@dataclass(frozen=True)
class LazinessSpec:
    c: float = 1.0
    eta: float = 0.0


@dataclass(frozen=True)
class RunSpec:
    n_iter: int = 10000
    seed: int = 0
    replicas: int = 1
    record_every: int = 10
    override_checks: bool = False


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"


@dataclass(frozen=True)
class ExperimentSpec:
    problem: ProblemSpec
    graph: GraphSpec = field(default_factory=GraphSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    laziness: LazinessSpec = field(default_factory=LazinessSpec)
    run: RunSpec = field(default_factory=RunSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def to_config_dict(self) -> dict:
        """Nested plain mapping carrying every semantic field of the spec."""
        problem: dict = {
            "kind": self.problem.kind,
            "dim": self.problem.dim,
            "noise_sigma": self.problem.noise_sigma,
        }
        if self.problem.centers is not None:
            problem["centers"] = [list(c) for c in self.problem.centers]
        if self.problem.constraint is not None:
            problem["constraint"] = copy.deepcopy(self.problem.constraint)
        if self.problem.power is not None:
            problem["power"] = copy.deepcopy(self.problem.power)
        graph: dict = {
            "n_agents": self.graph.n_agents,
            "edges": [list(e) for e in self.graph.edges],
        }
        if self.graph.weights is not None:
            graph["weights"] = list(self.graph.weights)
        return {
            "problem": problem,
            "graph": graph,
            "schedule": {"gamma0": self.schedule.gamma0, "xi": self.schedule.xi},
            "laziness": {"c": self.laziness.c, "eta": self.laziness.eta},
            "run": {
                "n_iter": self.run.n_iter,
                "seed": self.run.seed,
                "replicas": self.run.replicas,
                "record_every": self.run.record_every,
                "override_checks": self.run.override_checks,
            },
            "output": {"directory": self.output.directory},
        }


_ALLOWED_KEYS = {
    "": {"problem", "graph", "schedule", "laziness", "run", "output"},
    "problem": {"kind", "dim", "noise_sigma", "centers", "constraint", "power"},
    "problem.constraint": {"kind", "lower", "upper", "normals", "offsets"},
    "problem.power": {
        "n_channels",
        "weights",
        "noise_vars",
        "budgets",
        "mc_trials",
        "channel_distribution",
    },
    "graph": {"n_agents", "edges", "weights"},
    "schedule": {"gamma0", "xi"},
    "laziness": {"c", "eta"},
    "run": {"n_iter", "seed", "replicas", "record_every", "override_checks"},
    "output": {"directory"},
}


def _check_keys(mapping: dict, path: str) -> None:
    allowed = _ALLOWED_KEYS.get(path)
    if allowed is None:
        return
    for key in mapping:
        full = f"{path}.{key}" if path else str(key)
        if key not in allowed:
            raise ConfigError(f"unknown key '{full}'")
        value = mapping[key]
        if isinstance(value, dict):
            _check_keys(value, full)


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return value


def _get_int(section: dict, key: str, default: int, path: str, minimum: int | None = None) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}.{key}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{path}.{key}' must be >= {minimum}, got {value}")
    return value


def _get_float(section: dict, key: str, default: float, path: str) -> float:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}.{key}' must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"'{path}.{key}' must be finite, got {value!r}")
    return value


def _get_bool(section: dict, key: str, default: bool, path: str) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"'{path}.{key}' must be a boolean, got {value!r}")
    return value


def _merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config_dict(source: str | Path) -> dict:
    """Read a config mapping from a YAML file path or inline YAML text.

    A top-level ``preset`` key is resolved here: the named preset supplies
    defaults and the remaining keys override them.
    """
    if isinstance(source, Path) or (
        isinstance(source, str) and "\n" not in source and Path(source).expanduser().is_file()
    ):
        text = Path(source).expanduser().read_text()
    else:
        text = str(source)
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"malformed config{where}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(
            "config must be a key-value mapping "
            "(if this was meant to be a file path, the file does not exist)"
        )
    preset = data.pop("preset", None)
    if preset is not None:
        if not isinstance(preset, str):
            raise ConfigError("'preset' must be a preset name")
        data = _merge(preset_dict(preset), data)
    return data


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Validate a config mapping and build the experiment spec."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a key-value mapping")
    data = copy.deepcopy(data)
    if "preset" in data:
        data = _merge(preset_dict(str(data.pop("preset"))), data)
    _check_keys(data, "")

    problem_raw = _section(data, "problem")
    kind = problem_raw.get("kind")
    if kind not in PROBLEM_KINDS:
        raise ConfigError(
            f"'problem.kind' must be one of {', '.join(PROBLEM_KINDS)}, got {kind!r}"
        )

    graph_raw = _section(data, "graph")
    n_agents = _get_int(graph_raw, "n_agents", GraphSpec.n_agents, "graph", minimum=2)
    edges_raw = graph_raw.get("edges", [list(e) for e in GraphSpec.edges])
    if not isinstance(edges_raw, list) or not edges_raw:
        raise ConfigError("'graph.edges' must be a nonempty list of [i, j] pairs")
    edges = []
    for entry in edges_raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in entry)
        ):
            raise ConfigError(f"'graph.edges' entries must be [i, j] integer pairs, got {entry!r}")
        i, j = int(entry[0]), int(entry[1])
        if i == j or not (1 <= i <= n_agents) or not (1 <= j <= n_agents):
            raise ConfigError(
                f"'graph.edges' entry {entry!r} must join two distinct agents in [1, {n_agents}]"
            )
        edges.append((i, j))
    weights_raw = graph_raw.get("weights")
    weights = None
    if weights_raw is not None:
        if not isinstance(weights_raw, list) or len(weights_raw) != len(edges):
            raise ConfigError("'graph.weights' must list one positive weight per edge")
        weights = tuple(float(w) for w in weights_raw)
        if any(w <= 0 for w in weights):
            raise ConfigError("'graph.weights' must be positive")
    graph_spec = GraphSpec(n_agents=n_agents, edges=tuple(edges), weights=weights)

    schedule_raw = _section(data, "schedule")
    gamma0 = _get_float(schedule_raw, "gamma0", ScheduleSpec.gamma0, "schedule")
    xi = _get_float(schedule_raw, "xi", ScheduleSpec.xi, "schedule")
    if gamma0 <= 0:
        raise ConfigError(f"'schedule.gamma0' must be positive, got {gamma0}")
    if not 0.5 < xi <= 1.0:
        raise ConfigError(f"'schedule.xi' must be in (1/2, 1], got {xi}")

    laziness_raw = _section(data, "laziness")
    lag_c = _get_float(laziness_raw, "c", LazinessSpec.c, "laziness")
    lag_eta = _get_float(laziness_raw, "eta", LazinessSpec.eta, "laziness")
    if lag_c <= 0:
        raise ConfigError(f"'laziness.c' must be positive, got {lag_c}")
    if lag_eta < 0:
        raise ConfigError(f"'laziness.eta' must be nonnegative, got {lag_eta}")

    run_raw = _section(data, "run")
    run_spec = RunSpec(
        n_iter=_get_int(run_raw, "n_iter", RunSpec.n_iter, "run", minimum=1),
        seed=_get_int(run_raw, "seed", RunSpec.seed, "run", minimum=0),
        replicas=_get_int(run_raw, "replicas", RunSpec.replicas, "run", minimum=1),
        record_every=_get_int(run_raw, "record_every", RunSpec.record_every, "run", minimum=1),
        override_checks=_get_bool(run_raw, "override_checks", RunSpec.override_checks, "run"),
    )

    output_raw = _section(data, "output")
    directory = output_raw.get("directory", OutputSpec.directory)
    if not isinstance(directory, str) or not directory:
        raise ConfigError("'output.directory' must be a nonempty string")

    problem_spec = _validate_problem(problem_raw, kind, graph_spec)

    return ExperimentSpec(
        problem=problem_spec,
        graph=graph_spec,
        schedule=ScheduleSpec(gamma0=gamma0, xi=xi),
        laziness=LazinessSpec(c=lag_c, eta=lag_eta),
        run=run_spec,
        output=OutputSpec(directory=directory),
    )


def _validate_problem(problem_raw: dict, kind: str, graph_spec: GraphSpec) -> ProblemSpec:
    n_agents = graph_spec.n_agents
    if kind == "power-alloc":
        power_raw = problem_raw.get("power") or {}
        if not isinstance(power_raw, dict):
            raise ConfigError("'problem.power' must be a mapping")
        n_channels = _get_int(power_raw, "n_channels", 2, "problem.power", minimum=1)
        power = {
            "n_channels": n_channels,
            "weights": _positive_list(power_raw, "weights", n_agents, default=1.0),
            "noise_vars": _positive_list(power_raw, "noise_vars", n_agents, default=0.1),
            "budgets": _positive_list(power_raw, "budgets", n_agents, default=1.0),
            "mc_trials": _get_int(power_raw, "mc_trials", 1000, "problem.power", minimum=1),
            "channel_distribution": power_raw.get("channel_distribution", "exponential"),
        }
        if power["channel_distribution"] not in ("exponential", "constant"):
            raise ConfigError(
                "'problem.power.channel_distribution' must be 'exponential' or 'constant'"
            )
        if "dim" in problem_raw and problem_raw["dim"] != n_agents * n_channels:
            raise ConfigError(
                "'problem.dim' for power-alloc is n_agents * n_channels; omit it or match"
            )
        return ProblemSpec(kind=kind, dim=n_agents * n_channels, noise_sigma=0.0, power=power)

    dim = _get_int(problem_raw, "dim", ProblemSpec.dim, "problem", minimum=1)
    noise_sigma = _get_float(problem_raw, "noise_sigma", ProblemSpec.noise_sigma, "problem")
    if noise_sigma < 0:
        raise ConfigError(f"'problem.noise_sigma' must be nonnegative, got {noise_sigma}")
    centers = problem_raw.get("centers")
    if centers is not None:
        if (
            not isinstance(centers, list)
            or len(centers) != n_agents
            or any(not isinstance(c, list) or len(c) != dim for c in centers)
        ):
            raise ConfigError(
                f"'problem.centers' must be {n_agents} lists of {dim} numbers each"
            )
        centers = tuple(tuple(float(v) for v in c) for c in centers)

    constraint_raw = problem_raw.get("constraint")
    if kind == "constrained-toy" and constraint_raw is None:
        constraint_raw = {"kind": "box", "lower": [0.0] * dim, "upper": [1.0] * dim}
    if constraint_raw is not None:
        constraint_raw = _validate_constraint(constraint_raw, dim)

    return ProblemSpec(
        kind=kind,
        dim=dim,
        noise_sigma=noise_sigma,
        centers=centers,
        constraint=constraint_raw,
    )


def _positive_list(section: dict, key: str, length: int, default: float) -> list[float]:
    value = section.get(key)
    if value is None:
        return [float(default)] * length
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"'problem.power.{key}' must list {length} positive numbers")
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or float(v) <= 0:
            raise ConfigError(f"'problem.power.{key}' must list positive numbers, got {v!r}")
        out.append(float(v))
    return out


def _validate_constraint(raw: dict, dim: int) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("'problem.constraint' must be a mapping")
    ckind = raw.get("kind")
    if ckind == "box":
        lower = raw.get("lower", [0.0] * dim)
        upper = raw.get("upper", [1.0] * dim)
        for name, bounds in (("lower", lower), ("upper", upper)):
            if not isinstance(bounds, list) or len(bounds) != dim:
                raise ConfigError(f"'problem.constraint.{name}' must list {dim} numbers")
        return {"kind": "box", "lower": [float(v) for v in lower], "upper": [float(v) for v in upper]}
    if ckind == "halfspaces":
        normals = raw.get("normals")
        offsets = raw.get("offsets")
        if not isinstance(normals, list) or not isinstance(offsets, list):
            raise ConfigError("'problem.constraint' halfspaces need 'normals' and 'offsets'")
        if len(normals) != len(offsets) or any(
            not isinstance(row, list) or len(row) != dim for row in normals
        ):
            raise ConfigError(
                f"'problem.constraint.normals' must be rows of {dim} numbers, one offset each"
            )
        return {
            "kind": "halfspaces",
            "normals": [[float(v) for v in row] for row in normals],
            "offsets": [float(v) for v in offsets],
        }
    raise ConfigError(
        f"'problem.constraint.kind' must be 'box' or 'halfspaces', got {ckind!r}"
    )


def parse_config(source: str | Path) -> ExperimentSpec:
    """Parse and validate a config from a file path or inline YAML text."""
    return spec_from_dict(load_config_dict(source))


def apply_overrides(data: dict, overrides) -> dict:
    """Apply ``key.path=value`` override strings to a config mapping."""
    result = copy.deepcopy(data)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' must look like section.key=value")
        raw_path, _, raw_value = item.partition("=")
        keys = [k for k in raw_path.strip().split(".") if k]
        if not keys:
            raise ConfigError(f"override '{item}' has an empty key path")
        try:
            value = yaml.safe_load(raw_value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override '{item}' has an unparsable value: {exc}") from exc
        node = result
        for key in keys[:-1]:
            nxt = node.get(key)
            if not isinstance(nxt, dict):
                nxt = {}
                node[key] = nxt
            node = nxt
        node[keys[-1]] = value
    return result


# --- Named presets -----------------------------------------------------

_FOUR_NODE_EDGES = [[1, 2], [1, 3], [2, 3], [2, 4], [3, 4]]


def _circle_centers(n_agents: int, dim: int) -> list[list[float]]:
    """Deterministic default centers: spread on the unit circle (first coords)."""
    centers = []
    for i in range(n_agents):
        angle = 2.0 * math.pi * i / n_agents
        c = [0.0] * dim
        c[0] = math.cos(angle)
        if dim > 1:
            c[1] = math.sin(angle)
        centers.append(c)
    return centers


_PRESETS: dict[str, dict] = {
    "quadratic-consensus": {
        "problem": {
            "kind": "quadratic-consensus",
            "dim": 2,
            "noise_sigma": 0.1,
            "centers": _circle_centers(4, 2),
        },
        "graph": {"n_agents": 4, "edges": copy.deepcopy(_FOUR_NODE_EDGES)},
        "schedule": {"gamma0": 0.5, "xi": 0.75},
        "laziness": {"c": 1.0, "eta": 0.0},
        "run": {"n_iter": 10000, "seed": 7, "replicas": 20, "record_every": 10},
        "output": {"directory": "out/quadratic-consensus"},
    },
    "constrained-toy": {
        "problem": {
            "kind": "constrained-toy",
            "dim": 2,
            "noise_sigma": 0.1,
            "centers": [[1.25, 0.25], [1.25, 0.75], [1.75, 0.25], [1.75, 0.75]],
            "constraint": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        },
        "graph": {"n_agents": 4, "edges": copy.deepcopy(_FOUR_NODE_EDGES)},
        "schedule": {"gamma0": 0.5, "xi": 0.75},
        "laziness": {"c": 1.0, "eta": 0.0},
        "run": {"n_iter": 10000, "seed": 11, "replicas": 20, "record_every": 10},
        "output": {"directory": "out/constrained-toy"},
    },
    "scalar-clt": {
        "problem": {
            "kind": "quadratic-consensus",
            "dim": 1,
            "noise_sigma": 1.0,
            "centers": [[0.0], [0.0], [0.0], [0.0]],
        },
        "graph": {"n_agents": 4, "edges": copy.deepcopy(_FOUR_NODE_EDGES)},
        "schedule": {"gamma0": 0.5, "xi": 0.75},
        "laziness": {"c": 1.0, "eta": 0.0},
        "run": {"n_iter": 100000, "seed": 21, "replicas": 500, "record_every": 10000},
        "output": {"directory": "out/scalar-clt"},
    },
    "scalar-clt-xi1": {
        "problem": {
            "kind": "quadratic-consensus",
            "dim": 1,
            "noise_sigma": 1.0,
            "centers": [[0.0], [0.0], [0.0], [0.0]],
        },
        "graph": {"n_agents": 4, "edges": copy.deepcopy(_FOUR_NODE_EDGES)},
        "schedule": {"gamma0": 1.0, "xi": 1.0},
        "laziness": {"c": 1.0, "eta": 0.0},
        "run": {"n_iter": 100000, "seed": 22, "replicas": 500, "record_every": 10000},
        "output": {"directory": "out/scalar-clt-xi1"},
    },
    "power-alloc": {
        "problem": {
            "kind": "power-alloc",
            "power": {
                "n_channels": 2,
                "weights": [0.3, 0.2, 0.3, 0.2],
                "noise_vars": [0.1, 0.05, 0.02, 0.1],
                "budgets": [1.0, 1.0, 1.0, 1.0],
                "mc_trials": 1000,
                "channel_distribution": "exponential",
            },
        },
        "graph": {"n_agents": 4, "edges": copy.deepcopy(_FOUR_NODE_EDGES)},
        "schedule": {"gamma0": 1.0, "xi": 1.0},
        "laziness": {"c": 1.0, "eta": 0.0},
        "run": {"n_iter": 10000, "seed": 5, "replicas": 1, "record_every": 100},
        "output": {"directory": "out/power-alloc"},
    },
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset_dict(name: str) -> dict:
    """Deep copy of the named preset's config mapping."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return copy.deepcopy(_PRESETS[name])


def preset_spec(name: str) -> ExperimentSpec:
    return spec_from_dict(preset_dict(name))


# --- Assembly into engine objects --------------------------------------


def _build_constraint(raw: dict | None, dim: int) -> ConstraintSet:
    if raw is None:
        return Unconstrained(dim)
    if raw["kind"] == "box":
        return Box(raw["lower"], raw["upper"])
    return Halfspaces(raw["normals"], raw["offsets"])


def _build_quadratic(spec: ExperimentSpec):
    problem_spec = spec.problem
    dim = problem_spec.dim
    n_agents = spec.graph.n_agents
    if problem_spec.centers is not None:
        centers = np.asarray(problem_spec.centers, dtype=float)
    else:
        centers = np.asarray(_circle_centers(n_agents, dim), dtype=float)
    constraint = _build_constraint(problem_spec.constraint, dim)
    sigma = problem_spec.noise_sigma

    def objective(average, rng):
        return float(0.5 * np.sum((average - centers) ** 2))

    clt_spec = None
    if isinstance(constraint, Unconstrained):
        # Averaged drift of the quadratic network: -(theta - mean center).
        clt_spec = CltSpec(
            theta_star=centers.mean(axis=0),
            drift_jacobian=-np.eye(dim),
            noise_cov=(sigma**2 / n_agents) * np.eye(dim),
        )

    stacked = centers

    def gradient(theta):
        # Against a stack of replicas, subtracting centers tiled to the full
        # shape gives the broadcast difference bit for bit, several times
        # faster; the last tiling is kept for the next call.
        nonlocal stacked
        if theta.ndim <= centers.ndim:
            return theta - centers
        if stacked.shape != theta.shape:
            stacked = np.broadcast_to(centers, theta.shape).copy()
        return theta - stacked

    problem = Problem(
        dim=dim,
        n_agents=n_agents,
        gradient=gradient,
        constraint=constraint,
        noise_scale=sigma,
        objective=objective,
        clt_spec=clt_spec,
    )

    if isinstance(constraint, Box):
        low = np.where(np.isfinite(constraint.lower), constraint.lower, -1.0)
        high = np.where(np.isfinite(constraint.upper), constraint.upper, 1.0)
    else:
        low, high = -1.0, 1.0

    def initial(rng):
        blocks = rng.uniform(low, high, size=(n_agents, dim))
        return constraint.project(blocks)

    return problem, initial


def _build_power(spec: ExperimentSpec):
    power = spec.problem.power
    scenario = PowerScenario(
        n_users=spec.graph.n_agents,
        n_channels=power["n_channels"],
        budgets=np.asarray(power["budgets"], dtype=float),
        noise_vars=np.asarray(power["noise_vars"], dtype=float),
        weights=np.asarray(power["weights"], dtype=float),
        channel_distribution=power["channel_distribution"],
    )
    problem = build_power_problem(scenario, mc_trials=power["mc_trials"])
    initial = random_feasible_start(scenario, spec.graph.n_agents)
    return problem, initial


def build_run_config(spec: ExperimentSpec) -> RunConfig:
    """Assemble a validated experiment spec into a runnable configuration."""
    try:
        graph = Graph.from_edges(spec.graph.n_agents, spec.graph.edges, spec.graph.weights)
        gossip = GossipModel(
            graph, activation_scale=spec.laziness.c, activation_decay=spec.laziness.eta
        )
        schedule = StepSchedule(gamma0=spec.schedule.gamma0, xi=spec.schedule.xi)
        if spec.problem.kind == "power-alloc":
            problem, initial = _build_power(spec)
        else:
            problem, initial = _build_quadratic(spec)
        return RunConfig(
            problem=problem,
            gossip=gossip,
            schedule=schedule,
            initial_state=initial,
            n_iter=spec.run.n_iter,
            seed=spec.run.seed,
            replicas=spec.run.replicas,
            record_every=spec.run.record_every,
            override_checks=spec.run.override_checks,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "GraphSpec",
    "LazinessSpec",
    "OutputSpec",
    "ProblemSpec",
    "RunSpec",
    "ScheduleSpec",
    "apply_overrides",
    "build_run_config",
    "load_config_dict",
    "parse_config",
    "preset_dict",
    "preset_names",
    "preset_spec",
    "spec_from_dict",
]
