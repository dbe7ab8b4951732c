"""Experiment configuration: YAML schema, named presets, assembly into runs.

Each config key is declared once, on a field of the spec dataclasses or in
the ``problem.constraint`` and ``problem.power`` tables, with its type,
range, shape, default and the kinds it applies to.  One walk over those
declarations rejects unknown keys, parses and validates a mapping (naming
any malformed value by its dotted path) and renders a spec back into one.
A top-level ``preset`` key loads a named preset that the other keys override.
"""

from __future__ import annotations

import copy
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .constraints import Box, ConstraintSet, Halfspaces, Unconstrained
from .core import Problem, RunConfig, StepSchedule
from .diagnostics import CltSpec
from .network import Graph, GossipModel
from .power import CHANNEL_LAWS, PowerScenario, build_power_problem

PROBLEM_KINDS = ("quadratic-consensus", "constrained-toy", "power-alloc")
_QUADRATIC = ("quadratic-consensus", "constrained-toy")


class ConfigError(ValueError):
    """A configuration could not be parsed or failed validation."""


class _Loader(yaml.SafeLoader):
    """Safe YAML that reads exponent literals as floats, by the YAML 1.2 rule.

    PyYAML follows YAML 1.1, where a float with an exponent also needs a dot
    and a signed exponent, so ``5e-1``, ``1e300`` and ``1.0e3`` would load as
    strings.  Plain integers match no exponent and stay ``int``.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def _load_yaml(text: str):
    return yaml.load(text, Loader=_Loader)


# --- The schema walk ---------------------------------------------------
# ``ctx`` maps the dotted path of every value parsed so far to the value, so
# that ranges, shapes and defaults can refer to earlier fields.

_REQUIRED = object()


class _Field(NamedTuple):
    """Schema of one config key."""

    type: object  # float, int, bool, str, a tuple of choices, a key table or a spec class
    default: object = None  # used for an absent or null key; may be a function of ctx
    range: str = "(-inf, inf)"  # interval holding a number; finite by default
    shape: tuple = ()  # list lengths, outermost first: counts, paths or intervals
    kinds: tuple | None = None  # kinds of the enclosing mapping it applies to; None: all
    off: object = None  # value held where it does not apply; may be a function of ctx


def _f(*args, **kwargs):
    """A spec dataclass field declared by its schema."""
    return field(metadata={"schema": _Field(*args, **kwargs)})


def _table(cls) -> dict:
    return {f.name: f.metadata["schema"] for f in fields(cls)}


def _end(text, ctx: dict):
    """A count or interval endpoint: a number, ``inf``, a ratio such as ``1/2``,
    or the path of a parsed value (a parsed list stands for its length)."""
    if text in ctx:
        value = ctx[text]
        return len(value) if isinstance(value, tuple) else value
    if isinstance(text, int):
        return text
    num, _, den = text.partition("/")
    return float(num) / float(den or 1)


def _outside(interval: str, value, ctx: dict) -> str:
    """``""`` if ``value`` lies in ``interval``, else the interval as messages show it.

    Infinity passes only where the interval is closed at infinity, and NaN
    never passes.
    """
    texts = interval[1:-1].split(", ")
    lo, hi = (_end(t, ctx) for t in texts)
    if (lo < value or (interval[0] == "[" and value == lo)) and (
        value < hi or (interval[-1] == "]" and value == hi)
    ):
        return ""
    shown = ", ".join(str(_end(t, ctx)) if t in ctx else t for t in texts)
    return f"{interval[0]}{shown}{interval[-1]}"


def _parse(schema: _Field, value, path: str, ctx: dict, depth: int = 0):
    """Parse the raw value at ``path`` (``depth`` list levels into its shape)."""
    if depth < len(schema.shape):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"'{path}' must be a list, got {value!r}")
        length = schema.shape[depth]
        if isinstance(length, str) and length[0] in "[(":
            if shown := _outside(length, len(value), ctx):
                raise ConfigError(f"'{path}' must have a length in {shown}, got {value!r}")
        elif len(value) != _end(length, ctx):
            raise ConfigError(f"'{path}' must list {_end(length, ctx)} entries, got {value!r}")
        return tuple(_parse(schema, v, f"{path}[{i}]", ctx, depth + 1) for i, v in enumerate(value))
    kind = schema.type
    if isinstance(kind, dict):  # a sub-mapping keeps the keys that hold a value
        return _dump(_walk(kind, value, path, ctx))
    if is_dataclass(kind):
        return kind(**_walk(_table(kind), value, path, ctx))
    if kind is str or isinstance(kind, tuple):
        if not isinstance(value, str) or not value or (kind is not str and value not in kind):
            wanted = "a nonempty string" if kind is str else f"one of {', '.join(kind)}"
            raise ConfigError(f"'{path}' must be {wanted}, got {value!r}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"'{path}' must be a boolean, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        wanted = "an integer" if kind is int else "a number"
        raise ConfigError(f"'{path}' must be {wanted}, got {value!r}")
    try:
        value = kind(value)
    except OverflowError:
        raise ConfigError(f"'{path}' is out of range, got {value!r}") from None
    if shown := _outside(schema.range, value, ctx):
        raise ConfigError(f"'{path}' must be in {shown}, got {value!r}")
    return value


def _walk(table: dict, raw, path: str, ctx: dict) -> dict:
    """Parse one mapping against its key table, in declaration order."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"'{path}' must be a mapping, got {raw!r}")
    prefix = f"{path}." if path else ""
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    values: dict = {}
    for name, schema in table.items():
        where, value, kind = prefix + name, raw.get(name), values.get("kind")
        if schema.kinds is not None and kind not in schema.kinds:
            if value is not None:
                raise ConfigError(f"'{where}' does not apply to {path}.kind {kind!r}")
            value = schema.off(ctx) if callable(schema.off) else schema.off
        else:
            if value is None:
                value = schema.default(ctx) if callable(schema.default) else schema.default
            if value is _REQUIRED:
                raise ConfigError(f"'{where}' is required")
            if value is not None:
                value = _parse(schema, value, where, ctx)
        values[name] = ctx[where] = value
    return values


def _dump(value):
    """Plain data of a spec: the fields that apply and hold a value, lists for tuples."""
    if is_dataclass(value):
        kind = getattr(value, "kind", None)
        applies = [k for k, f in _table(value).items() if f.kinds is None or kind in f.kinds]
        value = {k: getattr(value, k) for k in applies}
    if isinstance(value, dict):
        return {k: _dump(v) for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_dump(v) for v in value]
    return value


# --- The schema --------------------------------------------------------


def _repeat(value: float, count: str):
    return lambda ctx: [value] * ctx[count]


_BOX, _HALFSPACES = ("box",), ("halfspaces",)

_CONSTRAINT = {
    "kind": _Field(("box", "halfspaces"), _REQUIRED),
    # Box bounds may be infinite on the open side only.
    "lower": _Field(float, _repeat(0.0, "problem.dim"), "[-inf, inf)", ("problem.dim",), _BOX),
    "upper": _Field(float, _repeat(1.0, "problem.dim"), "(-inf, inf]", ("problem.dim",), _BOX),
    "normals": _Field(float, _REQUIRED, shape=("[1, inf)", "problem.dim"), kinds=_HALFSPACES),
    "offsets": _Field(float, _REQUIRED, shape=("problem.constraint.normals",), kinds=_HALFSPACES),
}

_PER_USER = ("graph.n_agents",)

_POWER = {
    "n_channels": _Field(int, 2, "[1, inf)"),
    "weights": _Field(float, _repeat(1.0, "graph.n_agents"), "(0, inf)", _PER_USER),
    "noise_vars": _Field(float, _repeat(0.1, "graph.n_agents"), "(0, inf)", _PER_USER),
    "budgets": _Field(float, _repeat(1.0, "graph.n_agents"), "(0, inf)", _PER_USER),
    "mc_trials": _Field(int, 1000, "[1, inf)"),
    "channel_distribution": _Field(tuple(CHANNEL_LAWS), "exponential"),
}


def _power_dim(ctx: dict) -> int:
    return ctx["graph.n_agents"] * ctx["problem.power"]["n_channels"]


def _unit_box(ctx: dict):
    return {"kind": "box"} if ctx["problem.kind"] == "constrained-toy" else None


def _circle_centers(ctx: dict) -> list[list[float]]:
    """Agents spread on the unit circle, in the first two coordinates."""
    n_agents, dim = ctx["graph.n_agents"], ctx["problem.dim"]
    angles = [2.0 * math.pi * i / n_agents for i in range(n_agents)]
    return [([math.cos(a), math.sin(a)] + [0.0] * dim)[:dim] for a in angles]


_FOUR_NODE_EDGES = [[1, 2], [1, 3], [2, 3], [2, 4], [3, 4]]


@dataclass(frozen=True)
class GraphSpec:
    n_agents: int = _f(int, 4, "[2, inf)")
    edges: tuple = _f(int, _FOUR_NODE_EDGES, "[1, graph.n_agents]", ("[1, inf)", 2))
    weights: tuple | None = _f(float, None, "(0, inf)", ("graph.edges",))


@dataclass(frozen=True)
class ProblemSpec:
    kind: str = _f(PROBLEM_KINDS, _REQUIRED)
    power: dict | None = _f(_POWER, {}, kinds=("power-alloc",))
    # power-alloc derives the dimension: every agent holds all users' powers.
    dim: int = _f(int, 2, "[1, inf)", kinds=_QUADRATIC, off=_power_dim)
    noise_sigma: float = _f(float, 0.1, "[0, inf)", kinds=_QUADRATIC, off=0.0)
    centers: tuple | None = _f(
        float, _circle_centers, shape=("graph.n_agents", "problem.dim"), kinds=_QUADRATIC
    )
    constraint: dict | None = _f(_CONSTRAINT, _unit_box, kinds=_QUADRATIC)


@dataclass(frozen=True)
class ScheduleSpec:
    gamma0: float = _f(float, 0.5, "(0, inf)")
    xi: float = _f(float, 0.75, "(1/2, 1]")


@dataclass(frozen=True)
class LazinessSpec:
    c: float = _f(float, 1.0, "(0, inf)")
    eta: float = _f(float, 0.0, "[0, inf)")


@dataclass(frozen=True)
class RunSpec:
    n_iter: int = _f(int, 10000, "[1, inf)")
    seed: int = _f(int, 0, "[0, inf)")
    replicas: int = _f(int, 1, "[1, inf)")
    record_every: int = _f(int, 10, "[1, inf)")
    override_checks: bool = _f(bool, False)


@dataclass(frozen=True)
class OutputSpec:
    directory: str = _f(str, "out")


@dataclass(frozen=True)
class ExperimentSpec:
    # Sections parse in this order: the problem's shapes refer to the graph.
    graph: GraphSpec = _f(GraphSpec, {})
    problem: ProblemSpec = _f(ProblemSpec, {})
    schedule: ScheduleSpec = _f(ScheduleSpec, {})
    laziness: LazinessSpec = _f(LazinessSpec, {})
    run: RunSpec = _f(RunSpec, {})
    output: OutputSpec = _f(OutputSpec, {})

    def to_config_dict(self) -> dict:
        """Nested plain mapping of every field that applies to the problem kind."""
        return _dump(self)


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
    # os.path.isfile is False, not an error, for text too long to be a path.
    is_path = isinstance(source, Path) or (
        isinstance(source, str) and "\n" not in source and os.path.isfile(os.path.expanduser(source))
    )
    text = Path(source).expanduser().read_text() if is_path else str(source)
    try:
        data = _load_yaml(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"malformed config{where}: {exc}") from exc
    data = {} if data is None else data
    if not isinstance(data, dict):
        hint = "if this was meant to be a file path, the file does not exist"
        raise ConfigError(f"config must be a key-value mapping ({hint})")
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
    return _parse(_Field(ExperimentSpec), data, "", {})


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
            value = _load_yaml(raw_value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override '{item}' has an unparsable value: {exc}") from exc
        node = result
        for key in keys[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[keys[-1]] = value
    return result


# --- Named presets -----------------------------------------------------
# A preset names only what differs from the schema's defaults.

_SCALAR = {"kind": "quadratic-consensus", "dim": 1, "noise_sigma": 1.0, "centers": [[0.0]] * 4}
_CLT_RUN = {"n_iter": 100000, "replicas": 500, "record_every": 10000}
_XI1 = {"gamma0": 1.0, "xi": 1.0}

_PRESETS: dict[str, dict] = {
    "quadratic-consensus": {
        "problem": {"kind": "quadratic-consensus"},
        "run": {"seed": 7, "replicas": 20},
    },
    "constrained-toy": {
        "problem": {
            "kind": "constrained-toy",
            "centers": [[1.25, 0.25], [1.25, 0.75], [1.75, 0.25], [1.75, 0.75]],
        },
        "run": {"seed": 11, "replicas": 20},
    },
    "scalar-clt": {"problem": _SCALAR, "run": {"seed": 21, **_CLT_RUN}},
    "scalar-clt-xi1": {"problem": _SCALAR, "schedule": _XI1, "run": {"seed": 22, **_CLT_RUN}},
    "power-alloc": {
        "problem": {
            "kind": "power-alloc",
            "power": {"weights": [0.3, 0.2, 0.3, 0.2], "noise_vars": [0.1, 0.05, 0.02, 0.1]},
        },
        "schedule": _XI1,
        "run": {"seed": 5, "record_every": 100},
    },
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset_dict(name: str) -> dict:
    """The named preset, resolved through the schema to every key that applies."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    data = {**_PRESETS[name], "output": {"directory": f"out/{name}"}}
    return spec_from_dict(data).to_config_dict()


# --- Assembly into engine objects --------------------------------------


@contextmanager
def _naming(path: str):
    """Report a library error raised inside the block as a config error naming ``path``."""
    try:
        yield
    except OverflowError as exc:
        raise ConfigError(f"'{path}': a value derived from it overflows") from exc
    except ValueError as exc:
        raise ConfigError(f"'{path}': {exc}") from exc


def _build_constraint(raw: dict | None, dim: int) -> ConstraintSet:
    if raw is None:
        return Unconstrained(dim)
    if raw["kind"] == "box":
        return Box(raw["lower"], raw["upper"])
    return Halfspaces(raw["normals"], raw["offsets"])


def _start_box(constraint: ConstraintSet):
    """The box a start draws from: a box's own bounds, else ``[-1, 1]``.

    An open upper side draws up to 1, or to ``lower + 1`` when the lower
    bound passes 1; an open lower side mirrors this.  ``rng.uniform``
    refuses a span that overflows; refuse it here, before the run starts.
    """
    if not isinstance(constraint, Box):
        return -1.0, 1.0
    lower, upper = constraint.lower, constraint.upper
    low = np.where(np.isfinite(lower), lower, np.where(upper >= -1.0, -1.0, upper - 1.0))
    high = np.where(np.isfinite(upper), upper, np.where(low <= 1.0, 1.0, low + 1.0))
    with np.errstate(over="ignore"):
        if not np.isfinite(high - low).all():
            raise ValueError("box bounds span more than the largest float")
    return low, high


def _build_quadratic(spec: ExperimentSpec):
    dim, n_agents, sigma = spec.problem.dim, spec.graph.n_agents, spec.problem.noise_sigma
    centers = np.asarray(spec.problem.centers, dtype=float)
    with _naming("problem.constraint"):
        constraint = _build_constraint(spec.problem.constraint, dim)
        start = _start_box(constraint)

    def evaluate(averages, rngs):
        # ``problem`` is bound below, before any record asks for this hook.
        # Each point's gaps to the centers are summed as one flat row.
        gaps = averages[..., None, :] - centers
        gaps = gaps.reshape(*averages.shape[:-1], -1)
        return problem.gradient_residual(averages), 0.5 * (gaps**2).sum(axis=-1)

    clt_spec = None
    if isinstance(constraint, Unconstrained):
        # Averaged drift of the quadratic network: -(theta - mean center).
        with _naming("problem.noise_sigma"):
            noise_cov = (sigma**2 / n_agents) * np.eye(dim)
        with np.errstate(over="ignore"):  # a mean past the largest float is left to the guards
            clt_spec = CltSpec(centers.mean(axis=0), -np.eye(dim), noise_cov)

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
        dim=dim, n_agents=n_agents, gradient=gradient, constraint=constraint,
        noise_scale=sigma, evaluate=evaluate, clt_spec=clt_spec,
    )
    return problem, start


def _build_power(spec: ExperimentSpec):
    # The power section holds PowerScenario's parameters under their names.
    power = dict(spec.problem.power)
    mc_trials = power.pop("mc_trials")
    scenario = PowerScenario(n_users=spec.graph.n_agents, **power)
    # Each power is drawn below its even share of the user's budget.
    caps = np.repeat(scenario.budgets / scenario.n_channels, scenario.n_channels)
    return build_power_problem(scenario, mc_trials), (0.0, caps)


def build_run_config(spec: ExperimentSpec) -> RunConfig:
    """Assemble a validated experiment spec into a runnable configuration."""
    weights = spec.graph.weights
    with np.errstate(over="ignore"):
        if weights is not None and not np.isfinite(np.sum(weights)):
            raise ConfigError("'graph.weights' must have a finite sum")
    try:
        with _naming("graph.edges"):
            graph = Graph.from_edges(spec.graph.n_agents, spec.graph.edges, weights)
        lazy = spec.laziness
        gossip = GossipModel(graph, activation_scale=lazy.c, activation_decay=lazy.eta)
        schedule = StepSchedule(gamma0=spec.schedule.gamma0, xi=spec.schedule.xi)
        build = _build_power if spec.problem.kind == "power-alloc" else _build_quadratic
        problem, (low, high) = build(spec)
        shape = (problem.n_agents, problem.dim)

        def initial(rng):
            # Every start: uniform on the kind's start box, then projected.
            return problem.constraint.project(rng.uniform(low, high, shape))

        # The run section holds RunConfig's run parameters under their names.
        return RunConfig(
            problem=problem, gossip=gossip, schedule=schedule, initial_state=initial,
            **vars(spec.run),
        )
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc

