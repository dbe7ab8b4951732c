"""Experiment orchestration: replica execution, trace files, summaries.

Traces are CSV with one row per record: the fields of a run's records
(:func:`~gossip_sa.diagnostics.trace_dtype`) in order, the average spread
over ``avg_1..avg_d``.  Floats are written with 17 significant digits so the
files round-trip bit-exactly; each row is one ``"%d" + ",%.17g" * (4 + d)``
format, the same bytes as ``format(v, ".17g")`` field by field.  Nothing
time- or host-dependent is emitted: rerunning a config with the same seed
reproduces the files byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import core
from .config import ConfigError, ExperimentSpec, build_run_config
from .core import AssumptionError, RunResult, run_ensemble, validate_assumptions
from .diagnostics import (
    MIN_CLT_REPLICAS,
    CltEstimate,
    clt_check,
    fit_decay_exponent,
)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def trace_path(directory: Path, replica: int) -> Path:
    return directory / f"trace_r{replica:03d}.csv"


def write_trace(path: Path, records) -> None:
    """Write one replica's records as CSV (17 significant digits).

    The header and the row format follow the records' dtype: the integer
    ``n``, then the float fields, the last of them the ``(d,)`` average.
    """
    *scalars, average = records.dtype.names
    dim = records.dtype[average].shape[0]
    header = ",".join([*scalars, *(f"avg_{k + 1}" for k in range(dim))])
    row = "%d" + ",%.17g" * (len(scalars) - 1 + dim)
    columns = [records[name].tolist() for name in scalars]
    lines = [header]
    lines += [row % (*values, *avg) for *values, avg in zip(*columns, records[average].tolist())]
    path.write_text("\n".join(lines) + "\n")


def write_summary(path: Path, entries: dict) -> None:
    """Flat ``key = value`` summary, diff-friendly and deterministic."""
    lines = []
    for key, value in entries.items():
        if isinstance(value, float):
            lines.append(f"{key} = {_fmt(value)}")
        else:
            lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    spec: ExperimentSpec
    result: RunResult
    trace_paths: tuple[Path, ...]
    summary_path: Path
    summary: dict


def _output_directory(spec: ExperimentSpec) -> Path:
    """Create ``output.directory``, before any engine work; failing is a config error."""
    out = Path(spec.output.directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"'output.directory' cannot be created: {exc}") from exc
    return out


def _write(write, path: Path, *args) -> None:
    """``write(path, *args)``; a file that cannot be written there is a config error."""
    try:
        write(path, *args)
    except OSError as exc:
        raise ConfigError(f"'output.directory': {path.name} cannot be written: {exc}") from exc


def _common_summary(spec: ExperimentSpec) -> dict:
    return {
        "problem": spec.problem.kind,
        "n_agents": spec.graph.n_agents,
        "dim": spec.problem.dim,
        "n_iter": spec.run.n_iter,
        "replicas": spec.run.replicas,
        "seed": spec.run.seed,
        "gamma0": float(spec.schedule.gamma0),
        "xi": float(spec.schedule.xi),
        "laziness_c": float(spec.laziness.c),
        "laziness_eta": float(spec.laziness.eta),
    }


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute every replica of the spec, writing traces and a summary.

    The summary aggregates across replicas with medians and fits the decay
    exponent of the replica-averaged squared disagreement; both the fit and
    the final residual are recomputable from the emitted traces alone.
    """
    config = build_run_config(spec)
    out = _output_directory(spec)
    # Through the module, so that a wrapper set on ``core.run`` sees the call.
    result = core.run(config)
    records = result.records
    paths = [trace_path(out, replica) for replica in result.replicas]
    for path, trace in zip(paths, records):
        _write(write_trace, path, trace)

    finals = records[:, -1]
    mean_sq = (records["disagreement"] ** 2).mean(axis=0)
    try:
        beta_hat = fit_decay_exponent(records["n"][0], mean_sq)
    except ValueError:
        beta_hat = float("nan")

    summary = _common_summary(spec)
    summary.update(
        {
            "initial_disagreement_median": float(np.median(result.initial_disagreement)),
            "final_disagreement_median": float(np.median(finals["disagreement"])),
            "final_residual_median": float(np.median(finals["residual"])),
            "final_objective_median": float(np.median(finals["objective"])),
            "beta_hat": float(beta_hat),
        }
    )
    summary_path = out / "summary.txt"
    _write(write_summary, summary_path, summary)
    return ExperimentResult(
        spec=spec,
        result=result,
        trace_paths=tuple(paths),
        summary_path=summary_path,
        summary=summary,
    )


@dataclass(frozen=True, eq=False)
class CltStudyResult:
    spec: ExperimentSpec
    estimate: CltEstimate
    summary_path: Path
    summary: dict


def run_clt_study(spec: ExperimentSpec) -> CltStudyResult:
    """Estimate the fluctuation covariance across many replicas.

    Replicas are advanced together by the vectorized ensemble runner; the
    final network averages, filtered to those near the limit point, are
    compared with the Lyapunov-equation covariance.  A schedule under which
    that covariance does not exist aborts with the assumption report before
    any output or engine work, whether or not the checks are overridden.
    """
    if spec.run.replicas < MIN_CLT_REPLICAS:
        raise ConfigError(
            f"a fluctuation study needs at least {MIN_CLT_REPLICAS} replicas, "
            f"got {spec.run.replicas}"
        )
    config = build_run_config(spec)
    if config.problem.clt_spec is None:
        raise ConfigError(
            f"problem kind {spec.problem.kind!r} provides no fluctuation "
            "specification (limit point, drift, noise covariance)"
        )
    try:
        config.problem.clt_spec.covariance(config.schedule)
    except ValueError:
        raise AssumptionError(validate_assumptions(config)) from None
    out = _output_directory(spec)
    finals = run_ensemble(config)
    estimate = clt_check(finals, config.problem.clt_spec, config.schedule, spec.run.n_iter)
    summary = _common_summary(spec)
    summary.update(
        {
            "zeta": estimate.zeta,
            "gamma_tail": float(config.schedule.gamma(spec.run.n_iter)),
            "n_replicas_used": estimate.n_replicas_used,
            "relative_error": estimate.relative_error,
            "scaled_disagreement": estimate.scaled_disagreement,
            "degenerate": estimate.degenerate,
        }
    )
    for name, matrix in (
        ("empirical_cov", estimate.empirical_cov),
        ("theoretical_cov", estimate.theoretical_cov),
    ):
        for (a, b), value in np.ndenumerate(matrix):
            summary[f"{name}_{a + 1}_{b + 1}"] = float(value)
    summary_path = out / "clt_summary.txt"
    _write(write_summary, summary_path, summary)
    return CltStudyResult(
        spec=spec, estimate=estimate, summary_path=summary_path, summary=summary
    )
