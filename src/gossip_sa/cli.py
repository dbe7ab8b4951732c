"""Command line interface.

Subcommands: ``run`` (execute an experiment and write traces plus a
summary), ``clt`` (replica fluctuation study), ``validate`` (print the
assumption report), ``scenario`` (print a named preset as YAML).

Exit codes: 0 success, 2 configuration error, 3 runtime abort (divergence,
failed assumption checks or running out of memory), 4 insufficient data.
"""

from __future__ import annotations

import argparse
import sys

import yaml

from .config import (
    ConfigError,
    apply_overrides,
    build_run_config,
    load_config_dict,
    preset_dict,
    preset_names,
    spec_from_dict,
)
from .core import AssumptionError, SimulationAbort, validate_assumptions
from .diagnostics import InsufficientReplicasError
from .runner import run_clt_study, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_INSUFFICIENT = 4


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a YAML experiment config")
    source.add_argument(
        "--preset", choices=preset_names(), help="run a named built-in preset"
    )
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--replicas", type=int, help="override run.replicas")
    parser.add_argument("--out", help="override output.directory")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config entry by dotted path (repeatable)",
    )


def _spec_from_args(args: argparse.Namespace):
    if args.config is not None:
        data = load_config_dict(args.config)
    else:
        data = preset_dict(args.preset)
    data = apply_overrides(data, args.override)
    if args.seed is not None:
        data.setdefault("run", {})["seed"] = args.seed
    if args.replicas is not None:
        data.setdefault("run", {})["replicas"] = args.replicas
    if args.out is not None:
        data.setdefault("output", {})["directory"] = args.out
    return spec_from_dict(data)


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(_spec_from_args(args))
    for path in result.trace_paths:
        print(f"trace: {path}")
    print(f"summary: {result.summary_path}")
    for key in ("final_disagreement_median", "final_residual_median", "beta_hat"):
        print(f"{key} = {result.summary[key]}")
    return EXIT_OK


def _cmd_clt(args: argparse.Namespace) -> int:
    result = run_clt_study(_spec_from_args(args))
    print(f"summary: {result.summary_path}")
    est = result.estimate
    print(f"zeta = {est.zeta}")
    print(f"n_replicas_used = {est.n_replicas_used}")
    print(f"relative_error = {est.relative_error}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate_assumptions(build_run_config(_spec_from_args(args)))
    print(report.format())
    return EXIT_OK if report.ok else EXIT_ABORT


def _cmd_scenario(args: argparse.Namespace) -> int:
    text = yaml.safe_dump(preset_dict(args.name), sort_keys=False)
    if args.out_file is not None:
        try:
            with open(args.out_file, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"'--out' cannot be written: {exc}") from exc
        print(f"wrote {args.out_file}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossip-sa",
        description="Multi-agent stochastic approximation with gossip averaging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment, writing traces and a summary")
    _add_spec_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_clt = sub.add_parser("clt", help="run a replica fluctuation (covariance) study")
    _add_spec_arguments(p_clt)
    p_clt.set_defaults(func=_cmd_clt)

    p_val = sub.add_parser("validate", help="print the assumption report for a config")
    _add_spec_arguments(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_sc = sub.add_parser("scenario", help="print a named preset config as YAML")
    p_sc.add_argument("name", choices=preset_names())
    p_sc.add_argument("--out", dest="out_file", help="write the YAML here instead of stdout")
    p_sc.set_defaults(func=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientReplicasError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (AssumptionError, SimulationAbort) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
