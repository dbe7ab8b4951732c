"""gossip-sa benchmark: end-to-end timings of the CLI, or a per-layer trace.

    python3 bench/run.py --workload consensus-run [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each step runs in a fresh child interpreter
with BLAS/OpenMP threads pinned to 1, importing ``gossip_sa`` from ``src``:

1. ``SETUP_STARTS`` fresh starts each time the set-up (import, preset
   resolution, ``build_run_config``, ``validate_assumptions``); the median
   is ``setup_s``.
2. One child calls ``gossip_sa.cli.main`` in a closed loop, one call after
   the previous returns, for about ``--seconds``: one untimed warm-up call,
   then at least three timed calls, with a fixed reference kernel timed
   before each call and after the last.  ``norm_wall_s`` is the median of
   call time over the mean of its two bracketing kernel times, in seconds
   of a machine on which the kernel takes ``REF_NOMINAL_S``; this cancels
   most of a shared host's drift in speed.  ``--trace 1`` instead
   alternates untraced and traced calls and ends with one call-counting
   pass.

Every call's traces and summary pass the workload's correctness gates and
must hash identically within the run.  The report lists every metric with
its unit; the last line is one JSON object for automated comparison.
See ``bench/README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_STARTS = 5
#: Seconds the reference kernel counts for in ``norm_wall_s``: its typical
#: time on the 2-CPU VM named in ``bench/README.md``.
REF_NOMINAL_S = 0.2
#: Wall-clock limit of one benchmark run, children included, in seconds.
TIME_LIMIT = 170.0
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
#: Per-layer metrics: layer -> name of the metric holding its self time.
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "core.engine": "core.engine_self_s",
}


class BenchError(RuntimeError):
    pass


def _child(mode: str, args, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 5.0:
        raise BenchError(f"no time left for the {mode} step")
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", args.workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--budget", str(remaining - 5.0)]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} step exceeded {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} step exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4f} / {q2:.4f} / {q3:.4f}"


def ref_ratios(run: dict) -> list[float]:
    """Each call's wall time over the mean of the two reference kernels around it."""
    refs = run["refs"]
    return [wall / ((refs[i] + refs[i + 1]) / 2) for i, wall in enumerate(run["walls"])]


def end_to_end(run: dict, setups: list[dict]) -> dict:
    wall = REF_NOMINAL_S * statistics.median(ref_ratios(run))
    return {
        "norm_wall_s": (wall, "s"),
        "norm_replica_iter_per_s": (run["replica_iters"] / wall, "1/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(run: dict, setups: list[dict]) -> dict:
    layers = run["layers"]
    metrics = {}
    for layer, stats in layers.items():
        name = SELF_TIME_METRICS.get(layer, f"{layer}_s")
        metrics[name] = (stats["self_s"], "s")

    def frac(layer):
        calls = layers[layer]["calls"]
        return layers[layer]["useful"] / calls if calls else 0.0

    metrics["core.oracle_calls"] = (layers["core.oracle"]["calls"], "count")
    metrics["constraints.project_calls"] = (layers["constraints.project"]["calls"], "count")
    metrics["constraints.project_active_frac"] = (frac("constraints.project"), "ratio")
    metrics["network.exchange_frac"] = (frac("network.sample_gossip"), "ratio")
    metrics["runner.trace_bytes"] = (layers["runner.write_trace"]["useful"], "bytes")
    metrics["cli.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    for module, value in run["calls_per_iter"].items():
        metrics[f"{module}.calls_per_iter"] = (value, "calls/iter")
    traced = statistics.median(run["traced_walls"])
    untraced = statistics.median(run["untraced_walls"])
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return metrics


def report(args, run: dict, setups: list[dict], metrics: dict) -> None:
    print(f"workload {args.workload}  seed {run['seed']}  "
          f"replicas x n_iter = {run['replicas']} x {run['n_iter']} = {run['replica_iters']}")
    print("fingerprint " + json.dumps(run["fingerprint"], sort_keys=True))
    print(f"outputs sha256 {run['digest']} (must match across the calls of a run)")
    print(f"setup_s from {len(setups)} fresh starts: "
          + _quartiles([s["setup_s"] for s in setups]))
    for key in ("import_s", "resolve_s", "build_s", "validate_s"):
        print(f"  setup {key} median {statistics.median(s[key] for s in setups):.4f} s")
    if args.trace:
        print("untraced calls: " + _quartiles(run["untraced_walls"]))
        print("traced calls:   " + _quartiles(run["traced_walls"]))
        if run["missing"]:
            print("missing wrap targets (recorded nothing): " + ", ".join(run["missing"]))
        traced = statistics.median(run["traced_walls"])
        for name, (value, unit) in metrics.items():
            share = ""
            if unit == "s" and not name.startswith(("trace.", "cli.import")):
                share = f"  ({100 * value / traced:5.1f}% of a traced call)"
            print(f"{name} = {value:.6g} {unit}{share}")
    else:
        print("timed calls, wall s: " + _quartiles(run["walls"]))
        print("reference kernel, wall s: " + _quartiles(run["refs"]))
        print("call / reference ratios: " + _quartiles(ref_ratios(run)))
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']} of {run['attempted']} calls failed)")
    for error in run["errors"]:
        print(f"  failure: {error}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="run.seed (default: the preset's pinned seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "gossip_sa" / "cli.py").is_file():
        print(f"no gossip_sa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    try:
        setups = [_child("setup", args, deadline) for _ in range(SETUP_STARTS)]
        run = _child("trace" if args.trace else "measure", args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".bench_out" / args.workload, ignore_errors=True)

    metrics = per_layer(run, setups) if args.trace else end_to_end(run, setups)
    report(args, run, setups, metrics)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
