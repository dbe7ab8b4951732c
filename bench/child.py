"""One benchmark step inside a fresh interpreter; prints one JSON line.

``setup``   time importing ``gossip_sa.cli``, resolving the preset into a
            spec, ``build_run_config`` and ``validate_assumptions``.
``measure`` closed loop of ``cli.main`` calls, one after another, untraced,
            with the reference kernel timed before each call and after the
            last one.
``trace``   untraced and traced calls in turn, then one call under the
            call-counting profiler.

Every call's outputs pass the workload's gates and must hash the same as
the first call's.  ``bench/run.py`` starts this script with BLAS/OpenMP
threads pinned to 1 and ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: Timed calls per run, not counting the untimed warm-up call.
MIN_TIMED_CALLS = 3
#: Iterations of the reference kernel's three loops (about 0.2 s in all).
REF_INT_LOOPS = 900_000
REF_SMALL_ARRAY_LOOPS = 16_000
REF_LARGE_ARRAY_LOOPS = 700


def reference_kernel() -> float:
    """Wall time of a fixed piece of work that does not touch ``gossip_sa``.

    Three equal parts, the kinds of work the workloads do: interpreter
    arithmetic, small-array numpy steps (one replica's gossip step) and
    4000-element random draws and updates (one step of a replica
    ensemble).  A shared host slows this kernel as it slows the program, so
    dividing a call's wall time by the kernel's time next to it cancels
    most of that drift.
    """
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(REF_INT_LOOPS):
        total += i * i
    a = np.ones(20)
    b = np.zeros((20, 20))
    for i in range(REF_SMALL_ARRAY_LOOPS):
        a = a * 0.5 + 1.0  # stays near 2: no overflow, no denormals
        b[i % 20] = a
        c = b @ a
    rng = np.random.default_rng(0)
    x = np.zeros(4000)
    for _ in range(REF_LARGE_ARRAY_LOOPS):
        x += 0.01 * (rng.standard_normal(4000) - x)
        m = x.mean()
    wall = time.perf_counter() - t0
    if total <= 0 or not (np.isfinite(c).all() and np.isfinite(m)):
        raise RuntimeError("reference kernel computed a wrong result")
    return wall


def resolve_spec(workload, seed, out):
    """Preset -> spec the way the CLI resolves ``--preset/--seed/--out/--override``."""
    from gossip_sa.config import apply_overrides, preset_dict, spec_from_dict

    data = apply_overrides(preset_dict(workload.preset), list(workload.overrides))
    if seed is not None:
        data.setdefault("run", {})["seed"] = seed
    data.setdefault("output", {})["directory"] = str(out)
    return spec_from_dict(data)


def setup(workload, seed) -> dict:
    t0 = time.perf_counter()
    import gossip_sa.cli  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    from gossip_sa.config import build_run_config
    from gossip_sa.core import validate_assumptions

    spec = resolve_spec(workload, seed, OUT / workload.name)
    t2 = time.perf_counter()
    config = build_run_config(spec)
    t3 = time.perf_counter()
    report = validate_assumptions(config)
    t4 = time.perf_counter()
    if not report.ok:
        raise SystemExit(f"assumption checks failed:\n{report.format()}")
    return {
        "setup_s": t4 - t0,
        "import_s": t1 - t0,
        "resolve_s": t2 - t1,
        "build_s": t3 - t2,
        "validate_s": t4 - t3,
    }


class Caller:
    """Invokes ``cli.main`` for one workload and checks every call's outputs."""

    def __init__(self, workload, seed, out_root: Path = OUT):
        from gossip_sa import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_root = out_root / workload.name
        spec = resolve_spec(workload, seed, self.out_root)
        self.config = spec.to_config_dict()
        self.replica_iters = spec.run.replicas * spec.run.n_iter
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest: str | None = None

    def call(self, hook=None) -> float:
        """One checked call; returns its wall time.  ``hook(invoke)`` wraps the call."""
        out = self.out_root / f"call{self.attempted:03d}"
        shutil.rmtree(out, ignore_errors=True)
        argv = self.workload.argv(out, self.seed)

        def invoke():
            return self.cli.main(argv)  # looked up per call, so a wrapper applies

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = hook(invoke) if hook else invoke()
            wall = time.perf_counter() - t0
            problems = [f"exit code {code}"] if code != 0 else self.workload.gate(out, self.config)
            if not problems:
                found = digest(out)
                self.digest = self.digest or found
                if found != self.digest:
                    problems = ["outputs differ from the first call of this run"]
        except Exception as exc:  # a failed call is counted, not fatal
            wall = time.perf_counter() - t0
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.errors += [f"call {self.attempted - 1}: {p}" for p in problems]
        return wall

    def result(self) -> dict:
        import numpy
        import scipy

        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:10],
            "digest": self.digest,
            "replicas": self.config["run"]["replicas"],
            "n_iter": self.config["run"]["n_iter"],
            "replica_iters": self.replica_iters,
            "seed": self.config["run"]["seed"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fingerprint": {
                "cpu_count": os.cpu_count(),
                "cpu_affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "threads_env": {
                    k: v for k, v in sorted(os.environ.items()) if "THREADS" in k
                },
            },
        }


def _keep_going(start, seconds, budget_end, timed, last_wall) -> bool:
    now = time.perf_counter()
    if timed >= MIN_TIMED_CALLS and now - start >= seconds:
        return False
    return now + 1.5 * last_wall < budget_end


def measure(caller, seconds, budget_end) -> dict:
    """Timed calls, each preceded by the reference kernel; one more kernel ends the run.

    ``refs[i]`` and ``refs[i + 1]`` bracket ``walls[i]``.
    """
    start = time.perf_counter()
    reference_kernel()  # warm-up, like the call after it
    last = caller.call()  # warm-up: checked, not timed
    walls, refs = [], []
    while _keep_going(start, seconds, budget_end, len(walls), last):
        refs.append(reference_kernel())
        last = caller.call()
        walls.append(last)
    refs.append(reference_kernel())
    return {**caller.result(), "walls": walls, "refs": refs}


def trace(caller, seconds, budget_end) -> dict:
    from tracing import MODULES, Tracer, count_calls

    start = time.perf_counter()
    last = caller.call()
    untraced, traced, layers = [], [], []
    missing: list[str] = []
    # The counting pass is the slowest call; leave room for it.
    while not traced or _keep_going(start, seconds, budget_end - 4 * last, len(traced), last):
        untraced.append(caller.call())
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(caller.call())
        finally:
            tracer.uninstall()
        missing = tracer.missing
        layers.append(tracer.stats)
        last = max(untraced[-1], traced[-1])
    counts: dict[str, int] = {}

    def counted(invoke):
        code, found = count_calls(invoke)
        counts.update(found)
        return code

    caller.call(hook=counted)
    per_iter = {m: counts.get(m, 0) / caller.replica_iters for m in MODULES}
    return {
        **caller.result(),
        "untraced_walls": untraced,
        "traced_walls": traced,
        "missing": missing,
        "layers": {
            name: {
                "calls": stats.calls,
                "useful": stats.useful,
                "self_s": statistics.median(run[name].self_s for run in layers),
            }
            for name, stats in layers[-1].items()
        },
        "calls_per_iter": per_iter,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--budget", type=float, default=150.0)
    args = parser.parse_args()
    budget_end = time.perf_counter() + args.budget
    workload = WORKLOADS[args.workload]

    if args.mode == "setup":
        result = setup(workload, args.seed)
    else:
        caller = Caller(workload, args.seed)
        step = measure if args.mode == "measure" else trace
        result = step(caller, args.seconds, budget_end)

    import gossip_sa

    src = str(ROOT / "src") + os.sep
    if not gossip_sa.__file__.startswith(src):
        raise SystemExit(f"gossip_sa was imported from {gossip_sa.__file__}, not {src}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
