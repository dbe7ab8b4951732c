"""Benchmark workloads: CLI arguments, run sizes and correctness gates.

Each workload is one ``gossip-sa`` invocation.  Sizes are set here, not by
the presets, so that one invocation takes a few seconds and a benchmark run
can time several of them.  Every gate reads the files the CLI wrote (traces
and summaries), so it checks what a user of the CLI would see.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Bound on the CLT relative error, as in acceptance criterion 3.
CLT_MAX_RELATIVE_ERROR = 0.15
#: Fewest replicas the CLT estimate may rest on.
CLT_MIN_REPLICAS_USED = 30


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    preset: str
    overrides: tuple[str, ...]
    gate: Callable[[Path, dict], list[str]]  # (output dir, resolved config) -> errors

    def argv(self, out: Path, seed: int | None) -> list[str]:
        """CLI arguments; ``seed=None`` keeps the preset's pinned seed."""
        args = [self.command, "--preset", self.preset, "--out", str(out)]
        if seed is not None:
            args += ["--seed", str(seed)]
        for item in self.overrides:
            args += ["--override", item]
        return args


def read_summary(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def read_trace(path: Path) -> tuple[list[str], list[list[float]]]:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _averages(header: list[str], rows: list[list[float]]) -> list[list[float]]:
    cols = [k for k, name in enumerate(header) if name.startswith("avg_")]
    return [[row[k] for k in cols] for row in rows]


def _window_means(values: list[float]) -> tuple[float, float]:
    window = max(1, len(values) // 10)
    return sum(values[:window]) / window, sum(values[-window:]) / window


def check_consensus(out: Path, config: dict) -> list[str]:
    """Agreement and convergence (acceptance criterion 2), per replica."""
    errors = []
    centers = config["problem"]["centers"]
    dim = len(centers[0])
    center_mean = [sum(c[k] for c in centers) / len(centers) for k in range(dim)]
    traces = sorted(out.glob("trace_r*.csv"))
    replicas = config["run"]["replicas"]
    if len(traces) != replicas:
        errors.append(f"expected {replicas} traces, found {len(traces)}")
    for path in traces:
        header, rows = read_trace(path)
        final = _averages(header, rows)[-1]
        err = sum((a - c) ** 2 for a, c in zip(final, center_mean)) ** 0.5
        if not err <= 0.05:
            errors.append(f"{path.name}: final average is {err:.4g} from the mean center")
    summary = read_summary(out / "summary.txt")
    initial = float(summary["initial_disagreement_median"])
    final = float(summary["final_disagreement_median"])
    if not final <= 1e-2 * initial:
        errors.append(f"final disagreement {final:.4g} > 1e-2 x initial {initial:.4g}")
    beta = float(summary["beta_hat"])
    if not beta > 1.0:
        errors.append(f"beta_hat {beta:.4g} <= 1")
    return errors


def check_power(out: Path, config: dict) -> list[str]:
    """Feasibility and trends of the power scenario (acceptance criterion 8)."""
    errors = []
    power = config["problem"]["power"]
    channels = power["n_channels"]
    budgets = power["budgets"]
    header, rows = read_trace(out / "trace_r000.csv")
    for row, avg in zip(rows, _averages(header, rows)):
        tol = 1e-8 * (1.0 + sum(v * v for v in avg) ** 0.5)
        sums = [sum(avg[u * channels:(u + 1) * channels]) for u in range(len(budgets))]
        if min(avg) < -tol or any(s > b + tol for s, b in zip(sums, budgets)):
            errors.append(f"recorded average at n={int(row[0])} is infeasible")
            break
    disagreement = [row[header.index("disagreement")] for row in rows]
    objective = [row[header.index("objective")] for row in rows]
    first, last = _window_means(disagreement)
    if not last <= 0.05 * first:
        errors.append(f"last disagreement window {last:.4g} > 0.05 x first {first:.4g}")
    first, last = _window_means(objective)
    if not last >= first:
        errors.append(f"objective fell from {first:.6g} to {last:.6g}")
    return errors


def check_clt(out: Path, config: dict) -> list[str]:
    """Lyapunov-covariance law over the replica ensemble (criterion 3)."""
    errors = []
    summary = read_summary(out / "clt_summary.txt")
    rel = float(summary["relative_error"])
    if not rel <= CLT_MAX_RELATIVE_ERROR:
        errors.append(f"relative_error {rel:.4g} > {CLT_MAX_RELATIVE_ERROR}")
    used = int(summary["n_replicas_used"])
    if used < CLT_MIN_REPLICAS_USED:
        errors.append(f"only {used} replicas used")
    return errors


def digest(out: Path) -> str:
    """sha256 over the names and bytes of every file the invocation wrote."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# Why these three: consensus-run is mixing-bound (sequential path, 20 replicas,
# trace IO), power-run is projection- and oracle-bound with a single replica,
# and clt-ensemble runs the vectorized ensemble path with no projection,
# records or traces.  See README.md for the sizes and the gate margins.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "consensus-run",
            "run",
            "quadratic-consensus",
            ("run.n_iter=3000",),
            check_consensus,
        ),
        Workload(
            "power-run",
            "run",
            "power-alloc",
            ("run.record_every=10", "problem.power.mc_trials=200"),
            check_power,
        ),
        Workload(
            "clt-ensemble",
            "clt",
            "scalar-clt-xi1",
            ("run.n_iter=3000", "run.replicas=4000"),
            check_clt,
        ),
    )
}
