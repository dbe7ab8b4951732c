"""Smoke test of the benchmark's trace and metric plumbing at tiny sizes.

Asserts which layers record calls and that call counts repeat exactly; it
asserts no timing.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import child
import run
from tracing import LAYERS, count_calls
from workloads import WORKLOADS

TINY = {
    "consensus-run": ("run.n_iter=60", "run.replicas=2"),
    "power-run": ("run.n_iter=100", "problem.power.mc_trials=20"),
    "clt-ensemble": ("run.n_iter=50", "run.replicas=100"),
}

COMMON = {"cli.main", "config.build", "core.validate", "core.engine"}
EXERCISED = {
    "consensus-run": COMMON
    | {
        "core.oracle",
        "core.local_step",
        "network.sample_gossip",
        "core.gossip_step",
        "diagnostics.record",
        "runner.write_trace",
    },
    "power-run": COMMON
    | {
        "power.oracle",
        "core.local_step",
        "constraints.project",
        "network.sample_gossip",
        "core.gossip_step",
        "diagnostics.record",
        "power.mc_estimate",
        "constraints.kt_residual",
        "runner.write_trace",
    },
    "clt-ensemble": COMMON | {"core.oracle", "diagnostics.clt_check"},
}

SETUPS = [{"setup_s": 1.0, "import_s": 0.5, "resolve_s": 0.0, "build_s": 0.0, "validate_s": 0.0}]


def tiny_caller(name, out_root):
    # Tiny runs cannot meet the acceptance gates, so the gate is replaced.
    workload = replace(
        WORKLOADS[name],
        overrides=WORKLOADS[name].overrides + TINY[name],
        gate=lambda out, config: [],
    )
    return child.Caller(workload, seed=None, out_root=out_root)


def declared(kind):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_records_every_exercised_layer(name, tmp_path):
    caller = tiny_caller(name, tmp_path)
    result = child.trace(caller, seconds=0.0, budget_end=float("inf"))
    assert result["failed"] == 0, result["errors"]
    assert result["missing"] == []
    calls = {layer: stats["calls"] for layer, stats in result["layers"].items()}
    assert set(calls) == set(LAYERS)
    assert {layer for layer, n in calls.items() if n > 0} == EXERCISED[name]
    if name != "power-run":
        assert calls["constraints.project"] == 0
    metrics = run.per_layer(result, SETUPS)
    assert set(metrics) == declared("per_layer")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_calls_per_iter_repeats_exactly(name, tmp_path):
    caller = tiny_caller(name, tmp_path)
    passes = []

    def counted(invoke):
        code, counts = count_calls(invoke)
        passes.append(counts)
        return code

    for _ in range(2):
        caller.call(hook=counted)
    assert caller.failed == 0, caller.errors
    assert passes[0] == passes[1]
    assert passes[0]["core"] > 0


def test_end_to_end_metrics_match_declaration(tmp_path):
    caller = tiny_caller("clt-ensemble", tmp_path)
    result = child.measure(caller, seconds=0.0, budget_end=float("inf"))
    assert result["failed"] == 0, result["errors"]
    assert len(result["walls"]) == child.MIN_TIMED_CALLS
    assert set(run.end_to_end(result, SETUPS)) == declared("end_to_end")


def test_gates_reject_bad_outputs(tmp_path):
    (tmp_path / "clt_summary.txt").write_text("relative_error = 0.2\nn_replicas_used = 10\n")
    assert len(WORKLOADS["clt-ensemble"].gate(tmp_path, {})) == 2
    header = "n,gamma,disagreement,residual,objective," + ",".join(f"avg_{k}" for k in range(1, 9))
    rows = [f"{n},0.1,{d},0,1," + ",".join(["0.25"] * 7 + [avg8]) for n, d, avg8 in
            ((10, 1.0, "0.25"), (20, 1.0, "-0.5"))]
    (tmp_path / "trace_r000.csv").write_text("\n".join([header, *rows]) + "\n")
    config = {"problem": {"power": {"n_channels": 2, "budgets": [1.0] * 4}}}
    errors = WORKLOADS["power-run"].gate(tmp_path, config)
    assert any("infeasible" in e for e in errors)
    assert any("disagreement" in e for e in errors)
