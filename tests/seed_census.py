"""Seed census of the statistical checks of the test suite.

    python tests/seed_census.py [--seeds N] [CHECK ...]

Each check below re-runs one statistical test of the suite through the
library, with the sizes and bounds that test states; only the seed
changes.  It runs at seeds 0-99, except acceptance 3 at 0-39 (each seed
costs about 6 s per preset); ``--seeds N`` takes seeds 0 to N-1 instead.
For each check it prints how many seeds pass, the seeds that fail, and
the range of every tested quantity.  A change that re-rolls a stream
fails a correct check with about its failure rate here.  The census
measures; it never edits a bound, a size or a seed of the suite.

What "seed" means per check:
- preset checks (acceptance 2, 3, 6, 8 and ``TestKuhnTuckerAtXiThreeQuarters``):
  ``run.seed``;
- ``TestNonconvexKuhnTucker`` and ``test_statistics_match_sequential``:
  ``RunConfig.seed``;
- ``test_conditional_mean_matches_ergodic_gradient``: the generators
  ``default_rng(s)`` for the point and the oracle draws and
  ``default_rng(s + 1)`` for the reference, so seed 11 is the test's own.

Pytest does not collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from gossip_sa.config import (  # noqa: E402
    apply_overrides,
    build_run_config,
    preset_dict,
    spec_from_dict,
)
from gossip_sa.constraints import Box  # noqa: E402
from gossip_sa.core import RunConfig, StepSchedule, run, run_ensemble  # noqa: E402
from gossip_sa.diagnostics import clt_check, fit_decay_exponent  # noqa: E402
from gossip_sa.network import Graph, GossipModel  # noqa: E402
from gossip_sa.power import stochastic_oracle  # noqa: E402
from reference import rate_gradient  # noqa: E402
from test_core import TestNonconvexKuhnTucker, quadratic_problem  # noqa: E402
from test_power import (  # noqa: E402
    TestKuhnTuckerAtXiThreeQuarters,
    random_feasible_point,
    small_scenario,
)


def preset_config(name, seed, *overrides):
    data = apply_overrides(preset_dict(name), [*overrides, f"run.seed={seed}"])
    return spec_from_dict(data), build_run_config(spec_from_dict(data))


# Each check maps a seed to its tested quantities: name -> (value, passed).


def acceptance_2(seed):
    spec, config = preset_config("quadratic-consensus", seed)
    result = run(config)
    center_mean = np.asarray(spec.problem.centers, dtype=float).mean(axis=0)
    initial = np.median(result.initial_disagreement)
    ratio = np.median([trace[-1].disagreement for trace in result.records]) / initial
    error = np.median([np.linalg.norm(t[-1].average - center_mean) for t in result.records])
    mean_sq = (result.records["disagreement"] ** 2).mean(axis=0)
    beta_hat = fit_decay_exponent(result.records["n"][0], mean_sq)
    return {
        "disagreement ratio <= 0.01": (ratio, ratio <= 1e-2),
        "average error <= 0.05": (error, error <= 0.05),
        "beta_hat > 1": (beta_hat, beta_hat > 1.0),
    }


def acceptance_3(preset):
    def check(seed):
        spec, config = preset_config(preset, seed)
        finals = run_ensemble(config)
        estimate = clt_check(finals, config.problem.clt_spec, config.schedule, spec.run.n_iter)
        err = estimate.relative_error
        return {"relative error <= 0.15": (err, err <= 0.15)}

    return check


def acceptance_6(seed):
    spec, config = preset_config("constrained-toy", seed)
    result = run(config)
    optimum = np.clip(np.asarray(spec.problem.centers, dtype=float).mean(axis=0), 0.0, 1.0)
    residual = np.median([trace[-1].residual for trace in result.records])
    error = np.median([np.linalg.norm(t[-1].average - optimum) for t in result.records])
    return {
        "median residual <= 0.01": (residual, residual <= 1e-2),
        "error to the optimum <= 0.05": (error, error <= 0.05),
    }


def acceptance_8(seed):
    _, config = preset_config("power-alloc", seed)
    result = run(config)
    feasible = all(config.problem.constraint.contains(b) for b in result.final_states[0])
    records = result.records[0]
    window = max(1, len(records) // 10)
    disagreement, objective = records["disagreement"], records["objective"]
    ratio = disagreement[-window:].mean() / disagreement[:window].mean()
    gain = objective[-window:].mean() - objective[:window].mean()
    return {
        "final blocks feasible": (float(feasible), feasible),
        "disagreement-window ratio <= 0.05": (ratio, ratio <= 0.05),
        "objective last - first window >= 0": (gain, gain >= 0.0),
    }


def kuhn_tucker_xi_three_quarters(seed):
    _, config = preset_config("power-alloc", seed, "schedule.xi=0.75")
    residual = run(config).records[0].residual
    window = len(residual) // 10
    first, last = np.median(residual[:window]), np.median(residual[-window:])
    test = TestKuhnTuckerAtXiThreeQuarters
    bound = test.NOISE_FLOOR + test.MARGIN
    return {
        f"last-tenth median < {bound:g}": (last, last < bound),
        "last-tenth median / first": (last / first, last < first),
    }


def nonconvex_kuhn_tucker(boxed):
    test = TestNonconvexKuhnTucker()
    constraint, low, high = (Box([-0.5], [2.0]), -0.5, 0.5) if boxed else (None, -1.5, 1.5)
    points = [-0.5, 0.0, 1.0] if boxed else [-1.0, 0.0, 1.0]

    def check(seed):
        finals, residuals = test.final_averages_and_residuals(constraint, low, high, seed)
        counts, fraction = test.limits(finals, points)
        window = test.WINDOW
        falls = np.median(residuals[:, -window:]) / np.median(residuals[:, :window])
        distinct = np.count_nonzero(counts)
        quantities = {
            f"fraction near the KT set >= {test.FRACTION}": (fraction, fraction >= test.FRACTION),
            "distinct KT limits >= 2": (distinct, distinct >= 2),
            "last / first residual window < 1": (falls, falls < 1.0),
        }
        if boxed:
            quantities["replicas at -0.5 >= 1"] = (counts[0], counts[0] >= 1)
        return quantities

    return check


def statistics_match_sequential(seed):
    config = RunConfig(
        problem=quadratic_problem(np.zeros((2, 1)), sigma=1.0),
        gossip=GossipModel(Graph.from_edges(2, [(1, 2)])),
        schedule=StepSchedule(gamma0=0.5, xi=0.75),
        initial_state=np.zeros((2, 1)),
        n_iter=400,
        seed=seed,
        replicas=400,
        record_every=400,
    )
    ens_var = float(np.mean(run_ensemble(config).mean(axis=1) ** 2))
    seq = np.asarray(run(config, range(150)).final_states)
    seq_var = float(np.mean(seq.mean(axis=1) ** 2))
    gap = abs(ens_var - seq_var) / seq_var
    return {"|ensemble / sequential variance - 1| <= 0.4": (gap, gap <= 0.4)}


def conditional_mean_matches_ergodic_gradient(seed):
    scen = small_scenario(weights=[0.5, 1.0, 1.5])
    rng = np.random.default_rng(seed)
    theta = random_feasible_point(scen, rng)
    draws = 10**5
    gains = scen.draw(rng, (draws,))
    blocks = np.broadcast_to(np.tile(theta, (3, 1)), (draws, 3, scen.dim))
    obs = stochastic_oracle(scen, blocks, gains)
    mean = obs.sum(axis=0) / draws
    var = (obs**2).sum(axis=0) / draws - mean**2
    ref_rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for i in range(3):
        chunks = [
            scen.weights[i]
            * rate_gradient(scen, theta, scen.draw(ref_rng, (10**5,)), i + 1).mean(axis=0)
            for _ in range(10)
        ]
        se_diff = np.sqrt(var[i] / draws + var[i] / (10 * draws))
        z = np.abs(mean[i] - np.mean(chunks, axis=0)) / (3.0 * se_diff + 1e-9)
        worst = max(worst, float(z.max()))
    return {"worst |mean - reference| / (3 se + 1e-9) <= 1": (worst, worst <= 1.0)}


#: name -> (check, number of seeds by default)
CHECKS = {
    "acceptance-2": (acceptance_2, 100),
    "acceptance-3[scalar-clt]": (acceptance_3("scalar-clt"), 40),
    "acceptance-3[scalar-clt-xi1]": (acceptance_3("scalar-clt-xi1"), 40),
    "acceptance-6": (acceptance_6, 100),
    "acceptance-8": (acceptance_8, 100),
    "TestKuhnTuckerAtXiThreeQuarters": (kuhn_tucker_xi_three_quarters, 100),
    "TestNonconvexKuhnTucker.free": (nonconvex_kuhn_tucker(False), 100),
    "TestNonconvexKuhnTucker.boxed": (nonconvex_kuhn_tucker(True), 100),
    "test_statistics_match_sequential": (statistics_match_sequential, 100),
    "test_conditional_mean_matches_ergodic_gradient": (
        conditional_mean_matches_ergodic_gradient,
        100,
    ),
}


def census(name: str, seeds: range) -> None:
    check, _ = CHECKS[name]
    start = time.monotonic()
    outcomes = {seed: check(seed) for seed in seeds}
    failing = [s for s, q in outcomes.items() if not all(ok for _, ok in q.values())]
    print(
        f"{name}: passes at {len(seeds) - len(failing)} of {len(seeds)} seeds "
        f"({seeds.start}-{seeds.stop - 1}, {time.monotonic() - start:.0f} s)"
    )
    print(f"  failing seeds: {failing or 'none'}")
    for quantity in next(iter(outcomes.values())):
        values = [float(q[quantity][0]) for q in outcomes.values()]
        misses = sum(not q[quantity][1] for q in outcomes.values())
        print(f"  {quantity}: {min(values):.4g} to {max(values):.4g}, fails at {misses}")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "checks", nargs="*", metavar="CHECK", help=f"default: all of {', '.join(CHECKS)}"
    )
    parser.add_argument("--seeds", type=int, help="seeds 0 to N-1 (default: each check's own)")
    args = parser.parse_args()
    unknown = set(args.checks) - set(CHECKS)
    if unknown:
        parser.error(f"unknown checks: {', '.join(sorted(unknown))}")
    for name in args.checks or CHECKS:
        census(name, range(args.seeds or CHECKS[name][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
