"""Outside-in layer tracing of the ``gossip_sa`` package.

Wrappers are installed from the benchmark, not from the program: each one
replaces a function under the name its *caller* looks up at run time.
``gossip_sa.runner`` imported ``run_ensemble`` into its own namespace, so
patching ``gossip_sa.core.run_ensemble`` alone would record nothing; the
target list below therefore names the calling module for every layer.

Every wrapper keeps a stack of open spans, so a layer's self time is its
span's duration minus the time of the wrapped spans it caused.  Spans are
aggregated per layer in memory (calls, self time); nothing is written until
the benchmark reports.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _exchange_counter(stats: "LayerStats", args, result) -> None:
    # An identity draw is a lazy step; a pairwise exchange has trace n - 1.
    w = np.asarray(result)
    stats.useful += int(np.trace(w) != w.shape[0])


def _active_counter(stats: "LayerStats", args, result) -> None:
    # args = (constraint, x): the projection was active when it moved x.
    stats.useful += int(not np.array_equal(result, args[1]))


def _trace_bytes(stats: "LayerStats", args, result) -> None:
    stats.useful += Path(args[0]).stat().st_size


#: layer -> (where the name is looked up, "module:attribute" pairs), and an
#: optional hook counting useful work from (arguments, result).
LAYERS = {
    "cli.main": (("cli:main",), None),
    "config.build": (("runner:build_run_config",), None),
    "core.validate": (("core:validate_assumptions",), None),
    "core.engine": (("core:run", "runner:run_ensemble", "core:run_ensemble"), None),
    "core.oracle": (("core:Problem._gaussian_oracle",), None),
    "power.oracle": (("power:stochastic_oracle",), None),
    "core.local_step": (("core:local_step",), None),
    "constraints.project": (
        (
            "constraints:Box.project",
            "constraints:BudgetSimplex.project",
            "constraints:Halfspaces.project",
        ),
        _active_counter,
    ),
    "network.sample_gossip": (("core:sample_gossip",), _exchange_counter),
    "core.gossip_step": (("core:gossip_step",), None),
    "diagnostics.record": (("core:_make_record",), None),
    "power.mc_estimate": (
        ("power:estimate_objective", "power:weighted_gradient_estimate"),
        None,
    ),
    "constraints.kt_residual": (("core:kt_residual", "power:kt_residual"), None),
    "runner.write_trace": (("runner:write_trace",), _trace_bytes),
    "diagnostics.clt_check": (("runner:clt_check",), None),
}

#: Package modules whose Python calls the counting pass attributes.
MODULES = ("cli", "config", "core", "network", "constraints", "diagnostics", "power", "runner")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    useful: int = 0


@dataclass
class Tracer:
    """Per-layer calls, self time and useful-work counts of wrapped spans."""

    stats: dict[str, LayerStats] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _stack: list[list[float]] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, layer: str, fn, hook):
        stats = self.stats.setdefault(layer, LayerStats())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stats.calls += 1
                stats.self_s += (t1 - t0) - children[0]
            if hook is not None:
                hook(stats, args, result)
            if stack:
                # The parent is charged nothing for this span, hook included.
                stack[-1][0] += clock() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every target; a target that no longer exists is listed in ``missing``."""
        for layer, (targets, hook) in LAYERS.items():
            self.stats.setdefault(layer, LayerStats())
            for target in targets:
                module_name, _, path = target.partition(":")
                try:
                    owner = importlib.import_module(f"gossip_sa.{module_name}")
                except ModuleNotFoundError:
                    owner = None
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(target)
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, fn, hook))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def count_calls(fn) -> tuple[object, Counter]:
    """Run ``fn()`` and count Python calls into each package module.

    Uses ``sys.setprofile``; generator resumptions count as calls, as the
    interpreter reports them.  Counts are exact and repeat for a fixed seed.
    """
    import gossip_sa

    package = os.path.dirname(gossip_sa.__file__) + os.sep
    modules: dict[str, str | None] = {}
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        filename = frame.f_code.co_filename
        module = modules.get(filename, "")
        if module == "":
            module = None
            if filename.startswith(package):
                module = os.path.splitext(os.path.basename(filename))[0]
            modules[filename] = module
        if module is not None:
            counts[module] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts
