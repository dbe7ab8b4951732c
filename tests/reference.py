"""Reference forms the tests hold the library code to.

The per-user power forms evaluate one receiver at a time, in the
arithmetic the stacked all-receiver forms of ``gossip_sa.power`` must
reproduce bit for bit.  The projection drift is the finite-step quantity
whose small-step limit the constrained mean field is built on.  The
disagreement norm is the per-state rule the batched records must match;
the config and trace readers load a spec or a written trace in one call.
No run uses any of them, so they live with the tests.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from gossip_sa.config import ExperimentSpec, load_config_dict, preset_dict, spec_from_dict
from gossip_sa.constraints import ConstraintSet
from gossip_sa.power import PowerScenario


def _user_index(scenario: PowerScenario, user: int) -> int:
    if not 1 <= user <= scenario.n_users:
        raise ValueError(f"user index must lie in [1, {scenario.n_users}], got {user}")
    return user - 1


def _receiver_terms(scenario, theta, gains, i):
    """Per-channel signal and interference-plus-noise terms for receiver ``i``."""
    p = np.asarray(theta, dtype=float).reshape(scenario.n_users, scenario.n_channels)
    incoming = gains[..., :, i, :]  # all transmitters toward receiver i
    own_gain = incoming[..., i, :]
    load = np.einsum("...jk,jk->...k", incoming, p)
    signal = own_gain * p[i]
    interference = load - signal
    return incoming, own_gain, signal, scenario.noise_vars[i] + interference


def rate(scenario: PowerScenario, theta, gains, user: int):
    """Achievable rate of ``user`` (natural log) for given gains.

    ``gains`` may carry leading batch axes, in which case an array of rates
    is returned.
    """
    i = _user_index(scenario, user)
    _, _, signal, floor = _receiver_terms(scenario, theta, gains, i)
    value = np.log1p(signal / floor).sum(axis=-1)
    return float(value) if np.ndim(value) == 0 else value


def rate_gradient(scenario: PowerScenario, theta, gains, user: int) -> np.ndarray:
    """Gradient of ``user``'s rate with respect to the full stacked allocation.

    The own-power components are ``gain / (floor + signal)`` per channel;
    the cross components are nonpositive, reflecting that other users'
    power only adds interference.  Supports leading batch axes on ``gains``.
    """
    i = _user_index(scenario, user)
    incoming, own_gain, signal, floor = _receiver_terms(scenario, theta, gains, i)
    total = floor + signal
    cross_factor = (signal / (floor * total))[..., None, :]
    grad = -incoming * cross_factor
    grad[..., i, :] = own_gain / total
    return grad.reshape(*gains.shape[:-3], scenario.dim)


def projection_drift(cs: ConstraintSet, theta, y, gamma: float) -> np.ndarray:
    """Finite-step drift ``(P(theta + gamma*y) - theta) / gamma``.

    As ``gamma`` shrinks this tends to ``y`` at interior points; on a smooth
    boundary with unit outward normal ``e`` it tends to
    ``y - max(y.e, 0) e``, i.e. the outward component of ``y`` is removed.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    return (cs.project(theta + gamma * y) - theta) / gamma


def disagreement_norm(theta) -> float:
    """Euclidean norm of the stacked deviations from the network average."""
    theta = np.asarray(theta, dtype=float)
    return float(np.linalg.norm(theta - theta.mean(axis=0)))


def parse_config(source: str | Path) -> ExperimentSpec:
    """Parse and validate a config from a file path or inline YAML text."""
    return spec_from_dict(load_config_dict(source))


def preset_spec(name: str) -> ExperimentSpec:
    return spec_from_dict(preset_dict(name))


def read_trace(path: Path) -> tuple[list[str], np.ndarray]:
    """Read a trace CSV back as (header fields, value matrix)."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    values = np.array(
        [[float(f) for f in line.split(",")] for line in lines[1:]], dtype=float
    )
    return header, values
