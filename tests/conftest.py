import numpy as np
import pytest
from hypothesis import settings

from axonsim.kinetics import make_kinetics

# Fixed example sequences keep the suite reproducible; no deadline, because
# per-example time on a loaded host says nothing about correctness.
settings.register_profile("axonsim", derandomize=True, deadline=None)
settings.load_profile("axonsim")


def pairing(phi, loads):
    """A load array evaluated on a grid function: sum_j phi_j * loads_j."""
    return float(phi.values @ loads)


def eval_at(u, x):
    """Linear interpolation of a grid function at x; zero at the endpoints."""
    g = u.grid
    if x < -g.half_length or x > g.half_length:
        raise ValueError(f"x={x} outside [{-g.half_length}, {g.half_length}]")
    return float(np.interp(x, g.nodes, u.full()))


def final_states(traj):
    """Each channel's state at the horizon: its initial state, replaced by
    the target of each of its jumps in log order."""
    states = traj.initial_states.copy()
    for i, dst in zip(traj.jump_channel, traj.jump_dst):
        states[i] = dst
    return states


@pytest.fixture
def five_state_kinetics():
    """A fully connected 5-state chain with voltage-dependent rates."""
    names = [f"s{i}" for i in range(5)]
    return make_kinetics({
        "states": [{"name": n, "c": 0.25 * i, "v": 1.0 - 0.4 * i}
                   for i, n in enumerate(names)],
        "rates": [{"from": a, "to": b, "form": "sigmoid",
                   "params": {"a": 0.1 * (i + 1), "b": 0.5 + 0.1 * j,
                              "k": 4.0 if j > i else -4.0, "v0": 0.3}}
                  for i, a in enumerate(names) for j, b in enumerate(names) if a != b],
        "clamp": [0.05, 5.0],
    })
