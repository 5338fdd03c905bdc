"""Initial-condition library: voltage profiles and proportion families.

Voltage profiles vanish at the endpoints; proportion families are
(n_states, n_nodes) arrays, finite, nonnegative and summing to one at every
node exactly (the last state absorbs the rounding residual).
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, GridFunction, all_finite
from .kinetics import ChannelKinetics, _field, _of_kind


def fundamental_mode(grid: Grid, mode: int = 1, amplitude: float = 1.0) -> GridFunction:
    """Scaled Dirichlet eigenfunction A sin(m pi (x + l) / 2l)."""
    l = grid.half_length
    x = grid.interior_nodes
    return GridFunction(grid, amplitude * np.sin(mode * np.pi * (x + l) / (2 * l)))


def gaussian_bump(grid: Grid, center: float, width: float, amplitude: float) -> GridFunction:
    """Gaussian bump with the linear ramp through its endpoint values removed."""
    if width <= 0:
        raise ValueError("width must be positive")
    l = grid.half_length
    x = grid.nodes
    g = amplitude * np.exp(-((x - center) ** 2) / (2.0 * width**2))
    ramp = g[0] + (g[-1] - g[0]) * (x + l) / (2 * l)
    return GridFunction(grid, (g - ramp)[1:-1])


def build_v0(grid: Grid, spec: dict) -> GridFunction:
    form = _field(spec, "form", "a string", "v0")
    params = _field(spec, "params", "a mapping", "v0", {})

    def number(key, default=None):
        return _field(params, key, "a finite number", f"v0 form {form!r}", default)

    if form == "eigenfunction":
        mode = _field(params, "mode", "an integer", f"v0 form {form!r}", 1)
        return fundamental_mode(grid, mode, number("amplitude", 1.0))
    if form == "gaussian_bump":
        return gaussian_bump(grid, number("center", 0.0), number("width"),
                             number("amplitude", 1.0))
    raise ValueError(f"unknown v0 form {form!r}")


def _exact_simplex(weights: np.ndarray) -> np.ndarray:
    """Normalize rows (state axis) so each nodal column sums to one exactly."""
    total = weights.sum(axis=0)
    if np.any(total <= 0):
        raise ValueError("proportion weights must have positive nodal totals")
    p = weights / total
    p[-1] = 1.0 - p[:-1].sum(axis=0)
    if not all_finite(p):
        raise ValueError("nodal field values must be finite")
    return p


def _per_state(k: ChannelKinetics, table: dict, what: str) -> list:
    """The entries of a state-keyed mapping in the kinetics' state order;
    a missing or unknown state is a ValueError naming it."""
    missing = [name for name in k.states if name not in table]
    unknown = [name for name in table if name not in k.index]
    if missing or unknown:
        raise ValueError(f"{what} must cover the states {list(k.states)} exactly; "
                         f"missing {missing}, unknown {unknown}")
    return [table[name] for name in k.states]


def uniform_proportions(grid: Grid, k: ChannelKinetics, weights: dict) -> np.ndarray:
    """Spatially constant proportions from per-state weights."""
    w = np.array([[_of_kind(v, "a number", f"p0 weight of {name!r}")]
                  for name, v in zip(k.states, _per_state(k, weights, "p0 weights"))])
    if np.any(w < 0):
        raise ValueError("proportion weights must be nonnegative")
    return _exact_simplex(np.repeat(w, grid.cells + 1, axis=1))


def logistic_proportions(grid: Grid, k: ChannelKinetics, profiles: dict) -> np.ndarray:
    """Per-state logistic weight profiles, normalized nodewise.

    Each state maps to {"base": b, "amp": a, "k": slope, "x0": midpoint}
    giving the unnormalized weight b + a / (1 + exp(-slope (x - x0))).
    """
    x = grid.nodes
    rows = []
    for name, prof in zip(k.states, _per_state(k, profiles, "p0 profiles")):
        what = f"p0 profile of {name!r}"
        prof = _of_kind(prof, "a mapping", what)
        base, amp, slope, x0 = (_field(prof, key, "a number", what, default)
                                for key, default in (("base", 0.0), ("amp", 0.0),
                                                     ("k", 1.0), ("x0", 0.0)))
        rows.append(base + amp / (1.0 + np.exp(-slope * (x - x0))))
    w = np.asarray(rows)
    if np.any(w < 0):
        raise ValueError("logistic weight profiles must be nonnegative")
    return _exact_simplex(w)


def build_p0(grid: Grid, k: ChannelKinetics, spec: dict) -> np.ndarray:
    form = _field(spec, "form", "a string", "p0")
    params = _field(spec, "params", "a mapping", "p0", {})
    if form == "uniform":
        return uniform_proportions(
            grid, k, _field(params, "weights", "a mapping", f"p0 form {form!r}"))
    if form == "logistic":
        return logistic_proportions(
            grid, k, _field(params, "profiles", "a mapping", f"p0 form {form!r}"))
    raise ValueError(f"unknown p0 form {form!r}")
