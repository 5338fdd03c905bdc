"""Channel state space, conductances, driving potentials, and jump rates.

Rates are smooth parametric functions of the local voltage, clamped to a
band [alpha_min, alpha_max] with 0 < alpha_min <= alpha_max so every
transition keeps a strictly positive, bounded rate.  The same kinetics
object drives both the fluid (proportion) model and the particle model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_CLAMP = (1e-3, 50.0)

_FORM_PARAMS = {
    "constant": ("a",),
    "sigmoid": ("a", "b", "k", "v0"),
    "exp_clamped": ("a", "k"),
}


@dataclass(frozen=True)
class RateForm:
    """One parameterized voltage-to-rate function (pre-clamp)."""

    kind: str
    params: tuple[float, ...]

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "constant":
            (a,) = self.params
            return np.full_like(v, a)
        if self.kind == "sigmoid":
            a, b, k, v0 = self.params
            return a + b / (1.0 + np.exp(-k * (v - v0)))
        if self.kind == "exp_clamped":
            a, k = self.params
            return a * np.exp(k * v)
        raise ValueError(f"unknown rate form {self.kind!r}")


def parse_rate_form(spec: dict) -> RateForm:
    kind = spec.get("form")
    if kind not in _FORM_PARAMS:
        raise ValueError(f"unknown rate form {kind!r}; choose from {sorted(_FORM_PARAMS)}")
    names = _FORM_PARAMS[kind]
    params = spec.get("params", {})
    missing = [n for n in names if n not in params]
    if missing:
        raise ValueError(f"rate form {kind!r} missing parameters {missing}")
    return RateForm(kind, tuple(float(params[n]) for n in names))


@dataclass(frozen=True, eq=False)
class ChannelKinetics:
    """Validated channel description: states, conductances, rates.

    ``conductance[i] >= 0`` for every state, the driving potentials straddle
    zero (min < 0 < max), and every ordered pair of distinct states carries
    a rate form whose clamped values lie in ``clamp``.
    """

    states: tuple[str, ...]
    conductance: np.ndarray
    driving: np.ndarray
    forms: dict[tuple[int, int], RateForm]
    clamp: tuple[float, float]
    index: dict[str, int] = field(default_factory=dict)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def alpha_min(self) -> float:
        return self.clamp[0]

    @property
    def alpha_max(self) -> float:
        return self.clamp[1]

    @property
    def v_minus(self) -> float:
        return float(np.min(self.driving))

    @property
    def v_plus(self) -> float:
        return float(np.max(self.driving))


def make_kinetics(spec: dict) -> ChannelKinetics:
    """Build and validate kinetics from a parsed configuration mapping.

    Expected shape::

        {"states": [{"name": ..., "c": ..., "v": ...}, ...],
         "rates":  [{"from": ..., "to": ..., "form": ..., "params": {...}}, ...],
         "clamp":  [alpha_min, alpha_max]}          # optional
    """
    state_specs = spec.get("states", [])
    if len(state_specs) < 2:
        raise ValueError("kinetics needs at least 2 states")
    names = tuple(s["name"] for s in state_specs)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate state names in {names}")
    cond = np.array([float(s["c"]) for s in state_specs])
    driv = np.array([float(s["v"]) for s in state_specs])
    if np.any(cond < 0):
        raise ValueError("conductances must be nonnegative")
    if driv.min() >= 0 or driv.max() <= 0:
        raise ValueError(
            f"driving potentials must straddle zero: min={driv.min()}, max={driv.max()}"
        )
    clamp = tuple(float(c) for c in spec.get("clamp", DEFAULT_CLAMP))
    if len(clamp) != 2 or clamp[0] <= 0 or clamp[0] > clamp[1]:
        raise ValueError(f"clamp must satisfy 0 < alpha_min <= alpha_max, got {clamp}")
    index = {name: i for i, name in enumerate(names)}
    forms: dict[tuple[int, int], RateForm] = {}
    for entry in spec.get("rates", []):
        unknown = [entry[end] for end in ("from", "to") if entry[end] not in index]
        if unknown:
            raise ValueError(f"rate {entry['from']} -> {entry['to']} names unknown "
                             f"states {unknown}; the states are {list(names)}")
        i, j = index[entry["from"]], index[entry["to"]]
        if i == j:
            raise ValueError(f"self-transition {entry['from']} -> {entry['to']}")
        if (i, j) in forms:
            raise ValueError(f"duplicate rate for {entry['from']} -> {entry['to']}")
        forms[(i, j)] = parse_rate_form(entry)
    missing = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(len(names))
        if i != j and (i, j) not in forms
    ]
    if missing:
        raise ValueError(f"rate form missing for ordered pairs {missing}")
    return ChannelKinetics(
        states=names, conductance=cond, driving=driv, forms=forms,
        clamp=clamp, index=index,
    )


def rate_table(k: ChannelKinetics, v) -> np.ndarray:
    """Clamped transition rates at voltage(s) v, shape (n_states, n_states, *v.shape).

    ``table[dst, src]`` is the rate src -> dst and the diagonal is zero, so
    the column sums ``table.sum(axis=0)`` are the exit rates, each summed
    over targets in dst order.
    """
    v = np.asarray(v, dtype=float)
    table = np.zeros((k.n_states, k.n_states) + v.shape)
    for (src, dst), form in k.forms.items():
        rates = table[dst, src, ...]  # a view, also of 0-d v
        np.maximum(form(v), k.alpha_min, out=rates)
        np.minimum(rates, k.alpha_max, out=rates)
    return table
