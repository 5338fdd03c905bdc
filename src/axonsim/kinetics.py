"""Channel state space, conductances, driving potentials, and jump rates.

Rates are smooth parametric functions of the local voltage, clamped to a
band [alpha_min, alpha_max] with 0 < alpha_min <= alpha_max so every
transition keeps a strictly positive, bounded rate.  The same kinetics
object drives both the fluid (proportion) model and the particle model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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

    @property
    def supremum(self) -> float:
        """A bound on the form's floating-point values at every finite v.

        A sigmoid's ``b / (1 + e)`` with ``e >= 0`` rounds to at most
        ``max(b, 0)``, and rounding is monotone, so ``a + max(b, 0)`` bounds
        it; ``exp_clamped`` is bounded only by the clamp.
        """
        if self.kind == "exp_clamped":
            return math.inf
        if self.kind == "sigmoid":
            return self.params[0] + max(self.params[1], 0.0)
        return self.params[0]


# The kinds of config value, by the phrase an error names them with.
_KINDS = {"a mapping": dict, "a list": list, "a string": str, "a number": (int, float),
          "a finite number": (int, float), "an integer": (int, float)}


def _of_kind(value, kind: str, what: str):
    """value as ``kind`` (a key of :data:`_KINDS`): a number as a float and
    an integer as an int, where a bool is no number and an integer may be an
    integral float.  A value of another kind, or an integer beyond the float
    range where a number is asked for, is a ValueError naming ``what``."""
    if (isinstance(value, bool) or not isinstance(value, _KINDS[kind])
            or kind == "an integer" and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    if "number" not in kind:
        return int(value) if kind == "an integer" else value
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a number in the float range") from None
    if kind == "a finite number" and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def _field(spec: dict, key: str, kind: str, what: str, default=None):
    """``spec[key]`` of ``kind``, or ``default`` where the key is missing and
    a default is given; otherwise a ValueError naming ``what`` and the key."""
    if key not in spec:
        if default is None:
            raise ValueError(f"{what} has no field {key!r}")
        return default
    return _of_kind(spec[key], kind, f"{what} field {key!r}")


def parse_rate_form(spec: dict, label: str) -> RateForm:
    kind = _field(spec, "form", "a string", label)
    if kind not in _FORM_PARAMS:
        raise ValueError(f"unknown rate form {kind!r}; choose from {sorted(_FORM_PARAMS)}")
    names = _FORM_PARAMS[kind]
    params = _field(spec, "params", "a mapping", label)
    missing = [n for n in names if n not in params]
    if missing:
        raise ValueError(f"rate form {kind!r} missing parameters {missing}")
    return RateForm(kind, tuple(_of_kind(params[n], "a finite number",
                                         f"{label} parameter {n!r}") for n in names))


@dataclass(frozen=True, eq=False)
class ChannelKinetics:
    """Validated channel description: states, conductances, rates.

    Every number is finite, ``conductance[i] >= 0`` for every state, the
    driving potentials straddle zero (min < 0 < max), and every ordered pair
    of distinct states carries a rate form whose clamped values lie in
    ``clamp``.
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

    @cached_property
    def exit_bound(self) -> float:
        """A bound B on every exit rate ``rate_table(self, v).sum(axis=0)``
        at finite v: each form's clamped supremum, summed over targets by the
        same reduction, maximum over source states.  Rounding is monotone,
        so a sum of smaller terms in the same order is at most B."""
        sup = np.zeros((self.n_states, self.n_states))
        for (src, dst), form in self.forms.items():
            sup[dst, src] = min(max(form.supremum, self.alpha_min), self.alpha_max)
        return float(sup.sum(axis=0).max())


def make_kinetics(spec: dict) -> ChannelKinetics:
    """Build and validate kinetics from a parsed configuration mapping.

    Expected shape::

        {"states": [{"name": ..., "c": ..., "v": ...}, ...],
         "rates":  [{"from": ..., "to": ..., "form": ..., "params": {...}}, ...],
         "clamp":  [alpha_min, alpha_max]}          # optional
    """
    state_specs = [_of_kind(s, "a mapping", f"state {i}")
                   for i, s in enumerate(_field(spec, "states", "a list", "kinetics"))]
    if len(state_specs) < 2:
        raise ValueError("kinetics needs at least 2 states")
    names = tuple(_field(s, "name", "a string", f"state {i}")
                  for i, s in enumerate(state_specs))
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate state names in {names}")
    cond, driv = (np.array([_field(s, key, "a finite number", f"state {name!r}")
                            for name, s in zip(names, state_specs)])
                  for key in ("c", "v"))
    if np.any(cond < 0):
        raise ValueError("conductances must be nonnegative")
    if driv.min() >= 0 or driv.max() <= 0:
        raise ValueError(
            f"driving potentials must straddle zero: min={driv.min()}, max={driv.max()}"
        )
    clamp = tuple(_of_kind(c, "a finite number", "clamp bound")
                  for c in _field(spec, "clamp", "a list", "kinetics", DEFAULT_CLAMP))
    if len(clamp) != 2 or clamp[0] <= 0 or clamp[0] > clamp[1]:
        raise ValueError(f"clamp must satisfy 0 < alpha_min <= alpha_max, got {clamp}")
    index = {name: i for i, name in enumerate(names)}
    forms: dict[tuple[int, int], RateForm] = {}
    for r, entry in enumerate(_field(spec, "rates", "a list", "kinetics")):
        entry = _of_kind(entry, "a mapping", f"rate {r}")
        src, dst = (_field(entry, end, "a string", f"rate {r}") for end in ("from", "to"))
        unknown = [name for name in (src, dst) if name not in index]
        if unknown:
            raise ValueError(f"rate {src} -> {dst} names unknown "
                             f"states {unknown}; the states are {list(names)}")
        i, j = index[src], index[dst]
        if i == j:
            raise ValueError(f"self-transition {src} -> {dst}")
        if (i, j) in forms:
            raise ValueError(f"duplicate rate for {src} -> {dst}")
        forms[(i, j)] = parse_rate_form(entry, f"rate {src} -> {dst}")
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
