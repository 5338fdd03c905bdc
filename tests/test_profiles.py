import re

import numpy as np
import pytest

from axonsim.grid import build_grid
from axonsim.harness import RunConfig
from axonsim.kinetics import make_kinetics
from axonsim.profiles import (
    build_p0,
    build_v0,
    fundamental_mode,
    gaussian_bump,
    logistic_proportions,
    uniform_proportions,
)


def kin():
    return make_kinetics({
        "states": [
            {"name": "closed", "c": 0.0, "v": -0.2},
            {"name": "open", "c": 1.0, "v": 1.0},
        ],
        "rates": [
            {"from": "closed", "to": "open", "form": "constant", "params": {"a": 0.5}},
            {"from": "open", "to": "closed", "form": "constant", "params": {"a": 0.5}},
        ],
        "clamp": [0.05, 5.0],
    })


def test_fundamental_mode_peak():
    g = build_grid(1.0, 100)
    u = fundamental_mode(g, amplitude=0.5)
    assert np.max(u.values) == pytest.approx(0.5, abs=1e-3)


def test_gaussian_bump_vanishes_at_ends():
    g = build_grid(1.0, 50)
    u = gaussian_bump(g, center=0.4, width=0.2, amplitude=0.8)
    full = u.full()
    assert full[0] == 0.0 and full[-1] == 0.0
    assert np.max(full) > 0.7


def test_uniform_proportions_sum_exactly():
    g = build_grid(1.0, 30)
    p = uniform_proportions(g, kin(), {"closed": 0.7, "open": 0.3})
    assert p.shape == (2, g.cells + 1)
    assert np.all(p[0] + p[1] == 1.0)


def test_logistic_proportions_sum_exactly():
    g = build_grid(1.0, 30)
    p = logistic_proportions(g, kin(), {
        "closed": {"base": 1.0, "amp": -0.5, "k": 3.0, "x0": 0.0},
        "open": {"base": 0.2, "amp": 0.6, "k": 3.0, "x0": 0.0},
    })
    assert p.shape == (2, g.cells + 1)
    assert np.all(p[0] + p[1] == 1.0)
    assert np.all(p >= 0)


def test_builders_dispatch():
    g = build_grid(1.0, 20)
    v = build_v0(g, {"form": "gaussian_bump",
                     "params": {"center": 0.0, "width": 0.3, "amplitude": 0.5}})
    assert v.values.size == g.n_interior
    p = build_p0(g, kin(), {"form": "uniform",
                            "params": {"weights": {"closed": 0.5, "open": 0.5}}})
    assert p.shape == (2, g.cells + 1)
    with pytest.raises(ValueError):
        build_v0(g, {"form": "sawtooth", "params": {}})


LOGISTIC = {"base": 1.0, "amp": 0.5, "k": 3.0, "x0": 0.0}


@pytest.mark.parametrize("form, table", [
    ("uniform", {"closed": 0.7, "opne": 0.3}),
    ("uniform", {"closed": 1.0}),
    ("logistic", {"closed": LOGISTIC, "open": LOGISTIC, "shut": LOGISTIC}),
], ids=["misspelt", "missing", "extra"])
def test_p0_must_name_each_state(form, table):
    """A p0 map that misses a state or names an unknown one is a ValueError
    naming both lists, not a lookup error."""
    key = {"uniform": "weights", "logistic": "profiles"}[form]
    missing = [s for s in ("closed", "open") if s not in table]
    unknown = [s for s in table if s not in ("closed", "open")]
    message = f"missing {missing}, unknown {unknown}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_p0(build_grid(1.0, 10), kin(), {"form": form, "params": {key: table}})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("form", ["uniform", "logistic"])
def test_non_finite_p0_weight_is_rejected(form, bad):
    """Through the run config, where JSON's ``NaN`` and ``Infinity`` arrive."""
    if form == "uniform":
        params = {"weights": {"closed": bad, "open": 0.3}}
    else:
        params = {"profiles": {"closed": {**LOGISTIC, "base": bad}, "open": LOGISTIC}}
    # -inf is a negative weight; NaN and +inf leave a non-finite proportion
    message = "must be nonnegative" if bad < 0 else "nodal field values must be finite"
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
        RunConfig.from_dict({"p0": {"form": form, "params": params}})
