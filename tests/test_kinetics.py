import copy
import re

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from axonsim.grid import build_grid, hat_interpolate, hat_weights
from axonsim.harness import DEFAULT_CONFIG, RunConfig
from axonsim.kinetics import make_kinetics, rate_table
from test_decomposition import CHAIN5


def two_state(rate_a=0.5, rate_b=0.5, clamp=(0.01, 10.0)):
    return make_kinetics({
        "states": [
            {"name": "closed", "c": 0.0, "v": -0.2},
            {"name": "open", "c": 1.0, "v": 1.0},
        ],
        "rates": [
            {"from": "closed", "to": "open", "form": "constant", "params": {"a": rate_a}},
            {"from": "open", "to": "closed", "form": "constant", "params": {"a": rate_b}},
        ],
        "clamp": list(clamp),
    })


def sodium_chain():
    """Four-state activation chain with sigmoid rates between neighbors."""
    names = ["c3", "c2", "c1", "o"]
    states = [{"name": n, "c": 1.0 if n == "o" else 0.0, "v": 1.0 if n == "o" else -0.3}
              for n in names]
    rates = []
    for a, b in zip(names, names[1:]):
        rates.append({"from": a, "to": b, "form": "sigmoid",
                      "params": {"a": 0.2, "b": 2.0, "k": 3.0, "v0": 0.3}})
        rates.append({"from": b, "to": a, "form": "sigmoid",
                      "params": {"a": 0.2, "b": 2.0, "k": -3.0, "v0": 0.3}})
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if abs(i - j) > 1:
                rates.append({"from": a, "to": b, "form": "constant", "params": {"a": 0.0}})
    return make_kinetics({"states": states, "rates": rates, "clamp": [0.01, 10.0]})


class TestMakeKinetics:
    def test_rejects_nonnegative_minimum_driving(self):
        with pytest.raises(ValueError):
            make_kinetics({
                "states": [
                    {"name": "closed", "c": 0.0, "v": 0.0},
                    {"name": "open", "c": 1.0, "v": 1.0},
                ],
                "rates": [
                    {"from": "closed", "to": "open", "form": "constant", "params": {"a": 0.5}},
                    {"from": "open", "to": "closed", "form": "constant", "params": {"a": 0.5}},
                ],
            })

    def test_two_state_valid(self):
        k = two_state()
        assert k.n_states == 2
        assert k.v_minus == -0.2 and k.v_plus == 1.0

    def test_chain_rates_within_clamp(self):
        k = sodium_chain()
        table = rate_table(k, np.linspace(-2, 2, 101))
        for (i, j) in k.forms:
            r = table[j, i]
            assert np.all(r >= k.alpha_min) and np.all(r <= k.alpha_max)

    def test_rejects_bad_clamp(self):
        with pytest.raises(ValueError):
            two_state(clamp=(0.0, 10.0))

    def test_rejects_negative_conductance(self):
        with pytest.raises(ValueError):
            make_kinetics({
                "states": [
                    {"name": "closed", "c": -1.0, "v": -0.2},
                    {"name": "open", "c": 1.0, "v": 1.0},
                ],
                "rates": [
                    {"from": "closed", "to": "open", "form": "constant", "params": {"a": 0.5}},
                    {"from": "open", "to": "closed", "form": "constant", "params": {"a": 0.5}},
                ],
            })

    def test_rejects_missing_pair(self):
        with pytest.raises(ValueError, match="missing"):
            make_kinetics({
                "states": [
                    {"name": "closed", "c": 0.0, "v": -0.2},
                    {"name": "open", "c": 1.0, "v": 1.0},
                ],
                "rates": [
                    {"from": "closed", "to": "open", "form": "constant", "params": {"a": 0.5}},
                ],
            })

    def test_rejects_unknown_state_name(self):
        with pytest.raises(ValueError, match=r"unknown states \['opn'\]"):
            make_kinetics({
                "states": [
                    {"name": "closed", "c": 0.0, "v": -0.2},
                    {"name": "open", "c": 1.0, "v": 1.0},
                ],
                "rates": [
                    {"from": "closed", "to": "opn", "form": "constant", "params": {"a": 0.5}},
                    {"from": "open", "to": "closed", "form": "constant", "params": {"a": 0.5}},
                ],
            })

    def test_rejects_single_state(self):
        with pytest.raises(ValueError):
            make_kinetics({"states": [{"name": "only", "c": 1.0, "v": 1.0}], "rates": []})

    @pytest.mark.parametrize("part, index, field, what", [
        ("states", 1, "name", "state 1"), ("states", 1, "c", "state 'open'"),
        ("states", 0, "v", "state 'closed'"), ("rates", 1, "from", "rate 1"),
        ("rates", 0, "to", "rate 0"),
    ])
    def test_missing_field_is_named(self, part, index, field, what):
        """A missing field is a ValueError naming it, not a lookup error."""
        kin = copy.deepcopy(DEFAULT_CONFIG["kinetics"])
        del kin[part][index][field]
        with pytest.raises(ValueError, match=re.escape(f"{what} has no field '{field}'")):
            make_kinetics(kin)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["c", "v", "clamp-lo", "clamp-hi", "a", "b", "k", "v0"])
    def test_rejects_non_finite_numbers(self, field, bad):
        """Through the run config, where JSON's ``NaN`` and ``Infinity`` arrive."""
        kin = copy.deepcopy(DEFAULT_CONFIG["kinetics"])
        if field in ("c", "v"):
            kin["states"][1][field] = bad
            what = f"state 'open' field '{field}'"
        elif field.startswith("clamp"):
            kin["clamp"][field == "clamp-hi"] = bad
            what = "clamp bound"
        else:
            kin["rates"][1]["params"][field] = bad
            what = f"rate open -> closed parameter '{field}'"
        with pytest.raises(ValueError, match=re.escape(f"{what} must be finite, got {bad}")):
            RunConfig.from_dict({"kinetics": kin})


def generator(k, v):
    """G = table - diag(exit): dp/dt = G p for the proportions at voltage v."""
    table = rate_table(k, v)
    return table - np.diag(table.sum(axis=0))


class TestRate:
    def test_constant(self):
        k = two_state()
        for v in (-5.0, 0.0, 3.3):
            assert rate_table(k, v)[1, 0] == 0.5

    def test_exponential_hits_clamp(self):
        k = make_kinetics({
            "states": [
                {"name": "closed", "c": 0.0, "v": -0.2},
                {"name": "open", "c": 1.0, "v": 1.0},
            ],
            "rates": [
                {"from": "closed", "to": "open", "form": "exp_clamped", "params": {"a": 1.0, "k": 100.0}},
                {"from": "open", "to": "closed", "form": "constant", "params": {"a": 0.5}},
            ],
            "clamp": [0.01, 10.0],
        })
        assert rate_table(k, 1.0)[1, 0] == k.alpha_max

    def test_sigmoid_midpoint(self):
        k = make_kinetics({
            "states": [
                {"name": "closed", "c": 0.0, "v": -0.2},
                {"name": "open", "c": 1.0, "v": 1.0},
            ],
            "rates": [
                {"from": "closed", "to": "open", "form": "sigmoid",
                 "params": {"a": 0.1, "b": 0.8, "k": 2.0, "v0": 0.0}},
                {"from": "open", "to": "closed", "form": "constant", "params": {"a": 0.5}},
            ],
            "clamp": [0.01, 10.0],
        })
        assert rate_table(k, 0.0)[1, 0] == pytest.approx(0.5)

    def test_rejects_self_transition(self):
        # the table carries no self-transition rate, and a config cannot add one
        table = rate_table(two_state(), np.linspace(-1.0, 1.0, 5))
        assert np.all(table[0, 0] == 0.0) and np.all(table[1, 1] == 0.0)
        with pytest.raises(ValueError, match="self-transition"):
            make_kinetics({
                "states": [
                    {"name": "closed", "c": 0.0, "v": -0.2},
                    {"name": "open", "c": 1.0, "v": 1.0},
                ],
                "rates": [
                    {"from": "open", "to": "open", "form": "constant", "params": {"a": 0.5}},
                ],
            })


class TestExitRate:
    def test_two_state(self):
        assert rate_table(two_state(), 0.3).sum(axis=0)[0] == 0.5

    def test_three_state(self):
        states = [{"name": "a", "c": 0.0, "v": -0.2},
                  {"name": "b", "c": 0.5, "v": 0.5},
                  {"name": "cc", "c": 1.0, "v": 1.0}]
        rates = [{"from": s["name"], "to": d["name"], "form": "constant", "params": {"a": 0.5}}
                 for s in states for d in states if s["name"] != d["name"]]
        k = make_kinetics({"states": states, "rates": rates, "clamp": [0.01, 10.0]})
        assert rate_table(k, 0.0).sum(axis=0)[0] == pytest.approx(1.0)

    def test_matches_rate_sum(self):
        rng = np.random.default_rng(5)
        k = sodium_chain()
        for v in rng.uniform(-1.5, 1.5, size=10):
            table = rate_table(k, v)
            total = sum(table[j, 0] for j in range(1, k.n_states))
            assert table.sum(axis=0)[0] == pytest.approx(float(total), rel=1e-14)

    def test_within_band(self):
        k = sodium_chain()
        lo = (k.n_states - 1) * k.alpha_min
        hi = (k.n_states - 1) * k.alpha_max
        exit = rate_table(k, np.array([-2.0, 0.0, 1.0])).sum(axis=0)
        assert np.all(lo <= exit) and np.all(exit <= hi)


class TestGenerator:
    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(9)
        k = sodium_chain()
        for v in rng.uniform(-1.5, 1.5, size=8):
            g = generator(k, float(v))
            assert np.max(np.abs(g.sum(axis=0))) < 1e-14

    def test_symmetric_two_state_equilibrium(self):
        g = generator(two_state(), 0.0)
        null = g @ np.array([0.5, 0.5])
        assert np.max(np.abs(null)) < 1e-15

    def test_spectral_radius_bound(self):
        rng = np.random.default_rng(13)
        k = sodium_chain()
        cap = 2 * (k.n_states - 1) * k.alpha_max
        for v in rng.uniform(-2, 2, size=6):
            g = generator(k, float(v))
            assert np.max(np.abs(np.linalg.eigvals(g))) <= cap + 1e-12

    def test_conserves_total(self):
        rng = np.random.default_rng(17)
        k = sodium_chain()
        p = rng.uniform(0.1, 1.0, size=k.n_states)
        p /= p.sum()
        assert abs((generator(k, 0.4) @ p).sum()) < 1e-15


_FORMS = {
    "constant": st.fixed_dictionaries({"a": st.floats(0.0, 3.0)}),
    "sigmoid": st.fixed_dictionaries({
        "a": st.floats(0.0, 2.0), "b": st.floats(-2.0, 4.0),
        "k": st.floats(-8.0, 8.0), "v0": st.floats(-1.0, 1.0),
    }),
    "exp_clamped": st.fixed_dictionaries({"a": st.floats(0.0, 2.0),
                                          "k": st.floats(-5.0, 5.0)}),
}


# Wider than _FORMS: negative rates and sigmoid amplitudes, rates past the
# clamp ceiling, and slopes at which |v| <= 1e3 overflows exp.
_WIDE_FORMS = {
    "constant": st.fixed_dictionaries({"a": st.floats(-5.0, 60.0)}),
    "sigmoid": st.fixed_dictionaries({
        "a": st.floats(-5.0, 30.0), "b": st.floats(-30.0, 30.0),
        "k": st.floats(-50.0, 50.0), "v0": st.floats(-2.0, 2.0),
    }),
    "exp_clamped": st.fixed_dictionaries({
        "a": st.one_of(st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6)),
        "k": st.floats(-50.0, 50.0)}),
}


@st.composite
def kinetics_and_voltage(draw, forms=_FORMS, voltage=st.floats(-3.0, 3.0)):
    n = draw(st.integers(2, 5))
    names = [f"s{i}" for i in range(n)]
    states = [{"name": name, "c": 1.0, "v": -0.5 if i == 0 else 1.0}
              for i, name in enumerate(names)]
    rates = []
    for a in names:
        for b in names:
            if a != b:
                form = draw(st.sampled_from(sorted(_FORMS)))
                rates.append({"from": a, "to": b, "form": form,
                              "params": draw(forms[form])})
    lo = draw(st.floats(1e-3, 1.0))
    hi = draw(st.floats(lo, 50.0))
    k = make_kinetics({"states": states, "rates": rates, "clamp": [lo, hi]})
    if draw(st.booleans()):
        v = draw(voltage)
    else:
        v = np.array(draw(st.lists(voltage, min_size=1, max_size=20)))
    return k, v


class TestRateTable:
    @given(kinetics_and_voltage())
    def test_matches_per_pair_reference(self, case):
        k, v = case
        table = rate_table(k, v)
        assert table.shape == (k.n_states, k.n_states) + np.shape(v)
        for src in range(k.n_states):
            assert np.all(table[src, src] == 0.0)
            exit = 0.0
            for dst in range(k.n_states):
                if dst != src:
                    ref = np.clip(k.forms[(src, dst)](v), *k.clamp)
                    assert np.array_equal(table[dst, src], ref)
                    exit = exit + ref
            assert np.array_equal(table.sum(axis=0)[src], exit)


class TestExitBound:
    """``exit_bound`` bounds every exit rate, which lets the particle model
    rule a channel out of a substep from its holding-time draw alone."""

    @given(kinetics_and_voltage(_WIDE_FORMS, st.floats(-1e3, 1e3)))
    def test_bounds_every_exit_rate(self, case):
        k, v = case
        with np.errstate(over="ignore"):
            exits = rate_table(k, v).sum(axis=0)
        assert np.all(exits <= k.exit_bound)

    def test_rates_at_the_ceiling_reach_it(self):
        names = ["a", "b", "c"]
        k = make_kinetics({
            "states": [{"name": n, "c": 1.0, "v": -1.0 if n == "a" else 1.0} for n in names],
            "rates": [{"from": a, "to": b, "form": "constant", "params": {"a": 20.0}}
                      for a in names for b in names if a != b],
            "clamp": [0.01, 10.0]})
        assert k.exit_bound == 20.0
        assert np.all(rate_table(k, np.linspace(-1.0, 1.0, 7)).sum(axis=0) == 20.0)


class TestBatchedRates:
    """Rates over a (rows, count) batch of voltages equal each row's own
    call, and rates at a subset of positions equal the full table's
    columns, bit for bit: the compensator replay evaluates a batch of
    substeps at once, and the particle model draws the holding times first
    and evaluates rates only at the channels that can jump, so a SIMD loop
    whose tail rounds differently would move their jumps."""

    @pytest.mark.parametrize("config", ["default", "chain5"])
    @given(data=st.data(), cells=st.integers(3, 60), rows=st.integers(1, 70),
           count=st.integers(1, 200))
    def test_rows_match_single_calls(self, config, data, cells, rows, count):
        kin = RunConfig.from_dict({"default": {}, "chain5": CHAIN5}[config]).build()[1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([1e-3, 0.3, 3.0, 300.0]))
        grid = build_grid(1.0, cells)
        hats = hat_weights(grid, np.sort(rng.uniform(-1.0, 1.0, count)))
        volts = np.zeros((rows, cells + 1))
        volts[:, 1:-1] = scale * rng.standard_normal((rows, cells - 1))
        with np.errstate(over="ignore"):  # the largest scale overflows exp
            table = rate_table(kin, hat_interpolate(volts, hats))
            singles = [rate_table(kin, hat_interpolate(v, hats)) for v in volts]
        assert table.shape == (kin.n_states, kin.n_states, rows, count)
        exits = table.sum(axis=0)
        for row, single in enumerate(singles):
            assert np.array_equal(table[:, :, row], single)
            assert np.array_equal(exits[:, row], single.sum(axis=0))
        row = data.draw(st.integers(0, rows - 1))
        subset = np.flatnonzero(rng.random(count) < data.draw(st.floats(0.0, 1.0)))
        with np.errstate(over="ignore"):
            part = rate_table(kin, hat_interpolate(volts[row], [h[subset] for h in hats]))
        assert np.array_equal(part, table[:, :, row, subset])
        assert np.array_equal(part.sum(axis=0), exits[:, row, subset])

