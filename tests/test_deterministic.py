import csv
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from axonsim import deterministic
from axonsim.deterministic import (
    PROP_SUM_TOL,
    VOLTAGE_TOL,
    _LEDGER_BLOCK,
    _clip_proportions,
    _generator,
    _rk4_prop,
    _weighted_mass_bands,
    DetTrajectory,
    DissipationLedger,
    check_start,
    dissipation_budget,
    run_det,
    step_guard,
    write_summary_csv,
    write_trajectory_csv,
)
from axonsim.errors import InvariantViolation
from axonsim.grid import (
    build_grid,
    density_loads,
    gradient_sq,
    mass_bands,
    squared_norms,
    stiffness_bands,
)
from axonsim.harness import RunConfig
from axonsim.heat import KernelParams, apply_semigroup
from axonsim.kinetics import make_kinetics
from axonsim.profiles import fundamental_mode, gaussian_bump
from axonsim.stochastic import init_channels, make_rng, run_stoch
from test_decomposition import CHAIN5


def kinetics(c_open=1.0, up=0.5, down=0.5, form="constant"):
    if form == "constant":
        rates = [
            {"from": "closed", "to": "open", "form": "constant", "params": {"a": up}},
            {"from": "open", "to": "closed", "form": "constant", "params": {"a": down}},
        ]
    else:
        rates = [
            {"from": "closed", "to": "open", "form": "sigmoid",
             "params": {"a": 0.2, "b": 1.8, "k": 4.0, "v0": 0.5}},
            {"from": "open", "to": "closed", "form": "sigmoid",
             "params": {"a": 0.2, "b": 1.8, "k": -4.0, "v0": 0.5}},
        ]
    return make_kinetics({
        "states": [
            {"name": "closed", "c": 0.0, "v": -0.2},
            {"name": "open", "c": c_open, "v": 1.0},
        ],
        "rates": rates,
        "clamp": [0.05, 5.0],
    })


def l2_norm(g, values):
    """||u||_L2 from ``squared_norms``."""
    return float(np.sqrt(squared_norms(g, values)[0]))


def uniform_state(grid, v0, p_open):
    """run_det's (grid, v0, p0) for the profile ``v0`` and spatially
    constant proportions."""
    n = grid.cells + 1
    p = np.stack([(1 - p_open) * np.ones(n), p_open * np.ones(n)])
    return grid, v0.values, p


class TestStepDet:
    def test_guard_rejects_large_step(self):
        g = build_grid(1.0, 20)
        state = uniform_state(g, fundamental_mode(g, amplitude=0.5), 0.3)
        with pytest.raises(ValueError):
            run_det(*state, 0.2, 0.2, kinetics(up=5.0, down=5.0))

    def test_pure_heat_decay(self):
        g = build_grid(1.0, 400)
        k = kinetics(c_open=0.0)
        state = uniform_state(g, fundamental_mode(g), 0.5)
        traj = run_det(*state, 0.5, 1e-3, k)
        target = np.exp(-((np.pi / 2) ** 2) * 0.5) * fundamental_mode(g).values
        err = l2_norm(g, traj.v[-1] - target)
        assert err / l2_norm(g, target) < 1e-3

    def test_pure_heat_matches_kernel_oracle(self):
        g = build_grid(1.0, 200)
        k = kinetics(c_open=0.0)
        bump = gaussian_bump(g, center=0.2, width=0.3, amplitude=0.4)
        traj = run_det(*uniform_state(g, bump, 0.5), 0.2, 1e-3, k)
        oracle = apply_semigroup(0.2, bump, KernelParams(1.0))
        assert np.max(np.abs(traj.v[-1] - oracle.values)) < 2e-4

    def test_constant_rate_relaxation(self):
        alpha, beta = 0.8, 0.4
        g = build_grid(1.0, 50)
        k = kinetics(up=alpha, down=beta)
        traj = run_det(*uniform_state(g, fundamental_mode(g, amplitude=0.3), 0.1),
                       1.0, 1e-3, k)
        pi_open = alpha / (alpha + beta)
        expected = pi_open + (0.1 - pi_open) * np.exp(-(alpha + beta))
        assert np.max(np.abs(traj.p[-1, 1] - expected)) < 1e-10


class StepLedger:
    """The per-step dissipation ledger the block ledger replaced, as its oracle."""

    def __init__(self, grid, v0, k, n_steps):
        l2sq, self._grad_sq = squared_norms(grid, v0)
        self.s0 = float(np.sqrt(l2sq))
        self.sup_inf = float(np.max(np.abs(v0)))
        self.values = np.zeros(n_steps + 1)
        self.grid = grid
        self.k = k

    def record(self, step, t, dt, v):
        self.sup_inf = max(self.sup_inf, float(np.max(np.abs(v))))
        g = float(gradient_sq(self.grid, v))
        self.values[step] = self.values[step - 1] + 0.5 * dt * (self._grad_sq + g)
        self._grad_sq = g
        budget = dissipation_budget(self.s0, self.sup_inf, t, self.k,
                                    self.grid.half_length)
        if self.values[step] > budget:
            raise InvariantViolation(
                f"dissipation {self.values[step]:.6f} exceeds budget {budget:.6f} at t={t}"
            )


def ledger_outcome(record_all):
    try:
        record_all()
    except InvariantViolation as exc:
        return str(exc)
    return None


class TestDissipationLedger:
    @given(cells=st.integers(2, 40), n_steps=st.integers(1, 60), block=st.integers(1, 9),
           dt=st.sampled_from([1e-5, 1e-3, 1e-2]), t0=st.sampled_from([0.0, 0.3]),
           c_open=st.sampled_from([0.0, 0.05, 1.0]), growth=st.floats(-0.1, 0.1),
           nan_at=st.one_of(st.none(), st.integers(1, 60)),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_match_per_step(self, cells, n_steps, block, dt, t0, c_open, growth,
                                   nan_at, seed):
        g = build_grid(1.0, cells)
        k = kinetics(c_open=c_open)
        rng = np.random.default_rng(seed)
        scale = np.exp(growth * np.arange(n_steps + 1))[:, None]
        v = scale * rng.normal(size=(n_steps + 1, g.n_interior))
        if nan_at is not None and nan_at <= n_steps:
            v[nan_at] = np.nan
        times = t0 + dt * np.arange(n_steps + 1)
        oracle = StepLedger(g, v[0], k, n_steps)
        expected = ledger_outcome(lambda: [
            oracle.record(m, float(times[m]), dt, v[m]) for m in range(1, n_steps + 1)])
        ledger = DissipationLedger(g, v[0], k, n_steps)
        stops = [*range(block, n_steps, block), n_steps]
        got = ledger_outcome(lambda: [ledger.record(stop, times, dt, v) for stop in stops])
        assert got == expected
        if expected is None:
            assert np.array_equal(ledger.values, oracle.values, equal_nan=True)
            assert ledger.sup_inf == oracle.sup_inf


class TestRunDet:
    def test_zero_horizon_returns_initial(self):
        g = build_grid(1.0, 20)
        state = uniform_state(g, fundamental_mode(g, amplitude=0.5), 0.3)
        traj = run_det(*state, 0.0, 1e-3, kinetics())
        assert traj.n_times == 1
        assert np.array_equal(traj.v[0], state[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_proportions_rejected(self, bad):
        """A NaN fails the sum and range comparisons, so it is checked first."""
        g = build_grid(1.0, 20)
        _, v0, p = uniform_state(g, fundamental_mode(g, amplitude=0.5), 0.3)
        p[1, 7] = bad
        with pytest.raises(ValueError, match="proportions must be finite at t=0.0"):
            check_start(g, v0, kinetics(), p)
        with pytest.raises(ValueError, match="proportions must be finite"):
            run_det(g, v0, p, 0.0, 1e-3, kinetics())

    @pytest.mark.parametrize("shape", [(18,), (20,), (1, 19), ()])
    def test_start_voltage_must_be_the_interior_values(self, shape):
        """Both integrators take the interior voltage as a plain array,
        and both reject one of any other shape."""
        g = build_grid(1.0, 20)
        k = kinetics()
        _, _, p = uniform_state(g, fundamental_mode(g), 0.3)
        channels = init_channels(g, 5, p, "stratified", make_rng(0))
        message = f"expected 19 interior values, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_det(g, np.zeros(shape), p, 0.01, 1e-3, k)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_stoch(g, np.zeros(shape), channels, 0.01, 1e-3, k, 0)

    def test_simplex_preserved_to_roundoff(self):
        g = build_grid(1.0, 100)
        traj = run_det(*uniform_state(g, fundamental_mode(g, amplitude=0.5), 0.3),
                       0.5, 1e-3, kinetics(form="sigmoid"))
        assert traj.max_prop_sum_error < 1e-12
        assert traj.p.min() >= -1e-9 and traj.p.max() <= 1 + 1e-9

    def test_voltage_stays_in_band(self):
        g = build_grid(1.0, 100)
        traj = run_det(*uniform_state(g, fundamental_mode(g, amplitude=0.5), 0.3),
                       1.0, 1e-3, kinetics(form="sigmoid"))
        assert traj.v.min() >= -0.2 - 1e-8
        assert traj.v.max() <= 1.0 + 1e-8

    def test_dissipation_monotone_and_budgeted(self):
        g = build_grid(1.0, 100)
        k = kinetics(form="sigmoid")
        traj = run_det(*uniform_state(g, fundamental_mode(g, amplitude=0.5), 0.3),
                       1.0, 1e-3, k)
        assert np.all(np.diff(traj.dissipation) >= 0)
        v0 = fundamental_mode(g, amplitude=0.5)
        s0 = l2_norm(g, v0.values)
        for idx in range(traj.n_times):
            budget = dissipation_budget(s0, traj.sup_v_inf, float(traj.times[idx]),
                                        k, 1.0)
            assert traj.dissipation[idx] <= budget

    def test_self_convergence_ratio(self):
        k = kinetics(form="sigmoid")
        finals = {}
        for cells, dt in ((100, 2e-3), (200, 1e-3), (400, 5e-4)):
            g = build_grid(1.0, cells)
            traj = run_det(*uniform_state(g, fundamental_mode(g, amplitude=0.5), 0.3),
                           0.4, dt, k)
            finals[cells] = traj.v[-1]
        coarse = np.max(np.abs(finals[200][1::2] - finals[100]))
        fine = np.max(np.abs(finals[400][1::2] - finals[200]))
        assert 3.0 <= coarse / fine <= 5.0

    def test_gradient_sup_stable_under_refinement(self):
        k = kinetics(form="sigmoid")
        sups = []
        for cells, dt in ((100, 2e-3), (200, 1e-3)):
            g = build_grid(1.0, cells)
            traj = run_det(*uniform_state(g, fundamental_mode(g, amplitude=0.5), 0.3),
                           0.4, dt, k)
            full = np.zeros((traj.n_times, cells + 1))
            full[:, 1:-1] = traj.v
            sups.append(float(np.max(np.abs(np.diff(full, axis=1))) / g.h))
        assert sups[0] > 0
        assert 0.8 <= sups[1] / sups[0] <= 1.25


def reference_step_det(grid, state, dt, k):
    """The Strang step with fresh bands on every call and scipy's banded
    solve: the oracle for run_det's kernel.  ``state`` is the tuple (t,
    interior voltage, proportions), and so is the result."""
    t, v, p = state
    step_guard(dt, k, limit=0.5)
    kd, ko = stiffness_bands(grid)
    md, mo = mass_bands(grid)
    p_mid = _rk4_prop(p, _generator(k, np.pad(v, 1)), 0.5 * dt)
    p_mid = _clip_proportions(p_mid, t)
    a = k.conductance @ p_mid
    b = (k.conductance * k.driving) @ p_mid
    ad, ao = _weighted_mass_bands(a, grid.h)
    lhs_d = md + 0.5 * dt * (kd + ad)
    lhs_o = mo + 0.5 * dt * (ko + ao)
    rhs_d = md - 0.5 * dt * (kd + ad)
    rhs_o = mo - 0.5 * dt * (ko + ao)
    rhs = rhs_d * v
    rhs[:-1] += rhs_o * v[1:]
    rhs[1:] += rhs_o * v[:-1]
    rhs += dt * density_loads(grid, b)
    v_new = solve_banded((1, 1), np.stack([
        np.concatenate(([0.0], lhs_o)), lhs_d, np.concatenate((lhs_o, [0.0]))]), rhs)
    p_new = _rk4_prop(p_mid, _generator(k, np.pad(v_new, 1)), 0.5 * dt)
    p_new = _clip_proportions(p_new, t + dt)
    return t + dt, v_new, p_new


def per_step_run_det(grid, v0, p0, t_horizon, dt, k, step_fn=reference_step_det):
    """run_det as one step and one ledger record per step, as its oracle."""
    n_steps = int(round(t_horizon / dt)) if t_horizon > 0 else 0
    v0_full = np.pad(v0, 1)
    v_lo = min(k.v_minus, float(v0_full.min()))
    v_hi = max(k.v_plus, float(v0_full.max()))
    times = np.empty(n_steps + 1)
    v_snaps = np.empty((n_steps + 1, grid.n_interior))
    p_snaps = np.empty((n_steps + 1, k.n_states, grid.cells + 1))
    ledger = DissipationLedger(grid, v0, k, n_steps)
    state = (0.0, v0, p0)
    times[0] = 0.0
    v_snaps[0] = v0
    p_snaps[0] = p0
    max_sum_err = float(np.max(np.abs(p0.sum(axis=0) - 1.0)))
    for step in range(1, n_steps + 1):
        state = step_fn(grid, state, dt, k)
        t, v, p = state
        times[step] = t
        v_snaps[step] = v
        p_snaps[step] = p
        sum_err = float(np.max(np.abs(p.sum(axis=0) - 1.0)))
        max_sum_err = max(max_sum_err, sum_err)
        if sum_err > PROP_SUM_TOL:
            raise InvariantViolation(
                f"proportion total off by {sum_err:.3e} at t={t}"
            )
        vmin, vmax = float(v.min()), float(v.max())
        vmin, vmax = min(vmin, 0.0), max(vmax, 0.0)
        if vmin < v_lo - VOLTAGE_TOL or vmax > v_hi + VOLTAGE_TOL:
            raise InvariantViolation(
                f"voltage [{vmin:.6f}, {vmax:.6f}] escaped "
                f"[{v_lo}, {v_hi}] at t={t}"
            )
        ledger.record(step, times, dt, v_snaps)
    return DetTrajectory(grid=grid, state_names=k.states, times=times, v=v_snaps,
                         p=p_snaps, dissipation=ledger.values, sup_v_inf=ledger.sup_inf,
                         max_prop_sum_error=max_sum_err)


def det_args(overrides):
    """run_det's arguments for the reference run of a config."""
    cfg = RunConfig.from_dict(overrides)
    grid, kin, v0, p0 = cfg.build()
    return grid, v0, p0, cfg.time_horizon, cfg.dt, kin


def run_outcome(run, *args, **kwargs):
    """The trajectory, or the type and message of the error the run raises."""
    try:
        return run(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


# A run whose 100 steps are not a multiple of the ledger block.
SHORT = {"time_horizon": 0.1, "cells": 40}


class TestRunDetMatchesStepLoop:
    """run_det's kernel loop and block ledger give the per-step loop's bits."""

    @pytest.mark.parametrize("step_fn", [reference_step_det], ids=["reference-step"])
    @pytest.mark.parametrize("overrides", [{}, CHAIN5, SHORT],
                             ids=["default", "chain5", "short"])
    def test_fields_match(self, overrides, step_fn):
        args = det_args(overrides)
        traj = run_det(*args)
        oracle = per_step_run_det(*args, step_fn=step_fn)
        assert (traj.n_times - 1) % _LEDGER_BLOCK != 0
        assert traj.state_names == oracle.state_names and traj.grid == oracle.grid
        for name in ("times", "v", "p", "dissipation"):
            assert np.array_equal(getattr(traj, name), getattr(oracle, name))
        assert traj.sup_v_inf == oracle.sup_v_inf
        assert traj.max_prop_sum_error == oracle.max_prop_sum_error

    def test_one_rate_table_per_step(self, monkeypatch):
        calls = []
        rate_table = deterministic.rate_table

        def counted(k, v):
            calls.append(1)
            return rate_table(k, v)

        monkeypatch.setattr(deterministic, "rate_table", counted)
        traj = run_det(*det_args(SHORT))
        assert len(calls) == traj.n_times == 101

    @pytest.mark.parametrize("faults", [
        pytest.param({70: "proportion"}, id="proportion"),  # mid-way through a block
        pytest.param({70: "voltage"}, id="voltage"),
        pytest.param({64: "proportion"}, id="proportion-at-block-end"),
        pytest.param({64: "voltage"}, id="voltage-at-block-end"),
        pytest.param({65: "proportion"}, id="proportion-at-block-start"),
        pytest.param({65: "voltage"}, id="voltage-at-block-start"),
        pytest.param({99: "voltage"}, id="voltage-in-partial-block"),
        pytest.param({100: "proportion"}, id="proportion-at-last-step"),
        pytest.param({65: "raise"}, id="kernel-error-at-block-start"),
        pytest.param({70: "proportion", 75: "raise"}, id="proportion-then-kernel-error"),
        pytest.param({68: "budget", 70: "voltage"}, id="budget-then-voltage"),
        pytest.param({68: "budget", 70: "proportion"}, id="budget-then-proportion"),
        pytest.param({70: "budget+proportion"}, id="budget-and-proportion-in-one-step"),
        pytest.param({100: "nan"}, id="nan-at-last-step"),
    ])
    def test_guards_raise_as_the_step_loop(self, monkeypatch, faults):
        """Each fault enters in the step that ends at times[step]: a
        proportion total or voltage out of bounds, an in-band voltage so
        rough that the dissipation budget fails, an error in the kernel, or
        NaN snapshots, or several of these joined by "+".  The first one in
        step order raises, as in the per-step loop; within a step a guard
        raises before the budget, which is checked through the step before."""
        args = det_args(SHORT)
        times = run_det(*args).times
        assert times.size - 1 == 100  # one full ledger block, then 36 steps
        kernel = deterministic._strang_step

        def inject(p, v, t):
            for step, kinds in faults.items():
                if t != times[step - 1]:
                    continue
                for kind in kinds.split("+"):
                    if kind == "proportion":
                        p = p.copy()
                        p[0] += 1e-6
                    elif kind == "voltage":
                        v = v + 10.0
                    elif kind == "budget":
                        v = np.where(np.arange(v.size) % 2, -0.15, 0.95)
                    elif kind == "nan":
                        p, v = np.full_like(p, np.nan), np.full_like(v, np.nan)
                    else:
                        raise ValueError("kernel fault")
            return p, v

        def faulty(p, v, gen, t, *rest):
            p, v, gen = kernel(p, v, gen, t, *rest)
            return (*inject(p, v, t), gen)

        def faulty_reference(grid, state, dt, k):
            t, v, p = reference_step_det(grid, state, dt, k)
            p, v = inject(p, v, state[0])
            return t, v, p

        monkeypatch.setattr(deterministic, "_strang_step", faulty)
        got = run_outcome(run_det, *args)
        expected = run_outcome(per_step_run_det, *args, step_fn=faulty_reference)
        if isinstance(got, DetTrajectory):
            # a NaN fails no comparison, so it passes the guards and the
            # budget, and the sum-error maximum passes over it
            for name in ("times", "v", "p", "dissipation"):
                assert np.array_equal(getattr(got, name), getattr(expected, name),
                                      equal_nan=True)
            assert got.sup_v_inf == expected.sup_v_inf
            assert got.max_prop_sum_error == expected.max_prop_sum_error
            return
        assert got == expected
        first = min(faults)
        kinds = faults[first].split("+")
        if kinds == ["raise"]:
            assert got == (ValueError, "kernel fault")
        else:
            assert got[0] is InvariantViolation
            prefix = next((g for g in ("proportion", "voltage") if g in kinds), "dissipation")
            assert got[1].startswith(prefix) and got[1].endswith(f"at t={times[first]}")


def reference_trajectory_csv(traj, path, stride=1):
    """The per-row ``csv.writer`` trajectory writer, as the byte oracle."""
    nodes = traj.grid.nodes
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "node", "x", "v"] + [f"p_{s}" for s in traj.state_names])
        for i in range(0, traj.n_times, stride):
            v_full = np.zeros(nodes.size)
            v_full[1:-1] = traj.v[i]
            for j in range(nodes.size):
                w.writerow(
                    [repr(float(traj.times[i])), j, repr(float(nodes[j])),
                     repr(float(v_full[j]))]
                    + [repr(float(traj.p[i, s, j])) for s in range(len(traj.state_names))]
                )


def reference_summary_csv(traj, path, stride=1):
    """The per-row ``csv.writer`` summary writer, as the byte oracle."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "l2", "h10", "dissipation"])
        for i in range(0, traj.n_times, stride):
            l2sq, dsq = squared_norms(traj.grid, traj.v[i])
            w.writerow([
                repr(float(traj.times[i])), repr(float(np.sqrt(l2sq))),
                repr(float(np.sqrt(l2sq + dsq))), repr(float(traj.dissipation[i])),
            ])


def assert_same_bytes(writer, reference, traj, tmp_path, stride):
    writer(traj, tmp_path / "new.csv", stride=stride)
    reference(traj, tmp_path / "ref.csv", stride=stride)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# Values whose repr is easy to get wrong: signed zero, the smallest
# subnormal, huge magnitudes and negatives.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, -1.5, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestExports:
    def test_trajectory_csv(self, tmp_path):
        g = build_grid(1.0, 10)
        traj = run_det(*uniform_state(g, fundamental_mode(g, amplitude=0.5), 0.3),
                       0.02, 1e-2, kinetics())
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "node", "x", "v", "p_closed", "p_open"]
        assert len(rows) == 1 + traj.n_times * (g.cells + 1)
        assert float(rows[1][3]) == 0.0  # boundary node voltage

    def test_summary_csv(self, tmp_path):
        g = build_grid(1.0, 10)
        traj = run_det(*uniform_state(g, fundamental_mode(g, amplitude=0.5), 0.3),
                       0.02, 1e-2, kinetics())
        path = tmp_path / "summary.csv"
        write_summary_csv(traj, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "l2", "h10", "dissipation"]
        assert len(rows) == 1 + traj.n_times

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("chain", ["two-state", "five-state"])
    def test_bytes_match_csv_writer(self, tmp_path, five_state_kinetics, chain, stride):
        g = build_grid(1.0, 12)
        if chain == "two-state":
            k = kinetics(form="sigmoid")
            init = uniform_state(g, fundamental_mode(g, amplitude=0.5), 0.3)
        else:
            k = five_state_kinetics
            p = np.full((5, g.cells + 1), 0.2)
            init = (g, fundamental_mode(g, amplitude=0.5).values, p)
        traj = run_det(*init, 0.07, 1e-2, k)
        assert traj.n_times % 3 != 0
        assert_same_bytes(write_trajectory_csv, reference_trajectory_csv, traj,
                          tmp_path, stride)
        assert_same_bytes(write_summary_csv, reference_summary_csv, traj, tmp_path,
                          stride)

    @given(data=st.data(), cells=st.integers(2, 6), n_times=st.integers(1, 5),
           stride=st.integers(1, 3),
           names=st.lists(st.text(alphabet='ab ,"\r\n', min_size=1, max_size=3),
                          min_size=2, max_size=3, unique=True))
    def test_bytes_match_csv_writer_on_edge_values(self, tmp_path_factory, data, cells,
                                                   n_times, stride, names):
        g = build_grid(1.0, cells)

        def floats(*shape):
            flat = data.draw(st.lists(EDGE_FLOATS, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))
            return np.array(flat, dtype=float).reshape(shape)

        traj = DetTrajectory(
            grid=g, state_names=tuple(names), times=floats(n_times),
            v=floats(n_times, g.n_interior), p=floats(n_times, len(names), g.cells + 1),
            dissipation=floats(n_times), sup_v_inf=0.0, max_prop_sum_error=0.0)
        tmp_path = tmp_path_factory.mktemp("edge")
        assert_same_bytes(write_trajectory_csv, reference_trajectory_csv, traj,
                          tmp_path, stride)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bytes(write_summary_csv, reference_summary_csv, traj, tmp_path,
                              stride)
