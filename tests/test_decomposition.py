import dataclasses
import functools
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from axonsim import decomposition
from axonsim import grid as grid_module
from axonsim.decomposition import (
    SERIES,
    _SeriesScatter,
    interpolate_at_channels,
    martingale_norm_series,
    martingale_variance_bound,
    path_log_likelihood,
    scan_path,
    terminal_martingale,
)
from axonsim.grid import (
    GridFunction,
    build_grid,
    density_loads,
    hat_interpolate,
    hat_scatter_arrays,
    hat_weights,
    hminus1_norms,
    riesz_chunk,
    squared_norms,
)
from axonsim.harness import RunConfig, deviation_metrics, run_reference, run_replicate
from axonsim.kinetics import make_kinetics, rate_table
from axonsim.profiles import fundamental_mode
from axonsim.stochastic import StochTrajectory, make_rng
from axonsim.validate import _frozen_reference_trajectory
from conftest import final_states, pairing
from test_grid import add_at_scatter


def constant_kinetics(up=0.8, down=0.4, c_open=0.0, clamp=(0.01, 2.0)):
    return make_kinetics({
        "states": [
            {"name": "closed", "c": 0.0, "v": -0.2},
            {"name": "open", "c": c_open, "v": 1.0},
        ],
        "rates": [
            {"from": "closed", "to": "open", "form": "constant", "params": {"a": up}},
            {"from": "open", "to": "closed", "form": "constant", "params": {"a": down}},
        ],
        "clamp": list(clamp),
    })


def manual_trajectory(grid, jumps, T=1.0, n_sub=10, start_state=0, n_scale=1,
                      positions=None):
    """Hand-built single-or-few-channel trajectory with frozen V = 0."""
    if positions is None:
        positions = np.array([0.0])
    count = positions.size
    times = np.linspace(0.0, T, n_sub + 1)
    jumps = sorted(jumps, key=lambda j: j[0])
    return StochTrajectory(
        grid=grid,
        n_scale=n_scale,
        positions=positions,
        initial_states=np.full(count, start_state, dtype=np.int64),
        n_states=2,
        times=times,
        v=np.zeros((n_sub + 1, grid.n_interior)),
        jump_times=np.array([j[0] for j in jumps], dtype=float),
        jump_channel=np.array([j[1] for j in jumps], dtype=np.int64),
        jump_src=np.array([j[2] for j in jumps], dtype=np.int64),
        jump_dst=np.array([j[3] for j in jumps], dtype=np.int64),
        seed=None,
        dissipation=np.zeros(n_sub + 1),
        sup_v_inf=0.0,
    )


def prefix(traj, n_times):
    """The trajectory cut at its sample time ``n_times - 1``."""
    end = np.searchsorted(traj.jump_times, traj.times[n_times - 1], side="right")
    return dataclasses.replace(
        traj, times=traj.times[:n_times], v=traj.v[:n_times],
        jump_times=traj.jump_times[:end], jump_channel=traj.jump_channel[:end],
        jump_src=traj.jump_src[:end], jump_dst=traj.jump_dst[:end])


def streamed_series(traj, k, names):
    """(diag, loads): scan_path's diagnostics and the named load series, each
    joined to full length from the stream.  Chunks are copied: the buffer
    is reused."""
    parts = {name: [] for name in names}

    def take(start, loads):
        assert set(loads) == set(names)
        for name in names:
            assert start == sum(part.shape[0] for part in parts[name])
            parts[name].append(loads[name].copy())

    diag = scan_path(traj, k, want_series=names, consumer=take if names else None)
    return diag, {name: np.concatenate(part) for name, part in parts.items()}


def m_loads(traj, k, xi, idx):
    """Martingale part of state xi at sample time idx, as hat loads."""
    return streamed_series(traj, k, ("m",))[1]["m"][idx, k.index[xi]]


def predicted(traj, phi, xi, k):
    """Path-wise predicted variance of <phi, M_xi(T)>."""
    phi_chan = interpolate_at_channels(phi, traj.positions)
    diag = scan_path(traj, k)
    return terminal_martingale(diag, phi_chan, traj.n_scale)[1][k.index[xi]]


class TestCompensators:
    def test_nondecreasing_and_capped(self):
        cfg = RunConfig.from_dict({"time_horizon": 0.5, "dt": 5e-3, "cells": 60})
        grid, kin, _, _ = cfg.build()
        traj = run_replicate(cfg, 25, 0)
        assert traj.jump_times.size > 0
        previous = np.zeros((kin.n_states, traj.positions.size))
        for n_times in range(1, traj.n_times + 1, 10):
            comp = scan_path(prefix(traj, n_times), kin).comp_final
            assert (comp - previous).min() >= -1e-15
            assert comp.max() <= kin.alpha_max * traj.times[n_times - 1] + 1e-12
            previous = comp

    def test_no_jump_path_is_pure_compensator(self):
        g = build_grid(1.0, 20)
        k = constant_kinetics(up=0.8, down=0.4)
        traj = manual_trajectory(g, jumps=[], T=1.0)
        # channel sits in "closed" whole time: only the gain-rate compensator
        # accumulates, so <phi, M_open(t)> = -0.8 t phi(0)
        phi = fundamental_mode(g)
        val = pairing(phi, m_loads(traj, k, "open", 10))
        expected = -0.8 * 1.0 * float(interpolate_at_channels(phi, traj.positions)[0])
        assert val == pytest.approx(expected, rel=1e-12)

    def test_single_jump_adds_point_mass(self):
        g = build_grid(1.0, 20)
        k = constant_kinetics(up=0.8, down=0.4)
        t_jump = 0.35
        with_jump = manual_trajectory(g, jumps=[(t_jump, 0, 0, 1)], T=1.0)
        no_jump = manual_trajectory(g, jumps=[], T=1.0)
        phi = fundamental_mode(g)
        phi0 = float(interpolate_at_channels(phi, with_jump.positions)[0])
        # before the jump the two paths agree; from the jump onward the
        # jump part contributes +phi(0)/N and the compensator switches to
        # the open-state exit rate
        val_before = pairing(phi, m_loads(with_jump, k, "open", 3))  # t=0.3 < t_jump
        no_jump_before = pairing(phi, m_loads(no_jump, k, "open", 3))
        assert val_before == pytest.approx(no_jump_before, rel=1e-12)
        # jump +1; compensator: gain-rate 0.8 while closed, -exit 0.4 while open
        val_after = pairing(phi, m_loads(with_jump, k, "open", 10))
        expected = phi0 * (1.0 - (0.8 * t_jump - 0.4 * (1.0 - t_jump)))
        assert val_after == pytest.approx(expected, rel=1e-12)


class TestMartingaleSeries:
    def test_starts_at_zero(self):
        cfg = RunConfig.from_dict({"time_horizon": 0.2, "dt": 2e-3, "cells": 60})
        grid, kin, _, _ = cfg.build()
        traj = run_replicate(cfg, 50, 1)
        m_open = streamed_series(traj, kin, ("m",))[1]["m"][:, kin.index["open"]]
        assert np.max(np.abs(m_open[0])) == 0.0

    def test_states_sum_to_zero(self):
        cfg = RunConfig.from_dict({"time_horizon": 0.3, "dt": 2e-3, "cells": 60})
        grid, kin, _, _ = cfg.build()
        traj = run_replicate(cfg, 50, 2)
        m_loads = streamed_series(traj, kin, ("m",))[1]["m"]
        assert np.max(np.abs(m_loads.sum(axis=1))) < 1e-12

    def test_replicate_mean_is_statistically_zero(self):
        cfg = RunConfig.from_dict({"time_horizon": 0.5, "dt": 5e-3, "cells": 80})
        grid, kin, _, _ = cfg.build()
        phi = fundamental_mode(grid)
        reps = 400
        checkpoints = None
        vals = []
        for r in range(reps):
            traj = run_replicate(cfg, 50, r)
            m_loads = streamed_series(traj, kin, ("m",))[1]["m"]
            if checkpoints is None:
                n = traj.n_times - 1
                checkpoints = [n // 4, n // 2, n]
            phi_v = phi.values
            vals.append([m_loads[c, 1] @ phi_v for c in checkpoints])
        vals = np.asarray(vals)
        for j in range(vals.shape[1]):
            mean = vals[:, j].mean()
            se = vals[:, j].std(ddof=1) / np.sqrt(reps)
            assert abs(mean) <= 3 * se


class TestPredictedVariance:
    def test_zero_test_function(self):
        g = build_grid(1.0, 20)
        k = constant_kinetics()
        traj = manual_trajectory(g, jumps=[], T=1.0)
        phi = GridFunction(g, np.zeros(g.n_interior))
        assert predicted(traj, phi, "open", k) == 0.0

    def test_frozen_channel_formula(self):
        # channel parked in "closed" with gain rate alpha into "open":
        # prediction is phi(0)^2 alpha t / N^2
        g = build_grid(1.0, 20)
        alpha = 0.8
        k = constant_kinetics(up=alpha, down=0.4)
        traj = manual_trajectory(g, jumps=[], T=1.0, n_scale=3)
        phi = fundamental_mode(g)
        phi0 = float(interpolate_at_channels(phi, traj.positions)[0])
        expected = phi0**2 * alpha * 1.0 / 9
        assert predicted(traj, phi, "open", k) == pytest.approx(expected, rel=1e-12)

    def test_matches_empirical_variance(self):
        cfg = RunConfig.from_dict({"time_horizon": 0.5, "dt": 5e-3})
        grid, kin, _, _ = cfg.build()
        phi = fundamental_mode(grid)
        reps = 600
        vals = np.zeros(reps)
        preds = np.zeros(reps)
        for r in range(reps):
            traj = run_replicate(cfg, 50, r)
            diag = scan_path(traj, kin, want_series=False)
            phi_chan = interpolate_at_channels(phi, traj.positions)
            m = (diag.jumps_net_final[1]
                 - (diag.comp_final[1] - diag.exit_occupation_final[1])) / traj.n_scale
            vals[r] = float(m @ phi_chan)
            preds[r] = float(
                np.sum(phi_chan**2 * (diag.comp_final[1]
                                      + diag.exit_occupation_final[1]))
                / traj.n_scale**2
            )
        ratio = vals.var(ddof=1) / preds.mean()
        assert 0.85 <= ratio <= 1.15


class TestVarianceBound:
    def test_zero_function(self):
        g = build_grid(1.0, 10)
        k = constant_kinetics()
        phi = GridFunction(g, np.zeros(9))
        assert martingale_variance_bound(phi, 1.0, 100, 1.0, k) == 0.0

    def test_reference_value(self):
        # 8 * l * alpha_max * |phi|_inf^2 * t / N with unit inputs
        g = build_grid(1.0, 10)
        k = constant_kinetics(clamp=(0.01, 1.0))
        phi = GridFunction(g, np.ones(9))
        assert martingale_variance_bound(phi, 1.0, 100, 1.0, k) == pytest.approx(0.08)

    def test_dominates_prediction(self):
        cfg = RunConfig.from_dict({"time_horizon": 0.5, "dt": 5e-3})
        grid, kin, _, _ = cfg.build()
        phi = fundamental_mode(grid)
        traj = run_replicate(cfg, 50, 3)
        bound = martingale_variance_bound(phi, 0.5, 50, 1.0, kin)
        assert predicted(traj, phi, "open", kin) <= bound


class TestDecompositionIdentity:
    def test_residual_at_machine_precision(self):
        cfg = RunConfig.from_dict({"time_horizon": 0.5, "dt": 2e-3})
        grid, kin, _, _ = cfg.build()
        det = run_reference(cfg)
        traj = run_replicate(cfg, 50, 0)
        loads = streamed_series(traj, kin, SERIES)[1]
        cmp_loads = loads["c"] - density_loads(grid, det.p)
        m_loads, comp_loads = loads["m"], loads["comp"]
        h = grid.h
        dens = h / 6.0 * (det.p[:, :, :-2] + 4 * det.p[:, :, 1:-1] + det.p[:, :, 2:])
        int_q = comp_loads - (dens - dens[0:1])
        rng = np.random.default_rng(1)
        phis = [fundamental_mode(grid), fundamental_mode(grid, mode=2)]
        hats = np.zeros(grid.n_interior)
        hats[rng.integers(0, grid.n_interior, size=6)] = rng.normal(size=6)
        phis.append(GridFunction(grid, hats))
        worst = 0.0
        for s in range(2):
            res = cmp_loads[:, s] - cmp_loads[0:1, s] - int_q[:, s] - m_loads[:, s]
            for phi in phis:
                worst = max(worst, float(np.max(np.abs(res @ phi.values))))
        assert worst <= 1e-10


class TestDiagnosticsExport:
    def test_norm_series_and_csv(self, tmp_path):
        import csv

        from axonsim.decomposition import (
            martingale_norm_series,
            write_martingale_norm_csv,
        )
        cfg = RunConfig.from_dict({"time_horizon": 0.2, "dt": 2e-3, "cells": 60})
        grid, kin, _, _ = cfg.build()
        traj = run_replicate(cfg, 50, 4)
        times, norms = martingale_norm_series(traj, kin, grid)
        assert norms.shape == (traj.n_times, 2)
        assert np.all(norms[0] == 0.0)
        assert norms[-1, 1] == pytest.approx(
            hminus1_norms(grid, m_loads(traj, kin, "open", traj.n_times - 1)), rel=1e-12)
        path = tmp_path / "mart.csv"
        write_martingale_norm_csv(traj, kin, grid, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "mart_hm1_closed", "mart_hm1_open"]
        assert len(rows) == 1 + traj.n_times


    @pytest.mark.parametrize("config", ["default", "chain5"])
    def test_csv_bytes_match_csv_writer(self, tmp_path, config):
        import csv

        from axonsim.decomposition import martingale_norm_series, write_martingale_norm_csv

        traj, kin = cached_replicate(config, 50, 2, 0.2)
        write_martingale_norm_csv(traj, kin, traj.grid, tmp_path / "new.csv")
        # the per-row csv.writer exporter, as the byte oracle
        times, norms = martingale_norm_series(traj, kin, traj.grid)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"mart_hm1_{name}" for name in kin.states])
            for idx in range(times.size):
                w.writerow([repr(float(times[idx]))]
                           + [repr(float(norms[idx, s])) for s in range(kin.n_states)])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestLogLikelihood:
    def test_no_jump_closed_form(self):
        g = build_grid(1.0, 10)
        k = constant_kinetics(up=0.8, down=0.4)
        traj = manual_trajectory(g, jumps=[], T=1.0)
        # exit rate alpha=0.8 from "closed", reference total rate 1
        assert path_log_likelihood(traj, k, 1.0) == pytest.approx(1.0 - 0.8)

    def test_identity_measure_change(self):
        g = build_grid(1.0, 10)
        k = constant_kinetics(up=1.0, down=1.0)
        rng = make_rng(5)
        for _ in range(10):
            n_jumps = rng.integers(0, 6)
            times = np.sort(rng.uniform(0, 1, size=n_jumps))
            jumps = []
            s = 0
            for t in times:
                jumps.append((float(t), 0, s, 1 - s))
                s = 1 - s
            traj = manual_trajectory(g, jumps=jumps, T=1.0)
            assert path_log_likelihood(traj, k, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_importance_weights_average_to_one(self):
        g = build_grid(1.0, 10)
        k = constant_kinetics(up=0.8, down=1.3)
        rng = make_rng(2024)
        reps = 2000
        w = np.empty(reps)
        for i in range(reps):
            jumps = []
            t, s = 0.0, 0
            while True:
                t += rng.exponential()
                if t > 1.0:
                    break
                jumps.append((float(t), 0, s, 1 - s))
                s = 1 - s
            traj = manual_trajectory(g, jumps=jumps, T=1.0)
            w[i] = np.exp(path_log_likelihood(traj, k, 1.0))
        est, se = w.mean(), w.std(ddof=1) / np.sqrt(reps)
        assert abs(est - 1.0) <= 3 * se


def k_type_chain():
    """Five-state K-type activation chain c0 <-> c1 <-> c2 <-> c3 <-> o.

    Forward rates (4-i) alpha(V), backward rates (i+1) beta(V); transitions
    between non-neighbours sit at the clamp floor.
    """
    names = ["c0", "c1", "c2", "c3", "o"]
    rates = []
    for i, (a, b) in enumerate(zip(names, names[1:])):
        up, down = 4 - i, i + 1
        rates.append({"from": a, "to": b, "form": "sigmoid",
                      "params": {"a": 0.2 * up, "b": 1.0 * up, "k": 4.0, "v0": 0.2}})
        rates.append({"from": b, "to": a, "form": "sigmoid",
                      "params": {"a": 0.2 * down, "b": 1.0 * down, "k": -4.0, "v0": 0.2}})
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if abs(i - j) > 1:
                rates.append({"from": a, "to": b, "form": "constant", "params": {"a": 0.0}})
    return {
        "states": [{"name": n, "c": 1.0 if n == "o" else 0.0, "v": -0.3 if n == "o" else 1.0}
                   for n in names],
        "rates": rates,
        "clamp": [0.05, 5.0],
    }


class TestMultiStateChain:
    def test_fluid_particle_and_replay(self):
        cfg = RunConfig.from_dict({
            "time_horizon": 0.2, "dt": 5e-3, "cells": 40, "kinetics": k_type_chain(),
            "p0": {"form": "uniform", "params": {"weights": {
                "c0": 0.4, "c1": 0.3, "c2": 0.15, "c3": 0.1, "o": 0.05}}},
        })
        grid, kin, _, _ = cfg.build()
        det = run_reference(cfg)
        assert np.max(np.abs(det.p.sum(axis=1) - 1.0)) <= 1e-9
        assert det.p.min() >= -1e-9 and det.p.max() <= 1.0 + 1e-9

        traj = run_replicate(cfg, 50, 0)
        assert np.all(np.diff(traj.jump_times) >= 0)
        states = traj.initial_states.copy()
        for i, src, dst in zip(traj.jump_channel, traj.jump_src, traj.jump_dst):
            assert src == states[i] and dst != src
            states[i] = dst
        assert np.array_equal(states, final_states(traj))
        assert np.unique(np.concatenate([traj.jump_src, traj.jump_dst])).size > 2

        diag, loads = streamed_series(traj, kin, SERIES)
        occupancy = loads["c"].sum(axis=1)
        assert np.max(np.abs(occupancy - occupancy[0])) <= 1e-14
        one_hot = np.eye(kin.n_states)
        assert np.array_equal(diag.jumps_net_final,
                              (one_hot[states] - one_hot[traj.initial_states]).T)
        np.testing.assert_allclose(diag.comp_final.sum(axis=0),
                                   diag.exit_occupation_final.sum(axis=0), rtol=1e-12)

        p = det.p
        dens = grid.h / 6.0 * (p[:, :, :-2] + 4.0 * p[:, :, 1:-1] + p[:, :, 2:])
        deviation = loads["c"] - dens
        int_q = loads["comp"][-1] - (dens[-1] - dens[0])
        residual = deviation[-1] - deviation[0] - int_q - loads["m"][-1]
        assert np.max(np.abs(residual)) <= 1e-12


class TestReplayVoltages:
    """The replay's frozen voltages, read from the snapshots, are the
    simulator's at every (substep, channel) whose rates it evaluated."""

    @pytest.mark.parametrize("n_scale, overrides", [
        (25, {}),
        (800, {}),
        (50, {"time_horizon": 0.2, "dt": 5e-3, "cells": 40, "kinetics": k_type_chain(),
              "p0": {"form": "uniform", "params": {"weights": {
                  "c0": 0.4, "c1": 0.3, "c2": 0.15, "c3": 0.1, "o": 0.05}}}}),
    ], ids=["default-n25", "default-n800", "chain5-n50"])
    def test_snapshots_reproduce_frozen_voltages(self, monkeypatch, n_scale, overrides):
        from axonsim import stochastic

        cfg = RunConfig.from_dict(overrides)
        grid, kin, _, _ = cfg.build()
        batches, evaluated = [], []
        simulator_table = stochastic.rate_table
        jump_substep = stochastic._HybridCore._jump_substep

        def recording_table(k, v):
            batches.append(np.array(v, copy=True))
            return simulator_table(k, v)

        def recording_jump_substep(self, t0, dt, draws, candidates, rng):
            evaluated.append((self.step, candidates.copy()))
            return jump_substep(self, t0, dt, draws, candidates, rng)

        monkeypatch.setattr(stochastic, "rate_table", recording_table)
        monkeypatch.setattr(stochastic._HybridCore, "_jump_substep", recording_jump_substep)
        traj = run_replicate(cfg, n_scale, 0)
        monkeypatch.undo()
        # one rate evaluation per substep with candidates, at the candidates
        # only, each substep at most once and in order
        assert len(batches) == len(evaluated)
        assert all(b.shape == c.shape for b, (_, c) in zip(batches, evaluated))
        steps = np.array([step for step, _ in evaluated])
        assert np.all(np.diff(steps) > 0) and steps[-1] < traj.n_times - 1
        frozen = np.concatenate(batches)
        substep = np.concatenate([np.full(c.size, step) for step, c in evaluated])
        channel = np.concatenate([c for _, c in evaluated])
        assert frozen.size < (traj.n_times - 1) * traj.positions.size
        assert traj.jump_times.size > 0

        snapshots = np.zeros((traj.n_times - 1, grid.cells + 1))
        snapshots[:, 1:-1] = traj.v[:-1]
        hats = hat_weights(grid, traj.positions)
        assert np.array_equal(frozen, hat_interpolate(snapshots, hats)[substep, channel])

        # every jump's (substep, channel) was evaluated; the keys ascend
        sub = np.searchsorted(traj.times, traj.jump_times, side="left") - 1
        keys = substep * traj.positions.size + channel
        jump_keys = sub * traj.positions.size + traj.jump_channel
        at = np.searchsorted(keys, jump_keys)
        assert np.array_equal(keys[at], jump_keys)

        # per-jump reference at the captured voltages
        ref_rate = 2.0
        table = rate_table(kin, frozen[at])
        r = table[traj.jump_dst, traj.jump_src, np.arange(traj.jump_times.size)]
        ref_jump_rate = ref_rate / (traj.positions.size * (kin.n_states - 1))
        log_jumps = float(np.sum(np.log(r) - np.log(ref_jump_rate)))
        horizon = float(traj.times[-1] - traj.times[0])
        expected = (log_jumps - float(scan_path(traj, kin).comp_final.sum())
                    + horizon * ref_rate)
        assert path_log_likelihood(traj, kin, ref_rate) == expected


def per_time_loads(grid, positions, n_scale, inputs):
    """Reference: three per-state scatters per sample time, one time at a
    time, by the per-row ``np.add.at`` oracle."""
    scatter = hat_scatter_arrays(grid, positions)
    n_int = grid.n_interior
    inv_n = 1.0 / n_scale
    n_states = inputs[0][1].shape[0]
    shape = (len(inputs), n_states, n_int)
    c_loads, comp_loads, m_loads = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    for t, (states, comp, occ, jumps_net) in enumerate(inputs):
        for xi in range(n_states):
            c_loads[t, xi] = add_at_scatter((states == xi) * inv_n, scatter, n_int)
            net = (comp[xi] - occ[xi]) * inv_n
            comp_loads[t, xi] = add_at_scatter(net, scatter, n_int)
            m_loads[t, xi] = (add_at_scatter(jumps_net[xi] * inv_n, scatter, n_int)
                              - comp_loads[t, xi])
    return c_loads, comp_loads, m_loads


def sample_time_states(traj):
    """Reference: the replayed states at every sample time, one jump at a
    time; a substep (t_k, t_k+1] holds the jumps with t_k < t <= t_k+1."""
    bounds = np.searchsorted(traj.jump_times, traj.times, side="right")
    states = traj.initial_states.copy()
    out = [states.copy()]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for e in range(lo, hi):
            states[traj.jump_channel[e]] = traj.jump_dst[e]
        out.append(states.copy())
    return np.array(out)


def series_inputs(traj, comp, occ):
    """per_time_loads inputs from the (comp, occ) rows and the jump log."""
    states = sample_time_states(traj)
    ids = np.arange(traj.n_states)[:, None]
    initial = (states[0] == ids).astype(float)
    return [(s, c, o, (s == ids) - initial) for s, c, o in zip(states, comp, occ)]


def random_jump_log(grid, rng, n_states, n_times, n_scale):
    """A trajectory with a random jump log in which each jump leaves the
    state its channel is in: several jumps of one channel or one cell per
    substep, jumps at sample times and outside the replayed interval."""
    count = int(rng.integers(1, 40))
    times = np.linspace(0.0, 1.0, n_times)
    n_jumps = int(rng.integers(0, 4 * n_times))
    t_jump = np.where(rng.random(n_jumps) < 0.2, rng.choice(times, size=n_jumps),
                      rng.uniform(-0.05, 1.05, size=n_jumps))
    channel = rng.integers(0, count, size=n_jumps)
    initial = rng.integers(0, n_states, size=count)
    states = initial.copy()
    jumps = []
    for t, i in zip(np.sort(t_jump).tolist(), channel.tolist()):
        dst = (states[i] + int(rng.integers(1, n_states))) % n_states
        jumps.append((t, i, states[i], dst))
        states[i] = dst
    traj = manual_trajectory(grid, jumps, T=1.0, n_sub=n_times - 1, n_scale=n_scale,
                             positions=rng.uniform(-0.999, 0.999, size=count))
    return dataclasses.replace(traj, initial_states=initial, n_states=n_states)


def streamed_scatter(traj, keep, block, comp, occ):
    """(loads, handed): a _SeriesScatter fed the (comp, occ) rows a block at a
    time from time 0 (not the replay's blocks: windows need not align), its
    stream joined to full length, and the (start, rows) of each chunk."""
    parts, handed = {name: [] for name in keep}, []

    def consumer(start, loads):
        assert set(loads) == set(keep)
        handed.append((start, loads[min(keep)].shape[0]))
        for name in keep:
            parts[name].append(loads[name].copy())

    bounds = np.searchsorted(traj.jump_times, traj.times, side="right")
    series = _SeriesScatter(traj, decomposition._jump_plan(traj, bounds), keep, block,
                            consumer)
    for t in range(0, comp.shape[0], block):
        series.fill(t, comp[t:t + block], occ[t:t + block])
    series.flush()
    return {name: np.concatenate(part) for name, part in parts.items()}, handed


def per_substep_scan(traj, k):
    """Reference replay: the per-substep loop the block replay replaced.

    Returns (comp, occ, jumps_net, jump_rates, inputs), where ``inputs``
    holds the (states, comp, occ, jumps_net) rows at every sample time.
    """
    n_states = traj.n_states
    count = traj.positions.size
    states = traj.initial_states.copy()
    comp = np.zeros((n_states, count))
    occ = np.zeros((n_states, count))
    jumps_net = np.zeros((n_states, count))
    jump_rates = np.full(traj.jump_times.size, np.nan)
    bounds = np.searchsorted(traj.jump_times, traj.times, side="right")
    hats = hat_weights(traj.grid, traj.positions)
    v_full = np.zeros(traj.grid.cells + 1)

    def segment(rates, i, s, duration):
        if duration <= 0.0:
            return
        col = rates[:, s]
        comp[:, i] += duration * col
        occ[s, i] += duration * col.sum()

    inputs = [(states.copy(), comp.copy(), occ.copy(), jumps_net.copy())]
    for sub in range(traj.n_times - 1):
        t0 = float(traj.times[sub])
        dt = float(traj.times[sub + 1] - traj.times[sub])
        lo, hi = bounds[sub], bounds[sub + 1]
        v_full[1:-1] = traj.v[sub]
        table = rate_table(k, hat_interpolate(v_full, hats))
        rate_to = table[:, states, np.arange(count)]  # each channel's own column
        exit = rate_to.sum(axis=0)
        if hi > lo:
            w = np.full(count, dt)
            w[traj.jump_channel[lo:hi]] = 0.0
        else:
            w = dt
        comp += w * rate_to
        occ[states, np.arange(count)] += w * exit
        affected = {}
        for e in range(lo, hi):
            affected.setdefault(int(traj.jump_channel[e]), []).append(e)
        for i, evs in affected.items():
            rates = table[:, :, i]
            cursor = t0
            s = int(states[i])
            for e in evs:
                te = float(traj.jump_times[e])
                segment(rates, i, s, te - cursor)
                dst = int(traj.jump_dst[e])
                jump_rates[e] = rates[dst, s]
                jumps_net[dst, i] += 1.0
                jumps_net[s, i] -= 1.0
                s = dst
                cursor = te
            segment(rates, i, s, t0 + dt - cursor)
            states[i] = s
        inputs.append((states.copy(), comp.copy(), occ.copy(), jumps_net.copy()))
    return comp, occ, jumps_net, jump_rates, inputs


class TestSeriesScatter:
    @given(n_states=st.integers(2, 5),
           n_times=st.integers(1, 20),
           block=st.integers(1, 8),
           n_scale=st.integers(1, 40),
           cells=st.integers(2, 30),
           window_bytes=st.integers(1, 4000),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_time_scatter(self, n_states, n_times, block, n_scale, cells,
                                      window_bytes, seed):
        g = build_grid(1.0, cells)
        rng = np.random.default_rng(seed)
        traj = random_jump_log(g, rng, n_states, n_times, n_scale)
        count = traj.positions.size
        comp = rng.exponential(size=(n_times, n_states, count))
        occ = rng.exponential(size=(n_times, n_states, count))
        with unittest.mock.patch.object(decomposition, "TOUCH_WINDOW_BYTES", window_bytes):
            got = streamed_scatter(traj, SERIES, block, comp, occ)[0]
        ref = per_time_loads(g, traj.positions, n_scale, series_inputs(traj, comp, occ))
        for name, loads in zip(SERIES, ref):
            assert np.array_equal(got[name], loads)

    @pytest.mark.parametrize("overrides", [
        # 2 states, 10 sample times in blocks of 4, 4 and 1
        {"time_horizon": 9 * 2e-3, "dt": 2e-3},
        # the 5-state chain, 41 sample times
        {"time_horizon": 0.2, "dt": 5e-3, "kinetics": k_type_chain(),
         "p0": {"form": "uniform", "params": {"weights": {
             "c0": 0.4, "c1": 0.3, "c2": 0.15, "c3": 0.1, "o": 0.05}}}},
    ])
    def test_replay_loads_match_per_time_scatter(self, monkeypatch, overrides):
        cfg = RunConfig.from_dict({"cells": 40, **overrides})
        grid, kin, _, _ = cfg.build()
        traj = run_replicate(cfg, 50, 0)
        assert traj.jump_times.size > 0
        count = traj.positions.size
        monkeypatch.setattr(decomposition, "REPLAY_BLOCK_BYTES",
                            4 * 8 * count * kin.n_states * (kin.n_states + 6))
        comp, occ = [], []
        fill = _SeriesScatter.fill

        def recording_fill(self, t, comp_rows, occ_rows):
            assert t == len(comp)
            comp.extend(comp_rows.copy())
            occ.extend(occ_rows.copy())
            fill(self, t, comp_rows, occ_rows)

        monkeypatch.setattr(_SeriesScatter, "fill", recording_fill)
        got = streamed_series(traj, kin, SERIES)[1]
        assert len(comp) == traj.n_times
        ref = per_time_loads(grid, traj.positions, traj.n_scale,
                             series_inputs(traj, comp, occ))
        for name, loads in zip(SERIES, ref):
            assert np.array_equal(got[name], loads)


CHAIN5 = {"time_horizon": 0.2, "dt": 5e-3, "cells": 40, "kinetics": k_type_chain(),
          "p0": {"form": "uniform", "params": {"weights": {
              "c0": 0.4, "c1": 0.3, "c2": 0.15, "c3": 0.1, "o": 0.05}}}}


@functools.lru_cache(maxsize=None)
def cached_replicate(config, n_scale, replicate, time_horizon=None):
    overrides = {"default": {}, "chain5": CHAIN5}[config]
    if time_horizon is not None:
        overrides = {**overrides, "time_horizon": time_horizon}
    cfg = RunConfig.from_dict(overrides)
    kin = cfg.build()[1]
    return run_replicate(cfg, n_scale, replicate), kin


def most_jumps_in_one_substep(traj):
    """The most jumps any one channel makes inside one substep."""
    sub = np.searchsorted(traj.times, traj.jump_times, side="left") - 1
    pairs = np.stack([sub, traj.jump_channel])
    return int(np.unique(pairs, axis=1, return_counts=True)[1].max())


def assert_replay_matches_loop(traj, kin):
    """Every accumulator and streamed series equals the per-substep loop's
    bits, the series by the per-time ``np.add.at`` oracle."""
    comp, occ, jumps_net, jump_rates, inputs = per_substep_scan(traj, kin)
    loads = dict(zip(SERIES, per_time_loads(traj.grid, traj.positions, traj.n_scale,
                                            inputs)))
    for want in ((), ("m",), ("c", "m"), SERIES):
        diag, got = streamed_series(traj, kin, want)
        assert np.array_equal(diag.comp_final, comp)
        assert np.array_equal(diag.exit_occupation_final, occ)
        assert np.array_equal(diag.jumps_net_final, jumps_net)
        assert np.array_equal(diag.jump_rates, jump_rates, equal_nan=True)
        for name in want:
            assert np.array_equal(got[name], loads[name])


class TestBlockReplay:
    """The block replay is bit-identical to the per-substep loop it replaced."""

    @pytest.mark.parametrize("config, n_scale, replicate", [
        ("default", 25, 0), ("default", 200, 0), ("default", 800, 0),
        ("chain5", 50, 2), ("chain5", 400, 0),
    ], ids=["default-n25", "default-n200", "default-n800", "chain5-n50-r2",
            "chain5-n400"])
    def test_matches_per_substep_loop(self, config, n_scale, replicate):
        traj, kin = cached_replicate(config, n_scale, replicate)
        assert traj.jump_times.size > 0
        if (config, n_scale, replicate) == ("chain5", 50, 2):
            assert most_jumps_in_one_substep(traj) >= 2
        assert_replay_matches_loop(traj, kin)

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("config, n_scale, replicate, horizon", [
        ("default", 200, 0, 0.05), ("chain5", 50, 2, None),
    ], ids=["default-n200", "chain5-n50-r2"])
    def test_block_sizes_that_do_not_divide_the_substeps(
            self, monkeypatch, config, n_scale, replicate, horizon, block):
        traj, kin = cached_replicate(config, n_scale, replicate, horizon)
        n_sub = traj.n_times - 1
        assert block == 1 or n_sub % block != 0
        per_substep = 8 * traj.positions.size * kin.n_states * (kin.n_states + 6)
        monkeypatch.setattr(decomposition, "REPLAY_BLOCK_BYTES", block * per_substep)
        fills = []
        fill = _SeriesScatter.fill

        def recording_fill(self, t, states, *rows):
            fills.append(states.shape[0])
            fill(self, t, states, *rows)

        monkeypatch.setattr(_SeriesScatter, "fill", recording_fill)
        assert_replay_matches_loop(traj, kin)
        assert max(fills) == block

    def test_jumps_at_sample_times_and_zero_length_segments(self):
        g = build_grid(1.0, 20)
        k = constant_kinetics(up=0.8, down=0.4)
        times = np.linspace(0.0, 1.0, 11)
        jumps = [
            (times[0], 1, 0, 1),     # at the start: outside every substep
            (times[3], 0, 0, 1),     # at a sample time: ends substep 2
            (0.55, 0, 1, 0),         # two jumps at one instant: a zero-length
            (0.55, 0, 0, 1),         # segment between them
            (0.57, 2, 0, 1),
            (0.58, 2, 1, 0),
            (0.59, 2, 0, 1),         # three jumps of one channel in one substep
            (times[-1], 1, 0, 1),    # at the horizon
            (1.5, 0, 1, 0),          # past the horizon: never replayed
        ]
        traj = manual_trajectory(g, jumps, T=1.0, n_sub=10, n_scale=2,
                                 positions=np.array([-0.5, 0.0, 0.5]))
        assert_replay_matches_loop(traj, k)

    @pytest.mark.parametrize("jumps", [
        [(0.33, 0, 0, 1), (0.35, 1, 0, 1)],   # two channels of one cell, one substep
        [(0.52, 2, 0, 1), (0.55, 2, 1, 0)],   # out of its state and back in a substep
        [(0.97, 1, 0, 1)],                    # in the last substep
    ], ids=["one-cell", "out-and-back", "last-substep"])
    def test_touched_bins(self, jumps):
        g = build_grid(1.0, 20)
        k = constant_kinetics(up=0.8, down=0.4)
        # channels 0 and 1 share the cell [0, 0.1]; channel 2 sits on a node
        traj = manual_trajectory(g, jumps, T=1.0, n_sub=10, n_scale=3,
                                 positions=np.array([0.01, 0.06, 0.5]))
        assert_replay_matches_loop(traj, k)

    @pytest.mark.parametrize("window_bytes", [1, 40000])
    def test_touch_windows(self, monkeypatch, window_bytes):
        """Small windows, with edges between substeps that touch several
        bins and at and between the flushes of a small Riesz buffer."""
        traj, kin = cached_replicate("chain5", 50, 2)
        det = cached_reference("chain5")
        per_substep = 8 * traj.positions.size * kin.n_states * (kin.n_states + 6)
        monkeypatch.setattr(decomposition, "REPLAY_BLOCK_BYTES", 3 * per_substep)
        monkeypatch.setattr(decomposition, "TOUCH_WINDOW_BYTES", window_bytes)
        monkeypatch.setattr(grid_module, "RIESZ_CHUNK_BYTES",
                            7 * 8 * traj.grid.n_interior)
        windows = []
        price = _SeriesScatter._price_window

        def recording_price(self, t, need):
            price(self, t, need)
            windows.append((t, self.window_end))

        monkeypatch.setattr(_SeriesScatter, "_price_window", recording_price)
        assert_replay_matches_loop(traj, kin)
        assert_streamed_matches_store_all(traj, det, kin)
        touched = np.bincount(np.searchsorted(traj.times, traj.jump_times) - 1)
        edges = {end for _, end in windows if end < traj.n_times}
        assert any(touched[end - 2] >= 2 for end in edges)
        if window_bytes == 1:  # one window per piece: ends at the flushes too
            assert {7, 14, 21} <= edges
        else:  # windows of several blocks, flushed inside
            assert any(t < 14 < end for t, end in windows)

    def test_likelihood_suite_paths(self):
        g = build_grid(1.0, 10)
        k = constant_kinetics(up=0.8, down=0.4, clamp=(0.01, 2.0))
        rng = np.random.default_rng(2024)
        for _ in range(200):
            traj = _frozen_reference_trajectory(g, rng, 3.0, 1.0)
            assert traj.n_times == 9
            assert_replay_matches_loop(traj, k)


@functools.lru_cache(maxsize=None)
def cached_reference(config, time_horizon=None):
    overrides = {"default": {}, "chain5": CHAIN5}[config]
    if time_horizon is not None:
        overrides = {**overrides, "time_horizon": time_horizon}
    return run_reference(RunConfig.from_dict(overrides))


def store_all_deviation_metrics(traj, det, grid, kin):
    """Reference: every deviation series held at full length, then one max each."""
    l2sq, dsq = squared_norms(grid, traj.v - det.v)
    loads = streamed_series(traj, kin, ("c", "m"))[1]
    cmp_loads = loads["c"] - density_loads(traj.grid, det.p)
    return (float(np.sqrt(l2sq.max())), float(np.sqrt((l2sq + dsq).max())),
            {name: float(hminus1_norms(grid, cmp_loads[:, s]).max())
             for s, name in enumerate(kin.states)},
            {name: float(hminus1_norms(grid, loads["m"][:, s]).max())
             for s, name in enumerate(kin.states)})


def assert_streamed_matches_store_all(traj, det, kin):
    metrics = deviation_metrics(traj, det, traj.grid, kin)
    assert (metrics.sup_l2, metrics.sup_h10, metrics.sup_hm1,
            metrics.sup_mart_hm1) == store_all_deviation_metrics(traj, det, traj.grid, kin)
    times, norms = martingale_norm_series(traj, kin, traj.grid)
    assert times is traj.times
    assert np.array_equal(norms, hminus1_norms(
        traj.grid, streamed_series(traj, kin, ("m",))[1]["m"]))


class TestStreamedSeries:
    """Diagnostics read chunk by chunk equal those of the full-length series."""

    @given(n_states=st.integers(2, 4),
           n_times=st.integers(1, 25),
           block=st.integers(1, 6),
           chunk=st.integers(1, 9),
           keep=st.sets(st.sampled_from(SERIES), min_size=1),
           seed=st.integers(0, 2**32 - 1))
    def test_scatter_chunks_match_per_time_scatter(self, n_states, n_times, block,
                                                   chunk, keep, seed):
        g = build_grid(1.0, 12)
        rng = np.random.default_rng(seed)
        traj = random_jump_log(g, rng, n_states, n_times, 3)
        count = traj.positions.size
        comp = rng.exponential(size=(n_times, n_states, count))
        occ = rng.exponential(size=(n_times, n_states, count))
        with unittest.mock.patch.object(grid_module, "RIESZ_CHUNK_BYTES",
                                        chunk * 8 * g.n_interior):
            got, starts = streamed_scatter(traj, keep, block, comp, occ)
        rows = min(chunk, n_times)
        assert starts == [(t, min(rows, n_times - t)) for t in range(0, n_times, rows)]
        ref = dict(zip(SERIES, per_time_loads(g, traj.positions, 3,
                                              series_inputs(traj, comp, occ))))
        for name in keep:
            assert np.array_equal(got[name], ref[name])

    @pytest.mark.parametrize("config, n_scale, horizon", [
        ("default", 25, None), ("default", 800, None), ("chain5", 50, None),
        ("default", 200, 0.37),
    ], ids=["default-n25", "default-n800", "chain5-n50", "default-n200-t0.37"])
    def test_matches_store_all(self, config, n_scale, horizon):
        traj, kin = cached_replicate(config, n_scale, 0, horizon)
        det = cached_reference(config, horizon)
        if horizon is not None:
            chunk = riesz_chunk(traj.grid)
            assert traj.n_times % chunk != 0
        assert_streamed_matches_store_all(traj, det, kin)

    @pytest.mark.parametrize("config, n_scale, horizon, block, chunk", [
        ("default", 200, 0.37, 3, 7), ("chain5", 50, None, 4, 6),
        ("default", 25, 0.37, 5, 1),
    ], ids=["default-n200", "chain5-n50", "default-n25-chunk1"])
    def test_chunks_that_straddle_replay_blocks(self, monkeypatch, config, n_scale,
                                                horizon, block, chunk):
        traj, kin = cached_replicate(config, n_scale, 0, horizon)
        det = cached_reference(config, horizon)
        per_substep = 8 * traj.positions.size * kin.n_states * (kin.n_states + 6)
        monkeypatch.setattr(decomposition, "REPLAY_BLOCK_BYTES", block * per_substep)
        monkeypatch.setattr(grid_module, "RIESZ_CHUNK_BYTES",
                            chunk * 8 * traj.grid.n_interior)
        assert riesz_chunk(traj.grid) == chunk
        handed = []
        flush = _SeriesScatter.flush

        def recording_flush(self):
            if self.filled and self.consumer.__module__.startswith("axonsim."):
                handed.append((self.start, self.filled))
            flush(self)

        monkeypatch.setattr(_SeriesScatter, "flush", recording_flush)
        assert_streamed_matches_store_all(traj, det, kin)
        # the program's consumers: one pass of deviation_metrics, then one of
        # martingale_norm_series
        passes = [(t, min(chunk, traj.n_times - t)) for t in range(0, traj.n_times, chunk)]
        assert handed == 2 * passes

    def test_consumer_needs_a_series(self):
        traj, kin = cached_replicate("chain5", 50, 0)

        def ignore(start, loads):
            pass

        with pytest.raises(ValueError, match="consumer needs"):
            scan_path(traj, kin, want_series=False, consumer=ignore)
        with pytest.raises(ValueError, match="need a consumer"):
            scan_path(traj, kin, want_series=("m",))
        with pytest.raises(ValueError, match="unknown series"):
            scan_path(traj, kin, want_series=("m", "q"), consumer=ignore)

    def test_riesz_solves_per_replicate(self, monkeypatch):
        traj, kin = cached_replicate("default", 25, 0)
        det = cached_reference("default")
        calls = []
        solve = grid_module.riesz_solve

        def counting_solve(cb, loads):
            calls.append(loads.shape[1])
            return solve(cb, loads)

        monkeypatch.setattr(grid_module, "riesz_solve", counting_solve)
        built = []
        factor = grid_module.riesz_cholesky
        monkeypatch.setattr(grid_module, "riesz_cholesky",
                            lambda g: built.append(g) or factor(g))
        grid = dataclasses.replace(traj.grid)  # a fresh grid, whose factor is not yet built
        deviation_metrics(traj, det, grid, kin)
        # each series' (rows, 2 states, n_int) loads of the 7 chunks of 2,001
        # times go to one hminus1_norms call, which solves riesz_chunk columns
        # at a time: 2 solves for each of the 6 full chunks and 1 for the
        # 27-row rest, twice
        chunk = riesz_chunk(grid)
        assert 2001 == 6 * chunk + 27
        assert calls == ([chunk] * 4) * 6 + [27 * 2] * 2
        assert built == [grid]

    # about 1.25 times the peaks measured in a fresh process: 4.08, 4.36
    # and 2.77 MB
    @pytest.mark.parametrize("func, n_scale, bound_mb", [
        ("deviation_metrics", 25, 5.1), ("deviation_metrics", 800, 5.5),
        ("martingale_norm_series", 200, 3.5),
    ], ids=["deviation_metrics-25", "deviation_metrics-800", "martingale_norm_series-200"])
    def test_traced_peak_memory(self, func, n_scale, bound_mb):
        traj, kin = cached_replicate("default", n_scale, 0)
        det = cached_reference("default")
        args = {"deviation_metrics": (deviation_metrics, (traj, det, traj.grid, kin)),
                "martingale_norm_series": (martingale_norm_series,
                                           (traj, kin, traj.grid))}
        fn, fn_args = args[func]
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fn(*fn_args)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # a full-length series is (2,001 x 2 x 199) doubles, 6.4 MB
        assert peak < bound_mb * 1e6
