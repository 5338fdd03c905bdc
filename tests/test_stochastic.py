import csv

import numpy as np
import pytest

from axonsim.grid import (
    GridFunction,
    NodalField,
    build_grid,
    eval_at,
    hminus1_norm,
    pairing,
)
from axonsim.heat import KernelParams, apply_semigroup
from axonsim.kinetics import make_kinetics
from axonsim.profiles import fundamental_mode
from axonsim.stochastic import (
    StochasticState,
    channel_positions,
    channel_source,
    empirical_distribution,
    init_channels,
    make_rng,
    run_stoch,
    write_jump_csv,
    write_run_manifest,
    write_voltage_csv,
)
from axonsim.grid import density_functional


def kinetics(c_open=1.0, up=0.8, down=0.4, clamp=(0.01, 2.0)):
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


def uniform_p0(grid, p_open):
    n = grid.cells + 1
    return [NodalField(grid, (1 - p_open) * np.ones(n)),
            NodalField(grid, p_open * np.ones(n))]


class TestChannelLattice:
    def test_integer_product_count(self):
        # strict interior excludes +-N*l when it is an integer lattice point
        assert channel_positions(4, 1.0).size == 7
        assert channel_positions(100, 1.0).size == 199

    def test_fractional_product_count(self):
        # N*l = 5.0 for N=2, l=2.5: i = -4..4
        assert channel_positions(2, 2.5).size == 9
        # N*l = 2.6: i = -2..2
        assert channel_positions(2, 1.3).size == 5

    def test_single_channel(self):
        assert np.array_equal(channel_positions(1, 1.0), [0.0])

    def test_positions_strictly_interior(self):
        x = channel_positions(7, 1.3)
        assert np.all(np.abs(x) < 1.3)


class TestInitChannels:
    def test_concentrated_proportions(self):
        g = build_grid(1.0, 20)
        p0 = uniform_p0(g, 1.0)
        for mode in ("stratified", "iid"):
            cfg = init_channels(50, p0, mode, make_rng(1))
            assert np.all(cfg.states == 1)

    def test_stratified_balance(self):
        g = build_grid(1.0, 20)
        cfg = init_channels(100, uniform_p0(g, 0.5), "stratified", make_rng(1))
        counts = cfg.state_counts(2)
        assert abs(counts[0] - counts[1]) <= 1

    def test_stratified_dual_norm_shrinks(self):
        g = build_grid(1.0, 100)
        p0 = uniform_p0(g, 0.3)
        errs = []
        for n in (25, 50, 100, 200):
            cfg = init_channels(n, p0, "stratified", make_rng(1))
            emp = empirical_distribution(cfg, 1, g)
            target = density_functional(p0[1])
            errs.append(hminus1_norm(emp - target))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_unknown_mode(self):
        g = build_grid(1.0, 10)
        with pytest.raises(ValueError):
            init_channels(10, uniform_p0(g, 0.5), "shuffled", make_rng(0))


class TestEmpiricalDistribution:
    def test_absent_state_is_zero(self):
        g = build_grid(1.0, 20)
        cfg = init_channels(20, uniform_p0(g, 1.0), "stratified", make_rng(0))
        F = empirical_distribution(cfg, 0, g)
        assert np.all(F.loads == 0)

    def test_pairing_matches_point_sum(self):
        rng = np.random.default_rng(2)
        g = build_grid(1.0, 30)
        cfg = init_channels(40, uniform_p0(g, 0.5), "iid", make_rng(3))
        phi = GridFunction(g, rng.normal(size=g.n_interior))
        for s in (0, 1):
            val = pairing(phi, empirical_distribution(cfg, s, g))
            sel = cfg.states == s
            direct = sum(eval_at(phi, x) for x in cfg.positions[sel]) / cfg.n_scale
            assert val == pytest.approx(direct, abs=1e-12)

    def test_states_partition_total_mass(self):
        rng = np.random.default_rng(4)
        g = build_grid(1.0, 30)
        cfg = init_channels(40, uniform_p0(g, 0.5), "iid", make_rng(5))
        phi = GridFunction(g, rng.normal(size=g.n_interior))
        total = sum(pairing(phi, empirical_distribution(cfg, s, g)) for s in (0, 1))
        direct = sum(eval_at(phi, x) for x in cfg.positions) / cfg.n_scale
        assert total == pytest.approx(direct, abs=1e-12)


class TestChannelSource:
    def test_zero_conductance(self):
        g = build_grid(1.0, 20)
        cfg = init_channels(20, uniform_p0(g, 0.5), "stratified", make_rng(0))
        F = channel_source(cfg, fundamental_mode(g), kinetics(c_open=0.0), g)
        assert np.all(F.loads == 0)

    def test_single_open_channel_at_node(self):
        # N=2, cells=4 puts the channels at grid nodes
        g = build_grid(1.0, 4)
        p0 = uniform_p0(g, 1.0)
        cfg = init_channels(2, p0, "stratified", make_rng(0))
        v = GridFunction(g, np.zeros(3))
        F = channel_source(cfg, v, kinetics(), g)
        expected = np.zeros(3)
        for x in cfg.positions:
            node = int(round((x + 1) / g.h))
            expected[node - 1] += 1.0 / 2 * 1.0  # c (v_open - 0) / N
        assert np.allclose(F.loads, expected)

    def test_equilibrium_drive_vanishes(self):
        # all channels open and V = v_open at the channels: no source mass
        g = build_grid(1.0, 40)
        cfg = init_channels(5, uniform_p0(g, 1.0), "stratified", make_rng(0))
        v = GridFunction(g, np.full(g.n_interior, 1.0))
        F = channel_source(cfg, v, kinetics(), g)
        assert np.max(np.abs(F.loads)) < 1e-15


class TestStepStoch:
    """One-substep runs: ``run_stoch(init, dt, dt, k, rng)``."""

    def test_no_jump_branch_is_static_source_solve(self):
        g = build_grid(1.0, 50)
        k = kinetics(up=0.01, down=0.01)  # alpha_min floor, jumps unlikely
        cfg = init_channels(20, uniform_p0(g, 0.5), "stratified", make_rng(0))
        state = StochasticState(0.0, fundamental_mode(g, amplitude=0.5), cfg)
        dt = 1e-3
        traj = run_stoch(state, dt, dt, k, make_rng(42))
        assert traj.jump_times.size == 0
        assert np.array_equal(traj.final_states(), cfg.states)
        # against a hand-rolled single Crank-Nicolson solve with frozen sources
        from scipy.linalg import solve_banded
        from axonsim.grid import mass_bands, stiffness_bands
        from axonsim.stochastic import _HybridCore

        core = _HybridCore(g, k, cfg, state.v.values)
        kd, ko = stiffness_bands(g)
        md, mo = mass_bands(g)
        diag = kd + core.bd
        off = ko + core.bo
        v = state.v.values
        rhs = (md - dt / 2 * diag) * v
        rhs[:-1] += (mo - dt / 2 * off) * v[1:]
        rhs[1:] += (mo - dt / 2 * off) * v[:-1]
        rhs += dt * core.cload
        ab = np.zeros((3, v.size))
        ab[0, 1:] = mo + dt / 2 * off
        ab[1] = md + dt / 2 * diag
        ab[2, :-1] = ab[0, 1:]
        expected = solve_banded((1, 1), ab, rhs)
        assert np.array_equal(traj.v[-1], expected)

    def test_jumps_are_time_ordered_tuples(self):
        g = build_grid(1.0, 20)
        k = kinetics(up=2.0, down=2.0)
        cfg = init_channels(20, uniform_p0(g, 0.5), "stratified", make_rng(0))
        state = StochasticState(0.0, fundamental_mode(g, amplitude=0.5), cfg)
        traj = run_stoch(state, 0.05, 0.05, k, make_rng(3))
        jumps = list(zip(traj.jump_times.tolist(), traj.jump_channel.tolist(),
                         traj.jump_src.tolist(), traj.jump_dst.tolist()))
        assert jumps
        states = cfg.states.copy()
        for t, i, src, dst in jumps:
            assert 0.0 < t <= 0.05
            assert src == states[i] and dst != src
            states[i] = dst
        assert [j[0] for j in jumps] == sorted(j[0] for j in jumps)
        assert np.array_equal(traj.final_states(), states)

    def test_guard(self):
        g = build_grid(1.0, 10)
        cfg = init_channels(5, uniform_p0(g, 0.5), "stratified", make_rng(0))
        state = StochasticState(0.0, GridFunction(g, np.zeros(9)), cfg)
        with pytest.raises(ValueError):
            run_stoch(state, 0.5, 0.5, kinetics(), make_rng(0))

    def test_decoupled_marginal_matches_closed_form(self):
        # conductance zero decouples everything: each channel is an
        # independent replicate of the two-state chain
        alpha, beta = 0.8, 0.4
        k = kinetics(c_open=0.0, up=alpha, down=beta)
        g = build_grid(1.0, 40)
        p0 = uniform_p0(g, 0.1)
        rng = make_rng(123)
        cfg = init_channels(5001, p0, "iid", rng)
        assert cfg.count == 10001
        state = StochasticState(0.0, GridFunction(g, np.zeros(39)), cfg)
        traj = run_stoch(state, 0.5, 0.05, k, rng, store_history=False)
        frac_open = (traj.final_states() == 1).mean()
        pi = alpha / (alpha + beta)
        expected = pi + (0.1 - pi) * np.exp(-(alpha + beta) * 0.5)
        se = np.sqrt(expected * (1 - expected) / cfg.count)
        assert abs(frac_open - expected) <= 3 * se

    def test_seed_determinism(self):
        g = build_grid(1.0, 30)
        k = kinetics()
        p0 = uniform_p0(g, 0.3)

        def one():
            rng = make_rng(77)
            cfg = init_channels(50, p0, "iid", rng)
            state = StochasticState(0.0, fundamental_mode(g, amplitude=0.5), cfg)
            return run_stoch(state, 0.2, 1e-3, k, rng)

        a, b = one(), one()
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_dst, b.jump_dst)


class TestRunStoch:
    def test_zero_horizon(self):
        g = build_grid(1.0, 20)
        cfg = init_channels(10, uniform_p0(g, 0.5), "stratified", make_rng(0))
        traj = run_stoch(StochasticState(0.0, fundamental_mode(g, 0.5), cfg),
                         0.0, 1e-3, kinetics(), 5)
        assert traj.n_times == 1 and traj.jump_times.size == 0

    def test_zero_conductance_matches_heat_oracle(self):
        g = build_grid(1.0, 200)
        k = kinetics(c_open=0.0)
        cfg = init_channels(100, uniform_p0(g, 0.3), "stratified", make_rng(7))
        v0 = fundamental_mode(g, amplitude=0.5)
        traj = run_stoch(StochasticState(0.0, v0, cfg), 0.2, 1e-3, k, 7,
                         store_history=False)
        oracle = apply_semigroup(0.2, v0, KernelParams(1.0))
        assert np.max(np.abs(traj.v[-1] - oracle.values)) < 1e-4

    def test_jump_count_within_rate_bounds(self):
        k = kinetics()
        g = build_grid(1.0, 40)
        cfg0 = init_channels(50, uniform_p0(g, 0.3), "stratified", make_rng(0))
        t_hor = 1.0
        counts = []
        for rep in range(20):
            cfg = init_channels(50, uniform_p0(g, 0.3), "stratified", make_rng(rep))
            traj = run_stoch(StochasticState(0.0, fundamental_mode(g, 0.5), cfg),
                             t_hor, 5e-3, k, rep, store_history=False)
            counts.append(traj.jump_times.size)
        mean = np.mean(counts)
        lo = cfg0.count * 1 * k.alpha_min * t_hor
        hi = cfg0.count * 1 * k.alpha_max * t_hor
        assert lo <= mean <= hi

    def test_channel_count_conserved(self):
        g = build_grid(1.0, 40)
        k = kinetics()
        cfg = init_channels(60, uniform_p0(g, 0.3), "stratified", make_rng(3))
        traj = run_stoch(StochasticState(0.0, fundamental_mode(g, 0.5), cfg),
                         0.5, 2e-3, k, 3, store_history=False)
        total0 = cfg.count
        states = traj.initial_states.copy()
        bounds = np.searchsorted(traj.jump_times, traj.times, side="right")
        for idx in range(traj.n_times):
            for e in range(bounds[max(idx - 1, 0)], bounds[idx]):
                states[traj.jump_channel[e]] = traj.jump_dst[e]
            assert states.size == total0

    def test_empirical_total_mass_constant(self):
        g = build_grid(1.0, 40)
        k = kinetics()
        cfg = init_channels(60, uniform_p0(g, 0.3), "stratified", make_rng(9))
        traj = run_stoch(StochasticState(0.0, fundamental_mode(g, 0.5), cfg),
                         0.3, 2e-3, k, 9, store_history=False)
        ones = GridFunction(g, np.ones(g.n_interior))
        from axonsim.stochastic import ChannelConfig

        states = traj.initial_states.copy()
        bounds = np.searchsorted(traj.jump_times, traj.times, side="right")
        masses = []
        for idx in range(traj.n_times):
            for e in range(bounds[max(idx - 1, 0)], bounds[idx]):
                states[traj.jump_channel[e]] = traj.jump_dst[e]
            c = ChannelConfig(cfg.n_scale, cfg.positions, states)
            masses.append(sum(
                pairing(ones, empirical_distribution(c, s, g)) for s in (0, 1)
            ))
        assert np.max(np.abs(np.array(masses) - masses[0])) < 1e-13

    def test_boundary_always_zero(self):
        # grid functions carry no endpoint values by construction; the
        # source scatter must not leak mass outside the interior
        g = build_grid(1.0, 10)
        k = kinetics()
        cfg = init_channels(40, uniform_p0(g, 0.5), "stratified", make_rng(1))
        # channels in the outermost cells exercise the truncated hat weights
        assert np.max(np.abs(cfg.positions)) > g.nodes[-2]
        traj = run_stoch(StochasticState(0.0, fundamental_mode(g, 0.5), cfg),
                         0.1, 1e-3, k, 1, store_history=False)
        assert traj.v.shape[1] == g.n_interior


class TestExports:
    def test_csv_and_manifest(self, tmp_path):
        g = build_grid(1.0, 10)
        k = kinetics()
        cfg = init_channels(10, uniform_p0(g, 0.5), "stratified", make_rng(0))
        traj = run_stoch(StochasticState(0.0, fundamental_mode(g, 0.5), cfg),
                         0.05, 1e-2, k, 11)
        write_voltage_csv(traj, tmp_path / "v.csv")
        write_jump_csv(traj, tmp_path / "jumps.csv", state_names=k.states)
        write_run_manifest(traj, tmp_path / "manifest.json", config_digest="abc")
        with open(tmp_path / "v.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "node", "x", "V"]
        assert len(rows) == 1 + traj.n_times * (g.cells + 1)
        with open(tmp_path / "jumps.csv") as fh:
            jrows = list(csv.reader(fh))
        assert jrows[0] == ["t", "channel", "from", "to"]
        assert len(jrows) == 1 + traj.jump_times.size
        import json

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_digest"] == "abc"
        assert manifest["n_scale"] == 10
