import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from axonsim import deterministic, stochastic
from axonsim.errors import InvariantViolation
from axonsim.grid import (
    CrankNicolson,
    GridFunction,
    build_grid,
    density_loads,
    hat_interpolate,
    hat_scatter,
    hat_scatter_arrays,
    hat_weights,
    hminus1_norms,
)
from axonsim.harness import DEFAULT_CONFIG, RunConfig, run_reference, run_replicate
from axonsim.heat import KernelParams, apply_semigroup
from axonsim.kinetics import make_kinetics, rate_table
from axonsim.profiles import fundamental_mode
from axonsim.deterministic import _LEDGER_BLOCK
from axonsim.stochastic import (
    StochTrajectory,
    channel_positions,
    init_channels,
    make_rng,
    run_stoch,
    write_jump_csv,
    write_run_manifest,
    write_voltage_csv,
    _HybridCore,
)
from conftest import eval_at, final_states
from test_decomposition import (
    CHAIN5,
    cached_replicate,
    most_jumps_in_one_substep,
    streamed_series,
)
from test_deterministic import l2_norm
from test_grid import add_at_scatter


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
    return np.stack([(1 - p_open) * np.ones(n), p_open * np.ones(n)])


def initial_c_loads(cfg, g):
    """The empirical distributions C_xi(0) as the replay scatters them: the
    (n_states, n_int) ``c`` loads at time 0 of a zero-horizon run."""
    k = kinetics()
    traj = run_stoch(g, np.zeros(g.n_interior), cfg, 0.0, 1e-3, k, 0)
    return streamed_series(traj, k, ("c",))[1]["c"][0]


def core_source(cfg, v, k, g):
    """The assembled point-source loads (1/N) sum_i c_i (v_i - V(x_i)) delta_{x_i}
    of ``_HybridCore``: cload - B v."""
    core = _HybridCore(g, k, cfg, v.values)
    bv = core.bd * v.values
    bv[:-1] += core.bo * v.values[1:]
    bv[1:] += core.bo * v.values[:-1]
    return core.cload - bv


def add_at_source(grid, k, channels):
    """Oracle: (bd, bo, cload) by the per-side ``np.add.at`` assembly the
    scatter kernel replaced, from the hat weights."""
    cell, wl, wr = hat_weights(grid, channels.positions)
    n_int = grid.n_interior
    index = np.clip(np.stack((cell - 1, cell)), 0, n_int - 1)
    wt_lo = np.where(cell - 1 >= 0, wl, 0.0)
    wt_hi = np.where(cell <= n_int - 1, wr, 0.0)
    off_idx = np.clip(cell - 1, 0, max(n_int - 2, 0))
    c = k.conductance[channels.states] / channels.n_scale
    cv = c * k.driving[channels.states]
    return (add_at_scatter(c, (index, np.stack((wt_lo**2, wt_hi**2))), n_int),
            add_at_scatter(c, ([off_idx], [wt_lo * wt_hi]), n_int - 1),
            add_at_scatter(cv, (index, np.stack((wt_lo, wt_hi))), n_int))


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


def numpy_stratified(grid, n_scale, p0):
    """The stratified greedy loop on numpy arrays, as ``init_channels`` ran it
    before its Python-float loop: the oracle of that loop."""
    x = channel_positions(n_scale, grid.half_length)
    probs = hat_interpolate(p0, hat_weights(grid, x))
    probs = probs / probs.sum(axis=0)
    n_states, count = probs.shape
    states = np.empty(count, dtype=np.int64)
    owed = np.zeros(n_states)
    for i in range(count):
        owed += probs[:, i]
        pick = int(np.argmax(owed))
        owed[pick] -= 1.0
        states[i] = pick
    return states


class TestInitChannels:
    def test_concentrated_proportions(self):
        g = build_grid(1.0, 20)
        p0 = uniform_p0(g, 1.0)
        for mode in ("stratified", "iid"):
            cfg = init_channels(g, 50, p0, mode, make_rng(1))
            assert np.all(cfg.states == 1)

    def test_stratified_balance(self):
        g = build_grid(1.0, 20)
        cfg = init_channels(g, 100, uniform_p0(g, 0.5), "stratified", make_rng(1))
        counts = np.bincount(cfg.states, minlength=2)
        assert abs(counts[0] - counts[1]) <= 1

    def test_stratified_dual_norm_shrinks(self):
        g = build_grid(1.0, 100)
        p0 = uniform_p0(g, 0.3)
        errs = []
        target = density_loads(g, p0[1])
        for n in (25, 50, 100, 200):
            cfg = init_channels(g, n, p0, "stratified", make_rng(1))
            errs.append(float(hminus1_norms(g, initial_c_loads(cfg, g)[1] - target)))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    @given(n_states=st.integers(2, 5), n_scale=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1), tied=st.booleans(),
           cells=st.integers(3, 40))
    def test_stratified_matches_the_numpy_loop(self, n_states, n_scale, seed, tied, cells):
        g = build_grid(1.0, cells)
        rng = np.random.default_rng(seed)
        # tied: equal weights everywhere, so every pick breaks a tie
        p0 = (np.ones((n_states, cells + 1)) if tied
              else rng.random((n_states, cells + 1)) * rng.integers(0, 2, (n_states, 1)))
        p0[0] += 1e-3  # no node without weight
        p0 /= p0.sum(axis=0)
        cfg = init_channels(g, n_scale, p0, "stratified", make_rng(0))
        assert cfg.states.dtype == np.int64
        assert np.array_equal(cfg.states, numpy_stratified(g, n_scale, p0))

    def test_unknown_mode(self):
        g = build_grid(1.0, 10)
        with pytest.raises(ValueError):
            init_channels(g, 10, uniform_p0(g, 0.5), "shuffled", make_rng(0))


class TestEmpiricalDistribution:
    """C_xi(0), mass 1/N at each channel in state xi, as the replay's hat loads."""

    def test_absent_state_is_zero(self):
        g = build_grid(1.0, 20)
        cfg = init_channels(g, 20, uniform_p0(g, 1.0), "stratified", make_rng(0))
        loads = initial_c_loads(cfg, g)
        assert np.all(loads[0] == 0)

    def test_pairing_matches_point_sum(self):
        rng = np.random.default_rng(2)
        g = build_grid(1.0, 30)
        cfg = init_channels(g, 40, uniform_p0(g, 0.5), "iid", make_rng(3))
        phi = GridFunction(g, rng.normal(size=g.n_interior))
        loads = initial_c_loads(cfg, g)
        for s in (0, 1):
            sel = cfg.states == s
            direct = sum(eval_at(phi, x) for x in cfg.positions[sel]) / cfg.n_scale
            assert loads[s] @ phi.values == pytest.approx(direct, abs=1e-12)
            kernel = hat_scatter(sel / cfg.n_scale,
                                 hat_scatter_arrays(g, cfg.positions), g.n_interior)
            assert np.array_equal(loads[s], kernel)

    def test_states_partition_total_mass(self):
        rng = np.random.default_rng(4)
        g = build_grid(1.0, 30)
        cfg = init_channels(g, 40, uniform_p0(g, 0.5), "iid", make_rng(5))
        phi = GridFunction(g, rng.normal(size=g.n_interior))
        total = initial_c_loads(cfg, g).sum(axis=0) @ phi.values
        direct = sum(eval_at(phi, x) for x in cfg.positions) / cfg.n_scale
        assert total == pytest.approx(direct, abs=1e-12)


class TestChannelSource:
    """The point-source loads ``_HybridCore`` assembles: cload - B v."""

    def test_zero_conductance(self):
        g = build_grid(1.0, 20)
        cfg = init_channels(g, 20, uniform_p0(g, 0.5), "stratified", make_rng(0))
        F = core_source(cfg, fundamental_mode(g), kinetics(c_open=0.0), g)
        assert np.all(F == 0)

    def test_single_open_channel_at_node(self):
        # N=2, cells=4 puts the channels at grid nodes
        g = build_grid(1.0, 4)
        p0 = uniform_p0(g, 1.0)
        cfg = init_channels(g, 2, p0, "stratified", make_rng(0))
        v = GridFunction(g, np.zeros(3))
        F = core_source(cfg, v, kinetics(), g)
        expected = np.zeros(3)
        for x in cfg.positions:
            node = int(round((x + 1) / g.h))
            expected[node - 1] += 1.0 / 2 * 1.0  # c (v_open - 0) / N
        assert np.allclose(F, expected)

    def test_equilibrium_drive_vanishes(self):
        # all channels open and V = v_open at the channels: no source mass
        g = build_grid(1.0, 40)
        cfg = init_channels(g, 5, uniform_p0(g, 1.0), "stratified", make_rng(0))
        v = GridFunction(g, np.full(g.n_interior, 1.0))
        F = core_source(cfg, v, kinetics(), g)
        assert np.max(np.abs(F)) < 1e-15

    @pytest.mark.parametrize("config, n_scale", [
        ("default", 25), ("default", 200), ("default", 800), ("chain5", 50),
    ])
    def test_assembly_matches_add_at(self, config, n_scale):
        cfg = RunConfig.from_dict({"default": {}, "chain5": CHAIN5}[config])
        grid, kin, v0, p0 = cfg.build()
        channels = init_channels(grid, n_scale, p0, cfg.init_mode, make_rng(5))
        core = _HybridCore(grid, kin, channels, v0)
        for got, ref in zip((core.bd, core.bo, core.cload),
                            add_at_source(grid, kin, channels)):
            assert np.array_equal(got, ref)


class TestStepStoch:
    """One-substep runs: ``run_stoch(grid, v0, channels, dt, dt, k, rng)``."""

    def test_no_jump_branch_is_static_source_solve(self):
        g = build_grid(1.0, 50)
        k = kinetics(up=0.01, down=0.01)  # alpha_min floor, jumps unlikely
        cfg = init_channels(g, 20, uniform_p0(g, 0.5), "stratified", make_rng(0))
        v = fundamental_mode(g, amplitude=0.5).values
        dt = 1e-3
        traj = run_stoch(g, v, cfg, dt, dt, k, make_rng(42))
        assert traj.jump_times.size == 0
        assert np.array_equal(final_states(traj), cfg.states)
        # against a hand-rolled single Crank-Nicolson solve with frozen sources
        from axonsim.grid import mass_bands, stiffness_bands

        core = _HybridCore(g, k, cfg, v)
        kd, ko = stiffness_bands(g)
        md, mo = mass_bands(g)
        diag = kd + core.bd
        off = ko + core.bo
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
        cfg = init_channels(g, 20, uniform_p0(g, 0.5), "stratified", make_rng(0))
        traj = run_stoch(g, fundamental_mode(g, amplitude=0.5).values, cfg, 0.05, 0.05,
                         k, make_rng(3))
        jumps = list(zip(traj.jump_times.tolist(), traj.jump_channel.tolist(),
                         traj.jump_src.tolist(), traj.jump_dst.tolist()))
        assert jumps
        states = cfg.states.copy()
        for t, i, src, dst in jumps:
            assert 0.0 < t <= 0.05
            assert src == states[i] and dst != src
            states[i] = dst
        assert [j[0] for j in jumps] == sorted(j[0] for j in jumps)
        assert np.array_equal(final_states(traj), states)

    def test_guard(self):
        g = build_grid(1.0, 10)
        cfg = init_channels(g, 5, uniform_p0(g, 0.5), "stratified", make_rng(0))
        with pytest.raises(ValueError):
            run_stoch(g, np.zeros(9), cfg, 0.5, 0.5, kinetics(), make_rng(0))

    def test_decoupled_marginal_matches_closed_form(self):
        # conductance zero decouples everything: each channel is an
        # independent replicate of the two-state chain
        alpha, beta = 0.8, 0.4
        k = kinetics(c_open=0.0, up=alpha, down=beta)
        g = build_grid(1.0, 40)
        p0 = uniform_p0(g, 0.1)
        rng = make_rng(123)
        cfg = init_channels(g, 5001, p0, "iid", rng)
        assert cfg.count == 10001
        traj = run_stoch(g, np.zeros(39), cfg, 0.5, 0.05, k, rng)
        frac_open = (final_states(traj) == 1).mean()
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
            cfg = init_channels(g, 50, p0, "iid", rng)
            return run_stoch(g, fundamental_mode(g, amplitude=0.5).values, cfg, 0.2, 1e-3,
                             k, rng)

        a, b = one(), one()
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_dst, b.jump_dst)


class TestRunStoch:
    def test_zero_horizon(self):
        g = build_grid(1.0, 20)
        cfg = init_channels(g, 10, uniform_p0(g, 0.5), "stratified", make_rng(0))
        traj = run_stoch(g, fundamental_mode(g, 0.5).values, cfg, 0.0, 1e-3, kinetics(), 5)
        assert traj.n_times == 1 and traj.jump_times.size == 0

    @pytest.mark.parametrize("cells", [2, 3])
    def test_needs_two_interior_nodes(self, cells):
        """A one-node grid has no off-diagonal for the point sources' operator."""
        g = build_grid(1.0, cells)
        cfg = init_channels(g, 3, uniform_p0(g, 0.5), "stratified", make_rng(0))
        start = (g, fundamental_mode(g, 0.5).values, cfg)
        if cells < 3:
            with pytest.raises(ValueError, match="cells >= 3, got 2"):
                run_stoch(*start, 0.01, 1e-3, kinetics(), 0)
        else:
            traj = run_stoch(*start, 0.01, 1e-3, kinetics(), 0)
            assert traj.n_times == 11 and np.all(np.isfinite(traj.v))

    def test_zero_conductance_matches_heat_oracle(self):
        g = build_grid(1.0, 200)
        k = kinetics(c_open=0.0)
        cfg = init_channels(g, 100, uniform_p0(g, 0.3), "stratified", make_rng(7))
        v0 = fundamental_mode(g, amplitude=0.5)
        traj = run_stoch(g, v0.values, cfg, 0.2, 1e-3, k, 7)
        oracle = apply_semigroup(0.2, v0, KernelParams(1.0))
        assert np.max(np.abs(traj.v[-1] - oracle.values)) < 1e-4

    def test_jump_count_within_rate_bounds(self):
        k = kinetics()
        g = build_grid(1.0, 40)
        cfg0 = init_channels(g, 50, uniform_p0(g, 0.3), "stratified", make_rng(0))
        t_hor = 1.0
        counts = []
        for rep in range(20):
            cfg = init_channels(g, 50, uniform_p0(g, 0.3), "stratified", make_rng(rep))
            traj = run_stoch(g, fundamental_mode(g, 0.5).values, cfg,
                             t_hor, 5e-3, k, rep)
            counts.append(traj.jump_times.size)
        mean = np.mean(counts)
        lo = cfg0.count * 1 * k.alpha_min * t_hor
        hi = cfg0.count * 1 * k.alpha_max * t_hor
        assert lo <= mean <= hi

    def test_channel_count_conserved(self):
        g = build_grid(1.0, 40)
        k = kinetics()
        cfg = init_channels(g, 60, uniform_p0(g, 0.3), "stratified", make_rng(3))
        traj = run_stoch(g, fundamental_mode(g, 0.5).values, cfg,
                         0.5, 2e-3, k, 3)
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
        cfg = init_channels(g, 60, uniform_p0(g, 0.3), "stratified", make_rng(9))
        traj = run_stoch(g, fundamental_mode(g, 0.5).values, cfg,
                         0.3, 2e-3, k, 9)
        assert traj.jump_times.size > 0
        c_loads = streamed_series(traj, k, ("c",))[1]["c"]
        masses = c_loads.sum(axis=(1, 2))
        assert np.max(np.abs(masses - masses[0])) < 1e-13

    def test_boundary_always_zero(self):
        # grid functions carry no endpoint values by construction; the
        # source scatter must not leak mass outside the interior
        g = build_grid(1.0, 10)
        k = kinetics()
        cfg = init_channels(g, 40, uniform_p0(g, 0.5), "stratified", make_rng(1))
        # channels in the outermost cells exercise the truncated hat weights
        assert np.max(np.abs(cfg.positions)) > g.nodes[-2]
        traj = run_stoch(g, fundamental_mode(g, 0.5).values, cfg,
                         0.1, 1e-3, k, 1)
        assert traj.v.shape[1] == g.n_interior


def reference_voltage_csv(traj, path, stride=1):
    """The per-row ``csv.writer`` voltage writer, as the byte oracle."""
    nodes = traj.grid.nodes
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "node", "x", "V"])
        for idx in range(0, traj.n_times, stride):
            v_full = np.zeros(nodes.size)
            v_full[1:-1] = traj.v[idx]
            for j in range(nodes.size):
                w.writerow([repr(float(traj.times[idx])), j,
                            repr(float(nodes[j])), repr(float(v_full[j]))])


def reference_jump_csv(traj, path, state_names=None):
    """The per-row ``csv.writer`` jump-log writer, as the byte oracle."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "channel", "from", "to"])
        for t, i, a, b in zip(traj.jump_times.tolist(), traj.jump_channel.tolist(),
                              traj.jump_src.tolist(), traj.jump_dst.tolist()):
            src = state_names[a] if state_names else a
            dst = state_names[b] if state_names else b
            w.writerow([repr(t), i, src, dst])


EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, -1.5, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestExports:
    def test_csv_and_manifest(self, tmp_path):
        g = build_grid(1.0, 10)
        k = kinetics()
        cfg = init_channels(g, 10, uniform_p0(g, 0.5), "stratified", make_rng(0))
        traj = run_stoch(g, fundamental_mode(g, 0.5).values, cfg,
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

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("chain", ["two-state", "five-state"])
    def test_bytes_match_csv_writer(self, tmp_path, five_state_kinetics, chain, stride):
        g = build_grid(1.0, 12)
        k = kinetics() if chain == "two-state" else five_state_kinetics
        p0 = np.full((k.n_states, g.cells + 1), 1.0 / k.n_states)
        cfg = init_channels(g, 20, p0, "iid", make_rng(3))
        traj = run_stoch(g, fundamental_mode(g, 0.5).values, cfg,
                         0.07, 1e-2, k, 5)
        assert traj.n_times % 3 != 0 and traj.jump_times.size > 0
        write_voltage_csv(traj, tmp_path / "v.csv", stride=stride)
        reference_voltage_csv(traj, tmp_path / "v_ref.csv", stride=stride)
        assert (tmp_path / "v.csv").read_bytes() == (tmp_path / "v_ref.csv").read_bytes()
        for names in (k.states, None):
            write_jump_csv(traj, tmp_path / "j.csv", state_names=names)
            reference_jump_csv(traj, tmp_path / "j_ref.csv", state_names=names)
            assert (tmp_path / "j.csv").read_bytes() == (
                tmp_path / "j_ref.csv").read_bytes()

    @given(data=st.data(), cells=st.integers(2, 6), n_times=st.integers(1, 5),
           n_jumps=st.integers(0, 4), stride=st.integers(1, 3),
           names=st.lists(st.text(alphabet='ab ,"\r\n', max_size=3),
                          min_size=2, max_size=3, unique=True))
    def test_bytes_match_csv_writer_on_edge_values(self, tmp_path_factory, data, cells,
                                                   n_times, n_jumps, stride, names):
        g = build_grid(1.0, cells)

        def floats(*shape):
            flat = data.draw(st.lists(EDGE_FLOATS, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))
            return np.array(flat, dtype=float).reshape(shape)

        def states():
            return np.array(data.draw(st.lists(st.integers(0, len(names) - 1),
                                               min_size=n_jumps, max_size=n_jumps)),
                            dtype=np.int64)

        traj = StochTrajectory(
            grid=g, n_scale=1, positions=np.array([0.0]),
            initial_states=np.zeros(1, dtype=np.int64), n_states=len(names),
            times=floats(n_times), v=floats(n_times, g.n_interior),
            jump_times=floats(n_jumps), jump_channel=states(), jump_src=states(),
            jump_dst=states(), seed=None, dissipation=np.zeros(n_times), sup_v_inf=0.0)
        tmp_path = tmp_path_factory.mktemp("edge")
        write_voltage_csv(traj, tmp_path / "v.csv", stride=stride)
        reference_voltage_csv(traj, tmp_path / "v_ref.csv", stride=stride)
        assert (tmp_path / "v.csv").read_bytes() == (tmp_path / "v_ref.csv").read_bytes()
        write_jump_csv(traj, tmp_path / "j.csv", state_names=names)
        reference_jump_csv(traj, tmp_path / "j_ref.csv", state_names=names)
        assert (tmp_path / "j.csv").read_bytes() == (tmp_path / "j_ref.csv").read_bytes()


def uncached_advance_pde(self, tau):
    """A solve with no held system: bands, rhs and scipy's solve rebuilt every call."""
    if tau <= 0.0:
        return
    half = 0.5 * tau
    diag_op = self.kd + self.bd
    off_op = self.ko + self.bo
    v = self.v_full[1:-1]
    rhs_off = self.mo - half * off_op
    rhs = (self.md - half * diag_op) * v
    rhs[:-1] += rhs_off * v[1:]
    rhs[1:] += rhs_off * v[:-1]
    rhs += tau * self.cload
    ab = np.zeros((3, v.size))
    ab[0, 1:] = self.mo + half * off_op
    ab[1] = self.md + half * diag_op
    ab[2, :-1] = ab[0, 1:]
    self.v_full[1:-1] = solve_banded((1, 1), ab, rhs)


def expected_systems(traj, kin, dt):
    """(step lengths of the run's ``CrankNicolson.system`` calls, how many of
    them jump-free substeps made, jump-free substeps, jumps that keep the
    operator), from the jump log.

    Every solve over tau > 0 forms a system unless the held one has the same
    tau and no jump changed the operator since.  A jump substep solves up to
    each of its jumps in turn and then to its end, and a jump-free substep
    solves over dt.  A jump changes the operator unless source and target
    states have the same conductance and the same conductance times
    driving potential.
    """
    sub = np.searchsorted(traj.times, traj.jump_times, side="left") - 1
    first = np.searchsorted(sub, np.arange(traj.n_times))  # each substep's first jump
    cv = kin.conductance * kin.driving
    changes = ((kin.conductance[traj.jump_src] != kin.conductance[traj.jump_dst])
               | (cv[traj.jump_src] != cv[traj.jump_dst]))
    formed, held = [], None  # (tau, made by a jump-free substep) per system call

    def solve(tau, quiet=False):
        nonlocal held
        if 0.0 < tau != held:
            formed.append((tau, quiet))
            held = tau

    for step in range(traj.n_times - 1):
        t0 = cursor = float(traj.times[step])
        lo, hi = first[step], first[step + 1]
        if lo == hi:
            solve(dt, quiet=True)
            continue
        for te, change in zip(traj.jump_times[lo:hi].tolist(), changes[lo:hi].tolist()):
            solve(te - cursor)
            held = None if change else held
            cursor = te
        solve(t0 + dt - cursor)
    taus = [tau for tau, _ in formed]
    quiet = sum(quiet for _, quiet in formed)
    return taus, quiet, int((first[1:] == first[:-1]).sum()), int((~changes).sum())


class TestStoredFactor:
    """Jump-free substeps reuse the held Crank-Nicolson system, formed
    exactly when the step length or the operator changes, and every solve
    equals an uncached sub-solve."""

    @pytest.mark.parametrize("config, n_scale, replicate", [
        ("default", 25, 0), ("default", 200, 0), ("default", 800, 0), ("chain5", 50, 2),
    ], ids=["default-n25", "default-n200", "default-n800", "chain5-n50-r2"])
    def test_matches_uncached_sub_solves(self, monkeypatch, config, n_scale, replicate):
        traj, kin = cached_replicate(config, n_scale, replicate)
        if config == "chain5":
            assert most_jumps_in_one_substep(traj) >= 2
        taus = []
        system = CrankNicolson.system

        def counting_system(self, reaction, tau, load):
            taus.append(tau)
            return system(self, reaction, tau, load)

        monkeypatch.setattr(CrankNicolson, "system", counting_system)
        cfg = RunConfig.from_dict({"default": {}, "chain5": CHAIN5}[config])
        counted = run_replicate(cfg, n_scale, replicate)
        assert np.array_equal(counted.v, traj.v)
        expected, quiet, no_jump, unchanged = expected_systems(traj, kin, cfg.dt)
        assert taus == expected  # every call, in order, at its tau
        assert quiet < no_jump  # the held system is reused
        if config == "chain5":
            assert unchanged > 0  # jumps between zero-conductance states keep it

        monkeypatch.setattr(_HybridCore, "_advance_pde", uncached_advance_pde)
        oracle = run_replicate(cfg, n_scale, replicate)
        assert np.array_equal(oracle.v, traj.v)
        for name in ("jump_times", "jump_channel", "jump_src", "jump_dst", "dissipation"):
            assert np.array_equal(getattr(oracle, name), getattr(traj, name))
        assert oracle.sup_v_inf == traj.sup_v_inf

    def test_changing_jump_drops_the_held_system(self):
        """After a jump that changes the operator, a solve at the held step
        length forms its system again."""
        grid, kin, v0, p0 = RunConfig.from_dict({}).build()
        channels = init_channels(grid, 25, p0, "stratified", make_rng(0))
        core, oracle = (_HybridCore(grid, kin, channels, v0) for _ in range(2))
        dst = int(np.argmax(kin.conductance != kin.conductance[channels.states[0]]))
        assert kin.conductance[dst] != kin.conductance[channels.states[0]]
        for engine, advance in ((core, _HybridCore._advance_pde),
                                (oracle, uncached_advance_pde)):
            advance(engine, 1e-3)
            engine._apply_jump(0, dst)
            advance(engine, 1e-3)
        assert np.array_equal(core.v_full, oracle.v_full)


def reference_advance(self, times, stop, dt, rng, snaps):
    """One substep per call, with every channel's rates evaluated at the
    substep's start and its holding time drawn against its own exit rate."""
    table = rate_table(self.k, hat_interpolate(self.v_full, self.hats))
    tau = rng.exponential(size=self.count) / table.sum(axis=0)[
        self.states, np.arange(self.count)]
    t0 = float(times[self.step])
    events = []
    for i in np.nonzero(tau <= dt)[0].tolist():
        events.extend(self._jump_chain(i, float(tau[i]), dt, table[:, :, i], t0, rng))
    events.sort(key=lambda e: e[0])
    cursor = t0
    for te, i, _src, dst in events:
        self._advance_pde(te - cursor)
        self._apply_jump(i, dst)
        cursor = te
    self._advance_pde(t0 + dt - cursor if events else dt)
    self.step += 1
    snaps[self.step] = self.v_full[1:-1]
    return events


# Constant rates at or past the clamp ceiling: every exit rate equals the
# kinetics' exit bound, so every candidate jumps.
AT_CEILING = {"kinetics": {**DEFAULT_CONFIG["kinetics"], "rates": [
    {"from": "closed", "to": "open", "form": "constant", "params": {"a": 5.0}},
    {"from": "open", "to": "closed", "form": "constant", "params": {"a": 9.0}}]}}


class TestCandidates:
    """Rates only at the channels whose holding time can end in the substep."""

    @pytest.mark.parametrize("replicate", [0, 1])
    @pytest.mark.parametrize("config, n_scale", [
        ("default", 25), ("default", 50), ("default", 200), ("default", 800),
        ("chain5", 50), ("chain5", 400), ("dt5e-3", 100), ("ceiling", 200),
    ])
    def test_matches_every_channel_stepper(self, monkeypatch, config, n_scale, replicate):
        cfg = RunConfig.from_dict({"default": {}, "chain5": CHAIN5, "dt5e-3": {"dt": 5e-3},
                                   "ceiling": AT_CEILING}[config])
        if config in ("default", "chain5"):
            traj, _ = cached_replicate(config, n_scale, replicate)
        else:
            traj = run_replicate(cfg, n_scale, replicate)
        if config == "ceiling":
            kin = cfg.build()[1]
            assert np.all(rate_table(kin, np.linspace(-1.0, 1.0, 5)).sum(axis=0)
                          == kin.exit_bound)
        monkeypatch.setattr(_HybridCore, "advance", reference_advance)
        reference = run_replicate(cfg, n_scale, replicate)
        assert traj.jump_times.size > 0
        for name in ("v", "jump_times", "jump_channel", "jump_src", "jump_dst",
                     "dissipation"):
            assert np.array_equal(getattr(traj, name), getattr(reference, name))
        assert traj.sup_v_inf == reference.sup_v_inf

    def test_rates_evaluated_for_few_channel_substeps(self, monkeypatch):
        """A path that fell back to every channel would pass every bitwise
        test.  At the default N=800 and seed 42, rates are evaluated for
        0.198 % of the channel substeps."""
        cfg = RunConfig.from_dict({})
        assert cfg.seed == 42
        evaluated = []
        simulator_table = stochastic.rate_table

        def counting_table(k, v):
            evaluated.append(np.size(v))
            return simulator_table(k, v)

        monkeypatch.setattr(stochastic, "rate_table", counting_table)
        traj = run_replicate(cfg, 800, 0)
        share = sum(evaluated) / (traj.positions.size * (traj.n_times - 1))
        assert 0.0 < share < 0.01


# Small initial voltage and mostly open channels: the dissipation outgrows
# ||v0||^2 at t = 0.193, mid-way through a ledger block.
TRIP = {"time_horizon": 0.5,
        "v0": {"form": "eigenfunction", "params": {"mode": 1, "amplitude": 0.1}},
        "p0": {"form": "uniform", "params": {"weights": {"closed": 0.3, "open": 0.7}}}}


def first_budget_failure(traj):
    """(index, message) where the budget ||v0||^2 of (cmax, vmax) = (0, 0) fails."""
    s0sq = l2_norm(traj.grid, traj.v[0]) ** 2
    m = int(np.argmax(traj.dissipation > s0sq))
    assert traj.dissipation[m] > s0sq
    return m, (f"dissipation {traj.dissipation[m]:.6f} exceeds budget {s0sq:.6f} "
               f"at t={float(traj.times[m])}")


class TestBlockLedger:
    """The block ledger raises where the per-step ledger did."""

    @pytest.mark.parametrize("simulate", [
        lambda cfg: run_replicate(cfg, 25, 0), run_reference,
    ], ids=["run_stoch", "run_det"])
    def test_budget_failure_reports_first_failing_step(self, monkeypatch, simulate):
        cfg = RunConfig.from_dict(TRIP)
        m, message = first_budget_failure(simulate(cfg))
        assert m % _LEDGER_BLOCK != 0
        monkeypatch.setattr(deterministic, "_budget_constants", lambda k: (0.0, 0.0))
        with pytest.raises(InvariantViolation) as exc:
            simulate(cfg)
        assert str(exc.value) == message

    @staticmethod
    def check_earlier_budget_failure_wins(monkeypatch, simulate, inject, fault,
                                          budget_fails, fault_error,
                                          pick=lambda traj, m: m + 2):
        """Fault snapshot ``pick(traj, m)`` after a budget failure at m, in
        the same block.

        ``inject(traj, bad)`` patches the fault in, and ``fault_error`` is
        what the run raises for it when the budget holds.
        """
        cfg = RunConfig.from_dict(TRIP)
        traj = simulate(cfg)
        m, message = first_budget_failure(traj)
        bad = pick(traj, m)  # the snapshot that goes wrong
        assert m < bad and (m - 1) // _LEDGER_BLOCK == (bad - 1) // _LEDGER_BLOCK
        inject(traj, bad)
        if budget_fails:
            monkeypatch.setattr(deterministic, "_budget_constants", lambda k: (0.0, 0.0))
            expected = (InvariantViolation, message)
        elif fault == "nan":
            expected = fault_error(traj, bad)
        else:
            expected = (ValueError, "array must not contain infs or NaNs")
        with pytest.raises(expected[0]) as exc:
            simulate(cfg)
        assert str(exc.value) == expected[1]

    @staticmethod
    def inject_at_stored_factor(monkeypatch, fault):
        """``inject`` for a run_stoch fault in a jump-free substep's
        ``CrankNicolson.solve``, the seam every such substep's voltage
        passes, wherever the substep falls in one ``advance`` call."""
        def inject(traj, bad):
            sub = np.searchsorted(traj.times, traj.jump_times, side="left") - 1
            assert bad - 1 not in sub  # substep bad - 1 is jump-free
            solve = CrankNicolson.solve

            def faulty(self, v, out):
                x = np.empty_like(out)
                solve(self, v, x)
                if np.array_equal(x, traj.v[bad]):
                    if fault == "raise":
                        raise ValueError("array must not contain infs or NaNs")
                    x[...] = np.nan
                out[...] = x

            monkeypatch.setattr(CrankNicolson, "solve", faulty)

        return inject

    @pytest.mark.parametrize("fault", ["nan", "raise"])
    @pytest.mark.parametrize("budget_fails", [True, False])
    def test_earlier_budget_failure_wins_in_one_block(self, monkeypatch, fault,
                                                      budget_fails):
        self.check_earlier_budget_failure_wins(
            monkeypatch, lambda cfg: run_replicate(cfg, 25, 0),
            self.inject_at_stored_factor(monkeypatch, fault), fault, budget_fails,
            lambda traj, bad: (InvariantViolation,
                               f"voltage not finite at t={traj.times[bad]}"))

    @pytest.mark.parametrize("fault", ["nan", "raise"])
    @pytest.mark.parametrize("budget_fails", [True, False])
    def test_fault_inside_a_quiet_run(self, monkeypatch, fault, budget_fails):
        """A fault mid-way through one ``advance`` call's run of jump-free
        substeps raises at its own substep, and an earlier budget failure
        still wins."""
        runs = []
        advance = _HybridCore.advance

        def recording_advance(self, *args):
            start = self.step
            events = advance(self, *args)
            runs.append((start, self.step))
            return events

        def inside_a_run(traj, m):
            # substep bad - 1 is neither the first nor the last substep of
            # one advance call
            return min(bad for start, end in runs if end - start >= 3
                       for bad in range(start + 2, end) if bad > m + 2)

        with monkeypatch.context() as patch:
            patch.setattr(_HybridCore, "advance", recording_advance)
            run_replicate(RunConfig.from_dict(TRIP), 25, 0)
        self.check_earlier_budget_failure_wins(
            monkeypatch, lambda cfg: run_replicate(cfg, 25, 0),
            self.inject_at_stored_factor(monkeypatch, fault), fault, budget_fails,
            lambda traj, bad: (InvariantViolation,
                               f"voltage not finite at t={traj.times[bad]}"),
            pick=inside_a_run)

    @pytest.mark.parametrize("fault", ["nan", "raise"])
    @pytest.mark.parametrize("budget_fails", [True, False])
    def test_earlier_budget_failure_wins_in_one_det_block(self, monkeypatch, fault,
                                                          budget_fails):
        def inject(traj, bad):
            kernel = deterministic._strang_step

            def faulty(p, v, gen, t, *args):
                p, v, gen = kernel(p, v, gen, t, *args)
                if t == traj.times[bad - 1]:
                    if fault == "raise":
                        raise ValueError("array must not contain infs or NaNs")
                    v = np.full_like(v, np.nan)
                return p, v, gen

            monkeypatch.setattr(deterministic, "_strang_step", faulty)

        # the guards pass a NaN voltage; the next step's solve rejects it
        self.check_earlier_budget_failure_wins(
            monkeypatch, run_reference, inject, fault, budget_fails,
            lambda traj, bad: (ValueError, "array must not contain infs or NaNs"))
