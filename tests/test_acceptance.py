"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy Monte Carlo items reuse the shared fixtures below; every
tolerance is pinned here, not tuned at runtime.
"""

import dataclasses

import numpy as np
import pytest

from axonsim.decomposition import SERIES
from axonsim.deterministic import dissipation_budget, run_det
from axonsim.grid import GridFunction, build_grid, density_loads
from axonsim.harness import (
    RunConfig,
    fit_rate,
    run_reference,
    run_replicate,
    run_sweep,
    strip_wall_clock,
)
from axonsim.kinetics import make_kinetics
from axonsim.profiles import fundamental_mode
from axonsim.validate import (
    default_workers,
    likelihood_suite,
    martingale_suite,
    norms_suite,
    self_convergence_suite,
)
from test_decomposition import streamed_series
from test_deterministic import l2_norm

WORKERS = default_workers()


def record(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def default_cfg():
    return RunConfig.from_dict({})


@pytest.fixture(scope="module")
def default_det(default_cfg):
    return run_reference(default_cfg)


@pytest.fixture(scope="module")
def sweep_outcome(default_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    rows = run_sweep(default_cfg, out, workers=WORKERS)
    return rows


def test_criterion_1_sobolev_oracles():
    checks = norms_suite(cells=2000)
    ok = all(passed for _, passed, _ in checks)
    record("criterion 1 (Sobolev oracles)", ok,
           "; ".join(d for _, _, d in checks))


def test_criterion_2_pde_vs_kernel():
    zero_kin = make_kinetics({
        "states": [
            {"name": "closed", "c": 0.0, "v": -0.2},
            {"name": "open", "c": 0.0, "v": 1.0},
        ],
        "rates": [
            {"from": "closed", "to": "open", "form": "constant", "params": {"a": 0.5}},
            {"from": "open", "to": "closed", "form": "constant", "params": {"a": 0.5}},
        ],
        "clamp": [0.05, 5.0],
    })
    import time

    started = time.perf_counter()

    def rel_error(cells, dt, t_end=0.5):
        g = build_grid(1.0, cells)
        v0 = fundamental_mode(g)
        p = np.stack([0.5 * np.ones(cells + 1)] * 2)
        traj = run_det(g, v0.values, p, t_end, dt, zero_kin)
        target = np.exp(-((np.pi / 2) ** 2) * t_end) * v0.values
        return (l2_norm(g, traj.v[-1] - target)
                / l2_norm(g, target))

    coarse = rel_error(400, 1e-3)
    fine = rel_error(800, 5e-4)
    elapsed = time.perf_counter() - started
    ratio = coarse / fine
    ok = coarse <= 1e-3 and 3.0 <= ratio <= 5.0 and elapsed < 10.0
    record("criterion 2 (PDE vs kernel)", ok,
           f"rel L2 error {coarse:.2e} (tol 1e-3), refinement ratio "
           f"{ratio:.2f} (band [3,5]), {elapsed:.1f} s (budget 10 s)")


def test_criterion_3_conservation(default_cfg, default_det):
    traj = default_det
    grid, kin, v0, _ = default_cfg.build()
    v0f = np.pad(v0, 1)
    lo = min(kin.v_minus, float(v0f.min())) - 1e-8
    hi = max(kin.v_plus, float(v0f.max())) + 1e-8
    vmin = min(float(traj.v.min()), 0.0)
    vmax = max(float(traj.v.max()), 0.0)
    ok = traj.max_prop_sum_error <= 1e-12 and lo <= vmin and vmax <= hi
    record("criterion 3 (conservation)", ok,
           f"max |sum p - 1| = {traj.max_prop_sum_error:.2e} (tol 1e-12), "
           f"v range [{vmin:.4f}, {vmax:.4f}] within [{lo:.4f}, {hi:.4f}]")


def test_criterion_4_dissipation_bounds(default_cfg, default_det, sweep_outcome):
    grid, kin, v0, _ = default_cfg.build()
    s0 = l2_norm(grid, v0)
    det = default_det
    det_ok = all(
        det.dissipation[i] <= dissipation_budget(
            s0, det.sup_v_inf, float(det.times[i]), kin, grid.half_length)
        for i in range(det.n_times)
    )
    stoch = run_replicate(default_cfg, 100, 0)
    st_ok = all(
        stoch.dissipation[i] <= dissipation_budget(
            s0, stoch.sup_v_inf, float(stoch.times[i]), kin, grid.half_length)
        for i in range(stoch.n_times)
    )
    sweep_ok = all(r["status"] == "ok" for r in sweep_outcome)
    ok = det_ok and st_ok and sweep_ok
    record("criterion 4 (dissipation budgets)", ok,
           f"fluid run {'ok' if det_ok else 'violated'}, particle run "
           f"{'ok' if st_ok else 'violated'}, sweep rows all ok: {sweep_ok}")


def test_criterion_5_martingale_suite():
    import time

    started = time.perf_counter()
    checks = martingale_suite(n_scale=100, t_horizon=1.0, replicates=2000,
                              dt=5e-3, workers=WORKERS, variance_tol=0.15)
    elapsed = time.perf_counter() - started
    ok = all(passed for _, passed, _ in checks) and elapsed < 300.0
    detail = "; ".join(f"{n}: {d}" for n, _, d in checks)
    record("criterion 5 (martingale suite)", ok,
           f"{detail}; {elapsed:.0f} s (budget 300 s)")


def test_criterion_6_decomposition_identity(default_cfg, default_det):
    grid, kin, _, _ = default_cfg.build()
    traj = run_replicate(default_cfg, 100, 1)
    loads = streamed_series(traj, kin, SERIES)[1]
    cmp_loads = loads["c"] - density_loads(grid, default_det.p)
    m_loads, comp_loads = loads["m"], loads["comp"]
    p = default_det.p
    h = grid.h
    dens = h / 6.0 * (p[:, :, :-2] + 4.0 * p[:, :, 1:-1] + p[:, :, 2:])
    int_q = comp_loads - (dens - dens[0:1])
    rng = np.random.default_rng(12345)
    phis = [fundamental_mode(grid), fundamental_mode(grid, mode=2)]
    for _ in range(3):
        hats = np.zeros(grid.n_interior)
        idx = rng.integers(0, grid.n_interior, size=8)
        hats[idx] = rng.normal(size=8)
        phis.append(GridFunction(grid, hats))
    worst = 0.0
    for s in range(kin.n_states):
        residual = cmp_loads[:, s] - cmp_loads[0:1, s] - int_q[:, s] - m_loads[:, s]
        for phi in phis:
            worst = max(worst, float(np.max(np.abs(residual @ phi.values))))
    record("criterion 6 (decomposition identity)", worst <= 1e-10,
           f"max pairing residual {worst:.2e} over {len(phis)} test functions "
           f"and {traj.n_times} sample times (tol 1e-10)")


def test_criterion_7_likelihood_identity():
    checks = likelihood_suite(paths=10_000)
    ok = all(passed for _, passed, _ in checks)
    record("criterion 7 (likelihood identity)", ok,
           "; ".join(d for _, _, d in checks))


def test_criterion_8_convergence_study(default_cfg, sweep_outcome):
    rows = sweep_outcome
    ns = default_cfg.sweep_n
    med_l2 = [float(np.median([r["dev_l2"] for r in rows if r["N"] == n]))
              for n in ns]
    med_hm1 = [float(np.median([
        max(r[f"dev_hm1_{s}"] for s in ("closed", "open"))
        for r in rows if r["N"] == n
    ])) for n in ns]
    mono_l2 = all(b < a for a, b in zip(med_l2, med_l2[1:]))
    mono_hm1 = all(b < a for a, b in zip(med_hm1, med_hm1[1:]))
    slope, _, _ = fit_rate(rows, "dev_l2")
    ok = mono_l2 and mono_hm1 and -0.75 <= slope <= -0.30
    record("criterion 8 (convergence study)", ok,
           f"L2 medians {['%.4f' % m for m in med_l2]} decreasing={mono_l2}; "
           f"dual-norm medians decreasing={mono_hm1}; "
           f"fitted slope {slope:.3f} in [-0.75, -0.30]")


def test_criterion_9_weak_self_convergence():
    checks = self_convergence_suite(n_scale=200, replicates=1000, workers=WORKERS)
    name, ok, detail = checks[0]
    record("criterion 9 (weak self-convergence)", ok, detail)


def test_criterion_10_reproducibility(tmp_path):
    cfg = RunConfig.from_dict({
        "time_horizon": 0.5, "sweep_n": [25, 50], "replicates": 2, "seed": 99,
    })
    run_sweep(cfg, tmp_path / "first", workers=1)
    run_sweep(cfg, tmp_path / "second", workers=WORKERS)
    a = strip_wall_clock((tmp_path / "first" / "results.csv").read_text())
    b = strip_wall_clock((tmp_path / "second" / "results.csv").read_text())
    record("criterion 10 (reproducibility)", a == b,
           "results.csv bodies byte-identical across repeated sweeps "
           "(wall-clock column excluded per the harness contract)")
