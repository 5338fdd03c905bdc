"""Oracle suites: norm identities, kernel checks, martingale statistics,
likelihood identity, and the hybrid scheme's weak self-convergence.

Each suite returns a list of (name, passed, detail) triples so the CLI can
print one line per check; the acceptance tests call the same entry points
with their pinned parameters.
"""

from __future__ import annotations

import functools

import numpy as np

from .decomposition import (
    interpolate_at_channels,
    martingale_variance_bound,
    path_log_likelihood,
    scan_path,
    terminal_martingale,
)
from .fanout import default_workers
from .grid import build_grid, delta_loads, density_loads, hminus1_norms
from .harness import RunConfig, map_replicates
from .heat import KernelParams, absorbed_kernel, apply_semigroup, submarkov_mass
from .kinetics import make_kinetics
from .profiles import fundamental_mode
from .stochastic import StochTrajectory, make_rng


Check = tuple[str, bool, str]


# --- norms ------------------------------------------------------------------

def norms_suite(cells: int = 2000) -> list[Check]:
    import time

    checks: list[Check] = []
    started = time.perf_counter()
    g = build_grid(1.0, cells)
    val = float(hminus1_norms(g, delta_loads(0.0, g)))
    target = float(np.sqrt(np.tanh(1.0) / 2))
    checks.append((
        "dual norm of the origin point mass",
        abs(val - target) <= 1e-3,
        f"got {val:.6f}, target {target:.6f}, tol 1e-3",
    ))
    mode = np.sin(np.pi * (g.nodes + 1) / 2)
    val2 = float(hminus1_norms(g, density_loads(g, mode)))
    target2 = float(1.0 / np.sqrt(1 + np.pi**2 / 4))
    checks.append((
        "dual norm of the slowest-mode density",
        abs(val2 - target2) <= 1e-3,
        f"got {val2:.6f}, target {target2:.6f}, tol 1e-3",
    ))
    elapsed = time.perf_counter() - started
    checks.append((
        "norm oracle runtime",
        elapsed < 1.0,
        f"{elapsed * 1e3:.0f} ms (budget 1 s)",
    ))
    return checks


# --- heat kernel ------------------------------------------------------------

def kernel_suite() -> list[Check]:
    checks: list[Check] = []
    params = KernelParams(1.0)
    rng = np.random.default_rng(17)
    sym_err = 0.0
    for _ in range(12):
        t = rng.uniform(0.02, 0.8)
        x, y = rng.uniform(-0.9, 0.9, size=2)
        sym_err = max(sym_err, abs(
            absorbed_kernel(t, x, y, params) - absorbed_kernel(t, y, x, params)
        ))
    checks.append(("kernel symmetry", sym_err < 1e-12, f"max |k(x,y)-k(y,x)| = {sym_err:.2e}"))

    bdry = max(absorbed_kernel(0.05, 1.0, y, params) for y in (-0.5, 0.0, 0.7))
    checks.append(("absorption at the endpoints", bdry <= params.truncation_tol,
                   f"kernel at boundary = {bdry:.2e}"))

    g = build_grid(1.0, 400)
    phi = fundamental_mode(g)
    out = apply_semigroup(0.1, phi, params)
    factor = float(np.exp(-((np.pi / 2) ** 2) * 0.1))
    decay_err = float(np.max(np.abs(out.values - factor * phi.values)))
    checks.append(("slowest-mode decay factor", decay_err < 1e-4,
                   f"max nodal error {decay_err:.2e} against {factor:.6f}"))

    two = apply_semigroup(0.05, apply_semigroup(0.05, phi, params), params)
    one = apply_semigroup(0.10, phi, params)
    ck = float(np.max(np.abs(two.values - one.values)))
    checks.append(("semigroup composition", ck < 1e-5, f"residual {ck:.2e}"))

    masses = [submarkov_mass(t, 0.2, params) for t in (0.02, 0.1, 0.5)]
    ok = all(m <= 1 + 1e-12 for m in masses) and all(
        b < a for a, b in zip(masses, masses[1:]))
    checks.append(("submarkov mass decreasing", ok,
                   "masses " + ", ".join(f"{m:.4f}" for m in masses)))
    return checks


def _replicate_values(cfg: RunConfig, n_scale: int, replicates: int, reduce,
                      workers: int) -> np.ndarray:
    """The reduced replicates in order; once all have run, the first failure
    is raised again as it was raised."""
    outcomes = map_replicates(cfg, [n_scale], replicates, reduce, workers)
    for *_, error in outcomes:
        if error is not None:
            raise error
    return np.array([value for *_, value, _ in outcomes])


# --- martingale suite -------------------------------------------------------

def _martingale_terms(phi, kin, traj: StochTrajectory, replicate: int) -> tuple:
    phi_chan = interpolate_at_channels(phi, traj.positions)
    return terminal_martingale(scan_path(traj, kin, want_series=False), phi_chan, traj.n_scale)


def martingale_suite(
    n_scale: int = 100,
    t_horizon: float = 1.0,
    replicates: int = 2000,
    dt: float = 5e-3,
    workers: int | None = None,
    variance_tol: float = 0.15,
    report_path=None,
) -> list[Check]:
    """Zero-mean, variance-identity, and variance-cap checks at horizon T.

    The hybrid steps are exact for the frozen-rate chain at any dt, so the
    substep length only has to satisfy the scheme guard.  When
    ``report_path`` is given, the per-state statistics land there as JSON.
    """
    workers = default_workers() if workers is None else workers
    cfg = RunConfig.from_dict({"time_horizon": t_horizon, "dt": dt})
    grid, kin, _, _ = cfg.build()
    phi = fundamental_mode(grid)
    data = _replicate_values(cfg, n_scale, replicates,
                             functools.partial(_martingale_terms, phi, kin), workers)
    vals, preds = data[:, 0, :], data[:, 1, :]

    checks: list[Check] = []
    stats: dict[str, dict] = {}
    bound = martingale_variance_bound(phi, t_horizon, n_scale, grid.half_length, kin)
    for s, name in enumerate(kin.states):
        mean = float(vals[:, s].mean())
        se = float(vals[:, s].std(ddof=1) / np.sqrt(replicates))
        checks.append((
            f"martingale mean ({name})", abs(mean) <= 3 * se,
            f"mean {mean:.2e} vs 3 SE {3 * se:.2e}",
        ))
        var = float(vals[:, s].var(ddof=1))
        pred = float(preds[:, s].mean())
        rel = abs(var - pred) / pred
        checks.append((
            f"variance identity ({name})", rel <= variance_tol,
            f"empirical {var:.3e} vs predicted {pred:.3e} ({100 * rel:.1f}%)",
        ))
        m2 = float((vals[:, s] ** 2).mean())
        se2 = float((vals[:, s] ** 2).std(ddof=1) / np.sqrt(replicates))
        checks.append((
            f"variance cap ({name})", m2 <= bound + 3 * se2,
            f"second moment {m2:.3e} vs cap {bound:.3e} + 3 SE",
        ))
        stats[name] = {
            "mean": mean,
            "se_mean": se,
            "empirical_variance": var,
            "predicted_variance": pred,
            "variance_rel_error": rel,
            "second_moment": m2,
            "variance_cap": bound,
        }
    if report_path is not None:
        import json

        with open(report_path, "w") as fh:
            json.dump({
                "n_scale": n_scale,
                "t_horizon": t_horizon,
                "replicates": replicates,
                "dt": dt,
                "per_state": stats,
                "checks": [
                    {"name": n, "passed": bool(p), "detail": d} for n, p, d in checks
                ],
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return checks


# --- likelihood -------------------------------------------------------------

def _frozen_reference_trajectory(grid, rng, reference_total_rate, t_horizon,
                                 n_states=2, start=0) -> StochTrajectory:
    """One path of the uniform reference chain, wrapped as a trajectory.

    Single channel at the origin; the voltage is identically zero so the
    model rates are genuinely frozen.
    """
    times, srcs, dsts = [], [], []
    t, s = 0.0, start
    while True:
        t += rng.exponential() / reference_total_rate
        if t > t_horizon:
            break
        others = [d for d in range(n_states) if d != s]
        d = others[rng.integers(0, len(others))] if len(others) > 1 else others[0]
        times.append(t)
        srcs.append(s)
        dsts.append(d)
        s = d
    n_sub = 8
    return StochTrajectory(
        grid=grid,
        n_scale=1,
        positions=np.array([0.0]),
        initial_states=np.array([start], dtype=np.int64),
        n_states=n_states,
        times=np.linspace(0.0, t_horizon, n_sub + 1),
        v=np.zeros((n_sub + 1, grid.n_interior)),
        jump_times=np.asarray(times, dtype=float),
        jump_channel=np.zeros(len(times), dtype=np.int64),
        jump_src=np.asarray(srcs, dtype=np.int64),
        jump_dst=np.asarray(dsts, dtype=np.int64),
        seed=None,
        dissipation=np.zeros(n_sub + 1),
        sup_v_inf=0.0,
    )


def likelihood_suite(paths: int = 10_000, t_horizon: float = 1.0,
                     seed: int = 2024) -> list[Check]:
    """Importance-weight identity E_ref[exp(log h)] = 1 on a tiny instance."""
    import time

    started = time.perf_counter()
    kin = make_kinetics({
        "states": [
            {"name": "closed", "c": 0.0, "v": -0.2},
            {"name": "open", "c": 0.0, "v": 1.0},
        ],
        "rates": [
            {"from": "closed", "to": "open", "form": "constant", "params": {"a": 0.8}},
            {"from": "open", "to": "closed", "form": "constant", "params": {"a": 1.3}},
        ],
        "clamp": [0.01, 2.0],
    })
    g = build_grid(1.0, 10)
    rng = make_rng(seed)
    ref_rate = 1.0
    w = np.empty(paths)
    for i in range(paths):
        traj = _frozen_reference_trajectory(g, rng, ref_rate, t_horizon)
        w[i] = np.exp(path_log_likelihood(traj, kin, ref_rate))
    est = float(w.mean())
    se = float(w.std(ddof=1) / np.sqrt(paths))
    elapsed = time.perf_counter() - started
    return [
        ("importance weights average to one", abs(est - 1.0) <= 3 * se,
         f"estimate {est:.4f} +- {se:.4f} over {paths} paths"),
        ("likelihood runtime", elapsed < 30.0, f"{elapsed:.1f} s (budget 30 s)"),
    ]


# --- weak self-convergence --------------------------------------------------

def _final_potential(phi_loads: np.ndarray, traj: StochTrajectory, replicate: int) -> float:
    return float(traj.v[-1] @ phi_loads)


def self_convergence_suite(
    n_scale: int = 200,
    replicates: int = 1000,
    workers: int | None = None,
    base_cfg: dict | None = None,
) -> list[Check]:
    """Halving the substep shifts the mean potential statistic within noise.

    The frozen-rate bias is first order in the substep, so at the default
    resolution it must be statistically invisible against paired batches.
    """
    workers = default_workers() if workers is None else workers
    raw = dict(base_cfg or {})
    means = {}
    ses = {}
    for level, dt_scale in (("dt", 1.0), ("dt/2", 0.5)):
        cfg = RunConfig.from_dict({**raw, "dt": RunConfig.from_dict(raw).dt * dt_scale})
        grid = cfg.build()[0]
        phi_loads = density_loads(grid, fundamental_mode(grid).full())
        vals = _replicate_values(cfg, n_scale, replicates,
                                 functools.partial(_final_potential, phi_loads), workers)
        means[level] = float(vals.mean())
        ses[level] = float(vals.std(ddof=1) / np.sqrt(replicates))
    shift = abs(means["dt"] - means["dt/2"])
    se = float(np.hypot(ses["dt"], ses["dt/2"]))
    return [(
        "weak self-convergence of the hybrid step",
        shift <= 3 * se,
        f"mean shift {shift:.2e} vs 3 SE {3 * se:.2e} "
        f"(means {means['dt']:.5f} / {means['dt/2']:.5f})",
    )]


SUITES = {
    "norms": norms_suite,
    "kernel": kernel_suite,
    "martingale": martingale_suite,
    "likelihood": likelihood_suite,
}
