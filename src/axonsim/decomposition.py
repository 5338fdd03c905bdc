"""Drift/martingale decomposition of the empirical-distribution deviation.

For each state xi the difference between the empirical channel distribution
and the fluid proportion measure decomposes, exactly on the simulation's
frozen-rate time grid, as

    C_xi(t) - mu.p_xi(t) = C_xi(0) - mu.p_xi(0) + int_0^t Q_xi(s) ds + M_xi(t)

where Q collects the jump intensities minus the fluid drift and M is the
compensated-jump (martingale) part.  This module reconstructs all the
pieces from a recorded trajectory: per-channel compensator integrals, the
martingale load series, its predicted variance, the a-priori variance cap,
and the path log-likelihood against a uniform reference chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import (
    Functional,
    Grid,
    GridFunction,
    NodalField,
    density_functional,
    hat_weights,
)
from .kinetics import ChannelKinetics, channel_rates, rate_table
from .stochastic import ChannelConfig, StochTrajectory, _interior_hat_arrays


@dataclass(eq=False)
class MartingaleSeries:
    """Load-vector series of one state's martingale part; zero at time 0."""

    grid: Grid
    state_index: int
    times: np.ndarray
    loads: np.ndarray          # (n_times, n_interior)

    def functional_at(self, idx: int) -> Functional:
        return Functional(self.grid, self.loads[idx])


@dataclass(eq=False)
class PathDiagnostics:
    """Everything the scan recovers from one trajectory.

    Final-time accumulators are always present; the load series are None
    unless requested.
    """

    times: np.ndarray
    comp_final: np.ndarray           # (n_states, count)  int alpha_{s(u), zeta} du
    exit_occupation_final: np.ndarray  # (n_states, count)  int 1{s=xi} alpha_exit du
    jumps_net_final: np.ndarray      # (n_states, count)
    c_loads: Optional[np.ndarray]    # (n_times, n_states, n_interior)
    comp_loads: Optional[np.ndarray]
    m_loads: Optional[np.ndarray]
    comp_series: Optional[np.ndarray]  # (n_times, n_states, count)


def _require_history(traj: StochTrajectory) -> np.ndarray:
    if traj.v_chan_frozen is None:
        raise ValueError("trajectory carries no frozen-rate history")
    return traj.v_chan_frozen


def _scatter(idx_lo, wt_lo, idx_hi, wt_hi, weights, n_interior) -> np.ndarray:
    return (
        np.bincount(idx_lo, weights=weights * wt_lo, minlength=n_interior)
        + np.bincount(idx_hi, weights=weights * wt_hi, minlength=n_interior)
    )


def scan_path(
    traj: StochTrajectory,
    k: ChannelKinetics,
    want_series: bool = False,
    want_comp_series: bool = False,
) -> PathDiagnostics:
    """Replay a trajectory, integrating compensators on the frozen-rate grid.

    Channels that jump inside a substep are integrated segment by segment
    over their realized state path, so the accumulators are exactly those
    of the simulated chain.
    """
    history = _require_history(traj)
    grid = traj.grid
    n_states = traj.n_states
    count = traj.positions.size
    n_int = grid.n_interior
    n_sub = traj.n_times - 1

    idx_lo, wt_lo, idx_hi, wt_hi = _interior_hat_arrays(grid, traj.positions)
    states = traj.initial_states.copy()
    comp = np.zeros((n_states, count))
    occ = np.zeros((n_states, count))
    jumps_net = np.zeros((n_states, count))
    bounds = np.searchsorted(traj.jump_times, traj.times, side="right")

    c_loads = comp_loads = m_loads = comp_series = None
    if want_series:
        c_loads = np.zeros((n_sub + 1, n_states, n_int))
        comp_loads = np.zeros((n_sub + 1, n_states, n_int))
        m_loads = np.zeros((n_sub + 1, n_states, n_int))
    if want_comp_series:
        comp_series = np.zeros((n_sub + 1, n_states, count))

    def emit(t_idx: int) -> None:
        if want_comp_series:
            comp_series[t_idx] = comp
        if not want_series:
            return
        inv_n = 1.0 / traj.n_scale
        for xi in range(n_states):
            sel = states == xi
            c_loads[t_idx, xi] = _scatter(
                idx_lo[sel], wt_lo[sel], idx_hi[sel], wt_hi[sel],
                np.full(int(sel.sum()), inv_n), n_int,
            )
            net = (comp[xi] - occ[xi]) * inv_n
            comp_loads[t_idx, xi] = _scatter(idx_lo, wt_lo, idx_hi, wt_hi, net, n_int)
            jump_part = jumps_net[xi] * inv_n
            m_loads[t_idx, xi] = (
                _scatter(idx_lo, wt_lo, idx_hi, wt_hi, jump_part, n_int)
                - comp_loads[t_idx, xi]
            )

    emit(0)
    for sub in range(n_sub):
        t0 = float(traj.times[sub])
        dt = float(traj.times[sub + 1] - traj.times[sub])
        v_row = history[sub]
        lo, hi = bounds[sub], bounds[sub + 1]
        jump_idx = traj.jump_channel[lo:hi]

        table = rate_table(k, v_row)
        rate_to = channel_rates(table, states)
        exit = rate_to.sum(axis=0)

        if hi > lo:
            w = np.full(count, dt)
            w[jump_idx] = 0.0
        else:
            w = dt
        comp += w * rate_to
        occ[states, np.arange(count)] += w * exit

        if hi > lo:
            # segment-exact integration for channels that jumped
            affected: dict[int, list[int]] = {}
            for e in range(lo, hi):
                affected.setdefault(int(traj.jump_channel[e]), []).append(e)
            for i, evs in affected.items():
                rates = table[:, :, i]
                cursor = t0
                s = int(states[i])
                for e in evs:
                    te = float(traj.jump_times[e])
                    _integrate_segment(comp, occ, rates, i, s, te - cursor)
                    dst = int(traj.jump_dst[e])
                    jumps_net[dst, i] += 1.0
                    jumps_net[s, i] -= 1.0
                    s = dst
                    cursor = te
                _integrate_segment(comp, occ, rates, i, s, t0 + dt - cursor)
                states[i] = s
        emit(sub + 1)

    return PathDiagnostics(
        times=traj.times,
        comp_final=comp,
        exit_occupation_final=occ,
        jumps_net_final=jumps_net,
        c_loads=c_loads,
        comp_loads=comp_loads,
        m_loads=m_loads,
        comp_series=comp_series,
    )


def _integrate_segment(comp, occ, rates: np.ndarray, i: int, s: int,
                       duration: float) -> None:
    """Add one constant-state stretch of channel i to the accumulators.

    ``rates`` is the channel's (n_states, n_states) slice of the rate table.
    """
    if duration <= 0.0:
        return
    col = rates[:, s]
    comp[:, i] += duration * col
    occ[s, i] += duration * col.sum()


def martingale_series(traj: StochTrajectory, xi, k: ChannelKinetics,
                      grid: Grid) -> MartingaleSeries:
    """Martingale part of one state's deviation, at every sample time."""
    s = k.state_index(xi)
    diag = scan_path(traj, k, want_series=True)
    return MartingaleSeries(
        grid=grid, state_index=s, times=diag.times, loads=diag.m_loads[:, s, :]
    )


def drift_term(
    channels: ChannelConfig,
    v: GridFunction,
    xi,
    k: ChannelKinetics,
    det_drift: NodalField,
    grid: Grid,
) -> Functional:
    """Instantaneous drift functional of one state's deviation process.

    Jump-intensity point masses (gain rate into xi for channels elsewhere,
    minus exit rate for channels in xi) minus the fluid drift measure.
    """
    s = k.state_index(xi)
    positions = channels.positions
    v_chan = interpolate_at_channels(v, positions)
    rate_to = channel_rates(rate_table(k, v_chan), channels.states)
    coeff = np.where(channels.states == s, -rate_to.sum(axis=0), rate_to[s])
    idx_lo, wt_lo, idx_hi, wt_hi = _interior_hat_arrays(grid, positions)
    loads = _scatter(idx_lo, wt_lo, idx_hi, wt_hi, coeff / channels.n_scale,
                     grid.n_interior)
    return Functional(grid, loads) - density_functional(det_drift)


def interpolate_at_channels(phi: GridFunction, positions: np.ndarray) -> np.ndarray:
    """Grid-function values at the channel positions (vectorized)."""
    full = phi.full()
    cell, wl, wr = hat_weights(phi.grid, positions)
    return full[cell] * wl + full[cell + 1] * wr


def predicted_variance(traj: StochTrajectory, phi: GridFunction, xi,
                       k: ChannelKinetics) -> float:
    """Path-wise quadratic-variation prediction for <phi, M_xi(T)>.

    (1/N^2) sum_i phi(x_i)^2 int [1{s=xi} alpha_exit + 1{s!=xi} alpha_{s,xi}] du,
    whose replicate average matches the empirical variance.
    """
    s = k.state_index(xi)
    diag = scan_path(traj, k, want_series=False)
    phi_chan = interpolate_at_channels(phi, traj.positions)
    integrand = diag.comp_final[s] + diag.exit_occupation_final[s]
    return float(np.sum(phi_chan**2 * integrand) / traj.n_scale**2)


def martingale_variance_bound(phi: GridFunction, t: float, n_scale: int,
                              half_length: float, k: ChannelKinetics) -> float:
    """A-priori cap 8 l alpha_max ||phi||_inf^2 t / N on E<phi, M(t)>^2."""
    phi_inf = float(np.max(np.abs(phi.full())))
    return 8.0 * half_length * k.alpha_max * phi_inf**2 * t / n_scale


def path_log_likelihood(traj: StochTrajectory, k: ChannelKinetics,
                        reference_total_rate: float) -> float:
    """Log-density of the realized jump path against a uniform reference chain.

    The reference is the configuration-level chain with constant total exit
    rate ``reference_total_rate`` split uniformly over the count*(|E|-1)
    single-channel moves.  The model intensity uses the frozen voltages the
    trajectory recorded, so the identity E_ref[exp(log h)] = 1 holds exactly
    for paths drawn under the reference law.
    """
    if reference_total_rate <= 0:
        raise ValueError("reference_total_rate must be positive")
    history = _require_history(traj)
    diag = scan_path(traj, k, want_series=False)
    total_model_intensity = float(diag.comp_final.sum())
    horizon = float(traj.times[-1] - traj.times[0])
    n_neighbors = traj.positions.size * (k.n_states - 1)
    ref_jump_rate = reference_total_rate / n_neighbors

    sub_idx = np.searchsorted(traj.times, traj.jump_times, side="left") - 1
    sub_idx = np.clip(sub_idx, 0, traj.n_times - 2)
    table = rate_table(k, history[sub_idx, traj.jump_channel])
    r = table[traj.jump_dst, traj.jump_src, np.arange(traj.jump_times.size)]
    log_jumps = float(np.sum(np.log(r) - np.log(ref_jump_rate)))
    return log_jumps - total_model_intensity + horizon * reference_total_rate


def martingale_norm_series(traj: StochTrajectory, k: ChannelKinetics,
                           grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Dual norm of every state's martingale part at each sample time."""
    from .grid import riesz_cholesky, riesz_solve

    diag = scan_path(traj, k, want_series=True)
    cb = riesz_cholesky(grid)
    norms = np.zeros((traj.n_times, k.n_states))
    for idx in range(traj.n_times):
        for s in range(k.n_states):
            loads = diag.m_loads[idx, s]
            u = riesz_solve(cb, loads)
            norms[idx, s] = np.sqrt(max(float(loads @ u), 0.0))
    return diag.times, norms


def write_martingale_norm_csv(traj: StochTrajectory, k: ChannelKinetics,
                              grid: Grid, path) -> None:
    """CSV time series (t, mart_hm1_<state>...) of the martingale size."""
    import csv

    times, norms = martingale_norm_series(traj, k, grid)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"mart_hm1_{name}" for name in k.states])
        for idx in range(times.size):
            w.writerow([repr(float(times[idx]))]
                       + [repr(float(norms[idx, s])) for s in range(k.n_states)])


def deviation_loads(
    traj: StochTrajectory,
    k: ChannelKinetics,
    det_p: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-time load vectors for C_xi - mu.p_xi and M_xi.

    ``det_p`` has shape (n_times, n_states, n_nodes) on the same time grid.
    Returns (c_minus_p_loads, m_loads, comp_loads).
    """
    diag = scan_path(traj, k, want_series=True)
    grid = traj.grid
    h = grid.h
    p = det_p
    dens = h / 6.0 * (p[:, :, :-2] + 4.0 * p[:, :, 1:-1] + p[:, :, 2:])
    return diag.c_loads - dens, diag.m_loads, diag.comp_loads
