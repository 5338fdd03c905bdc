"""Drift/martingale decomposition of the empirical-distribution deviation.

For each state xi the difference between the empirical channel distribution
and the fluid proportion measure decomposes, exactly on the simulation's
frozen-rate time grid, as

    C_xi(t) - mu.p_xi(t) = C_xi(0) - mu.p_xi(0) + int_0^t Q_xi(s) ds + M_xi(t)

where Q collects the jump intensities minus the fluid drift and M is the
compensated-jump (martingale) part.  This module reconstructs all the
pieces from a recorded trajectory: per-channel compensator integrals, the
martingale load series, its predicted variance, the a-priori variance cap,
and the path log-likelihood against a uniform reference chain.  The replay
reads the frozen channel voltages from the trajectory's snapshots, by the
same hat interpolation the simulator froze them with.
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
    hat_interpolate,
    hat_weights,
    hminus1_norms,
)
from .kinetics import ChannelKinetics, channel_rates, rate_table
from .stochastic import ChannelConfig, StochTrajectory, _interior_hat_arrays


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
    jump_rates: np.ndarray           # (n_jumps,)  frozen rate of each realized jump
    c_loads: Optional[np.ndarray]    # (n_times, n_states, n_interior)
    comp_loads: Optional[np.ndarray]
    m_loads: Optional[np.ndarray]


def _scatter(idx_lo, wt_lo, idx_hi, wt_hi, weights, n_interior) -> np.ndarray:
    return (
        np.bincount(idx_lo, weights=weights * wt_lo, minlength=n_interior)
        + np.bincount(idx_hi, weights=weights * wt_hi, minlength=n_interior)
    )


# Sample times per scatter block.  The block buffer holds 3 * n_states *
# SCATTER_BLOCK doubles per channel on top of the load series, at the
# replay's memory peak, so it stays small.
SCATTER_BLOCK = 8


class _SeriesScatter:
    """Hat loads of the replay's per-channel series, a block of times at once.

    Each sample time adds, for every state xi, three per-channel rows (each
    over N): the indicator of s = xi, comp - occ, and jumps_net.  At a full
    block each (row kind, state) is scattered for all its times by one
    ``bincount`` per hat side, bin ``time * n_int + idx``; every bin receives
    its channels in ascending order, as a per-time ``bincount`` does, so the
    loads are bit-identical to scattering each time on its own.
    """

    def __init__(self, grid: Grid, positions: np.ndarray, n_states: int,
                 n_times: int, n_scale: int):
        idx_lo, self.wt_lo, idx_hi, self.wt_hi = _interior_hat_arrays(grid, positions)
        self.n_int = grid.n_interior
        self.inv_n = 1.0 / n_scale
        self.state_ids = np.arange(n_states)[:, None]
        shape = (n_times, n_states, self.n_int)
        self.c_loads = np.zeros(shape)
        self.comp_loads = np.zeros(shape)
        self.m_loads = np.zeros(shape)
        block = min(SCATTER_BLOCK, n_times)
        rows = np.arange(block)[:, None] * self.n_int
        self.bins_lo = (rows + idx_lo).ravel()
        self.bins_hi = (rows + idx_hi).ravel()
        self.buf = np.empty((3, n_states, block, positions.size))
        self.filled = 0
        self.t_next = 0

    def add(self, states: np.ndarray, comp: np.ndarray, occ: np.ndarray,
            jumps_net: np.ndarray) -> None:
        j = self.filled
        self.buf[0, :, j] = (states == self.state_ids) * self.inv_n
        self.buf[1, :, j] = (comp - occ) * self.inv_n
        self.buf[2, :, j] = jumps_net * self.inv_n
        self.filled += 1
        if self.filled == self.buf.shape[2]:
            self.flush()

    def _loads(self, rows: np.ndarray) -> np.ndarray:
        """Hat loads (b, n_int) of b per-channel rows."""
        n = rows.size
        size = rows.shape[0] * self.n_int
        loads = np.bincount(self.bins_lo[:n], weights=(rows * self.wt_lo).ravel(),
                            minlength=size)
        loads += np.bincount(self.bins_hi[:n], weights=(rows * self.wt_hi).ravel(),
                             minlength=size)
        return loads.reshape(rows.shape[0], self.n_int)

    def flush(self) -> None:
        b = self.filled
        t = slice(self.t_next, self.t_next + b)
        for s in range(self.buf.shape[1]):
            self.c_loads[t, s] = self._loads(self.buf[0, s, :b])
            comp = self._loads(self.buf[1, s, :b])
            self.comp_loads[t, s] = comp
            self.m_loads[t, s] = self._loads(self.buf[2, s, :b]) - comp
        self.t_next += b
        self.filled = 0


def scan_path(
    traj: StochTrajectory,
    k: ChannelKinetics,
    want_series: bool = False,
) -> PathDiagnostics:
    """Replay a trajectory, integrating compensators on the frozen-rate grid.

    Each substep's rates are evaluated at V(t_k, i/N), interpolated from the
    snapshot ``traj.v[k]``.  Channels that jump inside a substep are
    integrated segment by segment over their realized state path, so the
    accumulators are exactly those of the simulated chain.
    """
    n_states = traj.n_states
    count = traj.positions.size
    n_sub = traj.n_times - 1

    states = traj.initial_states.copy()
    comp = np.zeros((n_states, count))
    occ = np.zeros((n_states, count))
    jumps_net = np.zeros((n_states, count))
    jump_rates = np.full(traj.jump_times.size, np.nan)
    bounds = np.searchsorted(traj.jump_times, traj.times, side="right")
    hats = hat_weights(traj.grid, traj.positions)
    v_full = np.zeros(traj.grid.cells + 1)

    series = None
    if want_series:
        series = _SeriesScatter(traj.grid, traj.positions, n_states,
                                traj.n_times, traj.n_scale)
        series.add(states, comp, occ, jumps_net)
    for sub in range(n_sub):
        t0 = float(traj.times[sub])
        dt = float(traj.times[sub + 1] - traj.times[sub])
        lo, hi = bounds[sub], bounds[sub + 1]
        jump_idx = traj.jump_channel[lo:hi]

        v_full[1:-1] = traj.v[sub]
        table = rate_table(k, hat_interpolate(v_full, hats))
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
                    jump_rates[e] = rates[dst, s]
                    jumps_net[dst, i] += 1.0
                    jumps_net[s, i] -= 1.0
                    s = dst
                    cursor = te
                _integrate_segment(comp, occ, rates, i, s, t0 + dt - cursor)
                states[i] = s
        if series is not None:
            series.add(states, comp, occ, jumps_net)

    if series is not None:
        series.flush()
    return PathDiagnostics(
        times=traj.times,
        comp_final=comp,
        exit_occupation_final=occ,
        jumps_net_final=jumps_net,
        jump_rates=jump_rates,
        c_loads=series.c_loads if want_series else None,
        comp_loads=series.comp_loads if want_series else None,
        m_loads=series.m_loads if want_series else None,
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
    return hat_interpolate(phi.full(), hat_weights(phi.grid, positions))


def terminal_martingale(diag: PathDiagnostics, phi_chan: np.ndarray,
                        n_scale: int) -> tuple[np.ndarray, np.ndarray]:
    """<phi, M_xi(T)> and its path-wise predicted variance, for every state xi.

    ``phi_chan`` holds phi at the channel positions.  The prediction is
    (1/N^2) sum_i phi(x_i)^2 int [1{s=xi} alpha_exit + 1{s!=xi} alpha_{s,xi}] du,
    whose replicate average matches the empirical variance of the value.
    """
    n_states = diag.comp_final.shape[0]
    values = np.empty(n_states)
    variances = np.empty(n_states)
    for s in range(n_states):
        m = (diag.jumps_net_final[s]
             - (diag.comp_final[s] - diag.exit_occupation_final[s])) / n_scale
        values[s] = m @ phi_chan
        integrand = diag.comp_final[s] + diag.exit_occupation_final[s]
        variances[s] = np.sum(phi_chan**2 * integrand) / n_scale**2
    return values, variances


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
    single-channel moves.  The model intensity is the replay's, frozen at
    the voltage snapshots, so the identity E_ref[exp(log h)] = 1 holds
    exactly for paths drawn under the reference law.
    """
    if reference_total_rate <= 0:
        raise ValueError("reference_total_rate must be positive")
    diag = scan_path(traj, k, want_series=False)
    total_model_intensity = float(diag.comp_final.sum())
    horizon = float(traj.times[-1] - traj.times[0])
    n_neighbors = traj.positions.size * (k.n_states - 1)
    ref_jump_rate = reference_total_rate / n_neighbors
    log_jumps = float(np.sum(np.log(diag.jump_rates) - np.log(ref_jump_rate)))
    return log_jumps - total_model_intensity + horizon * reference_total_rate


def martingale_norm_series(traj: StochTrajectory, k: ChannelKinetics,
                           grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Dual norm of every state's martingale part at each sample time."""
    m_loads = scan_path(traj, k, want_series=True).m_loads
    return traj.times, hminus1_norms(grid, m_loads)


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
    p = det_p
    c_loads = diag.c_loads
    c_loads -= traj.grid.h / 6.0 * (p[:, :, :-2] + 4.0 * p[:, :, 1:-1] + p[:, :, 2:])
    return c_loads, diag.m_loads, diag.comp_loads
