"""Drift/martingale decomposition of the empirical-distribution deviation.

For each state xi the difference between the empirical channel distribution
and the fluid proportion measure decomposes, exactly on the simulation's
frozen-rate time grid, as

    C_xi(t) - mu.p_xi(t) = C_xi(0) - mu.p_xi(0) + int_0^t Q_xi(s) ds + M_xi(t)

where Q collects the jump intensities minus the fluid drift and M is the
compensated-jump (martingale) part.  This module reconstructs, from a
recorded trajectory, the deviation C - mu.p and the martingale side:
per-channel compensator integrals, the martingale load series, its
predicted variance, the a-priori variance cap, and the path log-likelihood
against a uniform reference chain.  The drift integral is not built on its
own: it is what remains of the deviation after the initial value and M.
The replay reads the frozen channel voltages from the trajectory's
snapshots, by the same hat interpolation the simulator froze them with, and
puts its per-channel masses on the grid by its dual, ``grid.hat_scatter``,
the kernel that also assembles the simulator's point sources.

The replay works a block of substeps per call: one interpolation and one
rate table for the block's snapshots, each substep's starting states
rebuilt from the jump log.  Its accumulators are the bits a per-substep
loop would produce.  Every elementwise value (voltage, rate, increment) is
computed by the same operation on the same operands, and each accumulator
is then advanced by sequential adds in loop order.  A channel that jumps
gets one increment slot per segment of its path; the other channels' slots
in those rows hold +0.0, and adding +0.0 is exact.  The state rows' loads
carry over between sample times, summed again, in the full scatter's order,
only at the bins next to a jump.

Every caller reads the load series only through their dual norms, so the
series stream to a consumer one Riesz chunk of sample times at a time
(``grid.riesz_chunk``), and no full-length series is held.  Riesz solves run
column by column and each norm sums its own row, so the norms do not depend
on how the times are batched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .csvtext import csv_lines, write_csv
from .grid import (
    Grid,
    GridFunction,
    hat_interpolate,
    hat_scatter,
    hat_scatter_arrays,
    hat_scatter_bins,
    hat_scatter_contributors,
    hat_weights,
    hminus1_norms,
    riesz_chunk,
)
from .kinetics import ChannelKinetics, rate_table
from .stochastic import StochTrajectory


@dataclass(eq=False)
class PathDiagnostics:
    """The replay's final-time accumulators and the rate of each realized
    jump; the load series stream to a consumer instead (:func:`scan_path`)."""

    comp_final: np.ndarray           # (n_states, count)  int alpha_{s(u), zeta} du
    exit_occupation_final: np.ndarray  # (n_states, count)  int 1{s=xi} alpha_exit du
    jumps_net_final: np.ndarray      # (n_states, count)
    jump_rates: np.ndarray           # (n_jumps,)  frozen rate of each realized jump


# Load series scan_path can stream: hat loads of the state indicators 1{s = xi}/N
# ("c"), of the compensators (comp - occ)/N ("comp"), and of the martingale
# parts jumps_net/N - comp ("m").
SERIES = ("c", "comp", "m")

# Bytes of block-sized replay arrays (rate table, increment slots, (comp, occ)
# rows and their scatter), about 8 * count * n_states * (n_states + 6) per
# substep: 5-substep blocks at the default N=800, 41-substep ones at N=100.
# A block only amortizes per-call cost: the accumulators are advanced row by
# row, by sequential adds in loop order, and the zero-padded slots add +0.0,
# which is exact, so every block size gives the same bits.
REPLAY_BLOCK_BYTES = 1 << 20

# Bytes of the arrays that price a window of touched bins (_SeriesScatter),
# whole replay blocks of jump groups; every window size gives the same bits.
TOUCH_WINDOW_BYTES = 1 << 19


class _SeriesScatter:
    """Hat loads of the replay's streamed series, filled a block of times at once.

    Each sample time has, for every state xi, three per-channel rows (each
    over N): the indicator of s = xi, comp - occ, and jumps_net.  comp - occ
    moves for every channel every substep: a block's rows are one
    :func:`grid.hat_scatter` call.  The other two change only where a channel
    jumps, so their loads ("c", and m's jump part) carry over, and only the
    bins next to a substep's jumpers are summed again, as one-side scatters
    of their contributors (:func:`grid.hat_scatter_contributors`), a window
    of :data:`TOUCH_WINDOW_BYTES` at a time.  Every row's loads are the bits
    of scattering that time on its own.

    The loads live in a reused buffer of :func:`grid.riesz_chunk` sample
    times, and each full buffer, then the remainder (:meth:`flush`), goes to
    the consumer as :func:`scan_path` describes.
    """

    def __init__(self, traj: StochTrajectory, plan: "_JumpPlan", keep, block: int,
                 consumer):
        grid, n_states = traj.grid, traj.n_states
        self.scatter = hat_scatter_arrays(grid, traj.positions)
        self.n_int = grid.n_interior
        self.inv_n = 1.0 / traj.n_scale
        self.consumer = consumer
        self.rows = min(traj.n_times, riesz_chunk(grid))
        self.start = self.filled = 0  # start: the sample time of the buffer's row 0
        shape = (self.rows, n_states, self.n_int)
        self.loads = {name: np.zeros(shape) for name in SERIES if name in keep}
        self.bins = hat_scatter_bins(self.scatter[0], self.n_int, block * n_states)
        self.kept = [name in keep for name in ("c", "m")]
        self.carried = [self.loads[name] for name in ("c", "m") if name in keep]
        self.traj, self.plan, self.block = traj, plan, block
        self.ids = np.arange(n_states)[:, None]
        self.contrib, self.contrib_start = hat_scatter_contributors(self.scatter[0],
                                                                    self.n_int)
        self.window_groups = max(1, TOUCH_WINDOW_BYTES // (
            16 * np.diff(self.contrib_start).max() * (12 + 6 * n_states)))
        self.window_end = 0
        bins = np.arange(self.n_int)
        self.now = self._pair_loads(np.zeros_like(bins), bins).transpose(1, 2, 0).copy()

    def fill(self, t: int, comp, occ) -> None:
        """Loads at the sample times t, t+1, ... of (b, n_states, count) rows."""
        done = 0
        while done < comp.shape[0]:
            row = t + done - self.start
            part = slice(done, done + self.rows - row)
            self._fill_rows(row, t + done, comp[part], occ[part])
            done = min(part.stop, comp.shape[0])
            if self.filled == self.rows:
                self.flush()

    def flush(self) -> None:
        """Hand the buffer's filled rows to the consumer and start a new one."""
        if self.filled:
            self.consumer(self.start, {name: loads[:self.filled]
                                       for name, loads in self.loads.items()})
        self.start += self.filled
        self.filled = 0

    def _fill_rows(self, row: int, t: int, comp, occ) -> None:
        """Loads of the sample times t .. into the buffer rows row .. row + b - 1."""
        b = comp.shape[0]
        times = slice(row, row + b)
        self.filled = times.stop
        if self.carried:
            if t + b > self.window_end:
                self._price_window(t, t + b)
            lo, hi = np.searchsorted(self.pair_t, (t, t + b))
            touched = list(zip((self.pair_t[lo:hi] + row - t).tolist(),
                               self.pair_bin[lo:hi].tolist(), self.pair_values[lo:hi]))
            for loads, now, k in zip(self.carried, self.now, range(2)):
                loads[times] = now
                for r, j, values in touched:  # in time order: a later touch wins
                    loads[r:times.stop, :, j] = values[k]
                now[...] = loads[times.stop - 1]
        if "comp" in self.loads or "m" in self.loads:
            net = hat_scatter((comp - occ) * self.inv_n, self.scatter, self.n_int,
                              self.bins)
            if "comp" in self.loads:
                self.loads["comp"][times] = net
            if "m" in self.loads:
                self.loads["m"][times] -= net

    def _price_window(self, t: int, need: int) -> None:
        """Price the touched (sample time, bin) pairs from t to at least need."""
        plan, n_int = self.plan, self.n_int
        first = np.searchsorted(plan.group_sub, t - 1)  # substep t - 1 ends at t
        stop = first + self.window_groups
        fits = plan.group_sub[stop] + 1 if stop < plan.group_sub.size else self.traj.n_times
        self.window_end = max(1 + (fits - 1) // self.block * self.block, need)
        g = slice(first, np.searchsorted(plan.group_sub, self.window_end - 1))
        index = self.scatter[0][:, plan.group_channel[g]]
        key = ((plan.group_sub[g] + 1) * n_int + index).T.ravel()  # in time order
        self.pair_t, self.pair_bin = np.divmod(key, n_int)
        self.pair_values = self._pair_loads(self.pair_t, self.pair_bin)

    def _pair_loads(self, pair_t: np.ndarray, pair_bin: np.ndarray) -> np.ndarray:
        """Carried loads (pair, series, state) at (sample time, bin) pairs: of
        1{s=xi}/N for c and (1{s=xi} - 1{s0=xi})/N for m."""
        lo = self.contrib_start[pair_bin]
        count = self.contrib_start[pair_bin + 1] - lo
        entry = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
        initial = self.traj.initial_states
        flat = self.contrib[entry]
        pos = flat % initial.size
        hot = self.plan.states_at(pos, np.repeat(pair_t, count), initial) == self.ids
        rows = np.stack((hot, np.subtract(hot, initial[pos] == self.ids, dtype=float)))
        values = hat_scatter(rows[self.kept] * self.inv_n,
                             (np.repeat(np.arange(pair_t.size), count)[None],
                              self.scatter[1].ravel()[flat][None]), pair_t.size)
        return values.transpose(2, 0, 1)


@dataclass(eq=False)
class _JumpPlan:
    """The jump log laid out for the block replay.

    Jumps keep log order (by time, so by substep).  A (substep, channel)
    group is a channel's jumps inside one substep; groups are sorted by
    substep.  Each group's channel follows the segment path of its chain,
    one segment per slot, the last one running to the substep's end; the
    substep gets as many increment rows as its busiest channel has slots.
    """

    sub: np.ndarray             # (n_jumps,) substep of each jump
    channel: np.ndarray
    src: np.ndarray             # replayed state before each jump
    dst: np.ndarray
    group_sub: np.ndarray       # (n_groups,)
    group_channel: np.ndarray
    seg_sub: np.ndarray         # (n_segments,) positive-duration segments only
    seg_channel: np.ndarray
    seg_state: np.ndarray
    seg_slot: np.ndarray
    seg_duration: np.ndarray
    row_start: np.ndarray       # (n_sub + 1,) first increment row of each substep
    state_key: np.ndarray       # -1, then each group's channel * n_times + substep
    state_after: np.ndarray     # -1, then its channel's state after it

    def states_at(self, channel: np.ndarray, t: np.ndarray, initial) -> np.ndarray:
        """Replayed states of the channels at the sample times t."""
        base = channel * self.row_start.size  # row_start has n_times entries
        last = np.searchsorted(self.state_key, base + t - 1, "right") - 1
        return np.where(self.state_key[last] >= base, self.state_after[last],
                        initial[channel])


def _jump_plan(traj: StochTrajectory, bounds: np.ndarray) -> _JumpPlan:
    n_sub = traj.n_times - 1
    times = traj.times
    lo, hi = int(bounds[0]), int(bounds[-1])
    sub = np.repeat(np.arange(n_sub), np.diff(bounds))
    channel = traj.jump_channel[lo:hi]
    dst = traj.jump_dst[lo:hi]
    t_jump = traj.jump_times[lo:hi]

    # by channel, then in time; prev is the jump before in that order
    order = np.argsort(channel, kind="stable")
    ch, sb = channel[order], sub[order]
    prev = np.concatenate((order[-1:], order[:-1]))
    first = np.ones(order.size, dtype=bool)
    first[1:] = ch[1:] != ch[:-1]
    new_group = first.copy()
    new_group[1:] |= sb[1:] != sb[:-1]
    src = np.empty_like(dst)
    src[order] = np.where(first, traj.initial_states[ch], dst[prev])
    cursor = np.where(new_group, times[sb], t_jump[prev])
    slot = np.arange(order.size) - np.flatnonzero(new_group)[np.cumsum(new_group) - 1]
    last = np.ones(order.size, dtype=bool)
    last[:-1] = new_group[1:]
    g_last, g_sub, g_ch = order[last], sb[last], ch[last]
    g_end = times[g_sub] + (times[g_sub + 1] - times[g_sub])

    n_rows = np.ones(n_sub, dtype=np.int64)
    np.maximum.at(n_rows, g_sub, slot[last] + 2)
    seg_sub = np.concatenate((sb, g_sub))
    seg_duration = np.concatenate((t_jump[order] - cursor, g_end - t_jump[g_last]))
    by_sub = np.argsort(seg_sub, kind="stable")
    by_sub = by_sub[seg_duration[by_sub] > 0.0]
    g_order = np.argsort(g_sub, kind="stable")
    return _JumpPlan(
        sub=sub, channel=channel, src=src, dst=dst,
        group_sub=g_sub[g_order], group_channel=g_ch[g_order],
        seg_sub=seg_sub[by_sub],
        seg_channel=np.concatenate((ch, g_ch))[by_sub],
        seg_state=np.concatenate((src[order], dst[g_last]))[by_sub],
        seg_slot=np.concatenate((slot, slot[last] + 1))[by_sub],
        seg_duration=seg_duration[by_sub],
        row_start=np.concatenate(([0], np.cumsum(n_rows))),
        state_key=np.concatenate(([-1], g_ch * traj.n_times + g_sub)),
        state_after=np.concatenate(([-1], dst[g_last])),
    )


def scan_path(
    traj: StochTrajectory,
    k: ChannelKinetics,
    want_series: Iterable[str] = (),
    consumer: Optional[Callable[[int, dict], None]] = None,
) -> PathDiagnostics:
    """Replay a trajectory, integrating compensators on the frozen-rate grid.

    Each substep's rates are evaluated at V(t_k, i/N), interpolated from the
    snapshot ``traj.v[k]``.  Channels that jump inside a substep are
    integrated segment by segment over their realized state path, so the
    accumulators are exactly those of the simulated chain.  Substeps are
    replayed a block at a time (see :data:`REPLAY_BLOCK_BYTES`).

    ``want_series`` names the load series to stream, from :data:`SERIES`
    (``False`` or empty for none).  The ``consumer`` receives them one
    :func:`grid.riesz_chunk` of sample times at a time, as
    ``consumer(start, loads)``, where ``loads`` maps each named series to the
    (n, n_states, n_int) loads of sample times start .. start + n - 1 in a
    reused buffer.  Series and consumer come together or not at all.
    """
    keep = frozenset(want_series or ())
    if not keep <= set(SERIES):
        raise ValueError(f"unknown series {sorted(keep - set(SERIES))}; "
                         f"choose from {SERIES}")
    if consumer is not None and not keep:
        raise ValueError("a consumer needs at least one series in want_series")
    if keep and consumer is None:
        raise ValueError("series in want_series need a consumer to stream to")
    n_states = traj.n_states
    count = traj.positions.size
    n_sub = traj.n_times - 1
    bounds = np.searchsorted(traj.jump_times, traj.times, side="right")
    plan = _jump_plan(traj, bounds)
    jump_rates = np.full(traj.jump_times.size, np.nan)
    replayed_rates = jump_rates[bounds[0]:bounds[-1]]  # the jumps plan holds
    hats = hat_weights(traj.grid, traj.positions)
    ids = np.arange(n_states)[:, None]
    initial = traj.initial_states
    block = REPLAY_BLOCK_BYTES // (8 * count * n_states * (n_states + 6))
    block = max(1, min(block, n_sub))
    v_full = np.zeros((block, traj.grid.cells + 1))

    series = None
    if keep:
        series = _SeriesScatter(traj, plan, keep, block, consumer)
        zero = np.zeros((1, n_states, count))
        series.fill(0, zero, zero)
    def replay_block(b0, b1, states, acc):
        """Advance ``states`` and ``acc`` over substeps [b0, b1), and give the
        (comp, occ) rows at the substeps' ends if series stream.  The
        block's arrays die on return, before the series are filled."""
        nb = b1 - b0
        v_full[:nb, 1:-1] = traj.v[b0:b1]
        table = rate_table(k, hat_interpolate(v_full[:nb], hats))
        groups = slice(*np.searchsorted(plan.group_sub, (b0, b1)))
        jumped = groups.stop > groups.start
        ends = np.repeat(states[None], nb, axis=0)
        if jumped:
            moved = np.unique(plan.group_channel[groups])
            ends[:, moved] = plan.states_at(moved, np.arange(b0 + 1, b1 + 1)[:, None],
                                            initial)
        starts = np.concatenate((states[None], ends[:-1]))
        # rate_to[dst, b, i] = table[dst, starts[b, i], b, i], one flat take
        rate_to = np.take(table.reshape(n_states, -1),
                          starts.ravel() * (nb * count) + np.arange(nb * count),
                          axis=1).reshape(n_states, nb, count)
        dt = np.diff(traj.times[b0:b1 + 1])[:, None]

        # Increment slots, one row per slot and a column per channel: comp
        # in the first n_states entries, occ in the rest.  Row b holds
        # substep b's frozen-rate increments; the extra slots of substeps
        # with jumps follow in rows nb.., and `order` lists every row in
        # loop order.
        rows = plan.row_start[b0:b1 + 1] - plan.row_start[b0]
        order = np.arange(rows[-1])
        if jumped:
            seg = slice(*np.searchsorted(plan.seg_sub, (b0, b1)))
            sb = plan.seg_sub[seg] - b0
            sc, ss = plan.seg_channel[seg], plan.seg_state[seg]
            cols = table.transpose(2, 3, 1, 0)[sb, sc, ss]
            e = slice(bounds[b0] - bounds[0], bounds[b1] - bounds[0])
            replayed_rates[e] = table[plan.dst[e], plan.src[e], plan.sub[e] - b0,
                                      plan.channel[e]]
            sub_of = np.repeat(np.arange(nb), np.diff(rows))
            order = np.where(order == rows[sub_of], sub_of, nb + order - sub_of - 1)
        del table  # before the slots are allocated
        inc = np.empty((rows[-1], 2 * n_states, count))
        np.multiply(dt[:, :, None], rate_to.transpose(1, 0, 2), out=inc[:nb, :n_states])
        exit_rate = rate_to.sum(axis=0)
        exit_rate *= dt
        np.multiply(starts[:, None] == ids, exit_rate[:, None], out=inc[:nb, n_states:])
        del rate_to, exit_rate, starts  # before the slots are summed and gathered
        if jumped:
            # channels that jump follow their segment path instead
            inc[plan.group_sub[groups] - b0, :, plan.group_channel[groups]] = 0.0
            inc[nb:] = 0.0
            row = order[rows[sb] + plan.seg_slot[seg]]
            duration = plan.seg_duration[seg]
            inc[row, :n_states, sc] = duration[:, None] * cols
            inc[row, n_states + ss, sc] = duration * cols.sum(axis=1)

        flat = inc.reshape(rows[-1], -1)
        for r in order.tolist():
            np.add(acc, flat[r], out=flat[r])
            acc = flat[r]
        at_end = None if series is None else inc[order[rows[1:] - 1]]
        return ends[-1].copy(), acc.copy(), at_end

    states = initial
    acc = np.zeros(2 * n_states * count)  # comp, then occ
    for b0 in range(0, n_sub, block):
        states, acc, at_end = replay_block(b0, min(b0 + block, n_sub), states, acc)
        if series is not None:
            series.fill(b0 + 1, at_end[:, :n_states], at_end[:, n_states:])
    if series is not None:
        series.flush()

    acc = acc.reshape(2, n_states, count)
    return PathDiagnostics(
        comp_final=acc[0],
        exit_occupation_final=acc[1],
        jumps_net_final=(states == ids).astype(float) - (initial == ids),
        jump_rates=jump_rates,
    )


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
    """Dual norm of every state's martingale part at each sample time.

    The loads stream from the replay one Riesz chunk of sample times at a
    time, so only the (n_times, n_states) norms are held.
    """
    norms = np.empty((traj.n_times, traj.n_states))

    def take(start, loads):
        m = loads["m"]
        norms[start:start + m.shape[0]] = hminus1_norms(grid, m)

    scan_path(traj, k, want_series=("m",), consumer=take)
    return traj.times, norms


def write_martingale_norm_csv(traj: StochTrajectory, k: ChannelKinetics,
                              grid: Grid, path) -> None:
    """CSV time series (t, mart_hm1_<state>...) of the martingale size."""
    times, norms = martingale_norm_series(traj, k, grid)
    write_csv(path, ["t"] + [f"mart_hm1_{name}" for name in k.states], [csv_lines(
        map(repr, times.tolist()), *(map(repr, col) for col in norms.T.tolist()))])
