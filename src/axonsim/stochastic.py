"""Particle-model integrator: point-source voltage PDE + per-channel jumps.

Channels sit at the lattice points i/N strictly inside the interval.  The
voltage solves

    dV/dt = Laplacian(V) + (1/N) sum_i c_{sal(i)} (v_{s(i)} - V(i/N)) delta_{i/N}

with zero boundary values, coupled to each channel's continuous-time jump
dynamics at clamped rates alpha(V(t, i/N)).

The hybrid scheme per substep (t, t+dt]:
  1. freeze every channel's rates at V(t, i/N);
  2. simulate each channel's jumps exactly for the frozen-rate chain
     (exponential holding times, categorical targets);
  3. merge the jump times and advance the PDE by Crank-Nicolson sub-solves
     between consecutive jumps, with the channel configuration held fixed
     on each sub-interval and each jump applied to it at its time.

The point sources make the frozen-configuration PDE linear: the V(i/N)
feedback assembles into a symmetric tridiagonal rank-accumulation, so each
sub-solve is a single banded solve and the step is unconditionally stable.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .errors import InvariantViolation
from .grid import (
    Functional,
    Grid,
    GridFunction,
    NodalField,
    hat_weights,
    mass_bands,
    stiffness_bands,
)
from .deterministic import DissipationLedger, step_guard
from .kinetics import ChannelKinetics, channel_rates, rate_table

STOCH_GUARD = 0.2


def channel_positions(n_scale: int, half_length: float) -> np.ndarray:
    """Lattice positions i/N for every integer i with -N*l < i < N*l."""
    if n_scale < 1:
        raise ValueError("channel scale N must be at least 1")
    nl = n_scale * half_length
    imax = math.ceil(nl) - 1 if float(nl).is_integer() else math.floor(nl)
    if imax < 0:
        raise ValueError(f"no channel positions for N={n_scale}, l={half_length}")
    return np.arange(-imax, imax + 1, dtype=float) / n_scale


@dataclass(eq=False)
class ChannelConfig:
    """Channel lattice with one state index per position."""

    n_scale: int
    positions: np.ndarray
    states: np.ndarray

    @property
    def count(self) -> int:
        return self.positions.size

    def state_counts(self, n_states: int) -> np.ndarray:
        return np.bincount(self.states, minlength=n_states)


@dataclass(eq=False)
class StochasticState:
    t: float
    v: GridFunction
    channels: ChannelConfig


@dataclass(eq=False)
class StochTrajectory:
    """Full record of one particle-model run.

    ``times`` are the substep boundaries k*dt; ``v`` holds the interior
    voltage there.  ``jump_*`` arrays are globally time-ordered.
    ``v_chan_frozen`` row k holds V(t_k, i/N) for every channel, the values
    the rates were frozen at over (t_k, t_{k+1}]; it is what the compensator
    reconstruction needs and can be dropped (None) to save memory.
    """

    grid: Grid
    n_scale: int
    positions: np.ndarray
    initial_states: np.ndarray
    n_states: int
    times: np.ndarray
    v: np.ndarray
    jump_times: np.ndarray
    jump_channel: np.ndarray
    jump_src: np.ndarray
    jump_dst: np.ndarray
    v_chan_frozen: Optional[np.ndarray]
    seed: object
    dissipation: np.ndarray
    sup_v_inf: float

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def substep_dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.n_times > 1 else 0.0

    def v_at(self, idx: int) -> GridFunction:
        return GridFunction(self.grid, self.v[idx])

    def final_states(self) -> np.ndarray:
        s = self.initial_states.copy()
        for i, b in zip(self.jump_channel, self.jump_dst):
            s[i] = b
        return s


def _interp_at_positions(p_values: np.ndarray, grid: Grid, x: np.ndarray) -> np.ndarray:
    cell, wl, wr = hat_weights(grid, x)
    return p_values[cell] * wl + p_values[cell + 1] * wr


def init_channels(
    n_scale: int,
    p0: Sequence[NodalField],
    mode: str,
    rng: np.random.Generator,
) -> ChannelConfig:
    """Assign initial channel states from the proportion fields.

    ``stratified`` greedily hands channel i the state that is most owed
    relative to the running cumulative targets sum_{i' <= i} p(x_i'), which
    is deterministic and keeps every running count within one of its
    target.  ``iid`` samples each channel independently from p(x_i).
    """
    grid = p0[0].grid
    x = channel_positions(n_scale, grid.half_length)
    probs = np.stack([_interp_at_positions(f.values, grid, x) for f in p0])
    probs = probs / probs.sum(axis=0)
    n_states, count = probs.shape
    if mode == "iid":
        u = rng.random(count)
        cum = np.cumsum(probs, axis=0)
        states = (u[None, :] > cum).sum(axis=0)
        states = np.minimum(states, n_states - 1)
    elif mode == "stratified":
        states = np.empty(count, dtype=np.int64)
        owed = np.zeros(n_states)
        for i in range(count):
            owed += probs[:, i]
            pick = int(np.argmax(owed))
            owed[pick] -= 1.0
            states[i] = pick
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    return ChannelConfig(n_scale=n_scale, positions=x, states=states)


def _interior_hat_arrays(grid: Grid, x: np.ndarray):
    """Interior-index scatter arrays (idx, weight) x 2 for hat loads at x."""
    cell, wl, wr = hat_weights(grid, x)
    idx_lo = cell - 1
    idx_hi = cell
    wt_lo = np.where(idx_lo >= 0, wl, 0.0)
    wt_hi = np.where(idx_hi <= grid.n_interior - 1, wr, 0.0)
    idx_lo = np.clip(idx_lo, 0, grid.n_interior - 1)
    idx_hi = np.clip(idx_hi, 0, grid.n_interior - 1)
    return idx_lo, wt_lo, idx_hi, wt_hi


def empirical_distribution(channels: ChannelConfig, state, grid: Grid,
                           k: Optional[ChannelKinetics] = None) -> Functional:
    """Mass 1/N at every channel currently in the given state, as hat loads."""
    s = k.state_index(state) if k is not None else int(state)
    idx_lo, wt_lo, idx_hi, wt_hi = _interior_hat_arrays(grid, channels.positions)
    sel = channels.states == s
    loads = np.zeros(grid.n_interior)
    np.add.at(loads, idx_lo[sel], wt_lo[sel])
    np.add.at(loads, idx_hi[sel], wt_hi[sel])
    return Functional(grid, loads / channels.n_scale)


def channel_source(channels: ChannelConfig, v: GridFunction,
                   k: ChannelKinetics, grid: Grid) -> Functional:
    """Weighted point-source functional (1/N) sum_i c_i (v_i - V(x_i)) delta_{x_i}."""
    v_full = v.full()
    cell, wl, wr = hat_weights(grid, channels.positions)
    v_chan = v_full[cell] * wl + v_full[cell + 1] * wr
    c = k.conductance[channels.states]
    drive = k.driving[channels.states]
    weights = c * (drive - v_chan) / channels.n_scale
    idx_lo, wt_lo, idx_hi, wt_hi = _interior_hat_arrays(grid, channels.positions)
    loads = np.zeros(grid.n_interior)
    np.add.at(loads, idx_lo, weights * wt_lo)
    np.add.at(loads, idx_hi, weights * wt_hi)
    return Functional(grid, loads)


class _HybridCore:
    """Mutable stepping engine; owns the state and the assembled operators."""

    def __init__(self, grid: Grid, k: ChannelKinetics, channels: ChannelConfig,
                 v_interior: np.ndarray):
        self.grid = grid
        self.k = k
        self.n = channels.n_scale
        self.positions = channels.positions
        self.states = channels.states.copy()
        self.count = channels.count
        self.kd, self.ko = stiffness_bands(grid)
        self.md, self.mo = mass_bands(grid)
        cell, wl, wr = hat_weights(grid, self.positions)
        self.cell = cell
        self.w_full_lo = wl
        self.w_full_hi = wr
        (self.idx_lo, self.wt_lo, self.idx_hi, self.wt_hi) = _interior_hat_arrays(
            grid, self.positions
        )
        self.off_idx = np.clip(cell - 1, 0, max(grid.n_interior - 2, 0))
        self.wt_cross = self.wt_lo * self.wt_hi
        self.v_full = np.zeros(grid.cells + 1)
        self.v_full[1:-1] = v_interior
        n_int = grid.n_interior
        self._ab = np.zeros((3, n_int))
        self.bd = np.zeros(n_int)
        self.bo = np.zeros(max(n_int - 1, 0))
        self.cload = np.zeros(n_int)
        self._assemble_source()

    def _assemble_source(self) -> None:
        c = self.k.conductance[self.states] / self.n
        cv = c * self.k.driving[self.states]
        self.bd[:] = 0.0
        self.bo[:] = 0.0
        self.cload[:] = 0.0
        np.add.at(self.bd, self.idx_lo, c * self.wt_lo**2)
        np.add.at(self.bd, self.idx_hi, c * self.wt_hi**2)
        np.add.at(self.bo, self.off_idx, c * self.wt_cross)
        np.add.at(self.cload, self.idx_lo, cv * self.wt_lo)
        np.add.at(self.cload, self.idx_hi, cv * self.wt_hi)

    def _apply_jump(self, i: int, dst: int) -> None:
        src = self.states[i]
        dc = (self.k.conductance[dst] - self.k.conductance[src]) / self.n
        dcv = (
            self.k.conductance[dst] * self.k.driving[dst]
            - self.k.conductance[src] * self.k.driving[src]
        ) / self.n
        self.states[i] = dst
        if dc != 0.0 or dcv != 0.0:
            self.bd[self.idx_lo[i]] += dc * self.wt_lo[i] ** 2
            self.bd[self.idx_hi[i]] += dc * self.wt_hi[i] ** 2
            self.bo[self.off_idx[i]] += dc * self.wt_cross[i]
            self.cload[self.idx_lo[i]] += dcv * self.wt_lo[i]
            self.cload[self.idx_hi[i]] += dcv * self.wt_hi[i]

    def v_at_channels(self) -> np.ndarray:
        return (self.v_full[self.cell] * self.w_full_lo
                + self.v_full[self.cell + 1] * self.w_full_hi)

    def _advance_pde(self, tau: float) -> None:
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
        ab = self._ab
        ab[0, 1:] = self.mo + half * off_op
        ab[1] = self.md + half * diag_op
        ab[2, :-1] = ab[0, 1:]
        self.v_full[1:-1] = solve_banded((1, 1), ab, rhs)

    def _jump_chain(self, i: int, first_time: float, dt: float, rates: np.ndarray,
                    t0: float, rng: np.random.Generator) -> list[tuple]:
        """Exact frozen-rate chain for one channel inside a substep.

        ``rates`` is the channel's (n_states, n_states) slice of the
        substep's rate table.
        """
        exit = rates.sum(axis=0).tolist()
        events = []
        s = int(self.states[i])
        t_loc = first_time
        while t_loc <= dt:
            u = rng.random() * exit[s]
            dst = int(np.searchsorted(np.cumsum(rates[:, s]), u, side="right"))
            dst = min(dst, self.k.n_states - 1)
            events.append((t0 + t_loc, i, s, dst))
            s = dst
            t_loc += rng.exponential() / exit[s]
        return events

    def substep(self, t0: float, dt: float, rng: np.random.Generator):
        """Advance by one substep; returns (events, frozen channel voltages)."""
        v_chan = self.v_at_channels()
        table = rate_table(self.k, v_chan)
        exit = channel_rates(table, self.states).sum(axis=0)
        tau = rng.exponential(size=self.count) / exit
        jumpers = np.nonzero(tau <= dt)[0]
        if jumpers.size == 0:
            self._advance_pde(dt)
            return [], v_chan
        events: list[tuple] = []
        for i in jumpers:
            events.extend(self._jump_chain(int(i), float(tau[i]), dt,
                                           table[:, :, i], t0, rng))
        events.sort(key=lambda e: e[0])
        cursor = t0
        for (te, i, _src, dst) in events:
            self._advance_pde(te - cursor)
            self._apply_jump(i, dst)
            cursor = te
        self._advance_pde(t0 + dt - cursor)
        return events, v_chan


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator from an integer seed or a SeedSequence."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(entropy=int(seed))
    return np.random.Generator(np.random.Philox(seed))


def replicate_seed_sequence(base_seed: int, n_scale: int, replicate: int):
    """Independent, order-free stream key for one (N, replicate) work item."""
    return np.random.SeedSequence(entropy=int(base_seed),
                                  spawn_key=(int(n_scale), int(replicate)))


def seed_id(seq: np.random.SeedSequence) -> int:
    """64-bit identifier of a stream: the ``seed`` column of results.csv."""
    return int(seq.generate_state(1, np.uint64)[0])


def run_stoch(
    init: StochasticState,
    t_horizon: float,
    dt: float,
    k: ChannelKinetics,
    seed,
    store_history: bool = True,
) -> StochTrajectory:
    """Simulate the particle model to the horizon with substeps of length dt.

    Records voltage snapshots at every substep boundary, the global jump
    log, and (optionally) the frozen channel voltages each substep used.
    Aborts with :class:`InvariantViolation` if the voltage leaves the finite
    range or the dissipation budget fails.
    """
    if t_horizon < 0:
        raise ValueError("time horizon must be nonnegative")
    grid = init.v.grid
    n_steps = int(round(t_horizon / dt)) if t_horizon > 0 else 0
    if t_horizon > 0:
        if abs(n_steps * dt - t_horizon) > 1e-9 * max(1.0, t_horizon):
            raise ValueError(f"horizon {t_horizon} is not a multiple of dt={dt}")
        step_guard(dt, k, limit=STOCH_GUARD)
    rng = make_rng(seed)
    core = _HybridCore(grid, k, init.channels, init.v.values)

    times = init.t + dt * np.arange(n_steps + 1)
    v_snaps = np.empty((n_steps + 1, grid.n_interior))
    v_snaps[0] = init.v.values
    ledger = DissipationLedger(init.v, k, n_steps)
    history = np.empty((n_steps, core.count)) if store_history and n_steps else None
    jt: list[float] = []
    jc: list[int] = []
    js: list[int] = []
    jd: list[int] = []

    for step in range(n_steps):
        t0 = float(times[step])
        events, v_chan = core.substep(t0, dt, rng)
        if history is not None:
            history[step] = v_chan
        for (te, i, s, d) in events:
            jt.append(te)
            jc.append(i)
            js.append(s)
            jd.append(d)
        v = core.v_full[1:-1]
        v_snaps[step + 1] = v
        if not np.all(np.isfinite(v)):
            raise InvariantViolation(f"voltage not finite at t={times[step + 1]}")
        ledger.record(step + 1, float(times[step + 1]), dt, v)

    return StochTrajectory(
        grid=grid,
        n_scale=init.channels.n_scale,
        positions=init.channels.positions,
        initial_states=init.channels.states.copy(),
        n_states=k.n_states,
        times=times,
        v=v_snaps,
        jump_times=np.asarray(jt, dtype=float),
        jump_channel=np.asarray(jc, dtype=np.int64),
        jump_src=np.asarray(js, dtype=np.int64),
        jump_dst=np.asarray(jd, dtype=np.int64),
        v_chan_frozen=history,
        seed=seed,
        dissipation=ledger.values,
        sup_v_inf=ledger.sup_inf,
    )


def write_voltage_csv(traj: StochTrajectory, path, stride: int = 1) -> None:
    """Voltage snapshots in long format: (t, node, x, V)."""
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


def write_jump_csv(traj: StochTrajectory, path,
                   state_names: Optional[Sequence[str]] = None) -> None:
    """Jump log: (t, i, from, to)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "channel", "from", "to"])
        for t, i, a, b in zip(traj.jump_times.tolist(), traj.jump_channel.tolist(),
                              traj.jump_src.tolist(), traj.jump_dst.tolist()):
            src = state_names[a] if state_names else a
            dst = state_names[b] if state_names else b
            w.writerow([repr(t), i, src, dst])


def write_run_manifest(traj: StochTrajectory, path, config_digest: str = "") -> None:
    """Run summary with the stream the run drew from.

    ``base_seed`` and ``replicate`` are the coordinates of
    :func:`replicate_seed_sequence` (``replicate`` is null for a run seeded
    with a plain integer) and ``seed`` is that stream's :func:`seed_id`.
    """
    seq = make_rng(traj.seed).bit_generator.seed_seq
    payload = {
        "base_seed": int(seq.entropy),
        "replicate": int(seq.spawn_key[1]) if len(seq.spawn_key) == 2 else None,
        "seed": seed_id(seq),
        "config_digest": config_digest,
        "n_scale": traj.n_scale,
        "channels": int(traj.positions.size),
        "jumps": int(traj.jump_times.size),
        "sup_v_inf": traj.sup_v_inf,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
