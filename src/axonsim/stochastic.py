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
feedback assembles into a symmetric tridiagonal rank-accumulation B, held
as stacked bands that a jump updates in place, so every voltage update,
a jump substep's sub-solve or a whole substep without jumps, is one solve
of the fluid model's Crank-Nicolson workspace (:class:`grid.CrankNicolson`)
with B as its reaction matrix, and is unconditionally stable.  The
workspace holds the system of the last step length; it is formed again
only when the step length differs or a jump changed a conductance, so a
run of jump-free substeps forms it once.

Each substep draws the channels' first holding times before any rate: the
exponential draw E_i of channel i gives its holding time E_i / exit_i.  The
kinetics bound every exit rate (:attr:`ChannelKinetics.exit_bound`) and
rounding is monotone, so a channel with E_i / exit_bound > dt cannot jump in
the substep, and only the remaining candidates, a small share of the
channels, evaluate their rates.  The draws, and the arithmetic at the
candidates, are those of evaluating every channel, so the trajectory is the
same bit for bit.
The dissipation budget is checked a block of substeps at a time from the
stored snapshots, with the same sums in the same order as a per-step check,
and raises at the same step.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .csvtext import csv_lines, quote, write_csv, write_snapshot_csv
from .errors import InvariantViolation
from .grid import (
    CrankNicolson,
    Grid,
    all_finite,
    hat_interpolate,
    hat_scatter,
    hat_scatter_arrays,
    hat_weights,
    mass_bands,
    stiffness_bands,
)
from .deterministic import (_LEDGER_BLOCK, DissipationLedger, check_start, step_count,
                            step_guard)
from .kinetics import ChannelKinetics, rate_table

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


@dataclass(eq=False)
class StochTrajectory:
    """Full record of one particle-model run.

    ``times`` are the substep boundaries k*dt; ``v`` holds the interior
    voltage there.  ``jump_*`` arrays are globally time-ordered.  The
    snapshots are the only voltage record: the rates over (t_k, t_{k+1}]
    were frozen at V(t_k, i/N), the hat interpolant of ``v[k]`` at the
    channel positions, which is how the compensator replay recovers them.
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
    seed: object
    dissipation: np.ndarray
    sup_v_inf: float

    @property
    def n_times(self) -> int:
        return self.times.size


def init_channels(
    grid: Grid,
    n_scale: int,
    p0: np.ndarray,
    mode: str,
    rng: np.random.Generator,
) -> ChannelConfig:
    """Assign initial channel states from the (n_states, n_nodes) proportions.

    ``stratified`` greedily hands channel i the state that is most owed
    relative to the running cumulative targets sum_{i' <= i} p(x_i'), which
    is deterministic and keeps every running count within one of its
    target.  ``iid`` samples each channel independently from p(x_i).
    """
    x = channel_positions(n_scale, grid.half_length)
    probs = hat_interpolate(p0, hat_weights(grid, x))
    probs = probs / probs.sum(axis=0)
    n_states, count = probs.shape
    if mode == "iid":
        u = rng.random(count)
        cum = np.cumsum(probs, axis=0)
        states = (u[None, :] > cum).sum(axis=0)
        states = np.minimum(states, n_states - 1)
    elif mode == "stratified":
        # on Python floats, the first maximum as np.argmax picks it: the
        # same sums, and a third of the numpy loop's time
        picks = []
        owed = [0.0] * n_states
        for column in probs.T.tolist():
            owed = [debt + p for debt, p in zip(owed, column)]
            pick = owed.index(max(owed))
            owed[pick] -= 1.0
            picks.append(pick)
        states = np.array(picks, dtype=np.int64)
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    return ChannelConfig(n_scale=n_scale, positions=x, states=states)


class _HybridCore:
    """Mutable stepping engine; owns the state and the assembled operators."""

    def __init__(self, grid: Grid, k: ChannelKinetics, channels: ChannelConfig,
                 v_interior: np.ndarray):
        if grid.n_interior < 2:  # B's off-diagonal needs two interior nodes
            raise ValueError(f"the particle model needs cells >= 3, got {grid.cells}")
        self.grid = grid
        self.k = k
        self.n = channels.n_scale
        self.positions = channels.positions
        self.states = channels.states.copy()
        self.count = channels.count
        self.kd, self.ko = stiffness_bands(grid)
        self.md, self.mo = mass_bands(grid)
        self.cn = CrankNicolson((self.kd, self.ko), (self.md, self.mo))
        # the point sources' operator B as stacked bands; bd and bo view it
        self.b_bands = np.zeros((2, grid.n_interior))
        self.bd, self.bo = self.b_bands[0], self.b_bands[1, :-1]
        self.hats = hat_weights(grid, self.positions)
        self.scatter = hat_scatter_arrays(grid, self.positions)
        (self.idx_lo, self.idx_hi), (self.wt_lo, self.wt_hi) = self.scatter
        self.off_idx = np.clip(self.hats[0] - 1, 0, grid.n_interior - 2)
        self.wt_cross = self.wt_lo * self.wt_hi
        self.v_full = np.zeros(grid.cells + 1)  # boundary nodes included
        self.v_full[1:-1] = v_interior
        self.step = 0  # substeps done; the snapshot index of v_full
        self._tau = None  # step length of the held CN system; None once B changes
        self._assemble_source()

    def _assemble_source(self) -> None:
        """The point sources' operator B and load: B's diagonal takes each
        hat's square, its off-diagonal (one-sided) the product of a cell's
        two hats, and the load the hats themselves."""
        c = self.k.conductance[self.states] / self.n
        cv = c * self.k.driving[self.states]
        index, weight = self.scatter
        n_int = self.grid.n_interior
        self.bd[:] = hat_scatter(c, (index, weight**2), n_int)
        self.bo[:] = hat_scatter(c, (self.off_idx[None], self.wt_cross[None]), n_int - 1)
        self.cload = hat_scatter(cv, self.scatter, n_int)

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
            self._tau = None

    def _advance_pde(self, tau: float) -> None:
        """Solve over tau with the configuration held fixed: a
        :class:`grid.CrankNicolson` solve with reaction matrix B, whose
        system is formed only if tau or B changed since the last one."""
        if tau <= 0.0:
            return
        if tau != self._tau:
            self.cn.system(self.b_bands, tau, self.cload)
            self._tau = tau
        v = self.v_full[1:-1]
        self.cn.solve(v, v)

    def _jump_chain(self, i: int, first_time: float, dt: float, rates: np.ndarray,
                    t0: float, rng: np.random.Generator) -> list[tuple]:
        """Exact frozen-rate chain for one channel inside a substep.

        ``rates`` is the channel's (n_states, n_states) slice of the
        substep's rate table.
        """
        exit = rates.sum(axis=0).tolist()
        cumulative = np.cumsum(rates, axis=0).T.tolist()  # per source state
        last = self.k.n_states - 1
        events = []
        s = int(self.states[i])
        t_loc = first_time
        while t_loc <= dt:
            u = rng.random() * exit[s]
            dst = min(bisect.bisect_right(cumulative[s], u), last)
            events.append((t0 + t_loc, i, s, dst))
            s = dst
            t_loc += rng.exponential() / exit[s]
        return events

    def advance(self, times: np.ndarray, stop: int, dt: float,
                rng: np.random.Generator, snaps: np.ndarray) -> list[tuple]:
        """Advance to the end of the first substep with a jump, or to substep
        ``stop``; returns that substep's time-ordered jump events.

        Each substep draws the channels' exponentials E_i first and passes
        those with ``E_i / exit_bound <= dt`` on as candidates; a substep
        without a candidate, or whose candidates do not jump, is one solve
        over dt.  Each substep's end voltage is written to
        ``snaps`` at the substep count ``self.step`` reaches with it; a
        non-finite one raises instead, and an error leaves ``self.step`` at
        the substep that failed.
        """
        while True:
            draws = rng.exponential(size=self.count)
            candidates = np.nonzero(draws / self.k.exit_bound <= dt)[0]
            events = []
            if candidates.size:
                events = self._jump_substep(float(times[self.step]), dt, draws,
                                            candidates, rng)
            if not events:
                self._advance_pde(dt)
            v = self.v_full[1:-1]
            if not all_finite(v):
                raise InvariantViolation(f"voltage not finite at t={times[self.step + 1]}")
            self.step += 1
            snaps[self.step] = v
            if events or self.step == stop:
                return events

    def _jump_substep(self, t0: float, dt: float, draws: np.ndarray,
                      candidates: np.ndarray, rng: np.random.Generator) -> list[tuple]:
        """The candidates' rates at the substep's start voltage, their
        holding times ``draws / exit`` and, if any of them jumps, the
        jumpers' chains, drawn in channel order, then a sub-solve between
        consecutive jumps.  Without a jumper it returns no events and leaves
        the voltage alone."""
        table = rate_table(self.k, hat_interpolate(
            self.v_full, [hat[candidates] for hat in self.hats]))
        exit = table.sum(axis=0)[self.states[candidates], np.arange(candidates.size)]
        tau = draws[candidates] / exit
        events: list[tuple] = []
        for j in np.nonzero(tau <= dt)[0].tolist():
            events.extend(self._jump_chain(int(candidates[j]), float(tau[j]), dt,
                                           table[:, :, j], t0, rng))
        if not events:
            return events
        events.sort(key=lambda e: e[0])
        cursor = t0
        for (te, i, _src, dst) in events:
            self._advance_pde(te - cursor)
            self._apply_jump(i, dst)
            cursor = te
        self._advance_pde(t0 + dt - cursor)
        return events


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


def run_stoch(grid: Grid, v0: np.ndarray, channels: ChannelConfig, t_horizon: float,
              dt: float, k: ChannelKinetics, seed) -> StochTrajectory:
    """Simulate the particle model from the interior voltage ``v0`` and the
    channels at t = 0 to the horizon with substeps of length dt.

    Records voltage snapshots at every substep boundary and the global jump
    log.  Aborts with :class:`InvariantViolation` if the voltage leaves the
    finite range or the dissipation budget fails.  The budget is checked a
    block of substeps at a time, from the snapshots; an error inside a block
    first flushes the ledger, so whichever check fails first raises.
    """
    check_start(grid, v0, k)
    n_steps = step_count(t_horizon, dt)
    if n_steps:
        step_guard(dt, k, limit=STOCH_GUARD)
    rng = make_rng(seed)
    core = _HybridCore(grid, k, channels, v0)

    times = dt * np.arange(n_steps + 1)
    v_snaps = np.empty((n_steps + 1, grid.n_interior))
    v_snaps[0] = v0
    ledger = DissipationLedger(grid, v0, k, n_steps)
    jt: list[float] = []
    jc: list[int] = []
    js: list[int] = []
    jd: list[int] = []

    while core.step < n_steps:
        stop = min(n_steps, (core.step // _LEDGER_BLOCK + 1) * _LEDGER_BLOCK)
        try:
            events = core.advance(times, stop, dt, rng, v_snaps)
        except Exception:
            # a budget failure at an earlier step is the one to report
            ledger.record(core.step, times, dt, v_snaps)
            raise
        for (te, i, s, d) in events:
            jt.append(te)
            jc.append(i)
            js.append(s)
            jd.append(d)
        if core.step == stop:
            ledger.record(stop, times, dt, v_snaps)

    return StochTrajectory(
        grid=grid,
        n_scale=channels.n_scale,
        positions=channels.positions,
        initial_states=channels.states.copy(),
        n_states=k.n_states,
        times=times,
        v=v_snaps,
        jump_times=np.asarray(jt, dtype=float),
        jump_channel=np.asarray(jc, dtype=np.int64),
        jump_src=np.asarray(js, dtype=np.int64),
        jump_dst=np.asarray(jd, dtype=np.int64),
        seed=seed,
        dissipation=ledger.values,
        sup_v_inf=ledger.sup_inf,
    )


def write_voltage_csv(traj: StochTrajectory, path, stride: int = 1, beside=()) -> None:
    """Voltage snapshots in long format: (t, node, x, V), rows ``0, stride, ...``;
    then the whole-file writes ``beside``, through the same pool
    (:func:`~axonsim.csvtext.write_snapshot_csv`)."""
    write_snapshot_csv(path, ["V"], traj.grid.nodes, traj.times, traj.v, stride,
                       beside=beside)


def write_jump_csv(traj: StochTrajectory, path,
                   state_names: Optional[Sequence[str]] = None) -> None:
    """Jump log: (t, i, from, to)."""
    src, dst = traj.jump_src.tolist(), traj.jump_dst.tolist()
    if state_names:
        names = [quote(name) for name in state_names]
        src, dst = [names[a] for a in src], [names[b] for b in dst]
    write_csv(path, ["t", "channel", "from", "to"], [csv_lines(
        map(repr, traj.jump_times.tolist()), map(str, traj.jump_channel.tolist()),
        map(str, src), map(str, dst))])


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
