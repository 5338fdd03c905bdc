"""Fluid-model integrator: reaction-diffusion voltage PDE + proportion ODEs.

The voltage solves dv/dt = Laplacian(v) - a v + b with zero boundary values,
where a = sum_xi c_xi p_xi >= 0 and b = sum_xi c_xi p_xi v_xi come from the
nodal proportion fields.  The proportions solve, at every node, the linear
system dp/dt = G(v) p with G the clamped-rate generator.

Time stepping is Strang splitting: an RK4 half-step of the proportions with
the voltage frozen, a Crank-Nicolson step of the PDE with the reaction
coefficients frozen at the proportion midpoint (one step of the
:class:`grid.CrankNicolson` workspace, with the mass matrix weighted by a as
its reaction matrix), then a second proportion half-step.  RK4 on the linear
proportion system preserves the nodal total sum(p) exactly up to roundoff.

:func:`run_det` steps a Strang-step kernel on plain arrays.  The kernel
returns the generator at the new voltage, which is bit for bit the next
step's starting generator, so the run evaluates the rate table once per
step and builds the stiffness and mass bands once.  The proportion-total
and voltage-band guards and the dissipation budget are checked a block of
steps at a time from the snapshots, with the same sums and comparisons as
a per-step check, in step order, so the first failure raises at the same
step with the same message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvtext import csv_lines, write_csv, write_snapshot_csv
from .errors import InvariantViolation
from .grid import (
    CrankNicolson,
    Grid,
    all_finite,
    density_loads,
    gradient_sq,
    mass_bands,
    squared_norms,
    stiffness_bands,
)
from .kinetics import ChannelKinetics, rate_table

PROP_SUM_TOL = 1e-9
PROP_RANGE_TOL = 1e-9
PROP_CLIP = 1e-9
VOLTAGE_TOL = 1e-8


@dataclass(eq=False)
class DetTrajectory:
    """Sampled fluid-model run: times, snapshots, accumulated dissipation."""

    grid: Grid
    state_names: tuple[str, ...]
    times: np.ndarray              # (n_times,)
    v: np.ndarray                  # (n_times, n_interior)
    p: np.ndarray                  # (n_times, n_states, n_nodes)
    dissipation: np.ndarray        # (n_times,)  running int ||Dv||_L2^2 ds
    sup_v_inf: float
    max_prop_sum_error: float

    @property
    def n_times(self) -> int:
        return self.times.size


def _generator(k: ChannelKinetics, v_full: np.ndarray) -> np.ndarray:
    """Nodal generator G(v) = rate table - diag(exit rates), so dp/dt = G p."""
    gen = rate_table(k, v_full)
    n = k.n_states
    # rate_table's table is contiguous, so the reshape is a view and its
    # rows 0, n + 1, 2 (n + 1), ... are the diagonal
    gen.reshape(n * n, -1)[::n + 1] = -gen.sum(axis=0)
    return gen


def _prop_derivative(p: np.ndarray, gen: np.ndarray) -> np.ndarray:
    return (gen * p).sum(axis=1)


def _rk4_prop(p: np.ndarray, gen: np.ndarray, dt: float) -> np.ndarray:
    k1 = _prop_derivative(p, gen)
    k2 = _prop_derivative(p + 0.5 * dt * k1, gen)
    k3 = _prop_derivative(p + 0.5 * dt * k2, gen)
    k4 = _prop_derivative(p + dt * k3, gen)
    return p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _clip_proportions(p: np.ndarray, t: float) -> np.ndarray:
    lo = p.min()
    if lo >= 0.0:
        return p
    if lo < -PROP_CLIP:
        raise InvariantViolation(f"proportion {lo:.3e} below -{PROP_CLIP} at t={t}")
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=0)


def _weighted_mass_bands(a: np.ndarray, h: float):
    """Bands of the matrix int a phi_i phi_j with a piecewise linear."""
    diag = h / 12.0 * (a[:-2] + 6.0 * a[1:-1] + a[2:])
    off = h / 12.0 * (a[1:-2] + a[2:-1])
    return diag, off


def step_guard(dt: float, k: ChannelKinetics, limit: float = 0.5) -> None:
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    if dt * k.alpha_max * (k.n_states - 1) > limit:
        raise ValueError(
            f"dt={dt} violates the kinetics stability guard "
            f"dt * alpha_max * (|E|-1) <= {limit}"
        )


def step_count(t_horizon: float, dt: float) -> int:
    """Steps of length dt to the horizon, which must be a whole number of them.

    Rejects a negative or non-finite horizon, a step that is not positive and
    finite, and a horizon more than 1e-9 (relative, above 1) off a multiple
    of the step.  A zero horizon is zero steps of any dt.
    """
    if not (math.isfinite(t_horizon) and t_horizon >= 0):
        raise ValueError(f"time horizon must be finite and nonnegative, got {t_horizon}")
    if t_horizon == 0:
        return 0
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"time step must be positive and finite, got {dt}")
    if not math.isfinite(t_horizon / dt):
        raise ValueError(f"time step {dt} is too small for the horizon {t_horizon}")
    n_steps = int(round(t_horizon / dt))
    if abs(n_steps * dt - t_horizon) > 1e-9 * max(1.0, t_horizon):
        raise ValueError(f"horizon {t_horizon} is not a multiple of dt={dt}")
    return n_steps


def check_start(grid: Grid, v0: np.ndarray, k: ChannelKinetics, p0=None) -> None:
    """Reject a start the integrators cannot take: an interior voltage that
    is not ``grid.n_interior`` values, or proportions ``p0``, when given,
    that are not finite (n_states, n_nodes) columns on the simplex."""
    if np.shape(v0) != (grid.n_interior,):
        raise ValueError(
            f"expected {grid.n_interior} interior values, got shape {np.shape(v0)}")
    if p0 is None:
        return
    n_nodes = grid.cells + 1
    if p0.shape != (k.n_states, n_nodes):
        raise ValueError(f"proportions shape {p0.shape} != ({k.n_states}, {n_nodes})")
    if not all_finite(p0):
        # a NaN fails every comparison below, so it would pass them
        raise ValueError("proportions must be finite at t=0.0")
    sum_err = np.max(np.abs(p0.sum(axis=0) - 1.0))
    if sum_err > PROP_SUM_TOL:
        raise InvariantViolation(f"proportions sum off by {sum_err:.3e} at t=0.0")
    if p0.min() < -PROP_RANGE_TOL or p0.max() > 1.0 + PROP_RANGE_TOL:
        raise InvariantViolation(f"proportions outside [0,1]: min={p0.min():.3e}, "
                                 f"max={p0.max():.3e} at t=0.0")


def _step_operators(grid: Grid, k: ChannelKinetics) -> tuple:
    """What a Strang step reuses: the Crank-Nicolson workspace of the
    stiffness and mass bands, a buffer of stacked reaction bands, the source
    weights c_xi v_xi and a nodal voltage buffer whose endpoints stay zero."""
    return (CrankNicolson(stiffness_bands(grid), mass_bands(grid)),
            np.zeros((2, grid.n_interior)), k.conductance * k.driving,
            np.zeros(grid.cells + 1))


def _strang_step(p: np.ndarray, v: np.ndarray, gen: np.ndarray, t: float, dt: float,
                 k: ChannelKinetics, grid: Grid, ops: tuple):
    """One Strang step from time t on plain arrays.

    ``p`` holds the proportions, ``v`` the interior voltage, ``gen`` the
    generator at ``v`` and ``ops`` the :func:`_step_operators` of the grid.
    Returns the proportions and voltage at t + dt and the generator there.
    """
    cn, reaction, cv, v_full = ops
    p_mid = _clip_proportions(_rk4_prop(p, gen, 0.5 * dt), t)

    a = k.conductance @ p_mid
    b = cv @ p_mid
    if not (all_finite(a) and all_finite(b)):
        raise ValueError("nodal field values must be finite")
    reaction[0], reaction[1, :-1] = _weighted_mass_bands(a, grid.h)
    v_new = np.empty_like(v)
    cn.step(reaction, dt, density_loads(grid, b), v, v_new)

    v_full[1:-1] = v_new
    gen_new = _generator(k, v_full)
    p_new = _clip_proportions(_rk4_prop(p_mid, gen_new, 0.5 * dt), t + dt)
    return p_new, v_new, gen_new


def _budget_constants(k: ChannelKinetics) -> tuple[float, float]:
    """(max conductance, max |driving potential|) of the budget."""
    return float(np.max(k.conductance)), float(np.max(np.abs(k.driving)))


def dissipation_budget(s0_l2: float, sup_inf, t, k: ChannelKinetics, half_length: float):
    """Explicit cap on the accumulated gradient dissipation up to time(s) t;
    ``sup_inf`` and ``t`` may be equal-length arrays."""
    cmax, vmax = _budget_constants(k)
    return s0_l2**2 + half_length * t * cmax * sup_inf * (sup_inf + vmax)


# Snapshots per block of the dissipation ledger (run_det, run_stoch) and of
# the summary norms (write_summary_csv): enough to amortize their numpy
# calls, few enough that the block arrays stay small next to the snapshots.
_LEDGER_BLOCK = 64


class DissipationLedger:
    """Running trapezoid integral of ||Dv||_L2^2, checked against its budget.

    ``values[m]`` is the dissipation accumulated up to step m and ``sup_inf``
    the running sup of |v| the budget depends on.  :meth:`record` accounts
    for a block of steps at once and raises :class:`InvariantViolation` at
    the first step whose integral exceeds :func:`dissipation_budget`.
    """

    def __init__(self, grid: Grid, v0: np.ndarray, k: ChannelKinetics, n_steps: int):
        l2sq, self._grad_sq = squared_norms(grid, v0)
        self.s0 = float(np.sqrt(l2sq))
        self.sup_inf = float(np.max(np.abs(v0)))
        self.values = np.zeros(n_steps + 1)
        self.grid = grid
        self.k = k
        self._done = 0

    def record(self, stop: int, times: np.ndarray, dt: float, v: np.ndarray) -> None:
        """Account for every step after the last one recorded, up to ``stop``.

        ``times`` and ``v`` are the run's sample times and interior voltage
        snapshots; only their rows up to ``stop`` are read.  The sums run in
        step order, so each value is bit-identical to a step-by-step ledger's.
        """
        start = self._done + 1
        if stop < start:
            return
        block = v[start:stop + 1]
        g = gradient_sq(self.grid, block)
        # fmax, like the builtin max, passes over a NaN row's maximum
        sup = np.fmax.accumulate(
            np.concatenate(([self.sup_inf], np.max(np.abs(block), axis=1))))[1:]
        prev = np.concatenate(([self._grad_sq], g[:-1]))
        steps = np.concatenate(([self.values[start - 1]], 0.5 * dt * (prev + g)))
        self.values[start:stop + 1] = np.cumsum(steps)[1:]
        self.sup_inf, self._grad_sq, self._done = float(sup[-1]), float(g[-1]), stop
        t = times[start:stop + 1]
        budget = dissipation_budget(self.s0, sup, t, self.k, self.grid.half_length)
        over = np.flatnonzero(self.values[start:stop + 1] > budget)
        if over.size:
            m = start + int(over[0])
            raise InvariantViolation(
                f"dissipation {self.values[m]:.6f} exceeds budget "
                f"{budget[over[0]]:.6f} at t={float(times[m])}"
            )


def _first_guard_failure(p: np.ndarray, v: np.ndarray, times: np.ndarray,
                         v_lo: float, v_hi: float):
    """The simplex-total and voltage-band checks of a block of steps.

    ``p``, ``v`` and ``times`` hold the block's proportion and interior
    voltage snapshots and times.  Returns each step's proportion-total error
    and the first failing step's (row, :class:`InvariantViolation`), or
    None; within a step the total is checked before the band.  The errors
    and comparisons are those of one step at a time, so a NaN, which fails
    no comparison, passes both checks as it would there.
    """
    sum_err = np.max(np.abs(p.sum(axis=1) - 1.0), axis=1)
    vmin = np.minimum(v.min(axis=1), 0.0)
    vmax = np.maximum(v.max(axis=1), 0.0)
    bad = np.flatnonzero((sum_err > PROP_SUM_TOL) | (vmin < v_lo - VOLTAGE_TOL)
                         | (vmax > v_hi + VOLTAGE_TOL))
    if not bad.size:
        return sum_err, None
    m = int(bad[0])
    t = float(times[m])
    if sum_err[m] > PROP_SUM_TOL:
        return sum_err, (m, InvariantViolation(
            f"proportion total off by {float(sum_err[m]):.3e} at t={t}"))
    lo, hi = min(float(v[m].min()), 0.0), max(float(v[m].max()), 0.0)
    return sum_err, (m, InvariantViolation(
        f"voltage [{lo:.6f}, {hi:.6f}] escaped [{v_lo}, {v_hi}] at t={t}"))


def run_det(grid: Grid, v0: np.ndarray, p0: np.ndarray, t_horizon: float, dt: float,
            k: ChannelKinetics) -> DetTrajectory:
    """Integrate the fluid model from the interior voltage ``v0`` and the
    (n_states, n_nodes) proportions ``p0`` at t = 0 to the horizon, sampling
    every step.

    Aborts with :class:`InvariantViolation` if the proportion simplex, the
    voltage bounds, or the dissipation budget is violated beyond tolerance.
    The simplex total, the voltage band and the budget are checked a block
    of steps at a time, from the snapshots, in step order; an error inside
    a block first checks the steps before it, so whichever check fails
    first raises, at the step where a check after every step would.
    """
    n_steps = step_count(t_horizon, dt)
    check_start(grid, v0, k, p0)
    if n_steps:
        step_guard(dt, k, limit=0.5)

    # the driving band straddles zero, so the endpoint zeros change no bound
    v_lo = min(k.v_minus, float(v0.min()))
    v_hi = max(k.v_plus, float(v0.max()))

    times = np.empty(n_steps + 1)
    v_snaps = np.empty((n_steps + 1, grid.n_interior))
    p_snaps = np.empty((n_steps + 1, k.n_states, grid.cells + 1))
    ledger = DissipationLedger(grid, v0, k, n_steps)

    ops = _step_operators(grid, k)
    times[0] = t = 0.0
    v_snaps[0] = v0
    p_snaps[0] = p = p0
    v = v_snaps[0]  # v0 as floats, whatever its dtype
    gen = _generator(k, np.pad(v, 1))
    max_sum_err = float(np.max(np.abs(p.sum(axis=0) - 1.0)))
    checked = 0  # the last step every check has passed

    def check(stop: int) -> None:
        """Check the steps after ``checked`` up to ``stop``; a guard failure
        at step m records the budget to m - 1 first."""
        nonlocal checked, max_sum_err
        if stop <= checked:
            return
        rows = slice(checked + 1, stop + 1)
        sum_err, failure = _first_guard_failure(p_snaps[rows], v_snaps[rows],
                                                times[rows], v_lo, v_hi)
        if failure is not None:
            m, exc = failure
            ledger.record(checked + m, times, dt, v_snaps)
            raise exc
        ledger.record(stop, times, dt, v_snaps)
        # the builtin max of a step-order fold: fmax passes over NaN rows
        max_sum_err = max(max_sum_err, float(np.fmax.reduce(sum_err)))
        checked = stop

    for step in range(1, n_steps + 1):
        try:
            p, v, gen = _strang_step(p, v, gen, t, dt, k, grid, ops)
            t = t + dt
            times[step] = t
            v_snaps[step] = v
            p_snaps[step] = p
        except Exception:
            # a failure at an earlier step is the one to report
            check(step - 1)
            raise
        if step % _LEDGER_BLOCK == 0 or step == n_steps:
            check(step)

    return DetTrajectory(
        grid=grid,
        state_names=k.states,
        times=times,
        v=v_snaps,
        p=p_snaps,
        dissipation=ledger.values,
        sup_v_inf=ledger.sup_inf,
        max_prop_sum_error=max_sum_err,
    )


def write_trajectory_csv(traj: DetTrajectory, path, stride: int = 1, beside=()) -> None:
    """Long-format nodal snapshots: (t, node index, x, v, p_<state>...); then
    the whole-file writes ``beside``, through the same pool
    (:func:`~axonsim.csvtext.write_snapshot_csv`)."""
    write_snapshot_csv(path, ["v"] + [f"p_{s}" for s in traj.state_names],
                       traj.grid.nodes, traj.times, traj.v, stride, traj.p, beside)


def write_summary_csv(traj: DetTrajectory, path, stride: int = 1) -> None:
    """Per-time norms: (t, l2, h10, dissipation), one norm call per block of rows."""
    span = _LEDGER_BLOCK * stride

    def blocks():
        for start in range(0, traj.n_times, span):
            rows = slice(start, start + span, stride)
            l2sq, dsq = squared_norms(traj.grid, traj.v[rows])
            yield csv_lines(map(repr, traj.times[rows].tolist()),
                            map(repr, np.sqrt(l2sq).tolist()),
                            map(repr, np.sqrt(l2sq + dsq).tolist()),
                            map(repr, traj.dissipation[rows].tolist()))

    write_csv(path, ["t", "l2", "h10", "dissipation"], blocks())
