"""Convergence-study harness: paired fluid/particle runs over a sweep of N.

One deterministic reference run per sweep; for every channel scale N and
replicate, a seeded particle run and its deviation metrics (voltage
distance in L2 and the full Sobolev norm, per-state empirical-distribution
distance and martingale size in the dual norm).  Results land in a
replicate-sorted CSV plus a JSON manifest; identical (config, seed) pairs
reproduce every byte except the wall-clock column.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import hashlib
import io
import json
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .decomposition import deviation_loads
from .deterministic import DeterministicState, DetTrajectory, run_det
from .errors import InvariantViolation
from .grid import Grid, build_grid, hminus1_norms, squared_norms
from .kinetics import ChannelKinetics, make_kinetics
from .profiles import build_p0, build_v0
from .stochastic import (
    StochasticState,
    StochTrajectory,
    init_channels,
    make_rng,
    replicate_seed_sequence,
    run_stoch,
    seed_id,
)

DEFAULT_CONFIG = {
    "half_length": 1.0,
    "time_horizon": 2.0,
    "cells": 200,
    "dt": 1e-3,
    "kinetics": {
        "states": [
            {"name": "closed", "c": 0.0, "v": -0.2},
            {"name": "open", "c": 1.0, "v": 1.0},
        ],
        "rates": [
            {"from": "closed", "to": "open", "form": "sigmoid",
             "params": {"a": 0.2, "b": 1.8, "k": 4.0, "v0": 0.5}},
            {"from": "open", "to": "closed", "form": "sigmoid",
             "params": {"a": 0.2, "b": 1.8, "k": -4.0, "v0": 0.5}},
        ],
        "clamp": [0.05, 5.0],
    },
    "v0": {"form": "eigenfunction", "params": {"mode": 1, "amplitude": 0.5}},
    "p0": {"form": "uniform", "params": {"weights": {"closed": 0.7, "open": 0.3}}},
    "sweep_n": [25, 50, 100, 200, 400, 800],
    "replicates": 16,
    "seed": 42,
    "init_mode": "stratified",
    "out_dir": "results",
}


@dataclass
class RunConfig:
    """Validated sweep configuration."""

    half_length: float
    time_horizon: float
    cells: int
    dt: float
    kinetics: dict
    v0: dict
    p0: dict
    sweep_n: list[int]
    replicates: int
    seed: int
    init_mode: str = "stratified"
    out_dir: str = "results"
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        merged = {**DEFAULT_CONFIG, **data}
        cfg = cls(
            half_length=float(merged["half_length"]),
            time_horizon=float(merged["time_horizon"]),
            cells=int(merged["cells"]),
            dt=float(merged["dt"]),
            kinetics=merged["kinetics"],
            v0=merged["v0"],
            p0=merged["p0"],
            sweep_n=[int(n) for n in merged["sweep_n"]],
            replicates=int(merged["replicates"]),
            seed=int(merged["seed"]),
            init_mode=str(merged["init_mode"]),
            out_dir=str(merged["out_dir"]),
            raw=merged,
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def validate(self) -> None:
        if self.half_length <= 0 or self.time_horizon < 0 or self.dt <= 0:
            raise ValueError("half_length, time_horizon, dt must be positive")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if any(n < 1 for n in self.sweep_n):
            raise ValueError("channel scales must be positive")
        if sorted(self.sweep_n) != self.sweep_n or len(set(self.sweep_n)) != len(self.sweep_n):
            raise ValueError("sweep_n must be strictly increasing")
        if self.init_mode not in ("stratified", "iid"):
            raise ValueError(f"unknown init mode {self.init_mode!r}")
        grid, kin, v0, _ = self.build()
        v0f = v0.full()
        if v0f.min() < kin.v_minus - 1e-12 or v0f.max() > kin.v_plus + 1e-12:
            raise ValueError(
                f"v0 range [{v0f.min()}, {v0f.max()}] escapes the driving band "
                f"[{kin.v_minus}, {kin.v_plus}]"
            )

    def build(self):
        """Instantiate (grid, kinetics, v0, p0) from the config."""
        grid = build_grid(self.half_length, self.cells)
        kin = make_kinetics(self.kinetics)
        v0 = build_v0(grid, self.v0)
        p0 = build_p0(grid, kin, self.p0)
        return grid, kin, v0, p0

    def refined(self) -> "RunConfig":
        """Doubled spatial resolution, halved time step."""
        data = dict(self.raw)
        data["cells"] = self.cells * 2
        data["dt"] = self.dt / 2.0
        return RunConfig.from_dict(data)

    def canonical_json(self) -> str:
        data = {k: v for k, v in self.raw.items()}
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass
class DeviationMetrics:
    """Per-replicate sup-over-time deviations between the paired runs."""

    sup_l2: float
    sup_h10: float
    sup_hm1: dict[str, float]
    sup_mart_hm1: dict[str, float]
    wall_ms: float = 0.0


def run_reference(cfg: RunConfig) -> DetTrajectory:
    """The fluid-model reference run at the sweep resolution."""
    grid, kin, v0, p0 = cfg.build()
    init = DeterministicState(t=0.0, v=v0, p=np.stack([f.values for f in p0]))
    return run_det(init, cfg.time_horizon, cfg.dt, kin)


def run_replicate(cfg: RunConfig, n_scale: int, replicate: int,
                  store_history: bool = True) -> StochTrajectory:
    """One seeded particle run for the (N, replicate) work item."""
    grid, kin, v0, p0 = cfg.build()
    seq = replicate_seed_sequence(cfg.seed, n_scale, replicate)
    rng = make_rng(seq)
    channels = init_channels(n_scale, p0, cfg.init_mode, rng)
    init = StochasticState(t=0.0, v=v0, channels=channels)
    return run_stoch(init, cfg.time_horizon, cfg.dt, kin, rng,
                     store_history=store_history)


def _sup_voltage_deviation(times_ok: np.ndarray, v_stoch: np.ndarray,
                           v_det: np.ndarray, grid: Grid) -> tuple[float, float]:
    """Sup over sample times of the L2 and full Sobolev voltage distances."""
    l2sq, dsq = squared_norms(grid, v_stoch - v_det)
    return float(np.sqrt(l2sq.max())), float(np.sqrt((l2sq + dsq).max()))


def deviation_metrics(stoch: StochTrajectory, det: DetTrajectory,
                      grid: Grid, kin: ChannelKinetics) -> DeviationMetrics:
    """All sup-over-time deviation metrics for one paired run."""
    if stoch.n_times != det.n_times or not np.allclose(stoch.times, det.times):
        raise ValueError("trajectories do not share the sample time grid")
    t0 = time.perf_counter()
    sup_l2, sup_h10 = _sup_voltage_deviation(stoch.times, stoch.v, det.v, grid)
    cmp_loads, m_loads = deviation_loads(stoch, kin, det.p)[:2]
    sup_hm1 = {}
    sup_mart = {}
    for s, name in enumerate(kin.states):
        sup_hm1[name] = float(hminus1_norms(grid, cmp_loads[:, s]).max())
        sup_mart[name] = float(hminus1_norms(grid, m_loads[:, s]).max())
    wall = (time.perf_counter() - t0) * 1e3
    return DeviationMetrics(sup_l2=sup_l2, sup_h10=sup_h10, sup_hm1=sup_hm1,
                            sup_mart_hm1=sup_mart, wall_ms=wall)


# Set only inside pool worker processes, by the pool's initializer.
_WORKER_FUNC = None


def _init_worker(func) -> None:
    global _WORKER_FUNC
    _WORKER_FUNC = func


def _call_worker_func(task):
    return _WORKER_FUNC(task)


def parallel_map(func, tasks: list, workers: int) -> list:
    """``[func(t) for t in tasks]``, fanned over up to ``workers`` processes.

    ``func`` reaches each worker once, through the pool's initializer, so a
    ``functools.partial`` over large arrays crosses once per worker rather
    than once per task; tasks go one at a time and results keep task order.
    With ``workers <= 1`` or at most one task the map is serial.  It also
    runs serially, with a ``RuntimeWarning``, when the pool cannot be
    created.  An exception raised by a task, or a worker that dies
    (``BrokenProcessPool``), propagates: no task is run twice.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [func(t) for t in tasks]
    try:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(func,))
    except (OSError, NotImplementedError) as exc:
        warnings.warn(f"process pool unavailable ({exc!r}); running "
                      f"{len(tasks)} tasks serially", RuntimeWarning, stacklevel=2)
        return [func(t) for t in tasks]
    with pool:
        return list(pool.map(_call_worker_func, tasks, chunksize=1))


def _run_one(cfg: RunConfig, det_times, det_v, det_p, traj_dir,
             task: tuple[int, int]) -> dict:
    n_scale, replicate = task
    grid, kin, _, _ = cfg.build()
    seed = seed_id(replicate_seed_sequence(cfg.seed, n_scale, replicate))
    started = time.perf_counter()
    row = {
        "N": n_scale,
        "replicate": replicate,
        "seed": seed,
        "status": "ok",
    }
    try:
        traj = run_replicate(cfg, n_scale, replicate, store_history=True)
        det = DetTrajectory(
            grid=grid, state_names=kin.states, times=det_times, v=det_v, p=det_p,
            dissipation=np.zeros(det_times.size), sup_v_inf=0.0,
            max_prop_sum_error=0.0,
        )
        metrics = deviation_metrics(traj, det, grid, kin)
        row["dev_l2"] = metrics.sup_l2
        row["dev_h10"] = metrics.sup_h10
        for name in kin.states:
            row[f"dev_hm1_{name}"] = metrics.sup_hm1[name]
        for name in kin.states:
            row[f"mart_hm1_{name}"] = metrics.sup_mart_hm1[name]
        if traj_dir is not None:
            from .stochastic import write_voltage_csv

            write_voltage_csv(
                traj, os.path.join(traj_dir, f"n{n_scale}_r{replicate}_voltage.csv")
            )
    except InvariantViolation as exc:
        row["status"] = f"failed:{exc}"
        for name in kin.states:
            row.setdefault(f"dev_hm1_{name}", float("nan"))
            row.setdefault(f"mart_hm1_{name}", float("nan"))
        row.setdefault("dev_l2", float("nan"))
        row.setdefault("dev_h10", float("nan"))
    row["wall_ms"] = (time.perf_counter() - started) * 1e3
    return row


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def results_header(kin: ChannelKinetics) -> list[str]:
    return (
        ["N", "replicate", "seed", "dev_l2", "dev_h10"]
        + [f"dev_hm1_{n}" for n in kin.states]
        + [f"mart_hm1_{n}" for n in kin.states]
        + ["wall_ms", "status"]
    )


def run_sweep(cfg: RunConfig, out_dir, workers: int = 1,
              save_trajectories: bool = False) -> list[dict]:
    """Full convergence study; writes results.csv and manifest.json.

    A replicate that raises :class:`InvariantViolation` is flagged in its
    own row and the sweep goes on; any other error stops it.  Row order is
    canonical (sorted by N, then replicate), whatever ``workers`` is.
    """
    os.makedirs(out_dir, exist_ok=True)
    grid, kin, _, _ = cfg.build()
    traj_dir = None
    if save_trajectories:
        traj_dir = os.path.join(out_dir, "trajectories")
        os.makedirs(traj_dir, exist_ok=True)
    rows: list[dict] = []
    if cfg.sweep_n:
        det = run_reference(cfg)
        tasks = [(n, r) for n in cfg.sweep_n for r in range(cfg.replicates)]
        run_one = functools.partial(_run_one, cfg, det.times, det.v, det.p, traj_dir)
        rows = parallel_map(run_one, tasks, workers)
    _write_results(cfg, kin, rows, out_dir)
    return rows


def _write_results(cfg: RunConfig, kin: ChannelKinetics, rows: list[dict],
                   out_dir) -> None:
    header = results_header(kin)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(row.get(col, "")) for col in header])
    with open(os.path.join(out_dir, "results.csv"), "w", newline="") as fh:
        fh.write(buf.getvalue())

    medians: dict[str, dict[str, float]] = {}
    for n in cfg.sweep_n:
        ok = [r for r in rows if r["N"] == n and r["status"] == "ok"]
        if not ok:
            continue
        entry = {}
        for col in header:
            if col.startswith(("dev_", "mart_")):
                entry[col] = float(np.median([r[col] for r in ok]))
        medians[str(n)] = entry
    manifest = {
        "config_digest": cfg.digest(),
        "version": __version__,
        "sweep_n": cfg.sweep_n,
        "replicates": cfg.replicates,
        "seed": cfg.seed,
        "per_n_medians": medians,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_results(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = dict(raw)
            for key, val in raw.items():
                if key in ("N", "replicate", "seed"):
                    row[key] = int(val)
                elif key not in ("status",) and val not in ("", None):
                    row[key] = float(val)
            rows.append(row)
    return rows


def fit_rate(rows: list[dict], metric: str) -> tuple[float, float, float]:
    """Least-squares fit of log(median metric) against log N.

    Returns (slope, intercept, rms residual).  Needs at least three
    distinct channel scales with a successful replicate each.
    """
    by_n: dict[int, list[float]] = {}
    for row in rows:
        if row.get("status", "ok") == "ok" and metric in row:
            by_n.setdefault(int(row["N"]), []).append(float(row[metric]))
    if len(by_n) < 3:
        raise ValueError(f"need at least 3 distinct N, got {len(by_n)}")
    ns = np.array(sorted(by_n))
    med = np.array([np.median(by_n[n]) for n in ns])
    if np.any(med <= 0):
        raise ValueError("medians must be positive for a log-log fit")
    x = np.log(ns.astype(float))
    y = np.log(med)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


def strip_wall_clock(csv_text: str) -> str:
    """Results CSV with the wall-clock column removed (reproducible body)."""
    lines = csv_text.strip().split("\n")
    reader = csv.reader(lines)
    rows = list(reader)
    idx = rows[0].index("wall_ms")
    out = io.StringIO()
    writer = csv.writer(out)
    for row in rows:
        writer.writerow(row[:idx] + row[idx + 1:])
    return out.getvalue()
