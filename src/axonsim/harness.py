"""Convergence-study harness: paired fluid/particle runs over a sweep of N.

One deterministic reference run per sweep; for every channel scale N and
replicate, a seeded particle run and its deviation metrics (voltage
distance in L2 and the full Sobolev norm, per-state empirical-distribution
distance and martingale size in the dual norm).  Results land in a
replicate-sorted CSV plus a JSON manifest; identical (config, seed) pairs
reproduce every byte except the wall-clock column.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .csvtext import csv_lines, quote, write_csv
from .decomposition import scan_path
from .deterministic import (_LEDGER_BLOCK, DeterministicState, DetTrajectory, run_det,
                            step_count)
from .fanout import parallel_map
from .grid import Grid, build_grid, density_loads, hminus1_norms, squared_norms
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
        if self.cells < 3:
            # the particle model's point sources need two interior nodes
            raise ValueError(f"cells must be at least 3, got {self.cells}")
        if not (np.isfinite(self.half_length) and self.half_length > 0
                and np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("half_length and dt must be positive and finite")
        step_count(self.time_horizon, self.dt)
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


def run_reference(cfg: RunConfig) -> DetTrajectory:
    """The fluid-model reference run at the sweep resolution."""
    grid, kin, v0, p0 = cfg.build()
    init = DeterministicState(t=0.0, v=v0, p=np.stack([f.values for f in p0]))
    return run_det(init, cfg.time_horizon, cfg.dt, kin)


def run_replicate(cfg: RunConfig, n_scale: int, replicate: int) -> StochTrajectory:
    """One seeded particle run for the (N, replicate) work item."""
    grid, kin, v0, p0 = cfg.build()
    seq = replicate_seed_sequence(cfg.seed, n_scale, replicate)
    rng = make_rng(seq)
    channels = init_channels(n_scale, p0, cfg.init_mode, rng)
    init = StochasticState(t=0.0, v=v0, channels=channels)
    return run_stoch(init, cfg.time_horizon, cfg.dt, kin, rng)


def _sup_voltage_deviation(v_stoch: np.ndarray, v_det: np.ndarray,
                           grid: Grid) -> tuple[float, float]:
    """Sup over sample times of the L2 and full Sobolev voltage distances.

    The norms go a block of rows at a time, as in ``write_summary_csv``, so no
    full-length difference is held; each row's sums are the same in any block.
    """
    peaks = []
    for start in range(0, v_stoch.shape[0], _LEDGER_BLOCK):
        rows = slice(start, start + _LEDGER_BLOCK)
        l2sq, dsq = squared_norms(grid, v_stoch[rows] - v_det[rows])
        peaks.append((l2sq.max(), (l2sq + dsq).max()))
    l2sq_max, h1sq_max = np.max(peaks, axis=0)
    return float(np.sqrt(l2sq_max)), float(np.sqrt(h1sq_max))


def deviation_metrics(stoch: StochTrajectory, det: DetTrajectory,
                      grid: Grid, kin: ChannelKinetics) -> DeviationMetrics:
    """All sup-over-time deviation metrics for one paired run.

    The replay streams its load series one Riesz chunk of sample times at a
    time; each chunk's dual norms are reduced to their maxima, and the max of
    the chunk maxima is the sup over time.
    """
    if stoch.n_times != det.n_times or not np.allclose(stoch.times, det.times):
        raise ValueError("trajectories do not share the sample time grid")
    sup_l2, sup_h10 = _sup_voltage_deviation(stoch.v, det.v, grid)
    peaks = []  # per chunk and state: the max C - mu.p and M dual norms

    def take(start, loads):
        cmp_loads, m_loads = loads["c"], loads["m"]
        cmp_loads -= density_loads(stoch.grid, det.p[start:start + cmp_loads.shape[0]])
        peaks.append([(hminus1_norms(grid, cmp_loads[:, s]).max(),
                       hminus1_norms(grid, m_loads[:, s]).max())
                      for s in range(kin.n_states)])

    scan_path(stoch, kin, want_series=("c", "m"), consumer=take)
    sup = np.max(peaks, axis=0)
    sup_hm1 = {name: float(sup[s, 0]) for s, name in enumerate(kin.states)}
    sup_mart = {name: float(sup[s, 1]) for s, name in enumerate(kin.states)}
    return DeviationMetrics(sup_l2=sup_l2, sup_h10=sup_h10, sup_hm1=sup_hm1,
                            sup_mart_hm1=sup_mart)


def _run_one(cfg: RunConfig, det: DetTrajectory, traj_dir,
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
        traj = run_replicate(cfg, n_scale, replicate)
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
    except Exception as exc:  # one replicate's failure must not stop the sweep
        row["status"] = f"failed:{type(exc).__name__}:{exc}"
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

    A replicate that raises any ``Exception`` (an
    :class:`InvariantViolation` or any other error) is flagged in its own
    row as ``failed:<TypeName>:<message>``, with its N, replicate and seed
    and NaN metric cells, and the sweep goes on.  A crashed worker process
    still stops the sweep (see :func:`parallel_map`).  Row order is
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
        run_one = functools.partial(_run_one, cfg, det, traj_dir)
        rows = parallel_map(run_one, tasks, workers)
    _write_results(cfg, kin, rows, out_dir)
    return rows


def _write_results(cfg: RunConfig, kin: ChannelKinetics, rows: list[dict],
                   out_dir) -> None:
    header = results_header(kin)
    write_csv(os.path.join(out_dir, "results.csv"), header, [csv_lines(
        *([quote(_format_cell(row.get(col, ""))) for row in rows] for col in header))])

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
    rows = list(csv.reader(csv_text.strip().split("\n")))
    idx = rows[0].index("wall_ms")
    kept = ([quote(cell) for cell in row[:idx] + row[idx + 1:]] for row in rows)
    return csv_lines(*zip(*kept))
