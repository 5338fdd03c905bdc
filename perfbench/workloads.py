"""The benchmark's four workloads.

Each call of a workload's ``run`` performs one timed *operation* on inputs
made from the seed alone, so every operation of a run repeats the same work
and must produce the same bytes.  ``collect`` reads an operation's outputs
into a record (see ``contract.py``) and ``check`` applies the science
contract to it.  All workloads are serial: one process, ``workers=1``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from axonsim import cli, decomposition, harness, profiles
from axonsim.harness import RunConfig

import contract
from contract import SHARED, finite_problems, jump_log_problems, lattice_channels

JUMP_KEYS = ("jump_times", "jump_channel", "jump_src", "jump_dst", "channels",
             "initial_states")
# weights of the per-snapshot sums that stand in for the two nodal CSVs,
# which are too large to keep as reference values
_PROJECTION_SEED = 20240917


@dataclass
class Op:
    """One timed operation and what the checks need from it.

    ``wall_s`` is the time to solution; ``busy_s`` adds any other program
    call the operation timed, such as the sweeps' standalone reference run.
    """

    wall_s: float
    items: list[str]
    samples: dict[str, list[float]]
    digest: str = ""
    kept: dict = field(default_factory=dict)
    busy_s: float | None = None
    error: str | None = None        # why the operation raised, if it did
    trace: dict | None = None       # span totals of a traced operation
    scale: float = 1.0              # host-speed scale for its timings


def _hash_file(h, path) -> None:
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)


def _hash_arrays(h, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())


def _n_times(cfg: RunConfig) -> int:
    return int(round(cfg.time_horizon / cfg.dt)) + 1


def _jump_problems(values: dict, n_scale: int, cfg: RunConfig, n_states: int) -> list:
    return jump_log_problems(
        values["jump_times"], values["jump_channel"], values["jump_src"],
        values["jump_dst"], int(values["channels"]),
        lattice_channels(n_scale, cfg.half_length), n_states, cfg.time_horizon,
        values["initial_states"])


class Workload:
    name = ""
    trace_only_keys: frozenset = frozenset()

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def build_config(self, seed: int) -> RunConfig:
        return RunConfig.from_dict(self.config(seed))

    def check(self, cfg: RunConfig, record: dict, reference, traced: bool) -> dict:
        problems = self.invariants(cfg, record)
        if reference is not None:
            skip = frozenset() if traced else self.trace_only_keys
            problems = contract.merge(problems, contract.compare(reference, record, skip))
        return problems


# -- convergence sweeps -------------------------------------------------------

class Sweep(Workload):
    """``harness.run_sweep`` on the default scenario, plus one reference run.

    An operation times one standalone ``harness.run_reference`` (for
    ``reference_s``) and then one whole sweep, which runs its own reference,
    every replicate, and writes ``results.csv`` and ``manifest.json``.
    """

    trace_only_keys = frozenset(JUMP_KEYS)

    def __init__(self, name: str, sweep_n, replicates: int):
        self.name = name
        self.sweep_n = list(sweep_n)
        self.replicates = replicates

    def config(self, seed: int) -> dict:
        return {"sweep_n": self.sweep_n, "replicates": self.replicates, "seed": seed}

    def items(self, cfg: RunConfig) -> list[str]:
        return [f"N{n}/r{r}" for n in cfg.sweep_n for r in range(cfg.replicates)] + [
            "reference"]

    def run(self, cfg: RunConfig, seed: int, out_dir) -> Op:
        t0 = perf_counter()
        ref = harness.run_reference(cfg)
        t1 = perf_counter()
        harness.run_sweep(cfg, out_dir, workers=1)
        t2 = perf_counter()
        header, rows = _read_csv(os.path.join(out_dir, "results.csv"))
        wall_col = header.index("wall_ms")
        op = Op(wall_s=t2 - t1, busy_s=t2 - t0, items=self.items(cfg), samples={
            "reference_s": [t1 - t0],
            "replicate_ms": [float(row[wall_col]) for row in rows],
        })
        # copies, so that a kept operation does not hold the whole trajectory
        op.kept["reference"] = {
            "n_times": ref.times.size,
            "dissipation": ref.dissipation.copy(),
            "v_final": ref.v[-1].copy(),
            "p_final": ref.p[-1].copy(),
        }
        h = hashlib.sha256()
        _hash_arrays(h, ref.times, ref.v, ref.p, ref.dissipation)
        for row in [header] + rows:
            h.update(",".join(row[:wall_col] + row[wall_col + 1:]).encode() + b"\n")
        h.update(json.dumps(_sweep_manifest(out_dir), sort_keys=True).encode())
        op.digest = h.hexdigest()
        return op

    def collect(self, cfg: RunConfig, op: Op, out_dir, captured) -> tuple[dict, dict]:
        problems: dict[str, list[str]] = {}
        header, rows = _read_csv(os.path.join(out_dir, "results.csv"))
        shared = {"header": ",".join(header)}
        record: dict = {SHARED: shared, "reference": dict(op.kept["reference"])}
        for row in rows:
            values = dict(zip(header, row))
            item = f"N{values.get('N')}/r{values.get('replicate')}"
            if item in record:
                problems.setdefault(SHARED, []).append(f"duplicate row {item}")
            entry = {"seed": _as_int(values.get("seed")), "status": values.get("status", "")}
            for col in header:
                if col.startswith(("dev_", "mart_")):
                    entry[col] = _as_float(values.get(col))
            record[item] = entry
        manifest = _sweep_manifest(out_dir)
        shared["manifest.sweep_n"] = np.asarray(manifest["sweep_n"] or [], dtype=np.int64)
        shared["manifest.replicates"] = _as_int(manifest["replicates"])
        shared["manifest.seed"] = _as_int(manifest["seed"])
        for n, medians in (manifest["per_n_medians"] or {}).items():
            for col, value in medians.items():
                shared[f"manifest.{n}.{col}"] = _as_float(value)
        replicate_items = self.items(cfg)[:-1]
        if len(captured) == len(replicate_items):
            for item, log in zip(replicate_items, captured):
                if item in record:
                    record[item].update({key: log[key] for key in JUMP_KEYS})
        return record, problems

    def invariants(self, cfg: RunConfig, record: dict) -> dict:
        _, kin, _, _ = cfg.build()
        problems: dict[str, list[str]] = {}
        metric_cols = (["dev_l2", "dev_h10"] + [f"dev_hm1_{s}" for s in kin.states]
                       + [f"mart_hm1_{s}" for s in kin.states])
        for n in cfg.sweep_n:
            for r in range(cfg.replicates):
                item = f"N{n}/r{r}"
                values = record.get(item)
                if values is None:
                    problems.setdefault(item, []).append("row missing")
                    continue
                found = [] if values["status"] == "ok" else [f"status {values['status']}"]
                for col in metric_cols:
                    if col not in values:
                        found.append(f"{col}: missing")
                    else:
                        found += finite_problems(col, values[col], nonnegative=True)
                if "jump_times" in values:
                    found += _jump_problems(values, n, cfg, kin.n_states)
                if found:
                    problems[item] = found
        shared = record[SHARED]
        found = []
        for n in cfg.sweep_n:
            for col in metric_cols:
                key = f"manifest.{n}.{col}"
                found += [f"{key}: missing"] if key not in shared else finite_problems(
                    key, shared[key])
        ref = record["reference"]
        if ref["n_times"] != _n_times(cfg):
            found.append(f"reference has {ref['n_times']} samples")
        found += finite_problems("reference dissipation", ref["dissipation"], True)
        if np.any(np.diff(ref["dissipation"]) < 0):
            found.append("reference dissipation decreases")
        found += finite_problems("reference final voltage", ref["v_final"])
        found += finite_problems("reference final proportions", ref["p_final"], True)
        if found:
            problems.setdefault("reference", []).extend(found)
        return problems


# -- Monte Carlo check of the martingale decomposition -------------------------

class Martingale(Workload):
    """The criterion-5 Monte Carlo batch, through public calls only.

    Mirrors ``validate._martingale_batch`` and the statistics of
    ``validate.martingale_suite``, which takes no seed: per replicate
    ``harness.run_replicate`` and ``decomposition.scan_path`` without
    series, then the martingale mean, variance identity and variance cap.
    """

    name = "martingale_mc"
    n_scale = 100
    replicates = 32

    def config(self, seed: int) -> dict:
        return {"time_horizon": 1.0, "dt": 5e-3, "seed": seed}

    def items(self, cfg: RunConfig) -> list[str]:
        return [f"r{r}" for r in range(self.replicates)]

    def run(self, cfg: RunConfig, seed: int, out_dir) -> Op:
        t0 = perf_counter()
        grid, kin, _, _ = cfg.build()
        phi = profiles.fundamental_mode(grid)
        values = np.zeros((self.replicates, 2, kin.n_states))
        logs = []
        replicate_ms = []
        for r in range(self.replicates):
            started = perf_counter()
            traj = harness.run_replicate(cfg, self.n_scale, r)
            diag = decomposition.scan_path(traj, kin, want_series=False)
            phi_chan = decomposition.interpolate_at_channels(phi, traj.positions)
            for s in range(kin.n_states):
                m = (diag.jumps_net_final[s]
                     - (diag.comp_final[s] - diag.exit_occupation_final[s])) / traj.n_scale
                values[r, 0, s] = float(m @ phi_chan)
                values[r, 1, s] = float(
                    np.sum(phi_chan**2 * (diag.comp_final[s]
                                          + diag.exit_occupation_final[s]))
                    / traj.n_scale**2)
            replicate_ms.append((perf_counter() - started) * 1e3)
            logs.append({"jump_times": traj.jump_times, "jump_channel": traj.jump_channel,
                         "jump_src": traj.jump_src, "jump_dst": traj.jump_dst,
                         "channels": int(traj.positions.size),
                         "initial_states": traj.initial_states})
        cap = decomposition.martingale_variance_bound(
            phi, cfg.time_horizon, self.n_scale, grid.half_length, kin)
        stats = _martingale_stats(values, cap)
        wall = perf_counter() - t0
        op = Op(wall_s=wall, items=self.items(cfg), samples={"replicate_ms": replicate_ms})
        op.kept = {"logs": logs, "values": values, "stats": stats}
        h = hashlib.sha256()
        for log in logs:
            _hash_arrays(h, *(np.asarray(log[key]) for key in JUMP_KEYS))
        _hash_arrays(h, values, *stats.values())
        op.digest = h.hexdigest()
        return op

    def collect(self, cfg: RunConfig, op: Op, out_dir, captured) -> tuple[dict, dict]:
        record: dict = {SHARED: dict(op.kept["stats"])}
        for r, log in enumerate(op.kept["logs"]):
            record[f"r{r}"] = dict(log, value=op.kept["values"][r, 0],
                                   predicted=op.kept["values"][r, 1])
        return record, {}

    def invariants(self, cfg: RunConfig, record: dict) -> dict:
        _, kin, _, _ = cfg.build()
        problems: dict[str, list[str]] = {}
        for item in self.items(cfg):
            values = record.get(item)
            if values is None:
                problems[item] = ["replicate missing"]
                continue
            found = _jump_problems(values, self.n_scale, cfg, kin.n_states)
            found += finite_problems("value", values["value"])
            found += finite_problems("predicted", values["predicted"], nonnegative=True)
            if found:
                problems[item] = found
        stats = record[SHARED]
        found = []
        for key, value in stats.items():
            found += finite_problems(key, value)
        found += finite_problems("empirical variance", stats["stats.empirical_variance"], True)
        if not stats["stats.variance_cap"] > 0:
            found.append("variance cap not positive")
        if found:
            problems[SHARED] = found
        return problems


def _martingale_stats(values: np.ndarray, cap: float) -> dict:
    vals, preds = values[:, 0, :], values[:, 1, :]
    n = vals.shape[0]
    return {
        "stats.mean": vals.mean(axis=0),
        "stats.se_mean": vals.std(axis=0, ddof=1) / np.sqrt(n),
        "stats.empirical_variance": vals.var(axis=0, ddof=1),
        "stats.predicted_variance": preds.mean(axis=0),
        "stats.second_moment": (vals**2).mean(axis=0),
        "stats.variance_cap": np.float64(cap),
    }


# -- CLI runs with nodal CSV export --------------------------------------------

DET_FILES = ("det_trajectory.csv", "det_summary.csv")
STOCH_FILES = ("stoch_voltage.csv", "stoch_jumps.csv", "stoch_manifest.json",
               "stoch_mart_norms.csv")


class CliExport(Workload):
    """``axonsim det`` then ``axonsim stoch --n 200 --diagnostics``.

    The CLI's one particle replicate is the ``stoch`` command, so that
    command's time is this workload's replicate latency.
    """

    name = "cli_export"
    n_scale = 200

    def config(self, seed: int) -> dict:
        return {"seed": seed}

    def items(self, cfg: RunConfig) -> list[str]:
        return ["det", "stoch"]

    def run(self, cfg: RunConfig, seed: int, out_dir) -> Op:
        out = str(out_dir)
        det_argv = ["det", "--seed", str(seed), "--out", out]
        stoch_argv = ["stoch", "--seed", str(seed), "--n", str(self.n_scale),
                      "--diagnostics", "--out", out]
        with redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            det_rc = cli.main(det_argv)
            t1 = perf_counter()
            stoch_rc = cli.main(stoch_argv)
            t2 = perf_counter()
        op = Op(wall_s=t2 - t0, items=self.items(cfg), samples={
            "det_cmd_s": [t1 - t0],
            "stoch_cmd_s": [t2 - t1],
            "replicate_ms": [(t2 - t1) * 1e3],
        })
        op.kept["rc"] = {"det": det_rc, "stoch": stoch_rc}
        h = hashlib.sha256()
        for name in DET_FILES + STOCH_FILES:
            path = os.path.join(out, name)
            if name == "stoch_manifest.json":
                h.update(json.dumps(_stoch_manifest(path), sort_keys=True).encode())
            else:
                _hash_file(h, path)
        op.digest = h.hexdigest()
        return op

    def collect(self, cfg: RunConfig, op: Op, out_dir, captured) -> tuple[dict, dict]:
        problems: dict[str, list[str]] = {}
        n_nodes = cfg.cells + 1
        det = {"rc": _as_int(op.kept["rc"]["det"])}
        stoch = {"rc": _as_int(op.kept["rc"]["stoch"])}
        for item, values, name, prefix in (
            ("det", det, "det_trajectory.csv", "trajectory"),
            ("stoch", stoch, "stoch_voltage.csv", "voltage"),
        ):
            try:
                values.update(_nodal_record(os.path.join(out_dir, name), prefix, n_nodes))
            except ValueError as exc:
                problems.setdefault(item, []).append(f"{name}: {exc}")
        for item, values, name, prefix in (
            ("det", det, "det_summary.csv", "summary"),
            ("stoch", stoch, "stoch_mart_norms.csv", "mart"),
        ):
            try:
                values.update(_table_record(os.path.join(out_dir, name), prefix))
            except ValueError as exc:
                problems.setdefault(item, []).append(f"{name}: {exc}")
        header, rows = _read_csv(os.path.join(out_dir, "stoch_jumps.csv"))
        stoch["jumps.header"] = ",".join(header)
        stoch["jumps.t"] = np.array([_as_float(row[0]) for row in rows], dtype=float)
        stoch["jumps.channel"] = np.array([_as_int(row[1]) for row in rows], dtype=np.int64)
        stoch["jumps.from"] = np.array([row[2] for row in rows], dtype=str)
        stoch["jumps.to"] = np.array([row[3] for row in rows], dtype=str)
        manifest = _stoch_manifest(os.path.join(out_dir, "stoch_manifest.json"))
        for key in ("channels", "jumps", "n_scale"):
            stoch[f"manifest.{key}"] = _as_int(manifest.get(key))
        stoch["manifest.sup_v_inf"] = _as_float(manifest.get("sup_v_inf"))
        return {"det": det, "stoch": stoch}, problems

    def invariants(self, cfg: RunConfig, record: dict) -> dict:
        _, kin, _, _ = cfg.build()
        n_times, n_nodes = _n_times(cfg), cfg.cells + 1
        problems: dict[str, list[str]] = {}
        for item, nodal, table, columns in (
            ("det", "trajectory", "summary", ("l2", "h10", "dissipation")),
            ("stoch", "voltage", "mart", tuple(f"mart_hm1_{s}" for s in kin.states)),
        ):
            values = record[item]
            found = [] if values["rc"] == 0 else [f"exit code {values['rc']}"]
            if values.get(f"{nodal}.rows") != n_times * n_nodes:
                found.append(f"{nodal}: {values.get(f'{nodal}.rows')} rows, "
                             f"expected {n_times * n_nodes}")
            for flag in ("node_pattern", "t_constant", "x_repeats", "finite"):
                if not values.get(f"{nodal}.{flag}", False):
                    found.append(f"{nodal}: {flag} fails")
            found += _time_problems(f"{nodal}.t", values.get(f"{nodal}.t"), n_times,
                                    cfg.time_horizon)
            found += _time_problems(f"{table}.t", values.get(f"{table}.t"), n_times,
                                    cfg.time_horizon)
            for col in columns:
                key = f"{table}.{col}"
                found += ([f"{key}: missing"] if key not in values
                          else finite_problems(key, values[key], nonnegative=True))
            problems[item] = found
        stoch = record["stoch"]
        index = {name: i for i, name in enumerate(kin.states)}
        src = np.array([index.get(s, -1) for s in stoch["jumps.from"]], dtype=np.int64)
        dst = np.array([index.get(s, -1) for s in stoch["jumps.to"]], dtype=np.int64)
        problems["stoch"] += jump_log_problems(
            stoch["jumps.t"], stoch["jumps.channel"], src, dst, stoch["manifest.channels"],
            lattice_channels(self.n_scale, cfg.half_length), kin.n_states,
            cfg.time_horizon)
        if stoch["manifest.jumps"] != stoch["jumps.t"].size:
            problems["stoch"].append("manifest jump count differs from the jump log")
        return {item: found for item, found in problems.items() if found}


def _time_problems(name: str, times, n_times: int, horizon: float) -> list[str]:
    if times is None:
        return [f"{name}: missing"]
    times = np.asarray(times, dtype=float)
    if times.size != n_times:
        return [f"{name}: {times.size} sample times, expected {n_times}"]
    if not np.all(np.isfinite(times)) or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        return [f"{name}: sample times not increasing from 0"]
    if abs(times[-1] - horizon) > 1e-9 * horizon:
        return [f"{name}: last sample at {times[-1]}, horizon {horizon}"]
    return []


def _sweep_manifest(out_dir) -> dict:
    """The manifest's science fields; other fields may carry timings."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    return {key: manifest.get(key) for key in ("sweep_n", "replicates", "seed",
                                               "per_n_medians")}


def _stoch_manifest(path) -> dict:
    """The run manifest's science fields.

    Its ``seed`` field is left out: the program writes repr() of the
    generator object there, which holds a memory address and so differs
    between identical runs.
    """
    with open(path) as fh:
        manifest = json.load(fh)
    return {key: manifest.get(key) for key in ("channels", "jumps", "n_scale",
                                               "sup_v_inf")}


def _nodal_record(path, prefix: str, n_nodes: int) -> dict:
    """A long-format nodal CSV as per-snapshot weighted sums and layout flags."""
    with open(path) as fh:
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    values = {f"{prefix}.header": header, f"{prefix}.rows": data.shape[0],
              f"{prefix}.finite": bool(np.all(np.isfinite(data)))}
    if data.shape[0] % n_nodes or data.shape[1] < 4:
        return values
    blocks = data.reshape(-1, n_nodes, data.shape[1])
    values[f"{prefix}.node_pattern"] = bool(np.all(blocks[:, :, 1] == np.arange(n_nodes)))
    values[f"{prefix}.t_constant"] = bool(np.all(blocks[:, :, 0] == blocks[:, :1, 0]))
    values[f"{prefix}.x_repeats"] = bool(np.all(blocks[:, :, 2] == blocks[:1, :, 2]))
    values[f"{prefix}.t"] = blocks[:, 0, 0].copy()
    values[f"{prefix}.x"] = blocks[0, :, 2].copy()
    weights = 1.0 + np.random.default_rng(_PROJECTION_SEED).random(n_nodes)
    for col, name in enumerate(header.split(",")[3:], start=3):
        column = blocks[:, :, col]
        values[f"{prefix}.{name}.proj"] = np.stack(
            [column @ weights, np.abs(column) @ weights], axis=1)
    return values


def _table_record(path, prefix: str) -> dict:
    with open(path) as fh:
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    values = {f"{prefix}.header": header}
    for col, name in enumerate(header.split(",")):
        values[f"{prefix}.{name}"] = data[:, col].copy()
    return values


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _as_int(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        return -1


def _as_float(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return float("nan")


# Why these four: the sweeps put N on both sides of the jump-count
# crossover (fixed per-substep work at N=25/50, per-jump work at N=800),
# the Monte Carlo batch replays without series or Riesz solves (the bypass
# side for those), and the CLI export is the only workload where CSV I/O
# matters.  One replicate per N keeps sweep operations short, so the
# host-speed calibrations around each operation sit close to its replicates.
WORKLOADS = {w.name: w for w in (
    Sweep("sweep_small_n", [25, 50], 1),
    Sweep("sweep_large_n", [800], 1),
    Martingale(),
    CliExport(),
)}
