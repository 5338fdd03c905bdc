import concurrent.futures
import copy
import csv
import functools
import hashlib
import io
import json
import math
import multiprocessing
import operator
import os
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from axonsim.errors import InvariantViolation
from axonsim.fanout import default_workers, parallel_map
from axonsim.grid import build_grid
from axonsim.harness import (
    DEFAULT_CONFIG,
    RunConfig,
    _sup_voltage_deviation,
    deviation_metrics,
    fit_rate,
    read_results,
    run_reference,
    run_replicate,
    results_header,
    run_sweep,
    strip_wall_clock,
)
from axonsim.profiles import fundamental_mode
from axonsim.stochastic import replicate_seed_sequence, seed_id
from axonsim.validate import martingale_suite, self_convergence_suite

SMALL = {
    "time_horizon": 0.2,
    "cells": 60,
    "dt": 2e-3,
    "sweep_n": [25, 50],
    "replicates": 2,
    "seed": 7,
}

# Replacements for one top-level config value: every JSON kind, NaN, the
# infinities, and negative and non-integral numbers.  Large positive integers
# are well-formed values of every numeric field, so they are left out: a
# config of 10**12 cells is not malformed, and building it exhausts memory.
CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.booleans(), st.integers(-2, 900), st.floats(),
                       st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(st.none(), st.integers(), st.floats()),
                    max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 2.5]),
    st.integers(max_value=-1),
    st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: x < 0 or not x.is_integer()))

# Replacements for a value at any path of the config tree: every JSON kind,
# NaN, the infinities, the largest magnitudes, and negative and non-integral
# numbers.
NESTED_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(-2, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]),
    st.integers(max_value=-1),
    st.floats(-1e3, 1e3).filter(lambda x: not x.is_integer()))


def config_paths(node, path=()):
    """The path, as keys and list indices, of every value in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [found for key, child in items
            for found in [path + (key,), *config_paths(child, path + (key,))]]


class TestRunConfig:
    def test_defaults_fill_in(self):
        cfg = RunConfig.from_dict({})
        assert cfg.cells == 200 and cfg.sweep_n[-1] == 800

    def test_digest_stable_and_sensitive(self):
        a = RunConfig.from_dict(SMALL)
        b = RunConfig.from_dict(SMALL)
        c = RunConfig.from_dict({**SMALL, "seed": 8})
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_rejects_unsorted_sweep(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({**SMALL, "sweep_n": [50, 25]})

    def test_rejects_voltage_outside_band(self):
        with pytest.raises(ValueError, match="escapes"):
            RunConfig.from_dict({**SMALL, "v0": {
                "form": "eigenfunction", "params": {"mode": 1, "amplitude": 2.0}}})

    @pytest.mark.parametrize("override", [
        {"dt": float("nan")}, {"dt": float("inf")}, {"dt": 0.0},
        {"time_horizon": float("nan")}, {"time_horizon": float("inf")},
        {"time_horizon": -0.2},
        {"half_length": float("nan")}, {"half_length": float("inf")},
        {"time_horizon": 0.0105, "dt": 1e-3},
    ], ids=["dt-nan", "dt-inf", "dt-zero", "horizon-nan", "horizon-inf",
            "horizon-negative", "half-length-nan", "half-length-inf",
            "horizon-not-a-step-multiple"])
    def test_rejects_invalid_numbers(self, override):
        with pytest.raises(ValueError):
            RunConfig.from_dict({**SMALL, **override})

    def test_rejects_negative_seed(self):
        # numpy's seed sequences take only non-negative entropy
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            RunConfig.from_dict({**SMALL, "seed": -1})

    @pytest.mark.parametrize("cells", [2, 3])
    def test_needs_two_interior_nodes(self, cells):
        # one interior node leaves the point sources no off-diagonal
        data = {"cells": cells, "time_horizon": 0.01}
        if cells < 3:
            with pytest.raises(ValueError, match="cells"):
                RunConfig.from_dict(data)
            return
        traj = run_replicate(RunConfig.from_dict(data), 3, 0)
        assert traj.n_times == 11 and np.isfinite(traj.v).all()

    def test_refined_doubles_resolution(self):
        cfg = RunConfig.from_dict(SMALL).refined()
        assert cfg.cells == 120 and cfg.dt == 1e-3

    @given(key=st.sampled_from(sorted(DEFAULT_CONFIG)), value=CONFIG_VALUES)
    def test_any_top_level_value_gives_a_config_or_a_value_error(self, key, value):
        """``cli.main`` maps a ValueError to a usage error; any other
        exception would end the command in a traceback."""
        try:
            cfg = RunConfig.from_dict({key: value})
        except ValueError:
            return
        assert cfg.raw[key] is value

    @given(data=st.data())
    def test_nested_mutations_give_a_config_or_a_value_error(self, data):
        """One to three mutations of the default config, each at a drawn path
        of its tree (a state's field, a rate parameter, a clamp bound, a
        ``v0`` or ``p0`` param, ...): the key is deleted, or its value
        replaced.  No top-level size (``cells``, ``replicates``,
        ``sweep_n``) is drawn: the top-level test above covers their kinds,
        and the CLI cases and the memory-check test their magnitudes."""
        config = copy.deepcopy(DEFAULT_CONFIG)
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from([p for p in config_paths(config) if p[0] not in (
                "cells", "replicates", "sweep_n")]))
            parent = functools.reduce(operator.getitem, path[:-1], config)
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(NESTED_VALUES)
        try:
            RunConfig.from_dict(config)
        except ValueError:
            pass

    def test_memory_check_comes_before_the_mesh(self, monkeypatch):
        """A config whose reference-run snapshots exceed the physical memory
        the platform reports is rejected before the mesh is built; where
        the platform reports none, the check is skipped."""
        def no_mesh(*args):
            raise AssertionError("built")

        def unreported(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        with monkeypatch.context() as patch:
            patch.setattr("axonsim.harness.build_grid", no_mesh)
            patch.setattr(os, "sysconf", lambda name: 64)  # 4 KiB in all
            with pytest.raises(ValueError, match="snapshots need 147864 bytes, more than "
                                                 "the 4096 of physical memory"):
                RunConfig.from_dict(SMALL)
        monkeypatch.setattr(os, "sysconf", unreported)
        assert RunConfig.from_dict(SMALL).cells == 60

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL))
        cfg = RunConfig.from_json(path)
        assert cfg.cells == 60


class TestDeviationMetrics:
    def test_identical_voltages_give_zero(self):
        g = build_grid(1.0, 40)
        v = np.vstack([fundamental_mode(g, amplitude=0.5).values] * 5)
        l2, h10 = _sup_voltage_deviation(v, v, g)
        assert l2 == 0.0 and h10 == 0.0

    def test_constant_offset(self):
        from axonsim.grid import squared_norms

        g = build_grid(1.0, 40)
        base = np.vstack([fundamental_mode(g, amplitude=0.5).values] * 5)
        off = fundamental_mode(g, mode=2, amplitude=0.1)
        shifted = base + off.values
        l2, h10 = _sup_voltage_deviation(shifted, base, g)
        l2sq, dsq = squared_norms(g, off.values)
        assert l2 == pytest.approx(np.sqrt(l2sq), rel=1e-12)
        assert h10 == pytest.approx(np.sqrt(l2sq + dsq), rel=1e-12)

    def test_metrics_monotone_in_time_window(self):
        cfg = RunConfig.from_dict(SMALL)
        grid, kin, _, _ = cfg.build()
        det = run_reference(cfg)
        traj = run_replicate(cfg, 25, 0)
        full = deviation_metrics(traj, det, grid, kin)
        # restrict both trajectories to the first half of the window
        import dataclasses

        half = det.n_times // 2
        det_half = dataclasses.replace(
            det, times=det.times[:half], v=det.v[:half], p=det.p[:half],
            dissipation=det.dissipation[:half])
        traj_half = dataclasses.replace(traj, times=traj.times[:half], v=traj.v[:half])
        part = deviation_metrics(traj_half, det_half, grid, kin)
        assert part.sup_l2 <= full.sup_l2 + 1e-15
        assert part.sup_h10 <= full.sup_h10 + 1e-15
        for name in kin.states:
            assert part.sup_hm1[name] <= full.sup_hm1[name] + 1e-15

    def test_inputs_unchanged_and_repeatable(self):
        cfg = RunConfig.from_dict(SMALL)
        grid, kin, _, _ = cfg.build()
        det = run_reference(cfg)
        traj = run_replicate(cfg, 25, 0)
        det_p, traj_v = det.p.copy(), traj.v.copy()
        first = deviation_metrics(traj, det, grid, kin)
        assert np.array_equal(det.p, det_p)
        assert np.array_equal(traj.v, traj_v)
        second = deviation_metrics(traj, det, grid, kin)
        for field in ("sup_l2", "sup_h10", "sup_hm1", "sup_mart_hm1"):
            assert getattr(second, field) == getattr(first, field)

    def test_time_grid_mismatch_rejected(self):
        cfg = RunConfig.from_dict(SMALL)
        grid, kin, _, _ = cfg.build()
        det = run_reference(RunConfig.from_dict({**SMALL, "time_horizon": 0.1}))
        traj = run_replicate(cfg, 25, 0)
        with pytest.raises(ValueError):
            deviation_metrics(traj, det, grid, kin)


class TestSweep:
    def test_empty_sweep_writes_manifest_only(self, tmp_path):
        cfg = RunConfig.from_dict({**SMALL, "sweep_n": []})
        rows = run_sweep(cfg, tmp_path)
        assert rows == []
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["per_n_medians"] == {}
        body = (tmp_path / "results.csv").read_text()
        assert body.count("\n") == 1  # header only

    def test_byte_identical_bodies(self, tmp_path):
        cfg = RunConfig.from_dict(SMALL)
        run_sweep(cfg, tmp_path / "a")
        run_sweep(cfg, tmp_path / "b")
        a = strip_wall_clock((tmp_path / "a" / "results.csv").read_text())
        b = strip_wall_clock((tmp_path / "b" / "results.csv").read_text())
        assert a == b

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = RunConfig.from_dict(SMALL)
        run_sweep(cfg, tmp_path / "serial", workers=1)
        run_sweep(cfg, tmp_path / "pool", workers=2)
        a = strip_wall_clock((tmp_path / "serial" / "results.csv").read_text())
        b = strip_wall_clock((tmp_path / "pool" / "results.csv").read_text())
        assert a == b

    def test_rows_sorted_and_readable(self, tmp_path):
        cfg = RunConfig.from_dict(SMALL)
        run_sweep(cfg, tmp_path)
        rows = read_results(tmp_path / "results.csv")
        keys = [(r["N"], r["replicate"]) for r in rows]
        assert keys == sorted(keys)
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["dev_l2"] > 0 for r in rows)

    def test_optional_trajectory_csvs(self, tmp_path):
        cfg = RunConfig.from_dict({**SMALL, "sweep_n": [25], "replicates": 2})
        run_sweep(cfg, tmp_path, save_trajectories=True)
        saved = sorted(os.listdir(tmp_path / "trajectories"))
        assert saved == ["n25_r0_voltage.csv", "n25_r1_voltage.csv"]

    @pytest.mark.parametrize("error", [InvariantViolation, ValueError])
    def test_replicate_failure_is_isolated(self, tmp_path, monkeypatch, error):
        import axonsim.harness as harness

        real = harness.run_replicate

        def flaky(cfg, n_scale, replicate):
            if (n_scale, replicate) == (25, 1):
                raise error("forced failure at t=0.1")
            return real(cfg, n_scale, replicate)

        monkeypatch.setattr(harness, "run_replicate", flaky)
        cfg = RunConfig.from_dict(SMALL)
        rows = run_sweep(cfg, tmp_path, workers=1)
        flagged = [r for r in rows if r["status"] != "ok"]
        assert len(flagged) == 1
        bad = flagged[0]
        assert bad["N"] == 25 and bad["replicate"] == 1
        assert bad["seed"] == seed_id(replicate_seed_sequence(cfg.seed, 25, 1))
        assert bad["status"] == f"failed:{error.__name__}:forced failure at t=0.1"
        metric_cols = [c for c in bad if c.startswith(("dev_", "mart_"))]
        assert metric_cols and all(np.isnan(bad[c]) for c in metric_cols)
        # the healthy rows match an unperturbed sweep exactly
        monkeypatch.setattr(harness, "run_replicate", real)
        clean = run_sweep(cfg, tmp_path / "clean", workers=1)
        for row, ref in zip(rows, clean):
            if row["status"] == "ok":
                assert row["dev_l2"] == ref["dev_l2"]


    def test_results_bytes_match_csv_writer(self, tmp_path, monkeypatch):
        import axonsim.harness as harness

        real = harness.run_replicate

        def flaky(cfg, n_scale, replicate):
            if (n_scale, replicate) == (25, 1):
                raise ValueError('solver said "no", twice\r\nat t=0.1')
            return real(cfg, n_scale, replicate)

        monkeypatch.setattr(harness, "run_replicate", flaky)
        cfg = RunConfig.from_dict(SMALL)
        rows = run_sweep(cfg, tmp_path, workers=1)
        header = results_header(cfg.build()[1])
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(row[col]) if isinstance(row[col], float) else str(row[col])
                             for col in header])
        written = (tmp_path / "results.csv").read_bytes()
        assert written == buf.getvalue().encode()
        assert b'"failed:ValueError:solver said ""no"", twice\r\nat t=0.1"' in written

        lines = written.decode().strip().split("\n")
        idx = header.index("wall_ms")
        out = io.StringIO()
        writer = csv.writer(out)
        for row in csv.reader(lines):
            writer.writerow(row[:idx] + row[idx + 1:])
        assert strip_wall_clock(written.decode()) == out.getvalue()


class TestReplicateUnit:
    def test_spawned_workers_match_serial(self, tmp_path):
        # spawn pickles each worker's function: the reducers must cross
        from test_csvtext import start_method

        cfg = RunConfig.from_dict(SMALL)
        with start_method("spawn"):
            for workers in (1, 2):
                run_sweep(cfg, tmp_path / f"w{workers}", workers=workers)
            serial, pooled = (martingale_suite(n_scale=25, t_horizon=0.1, replicates=40,
                                               dt=5e-3, workers=w) for w in (1, 2))
        assert serial == pooled
        for name in ("results.csv", "manifest.json"):
            a, b = ((tmp_path / f"w{w}" / name).read_text() for w in (1, 2))
            if name == "results.csv":
                a, b = strip_wall_clock(a), strip_wall_clock(b)
            assert a == b

    @pytest.mark.parametrize("suite", ["martingale", "self-convergence"])
    def test_suite_reraises_first_failure(self, monkeypatch, suite):
        import axonsim.harness as harness

        real = harness.run_replicate
        ran = []

        def flaky(cfg, n_scale, replicate):
            ran.append(replicate)
            if replicate in (2, 4):
                raise InvariantViolation(f"forced failure in replicate {replicate} at t=0.1")
            return real(cfg, n_scale, replicate)

        monkeypatch.setattr(harness, "run_replicate", flaky)
        with pytest.raises(InvariantViolation) as exc:
            if suite == "martingale":
                martingale_suite(n_scale=25, t_horizon=0.05, replicates=6, dt=5e-3,
                                 workers=1)
            else:
                self_convergence_suite(n_scale=25, replicates=6, workers=1, base_cfg={
                    "time_horizon": 0.05, "cells": 60, "dt": 5e-3})
        assert type(exc.value) is InvariantViolation
        assert str(exc.value) == "forced failure in replicate 2 at t=0.1"
        assert ran == list(range(6))  # the suite finished its replicates first


def _exit_in_worker(x):
    """Kills the worker process it runs in; returns ``x`` in the parent."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return x


def _oserror_in_worker(x):
    """Raises OSError in a worker process; returns ``x`` in the parent."""
    if multiprocessing.parent_process() is not None:
        raise OSError("task failed in a worker")
    return x


class TestParallelMap:
    @pytest.mark.parametrize("task, error", [
        (_exit_in_worker, BrokenProcessPool),
        (_oserror_in_worker, OSError),
    ])
    def test_worker_fault_propagates_without_serial_rerun(self, task, error):
        # a serial rerun in the parent would succeed and return the tasks
        with pytest.raises(error):
            parallel_map(task, [0, 1, 2, 3], workers=2)

    def test_pool_construction_failure_runs_serially_with_warning(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.warns(RuntimeWarning, match="serially"):
            assert parallel_map(abs, [-1, 2, -3], workers=2) == [1, 2, 3]


def _workers_here(task):
    return default_workers()


class TestDefaultWorkers:
    def test_one_inside_a_pool_worker(self):
        # a snapshot export written inside a sweep worker stays one part
        assert parallel_map(_workers_here, [0, 1], workers=2) == [1, 1]

    @pytest.mark.parametrize("usable, expected", [(1, 1), (3, 3), (16, 4)])
    def test_counts_the_cpus_this_process_may_use(self, monkeypatch, usable, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)),
                            raising=False)
        assert default_workers() == expected

    def test_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_workers() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1


class TestFitRate:
    def _rows(self, values):
        return [
            {"N": n, "replicate": 0, "status": "ok", "dev_l2": v}
            for n, v in values
        ]

    def test_exact_half_power(self):
        rows = self._rows([(n, 3.0 * n**-0.5) for n in (25, 50, 100, 200)])
        slope, intercept, resid = fit_rate(rows, "dev_l2")
        assert slope == pytest.approx(-0.5, abs=1e-10)
        assert resid == pytest.approx(0.0, abs=1e-10)

    def test_constants_fit_flat(self):
        rows = self._rows([(n, 0.7) for n in (25, 50, 100)])
        slope, _, _ = fit_rate(rows, "dev_l2")
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_data(self):
        rows = self._rows([(25, 1.0), (50, 0.5)])
        with pytest.raises(ValueError):
            fit_rate(rows, "dev_l2")


class TestCli:
    def test_det_and_fit(self, tmp_path):
        from axonsim.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "sweep_n": [25, 50, 100],
                                        "replicates": 1, "time_horizon": 0.1}))
        assert main(["det", "--config", str(cfg_path), "--out",
                     str(tmp_path / "det"), "--stride", "10"]) == 0
        assert (tmp_path / "det" / "det_summary.csv").exists()
        assert main(["sweep", "--config", str(cfg_path), "--out",
                     str(tmp_path / "sw")]) == 0
        assert main(["fit", "--results", str(tmp_path / "sw" / "results.csv"),
                     "--metric", "dev_l2"]) == 0

    def test_stoch_outputs(self, tmp_path):
        from axonsim.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "time_horizon": 0.05}))
        assert main(["stoch", "--config", str(cfg_path), "--n", "25",
                     "--out", str(tmp_path / "st"), "--stride", "5",
                     "--diagnostics"]) == 0
        assert (tmp_path / "st" / "stoch_jumps.csv").exists()
        assert (tmp_path / "st" / "stoch_mart_norms.csv").exists()
        manifest = json.loads((tmp_path / "st" / "stoch_manifest.json").read_text())
        assert manifest["n_scale"] == 25

    # sha256 of every file `det` and `stoch --n 25 --diagnostics` write for
    # SMALL, captured from the per-row csv.writer exporters (numpy 2.4,
    # scipy 1.17, x86-64 Linux).  The summary, jump log, manifest and norm
    # series do not depend on the stride.
    GOLDEN = {
        "det_summary.csv":
            "90e539253eba61cc9e87d9cfaee1aae32ebdb537a835a7466db7057638e69c3e",
        "stoch_jumps.csv":
            "dbeca3c4f23680918afc1d808fa469bc6f064f2a2cf660e2ef17ab4898c5bf17",
        "stoch_manifest.json":
            "c03700e07381d6d9e004187f7166f3750f80e6b83ed55c5cd71cfc828d0dc5cd",
        "stoch_mart_norms.csv":
            "be3f08d63318b8005055f7a8cc237d389f748fb15820af5da93b76668414b521",
    }
    GOLDEN_BY_STRIDE = {
        1: {"det_trajectory.csv":
            "c6b6db2f651eb0d6c534cf0279cb56efc88750dd2a5a8d2e75ef204f18a6196e",
            "stoch_voltage.csv":
            "00a775d2683a920955956eba64ba481002ef741e975e43d00f3f4eecae3e0723"},
        5: {"det_trajectory.csv":
            "bc3ad5164b9fb65e98ad9cdd9d0833e802b40d14431d8e017c9dda8c114d44d6",
            "stoch_voltage.csv":
            "dc08391759fda12eaeca327c5f9ddb5ea4172698d8dde7b8776477ea63ebeec9"},
    }

    @pytest.mark.parametrize("stride", [1, 5])
    def test_export_bytes_match_golden_digests(self, tmp_path, stride):
        from axonsim.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        out = tmp_path / "out"
        assert main(["det", "--config", str(cfg_path), "--out", str(out),
                     "--stride", str(stride)]) == 0
        assert main(["stoch", "--config", str(cfg_path), "--n", "25", "--diagnostics",
                     "--out", str(out), "--stride", str(stride)]) == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in out.iterdir()}
        assert digests == {**self.GOLDEN, **self.GOLDEN_BY_STRIDE[stride]}

    @pytest.mark.parametrize("argv", [
        ["det", "--stride", "0"], ["det", "--stride", "-2"], ["stoch", "--n", "0"],
        ["sweep", "--workers", "0"], ["sweep", "--workers", "-3"],
    ], ids=["det-stride-0", "det-stride-negative", "stoch-n-0", "sweep-workers-0",
            "sweep-workers-negative"])
    def test_counts_must_be_positive(self, tmp_path, capsys, argv):
        from axonsim.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "time_horizon": 0.02}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg_path), "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {argv[1]}: must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_replicate_index_must_be_nonnegative(self, tmp_path, capsys):
        from axonsim.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "time_horizon": 0.02}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["stoch", "--replicate", "-1", "--config", str(cfg_path),
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --replicate: must be a non-negative integer, got -1" in err
        assert err.startswith("usage:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["det", "stoch", "sweep"])
    def test_seed_must_be_nonnegative(self, tmp_path, capsys, command):
        from axonsim.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "time_horizon": 0.02}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-1", "--config", str(cfg_path), "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer, got -1" in (
            capsys.readouterr().err)
        assert not out.exists()
        cfg_path.write_text(json.dumps({**SMALL, "time_horizon": 0.02, "seed": -1}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), "--out", str(out)])
        assert exc.value.code == 2
        assert f"axonsim {command}: error: seed must be non-negative, got -1" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command, text, message", [
        ("det", json.dumps({**SMALL, "cells": 2}), "cells must be at least 3, got 2"),
        ("stoch", json.dumps({**SMALL, "kinetics": {
            **DEFAULT_CONFIG["kinetics"], "rates": [
                {**rate, "to": "opne"} if rate["to"] == "open" else rate
                for rate in DEFAULT_CONFIG["kinetics"]["rates"]]}}),
         "names unknown states ['opne']"),
        ("det", json.dumps({**SMALL, "p0": {"form": "uniform", "params": {
            "weights": {"closed": 0.7, "opne": 0.3}}}}),
         "p0 weights must cover the states ['closed', 'open'] exactly; "
         "missing ['open'], unknown ['opne']"),
        ("det", json.dumps({**SMALL, "kinetics": {
            **DEFAULT_CONFIG["kinetics"], "states": [
                DEFAULT_CONFIG["kinetics"]["states"][0], {"name": "open", "v": 1.0}]}}),
         "state 'open' has no field 'c'"),
        ("det", json.dumps({**SMALL, "p0": {"form": "uniform", "params": {}}}),
         "p0 form 'uniform' has no field 'weights'"),
        ("det", json.dumps({**SMALL, "v0": {"form": "gaussian_bump",
                                            "params": {"amplitude": 0.5}}}),
         "v0 form 'gaussian_bump' has no field 'width'"),
        ("sweep", None, "No such file or directory"),
        ("det", '{"cells": 40,', "Expecting property name enclosed in double quotes"),
        ("det", json.dumps({**SMALL, "sweep_n": 5}),
         "config field 'sweep_n' must be a list, got 5"),
        ("det", json.dumps({**SMALL, "kinetics": []}),
         "config field 'kinetics' must be a mapping, got []"),
        ("det", "[]", "a config must be a mapping, got []"),
        ("det", json.dumps({**SMALL, "time_horizon": None}),
         "config field 'time_horizon' must be a number, got None"),
        ("det", json.dumps({**SMALL, "cells": 10.5}),
         "config field 'cells' must be an integer, got 10.5"),
        ("det", json.dumps({**SMALL, "replicates": 2.5}),
         "config field 'replicates' must be an integer, got 2.5"),
        ("det", json.dumps({**SMALL, "kinetics": {"states": 5}}),
         "kinetics field 'states' must be a list, got 5"),
        ("det", json.dumps({**SMALL, "kinetics": {"states": [1, 2]}}),
         "state 0 must be a mapping, got 1"),
        ("det", json.dumps({**SMALL, "kinetics": {**DEFAULT_CONFIG["kinetics"], "rates": 3}}),
         "kinetics field 'rates' must be a list, got 3"),
        ("det", json.dumps({**SMALL, "kinetics": {**DEFAULT_CONFIG["kinetics"], "clamp": 5}}),
         "kinetics field 'clamp' must be a list, got 5"),
        ("det", json.dumps({**SMALL, "v0": {"form": "eigenfunction", "params": []}}),
         "v0 field 'params' must be a mapping, got []"),
        ("det", json.dumps({**SMALL, "v0": {"form": "eigenfunction",
                                            "params": {"mode": None}}}),
         "v0 form 'eigenfunction' field 'mode' must be an integer, got None"),
        ("det", json.dumps({**SMALL, "v0": {"form": "eigenfunction",
                                            "params": {"mode": 1.5}}}),
         "v0 form 'eigenfunction' field 'mode' must be an integer, got 1.5"),
        ("det", json.dumps({**SMALL, "half_length": 1.5e308}),
         "the mesh and v0 must be finite"),
        ("det", '{"dt": 1' + "0" * 400 + "}",
         "config field 'dt' must be a number in the float range"),
        ("det", json.dumps({**SMALL, "cells": 10**12}), "the reference run's snapshots need"),
        ("det", json.dumps({**SMALL, "cells": 1e12}), "the reference run's snapshots need"),
    ], ids=["cells-2", "unknown-state", "p0-unknown-state", "state-without-c",
            "p0-without-weights", "v0-without-width", "missing-file", "malformed-json",
            "sweep-n-not-a-list", "kinetics-a-list", "top-level-list", "null-horizon",
            "fractional-cells", "fractional-replicates", "states-not-a-list",
            "state-not-a-mapping", "rates-not-a-list", "clamp-not-a-list",
            "v0-params-a-list", "null-mode", "fractional-mode", "overflowing-mesh",
            "overflowing-dt", "terabyte-mesh", "terabyte-float-mesh"])
    def test_bad_config_is_a_usage_error(self, tmp_path, capsys, command, text, message):
        from axonsim.cli import main

        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"axonsim {command}: error: " in err and message in err
        assert not out.exists()

    def test_overflowing_mesh_is_rejected_before_it_is_built(self, tmp_path, capsys):
        """2 * half_length overflows: a usage error, and no mesh, no v0 and no
        warning on the way."""
        from axonsim.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"half_length": 1.5e308}))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(["det", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "the mesh and v0 must be finite" in capsys.readouterr().err

    def test_stoch_on_an_empty_sweep_needs_n(self, tmp_path, capsys):
        from axonsim.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "time_horizon": 0.02, "sweep_n": []}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["stoch", "--config", str(cfg_path), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--n is needed" in err
        assert not out.exists()
        assert main(["stoch", "--config", str(cfg_path), "--n", "25", "--out", str(out)]) == 0

    @pytest.mark.parametrize("option, suite", [
        ("--replicates", "martingale"), ("--replicates", "likelihood"),
        ("--workers", "martingale"),
    ])
    def test_validate_counts_must_be_positive(self, tmp_path, capsys, option, suite):
        from axonsim.cli import main

        report = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--suite", suite, option, "0", "--report", str(report)])
        assert exc.value.code == 2
        assert f"argument {option}: must be a positive integer" in capsys.readouterr().err
        assert not report.exists()

    def test_stoch_manifest_seed_matches_sweep_row(self, tmp_path):
        from axonsim.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "time_horizon": 0.02}))
        assert main(["stoch", "--config", str(cfg_path), "--n", "50", "--replicate", "1",
                     "--out", str(tmp_path / "st")]) == 0
        manifest = json.loads((tmp_path / "st" / "stoch_manifest.json").read_text())
        rows = run_sweep(RunConfig.from_dict({**SMALL, "time_horizon": 0.02}),
                         tmp_path / "sw")
        [row] = [r for r in rows if (r["N"], r["replicate"]) == (50, 1)]
        assert manifest["seed"] == row["seed"]
        assert (manifest["base_seed"], manifest["n_scale"], manifest["replicate"]) == (
            SMALL["seed"], 50, 1)

    def test_validate_martingale_report(self, tmp_path):
        report = tmp_path / "mart.json"
        checks = martingale_suite(n_scale=50, t_horizon=0.2, replicates=60,
                                  dt=5e-3, workers=1, report_path=report)
        payload = json.loads(report.read_text())
        assert set(payload["per_state"]) == {"closed", "open"}
        assert "predicted_variance" in payload["per_state"]["open"]
        assert len(payload["checks"]) == len(checks)

    @pytest.mark.parametrize("replicates, workers", [(1, 1), (19, 2), (20, 1), (61, 1),
                                                     (2000, 2), (1000, 3)])
    def test_validate_replicate_tasks_cover_in_order(self, monkeypatch, replicates, workers):
        # the replicate unit's batches, run in process on stand-in replicates
        import axonsim.harness as harness

        batches = []

        def serial_map(func, tasks, n_workers):
            batches.extend(tasks)
            return [func(task) for task in tasks]

        monkeypatch.setattr(harness, "parallel_map", serial_map)
        monkeypatch.setattr(harness, "run_replicate", lambda cfg, n, r: (n, r))
        outcomes = harness.map_replicates(None, [25, 50], replicates,
                                          lambda pair, r: pair, workers)
        expected = [(n, r) for n in (25, 50) for r in range(replicates)]
        assert [(n, r) for n, r, *_ in outcomes] == expected
        assert [value for *_, value, _ in outcomes] == expected
        assert [(n, r) for n, lo, hi in batches for r in range(lo, hi)] == expected
        assert max(hi - lo for _, lo, hi in batches) == max(1, replicates // (8 * workers))

    def test_validate_norms(self, capsys):
        from axonsim.cli import main

        assert main(["validate", "--suite", "norms"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
