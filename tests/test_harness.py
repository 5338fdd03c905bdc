import concurrent.futures
import csv
import hashlib
import io
import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from axonsim.errors import InvariantViolation
from axonsim.fanout import default_workers, parallel_map
from axonsim.grid import build_grid
from axonsim.harness import (
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

SMALL = {
    "time_horizon": 0.2,
    "cells": 60,
    "dt": 2e-3,
    "sweep_n": [25, 50],
    "replicates": 2,
    "seed": 7,
}


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
        from axonsim.grid import GridFunction, h10_norm, l2_norm

        g = build_grid(1.0, 40)
        base = np.vstack([fundamental_mode(g, amplitude=0.5).values] * 5)
        off = fundamental_mode(g, mode=2, amplitude=0.1)
        shifted = base + off.values
        l2, h10 = _sup_voltage_deviation(shifted, base, g)
        assert l2 == pytest.approx(l2_norm(off), rel=1e-12)
        assert h10 == pytest.approx(h10_norm(off), rel=1e-12)

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
        from axonsim.validate import martingale_suite

        report = tmp_path / "mart.json"
        checks = martingale_suite(n_scale=50, t_horizon=0.2, replicates=60,
                                  dt=5e-3, workers=1, report_path=report)
        payload = json.loads(report.read_text())
        assert set(payload["per_state"]) == {"closed", "open"}
        assert "predicted_variance" in payload["per_state"]["open"]
        assert len(payload["checks"]) == len(checks)

    @pytest.mark.parametrize("replicates, workers", [(1, 1), (19, 2), (20, 1), (61, 1),
                                                     (2000, 2), (1000, 3)])
    def test_validate_replicate_tasks_cover_in_order(self, replicates, workers):
        from axonsim.validate import _replicate_tasks

        tasks = _replicate_tasks({"seed": 1}, 50, replicates, workers)
        assert all(t[:2] == ({"seed": 1}, 50) for t in tasks)
        bounds = [(lo, hi) for _, _, lo, hi in tasks]
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == replicates and all(lo < hi for lo, hi in bounds)

    def test_validate_norms(self, capsys):
        from axonsim.cli import main

        assert main(["validate", "--suite", "norms"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
