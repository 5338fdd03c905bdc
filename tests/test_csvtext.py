"""The split snapshot writer: the same bytes as one part, and no part file
or worker process left behind, whether the write succeeds or a part fails."""

import contextlib
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import axonsim
from axonsim import csvtext
from axonsim.csvtext import write_snapshot_csv
from axonsim.deterministic import write_trajectory_csv
from axonsim.fanout import pool_forks
from axonsim.harness import RunConfig, run_reference

from test_harness import SMALL


@contextlib.contextmanager
def start_method(method):
    """Pools start their workers by ``method`` inside the block."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"this platform has no {method!r} start method")
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        yield
    finally:
        multiprocessing.set_start_method(before, force=True)


@pytest.fixture
def forked():
    """The split, and the fault tests' patches, need forked pool workers."""
    with start_method("fork"):
        yield


def workers(n):
    return mock.patch.object(csvtext, "default_workers", lambda: n)


def assert_clean(directory, *expected):
    """Only the expected files are in ``directory`` and no worker is running."""
    assert set(os.listdir(directory)) <= set(expected)
    assert multiprocessing.active_children() == []


def counting_parallel_map():
    """A wrapper over ``csvtext.parallel_map`` that records each task list."""
    calls = []
    real = csvtext.parallel_map

    def spy(func, tasks, workers):
        calls.append(tasks)
        return real(func, tasks, workers)

    return mock.patch.object(csvtext, "parallel_map", spy), calls


class TestSplitEquivalence:
    @given(seed=st.integers(0, 2**32 - 1), n_times=st.integers(1, 12),
           cells=st.integers(2, 7), stride=st.integers(1, 7),
           n_extra=st.sampled_from([None, 1, 3]), n_workers=st.integers(1, 5))
    @settings(max_examples=40)
    def test_split_matches_one_part(self, tmp_path_factory, seed, n_times, cells,
                                    stride, n_extra, n_workers):
        rng = np.random.default_rng(seed)
        nodes = np.linspace(-1.0, 1.0, cells + 1)
        times = np.sort(rng.random(n_times))
        v = rng.standard_normal((n_times, cells - 1)) * 10.0 ** rng.integers(-300, 300)
        extra = None if n_extra is None else rng.random((n_times, n_extra, cells + 1))
        columns = ["V"] + [f"p_{k}" for k in range(n_extra or 0)]
        out = tmp_path_factory.mktemp("split")
        with workers(1):
            write_snapshot_csv(out / "one.csv", columns, nodes, times, v, stride, extra)
        patch, calls = counting_parallel_map()
        with (start_method("fork"), workers(n_workers),
              mock.patch.object(csvtext, "MIN_PART_CELLS", 1), patch):
            write_snapshot_csv(out / "split.csv", columns, nodes, times, v, stride, extra)
        rows = len(range(0, n_times, stride))
        assert [len(tasks) for tasks in calls] == [min(n_workers, rows)]
        assert (out / "split.csv").read_bytes() == (out / "one.csv").read_bytes()
        assert_clean(out, "one.csv", "split.csv")

    def test_default_det_trajectory(self, tmp_path, forked):
        traj = run_reference(RunConfig.from_dict({}))
        with workers(1):
            write_trajectory_csv(traj, tmp_path / "one.csv")
        patch, calls = counting_parallel_map()
        with workers(2), patch:
            write_trajectory_csv(traj, tmp_path / "two.csv")
        assert [len(tasks) for tasks in calls] == [2]
        assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert_clean(tmp_path, "one.csv", "two.csv")

    def test_small_exports_stay_in_one_part(self, tmp_path, forked):
        # the SMALL config behind the CLI's golden digests: 101 x 61 x 6 cells
        traj = run_reference(RunConfig.from_dict(SMALL))
        patch, calls = counting_parallel_map()
        with workers(4), patch:
            write_trajectory_csv(traj, tmp_path / "small.csv")
        assert [len(tasks) for tasks in calls] == [1]


class TestOnlyForkedPoolsSplit:
    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_pool_forks(self, method):
        with start_method(method):
            assert pool_forks() == (method == "fork")

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_one_part_unless_the_pool_forks(self, tmp_path, method):
        times = np.linspace(0.0, 1.0, 9)
        v = np.arange(36.0).reshape(9, 4)
        nodes = np.linspace(-1, 1, 6)
        with workers(1):
            write_snapshot_csv(tmp_path / "one.csv", ["V"], nodes, times, v)
        patch, calls = counting_parallel_map()
        with (start_method(method), workers(3),
              mock.patch.object(csvtext, "MIN_PART_CELLS", 1), patch):
            write_snapshot_csv(tmp_path / "v.csv", ["V"], nodes, times, v)
        assert [len(tasks) for tasks in calls] == [1]
        assert (tmp_path / "v.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert_clean(tmp_path, "one.csv", "v.csv")


WRITE_CSV = csvtext.write_csv


def _raise_in_worker(*args):
    if multiprocessing.parent_process() is not None:
        raise OSError("disk full in a part")
    return WRITE_CSV(*args)


def _exit_in_worker(*args):
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return WRITE_CSV(*args)


class TestSplitFaults:
    # the parts are forked (see ``forked``), so the workers inherit the patched writer
    @pytest.mark.parametrize("fault, error", [
        (_raise_in_worker, OSError),
        (_exit_in_worker, BrokenProcessPool),
    ], ids=["raise", "exit"])
    def test_fault_propagates_and_leaves_nothing(self, tmp_path, monkeypatch, forked,
                                                 fault, error):
        monkeypatch.setattr(csvtext, "write_csv", fault)
        monkeypatch.setattr(csvtext, "MIN_PART_CELLS", 1)
        monkeypatch.setattr(csvtext, "default_workers", lambda: 3)
        times = np.linspace(0.0, 1.0, 9)
        v = np.ones((9, 4))
        with pytest.raises(error):
            write_snapshot_csv(tmp_path / "v.csv", ["V"], np.linspace(-1, 1, 6), times, v)
        assert_clean(tmp_path, "v.csv")

    def test_det_exits_nonzero_when_a_worker_dies(self, tmp_path, forked):
        script = (
            "import multiprocessing, os, sys\n"
            "from axonsim import cli, csvtext\n"
            "multiprocessing.set_start_method('fork')\n"
            "real = csvtext.write_csv\n"
            "def dying(*args):\n"
            "    if multiprocessing.parent_process() is not None:\n"
            "        os._exit(1)\n"
            "    return real(*args)\n"
            "csvtext.write_csv = dying\n"
            "csvtext.MIN_PART_CELLS = 1\n"
            "csvtext.default_workers = lambda: 2\n"
            "try:\n"
            "    sys.exit(cli.main(sys.argv[1:]))\n"
            "finally:\n"
            "    print('children', len(multiprocessing.active_children()), file=sys.stderr)\n"
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        out = tmp_path / "out"
        src = str(Path(axonsim.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, "det", "--config", str(cfg_path),
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode != 0
        assert "BrokenProcessPool" in proc.stderr
        assert "children 0" in proc.stderr
        assert_clean(out, "det_trajectory.csv")
