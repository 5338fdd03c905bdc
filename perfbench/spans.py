"""Span tracer for the benchmark's traced run.

The tracer wraps axonsim's public functions from the outside, so nothing in
the package changes.  A name bound by ``from x import f`` is looked up in the
importing module, so each target is patched in every axonsim module that
binds it, and the original is put back afterwards.  A target that a later
refactor removes is reported as absent; the benchmark never fails on it.

Spans live in memory as parallel arrays (label, start, end, parent) and are
folded into per-operation totals when the operation ends.  A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span label, scan).  With scan=True the function is
# patched in every axonsim module that binds the same object; with
# scan=False only in the named module, because scipy's solve_banded is one
# object bound in two modules that belong to two different layers.
TARGETS = (
    ("grid", "riesz_solve", "grid.riesz_solve", True),
    ("grid", "l2_norm", "grid.norm", True),
    ("grid", "h10_norm", "grid.norm", True),
    ("kinetics", "rate", "kinetics.rate", True),
    ("deterministic", "run_det", "deterministic.run_det", True),
    ("deterministic", "solve_banded", "deterministic.cn_solve", False),
    ("deterministic", "write_trajectory_csv", "deterministic.write_csv", True),
    ("deterministic", "write_summary_csv", "deterministic.write_csv", True),
    ("stochastic", "run_stoch", "stochastic.run_stoch", True),
    ("stochastic", "solve_banded", "stochastic.pde_solve", False),
    ("stochastic", "write_voltage_csv", "stochastic.write_csv", True),
    ("stochastic", "write_jump_csv", "stochastic.write_csv", True),
    ("decomposition", "scan_path", "decomposition.scan_path", True),
    ("decomposition", "martingale_norm_series",
     "decomposition.martingale_norm_series", True),
    ("harness", "run_reference", "harness.run_reference", True),
    ("harness", "run_replicate", "harness.run_replicate", True),
    ("harness", "deviation_metrics", "harness.deviation_metrics", True),
    ("harness", "_write_results", "harness.results_io", True),
    ("cli", "main", "cli.main", True),
)


class Tracer:
    """Records spans and counters for one operation at a time."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_id: dict[str, int] = {}
        self.label = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.captured: list[dict] = []
        self.patched: list[tuple] = []
        self.present: set[str] = set()
        self._op_first = 0

    # -- operations ---------------------------------------------------------

    def begin_op(self) -> None:
        self.counters = Counter()
        self.captured = []
        self._op_first = len(self.start)

    def end_op(self) -> dict:
        """Fold the operation's spans into per-label totals."""
        first, last = self._op_first, len(self.start)
        label = np.array(self.label[first:last], dtype=np.int64)
        dur = (np.array(self.end[first:last], dtype=float)
               - np.array(self.start[first:last], dtype=float))
        parent = np.array(self.parent[first:last], dtype=np.int64)
        child = parent >= 0
        child_sum = np.bincount(parent[child] - first, weights=dur[child],
                                minlength=dur.size)
        self_time = dur - child_sum
        n = len(self.labels)
        totals = {
            "calls": np.bincount(label, minlength=n),
            "s": np.bincount(label, weights=dur, minlength=n),
            "self_s": np.bincount(label, weights=self_time, minlength=n),
        }
        spans = {
            name: {key: totals[key][i].item() for key in totals}
            for i, name in enumerate(self.labels) if totals["calls"][i]
        }
        return {
            "spans": spans,
            "top_level_s": float(dur[~child].sum()),
            "counters": dict(self.counters),
            "captured": self.captured,
        }

    # -- wrapping -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._label_id:
            self._label_id[name] = len(self.labels)
            self.labels.append(name)
        return self._label_id[name]

    def wrap(self, fn, label: str, caller: str, classify=None, after=None):
        tracer = self
        fixed_id = self._id(label)
        split = f"{label}.{caller}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._id(classify(args, kwargs)) if classify else fixed_id
            idx = len(tracer.start)
            tracer.label.append(sid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.counters[split] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target binding found in the loaded axonsim modules."""
        modules = {
            name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
            if name == "axonsim" or name.startswith("axonsim.")
        }
        for mod_name, attr, label, scan in TARGETS:
            home = modules.get(mod_name)
            original = vars(home).get(attr) if home is not None else None
            if original is None:
                continue
            hosts = ([m for m in modules.items() if vars(m[1]).get(attr) is original]
                     if scan else [(mod_name, home)])
            classify, after = _hooks(label, original)
            for caller, mod in hosts:
                wrapper = self.wrap(original, label, caller, classify, after)
                setattr(mod, attr, wrapper)
                self.patched.append((mod, attr, original))
                self.present.update((label, f"{label}.{caller}"))

    def restore(self) -> None:
        while self.patched:
            mod, attr, original = self.patched.pop()
            setattr(mod, attr, original)
            if vars(mod).get(attr) is not original:
                raise RuntimeError(f"could not restore {mod.__name__}.{attr}")


def _bound_argument(original, name: str):
    """A reader for one named argument of ``original``, or None if it has none."""
    try:
        sig = inspect.signature(original)
    except (TypeError, ValueError):
        return None
    if name not in sig.parameters:
        return None

    def read(args, kwargs):
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return None
        bound.apply_defaults()
        return bound.arguments.get(name)

    return read


def _hooks(label: str, original):
    """(classify, after) hooks of one target: span sub-labels and counters."""
    if label == "decomposition.scan_path":
        want = _bound_argument(original, "want_series")
        if want is None:
            return (lambda args, kwargs: f"{label}.final"), None
        return (lambda args, kwargs:
                f"{label}.series" if want(args, kwargs) else f"{label}.final"), None
    if label == "stochastic.run_stoch":
        return None, _record_trajectory
    if label.endswith(".write_csv"):
        path_of = _bound_argument(original, "path")
        counter = label.replace(".write_csv", ".write_csv.bytes")

        def count_bytes(tracer, result, args, kwargs):
            path = path_of(args, kwargs) if path_of else None
            if path is not None and os.path.exists(path):
                tracer.counters[counter] += os.path.getsize(path)

        return None, count_bytes
    return None, None


def _record_trajectory(tracer, traj, args, kwargs) -> None:
    """Exact per-run counts and the jump log of one particle run."""
    c = tracer.counters
    times = getattr(traj, "times", None)
    jump_times = getattr(traj, "jump_times", None)
    positions = getattr(traj, "positions", None)
    history = getattr(traj, "v_chan_frozen", None)
    if positions is not None:
        c["stochastic.channels"] += int(np.size(positions))
    if times is not None:
        c["stochastic.substeps"] += max(int(np.size(times)) - 1, 0)
    if jump_times is not None:
        c["stochastic.jumps"] += int(np.size(jump_times))
        if times is not None and np.size(jump_times):
            sub = np.searchsorted(times, jump_times, side="left") - 1
            busiest = int(np.bincount(np.clip(sub, 0, None)).max())
            c["stochastic.max_jumps_per_substep"] = max(
                c["stochastic.max_jumps_per_substep"], busiest)
    if history is not None:
        c["stochastic.history_bytes"] = max(c["stochastic.history_bytes"],
                                            int(history.nbytes))
    fields = ("n_scale", "initial_states", "jump_times", "jump_channel", "jump_src",
              "jump_dst")
    if all(hasattr(traj, f) for f in fields) and positions is not None:
        log = {f: getattr(traj, f) for f in fields}
        log["channels"] = int(np.size(positions))
        tracer.captured.append(log)
