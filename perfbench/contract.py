"""The science contract applied to every benchmark run.

An operation's outputs are read into a *record*: a mapping from item (one
replicate, one reference run or one CLI command) to named values.  The key
``"*"`` holds values shared by every item of the operation; a problem there
fails them all.

At the default seed the record is compared with the reference captured from
the program by ``capture.py``: integers, strings and jump-log state
sequences must be identical, floats must agree to 1e-12 relative.  At every
seed the workload's invariants are checked as well.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 42
REL_TOL = 1e-12
SHARED = "*"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


# -- reference files ----------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.npz"


def save_reference(workload: str, record: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    flat = {f"{item}|{key}": np.asarray(value)
            for item, values in record.items() for key, value in values.items()}
    np.savez_compressed(reference_path(workload), **flat)


def load_reference(workload: str) -> dict:
    record: dict = {}
    with np.load(reference_path(workload), allow_pickle=False) as data:
        for flat in data.files:
            item, key = flat.split("|", 1)
            record.setdefault(item, {})[key] = data[flat]
    return record


# -- comparison ---------------------------------------------------------------

def _value_problem(key: str, ref, got) -> str | None:
    ref = np.asarray(ref)
    got = np.asarray(got)
    if ref.shape != got.shape:
        return f"{key}: shape {got.shape}, reference {ref.shape}"
    if ref.dtype.kind != "f":
        if not np.array_equal(ref, got):
            return f"{key}: differs from the reference"
        return None
    if got.dtype.kind not in "fiu":
        return f"{key}: not numeric"
    got = got.astype(float)
    if key.endswith(".proj"):
        # column 0 is a weighted sum over one snapshot, column 1 its weighted
        # absolute sum, the scale the sum's rounding error is relative to
        err = np.abs(got[..., 0] - ref[..., 0])
        scale = np.maximum(ref[..., 1], got[..., 1])
        bad = ~(err <= REL_TOL * scale)
    else:
        err = np.abs(got - ref)
        scale = np.maximum(np.abs(ref), np.abs(got))
        bad = ~(err <= REL_TOL * scale)
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = float(np.nanmax(np.where(bad, err / scale, 0.0)))
        return f"{key}: {int(bad.sum())} value(s) off by up to {worst:.3g} relative"
    return None


def compare(reference: dict, record: dict, skip_keys=frozenset()) -> dict:
    """Problems per item between a record and the reference record."""
    problems: dict[str, list[str]] = {}
    for item in reference.keys() - record.keys():
        problems.setdefault(item, []).append("missing from the outputs")
    for item in record.keys() - reference.keys():
        problems.setdefault(item, []).append("not in the reference outputs")
    for item in reference.keys() & record.keys():
        ref_values, got_values = reference[item], record[item]
        for key in sorted(ref_values):
            if key not in got_values:
                if key not in skip_keys:
                    problems.setdefault(item, []).append(f"{key}: missing")
                continue
            problem = _value_problem(key, ref_values[key], got_values[key])
            if problem:
                problems.setdefault(item, []).append(problem)
    return problems


def failed_items(items, problems: dict) -> set:
    """Items an operation loses to its problems.

    A shared problem, or one on an item the operation should not have
    produced, fails every item of the operation.
    """
    items = set(items)
    bad = {item for item, found in problems.items() if found}
    if SHARED in bad or bad - items:
        return items
    return bad


def merge(*problem_maps) -> dict:
    out: dict[str, list[str]] = {}
    for problems in problem_maps:
        for item, found in problems.items():
            if found:
                out.setdefault(item, []).extend(found)
    return out


# -- invariants shared by the workloads --------------------------------------

def lattice_channels(n_scale: int, half_length: float) -> int:
    """Number of lattice points i/N strictly inside (-l, l)."""
    inner = math.ceil(n_scale * half_length) - 1
    return 2 * inner + 1


def jump_log_problems(times, channel, src, dst, n_channels: int,
                      expected_channels: int, n_states: int, horizon: float,
                      initial_states=None) -> list[str]:
    """Invariants of one jump log: times, channel range and state chains.

    Each channel's jumps must chain: a jump leaves the state the previous
    one entered, or, for its first jump, the channel's initial state when
    that is known.
    """
    found = []
    times = np.asarray(times, dtype=float)
    channel = np.asarray(channel)
    src = np.asarray(src)
    dst = np.asarray(dst)
    if not (times.size == channel.size == src.size == dst.size):
        return ["jump log columns have different lengths"]
    if n_channels != expected_channels:
        found.append(f"{n_channels} channels, lattice has {expected_channels}")
    if times.size == 0:
        return found
    if not np.all(np.isfinite(times)):
        found.append("jump time not finite")
    elif times.min() < 0.0 or times.max() > horizon * (1 + REL_TOL):
        found.append(f"jump time outside [0, {horizon}]")
    if np.any(np.diff(times) < 0.0):
        found.append("jump times not ordered")
    if channel.min() < 0 or channel.max() >= expected_channels:
        found.append("channel index outside the lattice")
    if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n_states:
        found.append("state index out of range")
    if np.any(src == dst):
        found.append("jump does not change the state")
    order = np.argsort(channel, kind="stable")
    same = channel[order][1:] == channel[order][:-1]
    broken = np.any(src[order][1:][same] != dst[order][:-1][same])
    if initial_states is not None and not found:
        initial_states = np.asarray(initial_states)
        first = order[np.concatenate(([True], ~same))]
        broken = broken or initial_states.size != n_channels or np.any(
            src[first] != initial_states[channel[first]])
    if broken:
        found.append("a channel leaves a state it is not in")
    return found


def finite_problems(name: str, values, nonnegative: bool = False) -> list[str]:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return [f"{name}: not finite"]
    if nonnegative and values.size and values.min() < 0.0:
        return [f"{name}: negative"]
    return []
