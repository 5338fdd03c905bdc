"""Self-tests of the benchmark's output check.

    python3 perfbench/selftest.py

Run from the repository root (about two minutes).  For each workload, one
operation runs untraced and one traced:

* both must produce identical outputs, and those outputs must pass;
* at the default seed, where outputs are compared with the reference, a
  flipped jump destination, a float off by 1e-9 relative and a dropped row
  must each fail the check;
* at another seed, where only invariants are checked, the flipped
  destination and the dropped row must fail.  A 1e-9 change to a float
  breaks no invariant, so it is not expected to fail there.

Mutations are made in the output files where the workload writes files,
otherwise in the record read from memory.
"""

from __future__ import annotations

import shutil
import sys

import numpy as np

import contract
import run

OTHER_SEED = 7


def _edit_csv(path, edit) -> None:
    """Apply ``edit(lines)`` to the data lines (header excluded) of a CSV file."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[1:] = edit(lines[1:])
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


def _scale_field(line: str, col: int, factor: float) -> str:
    end = line[len(line.rstrip("\r\n")):]
    fields = line.rstrip("\r\n").split(",")
    fields[col] = repr(float(fields[col]) * factor)
    return ",".join(fields) + end


def _scale_line(index: int, col: int):
    def edit(lines):
        lines[index] = _scale_field(lines[index], col, 1 + 1e-9)
        return lines
    return edit


def _drop_line(index: int):
    def edit(lines):
        del lines[index]
        return lines
    return edit


def _flip_state_name(index: int):
    def edit(lines):
        fields = lines[index].rstrip("\r\n").split(",")
        fields[3] = "open" if fields[3] == "closed" else "closed"
        lines[index] = ",".join(fields) + "\r\n"
        return lines
    return edit


def _flip_dst(item: str):
    def mutate(record):
        dst = record[item]["jump_dst"].copy()
        dst[len(dst) // 2] = 1 - dst[len(dst) // 2]
        record[item]["jump_dst"] = dst
    return mutate


def _drop_jump(item: str):
    """Drop a jump of a channel that jumps again later."""
    def mutate(record):
        values = record[item]
        channel = values["jump_channel"]
        k = next(k for k in range(channel.size) if np.any(channel[k + 1:] == channel[k]))
        for key in ("jump_times", "jump_channel", "jump_src", "jump_dst"):
            values[key] = np.delete(values[key], k)
    return mutate


def _scale_value(item: str, key: str):
    def mutate(record):
        record[item][key] = np.asarray(record[item][key]) * (1 + 1e-9)
    return mutate


# (workload, mutation name, file to edit or None, edit or record mutation,
#  expected to fail at a seed without reference)
MUTATIONS = (
    ("sweep_small_n", "flipped jump destination", None, _flip_dst("N50/r0"), True),
    ("sweep_small_n", "dev_l2 off by 1e-9", "results.csv", _scale_line(1, 3), False),
    ("sweep_small_n", "dropped results row", "results.csv", _drop_line(1), True),
    ("sweep_large_n", "flipped jump destination", None, _flip_dst("N800/r0"), True),
    ("sweep_large_n", "mart_hm1 off by 1e-9", "results.csv", _scale_line(0, 7), False),
    ("sweep_large_n", "dropped results row", "results.csv", _drop_line(0), True),
    ("martingale_mc", "flipped jump destination", None, _flip_dst("r0"), True),
    ("martingale_mc", "martingale value off by 1e-9", None, _scale_value("r3", "value"),
     False),
    ("martingale_mc", "dropped jump-log row", None, _drop_jump("r1"), True),
    ("cli_export", "flipped jump destination", "stoch_jumps.csv", _flip_state_name(10),
     True),
    ("cli_export", "summary l2 off by 1e-9", "det_summary.csv", _scale_line(500, 1),
     False),
    ("cli_export", "voltage off by 1e-9", "stoch_voltage.csv",
     _scale_line(1000 * 201 + 100, 3), False),
    ("cli_export", "dropped voltage row", "stoch_voltage.csv", _drop_line(5000), True),
    ("cli_export", "dropped jump row", "stoch_jumps.csv", _drop_line(20), True),
)


def _operation(workload, cfg, seed, out, traced: bool):
    if traced:
        _, [op] = run.run_traced(workload, cfg, seed, 0, (out, out), min_ops=1)
    else:
        [op] = run.run_ops(workload, cfg, seed, 0, (out, out), min_ops=1)
    if op.error is not None:
        raise RuntimeError(op.error)
    return op


def _failures(workload, cfg, op, out, captured, reference) -> int:
    record, problems = workload.collect(cfg, op, out, captured)
    problems = contract.merge(problems, workload.check(cfg, record, reference, True))
    return len(contract.failed_items(op.items, problems))


def main() -> int:
    run.load_program()
    from workloads import WORKLOADS

    results = []

    def report(name: str, passed: bool, detail: str) -> None:
        results.append(passed)
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}", flush=True)

    cases = [(name, contract.DEFAULT_SEED) for name in WORKLOADS] + [
        (name, OTHER_SEED) for name in ("sweep_small_n", "martingale_mc", "cli_export")]
    for name, seed in cases:
        workload = WORKLOADS[name]
        cfg = workload.build_config(seed)
        reference = (contract.load_reference(name) if seed == contract.DEFAULT_SEED
                     else None)
        base = run.WORK / name / "selftest"
        plain = _operation(workload, cfg, seed, base / "untraced", traced=False)
        traced = _operation(workload, cfg, seed, base / "traced", traced=True)
        out = base / "traced"
        captured = traced.trace["captured"]
        tag = f"{name} seed {seed}"
        report(f"{tag}: traced and untraced outputs", plain.digest == traced.digest,
               "identical" if plain.digest == traced.digest else "differ")
        clean = _failures(workload, cfg, traced, out, captured, reference)
        report(f"{tag}: clean outputs", clean == 0, f"{clean} failed item(s)")
        for wname, label, filename, mutate, at_any_seed in MUTATIONS:
            if wname != name or not (reference is not None or at_any_seed):
                continue
            if filename is None:
                record, _ = workload.collect(cfg, traced, out, captured)
                mutate(record)
                problems = workload.check(cfg, record, reference, True)
                failed = len(contract.failed_items(traced.items, problems))
            else:
                mutated = base / "mutated"
                shutil.rmtree(mutated, ignore_errors=True)
                shutil.copytree(out, mutated)
                _edit_csv(mutated / filename, mutate)
                failed = _failures(workload, cfg, traced, mutated, captured, reference)
            report(f"{tag}: {label}", failed > 0, f"{failed} failed item(s)")
        shutil.rmtree(base, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} self-tests pass")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
