"""Capture the reference outputs of the workloads at the default seed.

    python3 perfbench/capture.py [WORKLOAD ...]

Run from the repository root.  Each workload's operation runs once, traced
so that the sweeps' jump logs are seen, and its record must pass the
workload's invariants before it is written to ``perfbench/reference/``.
These files are the science contract: recapture only when a change is meant
to alter the program's results, and say so.
"""

from __future__ import annotations

import shutil
import sys

import contract
import run


def main(argv: list[str]) -> int:
    run.load_program()
    from workloads import WORKLOADS

    for name in argv or list(WORKLOADS):
        workload = WORKLOADS[name]
        cfg = workload.build_config(contract.DEFAULT_SEED)
        out = run.WORK / name / "capture"
        _, [op] = run.run_traced(workload, cfg, contract.DEFAULT_SEED, 0, (out, out),
                                 min_ops=1)
        if op.error is not None:
            print(f"{name}: {op.error}", file=sys.stderr)
            return 1
        record, problems = workload.collect(cfg, op, out, op.trace["captured"])
        problems = contract.merge(problems, workload.invariants(cfg, record))
        shutil.rmtree(out)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        contract.save_reference(name, record)
        print(f"{name}: {len(record)} items -> {contract.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
