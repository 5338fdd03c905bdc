"""The benchmark's calls into the package, as a unit test.

Each workload of ``perfbench/`` performs one operation at the default seed,
and its outputs must pass the benchmark's own check against the stored
reference outputs.  The benchmark's files are imported, not edited: a
package change that breaks a call the benchmark makes, or the science of
its outputs, fails here before a benchmark run would.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import contract  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_passes_the_reference_check(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    seed = contract.DEFAULT_SEED
    cfg = workload.build_config(seed)
    op = workload.run(cfg, seed, tmp_path)
    record, problems = workload.collect(cfg, op, tmp_path, [])
    problems = contract.merge(problems, workload.check(
        cfg, record, contract.load_reference(name), traced=False))
    assert contract.failed_items(op.items, problems) == set(), problems
