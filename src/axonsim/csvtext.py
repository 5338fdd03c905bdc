"""CSV text as the ``csv`` module's default writer emits it, a block of rows at a time.

A row is its cells joined by commas and ended by ``"\\r\\n"``.  Numbers are
written as ``repr`` of a Python float or ``str`` of an int,
which never need quoting; header and state-name cells go through
:func:`quote`.  Files are written block by block, so no file is ever held
as one string.

A ``det`` or ``stoch`` command writes all its files through one
:func:`write_snapshot_csv` call: the snapshot export, and beside it the
command's other files, each written whole by one call.  An export large
enough to pay for worker processes is cut into contiguous parts of its
sampled rows, a few per worker (:func:`~axonsim.fanout.default_workers`),
and one :func:`~axonsim.fanout.parallel_map` runs the whole-file writes
first, then the parts.  Each worker streams its part to its own file in the
output directory: part 0 to the target, under the header, the others to
temporary files.  The parent appends those files in order, and removes them
however the write ends.  No part comes back to the parent as a string, and
the bytes are those of the one-part write.  The split happens only where the
pool forks its workers (:func:`~axonsim.fanout.pool_forks`): a worker
started any other way would receive the whole trajectory pickled and import
numpy and scipy again, which costs about what the split saves.  Without a
split, every write runs in this process, the export first.
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
from typing import Callable, Iterable, Sequence

from .fanout import default_workers, parallel_map, pool_forks

# Fewest cells a part of a split snapshot export may hold: the break-even
# part size on a 2-core x86-64 host, where starting and joining a 2-worker
# pool takes about 15 ms and a cell takes 0.5-0.7 us to format.  There a
# 100k-cell export took 48-50 ms in one part or two, and a 200k-cell one
# 95-102 ms in one part against 76-79 ms in two.
MIN_PART_CELLS = 50_000

# Parts per pool worker in a split export: enough for the pool to even out
# its workers around the whole-file writes that go first.
PARTS_PER_WORKER = 4


def quote(cell: str) -> str:
    """The cell as the default dialect writes it: quoted if it holds , " CR or LF."""
    if any(ch in cell for ch in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def csv_lines(*columns: Iterable[str]) -> str:
    """One CSV line per row of equally long columns of cell strings."""
    text = "\r\n".join(map(",".join, zip(*columns)))
    return text + "\r\n" if text else ""


def write_csv(path, header: Sequence[str], blocks: Iterable[str]) -> None:
    """Write the header line (none if empty), then each block of lines as it
    is produced."""
    with open(path, "w", newline="") as fh:
        fh.write(csv_lines(*([quote(cell)] for cell in header)))
        for block in blocks:
            fh.write(block)


def _write_task(lead, times, v, extra, beside, task) -> None:
    """One task of an export: a whole-file write ``beside[task]``, or one
    part of the snapshot, its header and then its sampled rows."""
    if isinstance(task, int):
        beside[task]()
        return
    path, header, rows = task

    def blocks():
        for i in rows:
            t = repr(float(times[i]))
            rest = () if extra is None else extra[i]
            yield csv_lines(map(t.__add__, lead), map(repr, [0.0, *v[i].tolist(), 0.0]),
                            *(map(repr, row.tolist()) for row in rest))

    write_csv(path, header, blocks())


def write_snapshot_csv(path, columns: Sequence[str], nodes, times, v, stride: int = 1,
                       extra=None, beside: Sequence[Callable[[], None]] = ()) -> None:
    """Long-format nodal snapshots, header (t, node, x, *columns), at sample
    times ``0, stride, ...``: per node, the voltage (``v[i]`` holds the
    interior nodes, the endpoints are 0.0), then a value from each row of
    ``extra[i]``, if given.  Then each call in ``beside``, which writes
    one other file whole.

    With ``default_workers()`` above 1, a forking pool, and room for two
    parts of ``MIN_PART_CELLS`` cells, the sampled rows are cut into up to
    ``PARTS_PER_WORKER`` parts per worker, and the ``beside`` calls, which
    cannot be cut, go to the pool before them.
    """
    lead = [f",{j},{x!r}" for j, x in enumerate(nodes.tolist())]
    rows = range(0, len(times), stride)
    cells = len(rows) * len(lead) * (3 + len(columns))
    workers = default_workers()
    n_parts = min(PARTS_PER_WORKER * workers, len(rows), cells // MIN_PART_CELLS)
    if workers == 1 or n_parts < 2 or not pool_forks():
        workers = n_parts = 1
    cuts = [len(rows) * k // n_parts for k in range(n_parts + 1)]
    paths = [path]
    try:
        for _ in range(1, n_parts):
            fd, part = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                                        suffix=".part",
                                        dir=os.path.dirname(os.path.abspath(path)))
            os.close(fd)
            paths.append(part)
        parts = [(p, ["t", "node", "x", *columns] if k == 0 else [],
                  rows[cuts[k]:cuts[k + 1]]) for k, p in enumerate(paths)]
        whole = list(range(len(beside)))
        parallel_map(functools.partial(_write_task, lead, times, v, extra, beside),
                     whole + parts if workers > 1 else parts + whole, workers)
        if n_parts > 1:
            with open(path, "ab") as out:
                for part in paths[1:]:
                    with open(part, "rb") as fh:
                        shutil.copyfileobj(fh, out, 1 << 20)
    finally:
        for part in paths[1:]:
            os.remove(part)
