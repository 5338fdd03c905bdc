"""CSV text as the ``csv`` module's default writer emits it, a block of rows at a time.

A row is its cells joined by commas and ended by ``"\\r\\n"``.  Numbers are
written as ``repr`` of a Python float or ``str`` of an int,
which never need quoting; header and state-name cells go through
:func:`quote`.  Files are written block by block, so no file is ever held
as one string.
"""

from __future__ import annotations

from typing import Iterable, Sequence


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
    """Write the header line, then each block of lines as it is produced."""
    with open(path, "w", newline="") as fh:
        fh.write(csv_lines(*([quote(cell)] for cell in header)))
        for block in blocks:
            fh.write(block)


def write_snapshot_csv(path, columns: Sequence[str], nodes, times, v, stride: int = 1,
                       extra=None) -> None:
    """Long-format nodal snapshots, header (t, node, x, *columns), at sample
    times ``0, stride, ...``: per node, the voltage (``v[i]`` holds the
    interior nodes, the endpoints are 0.0), then a value from each row of
    ``extra[i]``, if given."""
    lead = [f",{j},{x!r}" for j, x in enumerate(nodes.tolist())]

    def blocks():
        for i in range(0, len(times), stride):
            t = repr(float(times[i]))
            rest = () if extra is None else extra[i]
            yield csv_lines(map(t.__add__, lead), map(repr, [0.0, *v[i].tolist(), 0.0]),
                            *(map(repr, row.tolist()) for row in rest))

    write_csv(path, ["t", "node", "x", *columns], blocks())
