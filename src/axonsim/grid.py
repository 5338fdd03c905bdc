"""Piecewise-linear function space on [-l, l] with zero boundary values.

A uniform mesh carries grid functions (nodal values at interior nodes,
implicitly zero at the endpoints); nodal arrays (values at every node, no
boundary condition) and load arrays (pairings with the interior hat basis)
are plain numpy arrays.  All norms are exact for the piecewise-linear
interpolant:

    ||u||_L2^2   = sum over cells of h/3 * (a^2 + a*b + b^2)
    ||u||_H1^2   = ||u||_L2^2 + ||Du||_L2^2       (Du piecewise constant)
    ||F||_H-1    = sqrt(loads . u),  (K + M) u = loads

where K and M are the stiffness and mass matrices of the hat basis.  The
dual norm is therefore the exact supremum of theta . loads over grid
functions with ||theta||_H1 <= 1.

Two kernels solve.  :class:`CrankNicolson` takes every voltage step of
both integrators: it holds a step's system, formed once per operator and
step length, and steps any voltage with it.  :func:`riesz_solve` takes the
dual-norm solves with the banded Cholesky factor of K + M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, get_lapack_funcs


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of [-half_length, half_length] with ``cells`` elements.

    Nodes are x_j = -half_length + j*h for j = 0..cells, h = 2*half_length/cells.
    Interior nodes are j = 1..cells-1.
    """

    half_length: float
    cells: int

    def __post_init__(self):
        if self.half_length <= 0:
            raise ValueError(f"half_length must be positive, got {self.half_length}")
        if self.cells < 2 or int(self.cells) != self.cells:
            raise ValueError(f"cells must be an integer >= 2, got {self.cells}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_length / self.cells

    @property
    def n_interior(self) -> int:
        return self.cells - 1

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.half_length, self.half_length, self.cells + 1)

    @cached_property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[1:-1]

    @cached_property
    def riesz_factor(self) -> np.ndarray:
        """:func:`riesz_cholesky` of this grid, built on first use and held
        read-only for every later dual-norm solve."""
        cb = riesz_cholesky(self)
        cb.flags.writeable = False
        return cb


def build_grid(half_length: float, cells: int) -> Grid:
    """Construct a uniform grid; rejects cells < 2 or half_length <= 0."""
    return Grid(half_length=float(half_length), cells=int(cells))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Piecewise-linear function vanishing at both endpoints, as the
    profile builders return it.

    ``values`` holds the interior nodal values, the plain array both
    integrators start from; the boundary values are implicitly zero.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_interior,):
            raise ValueError(
                f"expected {self.grid.n_interior} interior values, got shape {v.shape}"
            )
        object.__setattr__(self, "values", v)

    def full(self) -> np.ndarray:
        """Nodal values including the zero endpoints."""
        out = np.zeros(self.grid.cells + 1)
        out[1:-1] = self.values
        return out


# --- matrix assembly --------------------------------------------------------

def stiffness_bands(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the interior stiffness matrix int phi_i' phi_j'."""
    n = grid.n_interior
    h = grid.h
    return np.full(n, 2.0 / h), np.full(n - 1, -1.0 / h)


def mass_bands(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the interior mass matrix int phi_i phi_j."""
    n = grid.n_interior
    h = grid.h
    return np.full(n, 2.0 * h / 3.0), np.full(n - 1, h / 6.0)


def riesz_cholesky(grid: Grid) -> np.ndarray:
    """Banded Cholesky factor of K + M, for repeated dual-norm solves."""
    kd, ko = stiffness_bands(grid)
    md, mo = mass_bands(grid)
    ab = np.zeros((2, grid.n_interior))
    ab[0, 1:] = ko + mo
    ab[1, :] = kd + md
    return cholesky_banded(ab, lower=False)


# --- direct LAPACK solves ---------------------------------------------------
#
# Two LAPACK routines make every solve: ``gtsv`` in :meth:`CrankNicolson.solve`
# each tridiagonal one, and ``pbtrs`` in :func:`riesz_solve` each dual-norm
# one.  scipy.linalg's banded solvers call the same routines on the same
# bands, so the results are bit-identical to theirs; calling them directly
# skips the per-call argument handling, which costs several times the solve
# of one tridiagonal system.  Their input checks stay: non-finite input
# raises ValueError and a singular matrix LinAlgError.  The finiteness check
# is :func:`all_finite`, one BLAS dot per array, which gives the elementwise
# scan's answer for about half its cost.

_gtsv, _pbtrs = get_lapack_funcs(("gtsv", "pbtrs"), dtype=np.float64)


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()``, mostly by one BLAS dot.

    The sum of squares of a's entries, read in memory order (no copy of a
    contiguous array in either order), is finite only if every entry is:
    an inf or NaN makes it inf or NaN.  Only a non-finite sum, from such an
    entry or from finite entries above about 1.3e154 whose squares
    overflow, falls back to the full scan, so the answer is the scan's for
    every input.  ``np.vdot`` reads the BLAS result without numpy's
    floating-point error checks, so an overflow there warns of nothing.
    """
    flat = a.ravel(order="K")
    return math.isfinite(np.vdot(flat, flat)) or bool(np.isfinite(a).all())


def stacked_bands(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """(2, n) stack of a symmetric tridiagonal matrix's bands: the diagonal,
    then the off-diagonal with a trailing zero pad."""
    bands = np.zeros((2, diag.size))
    bands[0] = diag
    bands[1, :-1] = off
    return bands


class CrankNicolson:
    """Workspace of Crank-Nicolson steps on one mesh:

        (M + tau/2 (K + A)) v' = (M - tau/2 (K + A)) v + tau load

    with K, M and the reaction matrix A symmetric tridiagonal, each held as
    a :func:`stacked_bands` stack, so that each band operation is one ufunc
    over both bands; the pads stay zero.  :meth:`system` forms and holds a
    step's bands and tau load, for any number of :meth:`solve` calls.  Each
    solve restores the held lhs, with the copy of its off-diagonal that
    ``gtsv`` takes as the upper one, next to the rhs it forms, in one
    contiguous (4, n) buffer that one :func:`all_finite` checks (LAPACK
    ``gtsv`` can return a finite solution from a non-finite band) and
    ``gtsv`` solves in place.  Nothing is allocated per step, and every
    operation has the operands and order of the fresh-array arithmetic and
    scipy's ``solve_banded``, so each solve gives their result bit for bit.
    """

    def __init__(self, stiff: tuple, mass: tuple):
        n = stiff[0].size
        self.stiff = stacked_bands(*stiff)
        self.mass = stacked_bands(*mass)
        self._half = np.empty((2, n))  # tau/2 (K + A)
        self._held = np.empty((3, n))  # lhs diagonal, off-diagonal, its copy
        self._rhs_bands = np.empty((2, n))
        self._system = np.empty((4, n))  # lhs diagonal, gtsv's unaliased dl and du, rhs
        self._product = np.empty(n - 1)
        self._load = np.empty(n)  # tau load
        # views, taken once: a slice costs a tenth of a band op
        self._lhs_bands, self._held_off, self._held_copy = self._held[:2], *self._held[1:]
        self._rhs_diag, self._rhs_off = self._rhs_bands[0], self._rhs_bands[1, :-1]
        self._lhs, self._y = self._system[:3], self._system[3]
        self._y_head, self._y_tail = self._y[:-1], self._y[1:]
        self._diag, self._lower, self._upper = self._system[0], *self._system[1:3, :-1]

    def system(self, reaction: np.ndarray, tau: float, load: np.ndarray) -> tuple:
        """Form and hold the system of a step of length tau, from the
        stacked reaction bands; returns the stacked bands (lhs, rhs) of
        M +- tau/2 (K + A), workspace views the next call overwrites."""
        half = self._half
        np.add(self.stiff, reaction, out=half)
        half *= 0.5 * tau
        np.add(self.mass, half, out=self._lhs_bands)
        np.copyto(self._held_copy, self._held_off)
        np.subtract(self.mass, half, out=self._rhs_bands)
        np.multiply(load, tau, out=self._load)
        return self._lhs_bands, self._rhs_bands

    def solve(self, v: np.ndarray, out: np.ndarray) -> None:
        """One step of the held system from the interior voltage v, into
        out, which may be v.

        A non-finite band or rhs entry raises ``ValueError``, and a singular
        matrix ``LinAlgError``, as ``solve_banded`` does; either leaves out
        untouched.  A 1x1 system is one division, as there.
        """
        np.copyto(self._lhs, self._held)  # the last solve overwrote it
        y, product, off = self._y, self._product, self._rhs_off
        np.multiply(self._rhs_diag, v, out=y)
        np.multiply(off, v[1:], out=product)
        np.add(self._y_head, product, out=self._y_head)  # y[:-1] += off * v[1:]
        np.multiply(off, v[:-1], out=product)
        np.add(self._y_tail, product, out=self._y_tail)  # y[1:] += off * v[:-1]
        y += self._load
        if not all_finite(self._system):
            raise ValueError("array must not contain infs or NaNs")
        diag = self._diag
        if diag.size == 1:
            y /= diag[0]
        else:
            # positional overwrite flags (dl, d, du, b): f2py parses them faster
            info = _gtsv(self._lower, diag, self._upper, y, 1, 1, 1, 1)[4]
            if info > 0:
                raise LinAlgError("singular matrix")
        out[...] = y

    def step(self, reaction: np.ndarray, tau: float, load: np.ndarray, v: np.ndarray,
             out: np.ndarray) -> None:
        """:meth:`system`, then :meth:`solve`: one step of length tau."""
        self.system(reaction, tau, load)
        self.solve(v, out)


def riesz_solve(cb: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Solve (K + M) u = loads given the factor from :func:`riesz_cholesky`.

    One LAPACK ``pbtrs`` call, as scipy's banded Cholesky solve makes it.
    """
    if not all_finite(loads):
        raise ValueError("array must not contain infs or NaNs")
    return _pbtrs(cb, loads)[0]


# --- norms ------------------------------------------------------------------

def _padded(grid: Grid, values: np.ndarray) -> np.ndarray:
    f = np.zeros(values.shape[:-1] + (grid.cells + 1,))
    f[..., 1:-1] = values
    return f


def gradient_sq(grid: Grid, values: np.ndarray):
    """||Du||_L2^2 of piecewise-linear functions, cell by cell.

    ``values`` holds interior nodal values along its last axis; any leading
    axes are a batch and the result keeps them.
    """
    d = np.diff(_padded(grid, values), axis=-1)
    return np.sum(d * d, axis=-1) / grid.h


def squared_norms(grid: Grid, values: np.ndarray):
    """(||u||_L2^2, ||Du||_L2^2) of piecewise-linear functions, cell by cell.

    Batched over leading axes like :func:`gradient_sq`.
    """
    f = _padded(grid, values)
    a, b = f[..., :-1], f[..., 1:]
    l2sq = grid.h / 3.0 * np.sum(a * a + a * b + b * b, axis=-1)
    return l2sq, gradient_sq(grid, values)


# Bytes of load vectors per multi-RHS dual-norm solve: the solution of a
# chunk sits next to the loads, so a series never holds a second copy of
# itself.  LAPACK ``pbtrs`` solves column by column, so the chunking does not
# change a bit of the result.
RIESZ_CHUNK_BYTES = 1 << 19


def riesz_chunk(grid: Grid) -> int:
    """Load vectors per multi-RHS solve: :data:`RIESZ_CHUNK_BYTES` of them."""
    return max(1, RIESZ_CHUNK_BYTES // (8 * grid.n_interior))


def hminus1_norms(grid: Grid, loads: np.ndarray) -> np.ndarray:
    """Dual norms sqrt(max(loads . u, 0)) with (K + M) u = loads, batched.

    ``loads`` holds load vectors along its last axis; any leading axes are a
    batch and the result keeps them.  The vectors go through multi-RHS
    :func:`riesz_solve` calls of :data:`RIESZ_CHUNK_BYTES` each, which
    solve every column as a single solve would.
    """
    loads = np.asarray(loads, dtype=float)
    flat = loads.reshape(-1, grid.n_interior)
    cb = grid.riesz_factor
    chunk = riesz_chunk(grid)
    val = np.empty(flat.shape[0])
    for i in range(0, flat.shape[0], chunk):
        part = flat[i:i + chunk]
        val[i:i + chunk] = np.einsum("ij,ij->i", part, riesz_solve(cb, part.T).T)
    return np.sqrt(np.maximum(val, 0.0)).reshape(loads.shape[:-1])


def hat_weights(grid: Grid, y: float | np.ndarray):
    """Interior hat-function values at position(s) y strictly inside the interval.

    Returns (index, w_left, w_right) where ``index`` is the cell number c so
    that y lies in [x_c, x_{c+1}]; w_left belongs to global node c and
    w_right to global node c+1.  Weights on the two boundary nodes are
    dropped by :func:`hat_scatter_arrays` (the hats there do not exist).
    """
    g = grid
    y = np.asarray(y, dtype=float)
    cell = np.floor((y + g.half_length) / g.h).astype(int)
    cell = np.clip(cell, 0, g.cells - 1)
    frac = (y - (-g.half_length + cell * g.h)) / g.h
    return cell, 1.0 - frac, frac


def hat_interpolate(full: np.ndarray, hats) -> np.ndarray:
    """Piecewise-linear interpolant of nodal values at the positions of ``hats``.

    ``full`` holds values at every node, endpoints included, along its last
    axis (leading axes are a batch); ``hats`` is the (cell, w_left, w_right)
    triple :func:`hat_weights` returns for the positions.
    """
    cell, wl, wr = hats
    # np.take, not full[..., cell]: with numpy 2.4 the Ellipsis index is
    # about twice as slow, and this runs twice per substep.
    return np.take(full, cell, axis=-1) * wl + np.take(full, cell + 1, axis=-1) * wr


def hat_scatter_arrays(grid: Grid, y: np.ndarray):
    """Interior scatter arrays (index, weight), each (2, count), of positions y.

    Row 0 is the left node of each position's cell and row 1 the right one,
    as interior indices.  A boundary node has no hat: its weight is zeroed
    and its index clipped into range.
    """
    cell, wl, wr = hat_weights(grid, y)
    last = grid.n_interior - 1
    index = np.clip(np.stack((cell - 1, cell)), 0, last)
    weight = np.stack((np.where(cell >= 1, wl, 0.0), np.where(cell <= last, wr, 0.0)))
    return index, weight


def hat_scatter_bins(index: np.ndarray, size: int, rows: int) -> np.ndarray:
    """Flat bins (row, side, position) of :func:`hat_scatter` for ``rows`` rows."""
    return (np.arange(rows)[:, None, None] * size + index).ravel()


def hat_scatter_contributors(index: np.ndarray, size: int) -> tuple:
    """(entries, start): bin j's contributors to :func:`hat_scatter` are the
    flat (side, position) indices entries[start[j]:start[j + 1]] of ``index``,
    in its summation order.  A one-side scatter of some bins' contributors,
    indexed by the bins' ordinals, gives those bins' loads bit for bit."""
    flat = index.ravel()
    entries = np.argsort(flat, kind="stable")
    return entries, np.searchsorted(flat[entries], np.arange(size + 1))


def hat_scatter(rows: np.ndarray, scatter, size: int, bins=None) -> np.ndarray:
    """Hat loads of per-position values: the dual of :func:`hat_interpolate`.

    ``rows`` holds one value per position along its last axis, as one row
    (count,) or a batch (b, count); ``scatter`` is the (index, weight) pair
    of :func:`hat_scatter_arrays`, or any (sides, count) pair of index and
    weight arrays.  Returns loads of shape rows.shape[:-1] + (size,),
    sum_i rows_i * weight[side, i] into index[side, i].

    One ``bincount`` does it.  Its bins are laid out as (row, side,
    position), so each bin receives side 0's positions in ascending order,
    then side 1's: the sums of sequential ``np.add.at`` calls, one per side.
    ``bins`` from :func:`hat_scatter_bins` for at least b rows may be
    passed to skip building them.
    """
    index, weight = scatter
    values = rows[..., None, :] * weight
    n_rows = math.prod(rows.shape[:-1])
    if bins is None:
        bins = hat_scatter_bins(index, size, n_rows)
    loads = np.bincount(bins[:values.size], weights=values.ravel(),
                        minlength=n_rows * size)
    return loads.reshape(rows.shape[:-1] + (size,))


def delta_loads(y: float, grid: Grid) -> np.ndarray:
    """Dirac mass at a point strictly inside the interval, as hat loads."""
    if not (-grid.half_length < y < grid.half_length):
        raise ValueError(f"delta position {y} not strictly inside the interval")
    return hat_scatter(np.ones(1), hat_scatter_arrays(grid, np.array([y])),
                       grid.n_interior)


def density_loads(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Loads int phi_j f dx = h/6 (f_{j-1} + 4 f_j + f_{j+1}) of the
    piecewise-linear interpolants f of nodal densities, batched.

    ``values`` holds every node, endpoints included, along its last axis;
    any leading axes are a batch and the result keeps them.
    """
    v = values
    return grid.h / 6.0 * (v[..., :-2] + 4.0 * v[..., 1:-1] + v[..., 2:])
