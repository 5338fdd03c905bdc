"""Dirichlet heat kernel on [-l, l] and the associated absorbed semigroup.

The evolution is du/dt = Laplacian(u) with absorbing endpoints, so the
free-space kernel is exp(-|x-y|^2/4t)/sqrt(4 pi t) and the kernel on the
interval is its method-of-images series.  Used as an analytic oracle for
the PDE integrators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .grid import Grid, GridFunction, hat_interpolate, hat_weights

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(4)


@dataclass(frozen=True)
class KernelParams:
    """Evaluation controls for the image series.

    ``truncation_tol``: stop once a full image ring contributes less.
    ``image_cap``: maximum number of rings; exceeded means the series did
    not converge and evaluation raises :class:`TruncationError`.
    """

    half_length: float
    truncation_tol: float = 1e-14
    image_cap: int = 64

    def __post_init__(self):
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")
        if self.truncation_tol <= 0:
            raise ValueError("truncation_tol must be positive")
        if self.image_cap < 1:
            raise ValueError("image_cap must be at least 1")


def _gauss(z: np.ndarray, t: float) -> np.ndarray:
    return np.exp(-z * z / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)


def absorbed_kernel(t: float, x, y, params: KernelParams):
    """Heat kernel with absorbing endpoints, via the image series.

    Symmetric in (x, y); vanishes at the endpoints.  Accepts scalars or
    broadcastable arrays for x and y.
    """
    if t <= 0:
        raise ValueError(f"kernel time must be positive, got {t}")
    l = params.half_length
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) > l) or np.any(np.abs(y) > l):
        raise ValueError("kernel arguments must lie in the interval")
    period = 4.0 * l
    d = x - y
    s = x + y + 2.0 * l
    val = _gauss(d, t) - _gauss(s, t)
    converged = False
    for n in range(1, params.image_cap + 1):
        shift = n * period
        ring = (
            _gauss(d - shift, t)
            + _gauss(d + shift, t)
            - _gauss(s - shift, t)
            - _gauss(s + shift, t)
        )
        val = val + ring
        if float(np.max(np.abs(ring))) < params.truncation_tol:
            converged = True
            break
    if not converged:
        raise TruncationError(
            f"image series not converged after {params.image_cap} rings (t={t})"
        )
    return np.maximum(val, 0.0) if val.ndim else float(max(val, 0.0))


def _cell_quadrature(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of 4-point Gauss quadrature on every cell."""
    nodes = grid.nodes
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    yq = (mid[:, None] + 0.5 * grid.h * _GAUSS_NODES[None, :]).ravel()
    wq = np.tile(0.5 * grid.h * _GAUSS_WEIGHTS, grid.cells)
    return yq, wq


def apply_semigroup(t: float, f: GridFunction, params: KernelParams) -> GridFunction:
    """Apply the absorbed semigroup to the interpolant of f.

    Per-cell 4-point Gauss quadrature of the kernel against the piecewise
    linear interpolant; obeys the maximum principle up to quadrature error.
    """
    if t <= 0:
        raise ValueError(f"semigroup time must be positive, got {t}")
    grid = f.grid
    yq, wq = _cell_quadrature(grid)
    fq = hat_interpolate(f.full(), hat_weights(grid, yq))
    out = np.empty(grid.n_interior)
    xs = grid.interior_nodes
    block = max(1, 2_000_000 // max(yq.size, 1))
    for start in range(0, xs.size, block):
        stop = min(start + block, xs.size)
        kern = absorbed_kernel(t, xs[start:stop, None], yq[None, :], params)
        out[start:stop] = kern @ (wq * fq)
    return GridFunction(grid, out)


def submarkov_mass(t: float, x: float, params: KernelParams, cells: int = 2000) -> float:
    """Total kernel mass int p_t(x, y) dy, always at most one."""
    yq, wq = _cell_quadrature(Grid(params.half_length, cells))
    kern = absorbed_kernel(t, x, yq, params)
    return float(kern @ wq)

