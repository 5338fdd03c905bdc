import numpy as np
import pytest
from scipy.linalg import solve_banded

from axonsim.errors import TruncationError
from axonsim.grid import GridFunction, build_grid
from axonsim.heat import (
    KernelParams,
    absorbed_kernel,
    apply_semigroup,
    submarkov_mass,
)

PARAMS = KernelParams(half_length=1.0)
GAUSS4 = np.polynomial.legendre.leggauss(4)


def quad_against(t, x, func, cells=3000):
    """Fine per-cell Gauss quadrature of kernel(t, x, .) against func."""
    g = build_grid(1.0, cells)
    mid = 0.5 * (g.nodes[:-1] + g.nodes[1:])
    yq = (mid[:, None] + 0.5 * g.h * GAUSS4[0][None, :]).ravel()
    wq = np.tile(0.5 * g.h * GAUSS4[1], cells)
    kern = absorbed_kernel(t, x, yq, PARAMS)
    return float(kern @ (wq * func(yq)))


def crank_nicolson_decay_factor(t=0.1, cells=2000, dt=2e-4):
    """Independent finite-difference oracle for the slowest-mode decay."""
    g = build_grid(1.0, cells)
    h = g.h
    x = g.interior_nodes
    v = np.sin(np.pi * (x + 1) / 2)
    v0 = v.copy()
    n = v.size
    lam = dt / (2 * h * h)
    ab = np.zeros((3, n))
    ab[0, 1:] = -lam
    ab[1, :] = 1 + 2 * lam
    ab[2, :-1] = -lam
    steps = int(round(t / dt))
    for _ in range(steps):
        rhs = (1 - 2 * lam) * v
        rhs[:-1] += lam * v[1:]
        rhs[1:] += lam * v[:-1]
        v = solve_banded((1, 1), ab, rhs)
    return float((v @ v0) / (v0 @ v0))


class TestKernel:
    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = rng.uniform(0.01, 1.0)
            x, y = rng.uniform(-0.95, 0.95, size=2)
            assert absorbed_kernel(t, x, y, PARAMS) == pytest.approx(
                absorbed_kernel(t, y, x, PARAMS), rel=1e-12, abs=1e-300
            )

    def test_absorbing_boundary(self):
        for y in (-0.5, 0.0, 0.7):
            assert absorbed_kernel(0.05, 1.0, y, PARAMS) <= PARAMS.truncation_tol
            assert absorbed_kernel(0.05, -1.0, y, PARAMS) <= PARAMS.truncation_tol

    def test_eigen_decay_by_quadrature(self):
        t = 0.1
        factor = np.exp(-((np.pi / 2) ** 2) * t)
        phi = lambda y: np.sin(np.pi * (y + 1) / 2)
        for x in (0.0, 0.3, -0.77):
            assert quad_against(t, x, phi) == pytest.approx(factor * phi(x), abs=1e-6)

    def test_eigen_decay_against_crank_nicolson(self):
        quad_factor = quad_against(0.1, 0.0, lambda y: np.sin(np.pi * (y + 1) / 2))
        cn_factor = crank_nicolson_decay_factor(t=0.1)
        assert quad_factor == pytest.approx(cn_factor, abs=1e-6)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            absorbed_kernel(0.0, 0.0, 0.0, PARAMS)

    def test_truncation_cap(self):
        tight = KernelParams(half_length=1.0, image_cap=1)
        with pytest.raises(TruncationError):
            absorbed_kernel(50.0, 0.0, 0.0, tight)


class TestSemigroup:
    def test_zero_function(self):
        g = build_grid(1.0, 50)
        out = apply_semigroup(0.1, GridFunction(g, np.zeros(49)), PARAMS)
        assert np.max(np.abs(out.values)) < 1e-14

    def test_mode_decay(self):
        g = build_grid(1.0, 400)
        phi = GridFunction(g, np.sin(np.pi * (g.interior_nodes + 1) / 2))
        out = apply_semigroup(0.1, phi, PARAMS)
        factor = np.exp(-((np.pi / 2) ** 2) * 0.1)
        assert np.max(np.abs(out.values - factor * phi.values)) < 1e-4

    def test_long_time_kills_mass(self):
        g = build_grid(1.0, 100)
        phi = GridFunction(g, np.sin(np.pi * (g.interior_nodes + 1) / 2))
        out = apply_semigroup(6.0, phi, PARAMS)
        assert np.max(np.abs(out.values)) < 1e-6

    def test_maximum_principle(self):
        rng = np.random.default_rng(2)
        g = build_grid(1.0, 150)
        f = GridFunction(g, rng.uniform(-1, 1, g.n_interior))
        out = apply_semigroup(0.05, f, PARAMS)
        assert np.max(np.abs(out.values)) <= np.max(np.abs(f.values)) + 1e-10

    def test_chapman_kolmogorov(self):
        g = build_grid(1.0, 400)
        phi = GridFunction(g, np.sin(np.pi * (g.interior_nodes + 1) / 2))
        two_hops = apply_semigroup(0.05, apply_semigroup(0.05, phi, PARAMS), PARAMS)
        one_hop = apply_semigroup(0.10, phi, PARAMS)
        assert np.max(np.abs(two_hops.values - one_hop.values)) < 1e-5

    def test_submarkov_mass_decreasing(self):
        masses = [submarkov_mass(t, 0.2, PARAMS) for t in (0.02, 0.1, 0.5, 1.5)]
        assert all(m <= 1.0 + 1e-12 for m in masses)
        assert all(b < a for a, b in zip(masses, masses[1:]))
