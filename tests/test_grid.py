import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_solve_banded, solve_banded

from axonsim import grid
from axonsim.grid import (
    CrankNicolson,
    Grid,
    GridFunction,
    all_finite,
    build_grid,
    delta_loads,
    density_loads,
    hat_interpolate,
    hat_scatter,
    hat_scatter_arrays,
    hat_scatter_bins,
    hat_scatter_contributors,
    hat_weights,
    hminus1_norms,
    mass_bands,
    riesz_cholesky,
    riesz_chunk,
    riesz_solve,
    squared_norms,
    stacked_bands,
    stiffness_bands,
)
from conftest import eval_at, pairing

GAUSS2 = np.polynomial.legendre.leggauss(2)


def quad_l2sq(u: GridFunction) -> float:
    """Independent oracle: per-cell 2-point Gauss quadrature of u^2.

    Exact for the squared piecewise-linear interpolant.
    """
    nodes = u.grid.nodes
    full = u.full()
    h = u.grid.h
    total = 0.0
    for j in range(u.grid.cells):
        mid = 0.5 * (nodes[j] + nodes[j + 1])
        for z, w in zip(*GAUSS2):
            x = mid + 0.5 * h * z
            frac = (x - nodes[j]) / h
            val = full[j] * (1 - frac) + full[j + 1] * frac
            total += 0.5 * h * w * val * val
    return total


def quad_gradsq(u: GridFunction) -> float:
    full = u.full()
    return float(np.sum(np.diff(full) ** 2) / u.grid.h)


def dense_riesz_norm(g: Grid, loads: np.ndarray) -> float:
    """Independent oracle: dense assembly and solve of (K + M) u = loads."""
    kd, ko = stiffness_bands(g)
    md, mo = mass_bands(g)
    A = np.diag(kd + md)
    off = ko + mo
    A += np.diag(off, 1) + np.diag(off, -1)
    u = np.linalg.solve(A, loads)
    return float(np.sqrt(loads @ u))


def h10_norm(u: GridFunction) -> float:
    """sqrt(||u||_L2^2 + ||Du||_L2^2) from ``squared_norms``."""
    l2sq, dsq = squared_norms(u.grid, u.values)
    return float(np.sqrt(l2sq + dsq))


def sine_density(g: Grid) -> np.ndarray:
    """The slowest Dirichlet mode at every node, endpoints included."""
    return np.sin(np.pi * (g.nodes + 1) / 2)


def mode1(grid: Grid) -> GridFunction:
    x = grid.interior_nodes
    l = grid.half_length
    return GridFunction(grid, np.sin(np.pi * (x + l) / (2 * l)))


class TestBuildGrid:
    def test_nodes_and_spacing(self):
        g = build_grid(1.0, 4)
        assert np.allclose(g.nodes, [-1, -0.5, 0, 0.5, 1])
        assert g.h == 0.5

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError):
            build_grid(1.0, 1)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            build_grid(0.0, 4)

    def test_interior_count(self):
        g = build_grid(2.5, 10)
        assert g.h == 0.5
        assert g.n_interior == 9


class TestL2Norm:
    """The first of ``squared_norms``: ||u||_L2^2."""

    def test_zero(self):
        g = build_grid(1.0, 8)
        assert squared_norms(g, np.zeros(7))[0] == 0.0

    def test_sine_mode(self):
        g = build_grid(1.0, 2000)
        u = mode1(g)
        l2sq, _ = squared_norms(g, u.values)
        assert np.sqrt(l2sq) == pytest.approx(1.0, abs=1e-6)
        assert l2sq == pytest.approx(quad_l2sq(u), abs=1e-12)

    def test_single_hat(self):
        g = build_grid(1.0, 4)
        vals = np.zeros(3)
        vals[1] = 1.0
        u = GridFunction(g, vals)
        l2sq, _ = squared_norms(g, vals)
        assert np.sqrt(l2sq) == pytest.approx(np.sqrt(2 * g.h / 3), rel=1e-14)
        assert l2sq == pytest.approx(quad_l2sq(u), abs=1e-14)


class TestH10Norm:
    """Both of ``squared_norms``: ||u||_L2^2 + ||Du||_L2^2."""

    def test_zero(self):
        g = build_grid(1.0, 8)
        assert h10_norm(GridFunction(g, np.zeros(7))) == 0.0

    def test_sine_mode(self):
        g = build_grid(1.0, 2000)
        u = mode1(g)
        assert h10_norm(u) == pytest.approx(np.sqrt(1 + np.pi**2 / 4), abs=1e-4)

    def test_single_hat(self):
        g = build_grid(1.0, 10)
        vals = np.zeros(9)
        vals[4] = 1.0
        u = GridFunction(g, vals)
        expected = np.sqrt(2 * g.h / 3 + 2 / g.h)
        assert h10_norm(u) == pytest.approx(expected, rel=1e-14)
        quad = np.sqrt(quad_l2sq(u) + quad_gradsq(u))
        assert h10_norm(u) == pytest.approx(quad, rel=1e-13)


class TestDualNorm:
    """``hminus1_norms`` on one load array."""

    def test_zero_loads(self):
        g = build_grid(1.0, 8)
        assert hminus1_norms(g, np.zeros(7)) == 0.0

    def test_delta_at_origin(self):
        g = build_grid(1.0, 2000)
        val = hminus1_norms(g, delta_loads(0.0, g))
        assert val == pytest.approx(np.sqrt(np.tanh(1.0) / 2), abs=1e-3)

    def test_delta_against_dense_solve(self):
        g = build_grid(1.0, 200)
        loads = delta_loads(0.1, g)
        assert hminus1_norms(g, loads) == pytest.approx(dense_riesz_norm(g, loads),
                                                        rel=1e-12)

    def test_density_of_sine_mode(self):
        g = build_grid(1.0, 2000)
        loads = density_loads(g, sine_density(g))
        assert hminus1_norms(g, loads) == pytest.approx(1 / np.sqrt(1 + np.pi**2 / 4),
                                                        abs=1e-3)
        g2 = build_grid(1.0, 120)
        loads2 = density_loads(g2, sine_density(g2))
        assert hminus1_norms(g2, loads2) == pytest.approx(dense_riesz_norm(g2, loads2),
                                                          rel=1e-12)


class TestBatchedDualNorm:
    @given(cells=st.integers(2, 60),
           batch=st.lists(st.integers(1, 4), min_size=0, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_single_vector_solves(self, cells, batch, seed):
        g = build_grid(1.0, cells)
        loads = np.random.default_rng(seed).normal(size=(*batch, g.n_interior))
        norms = hminus1_norms(g, loads)
        assert norms.shape == tuple(batch)
        cb = riesz_cholesky(g)
        flat = loads.reshape(-1, g.n_interior)
        ref = [np.sqrt(max(float(f @ riesz_solve(cb, f)), 0.0)) for f in flat]
        np.testing.assert_allclose(norms.ravel(), ref, rtol=1e-13, atol=0.0)

    @given(cells=st.integers(2, 60), n=st.integers(1, 5))
    def test_zero_loads_exactly_zero(self, cells, n):
        g = build_grid(1.0, cells)
        loads = np.zeros((n, g.n_interior))
        loads[1:] = 1.0
        norms = hminus1_norms(g, loads)
        assert norms[0] == 0.0
        assert np.all(norms[1:] > 0.0)


class TestChunkedDualNorm:
    """Column chunks of the multi-RHS solve leave every norm bit-identical."""

    def test_riesz_solve_matches_cho_solve_banded(self):
        g = build_grid(1.0, 40)
        cb = riesz_cholesky(g)
        loads = np.random.default_rng(5).normal(size=(g.n_interior, 9))
        for rhs in (loads[:, 0], loads, loads[:, ::2]):
            assert np.array_equal(riesz_solve(cb, rhs), cho_solve_banded((cb, False), rhs))
        with pytest.raises(ValueError):
            riesz_solve(cb, np.full(g.n_interior, np.nan))

    @pytest.mark.parametrize("columns", [1, 3, 7, 46])
    def test_chunks_match_one_call(self, monkeypatch, columns):
        g = build_grid(1.0, 40)
        loads = np.random.default_rng(11).normal(size=(23, 2, g.n_interior))
        monkeypatch.setattr(grid, "RIESZ_CHUNK_BYTES", 1 << 30)
        whole = hminus1_norms(g, loads)
        whole_slice = hminus1_norms(g, loads[:, 1])
        calls = []
        solve = grid.riesz_solve

        def counting_solve(cb, rhs):
            calls.append(rhs.shape[1])
            return solve(cb, rhs)

        monkeypatch.setattr(grid, "riesz_solve", counting_solve)
        monkeypatch.setattr(grid, "RIESZ_CHUNK_BYTES", columns * 8 * g.n_interior)
        assert np.array_equal(hminus1_norms(g, loads), whole)
        assert calls == [columns] * (46 // columns) + [46 % columns] * (46 % columns > 0)
        assert np.array_equal(hminus1_norms(g, loads[:, 1]), whole_slice)


    def test_series_call_matches_a_call_per_state(self):
        # a replay chunk's shape at the default mesh: riesz_chunk rows, 2 states
        g = build_grid(1.0, 200)
        loads = np.random.default_rng(12).normal(size=(riesz_chunk(g), 2, g.n_interior))
        per_state = np.stack([hminus1_norms(g, loads[:, s]) for s in range(2)], axis=1)
        assert np.array_equal(hminus1_norms(g, loads), per_state)

    def test_factor_is_built_once_and_held_read_only(self):
        g = build_grid(1.0, 30)
        cb = g.riesz_factor
        assert g.riesz_factor is cb
        assert not cb.flags.writeable
        assert np.array_equal(cb, riesz_cholesky(g))


def banded(lower, diag, upper):
    """The (1, 1) banded storage scipy's solver reads."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper
    ab[1] = diag
    ab[2, :-1] = lower
    return ab


def tridiag_bands(n, seed, slack):
    """Random diagonally dominant symmetric bands (diag, off) and a rhs:
    |d_i| = (1 + slack)(|o_i-1| + |o_i|)."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, n - 1)
    total = np.zeros(n)
    total[1:] += np.abs(off)
    total[:-1] += np.abs(off)
    total[total == 0.0] = rng.uniform(0.5, 2.0)
    diag = rng.choice([-1.0, 1.0], n) * total * (1.0 + slack)
    rhs = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    return diag, off, rhs


# Finite values at the ends of the float64 range: squares that overflow or
# underflow, the largest and smallest magnitudes, subnormals and signed zeros.
FINITE = st.one_of(
    st.sampled_from([1.7e308, -1.7e308, np.finfo(float).max, -np.finfo(float).max,
                     1.4e154, -1e200, np.finfo(float).tiny, 5e-324, -5e-324, 0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False))


class TestAllFinite:
    """``all_finite`` answers as ``np.isfinite(a).all()`` for every input,
    and warns of nothing."""

    @given(data=st.data(), rows=st.integers(0, 40), cols=st.integers(0, 6),
           layout=st.sampled_from(["1-d", "f-view"]),
           bad=st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=3))
    def test_matches_the_scan(self, data, rows, cols, layout, bad):
        if layout == "1-d":
            a = np.array(data.draw(st.lists(FINITE, max_size=300)), dtype=float)
        else:
            # a transposed C-ordered block, as riesz_solve's part.T
            values = data.draw(st.lists(FINITE, min_size=rows * cols,
                                        max_size=rows * cols))
            a = np.array(values, dtype=float).reshape(cols, rows).T
            assert a.flags.f_contiguous
        for value in bad if a.size else []:
            a.T.flat[data.draw(st.integers(0, a.size - 1))] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = all_finite(a)
        assert isinstance(got, bool)
        assert got == bool(np.isfinite(a).all())

    @pytest.mark.parametrize("a", [np.empty(0), np.empty((0, 3)).T, np.empty((4, 0))])
    def test_empty_is_finite(self, a):
        assert all_finite(a) is True


def dense(diag, off):
    """The full matrix of a symmetric tridiagonal one's bands."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def cn_bands(stiff, mass, reaction, tau):
    """(lhs diagonal, lhs off-diagonal, rhs diagonal, rhs off-diagonal) of
    M +- tau/2 (K + A) in fresh arrays, from (diagonal, off-diagonal) pairs:
    the oracle of ``CrankNicolson.system``."""
    (kd, ko), (md, mo), (ad, ao) = stiff, mass, reaction
    half = 0.5 * tau
    half_diag = half * (kd + ad)
    half_off = half * (ko + ao)
    return md + half_diag, mo + half_off, md - half_diag, mo - half_off


def tridiag_matvec(diag, off, x):
    """Symmetric tridiagonal product in fresh arrays: the oracle of the
    rhs that ``CrankNicolson.solve`` forms."""
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def fresh_step(stiff, mass, reaction, tau, load, v):
    """A Crank-Nicolson step in fresh arrays, solved by scipy: the oracle of
    ``CrankNicolson.step`` and of each ``solve`` of a held system."""
    lhs_d, lhs_o, rhs_d, rhs_o = cn_bands(stiff, mass, reaction, tau)
    rhs = tridiag_matvec(rhs_d, rhs_o, v)
    rhs += tau * load
    return solve_banded((1, 1), banded(lhs_o, lhs_d, lhs_o), rhs)


def workspace_solve(diag, off, rhs):
    """x with (diag, off) x = rhs, by a workspace step from v = 0 with zero
    stiffness and reaction and tau = 1: its lhs is then the mass matrix
    (diag, off) and its rhs the load, bit for bit.  A non-finite band
    entry times v = 0 is NaN, which the step rejects."""
    n = diag.size
    zero = (np.zeros(n), np.zeros(n - 1))
    x = np.zeros(n)
    with np.errstate(invalid="ignore"):
        CrankNicolson(zero, (diag, off)).step(stacked_bands(*zero), 1.0, rhs, x, x)
    return x


def random_bands(rng, n, count):
    """``count`` random (diagonal, off-diagonal) pairs of size n."""
    return [(rng.normal(size=n), rng.normal(size=n - 1)) for _ in range(count)]


class TestTridiagSolve:
    """The workspace's tridiagonal solve, the package's only one, is
    scipy's banded solve of the symmetric system, bit for bit, and fails as
    it does."""

    @given(n=st.one_of(st.integers(1, 3), st.integers(4, 300)),
           slack=st.sampled_from([0.0, 1e-15, 1e-9, 1e-3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_solve_banded(self, n, slack, seed):
        diag, off, rhs = tridiag_bands(n, seed, slack)
        try:
            expected = solve_banded((1, 1), banded(off, diag, off), rhs)
        except LinAlgError:
            with pytest.raises(LinAlgError):
                workspace_solve(diag, off, rhs)
            return
        assert np.array_equal(workspace_solve(diag, off, rhs), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n, band", [
        (1, "diag"), (1, "rhs"),
        *((n, band) for n in (2, 6) for band in ("lower", "diag", "upper", "rhs")),
    ])
    @given(data=st.data())
    def test_non_finite_input_raises_value_error(self, n, band, bad, data):
        """At every position of every band.  A symmetric system's lower and
        upper bands are its one off-diagonal, so both names corrupt it.
        The bands must be checked, not only the result: LAPACK ``gtsv`` can
        return an all-finite solution for an infinite band entry."""
        diag, off, rhs = tridiag_bands(n, n, 0.5)
        bands = {"lower": off, "diag": diag, "upper": off, "rhs": rhs}
        bands[band][data.draw(st.integers(0, bands[band].size - 1))] = bad
        with pytest.raises(ValueError):
            solve_banded((1, 1), banded(off, diag, off), rhs)
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            workspace_solve(diag, off, rhs)

    @pytest.mark.parametrize("lower, diag, upper", [
        ([1.0], [1.0, 1.0], [1.0]),                         # rank one
        ([0.0, 0.0], [1.0, 0.0, 2.0], [0.0, 0.0]),          # a zero pivot
        ([1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0]),          # after row swaps
    ])
    def test_singular_raises_lin_alg_error(self, lower, diag, upper):
        assert lower == upper  # the workspace's systems are symmetric
        off, diag = np.array(lower), np.array(diag)
        rhs = np.ones(diag.size)
        with pytest.raises(LinAlgError):
            solve_banded((1, 1), banded(off, diag, off), rhs)
        with pytest.raises(LinAlgError):
            workspace_solve(diag, off, rhs)

    def test_inputs_untouched(self):
        """A step into a separate array leaves every array it was given alone."""
        rng = np.random.default_rng(3)
        stiff, mass, reaction = random_bands(rng, 9, 3)
        bands = stacked_bands(*reaction)
        load, v = rng.normal(size=9), rng.normal(size=9)
        inputs = [*stiff, *mass, bands, load, v]
        before = [a.copy() for a in inputs]
        CrankNicolson(stiff, mass).step(bands, 0.1, load, v, np.empty(9))
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)


class TestCrankNicolsonOperator:
    """The workspace's held bands give (M +- tau/2 (K + A)) @ x."""

    @given(n=st.one_of(st.integers(1, 2), st.integers(3, 60)),
           tau=st.floats(1e-6, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_product(self, n, tau, seed):
        rng = np.random.default_rng(seed)
        stiff, mass, reaction = random_bands(rng, n, 3)
        x = rng.normal(size=n)
        cn = CrankNicolson(stiff, mass)
        lhs, rhs = cn.system(stacked_bands(*reaction), tau, np.zeros(n))
        op = dense(*stiff) + dense(*reaction)
        for bands, sign in ((lhs, 1.0), (rhs, -1.0)):
            expected = (dense(*mass) + sign * 0.5 * tau * op) @ x
            mag = (np.abs(dense(*mass)) + 0.5 * tau * np.abs(op)) @ np.abs(x)
            got = tridiag_matvec(bands[0], bands[1, :-1], x)
            assert np.all(np.abs(got - expected) <= 1e-12 * mag)


class TestCrankNicolsonStep:
    """A workspace step, and each solve of a held system, is ``cn_bands``,
    ``tridiag_matvec`` and ``solve_banded`` in fresh arrays, bit for bit,
    and fails as they do."""

    @given(n=st.one_of(st.integers(1, 3), st.integers(4, 200)),
           taus=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_fresh_arrays(self, n, taus, seed):
        """Repeated steps on one workspace, each with its own tau, reaction,
        load and voltage, in place and into a separate array."""
        rng = np.random.default_rng(seed)
        stiff, mass = random_bands(rng, n, 2)
        cn = CrankNicolson(stiff, mass)
        for call, tau in enumerate(taus):
            (reaction,) = random_bands(rng, n, 1)
            load, v = rng.normal(size=n), rng.normal(size=n)
            lhs_d, lhs_o, rhs_d, rhs_o = cn_bands(stiff, mass, reaction, tau)
            lhs, rhs = cn.system(stacked_bands(*reaction), tau, load)
            assert np.array_equal(lhs, stacked_bands(lhs_d, lhs_o))
            assert np.array_equal(rhs, stacked_bands(rhs_d, rhs_o))

            out = v if call % 2 else np.full(n, np.nan)
            before = out.copy()
            try:
                expected = fresh_step(stiff, mass, reaction, tau, load, v)
            except LinAlgError:
                with pytest.raises(LinAlgError):
                    cn.step(stacked_bands(*reaction), tau, load, v, out)
                assert np.array_equal(out, before, equal_nan=True)
                continue
            cn.step(stacked_bands(*reaction), tau, load, v, out)
            assert np.array_equal(out, expected, equal_nan=True)

    @given(n=st.one_of(st.integers(1, 3), st.integers(4, 200)),
           systems=st.lists(st.tuples(st.floats(1e-6, 10.0), st.integers(1, 4)),
                            min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_held_system_matches_fresh_steps(self, n, systems, seed):
        """``system`` calls interleaved with several ``solve`` calls each,
        from changing voltages, in place and into a separate array.  Every
        solve is the fresh-array step of the held system, whatever became
        of the arrays the system was formed from."""
        rng = np.random.default_rng(seed)
        stiff, mass = random_bands(rng, n, 2)
        cn = CrankNicolson(stiff, mass)
        call = 0
        for tau, solves in systems:
            (reaction,) = random_bands(rng, n, 1)
            load = rng.normal(size=n)
            bands, given_load = stacked_bands(*reaction), load.copy()
            cn.system(bands, tau, given_load)
            bands[...] = np.nan
            given_load[...] = np.nan
            for _ in range(solves):
                v = rng.normal(size=n)
                out = v if call % 2 else np.full(n, np.nan)
                call += 1
                before = out.copy()
                try:
                    expected = fresh_step(stiff, mass, reaction, tau, load, v)
                except LinAlgError:
                    with pytest.raises(LinAlgError):
                        cn.solve(v, out)
                    assert np.array_equal(out, before, equal_nan=True)
                    continue
                cn.solve(v, out)
                assert np.array_equal(out, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @given(data=st.data())
    def test_non_finite_held_band_raises_on_every_solve(self, bad, data):
        """A non-finite entry anywhere in the held reaction bands, pad
        included, fails each solve of the system, and each leaves the
        voltage alone."""
        rng = np.random.default_rng(5)
        n = data.draw(st.sampled_from([1, 2, 6]))
        stiff, mass, reaction = random_bands(rng, n, 3)
        bands = stacked_bands(*reaction)
        bands[data.draw(st.integers(0, 1)), data.draw(st.integers(0, n - 1))] = bad
        cn = CrankNicolson(stiff, mass)
        cn.system(bands, 0.1, rng.normal(size=n))
        for in_place in (True, False, True):
            v = rng.normal(size=n)
            before = v.copy()
            with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
                cn.solve(v, v if in_place else np.empty(n))
            assert np.array_equal(v, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 2, 6])
    @given(data=st.data())
    def test_non_finite_input_raises_value_error(self, n, bad, data):
        """At every position of every band and of the load and the voltage,
        with the voltage stepped in place; the voltage is left alone."""
        rng = np.random.default_rng(n)
        stiff, mass, reaction = random_bands(rng, n, 3)
        load, v = rng.normal(size=n), rng.normal(size=n)
        arrays = [a for a in (*stiff, *mass, *reaction, load, v) if a.size]
        target = data.draw(st.sampled_from(arrays))
        target[data.draw(st.integers(0, target.size - 1))] = bad
        with pytest.raises(ValueError) as expected:
            fresh_step(stiff, mass, reaction, 0.1, load, v)
        before = v.copy()
        with pytest.raises(ValueError) as got:
            CrankNicolson(stiff, mass).step(stacked_bands(*reaction), 0.1, load, v, v)
        assert str(got.value) == str(expected.value)
        assert np.array_equal(v, before, equal_nan=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_band_raises_where_gtsv_would_not(self, bad):
        """The bands are checked, not only the rhs: a non-finite entry in the
        reaction's off-diagonal pad reaches no LAPACK input, so ``gtsv`` on
        the step's system returns a finite solution, and the step still
        raises."""
        rng = np.random.default_rng(3)
        n = 6
        stiff, mass, reaction = random_bands(rng, n, 3)
        load, v = rng.normal(size=n), rng.normal(size=n)
        bands = stacked_bands(*reaction)
        bands[1, -1] = bad
        cn = CrankNicolson(stiff, mass)
        lhs, rhs_bands = cn.system(bands, 0.1, load)
        assert not np.isfinite(lhs[1, -1])
        rhs = tridiag_matvec(rhs_bands[0], rhs_bands[1, :-1], v) + 0.1 * load
        x, info = grid._gtsv(lhs[1, :-1], lhs[0], lhs[1, :-1], rhs)[3:]
        assert info == 0 and np.isfinite(x).all()
        before = v.copy()
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            cn.step(bands, 0.1, load, v, v)
        assert np.array_equal(v, before)

    @pytest.mark.parametrize("diag, off", [
        ([1.0, 1.0], [1.0]),                  # rank one
        ([1.0, 0.0, 2.0], [0.0, 0.0]),        # a zero pivot
    ])
    def test_singular_raises_lin_alg_error(self, diag, off):
        """A singular lhs leaves the caller's voltage unchanged."""
        diag, off = np.array(diag), np.array(off)
        zero = (np.zeros(diag.size), np.zeros(off.size))
        load, v = np.ones(diag.size), np.arange(1.0, diag.size + 1)
        with pytest.raises(LinAlgError):
            fresh_step(zero, (diag, off), zero, 0.1, load, v)
        before = v.copy()
        with pytest.raises(LinAlgError):
            CrankNicolson(zero, (diag, off)).step(stacked_bands(*zero), 0.1, load, v, v)
        assert np.array_equal(v, before)


class TestDelta:
    def test_at_node(self):
        g = build_grid(1.0, 4)
        assert np.allclose(delta_loads(0.0, g), [0, 1, 0])

    def test_midway(self):
        g = build_grid(1.0, 4)
        assert np.allclose(delta_loads(0.25, g), [0, 0.5, 0.5])

    def test_pairing_is_point_evaluation(self):
        rng = np.random.default_rng(7)
        g = build_grid(1.0, 17)
        u = GridFunction(g, rng.normal(size=g.n_interior))
        for y in rng.uniform(-0.99, 0.99, size=20):
            assert pairing(u, delta_loads(y, g)) == pytest.approx(
                eval_at(u, y), abs=1e-13
            )

    def test_matches_old_body(self):
        for cells in (2, 4, 17, 200):
            g = build_grid(1.0, cells)
            ys = np.concatenate((np.linspace(-0.999, 0.999, 401), g.nodes[1:-1]))
            for y in ys:
                assert np.array_equal(delta_loads(float(y), g),
                                      old_delta_loads(float(y), g))

    def test_rejects_boundary(self):
        g = build_grid(1.0, 4)
        with pytest.raises(ValueError):
            delta_loads(1.0, g)
        with pytest.raises(ValueError):
            delta_loads(-1.5, g)


class TestDensity:
    def test_zero(self):
        g = build_grid(1.0, 6)
        assert np.all(density_loads(g, np.zeros(7)) == 0)

    def test_constant_one(self):
        g = build_grid(1.0, 10)
        assert np.allclose(density_loads(g, np.ones(11)), g.h)

    def test_sine_pairing(self):
        g = build_grid(1.0, 2000)
        u = mode1(g)
        assert pairing(u, density_loads(g, u.full())) == pytest.approx(1.0, abs=1e-6)

    def test_against_quadrature(self):
        rng = np.random.default_rng(3)
        g = build_grid(1.0, 12)
        f = rng.normal(size=13)
        loads = density_loads(g, f)
        # hat x linear is quadratic per cell: Gauss-2 is exact
        nodes = g.nodes
        for j in range(1, g.cells):
            total = 0.0
            for cell in (j - 1, j):
                mid = 0.5 * (nodes[cell] + nodes[cell + 1])
                for z, w in zip(*GAUSS2):
                    x = mid + 0.5 * g.h * z
                    frac = (x - nodes[cell]) / g.h
                    fval = f[cell] * (1 - frac) + f[cell + 1] * frac
                    hat = frac if cell == j - 1 else 1 - frac
                    total += 0.5 * g.h * w * fval * hat
            assert loads[j - 1] == pytest.approx(total, abs=1e-14)


class TestEvalAt:
    def test_boundary_is_zero(self):
        g = build_grid(1.0, 4)
        u = GridFunction(g, np.array([1.0, 2.0, 3.0]))
        assert eval_at(u, -1.0) == 0.0
        assert eval_at(u, 1.0) == 0.0

    def test_nodal_and_midway(self):
        g = build_grid(1.0, 4)
        u = GridFunction(g, np.array([1.0, 2.0, 3.0]))
        assert eval_at(u, -0.5) == 1.0
        assert eval_at(u, -0.25) == pytest.approx(1.5)

    def test_rejects_outside(self):
        g = build_grid(1.0, 4)
        u = GridFunction(g, np.zeros(3))
        with pytest.raises(ValueError):
            eval_at(u, 1.2)


class TestHatInterpolate:
    @given(cells=st.integers(2, 40), batch=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_linear_interpolation(self, cells, batch, seed):
        g = build_grid(1.0, cells)
        rng = np.random.default_rng(seed)
        full = rng.normal(size=(batch, cells + 1))
        x = rng.uniform(-1.0, 1.0, size=17)
        got = hat_interpolate(full, hat_weights(g, x))
        for b in range(batch):
            assert np.array_equal(got[b], hat_interpolate(full[b], hat_weights(g, x)))
            np.testing.assert_allclose(got[b], np.interp(x, g.nodes, full[b]),
                                       rtol=0, atol=1e-12)


def add_at_scatter(rows, scatter, size):
    """Oracle: hat loads of each row by one ``np.add.at`` per side, side 0 first."""
    index, weight = scatter
    rows = np.asarray(rows, dtype=float)
    flat = rows.reshape(-1, rows.shape[-1])
    out = np.zeros((flat.shape[0], size))
    for loads, row in zip(out, flat):
        for idx, wt in zip(index, weight):
            np.add.at(loads, idx, row * wt)
    return out.reshape(rows.shape[:-1] + (size,))


def old_delta_loads(y, g):
    """Oracle: the body of ``delta_loads`` before it used the scatter kernel."""
    loads = np.zeros(g.n_interior)
    cell, wl, wr = hat_weights(g, y)
    c = int(cell)
    if c >= 1:
        loads[c - 1] += wl
    if c + 1 <= g.cells - 1:
        loads[c] += wr
    return loads


@st.composite
def scatter_positions(draw):
    """A grid and positions inside it: random, on nodes, and in the outermost
    cells, where one of the two hats is truncated."""
    cells = draw(st.integers(2, 40))
    g = build_grid(1.0, cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 40))
    on_nodes = rng.choice(g.nodes[1:-1], size=count)
    outer = rng.uniform(0.0, g.h, size=count) * rng.choice([-1.0, 1.0], size=count)
    outer = np.where(outer < 0, -1.0 - outer, 1.0 - outer)
    inside = rng.uniform(-1.0, 1.0, size=count)
    kind = rng.integers(0, 3, size=count)
    positions = np.choose(kind, (inside, on_nodes, outer))
    positions = positions[np.abs(positions) < 1.0]
    return g, positions if positions.size else np.array([0.0]), rng


class TestHatScatter:
    @given(setup=scatter_positions(), batch=st.integers(1, 8))
    def test_matches_per_row_add_at(self, setup, batch):
        g, x, rng = setup
        scatter = hat_scatter_arrays(g, x)
        rows = rng.normal(size=(batch, x.size))
        got = hat_scatter(rows, scatter, g.n_interior)
        assert got.shape == (batch, g.n_interior)
        assert np.array_equal(got, add_at_scatter(rows, scatter, g.n_interior))
        assert np.array_equal(hat_scatter(rows[0], scatter, g.n_interior), got[0])
        bins = hat_scatter_bins(scatter[0], g.n_interior, batch + 3)
        assert np.array_equal(hat_scatter(rows, scatter, g.n_interior, bins), got)

    @given(setup=scatter_positions(), batch=st.integers(1, 8))
    def test_adjoint_of_interpolation(self, setup, batch):
        g, x, rng = setup
        rows = rng.normal(size=(batch, x.size))
        phi = GridFunction(g, rng.normal(size=g.n_interior))
        lhs = hat_scatter(rows, hat_scatter_arrays(g, x), g.n_interior) @ phi.values
        rhs = rows @ hat_interpolate(phi.full(), hat_weights(g, x))
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    @given(setup=scatter_positions())
    def test_arrays_drop_only_the_boundary_hats(self, setup):
        g, x, _ = setup
        (idx_lo, idx_hi), (wt_lo, wt_hi) = hat_scatter_arrays(g, x)
        cell, wl, wr = hat_weights(g, x)
        assert idx_lo.min() >= 0 and idx_hi.max() <= g.n_interior - 1
        assert np.array_equal(wt_lo, np.where(cell == 0, 0.0, wl))
        assert np.array_equal(wt_hi, np.where(cell == g.cells - 1, 0.0, wr))
        assert np.array_equal(idx_lo[cell >= 1], cell[cell >= 1] - 1)
        assert np.array_equal(idx_hi[cell <= g.cells - 2], cell[cell <= g.cells - 2])

    def test_one_sided_scatter(self):
        # one (1, count) pair of index and weight arrays, as B's off-diagonal uses
        g = build_grid(1.0, 10)
        index = np.array([[0, 3, 3, 7]])
        weight = np.array([[0.5, 0.25, 0.125, 1.0]])
        rows = np.array([2.0, 4.0, 8.0, 1.0])
        expected = np.zeros(8)
        expected[[0, 3, 7]] = [1.0, 2.0, 1.0]
        assert np.array_equal(hat_scatter(rows, (index, weight), 8), expected)


class TestScatterContributors:
    @given(cells=st.integers(3, 60), count=st.integers(1, 50), batch=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_pair_sums_match_the_scatter(self, cells, count, batch, seed):
        """Loads of any set of bins, as one-side scatters of their listed
        contributors, are the full scatter's bits."""
        g = build_grid(1.0, cells)
        rng = np.random.default_rng(seed)
        # inside, on interior nodes, and in the two boundary cells, where
        # one hat weight is zero
        inside = rng.uniform(-1.0, 1.0, size=count)
        on_nodes = rng.choice(g.nodes[1:-1], size=count)
        edge = rng.uniform(0.0, g.h, size=count) - 1.0
        edge = np.where(rng.random(count) < 0.5, edge, -edge)
        x = np.choose(rng.integers(0, 3, size=count), (inside, on_nodes, edge))
        x = np.clip(x, -1.0 + 1e-12, 1.0 - 1e-12)
        rows = rng.normal(size=(batch, count)) * rng.integers(-1, 2, size=(batch, count))
        scatter = hat_scatter_arrays(g, x)
        entries, start = hat_scatter_contributors(scatter[0], g.n_interior)
        bins = rng.permutation(g.n_interior)[:rng.integers(1, g.n_interior + 1)]

        counts = start[bins + 1] - start[bins]
        entry = np.concatenate([entries[start[j]:start[j + 1]] for j in bins])
        side, pos = np.divmod(entry, count)
        assert np.array_equal(scatter[0][side, pos], np.repeat(bins, counts))
        pair = np.repeat(np.arange(bins.size), counts)
        got = hat_scatter(rows[:, pos], (pair[None], scatter[1][side, pos][None]),
                          bins.size)
        assert np.array_equal(got, hat_scatter(rows, scatter, g.n_interior)[..., bins])

    def test_summation_order(self):
        # flat (side, position) entries: bin 1 sums positions 0 and 2 of
        # side 0, then position 1 of side 1
        index = np.array([[1, 0, 1], [2, 1, 2]])
        entries, start = hat_scatter_contributors(index, 3)
        assert start.tolist() == [0, 1, 4, 6]
        assert entries.tolist() == [1, 0, 2, 4, 3, 5]


class TestPairing:
    def test_zero_functional(self):
        g = build_grid(1.0, 6)
        u = GridFunction(g, np.ones(5))
        assert pairing(u, np.zeros(5)) == 0.0

    def test_bilinear(self):
        rng = np.random.default_rng(11)
        g = build_grid(1.0, 9)
        phi = GridFunction(g, rng.normal(size=8))
        psi = GridFunction(g, rng.normal(size=8))
        loads = rng.normal(size=8)
        lhs = pairing(GridFunction(g, 2 * phi.values + 3 * psi.values), loads)
        assert lhs == pytest.approx(2 * pairing(phi, loads) + 3 * pairing(psi, loads),
                                    rel=1e-12)

    def test_grid_mismatch(self):
        """Loads of another grid have the wrong length to pair."""
        u = GridFunction(build_grid(1.0, 4), np.zeros(3))
        with pytest.raises(ValueError):
            pairing(u, np.zeros(build_grid(1.0, 6).n_interior))


class TestSpaceProperties:
    def test_duality_consistency(self):
        rng = np.random.default_rng(19)
        g = build_grid(1.0, 40)
        for _ in range(25):
            theta = GridFunction(g, rng.normal(size=g.n_interior))
            scale = h10_norm(theta)
            theta = GridFunction(g, (1.0 / scale) * theta.values)
            loads = rng.normal(size=g.n_interior)
            assert pairing(theta, loads) <= hminus1_norms(g, loads) + 1e-10

    def test_riesz_sharpness(self):
        rng = np.random.default_rng(23)
        g = build_grid(1.0, 30)
        loads = rng.normal(size=g.n_interior)
        u = riesz_solve(riesz_cholesky(g), loads)
        theta = GridFunction(g, u)
        theta = GridFunction(g, (1.0 / h10_norm(theta)) * theta.values)
        assert pairing(theta, loads) == pytest.approx(hminus1_norms(g, loads), abs=1e-10)

    def test_dual_norm_refinement(self):
        target = np.sqrt(np.tanh(1.0) / 2)
        errors = []
        for cells in (250, 500, 1000, 2000):
            g = build_grid(1.0, cells)
            errors.append(abs(hminus1_norms(g, delta_loads(0.0, g)) - target))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= 0.6 * coarse

    def test_uniform_bound_from_energy(self):
        rng = np.random.default_rng(29)
        g = build_grid(1.5, 33)
        c = np.sqrt(2 * g.half_length)
        for _ in range(50):
            u = GridFunction(g, rng.normal(size=g.n_interior))
            assert np.max(np.abs(u.full())) <= c * h10_norm(u) + 1e-12
