import dataclasses
import math
import sys

import numpy as np
import pytest

from infobounds import numerics
from infobounds.numerics import (
    NumericError,
    ParameterGrid,
    central_difference,
    integrate,
    simpson_weights,
    tricomi_u,
)


class TestParameterGrid:
    def test_spacing_and_values(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        assert grid.spacing == pytest.approx(0.01)
        assert grid.values[0] == 0.0 and grid.values[-1] == 1.0

    def test_rejects_even_points(self):
        with pytest.raises(ValueError, match="odd"):
            ParameterGrid(0.0, 1.0, 100)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            ParameterGrid(0.0, 1.0, 1)

    def test_rejects_non_integer_points(self):
        with pytest.raises(TypeError, match="integer"):
            ParameterGrid(0.0, 1.0, 2001.0)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError, match="exceed"):
            ParameterGrid(1.0, 0.0, 11)

    def test_index_of_requires_grid_point(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        assert grid.index_of(0.3) == 3
        with pytest.raises(ValueError):
            grid.index_of(0.35)

    @pytest.mark.parametrize("c", [-1e5, 1e3, 1e5, 1e9])
    def test_index_of_finds_every_point_far_from_zero(self, c):
        grid = ParameterGrid(c, c + math.pi, 2001)
        assert [grid.index_of(v) for v in grid.values] == list(range(grid.points))
        with pytest.raises(ValueError, match="does not lie on the grid"):
            grid.index_of(grid.values[3] + 0.5 * grid.spacing)

    @pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (0.0, math.inf),
                                              (-math.inf, 0.0)])
    def test_rejects_non_finite_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            ParameterGrid(lower, upper, 11)


class TestGridArrays:
    def test_computed_once(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        assert grid.values is grid.values
        assert simpson_weights(grid) is simpson_weights(grid)

    def test_read_only(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        with pytest.raises(ValueError, match="read-only"):
            grid.values[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            simpson_weights(grid)[0] = 1.0

    @pytest.mark.parametrize("lower, upper, points", [(0.0, 1.0, 3), (0.0, math.pi, 2001),
                                                      (-3.7, 2.9, 401)])
    def test_bitwise_equal_to_fresh_arrays(self, lower, upper, points):
        grid = ParameterGrid(lower, upper, points)
        assert np.array_equal(grid.values, np.linspace(lower, upper, points))
        w = np.ones(points)
        w[1:-1:2] = 4.0
        w[2:-2:2] = 2.0
        assert np.array_equal(simpson_weights(grid), w * (grid.spacing / 3.0))

    def test_equality_and_hash_ignore_the_cache(self):
        grid, fresh = ParameterGrid(0.0, 1.0, 101), ParameterGrid(0.0, 1.0, 101)
        simpson_weights(grid)
        assert grid == fresh and hash(grid) == hash(fresh)
        assert repr(grid) == repr(fresh)

    def test_derived_grids_have_their_own_arrays(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        values, weights = grid.values, simpson_weights(grid)
        doubled = ParameterGrid(grid.lower, grid.upper, 2 * (grid.points - 1) + 1)
        for derived in (dataclasses.replace(grid), dataclasses.replace(grid, upper=2.0),
                        doubled):
            assert derived.values is not values
            assert simpson_weights(derived) is not weights
            assert np.array_equal(derived.values,
                                  np.linspace(derived.lower, derived.upper, derived.points))
        assert dataclasses.replace(grid, upper=2.0).values[-1] == 2.0
        assert simpson_weights(doubled).size == 201


class TestIntegrate:
    def test_unit_constant(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        assert integrate(np.ones(101), grid) == pytest.approx(1.0, abs=1e-14)

    def test_sin_on_0_pi(self):
        grid = ParameterGrid(0.0, math.pi, 1001)
        assert integrate(np.sin(grid.values), grid) == pytest.approx(2.0, abs=1e-9)

    def test_exact_for_cubics(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        assert integrate(grid.values ** 2, grid) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert integrate(grid.values ** 3, grid) == pytest.approx(0.25, abs=1e-15)

    def test_length_mismatch(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="expected 11"):
            integrate(np.ones(10), grid)

    def test_nonfinite_sample_names_index(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        samples = np.ones(11)
        samples[7] = np.nan
        with pytest.raises(NumericError, match="index 7"):
            integrate(samples, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_nonfinite_sample_is_named(self, bad):
        grid = ParameterGrid(0.0, 1.0, 11)
        samples = np.ones(11)
        samples[[3, 8]] = bad
        samples[9] = np.nan
        with pytest.raises(NumericError, match=r"non-finite sample at index 3$"):
            integrate(samples, grid)

    def test_opposite_infinities_are_named(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        samples = np.ones(11)
        samples[5], samples[6] = np.inf, -np.inf
        with pytest.raises(NumericError, match=r"index 5$"):
            integrate(samples, grid)

    def test_overflowing_finite_sum_is_inf(self):
        grid = ParameterGrid(0.0, 10.0, 11)   # weights up to 4/3
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert integrate(np.full(11, 1e308), grid) == math.inf
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert integrate(np.full(11, -1e308), grid) == -math.inf

    def test_linearity(self):
        rng = np.random.default_rng(7)
        grid = ParameterGrid(-1.0, 3.0, 201)
        for _ in range(20):
            f = rng.normal(size=grid.points)
            g = rng.normal(size=grid.points)
            a, b = rng.normal(size=2)
            lhs = integrate(a * f + b * g, grid)
            rhs = a * integrate(f, grid) + b * integrate(g, grid)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_weights_match_integrate(self):
        grid = ParameterGrid(0.0, 2.0, 51)
        y = np.cos(grid.values)
        assert simpson_weights(grid) @ y == pytest.approx(integrate(y, grid), abs=1e-15)


class TestCentralDifference:
    def test_constant_is_zero(self):
        grid = ParameterGrid(0.0, 1.0, 51)
        assert np.all(central_difference(np.ones(51), grid) == 0.0)

    def test_linear_is_one(self):
        grid = ParameterGrid(-2.0, 5.0, 101)
        d = central_difference(grid.values, grid)
        np.testing.assert_allclose(d, 1.0, atol=1e-12)

    def test_sin_derivative_sup_norm(self):
        grid = ParameterGrid(0.0, math.pi, 1001)
        d = central_difference(np.sin(grid.values), grid)
        assert np.max(np.abs(d - np.cos(grid.values))) < 1e-5

    def test_length_mismatch(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            central_difference(np.ones(12), grid)

    def test_integrates_back_to_boundary_difference(self):
        # fundamental-theorem consistency at O(spacing^2)
        for points in (101, 201):
            grid = ParameterGrid(0.0, 2.0, points)
            f = np.sin(grid.values)
            err = abs(integrate(central_difference(f, grid), grid)
                      - (math.sin(2.0) - math.sin(0.0)))
            assert err < grid.spacing ** 2


BESSEL_POINTS = sorted(
    [float(x) for x in np.logspace(-300, 300, 121)]
    + [float(x) for x in np.linspace(1.5, 3.0, 62)[1:-1]]
    + [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0)])


class TestBesselK:
    def test_against_mpmath(self):
        import mpmath

        with mpmath.workdps(30):
            for x in BESSEL_POINTS:
                scale = mpmath.exp(mpmath.mpf(x))
                golden = [float(mpmath.besselk(nu, x) * scale) for nu in (0, 1)]
                # abs=0: pytest.approx would otherwise accept any error below 1e-12
                assert list(numerics._k01e(x)) == pytest.approx(golden, rel=1e-14, abs=0.0), x

    @pytest.mark.parametrize("cap, x", [("_SERIES_CAP", 1.5), ("_CF2_CAP", 2.5)])
    def test_unconverged_loop_raises(self, monkeypatch, cap, x):
        monkeypatch.setattr(numerics, cap, 4)
        with pytest.raises(NumericError, match="did not converge"):
            numerics._k01e(x)

    @pytest.mark.parametrize("z", [sys.float_info.min, 1e300])
    def test_tricomi_finite_at_the_range_ends(self, z):
        assert math.isfinite(tricomi_u(z))


class TestTricomiU:
    def test_domain_error(self):
        with pytest.raises(ValueError, match="z > 0"):
            tricomi_u(0.0)
        with pytest.raises(ValueError):
            tricomi_u(-1.0)

    def test_mpmath_golden_values(self):
        import mpmath

        with mpmath.workdps(30):
            for z in np.logspace(-8, 8, 161):
                golden = float(mpmath.hyperu(-0.5, 0, mpmath.mpf(float(z))))
                # abs=0: pytest.approx would otherwise accept any error below 1e-12
                want = pytest.approx(golden, rel=1e-14, abs=0.0)
                assert tricomi_u(float(z)) == want

    def test_small_z_limit(self):
        # U(-1/2, 0, z) = 1/sqrt(pi) + O(z ln z), also below the smallest normal double
        limit = 1.0 / math.sqrt(math.pi)
        for z in (1e-300, 2.3e-308, 1.1e-308, 1e-309, 5e-324):
            assert tricomi_u(z) == pytest.approx(limit, rel=1e-15)

    def test_asymptotic_sqrt_z(self):
        for z in (1e3, 1e5, 1e7):
            ratio = tricomi_u(z) / math.sqrt(z)
            assert ratio == pytest.approx(1.0, rel=1e-2)
        assert tricomi_u(1e7) / math.sqrt(1e7) == pytest.approx(1.0, rel=1e-6)

    def test_dominates_sqrt_z(self):
        for z in np.logspace(-3, 6, 40):
            assert tricomi_u(z) >= math.sqrt(z)

    @pytest.mark.parametrize("f_sigma2", [0.1, 1.0, 10.0, 100.0])
    def test_gaussian_integral_identity(self, f_sigma2):
        # (sqrt(2)/sigma) U(-1/2, 0, F sigma^2/2) equals the direct quadrature
        # of int sqrt(F + phi^2/sigma^4) p(phi) dphi for a Gaussian p
        sigma = 1.0
        f_const = f_sigma2 / sigma ** 2
        grid = ParameterGrid(-10.0 * sigma, 10.0 * sigma, 40001)
        phi = grid.values
        density = np.exp(-0.5 * (phi / sigma) ** 2) / math.sqrt(2.0 * math.pi * sigma ** 2)
        direct = integrate(np.sqrt(f_const + phi ** 2 / sigma ** 4) * density, grid)
        via_u = math.sqrt(2.0) / sigma * tricomi_u(0.5 * f_const * sigma ** 2)
        assert via_u == pytest.approx(direct, rel=1e-5)
