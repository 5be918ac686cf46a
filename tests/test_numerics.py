import math

import numpy as np
import pytest

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

    def test_refine_doubles_subintervals(self):
        grid = ParameterGrid(0.0, 2.0, 11)
        fine = grid.refine()
        assert fine.points == 21
        assert fine.spacing == pytest.approx(grid.spacing / 2)

    def test_index_of_requires_grid_point(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        assert grid.index_of(0.3) == 3
        with pytest.raises(ValueError):
            grid.index_of(0.35)


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


class TestTricomiU:
    def test_domain_error(self):
        with pytest.raises(ValueError, match="z > 0"):
            tricomi_u(-0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            tricomi_u(-0.5, 0.0, -1.0)

    def test_known_value_u_1_2(self):
        # U(1, 2, z) = 1/z
        for z in (0.3, 2.0, 50.0):
            assert tricomi_u(1.0, 2.0, z) == pytest.approx(1.0 / z, rel=1e-10)

    def test_asymptotic_sqrt_z(self):
        for z in (1e3, 1e5, 1e7):
            ratio = tricomi_u(-0.5, 0.0, z) / math.sqrt(z)
            assert ratio == pytest.approx(1.0, rel=1e-2)
        assert tricomi_u(-0.5, 0.0, 1e7) / math.sqrt(1e7) == pytest.approx(1.0, rel=1e-6)

    def test_dominates_sqrt_z(self):
        for z in np.logspace(-3, 6, 40):
            assert tricomi_u(-0.5, 0.0, z) >= math.sqrt(z)

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
        via_u = math.sqrt(2.0) / sigma * tricomi_u(-0.5, 0.0, 0.5 * f_const * sigma ** 2)
        assert via_u == pytest.approx(direct, rel=1e-5)

    def test_no_convergent_route(self):
        # after the Kummer transform the first parameter is still nonpositive
        with pytest.raises(NumericError, match="convergent"):
            tricomi_u(-1.0, 1.0, 2.0)
