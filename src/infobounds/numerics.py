"""Grid quadrature, finite differences, and the Tricomi U special function.

Every integral in the package is a composite-Simpson sum over a uniform
grid with an odd number of points, which keeps the rule exact for cubics
and makes grid-doubling convergence checks cheap.  ``tricomi_u`` is the one
special function the Gaussian-prior bounds need; it is evaluated through a
convergent integral representation reached by a Kummer transformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _quadpack
from scipy import special as _special

__all__ = [
    "NumericError",
    "ParameterGrid",
    "central_difference",
    "integrate",
    "simpson_weights",
    "tricomi_u",
]


class NumericError(ArithmeticError):
    """A numeric evaluation failed: non-finite data, divergence, or no convergence."""


@dataclass(frozen=True)
class ParameterGrid:
    """Uniform discretization of a closed parameter interval.

    ``points`` must be odd (and at least 3) so that composite Simpson
    quadrature covers the grid end to end.
    """

    lower: float
    upper: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("grid bounds must be finite")
        if self.upper <= self.lower:
            raise ValueError(f"upper must exceed lower, got [{self.lower}, {self.upper}]")
        if not isinstance(self.points, (int, np.integer)):
            raise TypeError(f"grid points must be an integer, got {self.points!r}")
        if self.points < 3:
            raise ValueError(f"grid needs at least 3 points, got {self.points}")
        if self.points % 2 == 0:
            raise ValueError(f"grid points must be odd for Simpson quadrature, got {self.points}")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.points - 1)

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.points)

    def refine(self, factor: int = 2) -> "ParameterGrid":
        """Same interval with ``factor`` times as many subintervals."""
        if factor < 1:
            raise ValueError(f"refinement factor must be >= 1, got {factor}")
        return ParameterGrid(self.lower, self.upper, factor * (self.points - 1) + 1)

    def index_of(self, value: float, tol: float = 1e-9) -> int:
        """Index of the grid point closest to ``value``; the point must lie on the grid."""
        pos = (value - self.lower) / self.spacing
        idx = int(round(pos))
        if idx < 0 or idx >= self.points or abs(pos - idx) > tol:
            raise ValueError(f"{value} does not lie on the grid within {tol} spacings")
        return idx


def simpson_weights(grid: ParameterGrid) -> np.ndarray:
    """Composite-Simpson quadrature weights aligned to ``grid``.

    ``weights @ samples`` equals :func:`integrate` without the per-call
    validation, which is what the inner loops of the oracles use.
    """
    w = np.ones(grid.points)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (grid.spacing / 3.0)


def integrate(samples, grid: ParameterGrid) -> float:
    """Composite-Simpson integral of grid-aligned samples.

    Exact for polynomials up to cubics sampled on the grid.

    Raises
    ------
    ValueError
        If the sample count does not match ``grid.points``.
    NumericError
        If any sample is non-finite (the message names the first offender).
    """
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1 or y.size != grid.points:
        raise ValueError(f"expected {grid.points} samples aligned to the grid, got shape {y.shape}")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise NumericError(f"non-finite sample at index {bad[0]}")
    return float(simpson_weights(grid) @ y)


def central_difference(samples, grid: ParameterGrid) -> np.ndarray:
    """Second-order derivative estimate of grid-aligned samples.

    Central differences in the interior, one-sided second-order stencils at
    both endpoints, so the global accuracy stays O(spacing^2).
    """
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1 or y.size != grid.points:
        raise ValueError(f"expected {grid.points} samples aligned to the grid, got shape {y.shape}")
    if y.size < 3:
        raise ValueError("need at least 3 points for second-order differences")
    h = grid.spacing
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return d


def _tricomi_u_direct(a: float, b: float, z: float) -> float:
    # Integral representation, valid for a > 0:
    #   U(a,b,z) = (1/Gamma(a)) Int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt.
    # Substituting t = u^2/z keeps the integrand O(1)-scaled for every z and
    # removes the endpoint singularity for the a = 1/2 pattern used here.
    power = b - a - 1.0

    def f(u):
        return 2.0 * np.exp(-u * u) * u ** (2.0 * a - 1.0) * (1.0 + u * u / z) ** power

    value, abserr, *_ = _quadpack.quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12,
                                       limit=400, full_output=1)
    if abserr > max(1e-10, 1e-8 * abs(value)):
        raise NumericError(f"tricomi_u quadrature did not converge for a={a}, b={b}, z={z}")
    return z ** (-a) * value / _special.gamma(a)


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi confluent hypergeometric function U(a, b, z) for z > 0.

    For a <= 0 the integral representation does not converge, so the
    evaluation is continued through the Kummer transformation
    ``U(a, b, z) = z^(1-b) U(a-b+1, 2-b, z)``, which covers the
    ``U(-1/2, 0, z)`` pattern the Gaussian-prior bounds use.

    Raises
    ------
    ValueError
        If ``z <= 0``.
    NumericError
        If no convergent evaluation route exists or quadrature fails.
    """
    if not math.isfinite(z) or z <= 0.0:
        raise ValueError(f"tricomi_u requires z > 0, got {z}")
    if a > 0.0:
        result = _tricomi_u_direct(a, b, z)
    else:
        a2, b2 = a - b + 1.0, 2.0 - b
        if a2 <= 0.0:
            raise NumericError(
                f"no convergent integral representation for a={a}, b={b} "
                "(Kummer transform still has a non-positive first parameter)")
        result = z ** (1.0 - b) * _tricomi_u_direct(a2, b2, z)
    if not math.isfinite(result):
        raise NumericError(f"tricomi_u evaluation returned {result} for a={a}, b={b}, z={z}")
    return result
