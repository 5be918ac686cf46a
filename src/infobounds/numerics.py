"""Grid quadrature, finite differences, and the Tricomi U special function.

Every integral in the package is a composite-Simpson sum over a uniform
grid with an odd number of points, which keeps the rule exact for cubics
and makes grid-doubling convergence checks cheap.  ``tricomi_u`` is the one
special function the Gaussian-prior bounds need, and only at
U(-1/2, 0, z), which has a closed form in the exponentially scaled
modified Bessel functions K0 and K1.  Those come from SciPy, imported
inside ``tricomi_u`` on first use: this module, and so the whole package,
loads only NumPy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    quadrature covers the grid end to end.  The sample points and Simpson
    weights are computed on first use and kept as read-only arrays.
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

    @cached_property
    def values(self) -> np.ndarray:
        values = np.linspace(self.lower, self.upper, self.points)
        values.setflags(write=False)
        return values

    @cached_property
    def _simpson_weights(self) -> np.ndarray:
        w = np.ones(self.points)
        w[1:-1:2] = 4.0
        w[2:-2:2] = 2.0
        w *= self.spacing / 3.0
        w.setflags(write=False)
        return w

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
    """Composite-Simpson quadrature weights aligned to ``grid`` (read-only, cached).

    ``weights @ samples`` equals :func:`integrate` without the per-call
    validation, which is what the inner loops of the oracles use.
    """
    return grid._simpson_weights


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


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi confluent hypergeometric function U(a, b, z), for (a, b) = (-1/2, 0) and z > 0.

    That is the one case the Gaussian-prior bounds use, evaluated in closed
    form through the exponentially scaled modified Bessel functions,
    ``U(-1/2, 0, z) = z / (2 sqrt(pi)) * (k0e(z/2) + k1e(z/2))``.
    Below the smallest normal double, where k1e(z/2) ~ 2/z overflows, U
    returns its z -> 0 limit 1/sqrt(pi), which it equals there to double
    precision (U - 1/sqrt(pi) = O(z ln z)).
    SciPy is imported here, on first use, so that importing the package does
    not pay for it.

    Raises
    ------
    ValueError
        If ``(a, b)`` is not ``(-0.5, 0.0)``, or ``z`` is not a finite
        positive number.
    NumericError
        If the evaluation is not finite.
    """
    if (a, b) != (-0.5, 0.0):
        raise ValueError(f"tricomi_u supports only (a, b) = (-0.5, 0.0), got ({a}, {b})")
    if not math.isfinite(z) or z <= 0.0:
        raise ValueError(f"tricomi_u requires z > 0, got {z}")
    if z < sys.float_info.min:
        return 1.0 / math.sqrt(math.pi)
    from scipy import special

    half = 0.5 * z
    result = float(z / (2.0 * math.sqrt(math.pi)) * (special.k0e(half) + special.k1e(half)))
    if not math.isfinite(result):
        raise NumericError(f"tricomi_u evaluation returned {result} for a={a}, b={b}, z={z}")
    return result
