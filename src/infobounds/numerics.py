"""Grid quadrature, finite differences, and the Tricomi U special function.

Every integral in the package is a composite-Simpson sum over a uniform
grid with an odd number of points, which keeps the rule exact for cubics
and makes grid-doubling convergence checks cheap.  ``tricomi_u`` is the one
special function the Gaussian-prior bounds need, and only at
U(-1/2, 0, z), which has a closed form in the exponentially scaled
modified Bessel functions K0 and K1.  Those are evaluated here in plain
Python (a power series below x = 2, Steed's continued fraction above), so
the whole package needs only NumPy.
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

    Finite samples whose weighted sum overflows give ``inf``, with NumPy's
    overflow warning.

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
    # every weight is positive, so a non-finite sample makes the sum non-finite
    # (inf - inf is nan, not a warning): the search runs only then
    with np.errstate(invalid="ignore"):
        total = float(simpson_weights(grid) @ y)
    if not math.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            raise NumericError(f"non-finite sample at index {bad[0]}")
    return total


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


_EULER_GAMMA = 0.5772156649015329
_SERIES_CAP = 60   # the series needs at most 12 terms for x <= 2
_CF2_CAP = 200     # the continued fraction needs 76 iterations just above x = 2, fewer beyond


def _k01e(x: float) -> tuple[float, float]:
    """Exponentially scaled modified Bessel functions (e^x K0(x), e^x K1(x)) for x > 0.

    For x <= 2 the ascending series (Abramowitz & Stegun 9.6.11), whose K0
    and K1 share their powers and harmonic numbers; for x > 2 Steed's
    continued fraction CF2 for order 0 (Temme, J. Comput. Phys. 19, 1975;
    Numerical Recipes ``bessik``), which yields the scaled K0 directly and
    K1 from the ratio K1/K0.  Each loop stops once its last increment is
    below machine epsilon relative to its sum.

    Raises
    ------
    NumericError
        If a loop reaches its iteration cap without converging.
    """
    eps = sys.float_info.epsilon
    if x <= 2.0:
        # K0 = sum_k t_k (H_k - c),
        # K1 = 1/x + (x/2) sum_k t_k / (k+1) (c - (H_k + H_{k+1}) / 2),
        # with t_k = (x^2/4)^k / (k!)^2, H_k the harmonic numbers, c = ln(x/2) + gamma
        y = 0.25 * x * x
        c = math.log(0.5 * x) + _EULER_GAMMA
        term = 1.0
        harm = 0.0
        s0 = -c
        s1 = c - 0.5
        for k in range(1, _SERIES_CAP):
            term *= y / (k * k)
            harm += 1.0 / k
            d0 = term * (harm - c)
            d1 = term / (k + 1) * (c - harm - 0.5 / (k + 1))
            s0 += d0
            s1 += d1
            if abs(d0) <= eps * abs(s0) and abs(d1) <= eps * abs(s1):
                scale = math.exp(x)
                return s0 * scale, (1.0 / x + 0.5 * x * s1) * scale
        raise NumericError(f"Bessel K series did not converge in {_SERIES_CAP} terms at x={x}")
    # CF2 at order 0: K0(x) = sqrt(pi / 2x) e^-x / s and
    # K1(x) = K0(x) (x + 1/2 - h/4) / x, with s and h from the recurrences below
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    q = coef = 0.25
    a = -0.25
    s = 1.0 + q * delh
    for i in range(1, _CF2_CAP):
        a -= 2 * i
        coef = -a * coef / (i + 1.0)
        q1, q2 = q2, (q1 - b * q2) / a
        q += coef * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) <= eps * abs(s):
            k0e = math.sqrt(math.pi / (2.0 * x)) / s
            return k0e, k0e * (x + 0.5 - 0.25 * h) / x
    raise NumericError(f"Bessel K continued fraction did not converge in {_CF2_CAP} steps at x={x}")


def tricomi_u(z: float) -> float:
    """Tricomi confluent hypergeometric function U(-1/2, 0, z), for z > 0.

    That is the one case the Gaussian-prior bounds use, evaluated in closed
    form through the exponentially scaled modified Bessel functions,
    ``U(-1/2, 0, z) = z / (2 sqrt(pi)) * (k0e(z/2) + k1e(z/2))``, which
    :func:`_k01e` computes to about 2e-15 relative.
    Below the smallest normal double, where k1e(z/2) ~ 2/z overflows, U
    returns its z -> 0 limit 1/sqrt(pi), which it equals there to double
    precision (U - 1/sqrt(pi) = O(z ln z)).

    Raises
    ------
    ValueError
        If ``z`` is not a finite positive number.
    NumericError
        If the evaluation is not finite.
    """
    if not math.isfinite(z) or z <= 0.0:
        raise ValueError(f"tricomi_u requires z > 0, got {z}")
    if z < sys.float_info.min:
        return 1.0 / math.sqrt(math.pi)
    k0e, k1e = _k01e(0.5 * z)
    result = float(z / (2.0 * math.sqrt(math.pi)) * (k0e + k1e))
    if not math.isfinite(result):
        raise NumericError(f"tricomi_u evaluation returned {result} for z={z}")
    return result
