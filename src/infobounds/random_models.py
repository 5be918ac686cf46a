"""Seeded random estimation models for dominance and proof-step sweeps.

Conditional models are built from squared trigonometric polynomials plus a
positive floor, normalized across outcomes.  That keeps every probability
bounded away from zero, the derivatives analytic, and the Fisher information
finite, so the brute-force oracles stay cheap and exact.

A model takes from its generator the outcome count K, then every trig
coefficient in one normal draw ``coef`` of shape (K, 2, degree + 1), with
``coef[x, 0]`` the cosine and ``coef[x, 1]`` the sine coefficients of
outcome x, then the prior's centre, kind and width.

All K polynomials and their derivatives come from one matrix product of a
(2K, 2 degree + 1) coefficient matrix with a read-only basis of the grid's
cos/sin rows, cached per (grid, degree).  The product sums in BLAS order,
so the tables agree with a row-by-row evaluation to round-off (within
4 eps of the sum of |terms|), not bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

from .numerics import ParameterGrid
from .stat_model import ConditionalModel, JointModel, PriorDensity, _read_only

__all__ = ["random_joint_model"]


@functools.lru_cache(maxsize=8)
def _trig_basis(grid: ParameterGrid, degree: int) -> np.ndarray:
    """Read-only (2 degree + 1, points) basis over the grid: rows 1, cos(tau), sin(tau),
    ..., cos(degree tau), sin(degree tau), with tau = 2 pi (phi - lower) / span."""
    tau = 2.0 * np.pi * (grid.values - grid.lower) / (grid.upper - grid.lower)
    basis = np.empty((2 * degree + 1, grid.points))
    basis[0] = 1.0
    for m in range(1, degree + 1):
        np.cos(m * tau, out=basis[2 * m - 1])
        np.sin(m * tau, out=basis[2 * m])
    return _read_only(basis)[0]


def _trig_rows(rng: np.random.Generator, grid: ParameterGrid, n_outcomes: int,
               degree: int, floor: float):
    """Positive weight rows w_x(phi) = (trig poly)^2 + floor and their derivatives.

    Every polynomial and its phi-derivative is one row of C @ B, B the cached
    :func:`_trig_basis` and C the (2K, 2 degree + 1) coefficient matrix: rows
    (a_0, a_m, b_m) for the polynomials, (0, m dtau b_m, -m dtau a_m) for
    their derivatives, dtau = 2 pi / span.
    """
    dtau = 2.0 * np.pi / (grid.upper - grid.lower)
    coef = rng.normal(size=(n_outcomes, 2, degree + 1))
    a, b = coef[:, 0], coef[:, 1]
    scale = np.arange(1, degree + 1) * dtau
    c = np.zeros((2 * n_outcomes, 2 * degree + 1))
    c[:n_outcomes, 0] = a[:, 0]
    c[:n_outcomes, 1::2] = a[:, 1:]
    c[:n_outcomes, 2::2] = b[:, 1:]
    c[n_outcomes:, 1::2] = b[:, 1:] * scale
    c[n_outcomes:, 2::2] = a[:, 1:] * -scale
    rows = c @ _trig_basis(grid, degree)
    poly, dpoly = rows[:n_outcomes], rows[n_outcomes:]
    dw = np.multiply(poly, 2.0)
    dw *= dpoly
    w = np.multiply(poly, poly)
    w += floor
    return w, dw


def random_joint_model(rng: np.random.Generator, grid: ParameterGrid | None = None,
                       max_outcomes: int = 8, degree: int = 3,
                       floor: float = 0.05) -> JointModel:
    """Random smooth joint model: trig-polynomial conditional, smooth prior.

    The prior alternates between a Gaussian and a cosine window, both with
    analytic derivatives and finite prior information, so every bound in the
    package is applicable.
    """
    if grid is None:
        grid = ParameterGrid(0.0, 1.0, 2001)
    n_outcomes = int(rng.integers(2, max_outcomes + 1))
    w, dw = _trig_rows(rng, grid, n_outcomes, degree, floor)
    total = w.sum(axis=0)
    dtotal = dw.sum(axis=0)
    # in place, the operations of w / total and (dw total - w dtotal) / total^2
    dw *= total
    dw -= w * dtotal
    dw /= total ** 2
    w /= total
    conditional = ConditionalModel(grid, *_read_only(w, dw), "analytic")

    span = grid.upper - grid.lower
    center = grid.lower + span * rng.uniform(0.4, 0.6)
    if rng.random() < 0.5:
        sigma = span * rng.uniform(0.03, 0.05)
        prior = PriorDensity.gaussian(grid, center, sigma)
    else:
        width = span * rng.uniform(0.3, 0.7)
        prior = PriorDensity.cosine_window(grid, center, width)
    return JointModel(prior, conditional)
