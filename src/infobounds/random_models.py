"""Seeded random estimation models for dominance and proof-step sweeps.

Conditional models are built from squared trigonometric polynomials plus a
positive floor, normalized across outcomes.  That keeps every probability
bounded away from zero, the derivatives analytic, and the Fisher information
finite, so the brute-force oracles stay cheap and exact.

A model takes from its generator the outcome count K, then every trig
coefficient in one normal draw ``coef`` of shape (K, 2, degree + 1), with
``coef[x, 0]`` the cosine and ``coef[x, 1]`` the sine coefficients of
outcome x, then the prior's centre, kind and width.
"""

from __future__ import annotations

import functools

import numpy as np

from .numerics import ParameterGrid
from .stat_model import ConditionalModel, JointModel, PriorDensity, _read_only

__all__ = ["random_joint_model"]


@functools.lru_cache(maxsize=8)
def _trig_basis(grid: ParameterGrid, degree: int) -> tuple:
    """Read-only (cos(m tau), sin(m tau)) for m = 1..degree, tau = 2 pi (phi - lower) / span."""
    tau = 2.0 * np.pi * (grid.values - grid.lower) / (grid.upper - grid.lower)
    basis = []
    for m in range(1, degree + 1):
        pair = np.cos(m * tau), np.sin(m * tau)
        for row in pair:
            row.setflags(write=False)
        basis.append(pair)
    return tuple(basis)


def _trig_rows(rng: np.random.Generator, grid: ParameterGrid, n_outcomes: int,
               degree: int, floor: float):
    """Positive weight rows w_x(phi) = (trig poly)^2 + floor and their derivatives."""
    dtau = 2.0 * np.pi / (grid.upper - grid.lower)
    coef = rng.normal(size=(n_outcomes, 2, degree + 1)).tolist()
    basis = _trig_basis(grid, degree)
    poly = np.empty((n_outcomes, grid.points))
    dpoly = np.zeros_like(poly)
    term, other = np.empty(grid.points), np.empty(grid.points)
    # row by row, scalar x vector into reused buffers (a (K, 1) x (points,)
    # broadcast costs about twice as much), in a fixed elementwise order:
    # a matmul would re-associate the sums
    for (a, b), row, drow in zip(coef, poly, dpoly):
        row.fill(a[0])
        for m, (cos_m, sin_m) in enumerate(basis, start=1):
            np.multiply(cos_m, a[m], out=term)
            np.multiply(sin_m, b[m], out=other)
            term += other
            row += term
            np.multiply(sin_m, -a[m], out=term)
            np.multiply(cos_m, b[m], out=other)
            term += other
            term *= m * dtau
            drow += term
    dw = np.multiply(poly, 2.0)
    dw *= dpoly
    poly *= poly
    poly += floor
    return poly, dw


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
