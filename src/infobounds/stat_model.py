"""Estimation problems: priors, conditional outcome models, Fisher information.

A problem is a :class:`PriorDensity` p(phi) and a :class:`ConditionalModel`
p(x|phi) sampled on the same :class:`~infobounds.numerics.ParameterGrid`.
Derivatives are carried alongside the samples (analytic closures where the
builders know them, second-order finite differences otherwise) because the
Fisher information is derivative-dominated and drives every bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import NumericError, ParameterGrid, central_difference, integrate, simpson_weights

__all__ = [
    "ConditionalModel",
    "FisherProfile",
    "JointModel",
    "PriorDensity",
    "average_fisher",
    "cos2_model",
    "cosine_plateau",
    "fisher_information",
    "fisher_under_prior",
    "jeffreys_length",
]

MASS_TOL = 1e-6        # prior and joint normalization
OUTCOME_TOL = 1e-9     # sum_x p(x|phi) = 1 at every grid point
DERIV_SUM_TOL = 1e-6   # |sum_x dp(x|phi)/dphi| * (upper - lower) at every grid point
ZERO_DERIV_TOL = 1e-6  # |pdot| * span where p = 0 (F, P; the CFI: |pdot|), end density * span
PRIOR_PARAMS = {"rectangle": ("width",), "gaussian": ("sigma",), "tabulated": ()}  # required params


def _frozen(label: str, array, dtype=np.float64, axis=None, nonnegative: str | None = None,
            inf_at=False) -> tuple:
    """(``array`` as a read-only ``dtype`` array owning its data, its sum over ``axis``).

    Such an array is kept, shared with the caller; anything else is copied.
    When the sum is non-finite, the first non-finite entry (other than +inf
    where ``inf_at`` is set) raises ValueError naming ``label`` and its index.
    With ``nonnegative`` (a message), entries below -1e-12 raise ValueError
    and smaller negatives are set to 0 in a copy, the sum taken again.
    """
    a = array
    if not (type(a) is np.ndarray and a.dtype == dtype
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=dtype, copy=True)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a sum past the range
        total = a.sum(axis=axis)
    # a whole-array sum is a scalar, which cmath tests some 50x faster than np.isfinite
    if not (cmath.isfinite(total) if axis is None else np.isfinite(total).all()):
        where = np.argwhere(~np.isfinite(a) & ~(inf_at & (a == np.inf)))
        if where.size:
            raise ValueError(f"{label} has a non-finite value at index {tuple(where[0].tolist())}")
    if nonnegative is not None:
        lowest = a.min() if a.size else 0.0
        if lowest < -1e-12:
            raise ValueError(nonnegative)
        if lowest < 0.0:
            a = np.where(a < 0.0, 0.0, a)
            total = a.sum(axis=axis)
    a.setflags(write=False)
    return a, total


def _read_only(*arrays) -> tuple:
    """``arrays``, fresh ones nobody else holds, marked read-only: :func:`_frozen` keeps them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True, eq=False)
class PriorDensity:
    """Prior p(phi) on a grid, with its derivative on the grid.

    The density is 0 outside [lower, upper], so it jumps by ``density[0]``
    and ``density[-1]`` at the grid ends; the bounds take those jumps from
    the density instead of putting delta spikes on the grid.  ``smooth`` is
    False when the derivative array does not describe the prior inside the
    grid.  Priors compare and hash by identity, as conditional and joint
    models do.
    """

    grid: ParameterGrid
    density: np.ndarray
    kind: str
    derivative: np.ndarray
    smooth: bool = True
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in PRIOR_PARAMS:
            raise ValueError(f"unknown prior kind {self.kind!r}, not one of {tuple(PRIOR_PARAMS)}")
        for key in PRIOR_PARAMS[self.kind]:
            if key not in self.params:
                raise ValueError(f"{self.kind} prior needs params[{key!r}]")
        dens, _ = _frozen("density", self.density, nonnegative="prior density must be nonnegative")
        deriv, _ = _frozen("derivative", self.derivative)
        if dens.shape != (self.grid.points,) or deriv.shape != (self.grid.points,):
            raise ValueError("density and derivative must be grid-aligned 1-D arrays")
        mass = integrate(dens, self.grid)
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(
                f"prior mass is {mass:.8f}, off by more than {MASS_TOL}; "
                "widen the grid or normalize the density")
        object.__setattr__(self, "density", dens)
        object.__setattr__(self, "derivative", deriv)

    @cached_property
    def entropy(self) -> float:
        """Differential entropy H(phi) = -int p ln p in nats, with 0 ln 0 = 0.

        Computed on first access; the density is read-only.
        """
        return integrate(-(self.density * self._log_density), self.grid)

    @cached_property
    def _log_density(self) -> np.ndarray:
        """ln p with 0 where p = 0, read by :attr:`entropy` and :attr:`_quadrature`;
        computed on first access and read-only."""
        return _read_only(_log_or(self.density, 0.0))[0]

    @cached_property
    def _quadrature(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(q, q ln p, q phi, q phi^2) with q = w p, w the Simpson weights: the prior
        terms of the MI and Bayes-cost oracles, computed on first access and read-only."""
        q = simpson_weights(self.grid) * self.density
        q_phi = q * self.grid.values
        return _read_only(q, q * self._log_density, q_phi, q_phi * self.grid.values)

    @cached_property
    def information(self) -> float:
        """Prior information P = int pdot^2 / p dphi; inf flags divergence.

        A jump diverges it (|pdot| x span where p = 0, or an end density x span,
        above ``ZERO_DERIV_TOL``, both free of units): P then measures edge
        sharpness, not width, the failure mode the MI-based bounds avoid.
        Computed on first access.
        """
        p = self.density
        span = self.grid.upper - self.grid.lower
        terms = _score_terms(p, self.derivative, ZERO_DERIV_TOL / span)
        if max(p[0], p[-1]) * span > ZERO_DERIV_TOL or np.isinf(terms).any():
            return math.inf
        return integrate(terms, self.grid)

    @classmethod
    def rectangle(cls, grid: ParameterGrid) -> "PriorDensity":
        """Uniform prior over the whole grid interval (width = upper - lower)."""
        width = grid.upper - grid.lower
        dens = np.full(grid.points, 1.0 / width)
        dens, deriv = _read_only(dens, np.zeros(grid.points))
        return cls(grid, dens, "rectangle", deriv, params={"width": width})

    @classmethod
    def gaussian(cls, grid: ParameterGrid, mean: float, sigma: float) -> "PriorDensity":
        """Gaussian prior; the grid must be wide enough to hold its mass."""
        if sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        phi = grid.values
        dens = np.exp(-0.5 * ((phi - mean) / sigma) ** 2) / math.sqrt(2.0 * math.pi * sigma ** 2)
        deriv = -(phi - mean) / sigma ** 2 * dens
        dens, deriv = _read_only(dens, deriv)
        return cls(grid, dens, "gaussian", deriv, params={"mean": mean, "sigma": sigma})

    @classmethod
    def tabulated(cls, grid: ParameterGrid, density, derivative=None,
                  smooth: bool = True) -> "PriorDensity":
        """Prior from tabulated values; derivative defaults to finite differences."""
        dens = np.asarray(density, dtype=float)
        if derivative is None:
            derivative = central_difference(dens, grid)
        return cls(grid, dens, "tabulated", derivative, smooth=smooth)

    @classmethod
    def cosine_window(cls, grid: ParameterGrid, center: float, width: float) -> "PriorDensity":
        """Smooth cos^2 bump of the given width: a sharp-edge-free 'uniform' stand-in.

        The window is C^1 with finite prior information 4*pi^2/width^2.  The
        samples are renormalized so the grid mass is exactly 1.  A window
        holding fewer than 3 grid points, narrower than one Simpson panel,
        raises ValueError.
        """
        if width <= 0.0:
            raise ValueError(f"width must be positive, got {width}")
        if center - width / 2 < grid.lower - 1e-12 or center + width / 2 > grid.upper + 1e-12:
            raise ValueError("cosine window support must lie inside the grid")
        u = grid.values - center
        # u ascends, so the points with |u| <= width / 2 are one slice; the
        # window is evaluated there only, and is 0 elsewhere
        lo = int(np.searchsorted(u, -width / 2, side="left"))
        hi = int(np.searchsorted(u, width / 2, side="right"))
        if hi - lo < 3:
            raise ValueError(f"cosine window of width {width} holds fewer than 3 grid points "
                             f"(grid spacing {grid.spacing}); widen it or refine the grid")
        u = u[lo:hi]
        dens = np.zeros(grid.points)
        deriv = np.zeros(grid.points)
        dens[lo:hi] = (2.0 / width) * np.cos(np.pi * u / width) ** 2
        deriv[lo:hi] = -(2.0 * np.pi / width ** 2) * np.sin(2.0 * np.pi * u / width)
        mass = integrate(dens, grid)
        dens[lo:hi] /= mass
        deriv[lo:hi] /= mass
        dens, deriv = _read_only(dens, deriv)
        return cls(grid, dens, "tabulated", deriv,
                   params={"window": "cosine", "center": center, "width": width})


def _log_or(p: np.ndarray, zero: float) -> np.ndarray:
    """ln p where p > 0, else ``zero``, in a fresh array."""
    log_p = np.full_like(p, zero)
    np.log(p, out=log_p, where=p > 0.0)
    return log_p


def cosine_plateau(grid: ParameterGrid, flat_lower: float, flat_upper: float,
                   ramp: float) -> tuple[np.ndarray, np.ndarray]:
    """Smooth plateau: 1 on [flat_lower, flat_upper], cos^2 ramps to 0 outside.

    Returns (values, derivative) on the grid.  Useful both as a variational
    weight approaching an indicator and, normalized, as a smoothed uniform
    prior.
    """
    if ramp <= 0.0:
        raise ValueError(f"ramp must be positive, got {ramp}")
    if flat_upper <= flat_lower:
        raise ValueError("flat_upper must exceed flat_lower")
    phi = grid.values
    f = np.zeros(grid.points)
    df = np.zeros(grid.points)
    flat = (phi >= flat_lower) & (phi <= flat_upper)
    f[flat] = 1.0
    left = (phi >= flat_lower - ramp) & (phi < flat_lower)
    u = (phi[left] - (flat_lower - ramp)) / ramp  # 0 -> 1 across the ramp
    f[left] = np.sin(0.5 * np.pi * u) ** 2
    df[left] = (0.5 * np.pi / ramp) * np.sin(np.pi * u)
    right = (phi > flat_upper) & (phi <= flat_upper + ramp)
    u = ((flat_upper + ramp) - phi[right]) / ramp
    f[right] = np.sin(0.5 * np.pi * u) ** 2
    df[right] = -(0.5 * np.pi / ramp) * np.sin(np.pi * u)
    return f, df


@dataclass(frozen=True, eq=False)
class ConditionalModel:
    """Outcome distribution p(x|phi) over a finite alphabet, with derivatives.

    ``probs`` and ``dprobs`` are (K, points) arrays over the grid, stored
    read-only by :func:`_frozen`: finite, ``probs`` nonnegative, shared with
    the caller only when already read-only float64 arrays owning their data.
    The column sums sum_x p(x|phi) that validation takes are kept, read-only,
    for the MI oracle.  ``derivative_source`` records whether ``dprobs`` came
    from an analytic closure or from
    :func:`~infobounds.numerics.central_difference`.
    Models compare and hash by identity: their fields include arrays.

    The column sums must be within ``OUTCOME_TOL`` of 1 and those of
    ``dprobs``, times the grid span, within ``DERIV_SUM_TOL`` of 0.  The
    private ``_samples`` is set only by
    :func:`~infobounds.mi_oracle.repeat_model`: its n-sample tables have the
    sums (sum_x p)^n and n (sum_x p)^(n-1) sum_x pdot of a base validated
    at one sample, so they are checked at n (1 + OUTCOME_TOL)^(n-1) times
    those tolerances, the most a base within them reaches.
    """

    grid: ParameterGrid
    probs: np.ndarray
    dprobs: np.ndarray
    derivative_source: str = "analytic"
    outcomes: tuple = ()
    _samples: int = field(default=1, kw_only=True, repr=False)

    def __post_init__(self):
        p, colsums = _frozen("probs", self.probs, axis=0,
                             nonnegative="outcome probabilities must be nonnegative")
        dp, dsums = _frozen("dprobs", self.dprobs, axis=0)
        if p.ndim != 2 or p.shape[1] != self.grid.points:
            raise ValueError(f"probs must be (K, {self.grid.points}), got {p.shape}")
        if dp.shape != p.shape:
            raise ValueError("dprobs must match probs in shape")
        if self.derivative_source not in ("analytic", "finite-difference"):
            raise ValueError(f"unknown derivative source {self.derivative_source!r}")
        growth = self._samples * (1.0 + OUTCOME_TOL) ** (self._samples - 1)  # 1 for one sample
        worst = np.max(np.abs(colsums - 1.0))
        if worst > OUTCOME_TOL * growth:
            raise ValueError(f"outcome probabilities sum to 1 +/- {worst:.2e} > "
                             f"{OUTCOME_TOL * growth:.3g}")
        dworst = np.max(np.abs(dsums))
        span = self.grid.upper - self.grid.lower
        if dworst * span > DERIV_SUM_TOL * growth:
            message = (f"outcome derivatives sum to {dworst:.2e}; times the span {span:.3g} "
                       f"that is {dworst * span:.2e} > {DERIV_SUM_TOL * growth:.3g}")
            if self.derivative_source == "finite-difference":
                # a difference quotient divides the wobble of the column sums by h
                message += (f"; they were differenced from the table, whose column sums are "
                            f"off 1 by up to {worst:.2e}, and differencing divides that by "
                            f"the spacing {self.grid.spacing:.3g}")
            raise ValueError(message)
        outcomes = self.outcomes or tuple(range(p.shape[0]))
        if len(outcomes) != p.shape[0]:
            raise ValueError("outcome labels must match the number of rows")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "dprobs", dp)
        object.__setattr__(self, "outcomes", tuple(outcomes))
        object.__setattr__(self, "_colsums", _read_only(colsums)[0])

    @property
    def n_outcomes(self) -> int:
        return self.probs.shape[0]

    @cached_property
    def fisher(self) -> "FisherProfile":
        """F(phi) of this model, computed on first access (the tables are read-only)."""
        return fisher_information(self)

    @cached_property
    def _log_probs(self) -> np.ndarray:
        """ln p(x|phi) with -1e15 where p = 0, read by the type-table oracles; computed
        on first access and read-only.  A large finite stand-in for ln 0, not -inf: a
        zero count times it is 0, a positive count puts the product far below exp's range."""
        return _read_only(_log_or(self.probs, -1e15))[0]

    @classmethod
    def from_probs(cls, grid: ParameterGrid, probs) -> "ConditionalModel":
        """Model from a probability table, derivatives by second-order finite differences.

        Derivative-driven tolerances then inflate by O(spacing^2).
        """
        p = np.asarray(probs, dtype=float)
        dp = np.vstack([central_difference(row, grid) for row in p])
        return cls(grid, p, dp, "finite-difference")


def cos2_model(grid: ParameterGrid) -> ConditionalModel:
    """Binary model p(1|phi) = cos^2(phi/2) with analytic derivatives.

    Its Fisher information is identically 1 wherever both outcomes have
    positive probability.
    """
    phi = grid.values
    # sin^2 directly, not 1 - cos^2: the cancellation would cost ~8 digits of
    # relative accuracy near phi = 0 and leak into the Fisher information
    probs = np.vstack([np.sin(phi / 2.0) ** 2, np.cos(phi / 2.0) ** 2])
    d1 = -0.5 * np.sin(phi)
    return ConditionalModel(grid, probs, np.vstack([-d1, d1]), "analytic")


@dataclass(frozen=True, eq=False)
class JointModel:
    """Joint p(x, phi) = p(x|phi) p(phi) of a prior and a conditional model.

    Compared and hashed by identity, like its parts.
    """

    prior: PriorDensity
    conditional: ConditionalModel

    def __post_init__(self):
        g1, g2 = self.prior.grid, self.conditional.grid
        if (g1.lower, g1.upper, g1.points) != (g2.lower, g2.upper, g2.points):
            raise ValueError("prior and conditional must share one grid")

    @property
    def grid(self) -> ParameterGrid:
        return self.prior.grid

    def joint_derivative(self) -> np.ndarray:
        """(K, points) array of the smooth part of d p(x, phi) / d phi."""
        return (self.conditional.dprobs * self.prior.density[None, :]
                + self.conditional.probs * self.prior.derivative[None, :])

    # Inputs the bounds share, each computed on first access and kept: the
    # prior and conditional model are frozen and their tables read-only.

    @cached_property
    def _fisher_under_prior(self) -> np.ndarray:
        profile = self.conditional.fisher
        if np.any(profile.divergent & (self.prior.density > 0.0)):
            raise NumericError("Fisher information diverges where the prior has mass")
        return _read_only(np.where(profile.divergent, 0.0, profile.values))[0]

    @cached_property
    def _average_fisher(self) -> float:
        return integrate(self._fisher_under_prior * self.prior.density, self.grid)

    @cached_property
    def _prior_l1_total(self) -> float:
        return _weighted_l1(self, self.prior.density, self.prior.derivative)


@dataclass(frozen=True, eq=False)
class FisherProfile:
    """Pointwise Fisher information F(phi) >= 0 with a divergence mask.

    Compared and hashed by identity, like the models it is computed from.
    """

    grid: ParameterGrid
    values: np.ndarray
    divergent: np.ndarray

    def __post_init__(self):
        div, _ = _frozen("divergent", self.divergent, dtype=bool)
        vals, _ = _frozen("values", self.values, inf_at=div,
                          nonnegative="Fisher information must be nonnegative")
        if vals.shape != (self.grid.points,) or div.shape != (self.grid.points,):
            raise ValueError("values and divergent mask must be grid-aligned")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "divergent", div)

    @classmethod
    def constant(cls, grid: ParameterGrid, value: float) -> "FisherProfile":
        return cls(grid, np.full(grid.points, float(value)), np.zeros(grid.points, dtype=bool))

    def constant_value(self) -> float | None:
        """Median of F if its interior points agree to 1e-6 relative, else None."""
        # endpoints skipped: the 0/0 -> 0 rule can zero F at an end of an analytic family
        interior = self.values[1:-1][~self.divergent[1:-1]]
        if interior.size and np.ptp(interior) <= 1e-6 * np.max(interior):
            return _median(interior)
        return None


def _median(a: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-D array, from ``np.partition``: np.median imports
    numpy.ma, some 15 ms of a CLI call."""
    mid = a.size // 2
    if a.size % 2:
        return float(np.partition(a, mid)[mid])
    low, high = np.partition(a, (mid - 1, mid))[mid - 1:mid + 1]
    return float((low + high) / 2.0)


def _score_terms(p: np.ndarray, pdot: np.ndarray, tol: float) -> np.ndarray:
    """pdot^2 / p term by term, the one rule of F, P and the CFI: where p <= 0 a term is
    0 if |pdot| <= ``tol`` (a zero of p is a minimum), else +inf, as on overflow."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = pdot * pdot / p
    zero = p <= 0.0
    if zero.any():
        terms[zero] = np.where(np.abs(pdot[zero]) > tol, np.inf, 0.0)
    return terms


def fisher_information(model: ConditionalModel) -> FisherProfile:
    """F(phi) = sum_x pdot(x|phi)^2 / p(x|phi), pointwise on the grid.

    A term with p = 0 and pdot = 0 contributes 0 (the limit along analytic
    families); p = 0 with |pdot| x (upper - lower) above ``ZERO_DERIV_TOL``
    marks the grid point divergent, a rule free of the units of phi.
    """
    span = model.grid.upper - model.grid.lower
    values = _score_terms(model.probs, model.dprobs, ZERO_DERIV_TOL / span).sum(axis=0)
    return FisherProfile(model.grid, *_read_only(values, np.isinf(values)))


def fisher_under_prior(joint: JointModel) -> np.ndarray:
    """F(phi) masked against the prior: divergent F under zero prior mass is dropped.

    Computed once per joint; the array is read-only.
    """
    return joint._fisher_under_prior


def average_fisher(joint: JointModel) -> float:
    """Prior-averaged Fisher information, int F(phi) p(phi) dphi, computed once per joint."""
    return joint._average_fisher


def _weighted_l1(joint: JointModel, g: np.ndarray, dg: np.ndarray) -> float:
    """int sqrt(F g^2 + gdot^2) dphi + (g[0] + g[-1]), the jumps of a density or weight g
    at the grid ends (0 outside the grid); F is masked against the prior."""
    F = joint._fisher_under_prior
    return integrate(np.sqrt(F * g * g + dg * dg), joint.grid) + float(g[0] + g[-1])


def jeffreys_length(profile: FisherProfile, support: tuple | None = None) -> float:
    """int sqrt(F(phi)) dphi over a sub-interval (default: the whole grid).

    The integral is the reparametrization-invariant size of the interval in
    the Fisher metric.  ``support`` endpoints must lie on grid points and
    span an even number of subintervals so Simpson quadrature applies.
    """
    grid = profile.grid
    if support is None:
        i0, i1 = 0, grid.points - 1
    else:
        i0 = grid.index_of(support[0])
        i1 = grid.index_of(support[1])
        if i1 <= i0:
            raise ValueError("support must be a nondegenerate interval")
        if (i1 - i0) % 2 != 0:
            raise ValueError("support must span an even number of grid subintervals")
    if np.any(profile.divergent[i0:i1 + 1]):
        raise NumericError("Fisher information diverges inside the requested support")
    # linspace ends exactly at upper, so a whole-grid support is the grid itself
    sub = (grid if (i0, i1) == (0, grid.points - 1)
           else ParameterGrid(grid.values[i0], grid.values[i1], i1 - i0 + 1))
    return integrate(np.sqrt(profile.values[i0:i1 + 1]), sub)
