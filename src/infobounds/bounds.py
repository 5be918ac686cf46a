"""Named bound values: mutual-information caps and Bayesian-MSE floors.

Each operation returns a :class:`BoundReport` tagged with the direction of
the inequality, so harnesses cannot accidentally compare an MI upper bound
against an MSE lower bound.  The units follow from the direction: MI upper
bounds are in nats, MSE lower bounds in squared parameter units.

Two conventions used throughout:

* Under the square root the prior-derivative term enters squared,
  sqrt(F p^2 + pdot^2); the unsquared variant is dimensionally inconsistent.
* A prior density or variational weight g is 0 outside the grid, so it jumps
  by g[0] and g[-1] at the grid ends.  No delta spikes go on the grid:
  sqrt(x+y) <= sqrt(x) + sqrt(y) adds g[0] + g[-1] to the L1 integral, which
  for a rectangle prior and constant F gives the finite-support bound exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NumericError, central_difference, integrate, tricomi_u
from .stat_model import (
    FisherProfile,
    JointModel,
    PriorDensity,
    _frozen,
    _weighted_l1,
    average_fisher,
    fisher_under_prior,
    jeffreys_length,
)

__all__ = [
    "BoundReport",
    "DIVERGENT_FISHER_INFORMATION",
    "DIVERGENT_PRIOR_INFORMATION",
    "LOWER_MSE",
    "NATS",
    "SQUARED_UNITS",
    "UPPER_MI",
    "all_bounds",
    "efroimovich_mi_bound",
    "entropy_mse_floor",
    "gaussian_prior_mse_bounds",
    "joint_derivative_l1",
    "joint_derivative_l1_bound",
    "mi_bound_finite_support",
    "mi_bound_general_prior",
    "mi_bound_variational",
    "mse_bound_finite_support",
    "mse_bound_general_prior",
    "oracle_margin",
    "rectangle_prior_mse_bound",
    "van_trees",
]

NATS = "nats"
SQUARED_UNITS = "squared-parameter-units"
UPPER_MI = "upper-bound-on-MI"
LOWER_MSE = "lower-bound-on-MSE"
DIVERGENT_PRIOR_INFORMATION = "prior-information-divergent"
DIVERGENT_FISHER_INFORMATION = "fisher-information-divergent"


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its inequality direction and validity flags."""

    name: str
    value: float | None
    direction: str
    flags: tuple = ()

    def __post_init__(self):
        if self.direction not in (UPPER_MI, LOWER_MSE):
            raise ValueError(f"unknown direction tag {self.direction!r}")
        if self.value is not None and not math.isfinite(self.value) and not self.flags:
            raise ValueError(f"non-finite bound {self.name!r} without a validity flag")

    @property
    def units(self) -> str:
        """Nats for an MI upper bound, squared parameter units for an MSE lower bound."""
        return NATS if self.direction == UPPER_MI else SQUARED_UNITS


def oracle_margin(report: BoundReport, oracle_value: float) -> float:
    """Slack of the bound against its oracle; negative means the bound is violated.

    For MI upper bounds the margin is bound - oracle, for MSE lower bounds it
    is oracle - bound, so the sign convention is direction-safe.
    """
    if report.value is None:
        raise ValueError(f"bound {report.name!r} has no value (flags: {report.flags})")
    if report.direction == UPPER_MI:
        return report.value - oracle_value
    return oracle_value - report.value


def joint_derivative_l1(joint: JointModel) -> np.ndarray:
    """Left side of the pointwise Cauchy-Schwarz step: sum_x |d p(x,phi)/d phi|."""
    return np.abs(joint.joint_derivative()).sum(axis=0)


def joint_derivative_l1_bound(joint: JointModel) -> np.ndarray:
    """Right side of the pointwise Cauchy-Schwarz step: sqrt(F p^2 + pdot^2)."""
    F = fisher_under_prior(joint)
    p = joint.prior.density
    pdot = joint.prior.derivative
    return np.sqrt(F * p * p + pdot * pdot)


def mi_bound_finite_support(profile: FisherProfile, support: tuple | None = None) -> BoundReport:
    """MI upper bound for priors supported on an interval: ln(1 + L/2).

    L is the Jeffreys length of the support, int sqrt(F) dphi.  The bound
    holds for every prior supported inside ``support`` and every outcome
    model with that Fisher profile.
    """
    length = jeffreys_length(profile, support)
    return BoundReport("mi-bound-finite-support", math.log1p(0.5 * length), UPPER_MI)


def _l1_total(joint: JointModel, g=None, dg=None) -> float:
    """int sqrt(F g^2 + gdot^2) dphi + (g[0] + g[-1]), the jumps of g (the prior by default,
    computed once per joint) at the grid ends.  A prior that is not smooth has others and
    is rejected."""
    if g is not None:
        return _weighted_l1(joint, g, dg)
    if not joint.prior.smooth:
        raise ValueError("prior is not smooth: only jumps at the grid edges are accounted for")
    return joint._prior_l1_total


def mi_bound_general_prior(joint: JointModel) -> BoundReport:
    """MI upper bound for arbitrary priors: ln( (1/2) int sqrt(F p^2 + pdot^2) ) + H(phi).

    The jumps p[0] and p[-1] at the grid ends enter as half their total
    inside the logarithm (subadditivity of the square root); priors that are
    not smooth are rejected.
    """
    half_l1 = 0.5 * _l1_total(joint)
    return BoundReport("mi-bound-general-prior", math.log(half_l1) + joint.prior.entropy,
                       UPPER_MI)


def _grid_aligned(label: str, array, grid) -> np.ndarray:
    """``array`` as a finite float array of shape (points,), else ValueError naming ``label``."""
    a, _ = _frozen(label, array)
    if a.shape != (grid.points,):
        raise ValueError(f"{label} must be grid-aligned, shape ({grid.points},), got {a.shape}")
    return a


def mi_bound_variational(joint: JointModel, f, f_derivative=None) -> BoundReport:
    """MI upper bound with a nonnegative weight f(phi), 0 outside the grid.

    value = ln( (1/2) int sqrt(F f^2 + fdot^2) ) - int p ln f, the jumps f[0]
    and f[-1] at the grid ends added to the integral.  f = p recovers the
    general-prior bound, f = 1 the finite-support bound over the grid, and a
    plateau approaching the indicator of the prior support the one on it.
    ``f`` and a given ``f_derivative`` must be finite arrays of shape (points,).
    """
    grid = joint.grid
    fv = _grid_aligned("f", f, grid)
    if np.any(fv < 0.0):
        raise ValueError("f must be nonnegative")
    if not np.any(fv > 0.0):
        raise ValueError("f must be positive somewhere on the grid")
    df = (central_difference(fv, grid) if f_derivative is None
          else _grid_aligned("f_derivative", f_derivative, grid))
    half_l1 = 0.5 * _l1_total(joint, fv, df)
    p = joint.prior.density
    if np.any((p > 0.0) & (fv <= 0.0)):
        raise NumericError("f vanishes where the prior has mass; the bound diverges")
    logf_term = np.zeros_like(fv)
    pos = p > 0.0
    logf_term[pos] = p[pos] * np.log(fv[pos])
    return BoundReport("mi-bound-variational", math.log(half_l1) - integrate(logf_term, grid),
                       UPPER_MI)


def _fisher_plus_prior_bound(joint: JointModel, name: str, direction: str,
                             value_of) -> BoundReport:
    """A bound on int F p + P: ``value_of(total)``, or flagged and valueless when P diverges."""
    P = joint.prior.information
    if math.isinf(P):
        return BoundReport(name, None, direction, flags=(DIVERGENT_PRIOR_INFORMATION,))
    return BoundReport(name, value_of(average_fisher(joint) + P), direction)


def efroimovich_mi_bound(joint: JointModel) -> BoundReport:
    """Efroimovich MI bound: (1/2) ln[ (int F p + P) / (2 pi e) ] + H(phi).

    Reported with a divergence flag and no value when P diverges (uniform
    priors), the case the finite-support bound is built to cover.
    """
    return _fisher_plus_prior_bound(
        joint, "efroimovich-mi-bound", UPPER_MI,
        lambda total: 0.5 * math.log(total / (2.0 * math.pi * math.e)) + joint.prior.entropy)


def entropy_mse_floor(conditional_entropy: float) -> float:
    """Lower bound on Bayes quadratic cost from H(phi|x): e^(2H) / (2 pi e)."""
    return math.exp(2.0 * conditional_entropy) / (2.0 * math.pi * math.e)


def van_trees(joint: JointModel) -> BoundReport:
    """van Trees MSE lower bound: 1 / (int F p dphi + P); flagged when P diverges."""
    return _fisher_plus_prior_bound(joint, "van-trees", LOWER_MSE, lambda total: 1.0 / total)


def _support_slice(prior: PriorDensity, divergent: np.ndarray) -> tuple[int, int] | None:
    """Grid indices (i0, i1) around the prior's support, or None where F diverges on them.

    An odd span takes in one more point where F is finite, on the right if it
    can: extra sqrt(F) mass only loosens the bound, which keeps it valid.
    """
    idx = np.flatnonzero(prior.density > 0.0)
    if idx.size == 0:
        raise ValueError("prior has no support on the grid")
    i0, i1 = int(idx[0]), int(idx[-1])
    spans = [(i0, i1)] if (i1 - i0) % 2 == 0 else [(i0, i1 + 1), (i0 - 1, i1)]
    for a, b in spans:
        if a >= 0 and b < divergent.size and not divergent[a:b + 1].any():
            return a, b
    return None


def mse_bound_finite_support(joint: JointModel) -> BoundReport:
    """MSE lower bound from the finite-support MI bound.

    value = [e^(2 H(phi)) / (2 pi e)] / (1 + (1/2) int_support sqrt(F))^2.
    Reported with a divergence flag and no value when F diverges inside the
    prior's support or at both of its neighbours.  For a rectangle prior
    with constant F, :func:`rectangle_prior_mse_bound` gives its closed form.
    """
    grid = joint.grid
    profile = joint.conditional.fisher
    span = _support_slice(joint.prior, profile.divergent)
    if span is None:
        return BoundReport("mse-bound-finite-support", None, LOWER_MSE,
                           flags=(DIVERGENT_FISHER_INFORMATION,))
    i0, i1 = span
    length = jeffreys_length(profile, (grid.values[i0], grid.values[i1]))
    return BoundReport("mse-bound-finite-support",
                       entropy_mse_floor(joint.prior.entropy) / (1.0 + 0.5 * length) ** 2,
                       LOWER_MSE)


def mse_bound_general_prior(joint: JointModel) -> BoundReport:
    """MSE lower bound for arbitrary priors.

    value = (2 / pi e) / (int sqrt(F p^2 + pdot^2) dphi + p[0] + p[-1])^2: the
    jumps at the grid ends are added to the integral (subadditivity), which
    only loosens the bound.
    """
    return BoundReport("mse-bound-general-prior",
                       2.0 / (math.pi * math.e) / _l1_total(joint) ** 2, LOWER_MSE)


def gaussian_prior_mse_bounds(F: float, sigma: float) -> tuple[BoundReport, BoundReport]:
    """Exact and simplified MSE lower bounds for a Gaussian prior and constant F.

    exact      = (2 / pi e) / [ (sqrt(2)/sigma) U(-1/2, 0, F sigma^2 / 2) ]^2
    simplified = (2 / pi e) / (F + 1/sigma^2)

    Both are valid lower bounds.  The simplified form replaces the integral
    by its concavity estimate, so exact >= simplified, with the ratio
    approaching 1 for F sigma^2 >> 1.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if F < 0.0:
        raise ValueError(f"F must be nonnegative, got {F}")
    z = 0.5 * F * sigma ** 2
    # z -> 0 limit: U(-1/2, 0, 0) = Gamma(1) / Gamma(1/2) = 1/sqrt(pi)
    u = tricomi_u(z) if z > 0.0 else 1.0 / math.sqrt(math.pi)
    l1 = math.sqrt(2.0) / sigma * u
    coeff = 2.0 / (math.pi * math.e)
    return (BoundReport("gaussian-prior-mse-exact", coeff / l1 ** 2, LOWER_MSE),
            BoundReport("gaussian-prior-mse-simplified", coeff / (F + 1.0 / sigma ** 2),
                        LOWER_MSE))


def rectangle_prior_mse_bound(F: float, width: float) -> BoundReport:
    """Finite-support MSE lower bound for a rectangle prior and constant F.

    value = (2 / pi e) / (2/d + sqrt(F))^2 for a prior of width d; it equals
    :func:`mse_bound_finite_support` up to quadrature error.
    """
    if width <= 0.0:
        raise ValueError(f"width must be positive, got {width}")
    if F < 0.0:
        raise ValueError(f"F must be nonnegative, got {F}")
    return BoundReport("mse-rectangle-closed-form",
                       2.0 / (math.pi * math.e) / (2.0 / width + math.sqrt(F)) ** 2, LOWER_MSE)


def all_bounds(joint: JointModel) -> list[BoundReport]:
    """Every bound that applies to ``joint``, MI upper bounds first.

    Efroimovich and van Trees stay in with their flag when P diverges, and
    the finite-support MI bound with its flag when F diverges anywhere on the
    grid; the closed forms need constant F and a rectangle or Gaussian prior.
    """
    prior = joint.prior
    profile = joint.conditional.fisher
    if profile.divergent.any():
        finite_support = BoundReport("mi-bound-finite-support", None, UPPER_MI,
                                     flags=(DIVERGENT_FISHER_INFORMATION,))
    else:
        finite_support = mi_bound_finite_support(profile)
    reports = [finite_support, mi_bound_general_prior(joint), efroimovich_mi_bound(joint),
               van_trees(joint), mse_bound_finite_support(joint)]
    f_const = profile.constant_value() if prior.kind in ("rectangle", "gaussian") else None
    if f_const is not None and prior.kind == "rectangle":
        reports.append(rectangle_prior_mse_bound(f_const, prior.params["width"]))
    reports.append(mse_bound_general_prior(joint))
    if f_const is not None and prior.kind == "gaussian":
        reports.extend(gaussian_prior_mse_bounds(f_const, prior.params["sigma"]))
    return reports
