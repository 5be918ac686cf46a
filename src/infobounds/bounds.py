"""Named bound values: mutual-information caps and Bayesian-MSE floors.

Each operation returns a :class:`BoundReport` tagged with units and with the
direction of the inequality, so harnesses cannot accidentally compare an MI
upper bound against an MSE lower bound.  All MI values are in nats.

Two conventions used throughout:

* Under the square root the prior-derivative term enters squared,
  sqrt(F p^2 + pdot^2); the unsquared variant is dimensionally inconsistent.
* Rectangle priors never put delta spikes on the grid.  Their edge jumps are
  absorbed through sqrt(x+y) <= sqrt(x) + sqrt(y), adding half the total jump
  magnitude inside the logarithm; for constant F this reproduces the
  finite-support bound exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import NumericError, central_difference, integrate, tricomi_u
from .stat_model import (
    FisherProfile,
    JointModel,
    PriorDensity,
    ZERO_DERIV_TOL,
    average_fisher,
    fisher_under_prior,
    jeffreys_length,
    prior_entropy,
)

__all__ = [
    "BoundReport",
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
    "prior_information",
    "van_trees",
]

NATS = "nats"
SQUARED_UNITS = "squared-parameter-units"
UPPER_MI = "upper-bound-on-MI"
LOWER_MSE = "lower-bound-on-MSE"
DIVERGENT_PRIOR_INFORMATION = "prior-information-divergent"


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its units, inequality direction, and validity flags."""

    name: str
    value: float | None
    units: str
    direction: str
    inputs: dict = field(default_factory=dict)
    flags: tuple = ()
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.units not in (NATS, SQUARED_UNITS):
            raise ValueError(f"unknown units tag {self.units!r}")
        if self.direction not in (UPPER_MI, LOWER_MSE):
            raise ValueError(f"unknown direction tag {self.direction!r}")
        if self.value is not None and not math.isfinite(self.value) and not self.flags:
            raise ValueError(f"non-finite bound {self.name!r} without a validity flag")


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


def mi_bound_finite_support(profile: FisherProfile, support: tuple | None = None,
                            inputs: dict | None = None) -> BoundReport:
    """MI upper bound for priors supported on an interval: ln(1 + L/2).

    L is the Jeffreys length of the support, int sqrt(F) dphi.  The bound
    holds for every prior supported inside ``support`` and every outcome
    model with that Fisher profile.
    """
    length = jeffreys_length(profile, support)
    return BoundReport(
        name="mi-bound-finite-support",
        value=math.log1p(0.5 * length),
        units=NATS,
        direction=UPPER_MI,
        inputs={"jeffreys_length": length, **(inputs or {})},
    )


def _l1_total(joint: JointModel) -> float:
    """int sqrt(F p^2 + pdot^2) dphi plus the magnitudes of the declared edge jumps."""
    prior = joint.prior
    if not prior.smooth and not prior.edge_jumps:
        raise ValueError("prior is not smooth and declares no edge locations")
    jumps = float(sum(abs(j) for _, j in prior.edge_jumps))
    return integrate(joint_derivative_l1_bound(joint), joint.grid) + jumps


def mi_bound_general_prior(joint: JointModel) -> BoundReport:
    """MI upper bound for arbitrary priors: ln( (1/2) int sqrt(F p^2 + pdot^2) ) + H(phi).

    Declared edge jumps enter as half their total magnitude inside the
    logarithm (subadditivity of the square root); undeclared non-smooth
    priors are rejected.
    """
    half_l1 = 0.5 * _l1_total(joint)
    entropy = prior_entropy(joint.prior)
    return BoundReport(
        name="mi-bound-general-prior",
        value=math.log(half_l1) + entropy,
        units=NATS,
        direction=UPPER_MI,
        inputs={"half_l1": half_l1, "prior_entropy": entropy, "prior_kind": joint.prior.kind},
    )


def mi_bound_variational(joint: JointModel, f, f_derivative=None) -> BoundReport:
    """MI upper bound with a positive weight f(phi) vanishing at the domain ends.

    value = ln( (1/2) int sqrt(F f^2 + fdot^2) ) - int p ln f.  Choosing
    f = p recovers the general-prior bound; a plateau approaching the
    indicator of the prior support recovers the finite-support bound.
    """
    grid = joint.grid
    fv = np.asarray(f, dtype=float)
    if fv.shape != (grid.points,):
        raise ValueError(f"f must be grid-aligned, got shape {fv.shape}")
    if np.any(fv < 0.0):
        raise ValueError("f must be nonnegative")
    if not np.any(fv > 0.0):
        raise ValueError("f must be positive somewhere on the grid")
    df = central_difference(fv, grid) if f_derivative is None else np.asarray(f_derivative, float)
    F = fisher_under_prior(joint)
    half_l1 = 0.5 * integrate(np.sqrt(F * fv * fv + df * df), grid)
    p = joint.prior.density
    if np.any((p > 0.0) & (fv <= 0.0)):
        raise NumericError("f vanishes where the prior has mass; the bound diverges")
    logf_term = np.zeros_like(fv)
    pos = p > 0.0
    logf_term[pos] = p[pos] * np.log(fv[pos])
    return BoundReport(
        name="mi-bound-variational",
        value=math.log(half_l1) - integrate(logf_term, grid),
        units=NATS,
        direction=UPPER_MI,
        inputs={"half_l1": half_l1},
    )


def prior_information(prior: PriorDensity) -> float:
    """Prior information P = int pdot^2 / p dphi; inf flags divergence.

    Sharp-edged priors (declared edge jumps) are divergent by construction:
    P measures edge sharpness rather than width, which is exactly the
    failure mode the MI-based bounds avoid.
    """
    if prior.edge_jumps:
        return math.inf
    p = prior.density
    pdot = prior.derivative
    pos = p > 0.0
    if np.any(~pos & (np.abs(pdot) > ZERO_DERIV_TOL)):
        return math.inf
    integrand = np.zeros_like(p)
    np.divide(pdot * pdot, p, out=integrand, where=pos)
    return integrate(integrand, prior.grid)


def _fisher_plus_prior_bound(joint: JointModel, name: str, units: str, direction: str,
                             value_of) -> BoundReport:
    """A bound on int F p + P: ``value_of(total)``, or flagged and valueless when P diverges."""
    P = prior_information(joint.prior)
    inputs = {"prior_information": P, "prior_kind": joint.prior.kind}
    if math.isinf(P):
        return BoundReport(name, None, units, direction,
                           inputs=inputs, flags=(DIVERGENT_PRIOR_INFORMATION,))
    inputs["average_fisher"] = average_fisher(joint)
    return BoundReport(name, value_of(inputs["average_fisher"] + P), units, direction,
                       inputs=inputs)


def efroimovich_mi_bound(joint: JointModel) -> BoundReport:
    """Efroimovich MI bound: (1/2) ln[ (int F p + P) / (2 pi e) ] + H(phi).

    Reported with a divergence flag and no value when P diverges (uniform
    priors), the case the finite-support bound is built to cover.
    """
    return _fisher_plus_prior_bound(
        joint, "efroimovich-mi-bound", NATS, UPPER_MI,
        lambda total: 0.5 * math.log(total / (2.0 * math.pi * math.e)) + prior_entropy(joint.prior))


def entropy_mse_floor(conditional_entropy: float) -> float:
    """Lower bound on Bayes quadratic cost from H(phi|x): e^(2H) / (2 pi e)."""
    return math.exp(2.0 * conditional_entropy) / (2.0 * math.pi * math.e)


def van_trees(joint: JointModel) -> BoundReport:
    """van Trees MSE lower bound: 1 / (int F p dphi + P); flagged when P diverges."""
    return _fisher_plus_prior_bound(joint, "van-trees", SQUARED_UNITS, LOWER_MSE,
                                    lambda total: 1.0 / total)


def _support_slice(prior: PriorDensity) -> tuple[int, int]:
    idx = np.flatnonzero(prior.density > 0.0)
    if idx.size == 0:
        raise ValueError("prior has no support on the grid")
    i0, i1 = int(idx[0]), int(idx[-1])
    # widen to an even number of subintervals; extra sqrt(F) mass only loosens
    # the bound, which keeps it valid
    if (i1 - i0) % 2 != 0:
        if i1 < prior.grid.points - 1:
            i1 += 1
        else:
            i0 -= 1
    return i0, i1


def mse_bound_finite_support(joint: JointModel) -> BoundReport:
    """MSE lower bound from the finite-support MI bound.

    value = [e^(2 H(phi)) / (2 pi e)] / (1 + (1/2) int_support sqrt(F))^2.
    For a rectangle prior with constant F the closed form
    (2 / pi e) / (2/d + sqrt(F))^2 is reported in ``extras``.
    """
    prior = joint.prior
    profile = joint.conditional.fisher
    grid = joint.grid
    i0, i1 = _support_slice(prior)
    length = jeffreys_length(profile, (grid.values[i0], grid.values[i1]))
    entropy = prior_entropy(prior)
    value = entropy_mse_floor(entropy) / (1.0 + 0.5 * length) ** 2
    extras = {}
    f_const = profile.constant_value() if prior.kind == "rectangle" else None
    if f_const is not None:
        extras["rectangle-closed-form"] = (
            2.0 / (math.pi * math.e) / (2.0 / prior.params["width"] + math.sqrt(f_const)) ** 2)
    return BoundReport(
        name="mse-bound-finite-support",
        value=value,
        units=SQUARED_UNITS,
        direction=LOWER_MSE,
        inputs={"jeffreys_length": length, "prior_entropy": entropy},
        extras=extras,
    )


def mse_bound_general_prior(joint: JointModel) -> BoundReport:
    """MSE lower bound for arbitrary priors.

    value = (2 / pi e) / (int sqrt(F p^2 + pdot^2) dphi)^2, with declared
    edge jumps added at full magnitude to the integral (subadditivity), which
    only loosens the bound.
    """
    total = _l1_total(joint)
    return BoundReport(
        name="mse-bound-general-prior",
        value=2.0 / (math.pi * math.e) / total ** 2,
        units=SQUARED_UNITS,
        direction=LOWER_MSE,
        inputs={"l1_total": total, "prior_kind": joint.prior.kind},
    )


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
    u = tricomi_u(-0.5, 0.0, z) if z > 0.0 else 1.0 / math.sqrt(math.pi)
    l1 = math.sqrt(2.0) / sigma * u
    coeff = 2.0 / (math.pi * math.e)
    inputs = {"F": F, "sigma": sigma, "tricomi_u": u}
    exact = BoundReport("gaussian-prior-mse-exact", coeff / l1 ** 2,
                        SQUARED_UNITS, LOWER_MSE, inputs=inputs)
    simplified = BoundReport("gaussian-prior-mse-simplified", coeff / (F + 1.0 / sigma ** 2),
                             SQUARED_UNITS, LOWER_MSE, inputs=dict(inputs))
    return exact, simplified


def all_bounds(joint: JointModel) -> list[BoundReport]:
    """Every bound that applies to ``joint``, MI upper bounds first.

    Efroimovich and van Trees stay in with their flag when P diverges; the
    closed forms need constant F and a rectangle or Gaussian prior.
    """
    reports = [mi_bound_finite_support(joint.conditional.fisher), mi_bound_general_prior(joint),
               efroimovich_mi_bound(joint), van_trees(joint), mse_bound_finite_support(joint)]
    closed = reports[-1].extras.get("rectangle-closed-form")
    if closed is not None:
        reports.append(BoundReport("mse-rectangle-closed-form", closed, SQUARED_UNITS, LOWER_MSE))
    reports.append(mse_bound_general_prior(joint))
    f_const = joint.conditional.fisher.constant_value() if joint.prior.kind == "gaussian" else None
    if f_const is not None:
        reports.extend(gaussian_prior_mse_bounds(f_const, joint.prior.params["sigma"]))
    return reports
