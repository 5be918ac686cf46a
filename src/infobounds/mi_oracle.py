"""Brute-force ground truth: mutual information, Bayes cost, MLE asymptotics.

Everything here is an independent oracle for the bounds module: plain
quadrature of the defining integrals, the posterior-mean estimator for the
quadratic cost, and a seeded Monte-Carlo study of the maximum-likelihood
estimator's conditional entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import ParameterGrid, simpson_weights
from .stat_model import (
    ConditionalModel,
    JointModel,
    average_fisher,
    prior_entropy,
)

__all__ = [
    "BudgetError",
    "MleStudyPoint",
    "OracleResult",
    "bayes_quadratic_cost",
    "merge_outcomes",
    "mle_convergence_study",
    "mutual_information",
    "repeat_model",
]


class BudgetError(RuntimeError):
    """An exact construction would exceed its configured size budget."""


@dataclass(frozen=True)
class OracleResult:
    """Exact (quadrature) information quantities of one joint model.

    mi = h_prior - h_posterior holds by construction up to quadrature
    roundoff; bayes_mse is the cost of the posterior-mean estimator, the
    exact minimizer of the quadratic Bayes cost.
    """

    mi: float
    h_prior: float
    h_posterior: float
    bayes_mse: float
    estimator: str = "posterior-mean"


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] * np.log(y[pos])
    return out


def mutual_information(joint: JointModel) -> OracleResult:
    """I(x, phi) = sum_x int p(x,phi) ln[ p(x,phi) / (pbar_x p(phi)) ] dphi, in nats.

    All terms with p(x,phi) = 0 contribute 0.  The conditional entropy
    H(phi|x) is quadratured from its own integrand rather than derived from
    the identity, so mi = h_prior - h_posterior is a genuine consistency
    check on the result.
    """
    w = simpson_weights(joint.grid)
    jp = joint.joint_probs()
    pbar = jp @ w
    prior = joint.prior.density

    ratio_mi = np.ones_like(jp)
    pos = jp > 0.0
    denom = pbar[:, None] * prior[None, :]
    ratio_mi[pos] = jp[pos] / denom[pos]
    mi = float(np.sum(_xlogy(jp, ratio_mi) @ w))

    ratio_cond = np.ones_like(jp)
    ratio_cond[pos] = jp[pos] / np.broadcast_to(pbar[:, None], jp.shape)[pos]
    h_posterior = -float(np.sum(_xlogy(jp, ratio_cond) @ w))

    return OracleResult(
        mi=mi,
        h_prior=prior_entropy(joint.prior),
        h_posterior=h_posterior,
        bayes_mse=bayes_quadratic_cost(joint),
    )


def bayes_quadratic_cost(joint: JointModel) -> float:
    """Minimal Bayes MSE, attained by the posterior mean: E_x[ Var(phi|x) ]."""
    w = simpson_weights(joint.grid)
    phi = joint.grid.values
    jp = joint.joint_probs()
    pbar = jp @ w
    second = float((jp @ (w * phi * phi)).sum())
    first = jp @ (w * phi)
    pos = pbar > 0.0
    return second - float(np.sum(first[pos] ** 2 / pbar[pos]))


def repeat_model(joint: JointModel, n: int, budget: int = 4096) -> JointModel:
    """Joint model of n independent samples from the same conditional model.

    The outcome alphabet is the n-fold product (K^n outcomes); its Fisher
    information is n times the single-sample one.  Exceeding ``budget``
    outcomes raises :class:`BudgetError` pointing at the Monte-Carlo path
    (:func:`mle_convergence_study`) instead.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return joint
    cond = joint.conditional
    k = cond.n_outcomes
    if k ** n > budget:
        raise BudgetError(
            f"{k}^{n} outcomes exceed the budget of {budget}; "
            "use mle_convergence_study for a Monte-Carlo treatment")
    probs = cond.probs
    dprobs = cond.dprobs
    rep_p = probs
    rep_d = dprobs
    labels = [(x,) for x in cond.outcomes]
    for _ in range(n - 1):
        # product rule: d(ab) = (da) b + a (db), tensored over the alphabet
        rep_d = (rep_d[:, None, :] * probs[None, :, :]
                 + rep_p[:, None, :] * dprobs[None, :, :]).reshape(-1, probs.shape[1])
        rep_p = (rep_p[:, None, :] * probs[None, :, :]).reshape(-1, probs.shape[1])
        labels = [prev + (x,) for prev in labels for x in cond.outcomes]
    product = ConditionalModel(cond.grid, rep_p, rep_d, cond.derivative_source, tuple(labels))
    return JointModel(joint.prior, product)


def merge_outcomes(model: ConditionalModel, labels) -> ConditionalModel:
    """Coarse-grain outcomes by a deterministic labeling (data processing).

    ``labels[i]`` is the group of outcome i; rows with equal labels are
    summed.  Mutual information can only decrease under this map.
    """
    labels = list(labels)
    if len(labels) != model.n_outcomes:
        raise ValueError("need one label per outcome")
    groups = sorted(set(labels), key=labels.index)
    members = [[i for i, g in enumerate(labels) if g == grp] for grp in groups]
    probs = np.vstack([model.probs[rows].sum(axis=0) for rows in members])
    dprobs = np.vstack([model.dprobs[rows].sum(axis=0) for rows in members])
    return ConditionalModel(model.grid, probs, dprobs, model.derivative_source, tuple(groups))


@dataclass(frozen=True)
class MleStudyPoint:
    """One row of the MLE convergence study."""

    n: int
    h_conditional: float   # plug-in estimate of H(phi | phi_ML)
    asymptote: float       # -(1/2) ln[ n * int F p dphi / (2 pi e) ]
    gap: float
    trials: int
    low_resolution: bool   # too few trials for the histogram resolution


def _prior_cdf_sampler(joint: JointModel):
    """Inverse-CDF sampler over the prior (trapezoid CDF, linear interpolation)."""
    grid = joint.grid
    p = joint.prior.density
    h = grid.spacing
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * h * (p[1:] + p[:-1]))])
    cdf /= cdf[-1]
    values = grid.values

    def sample(u: np.ndarray) -> np.ndarray:
        return np.interp(u, cdf, values)

    return sample


def _plugin_conditional_entropy(phi: np.ndarray, mle_idx: np.ndarray,
                                grid: ParameterGrid) -> tuple[float, int]:
    """Plug-in estimate of the differential H(phi | phi_hat).

    phi is binned at the grid spacing; phi_hat is already a grid index.  The
    estimator carries the usual negative sampling bias, which is accepted:
    the study only asserts that the gap to the asymptote shrinks.
    """
    h = grid.spacing
    bins = np.clip(((phi - grid.lower) / h).astype(np.int64), 0, grid.points - 1)
    key = bins * np.int64(grid.points) + mle_idx
    _, joint_counts = np.unique(key, return_counts=True)
    _, mle_counts = np.unique(mle_idx, return_counts=True)
    t = float(phi.size)
    h_joint = -np.sum(joint_counts / t * np.log(joint_counts / t))
    h_mle = -np.sum(mle_counts / t * np.log(mle_counts / t))
    return float(h_joint - h_mle + math.log(h)), int(joint_counts.size)


def mle_convergence_study(joint: JointModel, n_list, trials: int,
                          seed: int) -> list[MleStudyPoint]:
    """Monte-Carlo check that H(phi | phi_ML) approaches its asymptotic value.

    For each n: draw phi from the prior, draw n iid outcomes, take the
    grid-restricted maximum-likelihood estimate (ties broken toward the
    smallest grid index), and estimate H(phi | phi_ML) by a plug-in histogram
    with bin width equal to the grid spacing.  The random stream is split per
    (n, trial) via seed sequences, so results are reproducible for a fixed
    seed regardless of how trials are scheduled.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    grid = joint.grid
    cond = joint.conditional
    # large finite penalty instead of -inf so unobserved outcomes (count 0)
    # cannot produce 0 * inf
    logp = np.full_like(cond.probs, -1e15)
    pos = cond.probs > 0.0
    logp[pos] = np.log(cond.probs[pos])
    sampler = _prior_cdf_sampler(joint)
    avg_f1 = average_fisher(joint)
    values = grid.values

    results = []
    for n_index, n in enumerate(n_list):
        if n < 1:
            raise ValueError(f"sample sizes must be >= 1, got {n}")
        counts = np.empty((trials, cond.n_outcomes), dtype=np.int64)
        phi_true = np.empty(trials)
        for t in range(trials):
            rng = np.random.default_rng([seed, n_index, t])
            phi = sampler(rng.random())
            phi_true[t] = phi
            # linear interpolation of the outcome distribution between grid nodes
            x = (phi - grid.lower) / grid.spacing
            i0 = min(int(x), grid.points - 2)
            frac = x - i0
            pvec = (1.0 - frac) * cond.probs[:, i0] + frac * cond.probs[:, i0 + 1]
            counts[t] = rng.multinomial(n, pvec / pvec.sum())
        loglik = counts @ logp  # (trials, points); -inf marks impossible phi
        mle_idx = np.argmax(loglik, axis=1)
        h_est, occupied = _plugin_conditional_entropy(phi_true, mle_idx, grid)
        asymptote = -0.5 * math.log(n * avg_f1 / (2.0 * math.pi * math.e))
        results.append(MleStudyPoint(
            n=int(n),
            h_conditional=h_est,
            asymptote=asymptote,
            gap=abs(h_est - asymptote),
            trials=trials,
            low_resolution=bool(trials < 5 * occupied),
        ))
    return results
