"""Brute-force ground truth: mutual information, Bayes cost, MLE asymptotics.

Everything here is an independent oracle for the bounds module: plain
quadrature of the defining integrals, the posterior-mean estimator for the
quadratic cost, exact n-sample models, and a seeded Monte-Carlo study of the
maximum-likelihood estimator's conditional entropy.

An n-sample model (:func:`repeat_model`) is indexed by types, the outcome
count vectors t with sum_x t_x = n (method of types, Cover & Thomas,
*Elements of Information Theory*, ch. 11).  Counts are a sufficient
statistic for iid samples, so its C(n+K-1, K-1) rows give the same oracle
values as the K^n outcome sequences: a binary model reaches n in the
thousands within the default budget of 4096 types.
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


MLE_CHUNK = 1024  # trials per random stream in mle_convergence_study
LOG_TINY = math.log(np.finfo(float).tiny)  # below this exp(.) is subnormal


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


def mutual_information(joint: JointModel) -> OracleResult:
    """I(x, phi) = sum_x int p(x,phi) ln[ p(x,phi) / (pbar_x p(phi)) ] dphi, in nats.

    With q = w p(phi), w the Simpson weights, the integrand splits into
    terms that need one pass over the conditional table p(x|phi):

        I        =  sum_phi q sum_x p ln p  -  sum_x pbar_x ln pbar_x,
        H(phi|x) = -I - sum_phi q ln p(phi) s(phi),

    where pbar = p @ q and s(phi) = sum_x p(x|phi) are the measured column
    sums (1 to within validation tolerance; using them keeps H(phi|x) equal
    to the quadrature of its own integrand).  Terms with p(x|phi) = 0,
    p(phi) = 0 or pbar_x = 0 contribute 0.  The joint table p(x|phi) p(phi)
    is never formed.
    """
    p = joint.conditional.probs
    prior = joint.prior.density
    q = simpson_weights(joint.grid) * prior
    plogp = np.zeros(p.shape)
    np.log(p, out=plogp, where=p > 0.0)
    plogp *= p
    pbar = p @ q
    pbar = pbar[pbar > 0.0]
    mi = float((plogp @ q).sum()) - float(pbar @ np.log(pbar))
    log_prior = np.zeros_like(prior)
    np.log(prior, out=log_prior, where=prior > 0.0)
    h_posterior = -mi - float((q * log_prior) @ p.sum(axis=0))

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


def _types(n: int, k: int) -> np.ndarray:
    """Every count vector of n samples over k outcomes, as a (count, k) int array.

    Rows are in descending lexicographic order, so row 0 is (n, 0, ..., 0)
    and the last row is (0, ..., 0, n).
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for _ in range(k - 1):
        reps = left + 1
        offset = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        first = np.repeat(left, reps) - offset  # left, left - 1, ..., 0 per prefix
        rows = np.column_stack([np.repeat(rows, reps, axis=0), first])
        left = np.repeat(left, reps) - first
    return np.column_stack([rows, left])


def _type_probs(types: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """p(t|phi) = exp(ln C(t) + sum_x t_x ln p_x(phi)) for every type row t.

    C(t) = n! / prod_x t_x! is taken from ``math.lgamma``, accurate to a few
    ulps per factorial, so its error does not grow with n as a running sum of
    logarithms would; what is left is the rounding of the exponent.  An
    entry is exactly 0 where some t_x > 0 meets p_x = 0 (its exponent could
    overflow), or where it would be subnormal (an exp that underflows runs
    many times slower than a normal one); ``exp`` only runs on the others.
    """
    n = int(types[0].sum())
    log_fact = np.array([math.lgamma(m + 1.0) for m in range(n + 1)])
    log_coef = log_fact[n] - log_fact[types].sum(axis=1)
    positive = probs > 0.0
    log_p = np.zeros(probs.shape)
    np.log(probs, out=log_p, where=positive)
    out = types.astype(float) @ log_p
    out += log_coef[:, None]
    out[(types > 0) @ ~positive] = -np.inf
    live = out > LOG_TINY
    np.exp(out, out=out, where=live)
    out[~live] = 0.0
    return out


def repeat_model(joint: JointModel, n: int, budget: int = 4096) -> JointModel:
    """Joint model of n independent samples from the same conditional model.

    The outcomes of the repeated model are types: count vectors t with t_x
    samples of the base outcome ``outcomes[x]`` and sum_x t_x = n.  Counts are
    a sufficient statistic for iid samples, so the C(n+K-1, K-1) types carry
    the same mutual information, posterior entropy, Bayes cost and Fisher
    information (n times the single-sample one) as the K^n sequences.  The
    labels are the count tuples in descending lexicographic order: row 0 is
    (n, 0, ..., 0), the last row (0, ..., 0, n).

        p(t|phi)  = C(t) prod_x p_x^{t_x},      C(t) = n! / prod_x t_x!
        pdot(t)   = n sum_{x: t_x >= 1} pdot_x p_{n-1}(t - e_x|phi)

    the second from C(t) t_x = n C(t - e_x), with no division by p_x.
    ``n = 1`` returns ``joint`` itself.  More than ``budget`` types raise
    :class:`BudgetError` pointing at the Monte-Carlo path
    (:func:`mle_convergence_study`) instead.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return joint
    cond = joint.conditional
    k = cond.n_outcomes
    count = math.comb(n + k - 1, k - 1)
    if count > budget:
        raise BudgetError(
            f"C(n+K-1, K-1) = C({n + k - 1}, {k - 1}) = {count} types exceed the "
            f"budget of {budget}; use mle_convergence_study for a Monte-Carlo treatment")
    types = _types(n, k)
    probs = _type_probs(types, cond.probs)
    # the rows with t_x >= 1, minus e_x, are the (n-1)-types in table order:
    # subtracting one fixed vector keeps the lexicographic order of the rows
    prev = types[types[:, 0] >= 1]
    prev[:, 0] -= 1
    prev_probs = _type_probs(prev, cond.probs)
    dprobs = np.zeros_like(probs)
    for x in range(k):
        dprobs[types[:, x] >= 1] += prev_probs * cond.dprobs[x]
    dprobs *= n
    labels = tuple(map(tuple, types.tolist()))
    counted = ConditionalModel(cond.grid, probs, dprobs, cond.derivative_source, labels)
    return JointModel(joint.prior, counted)


def merge_outcomes(model: ConditionalModel, labels) -> ConditionalModel:
    """Coarse-grain outcomes by a deterministic labeling (data processing).

    ``labels[i]`` is the group of outcome i, any hashable value; rows with
    equal labels are summed, and the groups keep the order in which their
    labels first appear.  Mutual information can only decrease under this map.
    """
    labels = list(labels)
    if len(labels) != model.n_outcomes:
        raise ValueError("need one label per outcome")
    groups: dict = {}
    rows = np.array([groups.setdefault(g, len(groups)) for g in labels], dtype=np.intp)
    probs = np.zeros((len(groups), model.grid.points))
    dprobs = np.zeros_like(probs)
    np.add.at(probs, rows, model.probs)
    np.add.at(dprobs, rows, model.dprobs)
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
    with bin width equal to the grid spacing.  Trials are drawn in chunks of
    ``MLE_CHUNK``, each from its own stream seeded by (seed, n index, chunk
    index), so results are reproducible for a fixed seed regardless of how
    chunks are scheduled, and a row does not depend on the other rows.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    grid = joint.grid
    probs = joint.conditional.probs
    # large finite penalty instead of -inf so unobserved outcomes (count 0)
    # cannot produce 0 * inf
    logp = np.full(probs.shape, -1e15)
    np.log(probs, out=logp, where=probs > 0.0)
    sampler = _prior_cdf_sampler(joint)
    avg_f1 = average_fisher(joint)

    results = []
    for n_index, n in enumerate(n_list):
        if n < 1:
            raise ValueError(f"sample sizes must be >= 1, got {n}")
        phi_true = np.empty(trials)
        mle_idx = np.empty(trials, dtype=np.int64)
        for chunk, start in enumerate(range(0, trials, MLE_CHUNK)):
            rng = np.random.default_rng([seed, n_index, chunk])
            phi = sampler(rng.random(min(MLE_CHUNK, trials - start)))
            # linear interpolation of the outcome distribution between grid nodes
            x = (phi - grid.lower) / grid.spacing
            i0 = np.minimum(x.astype(np.int64), grid.points - 2)
            frac = x - i0
            pvals = ((1.0 - frac) * probs[:, i0] + frac * probs[:, i0 + 1]).T
            counts = rng.multinomial(n, pvals / pvals.sum(axis=1, keepdims=True))
            stop = start + phi.size
            phi_true[start:stop] = phi
            mle_idx[start:stop] = np.argmax(counts @ logp, axis=1)
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
