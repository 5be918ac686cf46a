"""Brute-force ground truth: mutual information, Bayes cost, MLE asymptotics.

Everything here is an independent oracle for the bounds module: plain
quadrature of the defining integrals, the posterior-mean estimator for the
quadratic cost, exact n-sample models, and the exact conditional entropy of
the maximum-likelihood estimator given n samples.

An n-sample model (:func:`repeat_model`) is indexed by types, the outcome
count vectors t with sum_x t_x = n (method of types, Cover & Thomas,
*Elements of Information Theory*, ch. 11), a sufficient statistic for iid
samples: a binary model reaches n in the thousands within the default
budget of 4096 types.  The maximum-likelihood estimate is a function of the
type too, so the MLE study groups the same rows by their estimate instead
of sampling them.

Kernel contract: the type-table kernels may drop work but never change a
bit of any table or :class:`OracleResult` (the tests keep the first
versions as references).  An :class:`MleStudyPoint` keeps its bits when no
estimate is reached by exactly one type; the rows of such one-type
estimates take p ln p from the exponent instead of a log, a different
rounding, so a study row with them is held to a relative 1e-13 of the
first version and of an ``np.longdouble`` replay (at most 3.6e-14
measured across OpenBLAS kernels, where the first version is itself up to
3.0e-14 off the replay).  The MLE study holds one (types, points) table
per sample size and makes these passes over it:

* scores: one matmul ``types @ ln p``, ln p the penalised log the
  conditional model keeps (-1e15 where p = 0);
* estimates: the row-wise ``argmax`` of the scores, and how many types
  reach each (``np.bincount``);
* scores of the permuted types: the rows of estimates reached by several
  types go first, in estimate order, and the one-type rows after them in
  table order.  Unless the rows already stand so (on cos^2 tables every
  estimate has one type), the type rows and their ln C(t) are put in that
  stable order and the matmul runs again into the same table.  A row's
  product does not depend on the row's position, so each row gets the
  bits it had;
* one-type rows (``_one_type_terms``): one add of ln C(t) gives
  e = ln p(t|phi); then, in blocks of whole rows through one scratch of
  ``STUDY_BLOCK`` entries, the entries at or below ``LOG_TINY`` set to the
  most negative float, p = exp(e) into the scratch, one product
  p @ [q, q ln p(phi)] for pbar and the prior term, and e overwritten with
  p e; then one matrix-vector product of the p e rows with q.  No log, no
  zero fix;
* the other rows, ``_type_probs``: one add of ln C(t), one fill of the
  entries at or below ``LOG_TINY`` with -inf (which covers every t_x > 0
  meeting p_x = 0: its exponent is near -1e15), one plain ``exp`` in place;
* run sums (``_sum_runs``): each run of equal estimates, two rows or more,
  summed in table order into the leading rows;
* ``_information_in_place``: on the summed runs, the matrix-vector
  product p @ q and the column sums first, then p overwritten with p ln p
  in flat chunks through one small scratch (elementwise, so the chunks
  give the same bits as one pass), then the same matrix-vector product
  on the whole table (a product over row chunks would not keep the bits);
  the pbar of the one-type rows joins its pbar ln pbar term.

Two caches keep what the oracles would otherwise rebuild:

* the type tables: ``_type_rows`` keeps the read-only (types, ln C(t))
  pair of the last ``TYPE_CACHE`` = 32 (n, K) requested, after the budget
  check.  At the 4096-type budget an entry holds at most 2.98 MB (n = 2,
  K = 90: 4095 x 90 int64 counts and 4095 float64 ln C(t)).  A one-sample
  table is the K x K identity, up to 128 MiB, so it is built and not kept;
* the penalised ln p of a conditional model, ``ConditionalModel._log_probs``,
  one (K, points) float64 table per model, which ``repeat_model`` and the
  study both read.

``repeat_model``'s derivative table is one product per outcome into a
reused scratch table, added through a slice where its rows form one run
(always for the first outcome), else through an index array.  The oracles
read q = w p(phi), q ln p(phi), q u and q u^2 (u = phi less the grid's
midpoint) from the prior and the column sums from the conditional model,
each kept there on first use; no oracle forms the joint table p(x|phi)
p(phi).  :func:`mutual_information` forms pbar = p @ q once, for the
entropy terms and the Bayes cost, and applies ``_information_in_place`` to
a copy of the conditional table.

The tables ``repeat_model`` builds are made read-only and handed to
:class:`~infobounds.stat_model.ConditionalModel`, which keeps such tables
without a copy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .stat_model import ConditionalModel, JointModel, _read_only, average_fisher

__all__ = [
    "BudgetError",
    "MleStudyPoint",
    "OracleResult",
    "bayes_quadratic_cost",
    "mle_convergence_study",
    "mutual_information",
    "repeat_model",
]


TYPE_BUDGET = 4096  # default cap on the rows of a type table
TYPE_CACHE = 32     # type tables kept, one per (n, K), see _type_rows
CHUNK = 8192        # entries per pass of the in-place p ln p, a 64 KiB scratch
STUDY_BLOCK = 16384  # entries per block of the study's one-type rows, a 128 KiB scratch
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
    p(phi) = 0 or pbar_x = 0 contribute 0.  Neither this nor
    :func:`bayes_quadratic_cost` forms the joint table p(x|phi) p(phi).
    """
    cond = joint.conditional
    q, q_log_prior = joint.prior._quadrature[:2]
    pbar = cond.probs @ q
    mi, h_posterior = _information_in_place(
        cond.probs.copy(order="K"), q, q_log_prior, cond._colsums, pbar)
    return OracleResult(
        mi=mi,
        h_prior=joint.prior.entropy,
        h_posterior=h_posterior,
        bayes_mse=_bayes_cost(joint, pbar),
    )


def _information_in_place(p: np.ndarray, q: np.ndarray, q_log_prior: np.ndarray,
                          colsums: np.ndarray, pbar: np.ndarray) -> tuple[float, float]:
    """(I, H(phi|x)) of a contiguous (K, points) table p(x|phi), overwritten with p ln p.

    ``q`` is w p(phi), ``q_log_prior`` is q ln p(phi), ``colsums`` is
    sum_x p(x|phi) and ``pbar`` is p @ q, as :func:`mutual_information`
    defines them.  The MLE study passes the pbar of more outcomes than p
    holds, and adds the other terms of those outcomes to H itself
    (:func:`_one_type_terms`).
    """
    flat = p.ravel(order="K")  # a view: p is contiguous
    scratch = np.empty(min(CHUNK, flat.size))
    with np.errstate(divide="ignore"):
        for start in range(0, flat.size, CHUNK):
            chunk = flat[start:start + CHUNK]
            log = scratch[:chunk.size]
            np.log(chunk, out=log)
            np.copyto(log, 0.0, where=chunk == 0.0)  # 0 ln 0 = 0
            chunk *= log
    pbar = pbar[pbar > 0.0]
    mi = float((p @ q).sum()) - float(pbar @ np.log(pbar))
    return mi, -mi - float(q_log_prior @ colsums)


def bayes_quadratic_cost(joint: JointModel) -> float:
    """Minimal Bayes MSE, attained by the posterior mean: E_x[ Var(phi|x) ].

    With q, pbar = p @ q and s as in :func:`mutual_information`, it is
    (q u^2) . s - sum_x (p @ q u)_x^2 / pbar_x over the x with pbar_x > 0, u
    = phi less the grid's midpoint: moments in phi itself would cancel as
    |phi| grows, and moving the grid would move the cost.
    """
    return _bayes_cost(joint, joint.conditional.probs @ joint.prior._quadrature[0])


def _bayes_cost(joint: JointModel, pbar: np.ndarray) -> float:
    """:func:`bayes_quadratic_cost` given pbar = p @ q."""
    _, _, q_u, q_u2 = joint.prior._quadrature
    first = joint.conditional.probs @ q_u
    pos = pbar > 0.0
    return float(q_u2 @ joint.conditional._colsums) - float(np.sum(first[pos] ** 2 / pbar[pos]))


def _type_table(n: int, k: int, budget: int = TYPE_BUDGET) -> tuple[np.ndarray, np.ndarray]:
    """(types, ln C(t)): every count vector of n samples over k outcomes, as a read-only
    (count, k) int array, and the read-only log multinomial coefficient of each row.

    Rows are in descending lexicographic order, so row 0 is (n, 0, ..., 0)
    and the last row is (0, ..., 0, n).  More than ``budget`` rows raise
    :class:`BudgetError` before any is built.  Tables with n > 1 are kept
    per (n, k) (see the module docstring); the one-sample table is the
    identity, every ln C(t) 0.
    """
    count = math.comb(n + k - 1, k - 1)
    if count > budget:
        raise BudgetError(
            f"C(n+K-1, K-1) = C({n + k - 1}, {k - 1}) = {count} types exceed the "
            f"budget of {budget}")
    if n == 1:  # the k x k identity, up to 128 MiB at the budget: built, not kept
        return _read_only(np.eye(k, dtype=np.int64), np.zeros(k))
    return _type_rows(int(n), int(k))


@functools.lru_cache(maxsize=TYPE_CACHE)
def _type_rows(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables of :func:`_type_table`, built without a budget check."""
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for _ in range(k - 1):
        reps = left + 1
        offset = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        first = np.repeat(left, reps) - offset  # left, left - 1, ..., 0 per prefix
        rows = np.column_stack([np.repeat(rows, reps, axis=0), first])
        left = np.repeat(left, reps) - first
    types = np.column_stack([rows, left])
    return _read_only(types, _log_coefficients(types))


def _log_coefficients(types: np.ndarray) -> np.ndarray:
    """ln C(t) = ln n! - sum_x ln t_x! of every row of a type table, from ``math.lgamma``.

    Each factorial is accurate to a few ulps, so the error does not grow
    with n as a running sum of logarithms would.
    """
    n = int(types[0].sum())
    log_fact = np.array([math.lgamma(m + 1.0) for m in range(n + 1)])
    return log_fact[n] - log_fact[types].sum(axis=1)


def _type_probs(exponent: np.ndarray, log_coef: np.ndarray) -> np.ndarray:
    """p(t|phi) = exp(ln C(t) + sum_x t_x ln p_x(phi)) for every type row t, in place.

    ``exponent`` is ``types @ ln p`` with ln 0 taken as -1e15, the penalised
    log ``ConditionalModel._log_probs``; it is overwritten and returned.
    ``log_coef`` is the ln C(t) column of these rows;
    :func:`_log_coefficients` gives it to a few ulps, so what is left of the
    error is the rounding of the exponent.  An entry is exactly 0
    where some t_x > 0 meets p_x = 0 (its exponent is near -1e15), or where
    it would be subnormal (an exp that underflows runs many times slower
    than a normal one): every entry at or below ``LOG_TINY`` goes to -inf
    before one plain ``exp``.
    """
    out = exponent
    out += log_coef[:, None]
    np.copyto(out, -np.inf, where=out <= LOG_TINY)
    np.exp(out, out=out)
    return out


def _one_type_terms(exponent: np.ndarray, log_coef: np.ndarray, q: np.ndarray,
                    q_log_prior: np.ndarray) -> tuple[np.ndarray, float]:
    """(pbar, their share of H(phi|x)) of type rows that are each an outcome of their own.

    ``exponent`` is their scores ``types @ ln p`` and ``log_coef`` their
    ln C(t), as :func:`_type_probs` takes them; the exponent e is ln p(t|phi),
    so p ln p = p e, with no log.  The share is -sum_phi (q p e + q ln p(phi)
    p) over the rows, the terms of :func:`mutual_information`'s H(phi|x)
    but pbar ln pbar.  The rows are overwritten with p e, and walked in
    blocks of whole rows (``STUDY_BLOCK`` entries, at least one row) through
    one scratch that holds p.  As in :func:`_type_probs`, an entry at or
    below ``LOG_TINY`` gives p = 0; it is set to the most negative float, so
    that exp gives 0 and p e is 0, not NaN.
    """
    e = exponent
    e += log_coef[:, None]
    weights = np.column_stack([q, q_log_prior])
    pbar_prior = np.empty((len(e), 2))  # p @ q and p @ q ln p(phi) per row
    rows = max(1, min(len(e), STUDY_BLOCK // e.shape[1]))
    scratch = np.empty((rows, e.shape[1]))
    lowest = -np.finfo(float).max
    for start in range(0, len(e), rows):
        block = e[start:start + rows]
        p = scratch[:len(block)]
        np.copyto(block, lowest, where=block <= LOG_TINY)
        np.exp(block, out=p)
        np.matmul(p, weights, out=pbar_prior[start:start + len(block)])
        block *= p
    return pbar_prior[:, 0], -float((e @ q).sum()) - float(pbar_prior[:, 1].sum())


def repeat_model(joint: JointModel, n: int, budget: int = TYPE_BUDGET) -> JointModel:
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
    :class:`BudgetError`.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return joint
    cond = joint.conditional
    k = cond.n_outcomes
    types, log_coef = _type_table(n, k, budget)
    # the rows with t_x >= 1, minus e_x, are the (n-1)-types in table order:
    # subtracting one fixed vector keeps the lexicographic order of the rows;
    # for x = 0 they are the leading rows, the first coordinate descending
    prev, prev_coef = _type_table(n - 1, k, budget)
    log_p = cond._log_probs
    probs = _type_probs(types @ log_p, log_coef)
    prev_probs = _type_probs(prev @ log_p, prev_coef)
    dprobs = np.zeros(probs.shape)
    product = np.empty_like(prev_probs)
    for x in range(k):
        rows = np.flatnonzero(types[:, x])
        # one run of rows (always for x = 0) is added through a slice, in
        # place, instead of a gather and a scatter
        if rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(rows[0], rows[-1] + 1)
        np.multiply(prev_probs, cond.dprobs[x], out=product)
        dprobs[rows] += product
    dprobs *= n
    labels = tuple(map(tuple, types.tolist()))
    probs, dprobs = _read_only(probs, dprobs)
    counted = ConditionalModel(cond.grid, probs, dprobs, cond.derivative_source, labels,
                               _samples=n * cond._samples)
    return JointModel(joint.prior, counted)


def _sum_runs(table: np.ndarray, sorted_keys: np.ndarray) -> int:
    """Sum run g of equal ``sorted_keys`` in a C-contiguous ``table`` into row g, in table
    order, and return the number of runs.  Each run has two rows or more: the MLE study
    passes only the estimates that several types reach."""
    bounds = [0, *(np.flatnonzero(np.diff(sorted_keys)) + 1).tolist(), len(sorted_keys)]
    # row g is at or before the run's first row: the rows it overwrites are read
    for g in range(len(bounds) - 1):
        table[g] = table[bounds[g]:bounds[g + 1]].sum(axis=0)
    return len(bounds) - 1


@dataclass(frozen=True)
class MleStudyPoint:
    """One row of the MLE convergence study."""

    n: int
    h_conditional: float   # exact H(phi | phi_ML)
    asymptote: float       # -(1/2) ln[ n * int F p dphi / (2 pi e) ], inf where int F p = 0
    gap: float             # |h_conditional - asymptote|


def mle_convergence_study(joint: JointModel, n_list, trials=None,
                          seed=None) -> list[MleStudyPoint]:
    """Exact H(phi | phi_ML) of n iid samples, against its asymptotic value.

    The grid-restricted maximum-likelihood estimate depends on the samples
    only through their type t, so for each n the study takes the
    C(n+K-1, K-1) types of :func:`repeat_model` (within its default budget,
    else :class:`BudgetError`), sums the rows p(t|phi) that share an
    estimate, and returns the posterior entropy of that table by
    quadrature.  A type that is the only one of its estimate is a row of its
    own, whose p ln p is p times the exponent ln p(t|phi) the study already
    holds, so it needs no log (see the module docstring).  Nothing is
    sampled: ``trials`` and ``seed`` are accepted and ignored, so callers
    that pass them keep working.

    The estimate of a type is ``np.argmax`` of its row of the rounded scores
    ``types @ ln p``: the first grid index of the largest rounded score.
    Where two grid points tie in exact arithmetic, their scores may round
    apart, and how depends on the BLAS kernel's summation order, so the
    estimate, and with it H(phi|phi_ML), can change with the kernel.  For
    ``channel_outcome_model("erasure", 0.7, grid)`` with a rectangle prior
    on [0, 2 pi] at 1001 points and n = 16, H is 0.7474315 under the
    SkylakeX OpenBLAS kernels and 0.7475523 under ``OPENBLAS_CORETYPE=Prescott``.

    A model with int F p = 0 under the prior has ``asymptote`` and ``gap``
    inf, their limit as int F p -> 0+; ``h_conditional`` is still exact.
    """
    n_list = list(n_list)
    for n in n_list:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"sample sizes must be integers, got {n!r}")
        if n < 1:
            raise ValueError(f"sample sizes must be >= 1, got {n}")
    cond = joint.conditional
    log_p = cond._log_probs
    points = cond.grid.points
    q, q_log_prior = joint.prior._quadrature[:2]
    avg_f1 = average_fisher(joint)

    results = []
    for n in n_list:
        types, log_coef = _type_table(n, cond.n_outcomes)
        # the one table of this n: the scores, which are also the exponent
        # of p(t|phi) (the penalty only stands where some t_x > 0 meets
        # p_x = 0, which both paths below zero).  Each estimate's types form
        # one run: the rows of longer runs go first, in estimate order, and
        # the one-type rows after them, as they come
        table = types @ log_p
        mle = np.argmax(table, axis=1)
        key = np.where(np.bincount(mle, minlength=points)[mle] == 1, points, mle)
        if (key[1:] < key[:-1]).any():
            order = np.argsort(key, kind="stable")
            types, log_coef, key = types[order], log_coef[order], key[order]
            np.matmul(types, log_p, out=table)  # each row keeps its bits
        m = int(np.searchsorted(key, points))  # the rows of longer runs
        pbar_one, h_one = _one_type_terms(table[m:], log_coef[m:], q, q_log_prior)
        if m:  # p(t|phi), each run summed into a row
            _type_probs(table[:m], log_coef[:m])
            m = _sum_runs(table[:m], key[:m])
        by_mle = table[:m]
        h = _information_in_place(by_mle, q, q_log_prior, by_mle.sum(axis=0),
                                  np.concatenate([by_mle @ q, pbar_one]))[1] + h_one
        # with no Fisher information under the prior, the limit as int F p -> 0+
        asymptote = (-0.5 * math.log(n * avg_f1 / (2.0 * math.pi * math.e)) if avg_f1 > 0.0
                     else math.inf)
        results.append(MleStudyPoint(n=int(n), h_conditional=h, asymptote=asymptote,
                                     gap=abs(h - asymptote)))
    return results
