"""Brute-force ground truth: mutual information, Bayes cost, MLE asymptotics.

Everything here is an independent oracle for the bounds module: plain
quadrature of the defining integrals, the posterior-mean estimator for the
quadratic cost, exact n-sample models, and the exact conditional entropy of
the maximum-likelihood estimator given n samples.

An n-sample model (:func:`repeat_model`) is indexed by types, the outcome
count vectors t with sum_x t_x = n (method of types, Cover & Thomas,
*Elements of Information Theory*, ch. 11).  Counts are a sufficient
statistic for iid samples, so its C(n+K-1, K-1) rows give the same oracle
values as the K^n outcome sequences: a binary model reaches n in the
thousands within the default budget of 4096 types.  The maximum-likelihood
estimate is a function of the type too, so the MLE study groups the same
rows by their estimate instead of sampling them.

Kernel contract: the type-table kernels may drop work but never change a
bit of any table, :class:`OracleResult` or :class:`MleStudyPoint` (the
tests keep the first versions as references).  The MLE study holds one
(types, points) table per sample size and makes these passes over it:

* ``_type_probs``: one matmul for the exponent (the study hands in its
  scores, the same matrix), one add of ln C(t), -inf only on the zero
  columns of outcomes that have zeros, one fill of the entries at or
  below ``LOG_TINY`` with -inf, one plain ``exp`` in place;
* ``_group_in_place``: the rows sorted by estimate in place, following the
  cycles of the stable ``argsort`` with one spare row; then each run of
  equal estimates compacted into the leading rows, a one-row group as its
  row plus 0.0, a longer one as the sum of its rows in table order;
* ``_information_in_place``: on the grouped rows, the matrix-vector
  product p @ q and the column sums first, then p overwritten with p ln p
  in flat chunks through one small scratch (elementwise, so the chunks
  give the same bits as one pass), then the same matrix-vector product
  on the whole table (a product over row chunks would not keep the bits).

``_group_sum`` and ``_information`` apply those kernels to a copy, so
their inputs are left alone.  ``repeat_model``'s derivative table is one
product per outcome into a reused scratch table, added through a slice
where its rows form one run (always for the first outcome), else through
an index array.  The oracles read q = w p(phi), q ln p(phi), q phi and
q phi^2 from the prior and the column sums from the conditional model, each
kept there on first use; no oracle forms the joint table p(x|phi) p(phi).
:func:`mutual_information` applies ``_information_in_place`` to a copy of
the conditional table.

The tables ``repeat_model`` and ``merge_outcomes`` build are made
read-only and handed to :class:`~infobounds.stat_model.ConditionalModel`,
which keeps such tables without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stat_model import ConditionalModel, JointModel, _prior_terms, _read_only, average_fisher

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


TYPE_BUDGET = 4096  # default cap on the rows of a type table
CHUNK = 8192        # entries per pass of the in-place p ln p, a 64 KiB scratch
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
    mi, h_posterior = _information_in_place(
        cond.probs.copy(order="K"), *joint.prior._quadrature[:2], cond._colsums)
    return OracleResult(
        mi=mi,
        h_prior=joint.prior.entropy,
        h_posterior=h_posterior,
        bayes_mse=bayes_quadratic_cost(joint),
    )


def _information(p: np.ndarray, prior: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """(I, H(phi|x)) of a bare (K, points) table p(x|phi), prior density and Simpson weights."""
    return _information_in_place(p.copy(order="K"), *_prior_terms(prior, w), p.sum(axis=0))


def _information_in_place(p: np.ndarray, q: np.ndarray, q_log_prior: np.ndarray,
                          colsums: np.ndarray) -> tuple[float, float]:
    """(I, H(phi|x)) of a contiguous (K, points) table p(x|phi), overwritten with p ln p.

    ``q`` is w p(phi), ``q_log_prior`` is q ln p(phi) and ``colsums`` is
    sum_x p(x|phi), as :func:`mutual_information` defines them.
    """
    pbar = p @ q
    flat = p.ravel(order="K")  # a view: p is contiguous
    scratch = np.empty(min(CHUNK, flat.size))
    with np.errstate(divide="ignore"):
        for start in range(0, flat.size, CHUNK):
            chunk = flat[start:start + CHUNK]
            log = scratch[:chunk.size]
            np.log(chunk, out=log)
            log[chunk == 0.0] = 0.0  # 0 ln 0 = 0
            chunk *= log
    pbar = pbar[pbar > 0.0]
    mi = float((p @ q).sum()) - float(pbar @ np.log(pbar))
    return mi, -mi - float(q_log_prior @ colsums)


def bayes_quadratic_cost(joint: JointModel) -> float:
    """Minimal Bayes MSE, attained by the posterior mean: E_x[ Var(phi|x) ].

    With q, pbar = p @ q and s as in :func:`mutual_information`, it is
    (q phi^2) . s - sum_x (p @ q phi)_x^2 / pbar_x over the x with pbar_x > 0.
    """
    q, _, q_phi, q_phi2 = joint.prior._quadrature
    p = joint.conditional.probs
    pbar, first = p @ q, p @ q_phi
    pos = pbar > 0.0
    return float(q_phi2 @ joint.conditional._colsums) - float(np.sum(first[pos] ** 2 / pbar[pos]))


def _types(n: int, k: int, budget: int) -> np.ndarray:
    """Every count vector of n samples over k outcomes, as a (count, k) int array.

    Rows are in descending lexicographic order, so row 0 is (n, 0, ..., 0)
    and the last row is (0, ..., 0, n).  More than ``budget`` rows raise
    :class:`BudgetError` before any is built.
    """
    count = math.comb(n + k - 1, k - 1)
    if count > budget:
        raise BudgetError(
            f"C(n+K-1, K-1) = C({n + k - 1}, {k - 1}) = {count} types exceed the "
            f"budget of {budget}")
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for _ in range(k - 1):
        reps = left + 1
        offset = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        first = np.repeat(left, reps) - offset  # left, left - 1, ..., 0 per prefix
        rows = np.column_stack([np.repeat(rows, reps, axis=0), first])
        left = np.repeat(left, reps) - first
    return np.column_stack([rows, left])


def _type_probs(types: np.ndarray, probs: np.ndarray,
                exponent: np.ndarray | None = None) -> np.ndarray:
    """p(t|phi) = exp(ln C(t) + sum_x t_x ln p_x(phi)) for every type row t.

    C(t) = n! / prod_x t_x! is taken from ``math.lgamma``, accurate to a few
    ulps per factorial, so its error does not grow with n as a running sum of
    logarithms would; what is left is the rounding of the exponent.  An
    entry is exactly 0 where some t_x > 0 meets p_x = 0 (its exponent could
    overflow), or where it would be subnormal (an exp that underflows runs
    many times slower than a normal one); those entries go to -inf before
    one plain ``exp``.  ``exponent``, if given, is ``types @ ln p`` from the
    caller, with any finite value standing for ln 0 (a zero count times it
    is 0, and the entries it meets with a positive count are set to -inf
    here); it is overwritten.
    """
    n = int(types[0].sum())
    log_fact = np.array([math.lgamma(m + 1.0) for m in range(n + 1)])
    log_coef = log_fact[n] - log_fact[types].sum(axis=1)
    zero = probs <= 0.0
    if exponent is None:
        log_p = np.zeros(probs.shape)
        np.log(probs, out=log_p, where=~zero)
        exponent = types.astype(float) @ log_p
    out = exponent
    out += log_coef[:, None]
    for x in np.flatnonzero(zero.any(axis=1)):
        out[np.ix_(types[:, x] > 0, zero[x])] = -np.inf
    out[out <= LOG_TINY] = -np.inf
    np.exp(out, out=out)
    return out


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
    types = _types(n, k, budget)
    probs = _type_probs(types, cond.probs)
    # the rows with t_x >= 1, minus e_x, are the (n-1)-types in table order:
    # subtracting one fixed vector keeps the lexicographic order of the rows;
    # for x = 0 they are the leading rows, the first coordinate descending
    prev = types[:math.comb(n + k - 2, k - 1)].copy()
    prev[:, 0] -= 1
    prev_probs = _type_probs(prev, cond.probs)
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
    counted = ConditionalModel(cond.grid, probs, dprobs, cond.derivative_source, labels)
    return JointModel(joint.prior, counted)


def _group_sum(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Sum the rows of ``table`` that share a key: one row per distinct key, in key order.

    A fresh array; see :func:`_group_in_place` for the sums.
    """
    out = table.copy()
    # shrink the copy to its leading rows, which keeps them; no view of it exists
    out.resize((_group_in_place(out, keys),) + out.shape[1:], refcheck=False)
    return out


def _group_in_place(table: np.ndarray, keys: np.ndarray) -> int:
    """Sum the rows of a C-contiguous ``table`` that share a key into its leading rows.

    Returns the number of groups; row g then holds the g-th smallest key's
    group.  The sort is stable, so each group adds its rows one by one in
    table order; a one-row group is its row plus 0.0, as ``np.sum`` gives it
    (-0.0 becomes +0.0).  Besides ``table``, the kernel holds one spare row.
    """
    order = np.argsort(keys, kind="stable")
    # sort the rows: row i takes row order[i], along each cycle of the permutation
    spare = np.empty_like(table[0])
    source = order.tolist()
    for start in range(len(source)):
        if source[start] == start:
            continue  # in place, or placed on an earlier cycle
        spare[...] = table[start]
        i = start
        while source[i] != start:
            nxt = source[i]
            table[i] = table[nxt]
            source[i] = i  # placed
            i = nxt
        table[i] = spare
        source[i] = i
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    ends = np.r_[starts[1:], len(keys)]
    # the one-row groups before the first longer one are already in their rows
    longer = np.flatnonzero(ends - starts > 1)
    lead = int(longer[0]) if longer.size else len(starts)
    np.add(table[:lead], 0.0, out=table[:lead])
    # every later group g moves to row g <= its first row: the rows it overwrites are read
    for g, first, end in zip(range(lead, len(starts)), starts[lead:].tolist(),
                             ends[lead:].tolist()):
        if end - first == 1:
            np.add(table[first], 0.0, out=table[g])
        else:
            table[g] = table[first:end].sum(axis=0)
    return len(starts)


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
    probs, dprobs = _read_only(_group_sum(model.probs, rows), _group_sum(model.dprobs, rows))
    return ConditionalModel(model.grid, probs, dprobs, model.derivative_source, tuple(groups))


@dataclass(frozen=True)
class MleStudyPoint:
    """One row of the MLE convergence study."""

    n: int
    h_conditional: float   # exact H(phi | phi_ML)
    asymptote: float       # -(1/2) ln[ n * int F p dphi / (2 pi e) ]
    gap: float


def mle_convergence_study(joint: JointModel, n_list, trials=None,
                          seed=None) -> list[MleStudyPoint]:
    """Exact H(phi | phi_ML) of n iid samples, against its asymptotic value.

    The grid-restricted maximum-likelihood estimate (ties broken toward the
    smallest grid index) depends on the samples only through their type t,
    so for each n the study takes the C(n+K-1, K-1) types of
    :func:`repeat_model` (within its default budget, else
    :class:`BudgetError`), sums the rows p(t|phi) that share an estimate,
    and returns the posterior entropy of that table by quadrature.  Nothing
    is sampled: ``trials`` and ``seed`` are accepted and ignored, so callers
    that pass them keep working.
    """
    n_list = list(n_list)
    for n in n_list:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"sample sizes must be integers, got {n!r}")
        if n < 1:
            raise ValueError(f"sample sizes must be >= 1, got {n}")
    probs = joint.conditional.probs
    q, q_log_prior = joint.prior._quadrature[:2]
    # large finite penalty instead of -inf so unobserved outcomes (count 0)
    # cannot produce 0 * inf
    logp = np.full(probs.shape, -1e15)
    np.log(probs, out=logp, where=probs > 0.0)
    avg_f1 = average_fisher(joint)

    results = []
    for n in n_list:
        types = _types(n, len(probs), TYPE_BUDGET)
        # the one table of this n: the scores, then p(t|phi), then the rows
        # grouped by estimate, then their p ln p.  types @ logp is also the
        # exponent of p(t|phi): the penalty only stands where some t_x > 0
        # meets p_x = 0, which _type_probs zeroes
        table = types @ logp
        mle = np.argmax(table, axis=1)
        _type_probs(types, probs, table)
        by_mle = table[:_group_in_place(table, mle)]
        h = _information_in_place(by_mle, q, q_log_prior, by_mle.sum(axis=0))[1]
        asymptote = -0.5 * math.log(n * avg_f1 / (2.0 * math.pi * math.e))
        results.append(MleStudyPoint(n=int(n), h_conditional=h, asymptote=asymptote,
                                     gap=abs(h - asymptote)))
    return results
