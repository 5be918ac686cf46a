import functools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from infobounds.mi_oracle import (
    CHUNK,
    LOG_TINY,
    BudgetError,
    MleStudyPoint,
    _information_in_place,
    _sum_runs,
    _type_probs,
    _type_table,
    bayes_quadratic_cost,
    mle_convergence_study,
    mutual_information,
    repeat_model,
)
from infobounds.numerics import ParameterGrid, simpson_weights
from infobounds.quantum_metrology import channel_outcome_model
from infobounds.random_models import random_joint_model
from infobounds.stat_model import (
    OUTCOME_TOL,
    ConditionalModel,
    JointModel,
    PriorDensity,
    average_fisher,
    cos2_model,
)

PI = math.pi


def near_deterministic_model(grid: ParameterGrid, clip: float = 1e-9,
                             width: float = 1e-2) -> JointModel:
    """Adversarial binary model: a logistic step with probabilities clipped at ``clip``.

    The Fisher information spikes to order 1/clip around the step, which
    stresses the bound-versus-oracle comparisons without ever dividing by
    zero.
    """
    if not 0.0 < clip < 0.5:
        raise ValueError(f"clip must be in (0, 0.5), got {clip}")
    phi = grid.values
    center = 0.5 * (grid.lower + grid.upper)
    s = 1.0 / (1.0 + np.exp(-(phi - center) / width))
    ds = s * (1.0 - s) / width
    scale = 1.0 - 2.0 * clip
    p1 = clip + scale * s
    d1 = scale * ds
    conditional = ConditionalModel(grid, np.vstack([1.0 - p1, p1]),
                                   np.vstack([-d1, d1]), "analytic")
    sigma = (grid.upper - grid.lower) / 16.0
    prior = PriorDensity.gaussian(grid, center, sigma)
    return JointModel(prior, conditional)


def flat_model(grid, k=2):
    probs = np.full((k, grid.points), 1.0 / k)
    return ConditionalModel(grid, probs, np.zeros_like(probs), "analytic")


def cos2_uniform(points=2001):
    grid = ParameterGrid(0.0, PI, points)
    return JointModel(PriorDensity.rectangle(grid), cos2_model(grid))


def gaussian_cos2(points=2001, sigma=0.3, mean=PI / 2):
    grid = ParameterGrid(0.0, PI, points)
    return JointModel(PriorDensity.gaussian(grid, mean, sigma), cos2_model(grid))


def sequence_product(joint, n):
    """Reference n-sample model over all K^n outcome sequences, labels in product order."""
    cond = joint.conditional
    probs, dprobs = cond.probs, cond.dprobs
    rep_p, rep_d = probs, dprobs
    labels = [(x,) for x in cond.outcomes]
    for _ in range(n - 1):
        # product rule: d(ab) = (da) b + a (db), tensored over the alphabet
        rep_d = (rep_d[:, None, :] * probs[None, :, :]
                 + rep_p[:, None, :] * dprobs[None, :, :]).reshape(-1, probs.shape[1])
        rep_p = (rep_p[:, None, :] * probs[None, :, :]).reshape(-1, probs.shape[1])
        labels = [prev + (x,) for prev in labels for x in cond.outcomes]
    product = ConditionalModel(cond.grid, rep_p, rep_d, cond.derivative_source, tuple(labels))
    return JointModel(joint.prior, product)


def reference_group_sum(table, keys):
    """Split the stably sorted table into groups and sum each one."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    ends = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.array([rows.sum(axis=0) for rows in np.split(table[order], ends)])


def merged_model(cond, labels):
    """``cond`` with the outcomes that share a label merged (data processing): the rows
    of each label summed, one row per label in sorted label order."""
    keys = np.asarray(labels)
    return ConditionalModel(cond.grid, reference_group_sum(cond.probs, keys),
                            reference_group_sum(cond.dprobs, keys), cond.derivative_source)


def sequence_mle_entropy(joint, n):
    """Reference H(phi | phi_ML): the K^n sequences, merged by each sequence's own MLE."""
    probs = joint.conditional.probs
    logp = np.full(probs.shape, -1e15)
    np.log(probs, out=logp, where=probs > 0.0)
    row = {x: i for i, x in enumerate(joint.conditional.outcomes)}
    sequences = sequence_product(joint, n).conditional
    mle = [int(np.argmax(sum(logp[row[x]] for x in seq))) for seq in sequences.outcomes]
    merged = merged_model(sequences, mle)
    return mutual_information(JointModel(joint.prior, merged)).h_posterior


def random_k_model(k, seed):
    """The first seeded random model with k outcomes."""
    rng = np.random.default_rng(seed)
    while True:
        joint = random_joint_model(rng, max_outcomes=k)
        if joint.conditional.n_outcomes == k:
            return joint


def random_k3_model():
    return random_k_model(3, 7)


class TestMutualInformation:
    def test_independent_model_zero(self):
        grid = ParameterGrid(0.0, 1.0, 501)
        result = mutual_information(JointModel(PriorDensity.rectangle(grid),
                                               flat_model(grid, 3)))
        assert result.mi == pytest.approx(0.0, abs=1e-9)

    def test_cos2_uniform_value(self):
        # analytic value 1 - ln 2, confirmed by the quadrature oracle
        result = mutual_information(cos2_uniform(10001))
        assert result.mi == pytest.approx(1.0 - math.log(2.0), abs=1e-9)

    def test_identity_mi_equals_entropy_difference(self):
        for joint in (cos2_uniform(1001), gaussian_cos2(2001)):
            result = mutual_information(joint)
            assert result.mi == pytest.approx(result.h_prior - result.h_posterior, abs=1e-9)
            assert result.mi >= -1e-9

    def test_revealing_model_ln_k(self):
        # K grid cells, p(x|phi) the indicator of the cell holding phi
        k = 5
        grid = ParameterGrid(0.0, 1.0, 2001)
        probs = np.zeros((k, grid.points))
        cell = np.minimum((grid.values * k).astype(int), k - 1)
        probs[cell, np.arange(grid.points)] = 1.0
        model = ConditionalModel.from_probs(grid, probs)
        result = mutual_information(JointModel(PriorDensity.rectangle(grid), model))
        assert result.mi == pytest.approx(math.log(k), abs=5e-3)

    def test_grid_refinement_stability(self):
        coarse = mutual_information(cos2_uniform(2001)).mi
        fine = mutual_information(cos2_uniform(4001)).mi
        assert abs(coarse - fine) < 1e-4


def two_ratio_reference(joint):
    """(mi, h_posterior) from the joint table, each ratio quadratured on its own."""
    w = simpson_weights(joint.grid)
    jp = joint.conditional.probs * joint.prior.density[None, :]
    pbar = jp @ w
    pos = jp > 0.0

    def xlogy_sum(ratio):
        terms = np.zeros_like(jp)
        terms[pos] = jp[pos] * np.log(ratio[pos])
        return float(np.sum(terms @ w))

    ratio_mi = np.ones_like(jp)
    denom = pbar[:, None] * joint.prior.density[None, :]
    ratio_mi[pos] = jp[pos] / denom[pos]
    ratio_cond = np.ones_like(jp)
    ratio_cond[pos] = jp[pos] / np.broadcast_to(pbar[:, None], jp.shape)[pos]
    return xlogy_sum(ratio_mi), -xlogy_sum(ratio_cond)


def equivalence_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(6):
        # the prior is a Gaussian or a cosine window at random; the window has zero-mass regions
        joint = random_joint_model(rng)
        kind = joint.prior.params.get("window", joint.prior.kind)
        cases.append(pytest.param(joint, id=f"random-{kind}-{i}"))
    grid = ParameterGrid(0.0, PI, 2001)
    cos2 = cos2_model(grid)
    # column sums off by 5e-10, inside the validation tolerance: H(phi|x) must use them
    scaled = ConditionalModel(grid, cos2.probs * (1.0 + 5e-10), cos2.dprobs, "analytic")
    rep = sequence_product(gaussian_cos2(501), 3)
    merged = merged_model(rep.conditional, [0, 1, 1, 2, 1, 2, 2, 0])
    return cases + [
        pytest.param(cos2_uniform(2001), id="cos2"),
        pytest.param(JointModel(PriorDensity.rectangle(grid), scaled), id="cos2-column-sums"),
        pytest.param(near_deterministic_model(ParameterGrid(0.0, 1.0, 2001)),
                     id="near-deterministic"),
        pytest.param(repeat_model(cos2_uniform(1001), 8), id="cos2-x8"),
        pytest.param(JointModel(rep.prior, merged), id="merged"),
    ]


@pytest.mark.parametrize("joint", equivalence_cases())
def test_matches_two_ratio_quadrature(joint):
    mi, h_posterior = two_ratio_reference(joint)
    result = mutual_information(joint)
    assert result.mi == pytest.approx(mi, abs=1e-12)
    assert result.h_posterior == pytest.approx(h_posterior, abs=1e-12)


def longdouble_bayes_cost(joint):
    """E_x Var(phi|x) from the joint table p(x|phi) p(phi), in ``np.longdouble``."""
    ld = np.longdouble
    jp = joint.conditional.probs.astype(ld) * joint.prior.density.astype(ld)
    w = simpson_weights(joint.grid).astype(ld)
    phi = joint.grid.values.astype(ld)
    pbar, first = jp @ w, jp @ (w * phi)
    pos = pbar > 0.0
    return float((jp @ (w * phi * phi)).sum() - (first[pos] ** 2 / pbar[pos]).sum())


def bayes_cost_cases():
    # the first 20 models of ``verify``, a 20001-point table and n-sample type tables
    rng = np.random.default_rng(42)
    grid = ParameterGrid(0.0, 1.0, 2001)
    cases = [pytest.param(random_joint_model(rng, grid), id=f"verify-{i}") for i in range(20)]
    cases.append(pytest.param(cos2_uniform(20001), id="cos2-20001"))
    return cases + [pytest.param(repeat_model(cos2_uniform(2001), n), id=f"cos2-x{n}")
                    for n in (4, 8, 10)]


class TestBayesQuadraticCost:
    def test_rectangle_no_measurement(self):
        d = 3.0
        grid = ParameterGrid(0.0, d, 1001)
        joint = JointModel(PriorDensity.rectangle(grid), flat_model(grid))
        assert bayes_quadratic_cost(joint) == pytest.approx(d ** 2 / 12.0, abs=1e-9)

    def test_gaussian_no_measurement(self):
        sigma = 0.5
        grid = ParameterGrid(-8 * sigma, 8 * sigma, 2001)
        joint = JointModel(PriorDensity.gaussian(grid, 0.0, sigma), flat_model(grid))
        assert bayes_quadratic_cost(joint) == pytest.approx(sigma ** 2, rel=1e-6)

    def test_matches_oracle_result_field(self):
        joint = cos2_uniform(1001)
        assert mutual_information(joint).bayes_mse == pytest.approx(
            bayes_quadratic_cost(joint), abs=1e-12)

    @pytest.mark.parametrize("joint", bayes_cost_cases())
    def test_matches_extended_precision_joint_table(self, joint):
        want = longdouble_bayes_cost(joint)
        assert abs(bayes_quadratic_cost(joint) - want) <= 1e-11 * want


class TestRepeatModel:
    def test_identity_for_one(self):
        joint = cos2_uniform(501)
        assert repeat_model(joint, 1) is joint

    def test_two_copies_double_fisher(self):
        from infobounds.stat_model import fisher_information
        joint = cos2_uniform(501)
        doubled = repeat_model(joint, 2)
        assert doubled.conditional.n_outcomes == 3
        f1 = fisher_information(joint.conditional).values
        f2 = fisher_information(doubled.conditional).values
        np.testing.assert_allclose(f2[1:-1], 2.0 * f1[1:-1], atol=1e-6)

    def test_mi_nondecreasing_in_n(self):
        joint = cos2_uniform(1001)
        values = [mutual_information(repeat_model(joint, n)).mi for n in range(1, 9)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_budget_error_names_the_type_count(self):
        joint = cos2_uniform(501)
        with pytest.raises(BudgetError, match=r"C\(14, 1\) = 14 types"):
            repeat_model(joint, 13, budget=13)
        assert repeat_model(joint, 13, budget=14).conditional.n_outcomes == 14

    def test_outcome_labels_are_tuples(self):
        rep = repeat_model(cos2_uniform(501), 2)
        assert rep.conditional.outcomes == ((2, 0), (1, 1), (0, 2))

    def test_labels_count_every_type_once(self):
        joint = random_k3_model()
        labels = repeat_model(joint, 4).conditional.outcomes
        assert len(labels) == math.comb(4 + 2, 2)
        assert labels[0] == (4, 0, 0) and labels[-1] == (0, 0, 4)
        assert list(labels) == sorted(set(labels), reverse=True)
        assert all(sum(t) == 4 for t in labels)

    @pytest.mark.parametrize("case, n", [
        *[("cos2", n) for n in (2, 4, 8, 10)],
        *[("random-k3", n) for n in (2, 3, 4, 5, 6)],
        *[("near-deterministic", n) for n in (2, 3, 4, 5, 6)],
    ])
    def test_types_match_sequence_product(self, case, n):
        joint = {
            "cos2": lambda: cos2_uniform(2001),
            "random-k3": random_k3_model,
            "near-deterministic": lambda: near_deterministic_model(ParameterGrid(0.0, 1.0, 2001)),
        }[case]()
        types, sequences = repeat_model(joint, n), sequence_product(joint, n)
        have, want = mutual_information(types), mutual_information(sequences)
        assert have.mi == pytest.approx(want.mi, abs=1e-12)
        assert have.h_posterior == pytest.approx(want.h_posterior, abs=1e-12)
        assert have.bayes_mse == pytest.approx(want.bayes_mse, rel=1e-12)
        f_have, f_want = types.conditional.fisher, sequences.conditional.fisher
        np.testing.assert_array_equal(f_have.divergent, f_want.divergent)
        np.testing.assert_allclose(f_have.values[1:-1], f_want.values[1:-1], rtol=1e-12)

    def test_thousands_of_samples_on_a_binary_model(self):
        joint = cos2_uniform(2001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = repeat_model(joint, 4000)
        assert rep.conditional.n_outcomes == 4001
        assert np.max(np.abs(rep.conditional.probs.sum(axis=0) - 1.0)) <= OUTCOME_TOL

    def test_type_table_rounding_stays_small_at_large_n(self):
        # the log-multinomial coefficient must not add an error growing with n
        probs = repeat_model(cos2_uniform(2001), 4000).conditional.probs
        assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-11

    def test_bound_tight_up_to_clarke_barron_constant(self):
        # F = 1, so L = pi; ln(1 + sqrt(n) L / 2) - I -> (1/2) ln(pi e / 2) from above
        joint = cos2_uniform(2001)
        limit = 0.5 * math.log(PI * math.e / 2.0)
        gap = math.log1p(math.sqrt(1000) * PI / 2.0) - mutual_information(
            repeat_model(joint, 1000)).mi
        assert limit < gap < limit + 0.005


def sine_base(lower, upper, scale=1.0, drift=0.0):
    """p(1|phi) = 0.5 + 0.3 sin(phi) on 201 points, both rows times ``scale``; ``drift``
    is added to the derivative of outcome 1, so sum_x pdot = drift."""
    grid = ParameterGrid(lower, upper, 201)
    p1 = 0.5 + 0.3 * np.sin(grid.values)
    d1 = 0.3 * np.cos(grid.values)
    cond = ConditionalModel(grid, scale * np.vstack([1.0 - p1, p1]),
                            np.vstack([-scale * d1, scale * d1 + drift]))
    return JointModel(PriorDensity.rectangle(grid), cond)


class TestRepeatModelTolerances:
    # n samples of a base within the one-sample tolerances have column sums
    # (sum_x p)^n and derivative sums n (sum_x p)^(n-1) sum_x pdot: n times as far off
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_column_sums_of_a_base_within_tolerance(self, n):
        joint = sine_base(0.0, 2.0, scale=1.0 + 4e-10)
        cond = repeat_model(joint, n).conditional
        np.testing.assert_allclose(cond._colsums - 1.0, n * 4e-10, rtol=1e-5)
        if n > 2:  # as a table of one sample, as users build them, it stays rejected
            with pytest.raises(ValueError, match=rf"outcome probabilities sum to 1 \+/- "
                                                 rf"{n * 4e-10:.2e} > 1e-09$"):
                ConditionalModel(cond.grid, cond.probs, cond.dprobs)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_derivative_sums_of_a_base_within_tolerance(self, n):
        joint = sine_base(0.0, 1.0, drift=6e-7)
        cond = repeat_model(joint, n).conditional
        np.testing.assert_allclose(cond.dprobs.sum(axis=0), n * 6e-7, rtol=1e-6)
        with pytest.raises(ValueError, match=rf"outcome derivatives sum to {n * 6e-7:.2e}; "
                                             rf"times the span 1 that is {n * 6e-7:.2e} "
                                             rf"> 1e-06$"):
            ConditionalModel(cond.grid, cond.probs, cond.dprobs)

    def test_repeats_of_repeats_take_every_sample(self):
        joint = sine_base(0.0, 2.0, scale=1.0 + 4e-10)
        twice = repeat_model(repeat_model(joint, 2), 3).conditional
        np.testing.assert_allclose(twice._colsums - 1.0, 6 * 4e-10, rtol=1e-5)


class TestDataProcessing:
    def test_data_processing_never_gains(self):
        joint = gaussian_cos2(501)
        for n in (1, 2):
            rep = repeat_model(joint, n)
            logp = np.where(rep.conditional.probs > 0.0,
                            np.log(np.maximum(rep.conditional.probs, 1e-300)), -1e15)
            mle = [int(i) for i in np.argmax(logp, axis=1)]
            merged = merged_model(rep.conditional, mle)
            mi_full = mutual_information(rep).mi
            mi_proc = mutual_information(JointModel(joint.prior, merged)).mi
            assert mi_proc <= mi_full + 1e-12

    def test_merging_all_outcomes_erases_information(self):
        joint = cos2_uniform(501)
        merged = merged_model(joint.conditional, ["same", "same"])
        assert merged.n_outcomes == 1
        assert mutual_information(JointModel(joint.prior, merged)).mi == pytest.approx(
            0.0, abs=1e-12)


class TestMleConvergenceStudy:
    def test_gap_shrinks(self):
        # the three-point monotonicity runs in the acceptance suite
        joint = gaussian_cos2(points=201)
        points = mle_convergence_study(joint, [8, 32], trials=4000, seed=42)
        assert points[0].gap > points[1].gap

    def test_deterministic_for_fixed_seed(self):
        joint = gaussian_cos2(points=201)
        a = mle_convergence_study(joint, [8, 16], trials=500, seed=7)
        b = mle_convergence_study(joint, [8, 16], trials=500, seed=7)
        assert [p.h_conditional for p in a] == [p.h_conditional for p in b]

    def test_row_independent_of_other_rows(self):
        joint = gaussian_cos2(points=201)
        a = mle_convergence_study(joint, [8, 16], trials=1500, seed=11)
        b = mle_convergence_study(joint, [4, 16], trials=1500, seed=11)
        assert a[1] == b[1]
        assert a[0] != b[0]

    def test_trials_and_seed_are_ignored(self):
        joint = gaussian_cos2(points=201)
        rows = mle_convergence_study(joint, [1, 8, 32])
        assert mle_convergence_study(joint, [1, 8, 32], trials=7, seed=1) == rows
        assert mle_convergence_study(joint, [1, 8, 32], trials=20000, seed=2) == rows

    @pytest.mark.parametrize("case, n", [
        *[("cos2-gaussian", n) for n in (1, 2, 4, 8)],
        *[("random-k3", n) for n in range(1, 7)],
        *[("near-deterministic", n) for n in range(1, 9)],
        # on 101 points several types share an estimate from n = 5 on
        *[("near-deterministic-101", n) for n in (5, 8)],
    ])
    def test_matches_sequence_reference(self, case, n):
        joint = {
            "cos2-gaussian": gaussian_cos2,
            "random-k3": random_k3_model,
            "near-deterministic": lambda: near_deterministic_model(ParameterGrid(0.0, 1.0, 2001)),
            "near-deterministic-101": lambda: near_deterministic_model(
                ParameterGrid(0.0, 1.0, 101)),
        }[case]()
        row = mle_convergence_study(joint, [n])[0]
        assert row.h_conditional == pytest.approx(sequence_mle_entropy(joint, n), abs=1e-12)

    def test_converges_under_grid_refinement(self):
        # demo 05's model at n = 512: the value settles once the grid resolves
        # the posterior, whose standard deviation is about 1/sqrt(512) = 0.044
        values = [mle_convergence_study(gaussian_cos2(points), [512])[0].h_conditional
                  for points in (801, 1601)]
        assert values[0] == pytest.approx(values[1], abs=1e-3)

    def test_budget(self):
        grid = ParameterGrid(0.0, 1.0, 201)
        joint = JointModel(PriorDensity.rectangle(grid), flat_model(grid, 4))
        with pytest.raises(BudgetError, match=r"C\(33, 3\) = 5456 types"):
            mle_convergence_study(joint, [30])

    def test_processing_loses_information_exactly(self):
        # exact N = 1 sanity: pushing outcomes through the MLE cannot reduce
        # the conditional entropy below the outcome-level oracle
        joint = gaussian_cos2(points=501)
        logp = np.where(joint.conditional.probs > 0.0,
                        np.log(np.maximum(joint.conditional.probs, 1e-300)), -1e15)
        mle = [int(i) for i in np.argmax(logp, axis=1)]
        merged = merged_model(joint.conditional, mle)
        h_x = mutual_information(joint).h_posterior
        h_mle = mutual_information(JointModel(joint.prior, merged)).h_posterior
        assert h_mle >= h_x - 1e-12

    def test_rejects_bad_arguments(self):
        joint = gaussian_cos2(points=201)
        with pytest.raises(ValueError, match="sample sizes"):
            mle_convergence_study(joint, [0], trials=10, seed=1)

    def test_no_fisher_information_gives_an_infinite_asymptote(self):
        # p(x|phi) = (0.3, 0.7) tells nothing about phi: every type has one
        # estimate, H(phi|phi_ML) = H(phi) = ln pi, and -(1/2) ln(n int F p ...) -> inf
        grid = ParameterGrid(0.0, PI, 201)
        probs = np.vstack([np.full(grid.points, 0.3), np.full(grid.points, 0.7)])
        cond = ConditionalModel(grid, probs, np.zeros_like(probs))
        joint = JointModel(PriorDensity.rectangle(grid), cond)
        assert average_fisher(joint) == 0.0
        rows = mle_convergence_study(joint, [1, 4, 16])
        assert [row.n for row in rows] == [1, 4, 16]
        for row in rows:
            assert row.h_conditional == pytest.approx(math.log(PI), rel=1e-12)
            assert row.asymptote == math.inf and row.gap == math.inf


# The type-table kernels as first written, kept as references: the rewritten
# kernels drop passes and temporaries, and must give the same bits.

def reference_type_probs(types, probs):
    """p(t|phi) with a boolean-matmul zero mask and a masked exp."""
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


def reference_information(p, prior, w):
    """(I, H(phi|x)) with a masked log."""
    q = w * prior
    plogp = np.zeros(p.shape)
    np.log(p, out=plogp, where=p > 0.0)
    plogp *= p
    pbar = p @ q
    pbar = pbar[pbar > 0.0]
    mi = float((plogp @ q).sum()) - float(pbar @ np.log(pbar))
    log_prior = np.zeros_like(prior)
    np.log(prior, out=log_prior, where=prior > 0.0)
    return mi, -mi - float((q * log_prior) @ p.sum(axis=0))


def information(p, prior, w):
    """(I, H(phi|x)) of a bare table, prior density and weights, by the in-place kernel
    on a copy."""
    q = w * prior
    log_prior = np.zeros_like(prior)
    np.log(prior, out=log_prior, where=prior > 0.0)
    return _information_in_place(p.copy(order="K"), q, q * log_prior, p.sum(axis=0), p @ q)


def reference_repeat_tables(joint, n):
    """(probs, dprobs) of n samples, the derivative rows added through boolean masks."""
    cond = joint.conditional
    types = _type_table(n, cond.n_outcomes)[0]
    probs = reference_type_probs(types, cond.probs)
    prev = types[types[:, 0] >= 1]
    prev[:, 0] -= 1
    prev_probs = reference_type_probs(prev, cond.probs)
    dprobs = np.zeros_like(probs)
    for x in range(cond.n_outcomes):
        dprobs[types[:, x] >= 1] += prev_probs * cond.dprobs[x]
    dprobs *= n
    return probs, dprobs


def penalized_log(probs):
    logp = np.full(probs.shape, -1e15)
    np.log(probs, out=logp, where=probs > 0.0)
    return logp


def reference_study_row(joint, n):
    """One MLE study row: two matmuls, the split group sum and the masked log."""
    probs = joint.conditional.probs
    types = _type_table(n, len(probs))[0]
    mle = np.argmax(types @ penalized_log(probs), axis=1)
    by_mle = reference_group_sum(reference_type_probs(types, probs), mle)
    h = reference_information(by_mle, joint.prior.density, simpson_weights(joint.grid))[1]
    asymptote = -0.5 * math.log(n * average_fisher(joint) / (2.0 * PI * math.e))
    return MleStudyPoint(n=n, h_conditional=h, asymptote=asymptote, gap=abs(h - asymptote))


def longdouble_study_entropy(joint, n):
    """H(phi | phi_ML) of n samples replayed in ``np.longdouble`` from the float64 exponents.

    The scores ``types @ ln p`` and ln C(t) are the study's own float64
    inputs; the exp, the sums over each estimate's types, the logs and the
    quadrature run in extended precision, with no zero mask and no chunks.
    """
    ld = np.longdouble
    probs = joint.conditional.probs
    types, log_coef = _type_table(n, len(probs))
    scores = types @ penalized_log(probs)
    keys, inverse = np.unique(np.argmax(scores, axis=1), return_inverse=True)
    by_mle = np.zeros((len(keys), probs.shape[1]), dtype=ld)
    np.add.at(by_mle, inverse, np.exp(scores.astype(ld) + log_coef.astype(ld)[:, None]))
    prior = joint.prior.density.astype(ld)
    q = simpson_weights(joint.grid).astype(ld) * prior
    plogp = np.zeros_like(by_mle)
    np.log(by_mle, out=plogp, where=by_mle > 0.0)
    pbar = by_mle @ q
    pbar = pbar[pbar > 0.0]
    mi = (by_mle * plogp @ q).sum() - pbar @ np.log(pbar)
    log_prior = np.zeros_like(prior)
    np.log(prior, out=log_prior, where=prior > 0.0)
    return float(-mi - (q * log_prior) @ by_mle.sum(axis=0))


# H(phi | phi_ML) of a study row against reference_study_row and the longdouble
# replay, relative.  Measured on every case below: at most 1.0e-14 with the
# default OpenBLAS kernels and 3.6e-14 under OPENBLAS_CORETYPE=Prescott (cos2 at
# n = 8, against reference_study_row, itself 3.0e-14 off the replay there)
STUDY_RTOL = 1e-13


def assert_study_rows(joint, ns):
    """The study's rows for ``ns``, within STUDY_RTOL of both references."""
    rows = mle_convergence_study(joint, list(ns))
    want = [reference_study_row(joint, n) for n in ns]
    assert [(row.n, row.asymptote) for row in rows] == [(row.n, row.asymptote) for row in want]
    for row, ref, n in zip(rows, want, ns):
        assert row.h_conditional == pytest.approx(ref.h_conditional, rel=STUDY_RTOL, abs=0)
        assert row.h_conditional == pytest.approx(longdouble_study_entropy(joint, n),
                                                  rel=STUDY_RTOL, abs=0)
        assert row.gap == abs(row.h_conditional - row.asymptote)


def one_type_rows(joint, n):
    """How many of the n-sample types are the only type of their estimate."""
    types = _type_table(n, joint.conditional.n_outcomes)[0]
    mle = np.argmax(types @ penalized_log(joint.conditional.probs), axis=1)
    return int(np.count_nonzero(np.bincount(mle)[mle] == 1))


def assert_same_bits(have, want):
    assert have.shape == want.shape and have.dtype == want.dtype
    assert have.tobytes() == want.tobytes()  # also tells -0.0 from +0.0


def assert_run_sums(table, keys):
    """``_sum_runs`` over the rows whose key two rows or more share, stably sorted by key
    as the study passes them, has the bits of ``reference_group_sum`` of those rows."""
    keys = np.asarray(keys)
    shared = np.bincount(keys)[keys] > 1
    assert shared.any()
    rows, keys = table[shared], keys[shared]
    order = np.argsort(keys, kind="stable")
    work = rows[order]  # a C-contiguous copy, summed in place
    runs = _sum_runs(work, keys[order])
    assert_same_bits(work[:runs], reference_group_sum(rows, keys))


def erasure_model():
    # its zeros sit in outcomes 0 and 1, not only in the first row
    grid = ParameterGrid(0.0, 2.0 * PI, 1001)
    return JointModel(PriorDensity.rectangle(grid), channel_outcome_model("erasure", 0.7, grid))


KERNEL_MODELS = {
    "cos2": lambda: cos2_uniform(2001),
    "cos2-gaussian": lambda: gaussian_cos2(2001),
    "random-k3": random_k3_model,
    "random-k4": lambda: random_k_model(4, 3),
    # on 101 points several types share an estimate, so groups have many rows
    "near-deterministic-101": lambda: near_deterministic_model(ParameterGrid(0.0, 1.0, 101)),
    "near-deterministic-2001": lambda: near_deterministic_model(ParameterGrid(0.0, 1.0, 2001)),
    "erasure": erasure_model,
}
KERNEL_SAMPLES = {"cos2": (2, 3, 8, 64), "cos2-gaussian": (2, 3, 8, 64),
                  "random-k3": (2, 5, 16), "random-k4": (2, 5, 9),
                  "near-deterministic-101": (2, 5, 8, 64),
                  "near-deterministic-2001": (2, 3, 8, 64), "erasure": (2, 5, 16)}
KERNEL_CASES = [(name, n) for name, ns in KERNEL_SAMPLES.items() for n in ns]


@functools.cache
def kernel_model(name):
    return KERNEL_MODELS[name]()


class TestKernelsBitwise:
    """The kernels keep the bits of their first versions; the study rows, whose one-type
    runs take p ln p from the exponent, are held to STUDY_RTOL."""

    @pytest.mark.parametrize("name, n", KERNEL_CASES)
    def test_type_probs(self, name, n):
        probs = kernel_model(name).conditional.probs
        types, log_coef = _type_table(n, len(probs))
        # the exponent is the penalized scores, which the study also ranks
        assert_same_bits(_type_probs(types @ penalized_log(probs), log_coef),
                         reference_type_probs(types, probs))

    @pytest.mark.parametrize("name, n", KERNEL_CASES)
    def test_repeat_model_tables_and_oracle(self, name, n):
        joint = kernel_model(name)
        rep = repeat_model(joint, n)
        want_p, want_dp = reference_repeat_tables(joint, n)
        assert_same_bits(rep.conditional.probs, want_p)
        assert_same_bits(rep.conditional.dprobs, want_dp)
        w = simpson_weights(joint.grid)
        assert information(want_p, joint.prior.density, w) == reference_information(
            want_p, joint.prior.density, w)
        assert mutual_information(rep).mi == reference_information(
            want_p, joint.prior.density, w)[0]

    @pytest.mark.parametrize("name, n", KERNEL_CASES)
    def test_group_sum(self, name, n):
        joint = kernel_model(name)
        rep = repeat_model(joint, n).conditional
        types = np.array(rep.outcomes)
        labelings = {
            "mle": np.argmax(types @ penalized_log(joint.conditional.probs), axis=1),
            "random": np.random.default_rng(n).integers(0, 7, rep.n_outcomes),
            "one-run": np.zeros(rep.n_outcomes, dtype=int),
        }
        for keys in labelings.values():
            if not (np.bincount(keys)[keys] > 1).any():
                continue  # every key has one row: the study sums no run
            for table in (rep.probs, rep.dprobs):
                assert_run_sums(table, keys)

    @pytest.mark.parametrize("name", KERNEL_MODELS)
    def test_study_rows(self, name):
        joint = kernel_model(name)
        assert_study_rows(joint, (1,) + KERNEL_SAMPLES[name])

    def test_study_row_at_512(self):
        assert_study_rows(gaussian_cos2(points=201), [512])

    @pytest.mark.parametrize("name, n", [
        ("random-k3", 16),                # 137 of 153 rows one-type
        ("erasure", 16),                  # 65 of 153 (61 under OPENBLAS_CORETYPE=Prescott)
        ("near-deterministic-101", 64),   # 4 of 65
    ])
    def test_study_rows_of_mixed_tables(self, name, n):
        # both paths in one table: one-type rows and longer runs; which types tie
        # for an estimate can follow the rounding of the BLAS kernel
        joint = kernel_model(name)
        assert 0 < one_type_rows(joint, n) < math.comb(n + joint.conditional.n_outcomes - 1, n)
        assert_study_rows(joint, [n])

    def test_study_rows_without_one_type_runs_keep_their_bits(self):
        # p(1|phi) = 0.1 + 0.8 phi on 21 points: at these n every estimate is
        # reached by several types, so the rows take the run-sum path alone
        grid = ParameterGrid(0.0, 1.0, 21)
        p1 = 0.1 + 0.8 * grid.values
        slope = np.full(grid.points, 0.8)
        cond = ConditionalModel(grid, np.vstack([1.0 - p1, p1]), np.vstack([-slope, slope]))
        joint = JointModel(PriorDensity.rectangle(grid), cond)
        ns = [64, 100, 150]
        assert [one_type_rows(joint, n) for n in ns] == [0] * len(ns)
        assert mle_convergence_study(joint, ns) == [reference_study_row(joint, n) for n in ns]


class TestInPlaceKernels:
    """The kernels that sum runs and take p ln p in place, against the references."""

    def test_group_sum_with_signed_zeros(self):
        rng = np.random.default_rng(19)
        values = np.array([-0.0, 0.0, 1.0, -1.0, 0.5, 1e-300, -2.5])
        for _ in range(300):
            rows = int(rng.integers(2, 40))
            table = rng.choice(values, size=(rows, int(rng.integers(1, 9))))
            for keys in (rng.integers(0, int(rng.integers(1, rows // 2 + 1)), rows),
                         np.arange(rows) // 2,   # runs of two rows
                         np.zeros(rows, dtype=int)):
                if (np.bincount(keys)[keys] > 1).any():
                    assert_run_sums(table, keys)

    @pytest.mark.parametrize("tail", range(16))
    def test_p_log_p_in_chunks(self, tail):
        # the chunks must give the bits of one whole-array pass, whatever the tail
        rng = np.random.default_rng(tail)
        for size in {tail, 2 * CHUNK + tail} - {0}:
            p = rng.random((1, size))
            p[0, rng.integers(0, size, 1 + size // 50)] = 0.0
            p[0, rng.integers(0, size, 1 + size // 50)] = -0.0
            p[0, rng.integers(0, size, 1 + size // 50)] = 1e-310
            with np.errstate(divide="ignore"):
                want = np.log(p)
            want[p == 0.0] = 0.0
            want *= p
            prior, w = rng.random(size), rng.random(size)
            p.setflags(write=False)
            assert information(p, prior, w) == reference_information(p, prior, w)
            table = p.copy()
            q = w * prior
            _information_in_place(table, q, q, table.sum(axis=0), table @ q)
            assert_same_bits(table, want)

    def test_erasure_at_64_samples(self):
        # 2145 types over 3 outcomes, with zeros in two outcomes
        joint = kernel_model("erasure")
        assert_study_rows(joint, [64])
        table = repeat_model(joint, 64).conditional.probs
        keys = np.argmax(np.array(_type_table(64, 3)[0]) @ penalized_log(
            joint.conditional.probs), axis=1)
        assert_run_sums(table, keys)


SAMPLE_SIZES = sorted({n for ns in KERNEL_SAMPLES.values() for n in ns})


class TestTypeTableCache:
    """Type tables and ln p are kept and shared, read-only, and keep their bits."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", SAMPLE_SIZES)
    def test_previous_types_are_the_leading_rows_less_one(self, k, n):
        # the (n-1)-types repeat_model reads are the rows with t_0 >= 1, minus e_0
        budget = math.comb(n + k - 1, k - 1)  # exactly the n-sample table is allowed
        want = np.array(_type_table(n, k, budget)[0][:math.comb(n + k - 2, k - 1)])
        want[:, 0] -= 1
        assert_same_bits(_type_table(n - 1, k, budget)[0], want)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, *SAMPLE_SIZES])
    def test_log_coefficients_are_the_first_ones(self, k, n):
        types, log_coef = _type_table(n, k, math.comb(n + k - 1, k - 1))
        log_fact = np.array([math.lgamma(m + 1.0) for m in range(n + 1)])
        assert_same_bits(log_coef, log_fact[n] - log_fact[types].sum(axis=1))
        exact = [math.factorial(n) // math.prod(map(math.factorial, t)) for t in types.tolist()]
        np.testing.assert_allclose(np.exp(log_coef), np.array(exact, dtype=float), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 8])
    def test_tables_are_read_only(self, n):
        for table in _type_table(n, 3):
            with pytest.raises(ValueError, match="read-only"):
                table[0] += 1

    def test_tables_are_kept_per_sample_size_and_outcome_count(self):
        assert _type_table(8, 3)[0] is _type_table(8, 3)[0]
        # a one-sample table is built, not kept
        assert _type_table(1, 3)[0] is not _type_table(1, 3)[0]

    def test_budget_is_checked_on_a_kept_table(self):
        _type_table(30, 4, 5456)
        with pytest.raises(BudgetError, match=r"C\(33, 3\) = 5456 types"):
            _type_table(30, 4)

    def test_log_probs_once_per_model(self, monkeypatch):
        import infobounds.stat_model as stat_model
        joint = kernel_model("erasure")  # zeros in two outcomes
        cond = ConditionalModel(joint.grid, joint.conditional.probs, joint.conditional.dprobs)
        fresh = JointModel(joint.prior, cond)
        calls = []
        original = stat_model._log_or
        monkeypatch.setattr(stat_model, "_log_or",
                            lambda p, zero: calls.append(p) or original(p, zero))
        for n in (2, 4, 8):
            repeat_model(fresh, n)
        mle_convergence_study(fresh, [1, 4, 16])
        repeat_model(fresh, 3)
        assert sum(p is cond.probs for p in calls) == 1  # the prior's log is taken here too
        assert_same_bits(cond._log_probs, penalized_log(cond.probs))
        with pytest.raises(ValueError, match="read-only"):
            cond._log_probs[0, 0] = 0.0


def traced_peak(call):
    """Peak bytes that ``call()`` holds above what was allocated before it, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestAllocationPeak:
    """A warm oracle call holds one table at a time (glibc returns a freed heap top, so
    each extra table costs page faults on every call)."""

    def test_study_holds_one_table_per_sample_size(self):
        joint = cos2_uniform(2001)
        mle_convergence_study(joint, [64])
        table = 65 * 2001 * 8
        assert traced_peak(lambda: mle_convergence_study(joint, [64])) <= 1.3 * table

    def test_repeat_model_holds_its_tables_and_one_scratch(self):
        joint = cos2_uniform(2001)
        repeat_model(joint, 10)
        row = 2001 * 8
        tables = (11 + 11 + 10 + 10) * row  # probs, dprobs, the 9-sample table, one product
        buffer = np.getbufsize() * 8       # one ufunc buffer, 64 KiB
        assert traced_peak(lambda: repeat_model(joint, 10)) <= 1.01 * tables + buffer

    def test_bayes_cost_holds_no_table(self):
        joint = cos2_uniform(20001)
        bayes_quadratic_cost(joint)
        table = 2 * 20001 * 8
        assert traced_peak(lambda: bayes_quadratic_cost(joint)) <= 0.1 * table

    def test_mutual_information_holds_one_table(self):
        joint = cos2_uniform(20001)
        mutual_information(joint)
        table = 2 * 20001 * 8
        assert traced_peak(lambda: mutual_information(joint)) <= 1.3 * table


class TestSampleSizeType:
    @pytest.mark.parametrize("n", [2.0, True, "3", None])
    def test_repeat_model_rejects_non_integers(self, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            repeat_model(cos2_uniform(201), n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_repeat_model_rejects_fewer_than_one_sample(self, n):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            repeat_model(cos2_uniform(201), n)

    @pytest.mark.parametrize("n", [2.0, True, np.float64(4.0)])
    def test_study_rejects_non_integers(self, n):
        with pytest.raises(TypeError, match="sample sizes must be integers"):
            mle_convergence_study(gaussian_cos2(201), [4, n])

    def test_numpy_integers_are_sample_sizes(self):
        joint = gaussian_cos2(201)
        assert repeat_model(joint, np.int64(3)).conditional.n_outcomes == 4
        assert mle_convergence_study(joint, [np.int32(4)]) == mle_convergence_study(joint, [4])


def dynamic_arch_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not dynamic_arch_openblas(),
                    reason="OPENBLAS_CORETYPE acts only on a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_kernel_bits_under_other_blas_cores(core):
    # the study recomputes the scores of permuted type rows and relies on a row's
    # product not depending on the row's position, under every kernel OpenBLAS picks
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=core,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           __file__, "-k", "Bitwise or InPlace"],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
