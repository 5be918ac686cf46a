import math

import numpy as np
import pytest

from infobounds.mi_oracle import (
    MLE_CHUNK,
    BudgetError,
    bayes_quadratic_cost,
    merge_outcomes,
    mle_convergence_study,
    mutual_information,
    repeat_model,
)
from infobounds.numerics import ParameterGrid, simpson_weights
from infobounds.random_models import near_deterministic_model, random_joint_model
from infobounds.stat_model import (
    ConditionalModel,
    JointModel,
    PriorDensity,
    cos2_model,
)

PI = math.pi


def flat_model(grid, k=2):
    probs = np.full((k, grid.points), 1.0 / k)
    return ConditionalModel(grid, probs, np.zeros_like(probs), "analytic")


def cos2_uniform(points=2001):
    grid = ParameterGrid(0.0, PI, points)
    return JointModel(PriorDensity.rectangle(grid), cos2_model(grid))


def gaussian_cos2(points=2001, sigma=0.3, mean=PI / 2):
    grid = ParameterGrid(0.0, PI, points)
    return JointModel(PriorDensity.gaussian(grid, mean, sigma), cos2_model(grid))


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
    rep = repeat_model(gaussian_cos2(501), 3)
    merged = merge_outcomes(rep.conditional, [0, 1, 1, 2, 1, 2, 2, 0])
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


class TestRepeatModel:
    def test_identity_for_one(self):
        joint = cos2_uniform(501)
        assert repeat_model(joint, 1) is joint

    def test_two_copies_double_fisher(self):
        from infobounds.stat_model import fisher_information
        joint = cos2_uniform(501)
        doubled = repeat_model(joint, 2)
        assert doubled.conditional.n_outcomes == 4
        f1 = fisher_information(joint.conditional).values
        f2 = fisher_information(doubled.conditional).values
        np.testing.assert_allclose(f2[1:-1], 2.0 * f1[1:-1], atol=1e-6)

    def test_mi_nondecreasing_in_n(self):
        joint = cos2_uniform(1001)
        values = [mutual_information(repeat_model(joint, n)).mi for n in range(1, 9)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_budget_error_mentions_monte_carlo(self):
        joint = cos2_uniform(501)
        with pytest.raises(BudgetError, match="Monte-Carlo"):
            repeat_model(joint, 13)  # 2^13 > 4096

    def test_outcome_labels_are_tuples(self):
        rep = repeat_model(cos2_uniform(501), 2)
        assert rep.conditional.outcomes == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestMergeOutcomes:
    def test_data_processing_never_gains(self):
        joint = gaussian_cos2(501)
        for n in (1, 2):
            rep = repeat_model(joint, n)
            logp = np.where(rep.conditional.probs > 0.0,
                            np.log(np.maximum(rep.conditional.probs, 1e-300)), -1e15)
            mle = [int(i) for i in np.argmax(logp, axis=1)]
            merged = merge_outcomes(rep.conditional, mle)
            mi_full = mutual_information(rep).mi
            mi_proc = mutual_information(JointModel(joint.prior, merged)).mi
            assert mi_proc <= mi_full + 1e-12

    def test_merging_all_outcomes_erases_information(self):
        joint = cos2_uniform(501)
        merged = merge_outcomes(joint.conditional, ["same", "same"])
        assert merged.n_outcomes == 1
        assert mutual_information(JointModel(joint.prior, merged)).mi == pytest.approx(
            0.0, abs=1e-12)

    def test_label_count_mismatch(self):
        joint = cos2_uniform(501)
        with pytest.raises(ValueError, match="one label per outcome"):
            merge_outcomes(joint.conditional, [0])


class TestMleConvergenceStudy:
    def test_gap_shrinks(self):
        # the full three-point monotonicity at 20000 trials runs in the
        # acceptance suite; at reduced trials the histogram bias still leaves
        # the 8 -> 32 shrinkage intact
        joint = gaussian_cos2(points=201)
        points = mle_convergence_study(joint, [8, 32], trials=4000, seed=42)
        assert points[0].gap > points[1].gap
        assert not points[0].low_resolution

    def test_deterministic_for_fixed_seed(self):
        joint = gaussian_cos2(points=201)
        a = mle_convergence_study(joint, [8, 16], trials=500, seed=7)
        b = mle_convergence_study(joint, [8, 16], trials=500, seed=7)
        assert [p.h_conditional for p in a] == [p.h_conditional for p in b]

    def test_seed_changes_the_draws(self):
        joint = gaussian_cos2(points=201)
        a = mle_convergence_study(joint, [8], trials=500, seed=1)
        b = mle_convergence_study(joint, [8], trials=500, seed=2)
        assert a[0].h_conditional != b[0].h_conditional

    def test_row_independent_of_other_rows(self):
        joint = gaussian_cos2(points=201)
        a = mle_convergence_study(joint, [8, 16], trials=1500, seed=11)
        b = mle_convergence_study(joint, [4, 16], trials=1500, seed=11)
        assert a[1] == b[1]
        assert a[0] != b[0]

    def test_deterministic_across_chunks(self):
        # two full chunks of MLE_CHUNK trials and a remainder
        assert MLE_CHUNK == 1024
        joint = gaussian_cos2(points=201)
        a = mle_convergence_study(joint, [8, 32], trials=2500, seed=5)
        b = mle_convergence_study(joint, [8, 32], trials=2500, seed=5)
        assert a == b
        assert all(p.trials == 2500 for p in a)
        # a repeated chunk would leave the histogram's proportions, and so the estimate, unchanged
        one = mle_convergence_study(joint, [8], trials=MLE_CHUNK, seed=5)[0]
        two = mle_convergence_study(joint, [8], trials=2 * MLE_CHUNK, seed=5)[0]
        assert two.h_conditional != pytest.approx(one.h_conditional, abs=1e-9)

    def test_low_resolution_flag(self):
        joint = gaussian_cos2(points=201)
        points = mle_convergence_study(joint, [32], trials=40, seed=0)
        assert points[0].low_resolution

    def test_processing_loses_information_exactly(self):
        # exact N = 1 sanity: pushing outcomes through the MLE cannot reduce
        # the conditional entropy below the outcome-level oracle
        joint = gaussian_cos2(points=501)
        logp = np.where(joint.conditional.probs > 0.0,
                        np.log(np.maximum(joint.conditional.probs, 1e-300)), -1e15)
        mle = [int(i) for i in np.argmax(logp, axis=1)]
        merged = merge_outcomes(joint.conditional, mle)
        h_x = mutual_information(joint).h_posterior
        h_mle = mutual_information(JointModel(joint.prior, merged)).h_posterior
        assert h_mle >= h_x - 1e-12

    def test_rejects_bad_arguments(self):
        joint = gaussian_cos2(points=201)
        with pytest.raises(ValueError, match="trials"):
            mle_convergence_study(joint, [8], trials=0, seed=1)
        with pytest.raises(ValueError, match="sample sizes"):
            mle_convergence_study(joint, [0], trials=10, seed=1)
