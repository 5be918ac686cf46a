import math

import numpy as np
import pytest

from infobounds.bounds import (
    BoundReport,
    DIVERGENT_FISHER_INFORMATION,
    DIVERGENT_PRIOR_INFORMATION,
    LOWER_MSE,
    NATS,
    SQUARED_UNITS,
    UPPER_MI,
    all_bounds,
    efroimovich_mi_bound,
    entropy_mse_floor,
    gaussian_prior_mse_bounds,
    joint_derivative_l1,
    joint_derivative_l1_bound,
    mi_bound_finite_support,
    mi_bound_general_prior,
    mi_bound_variational,
    mse_bound_finite_support,
    mse_bound_general_prior,
    oracle_margin,
    rectangle_prior_mse_bound,
    van_trees,
)
from infobounds.cli import build_builtin
from infobounds.mi_oracle import bayes_quadratic_cost, mutual_information
from infobounds.numerics import NumericError, ParameterGrid, integrate
from infobounds.quantum_metrology import mi_cap
from infobounds.random_models import random_joint_model
from infobounds.stat_model import (
    ConditionalModel,
    FisherProfile,
    JointModel,
    PriorDensity,
    cos2_model,
    cosine_plateau,
    fisher_information,
)

PI = math.pi
TWO_OVER_PIE = 2.0 / (math.pi * math.e)


def trivial_model(grid):
    """Single-outcome alphabet: no measurement at all."""
    return ConditionalModel(grid, np.ones((1, grid.points)), np.zeros((1, grid.points)),
                            "analytic")


def gaussian_joint(sigma=0.5, mean=PI / 2, points=2001, span=8.0, model=cos2_model):
    grid = ParameterGrid(mean - span * sigma, mean + span * sigma, points)
    return JointModel(PriorDensity.gaussian(grid, mean, sigma), model(grid))


class TestBoundInputsComputedOnce:
    def test_all_bounds_integrates_each_prior_input_once(self, monkeypatch):
        import infobounds.bounds as bounds
        import infobounds.stat_model as stat_model
        joint = random_joint_model(np.random.default_rng(4), ParameterGrid(0.0, 1.0, 401))
        F = joint.conditional.fisher.values
        p, pdot = joint.prior.density, joint.prior.derivative
        l1_integrand = np.sqrt(F * p * p + pdot * pdot)
        fisher_times_prior = F * p
        seen = []

        def counting(samples, grid):
            seen.append(np.array(samples))
            return integrate(samples, grid)

        monkeypatch.setattr(stat_model, "integrate", counting)
        monkeypatch.setattr(bounds, "integrate", counting)
        first = all_bounds(joint)
        assert sum(np.array_equal(y, l1_integrand) for y in seen) == 1
        assert sum(np.array_equal(y, fisher_times_prior) for y in seen) == 1
        # a second pass over the same joint integrates neither again
        seen.clear()
        assert [r.value for r in all_bounds(joint)] == [r.value for r in first]
        assert not any(np.array_equal(y, l1_integrand) or np.array_equal(y, fisher_times_prior)
                       for y in seen)

    def test_variational_weight_is_integrated_per_call(self, monkeypatch):
        import infobounds.bounds as bounds
        import infobounds.stat_model as stat_model
        joint = gaussian_joint(points=401)
        f = np.ones(joint.grid.points)
        want = mi_bound_variational(joint, f, np.zeros_like(f)).value
        l1_integrand = np.sqrt(joint.conditional.fisher.values)   # f = 1, fdot = 0
        seen = []

        def counting(samples, grid):
            seen.append(np.array(samples))
            return integrate(samples, grid)

        monkeypatch.setattr(stat_model, "integrate", counting)
        monkeypatch.setattr(bounds, "integrate", counting)
        for _ in range(2):
            assert mi_bound_variational(joint, f, np.zeros_like(f)).value == want
        assert sum(np.array_equal(y, l1_integrand) for y in seen) == 2


class TestBoundReport:
    def test_rejects_unknown_tags(self):
        with pytest.raises(ValueError, match="direction"):
            BoundReport("x", 1.0, "sideways")

    def test_nonfinite_needs_flag(self):
        with pytest.raises(ValueError, match="flag"):
            BoundReport("x", math.inf, UPPER_MI)
        BoundReport("x", math.inf, UPPER_MI, flags=("divergent",))

    def test_oracle_margin_directions(self):
        up = BoundReport("u", 2.0, UPPER_MI)
        low = BoundReport("l", 0.5, LOWER_MSE)
        assert oracle_margin(up, 1.5) == pytest.approx(0.5)
        assert oracle_margin(low, 1.5) == pytest.approx(1.0)
        flagged = BoundReport("f", None, UPPER_MI, flags=("divergent",))
        with pytest.raises(ValueError, match="no value"):
            oracle_margin(flagged, 1.0)

    def test_fields(self):
        assert list(BoundReport.__dataclass_fields__) == ["name", "value", "direction", "flags"]

    @pytest.mark.parametrize("spec", ["cos2", "cos2-gaussian", "noon", "dephasing-qubit",
                                      "ampdamp-qubit", "erasure-qutrit"])
    def test_units_follow_direction(self, spec):
        reports = all_bounds(build_builtin(spec, grid_points=401))
        assert {r.direction for r in reports} == {UPPER_MI, LOWER_MSE}
        for report in reports:
            assert report.units == (NATS if report.direction == UPPER_MI else SQUARED_UNITS)

    def test_mi_cap_units(self):
        assert mi_cap(4, 0.9).units == NATS


class TestCauchySchwarzStep:
    def test_flat_model_rectangle_interior_is_zero(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        joint = JointModel(PriorDensity.rectangle(grid), trivial_model(grid))
        assert np.all(joint_derivative_l1(joint) == 0.0)
        assert np.all(joint_derivative_l1_bound(joint) == 0.0)

    def test_pointwise_inequality_cos2_gaussian(self):
        joint = gaussian_joint(sigma=0.5)
        left = joint_derivative_l1(joint)
        right = joint_derivative_l1_bound(joint)
        assert np.all(left <= right + 1e-9)

    def test_single_outcome_is_tight(self):
        joint = gaussian_joint(sigma=0.4, model=trivial_model)
        left = joint_derivative_l1(joint)
        right = joint_derivative_l1_bound(joint)
        np.testing.assert_allclose(left, right, atol=1e-14)


class TestMiBoundFiniteSupport:
    def test_zero_fisher_gives_zero(self):
        grid = ParameterGrid(0.0, 2.0, 101)
        report = mi_bound_finite_support(FisherProfile.constant(grid, 0.0))
        assert report.value == pytest.approx(0.0, abs=1e-15)
        assert report.units == NATS and report.direction == UPPER_MI

    def test_cos2_value_and_dominance(self):
        grid = ParameterGrid(0.0, PI, 2001)
        report = mi_bound_finite_support(FisherProfile.constant(grid, 1.0))
        assert report.value == pytest.approx(math.log(1.0 + PI / 2.0), abs=1e-12)
        oracle = mutual_information(JointModel(PriorDensity.rectangle(grid), cos2_model(grid)))
        assert oracle.mi < report.value

    def test_heisenberg_form(self):
        grid = ParameterGrid(0.0, 2.0 * PI, 1001)
        for n in (1, 5, 20):
            report = mi_bound_finite_support(FisherProfile.constant(grid, n ** 2))
            assert report.value == pytest.approx(math.log1p(PI * n), rel=1e-12)


class TestMiBoundGeneralPrior:
    def test_trivial_model_gaussian_prior(self):
        # K = 1: the bound reduces to ln(p_max * sqrt(2 pi) sigma) + H = 1/2 nat
        joint = gaussian_joint(sigma=0.6, model=trivial_model)
        report = mi_bound_general_prior(joint)
        assert report.value == pytest.approx(0.5, abs=1e-4)
        assert mutual_information(joint).mi == pytest.approx(0.0, abs=1e-9)

    def test_dominates_oracle_cos2_gaussian(self):
        joint = gaussian_joint(sigma=0.4)
        report = mi_bound_general_prior(joint)
        assert report.value >= mutual_information(joint).mi - 1e-3

    def test_rectangle_prior_reproduces_finite_support_bound(self):
        # edge jumps absorbed through subadditivity: identical to Theorem-1
        # form for any Fisher profile, exactly equal here (F constant)
        grid = ParameterGrid(0.0, PI, 2001)
        joint = JointModel(PriorDensity.rectangle(grid), cos2_model(grid))
        general = mi_bound_general_prior(joint)
        finite = mi_bound_finite_support(fisher_information(joint.conditional))
        assert general.value == pytest.approx(finite.value, abs=1e-9)

    def test_undeclared_nonsmooth_prior_rejected(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        prior = PriorDensity.tabulated(grid, np.ones(101), smooth=False)
        with pytest.raises(ValueError, match="edge"):
            mi_bound_general_prior(JointModel(prior, trivial_model(grid)))

    def test_smoothed_uniform_exceeds_theorem1_by_at_most_bump_penalty(self):
        # smooth stand-in for the uniform prior: the pdot contribution is at
        # most +1 inside the logarithm, and shrinks back to the finite-support
        # value as the ramps sharpen
        grid = ParameterGrid(-0.5, 1.5, 4001)
        model = cos2_model(grid)  # F = 1 everywhere on this grid
        thm1 = math.log(1.0 + 0.5 * 1.0)  # support [0, 1], F = 1
        gaps = []
        for ramp in (0.3, 0.15, 0.05):
            f, df = cosine_plateau(grid, 0.0, 1.0, ramp)
            mass = integrate(f, grid)
            prior = PriorDensity.tabulated(grid, f / mass, df / mass)
            bound = mi_bound_general_prior(JointModel(prior, model))
            gaps.append(bound.value - thm1)
        assert all(gap <= 1.0 for gap in gaps)
        assert gaps[0] > gaps[-1]
        assert abs(gaps[-1]) < 0.1


class TestMiBoundVariational:
    def test_f_equal_prior_reproduces_general_bound(self):
        joint = gaussian_joint(sigma=0.45)
        general = mi_bound_general_prior(joint)
        variational = mi_bound_variational(joint, joint.prior.density,
                                           joint.prior.derivative)
        assert variational.value == pytest.approx(general.value, abs=1e-9)

    @pytest.mark.parametrize("make_prior", [
        PriorDensity.rectangle,
        lambda grid: PriorDensity.tabulated(grid, np.full(grid.points, 1.0 / PI)),
    ], ids=["rectangle", "flat-tabulated"])
    def test_f_equal_flat_prior_keeps_its_end_jumps(self, make_prior):
        # a flat prior jumps at both grid ends, in the general-prior bound and
        # in the variational one alike, and both equal the finite-support bound
        grid = ParameterGrid(0.0, PI, 2001)
        joint = JointModel(make_prior(grid), cos2_model(grid))
        general = mi_bound_general_prior(joint)
        variational = mi_bound_variational(joint, joint.prior.density, joint.prior.derivative)
        assert variational.value == pytest.approx(general.value, abs=1e-12)
        finite = mi_bound_finite_support(fisher_information(joint.conditional))
        assert general.value == pytest.approx(finite.value, abs=1e-9)

    @pytest.mark.parametrize("joint", [
        JointModel(PriorDensity.rectangle(ParameterGrid(0.0, 1.0, 1001)),
                   cos2_model(ParameterGrid(0.0, 1.0, 1001))),
        gaussian_joint(sigma=0.1),
    ], ids=["rectangle", "gaussian"])
    def test_constant_weight_is_the_finite_support_bound(self, joint):
        # f = 1 jumps by 1 at each grid end: ln(1 + L/2) over the grid, not ln(L/2)
        report = mi_bound_variational(joint, np.ones(joint.grid.points))
        finite = mi_bound_finite_support(fisher_information(joint.conditional))
        assert report.value == pytest.approx(finite.value, abs=1e-9)
        assert report.value >= mutual_information(joint).mi

    def test_plateau_approaches_finite_support_bound(self):
        grid = ParameterGrid(-0.5, 1.5, 4001)
        model = cos2_model(grid)
        prior = PriorDensity.cosine_window(grid, 0.5, 1.0)  # supported on [0, 1]
        joint = JointModel(prior, model)
        target = mi_bound_finite_support(fisher_information(model), (0.0, 1.0))
        values = []
        for ramp in (0.4, 0.2, 0.1, 0.05):
            f, df = cosine_plateau(grid, 0.0, 1.0, ramp)
            values.append(mi_bound_variational(joint, f, df).value)
        errors = [abs(v - target.value) for v in values]
        assert errors[-1] < 0.05
        assert errors[0] > errors[-1]

    def test_scaling_invariance(self):
        joint = gaussian_joint(sigma=0.5)
        f, df = joint.prior.density, joint.prior.derivative
        one = mi_bound_variational(joint, f, df)
        two = mi_bound_variational(joint, 2.0 * f, 2.0 * df)
        assert two.value == pytest.approx(one.value, abs=1e-9)

    def test_rejects_nonpositive_f(self):
        joint = gaussian_joint(sigma=0.5)
        with pytest.raises(ValueError, match="positive"):
            mi_bound_variational(joint, np.zeros(joint.grid.points))
        negative = np.ones(joint.grid.points)
        negative[3] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            mi_bound_variational(joint, negative)

    @pytest.mark.parametrize("derivative, message", [
        (0.0, r"f_derivative must be grid-aligned, shape \(201,\), got \(\)"),
        (np.zeros(200), r"f_derivative must be grid-aligned, shape \(201,\), got \(200,\)"),
        (np.zeros((1, 201)), r"f_derivative must be grid-aligned, shape \(201,\), got \(1, 201\)"),
        (np.where(np.arange(201) == 9, np.inf, 0.0),
         r"f_derivative has a non-finite value at index \(9,\)"),
    ], ids=["scalar", "short", "2-d", "inf"])
    def test_derivative_is_checked_and_named(self, derivative, message):
        grid = ParameterGrid(0.0, PI, 201)
        joint = JointModel(PriorDensity.rectangle(grid), cos2_model(grid))
        with pytest.raises(ValueError, match=message):
            mi_bound_variational(joint, np.ones(grid.points), derivative)

    @pytest.mark.parametrize("f_derivative", [None, np.zeros(201)], ids=["default", "given"])
    def test_non_finite_f_is_named_at_its_index(self, f_derivative):
        # a default derivative used to move the NaN to a neighbour of index 7
        grid = ParameterGrid(0.0, PI, 201)
        joint = JointModel(PriorDensity.rectangle(grid), cos2_model(grid))
        f = np.ones(grid.points)
        f[7] = np.nan
        with pytest.raises(ValueError, match=r"^f has a non-finite value at index \(7,\)"):
            mi_bound_variational(joint, f, f_derivative)

    def test_checked_inputs_keep_the_value(self):
        # a list and a read-only array give the value of the plain arrays
        grid = ParameterGrid(0.0, PI, 201)
        joint = JointModel(PriorDensity.rectangle(grid), cos2_model(grid))
        f, df = 1.0 + 0.5 * np.sin(grid.values), 0.5 * np.cos(grid.values)
        want = mi_bound_variational(joint, f, df).value
        assert mi_bound_variational(joint, f.tolist(), df.tolist()).value == want
        f.setflags(write=False)
        assert mi_bound_variational(joint, f).value == mi_bound_variational(joint, f.copy()).value

    def test_f_vanishing_on_prior_mass_diverges(self):
        grid = ParameterGrid(0.0, PI, 1001)
        joint = JointModel(PriorDensity.rectangle(grid), cos2_model(grid))
        f, df = cosine_plateau(grid, 1.0, 2.0, 0.5)  # zero near the grid ends
        with pytest.raises(Exception, match="vanishes"):
            mi_bound_variational(joint, f, df)


class TestPriorInformation:
    def test_gaussian(self):
        sigma = 0.37
        grid = ParameterGrid(-8.0 * sigma, 8.0 * sigma, 4001)
        prior = PriorDensity.gaussian(grid, 0.0, sigma)
        assert prior.information == pytest.approx(1.0 / sigma ** 2, rel=1e-6)

    def test_rectangle_diverges(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        assert math.isinf(PriorDensity.rectangle(grid).information)

    def test_window_grows_as_it_sharpens(self):
        # analytic value for the cos^2 window: 4 pi^2 / width^2
        grid = ParameterGrid(0.0, 4.0, 8001)
        values = []
        for width in (3.0, 1.5, 0.75):
            prior = PriorDensity.cosine_window(grid, 2.0, width)
            p = prior.information
            assert p == pytest.approx(4.0 * PI ** 2 / width ** 2, rel=1e-3)
            values.append(p)
        assert values[0] < values[1] < values[2]


class TestEfroimovich:
    def test_gaussian_constant_fisher_closed_form(self):
        sigma = 0.4
        joint = gaussian_joint(sigma=sigma)
        report = efroimovich_mi_bound(joint)
        assert report.value == pytest.approx(0.5 * math.log(sigma ** 2 + 1.0), abs=1e-6)

    def test_rectangle_flagged(self):
        grid = ParameterGrid(0.0, PI, 1001)
        joint = JointModel(PriorDensity.rectangle(grid), cos2_model(grid))
        report = efroimovich_mi_bound(joint)
        assert report.value is None
        assert DIVERGENT_PRIOR_INFORMATION in report.flags

    def test_no_measurement_zero_bound(self):
        joint = gaussian_joint(sigma=0.5, model=trivial_model)
        assert efroimovich_mi_bound(joint).value == pytest.approx(0.0, abs=1e-6)


class TestEntropyMseFloor:
    def test_gaussian_posterior_exact(self):
        sigma = 0.3
        h = 0.5 * math.log(2.0 * math.pi * math.e * sigma ** 2)
        assert entropy_mse_floor(h) == pytest.approx(sigma ** 2, rel=1e-12)

    def test_zero_entropy(self):
        assert entropy_mse_floor(0.0) == pytest.approx(1.0 / (2.0 * math.pi * math.e))

    def test_uniform_posterior_below_true_variance(self):
        d = 0.8
        floor = entropy_mse_floor(math.log(d))
        assert floor == pytest.approx(d ** 2 / (2.0 * math.pi * math.e), rel=1e-12)
        assert floor < d ** 2 / 12.0


class TestVanTrees:
    def test_gaussian_constant_fisher(self):
        sigma = 0.4
        report = van_trees(gaussian_joint(sigma=sigma))
        assert report.value == pytest.approx(1.0 / (1.0 + 1.0 / sigma ** 2), rel=1e-6)

    def test_prior_only(self):
        sigma = 0.5
        report = van_trees(gaussian_joint(sigma=sigma, model=trivial_model))
        assert report.value == pytest.approx(sigma ** 2, rel=1e-6)

    def test_rectangle_flagged(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        report = van_trees(JointModel(PriorDensity.rectangle(grid), trivial_model(grid)))
        assert report.value is None
        assert DIVERGENT_PRIOR_INFORMATION in report.flags


class TestMseBoundFiniteSupport:
    def test_rectangle_no_measurement(self):
        d = 2.0
        grid = ParameterGrid(0.0, d, 2001)
        joint = JointModel(PriorDensity.rectangle(grid), trivial_model(grid))
        report = mse_bound_finite_support(joint)
        assert report.value == pytest.approx(d ** 2 / (2.0 * math.pi * math.e), abs=1e-9)
        oracle = bayes_quadratic_cost(joint)
        assert oracle == pytest.approx(d ** 2 / 12.0, abs=1e-6)
        assert report.value < oracle

    def test_rectangle_closed_form_cos2(self):
        grid = ParameterGrid(0.0, PI, 2001)
        joint = JointModel(PriorDensity.rectangle(grid), cos2_model(grid))
        report = mse_bound_finite_support(joint)
        closed = TWO_OVER_PIE / (2.0 / PI + 1.0) ** 2
        f_const = joint.conditional.fisher.constant_value()
        closed_report = rectangle_prior_mse_bound(f_const, joint.prior.params["width"])
        assert closed_report.value == pytest.approx(closed, rel=1e-12)
        assert closed_report.units == SQUARED_UNITS
        assert report.value == pytest.approx(closed, rel=1e-3)
        assert bayes_quadratic_cost(joint) > report.value

    def test_decays_as_one_over_n(self):
        # with F = N the bound falls off like (2/pi e)/N for large N
        grid = ParameterGrid(0.0, 1.0, 2001)
        prior = PriorDensity.rectangle(grid)
        values = {}
        for n in (10_000, 40_000):
            s = math.sqrt(float(n))
            phi = grid.values
            probs = np.vstack([np.sin(s * phi / 2.0) ** 2, np.cos(s * phi / 2.0) ** 2])
            d1 = -0.5 * s * np.sin(s * phi)
            model = ConditionalModel(grid, probs, np.vstack([-d1, d1]))
            values[n] = mse_bound_finite_support(JointModel(prior, model)).value
        assert values[10_000] / values[40_000] == pytest.approx(4.0, rel=0.05)
        assert values[10_000] == pytest.approx(TWO_OVER_PIE / 10_000, rel=0.05)


def kinked_joint(first, last, left_kink=False):
    """p(1|phi) = max(phi - 1/2, 0) on a 101-point [0, 1] grid: F diverges at phi = 1/2.

    ``left_kink`` adds max(0.01 - phi, 0), so F also diverges at phi = 0.01.
    The prior is a box on grid indices ``first..last``.
    """
    grid = ParameterGrid(0.0, 1.0, 101)
    phi = grid.values
    p1 = np.maximum(phi - 0.5, 0.0) + (np.maximum(0.01 - phi, 0.0) if left_kink else 0.0)
    box = np.zeros(grid.points)
    box[first:last + 1] = 1.0
    prior = PriorDensity.tabulated(grid, box / integrate(box, grid))
    return JointModel(prior, ConditionalModel.from_probs(grid, np.vstack([1.0 - p1, p1])))


class TestSupportWidening:
    def test_odd_support_widens_left_past_a_divergent_right_neighbour(self):
        joint = kinked_joint(2, 49)
        report = mse_bound_finite_support(joint)
        # F = 0 on indices 1..49, so the Jeffreys length is 0
        assert report.value == entropy_mse_floor(joint.prior.entropy)
        assert report.flags == ()
        assert report.value <= bayes_quadratic_cost(joint)

    @pytest.mark.parametrize("first, last, left_kink", [
        (2, 49, True),    # F diverges at both neighbours of an odd support
        (2, 98, False),   # F diverges inside the support
    ], ids=["both-neighbours", "inside"])
    def test_divergent_fisher_flagged(self, first, last, left_kink):
        report = mse_bound_finite_support(kinked_joint(first, last, left_kink))
        assert report.value is None and report.flags == (DIVERGENT_FISHER_INFORMATION,)
        assert report.direction == LOWER_MSE


class TestRectanglePriorMseBound:
    @pytest.mark.parametrize("F, width", [(0.0, 2.0), (1.0, PI), (250.0, 0.1), (1e6, 7.5)])
    def test_closed_form(self, F, width):
        report = rectangle_prior_mse_bound(F, width)
        want = TWO_OVER_PIE / (2.0 / width + math.sqrt(F)) ** 2
        assert report.value == pytest.approx(want, rel=1e-15)
        assert report.name == "mse-rectangle-closed-form"
        assert report.direction == LOWER_MSE

    @pytest.mark.parametrize("F, width, message", [
        (1.0, 0.0, "width must be positive"), (1.0, -1.0, "width must be positive"),
        (-1e-3, 1.0, "F must be nonnegative"),
    ])
    def test_domain_errors(self, F, width, message):
        with pytest.raises(ValueError, match=message):
            rectangle_prior_mse_bound(F, width)


class TestMseBoundGeneralPrior:
    def test_gaussian_no_measurement(self):
        # int |pdot| = 2 p_max gives sigma^2 / e, below the prior variance
        sigma = 0.6
        joint = gaussian_joint(sigma=sigma, model=trivial_model)
        report = mse_bound_general_prior(joint)
        assert report.value == pytest.approx(sigma ** 2 / math.e, rel=1e-4)
        assert report.value <= sigma ** 2

    def test_dominates_simplified_form(self):
        sigma = 0.5
        joint = gaussian_joint(sigma=sigma)
        report = mse_bound_general_prior(joint)
        simplified = TWO_OVER_PIE / (1.0 + 1.0 / sigma ** 2)
        assert report.value >= simplified - 1e-9

    def test_matches_finite_support_as_plateau_sharpens(self):
        grid = ParameterGrid(-0.5, 1.5, 4001)
        model = cos2_model(grid)
        target = None
        values = []
        for ramp in (0.3, 0.1, 0.04):
            f, df = cosine_plateau(grid, 0.0, 1.0, ramp)
            mass = integrate(f, grid)
            prior = PriorDensity.tabulated(grid, f / mass, df / mass)
            joint = JointModel(prior, model)
            values.append(mse_bound_general_prior(joint).value)
            target = mse_bound_finite_support(joint).value
        # F = 1, unit width: exact rectangle value would be (2/pi e)/(2 + 1)^2
        rect = TWO_OVER_PIE / 9.0
        assert values[-1] == pytest.approx(rect, rel=0.1)
        assert abs(values[-1] - rect) < abs(values[0] - rect) + 1e-12
        assert target == pytest.approx(rect, rel=0.15)


class TestGaussianPriorMseBounds:
    def test_zero_fisher(self):
        sigma = 0.8
        exact, simplified = gaussian_prior_mse_bounds(0.0, sigma)
        assert simplified.value == pytest.approx(TWO_OVER_PIE * sigma ** 2, rel=1e-12)
        assert exact.value == pytest.approx(sigma ** 2 / math.e, rel=1e-9)

    def test_subnormal_fisher_takes_the_zero_limit(self):
        # F sigma^2 / 2 below the smallest normal double: the Tricomi closed
        # form would overflow, and U(-1/2, 0, z) -> 1/sqrt(pi) as z -> 0
        tiny = gaussian_prior_mse_bounds(1e-309, 1.0)
        zero = gaussian_prior_mse_bounds(0.0, 1.0)
        for got, want in zip(tiny, zero):
            assert got.value == pytest.approx(want.value, abs=1e-12)

    def test_ratio_near_one_for_large_f_sigma2(self):
        exact, simplified = gaussian_prior_mse_bounds(10.0, 1.0)
        ratio = exact.value / simplified.value
        assert 1.0 - 1e-3 <= ratio <= 1.1
        exact, simplified = gaussian_prior_mse_bounds(100.0, 1.0)
        assert abs(simplified.value / exact.value - 1.0) <= 1e-3

    def test_exact_at_least_simplified(self):
        for f_sigma2 in (0.1, 1.0, 10.0, 100.0):
            for sigma in (0.3, 1.0, 2.5):
                f_const = f_sigma2 / sigma ** 2
                exact, simplified = gaussian_prior_mse_bounds(f_const, sigma)
                assert exact.value >= simplified.value - 1e-12

    def test_van_trees_ratio_is_exactly_pi_e_over_2(self):
        for f_const, sigma in ((0.0, 1.0), (3.0, 0.5), (40.0, 2.0)):
            _, simplified = gaussian_prior_mse_bounds(f_const, sigma)
            vt = 1.0 / (f_const + 1.0 / sigma ** 2)
            assert vt / simplified.value == pytest.approx(math.pi * math.e / 2.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_prior_mse_bounds(1.0, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            gaussian_prior_mse_bounds(-1.0, 1.0)


def test_adversarial_near_deterministic_model():
    # probabilities clipped at 1e-9: the Fisher information spikes but stays
    # finite, and every bound still dominates its oracle
    from test_mi_oracle import near_deterministic_model
    from infobounds.stat_model import fisher_information as fi

    grid = ParameterGrid(0.0, 1.0, 2001)
    joint = near_deterministic_model(grid, clip=1e-9)
    profile = fi(joint.conditional)
    assert not profile.divergent.any()
    oracle = mutual_information(joint)
    assert oracle_margin(mi_bound_finite_support(profile), oracle.mi) >= -1e-3
    assert oracle_margin(mi_bound_general_prior(joint), oracle.mi) >= -1e-3
    assert oracle_margin(mse_bound_general_prior(joint), oracle.bayes_mse) >= -1e-9


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(2024)
    grid = ParameterGrid(0.0, 1.0, 1001)
    return [random_joint_model(rng, grid) for _ in range(30)]


class TestRandomModelProperties:
    """Seeded sweeps of the inequality chain on smooth random models."""

    def test_dominance(self, models):
        for joint in models:
            oracle = mutual_information(joint)
            finite = mi_bound_finite_support(fisher_information(joint.conditional))
            general = mi_bound_general_prior(joint)
            assert oracle_margin(finite, oracle.mi) >= -1e-3
            assert oracle_margin(general, oracle.mi) >= -1e-3

    def test_log_term_dominates_negative_conditional_entropy(self, models):
        for joint in models:
            oracle = mutual_information(joint)
            general = mi_bound_general_prior(joint)
            log_term = general.value - joint.prior.entropy
            assert log_term >= -oracle.h_posterior - 1e-9

    def test_sqrt_subadditivity_integrated(self, models):
        for joint in models:
            grid = joint.grid
            p = joint.prior.density
            pdot = joint.prior.derivative
            profile = fisher_information(joint.conditional)
            lhs = integrate(joint_derivative_l1_bound(joint), grid)
            rhs = (integrate(np.sqrt(profile.values) * p, grid)
                   + integrate(np.abs(pdot), grid))
            assert lhs <= rhs + 1e-9

    def test_efroimovich_dominates_when_finite(self, models):
        for joint in models:
            report = efroimovich_mi_bound(joint)
            assert report.value is not None
            assert oracle_margin(report, mutual_information(joint).mi) >= -1e-6

    def test_mse_bounds_below_oracle(self, models):
        for joint in models:
            oracle = bayes_quadratic_cost(joint)
            for report in (mse_bound_finite_support(joint), mse_bound_general_prior(joint),
                           van_trees(joint)):
                assert report.value is not None
                assert oracle_margin(report, oracle) >= -1e-9

    def test_entropy_floor_chain(self, models):
        # quadratic cost >= e^(2 H(phi|x)) / (2 pi e) on every model
        for joint in models:
            oracle = mutual_information(joint)
            assert entropy_mse_floor(oracle.h_posterior) <= oracle.bayes_mse + 1e-12


VERIFIED_BOUNDS = ["mi-bound-finite-support", "mi-bound-general-prior", "efroimovich-mi-bound",
                   "van-trees", "mse-bound-finite-support", "mse-bound-general-prior"]


class TestBoundRegistry:
    @pytest.mark.parametrize("make, expected", [
        (lambda: JointModel(PriorDensity.rectangle(ParameterGrid(0.0, PI, 2001)),
                            cos2_model(ParameterGrid(0.0, PI, 2001))),
         VERIFIED_BOUNDS[:5] + ["mse-rectangle-closed-form", "mse-bound-general-prior"]),
        (gaussian_joint,
         VERIFIED_BOUNDS + ["gaussian-prior-mse-exact", "gaussian-prior-mse-simplified"]),
        (lambda: random_joint_model(np.random.default_rng(5), ParameterGrid(0.0, 1.0, 1001)),
         VERIFIED_BOUNDS),
    ], ids=["cos2", "cos2-gaussian", "random"])
    def test_applicable_bounds(self, make, expected):
        assert [r.name for r in all_bounds(make())] == expected

    def test_rectangle_flags_kept(self):
        reports = {r.name: r for r in all_bounds(
            JointModel(PriorDensity.rectangle(ParameterGrid(0.0, PI, 201)),
                       cos2_model(ParameterGrid(0.0, PI, 201))))}
        for name in ("efroimovich-mi-bound", "van-trees"):
            assert reports[name].value is None
            assert reports[name].flags == (DIVERGENT_PRIOR_INFORMATION,)

    def test_values_match_the_single_bounds(self):
        joint = gaussian_joint()
        reports = {r.name: r for r in all_bounds(joint)}
        assert reports["mi-bound-general-prior"].value == mi_bound_general_prior(joint).value
        assert reports["van-trees"].value == van_trees(joint).value
        exact, simplified = gaussian_prior_mse_bounds(1.0, 0.5)
        assert reports["gaussian-prior-mse-exact"].value == pytest.approx(exact.value, rel=1e-9)
        assert reports["gaussian-prior-mse-simplified"].value == pytest.approx(
            simplified.value, rel=1e-9)

    def test_one_fisher_evaluation(self, monkeypatch):
        import infobounds.stat_model as stat_model
        calls = []
        original = stat_model.fisher_information
        monkeypatch.setattr(stat_model, "fisher_information",
                            lambda model: calls.append(model) or original(model))
        joint = gaussian_joint(points=401)
        all_bounds(joint)
        all_bounds(joint)
        assert calls == [joint.conditional]


BUILTINS = ["cos2", "cos2-gaussian", "noon", "dephasing-qubit", "ampdamp-qubit", "erasure-qutrit"]
SCALES = [1e-9, 1e-3, 1e3, 1e9]


def rescaled(joint, a):
    """``joint`` in the parameter a * phi: the grid and prior scaled, dp/dphi divided by a."""
    grid = joint.grid
    scaled = ParameterGrid(a * grid.lower, a * grid.upper, grid.points)
    prior = joint.prior
    if prior.kind == "rectangle":
        prior = PriorDensity.rectangle(scaled)
    else:
        prior = PriorDensity.gaussian(scaled, a * prior.params["mean"], a * prior.params["sigma"])
    cond = joint.conditional
    return JointModel(prior, ConditionalModel(scaled, cond.probs, cond.dprobs / a,
                                              cond.derivative_source, cond.outcomes))


def rescaling_cases():
    for name in BUILTINS:
        for a in SCALES:
            marks = ()
            if (name, a) == ("noon", 1e-9):
                marks = pytest.mark.xfail(strict=True, raises=NumericError,
                                          reason="the p = 0 rule of F compares |pdot| (units "
                                                 "1/phi) with an absolute tolerance; ROADMAP "
                                                 "direction 1 makes it units-free")
            yield pytest.param(name, a, marks=marks, id=f"{name}-{a:g}")


@pytest.mark.parametrize("name, a", rescaling_cases())
def test_rescaling_phi_keeps_flags_and_scales_mse_bounds(name, a):
    # phi -> a phi leaves every MI bound unchanged and scales every MSE bound by a^2
    joint = build_builtin(name)
    want = all_bounds(joint)
    have = all_bounds(rescaled(joint, a))
    assert [(r.name, r.flags) for r in have] == [(r.name, r.flags) for r in want]
    for got, ref in zip(have, want):
        if ref.value is None:
            assert got.value is None, got.name
            continue
        scale = 1.0 if ref.direction == UPPER_MI else a * a
        assert abs(got.value / scale - ref.value) <= 1e-12 * abs(ref.value), got.name
