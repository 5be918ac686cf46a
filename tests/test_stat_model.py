import math

import numpy as np
import pytest

from infobounds.cli import DEFAULT_GRID_POINTS, DEFAULT_SEED, build_builtin
from infobounds.mi_oracle import repeat_model
from infobounds.numerics import NumericError, ParameterGrid, integrate, simpson_weights
from infobounds.quantum_metrology import DensityMatrix, PhaseChannelFamily, plus_minus_povm
from infobounds.random_models import random_joint_model
from infobounds.stat_model import (
    ZERO_DERIV_TOL,
    ConditionalModel,
    FisherProfile,
    JointModel,
    PriorDensity,
    average_fisher,
    cos2_model,
    cosine_plateau,
    fisher_information,
    fisher_under_prior,
    jeffreys_length,
    _median,
    _score_terms,
)


@pytest.fixture
def pi_grid():
    return ParameterGrid(0.0, math.pi, 2001)


def marginal_outcome(joint):
    """Marginal outcome distribution p_bar(x) = int p(x|phi) p(phi) dphi."""
    return (joint.conditional.probs * joint.prior.density) @ simpson_weights(joint.grid)


def masked_score_terms(p, pdot, tol):
    """Reference: the score-term rule as a masked divide into zeros, then an inf mask."""
    terms = np.zeros_like(p)
    pos = p > 0.0
    with np.errstate(over="ignore"):
        np.divide(pdot * pdot, p, out=terms, where=pos)
    terms[~pos & (np.abs(pdot) > tol)] = np.inf
    return terms


def flat_model(grid, k=2):
    """phi-independent conditional model with k equiprobable outcomes."""
    probs = np.full((k, grid.points), 1.0 / k)
    return ConditionalModel(grid, probs, np.zeros_like(probs), "analytic")


class TestPriorDensity:
    def test_rectangle_mass_and_entropy(self, pi_grid):
        prior = PriorDensity.rectangle(pi_grid)
        assert integrate(prior.density, pi_grid) == pytest.approx(1.0, abs=1e-12)
        assert prior.entropy == pytest.approx(math.log(math.pi), abs=1e-12)
        # the density is 0 beyond the grid: its end values are jumps, which diverge P
        assert math.isinf(prior.information)
        assert prior.density[0] + prior.density[-1] == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_rectangle_width_one_zero_entropy(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        assert PriorDensity.rectangle(grid).entropy == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_entropy(self):
        sigma = 0.7
        grid = ParameterGrid(-8.0 * sigma, 8.0 * sigma, 4001)
        prior = PriorDensity.gaussian(grid, 0.0, sigma)
        expected = 0.5 * math.log(2.0 * math.pi * math.e * sigma ** 2)
        assert prior.entropy == pytest.approx(expected, abs=1e-6)

    def test_gaussian_rejects_bad_sigma(self, pi_grid):
        with pytest.raises(ValueError, match="sigma"):
            PriorDensity.gaussian(pi_grid, 1.0, -0.1)

    def test_gaussian_rejects_narrow_grid(self):
        grid = ParameterGrid(-1.0, 1.0, 101)
        with pytest.raises(ValueError, match="mass"):
            PriorDensity.gaussian(grid, 0.0, 1.0)

    def test_rejects_negative_density(self, pi_grid):
        dens = np.full(pi_grid.points, 1.0 / math.pi)
        dens[3] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            PriorDensity.tabulated(pi_grid, dens)

    def test_clips_roundoff_negatives_to_zero(self):
        grid = ParameterGrid(0.0, 2.0, 2001)
        window = PriorDensity.cosine_window(grid, 1.0, 1.2)
        dens = window.density.copy()
        dens[5] = -1e-13
        prior = PriorDensity.tabulated(grid, dens, window.derivative)
        assert prior.density[5] == 0.0
        assert dens[5] == -1e-13
        assert not prior.density.flags.writeable
        dens[1000] = 0.0
        np.testing.assert_array_equal(prior.density, window.density)

    def test_cosine_window_mass_and_support(self):
        grid = ParameterGrid(0.0, 2.0, 2001)
        prior = PriorDensity.cosine_window(grid, 1.0, 1.2)
        assert integrate(prior.density, grid) == pytest.approx(1.0, abs=1e-12)
        assert np.all(prior.density[grid.values < 0.39] == 0.0)

    @pytest.mark.parametrize("center", [0.50025, 0.5])
    def test_cosine_window_narrower_than_a_panel(self, center):
        # on 2001 points (spacing 5e-4) a 1e-5 window holds no point (at 0.50025)
        # or one (at 0.5): a 0/0 density, or a spike with P = 0 against 4 pi^2 / w^2
        grid = ParameterGrid(0.0, 1.0, 2001)
        with pytest.raises(ValueError, match=r"width 1e-05 holds fewer than 3 grid points "
                                             r"\(grid spacing 0\.0005\)"):
            PriorDensity.cosine_window(grid, center, 1e-5)

    def test_cosine_window_of_one_panel(self):
        grid = ParameterGrid(0.0, 1.0, 2001)
        prior = PriorDensity.cosine_window(grid, 0.5, 2.5 * grid.spacing)
        assert np.count_nonzero(prior.density) == 3
        assert integrate(prior.density, grid) == pytest.approx(1.0, abs=1e-12)

    def test_entropy_matches_a_masked_gather_and_scatter(self, pi_grid):
        for prior in (PriorDensity.cosine_window(pi_grid, 1.0, 1.2),
                      PriorDensity.gaussian(pi_grid, 1.5, 0.2), PriorDensity.rectangle(pi_grid)):
            p = prior.density
            integrand = np.zeros_like(p)
            pos = p > 0.0
            integrand[pos] = -p[pos] * np.log(p[pos])
            assert prior.entropy == integrate(integrand, pi_grid)

    def test_cosine_window_must_fit(self):
        grid = ParameterGrid(0.0, 1.0, 101)
        with pytest.raises(ValueError, match="inside"):
            PriorDensity.cosine_window(grid, 0.9, 0.5)

    @pytest.mark.parametrize("label", ["density", "derivative"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_naming_array_and_index(self, pi_grid, label, value):
        arrays = {"density": np.full(pi_grid.points, 1.0 / math.pi),
                  "derivative": np.zeros(pi_grid.points)}
        arrays[label][3] = value
        with pytest.raises(ValueError, match=rf"{label} has a non-finite value at index \(3,\)"):
            PriorDensity.tabulated(pi_grid, arrays["density"], arrays["derivative"])

    def test_non_finite_density_is_a_value_error_without_a_derivative(self, pi_grid):
        dens = np.full(pi_grid.points, 1.0 / math.pi)
        dens[3] = np.nan
        with pytest.raises(ValueError, match=r"density has a non-finite value at index \(3,\)"):
            PriorDensity.tabulated(pi_grid, dens)

    @pytest.mark.parametrize("kind, params, message", [
        ("bogus", {}, "unknown prior kind 'bogus'"),
        ("rectangle", {}, r"rectangle prior needs params\['width'\]"),
        ("gaussian", {"mean": 1.0}, r"gaussian prior needs params\['sigma'\]"),
    ])
    def test_rejects_bad_kind_or_missing_param(self, pi_grid, kind, params, message):
        dens = np.full(pi_grid.points, 1.0 / math.pi)
        with pytest.raises(ValueError, match=message):
            PriorDensity(pi_grid, dens, kind, np.zeros(pi_grid.points), params=params)

    def test_keeps_read_only_owned_arrays_and_copies_writable_ones(self, pi_grid):
        dens = np.full(pi_grid.points, 1.0 / math.pi)
        deriv = np.zeros(pi_grid.points)
        dens.setflags(write=False)
        prior = PriorDensity(pi_grid, dens, "tabulated", deriv)
        assert prior.density is dens
        assert prior.derivative is not deriv and not prior.derivative.flags.writeable
        deriv[3] = 1.0
        assert prior.derivative[3] == 0.0

    def test_tabulated_default_derivative(self):
        grid = ParameterGrid(0.0, 2.0, 2001)
        ref = PriorDensity.cosine_window(grid, 1.0, 1.5)
        tab = PriorDensity.tabulated(grid, ref.density)
        # stencils straddling the C^1 seams at the window edges are excluded
        away = (np.abs(grid.values - 0.25) > 3 * grid.spacing) \
            & (np.abs(grid.values - 1.75) > 3 * grid.spacing)
        np.testing.assert_allclose(tab.derivative[away], ref.derivative[away], atol=1e-3)


def reference_cosine_window(grid, center, width):
    """(density, derivative) of the cosine window as first written: evaluated on the
    whole grid, then masked to the window."""
    u = grid.values - center
    inside = np.abs(u) <= width / 2
    dens = np.where(inside, (2.0 / width) * np.cos(np.pi * u / width) ** 2, 0.0)
    deriv = np.where(inside, -(2.0 * np.pi / width ** 2) * np.sin(2.0 * np.pi * u / width), 0.0)
    mass = integrate(dens, grid)
    return dens / mass, deriv / mass


class TestCosineWindowSlice:
    """The window is evaluated on its slice of the grid only, with the same bytes."""

    @pytest.mark.parametrize("points", [101, 201, 1001, 2001, 4001])
    @pytest.mark.parametrize("lower, upper", [(0.0, 1.0), (0.0, math.pi), (-7.5, 12.25)])
    def test_bytes_match_the_whole_grid_formula(self, points, lower, upper):
        grid = ParameterGrid(lower, upper, points)
        span = upper - lower
        rng = np.random.default_rng(points)
        # 200 random windows, then ones whose edges fall on grid points, and the whole grid
        widths = list(rng.uniform(0.05, 1.0, 200) * span)
        centers = [rng.uniform(lower + w / 2, upper - w / 2) for w in widths]
        for k in (2, 10, (points - 1) // 2):
            widths.append(2 * k * grid.spacing)
            centers.append(float(grid.values[points // 2]))
        widths.append(span)
        centers.append(lower + span / 2)
        for center, width in zip(centers, widths):
            want = reference_cosine_window(grid, center, width)
            if np.count_nonzero(want[0] != 0.0) < 3:
                continue
            prior = PriorDensity.cosine_window(grid, center, width)
            assert prior.density.tobytes() == want[0].tobytes()
            assert prior.derivative.tobytes() == want[1].tobytes()


class TestMedian:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 999, 1000, 1999])
    def test_same_bits_as_numpy_median(self, size):
        rng = np.random.default_rng(size)
        for a in (rng.normal(size=size), rng.integers(0, 4, size).astype(float),
                  1.0 + rng.uniform(-1e-7, 1e-7, size), rng.uniform(0.0, 1e300, size)):
            want = np.median(a)
            have = _median(a)
            assert type(have) is float
            assert np.float64(have).tobytes() == want.tobytes()


class TestCosinePlateau:
    def test_shape(self):
        grid = ParameterGrid(-0.5, 1.5, 2001)
        f, df = cosine_plateau(grid, 0.0, 1.0, 0.4)
        phi = grid.values
        assert np.all(f[(phi >= 0.0) & (phi <= 1.0)] == 1.0)
        assert np.all(f[phi < -0.4 + 1e-12] == 0.0)
        assert np.all((f >= 0.0) & (f <= 1.0))
        # derivative matches finite differences away from the C^1 seams
        from infobounds.numerics import central_difference
        fd = central_difference(f, grid)
        assert np.median(np.abs(fd - df)) < 1e-4


class TestConditionalModel:
    def test_rejects_bad_normalization(self, pi_grid):
        probs = np.full((2, pi_grid.points), 0.4)
        with pytest.raises(ValueError, match="sum to 1"):
            ConditionalModel(pi_grid, probs, np.zeros_like(probs), "analytic")

    def test_rejects_negative_probability(self, pi_grid):
        probs = np.vstack([np.full(pi_grid.points, 1.2), np.full(pi_grid.points, -0.2)])
        with pytest.raises(ValueError, match="nonnegative"):
            ConditionalModel(pi_grid, probs, np.zeros_like(probs), "analytic")

    def test_rejects_unbalanced_derivatives(self, pi_grid):
        probs = np.full((2, pi_grid.points), 0.5)
        dprobs = np.ones_like(probs)
        with pytest.raises(ValueError, match="derivatives"):
            ConditionalModel(pi_grid, probs, dprobs, "analytic")

    @pytest.mark.parametrize("span, rejected", [(2.0, False), (4.0, True)])
    def test_derivative_sum_rule_takes_the_span(self, span, rejected):
        # sum_x pdot = 3e-7 at one point: times a span of 2 it is below 1e-6, of 4 above
        grid = ParameterGrid(0.0, span, 21)
        probs = np.full((2, grid.points), 0.5)
        dprobs = np.zeros_like(probs)
        dprobs[0, 3] = 3e-7
        if not rejected:
            ConditionalModel(grid, probs, dprobs, "analytic")
            return
        with pytest.raises(ValueError, match=r"sum to 3.00e-07; times the span 4 that is "
                                             r"1.20e-06 > 1e-06"):
            ConditionalModel(grid, probs, dprobs, "analytic")

    @pytest.mark.parametrize("label", ["probs", "dprobs"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_naming_array_and_index(self, pi_grid, label, value):
        tables = {"probs": np.full((2, pi_grid.points), 0.5),
                  "dprobs": np.zeros((2, pi_grid.points))}
        tables[label][1, 7] = value
        with pytest.raises(ValueError, match=rf"{label} has a non-finite value at index \(1, 7\)"):
            ConditionalModel(pi_grid, tables["probs"], tables["dprobs"], "analytic")

    def test_tables_are_private_copies(self, pi_grid):
        probs = np.full((2, pi_grid.points), 0.5)
        dprobs = np.zeros_like(probs)
        model = ConditionalModel(pi_grid, probs, dprobs, "analytic")
        probs[0, 3] = 0.9
        dprobs[1, 4] = 1.0
        assert model.probs[0, 3] == 0.5 and model.dprobs[1, 4] == 0.0
        assert not model.probs.flags.writeable and not model.dprobs.flags.writeable

    def test_clips_roundoff_negatives_to_zero(self, pi_grid):
        probs = np.vstack([np.zeros(pi_grid.points), np.ones(pi_grid.points)])
        probs[0, 5] = -5e-13
        model = ConditionalModel(pi_grid, probs, np.zeros_like(probs), "analytic")
        assert model.probs[0, 5] == 0.0
        assert model.probs.min() == 0.0
        np.testing.assert_array_equal(model.probs[1], 1.0)

    def test_keeps_read_only_owned_tables(self, pi_grid):
        probs = np.full((2, pi_grid.points), 0.5)
        dprobs = np.zeros_like(probs)
        probs.setflags(write=False)
        dprobs.setflags(write=False)
        model = ConditionalModel(pi_grid, probs, dprobs, "analytic")
        assert model.probs is probs and model.dprobs is dprobs

    @pytest.mark.parametrize("kind", ["view", "float32", "list"])
    def test_copies_read_only_tables_it_does_not_own(self, pi_grid, kind):
        base = np.full((2, pi_grid.points), 0.5)
        table = {"view": base[:, :], "float32": base.astype(np.float32),
                 "list": base.tolist()}[kind]
        if kind != "list":
            table.setflags(write=False)
        model = ConditionalModel(pi_grid, table, np.zeros_like(base), "analytic")
        assert model.probs is not table and model.probs.flags.owndata
        assert model.probs.dtype == np.float64 and not model.probs.flags.writeable
        base[0, 3] = 0.9  # writes through the view do not reach the model
        assert model.probs[0, 3] == 0.5

    def test_clips_a_read_only_table_in_a_copy(self, pi_grid):
        probs = np.vstack([np.zeros(pi_grid.points), np.ones(pi_grid.points)])
        probs[0, 5] = -5e-13
        probs.setflags(write=False)
        model = ConditionalModel(pi_grid, probs, np.zeros_like(probs), "analytic")
        assert model.probs[0, 5] == 0.0 and probs[0, 5] == -5e-13
        assert not model.probs.flags.writeable

    def test_from_probs_finite_difference_tag(self, pi_grid):
        model = ConditionalModel.from_probs(pi_grid, cos2_model(pi_grid).probs)
        assert model.derivative_source == "finite-difference"
        np.testing.assert_allclose(model.dprobs, cos2_model(pi_grid).dprobs, atol=1e-6)


class TestFisherInformation:
    def test_zero_for_flat_model(self, pi_grid):
        profile = fisher_information(flat_model(pi_grid, 3))
        assert np.all(profile.values == 0.0)
        assert not profile.divergent.any()

    def test_cos2_is_one_in_the_interior(self, pi_grid):
        profile = fisher_information(cos2_model(pi_grid))
        np.testing.assert_allclose(profile.values[1:-1], 1.0, atol=1e-9)

    def test_additivity_under_independent_copies(self):
        # brute force on K <= 4 outcomes, up to 3 copies
        grid = ParameterGrid(0.0, 1.0, 401)
        tau = grid.values
        w = np.vstack([1.2 + np.cos(tau), 1.0 + 0.4 * np.sin(2 * tau), np.full(grid.points, 0.7),
                       1.1 + 0.3 * np.sin(tau)])
        dw = np.vstack([-np.sin(tau), 0.8 * np.cos(2 * tau), np.zeros(grid.points),
                        0.3 * np.cos(tau)])
        total, dtotal = w.sum(axis=0), dw.sum(axis=0)
        model = ConditionalModel(grid, w / total, (dw * total - w * dtotal) / total ** 2)
        f1 = fisher_information(model).values
        prior = PriorDensity.rectangle(grid)
        for n in (2, 3):
            fn = fisher_information(repeat_model(JointModel(prior, model), n).conditional).values
            np.testing.assert_allclose(fn, n * f1, atol=1e-6 * max(1.0, f1.max()))

    def test_divergence_flag(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        p1 = np.linspace(0.0, 1.0, 11)
        probs = np.vstack([1.0 - p1, p1])
        dprobs = np.vstack([-np.ones(11), np.ones(11)])
        profile = fisher_information(ConditionalModel(grid, probs, dprobs, "analytic"))
        assert profile.divergent[0] and profile.divergent[-1]
        assert np.isinf(profile.values[0])
        assert not profile.divergent[1:-1].any()


class TestOneScoreRule:
    """F, the prior information P and (in test_quantum) the CFI share one term rule."""

    # |pdot| where p = 0, and the term it gives: |pdot| x span at most ZERO_DERIV_TOL = 1e-6
    # counts as 0 (the span is 1 in test_terms, 2 in the models below)
    VERDICTS = [(0.0, 0.0), (1e-7, 0.0), (1e-3, math.inf)]

    def test_terms(self):
        pdots = [pdot for pdot, _ in self.VERDICTS]
        terms = _score_terms(np.array([0.0, 0.0, 0.0, 0.5]), np.array(pdots + [1.0]),
                             ZERO_DERIV_TOL)
        assert terms.tolist() == [term for _, term in self.VERDICTS] + [2.0]
        assert _score_terms(np.array([-0.0]), np.array([1e-3]), ZERO_DERIV_TOL).tolist() == [
            math.inf]

    @pytest.mark.parametrize("pdot, term", VERDICTS)
    def test_fisher_and_prior_information_agree(self, pdot, term):
        grid = ParameterGrid(0.0, 2.0, 21)
        # outcome 0 has p = 0 at grid point 3 with slope pdot, outcome 1 takes the rest
        probs = np.vstack([np.zeros(grid.points), np.ones(grid.points)])
        dprobs = np.zeros_like(probs)
        dprobs[:, 3] = [pdot, -pdot]
        profile = fisher_information(ConditionalModel(grid, probs, dprobs))
        assert profile.divergent.tolist() == [i == 3 and math.isinf(term)
                                              for i in range(grid.points)]
        assert profile.values[3] == term + pdot * pdot
        # a prior with p = 0 at grid point 3 (and at the ends), same slope there
        window = PriorDensity.cosine_window(grid, 1.0, 1.0)
        deriv = window.derivative.copy()
        deriv[3] = pdot
        prior = PriorDensity.tabulated(grid, window.density, deriv)
        assert window.density[3] == 0.0 and window.density[0] == window.density[-1] == 0.0
        assert math.isinf(prior.information) == math.isinf(term)
        if not math.isinf(term):
            assert prior.information == window.information

    def test_bitwise_equal_to_a_masked_divide(self):
        rng = np.random.default_rng(11)
        for shape in [(4,), (3, 2001), (8, 101)]:
            p = rng.uniform(0.0, 1.0, size=shape)
            pdot = rng.normal(size=shape)
            zeros = rng.random(size=shape) < 0.2
            p[zeros] = 0.0
            # at the zeros of p: slopes on both sides of ZERO_DERIV_TOL, and exact zeros
            pdot[zeros] *= rng.choice([0.0, 1e-7, 1e-3], size=np.count_nonzero(zeros))
            assert _score_terms(p, pdot, ZERO_DERIV_TOL).tobytes() == \
                masked_score_terms(p, pdot, ZERO_DERIV_TOL).tobytes()
        cases = [(np.array([0.0, 0.0, 0.0, 0.5, -0.0]), np.array([0.0, 1e-7, 1e-3, 1.0, 1e-3])),
                 (np.array([1e-300, 1.0, 0.0]), np.array([1e5, -1e5, -1e5]))]  # the overflow
        for p, pdot in cases:
            assert _score_terms(p, pdot, ZERO_DERIV_TOL).tobytes() == \
                masked_score_terms(p, pdot, ZERO_DERIV_TOL).tobytes()

    @pytest.mark.parametrize("span, divergent", [(2.0, False), (4.0, True)])
    def test_zero_rule_takes_the_span(self, span, divergent):
        # |pdot| = 3e-7 at a zero of p: times a span of 2 it is below ZERO_DERIV_TOL, of 4 above
        grid = ParameterGrid(0.0, span, 21)
        probs = np.vstack([np.zeros(grid.points), np.ones(grid.points)])
        dprobs = np.zeros_like(probs)
        dprobs[:, 3] = [3e-7, -3e-7]
        profile = fisher_information(ConditionalModel(grid, probs, dprobs))
        assert profile.divergent.tolist() == [divergent and i == 3 for i in range(grid.points)]
        window = PriorDensity.cosine_window(grid, span / 2.0, span / 2.0)
        deriv = window.derivative.copy()
        deriv[3] = 3e-7
        assert window.density[3] == 0.0
        assert math.isinf(PriorDensity.tabulated(grid, window.density, deriv).information) == \
            divergent

    def test_overflowing_term_is_divergent(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        probs = np.vstack([np.full(grid.points, 0.5), np.full(grid.points, 0.5)])
        dprobs = np.zeros_like(probs)
        probs[:, 4] = [1e-300, 1.0]
        dprobs[:, 4] = [1e5, -1e5]  # 1e10 / 1e-300 overflows
        profile = fisher_information(ConditionalModel(grid, probs, dprobs))
        assert profile.divergent.tolist() == [i == 4 for i in range(grid.points)]
        assert profile.values[4] == math.inf
        dens = PriorDensity.cosine_window(grid, 0.5, 1.0).density.copy()
        dens[4] = 1e-300
        dens /= integrate(dens, grid)
        deriv = np.zeros(grid.points)
        deriv[4] = 1e5
        assert PriorDensity.tabulated(grid, dens, deriv).information == math.inf


class TestCachedFisher:
    def test_matches_a_fresh_profile_and_is_cached(self, pi_grid):
        model = cos2_model(pi_grid)
        fresh = fisher_information(model)
        np.testing.assert_array_equal(model.fisher.values, fresh.values)
        np.testing.assert_array_equal(model.fisher.divergent, fresh.divergent)
        assert model.fisher is model.fisher

    def test_computed_lazily(self, pi_grid, monkeypatch):
        import infobounds.stat_model as stat_model
        calls = []
        original = stat_model.fisher_information
        monkeypatch.setattr(stat_model, "fisher_information",
                            lambda model: calls.append(model) or original(model))
        model = cos2_model(pi_grid)
        assert calls == []
        model.fisher
        model.fisher
        assert calls == [model]

    def test_constant_value(self, pi_grid):
        # cos2 has F = 1 inside (0, pi) and F = 0 at the endpoints by the 0/0 rule
        assert fisher_information(cos2_model(pi_grid)).constant_value() == pytest.approx(1.0)
        assert FisherProfile.constant(pi_grid, 2.5).constant_value() == 2.5
        ramp = FisherProfile(pi_grid, np.linspace(1.0, 2.0, pi_grid.points),
                             np.zeros(pi_grid.points, dtype=bool))
        assert ramp.constant_value() is None

    def test_constant_value_tolerance(self, pi_grid):
        values = np.full(pi_grid.points, 1000.0)
        values[5] += 0.5e-3   # ptp 5e-7 relative to max F
        assert FisherProfile(pi_grid, values, np.zeros(pi_grid.points, dtype=bool)) \
            .constant_value() == 1000.0
        values[5] += 1e-3
        assert FisherProfile(pi_grid, values, np.zeros(pi_grid.points, dtype=bool)) \
            .constant_value() is None

    @pytest.mark.parametrize("value, on_mask", [
        (np.nan, False), (np.nan, True), (np.inf, False), (-np.inf, False), (-np.inf, True),
    ])
    def test_rejects_non_finite_off_the_divergent_mask(self, pi_grid, value, on_mask):
        values = np.ones(pi_grid.points)
        divergent = np.zeros(pi_grid.points, dtype=bool)
        values[9] = np.inf
        divergent[9] = True   # +inf where F diverges is the one non-finite value allowed
        index = 9 if on_mask else 4
        values[index] = value
        with pytest.raises(ValueError, match=rf"values has a non-finite value at index \({index},\)"):
            FisherProfile(pi_grid, values, divergent)

    def test_fisher_under_prior_masks_divergence_outside_support(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        p1 = np.linspace(0.0, 1.0, 11)
        model = ConditionalModel(grid, np.vstack([1.0 - p1, p1]),
                                 np.vstack([-np.ones(11), np.ones(11)]), "analytic")
        inside = JointModel(PriorDensity.rectangle(grid), model)
        with pytest.raises(NumericError, match="diverges where the prior has mass"):
            fisher_under_prior(inside)
        window = PriorDensity.cosine_window(grid, 0.5, 0.8)
        masked = fisher_under_prior(JointModel(window, model))
        assert masked[0] == 0.0 and masked[-1] == 0.0
        np.testing.assert_array_equal(masked[1:-1], model.fisher.values[1:-1])


class TestCachedBoundInputs:
    def test_fisher_under_prior_is_one_read_only_array(self, pi_grid):
        joint = JointModel(PriorDensity.gaussian(pi_grid, 1.5, 0.3), cos2_model(pi_grid))
        masked = fisher_under_prior(joint)
        assert fisher_under_prior(joint) is masked
        assert not masked.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            masked[0] = 1.0

    def test_average_fisher_is_computed_once(self, pi_grid, monkeypatch):
        import infobounds.stat_model as stat_model
        joint = JointModel(PriorDensity.gaussian(pi_grid, 1.5, 0.3), cos2_model(pi_grid))
        value = average_fisher(joint)
        monkeypatch.setattr(stat_model, "integrate", None)  # a second integral would fail
        assert average_fisher(joint) == value
        assert value == integrate(fisher_under_prior(joint) * joint.prior.density, pi_grid)

    def test_divergence_under_the_prior_raises_on_every_call(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        p1 = np.linspace(0.0, 1.0, 11)
        model = ConditionalModel(grid, np.vstack([1.0 - p1, p1]),
                                 np.vstack([-np.ones(11), np.ones(11)]), "analytic")
        joint = JointModel(PriorDensity.rectangle(grid), model)
        for _ in range(2):
            with pytest.raises(NumericError, match="diverges where the prior has mass"):
                fisher_under_prior(joint)
            with pytest.raises(NumericError, match="diverges where the prior has mass"):
                average_fisher(joint)


class TestJeffreysLength:
    def test_constant_one(self, pi_grid):
        profile = FisherProfile.constant(pi_grid, 1.0)
        assert jeffreys_length(profile) == pytest.approx(math.pi, abs=1e-12)

    def test_constant_n_squared_on_circle(self):
        grid = ParameterGrid(0.0, 2.0 * math.pi, 1001)
        for n in (1, 4, 9):
            profile = FisherProfile.constant(grid, n ** 2)
            assert jeffreys_length(profile) == pytest.approx(2.0 * math.pi * n, rel=1e-12)

    def test_whole_grid_is_the_simpson_integral_on_the_grid(self, pi_grid):
        profile = fisher_information(cos2_model(pi_grid))
        want = integrate(np.sqrt(profile.values), pi_grid)
        assert jeffreys_length(profile) == want
        assert jeffreys_length(profile, (pi_grid.lower, pi_grid.upper)) == want

    def test_sub_support(self, pi_grid):
        profile = FisherProfile.constant(pi_grid, 4.0)
        length = jeffreys_length(profile, (0.1 * math.pi, 0.9 * math.pi))
        assert length == pytest.approx(2.0 * 0.8 * math.pi, rel=1e-12)

    def test_divergent_support_raises(self):
        grid = ParameterGrid(0.0, 1.0, 11)
        values = np.ones(11)
        divergent = np.zeros(11, dtype=bool)
        divergent[5] = True
        values[5] = np.inf
        with pytest.raises(NumericError, match="diverges"):
            jeffreys_length(FisherProfile(grid, values, divergent))

    def test_reparametrization_invariance(self):
        # substitute phi = w(u) = u^3 + u on the interior window [0.1 pi, 0.9 pi]
        a, b = 0.1 * math.pi, 0.9 * math.pi
        grid_phi = ParameterGrid(0.0, math.pi, 2001)
        length_phi = jeffreys_length(fisher_information(cos2_model(grid_phi)), (a, b))

        w = lambda u: u ** 3 + u

        def w_inverse(phi):
            # the one real root of u^3 + u - phi = 0 (Cardano; the discriminant is positive)
            r = math.sqrt(phi * phi / 4.0 + 1.0 / 27.0)
            return float(np.cbrt(phi / 2.0 + r) + np.cbrt(phi / 2.0 - r))

        ua, ub = w_inverse(a), w_inverse(b)
        grid_u = ParameterGrid(ua, ub, 2001)
        u = grid_u.values
        p1 = np.cos(w(u) / 2.0) ** 2
        d1 = -0.5 * np.sin(w(u)) * (3.0 * u ** 2 + 1.0)
        model_u = ConditionalModel(grid_u, np.vstack([1.0 - p1, p1]), np.vstack([-d1, d1]))
        length_u = jeffreys_length(fisher_information(model_u))
        assert length_u == pytest.approx(length_phi, abs=1e-4)


class TestIdentityEquality:
    def test_model_values_compare_and_hash_by_identity(self, pi_grid):
        def build():
            prior, model = PriorDensity.rectangle(pi_grid), cos2_model(pi_grid)
            fisher = FisherProfile(pi_grid, model.fisher.values, model.fisher.divergent)
            return (prior, model, JointModel(prior, model), fisher,
                    DensityMatrix.pure([1.0, 1.0]), plus_minus_povm(),
                    PhaseChannelFamily("dephasing", 0.9, np.full((2, 2), 0.5)))

        for first, second in zip(build(), build()):
            assert first == first and first != second
            assert hash(first) == hash(first)
            assert len({first, second}) == 2


class TestJointAndMarginal:
    def test_joint_normalization(self, pi_grid):
        joint = JointModel(PriorDensity.rectangle(pi_grid), cos2_model(pi_grid))
        total = sum(integrate(row, pi_grid)
                    for row in joint.conditional.probs * joint.prior.density)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_grid_mismatch_rejected(self, pi_grid):
        other = ParameterGrid(0.0, math.pi, 1001)
        with pytest.raises(ValueError, match="share one grid"):
            JointModel(PriorDensity.rectangle(pi_grid), cos2_model(other))

    def test_marginal_of_flat_model(self, pi_grid):
        joint = JointModel(PriorDensity.rectangle(pi_grid), flat_model(pi_grid, 4))
        np.testing.assert_allclose(marginal_outcome(joint), 0.25, atol=1e-9)

    def test_marginal_of_cos2_uniform(self, pi_grid):
        joint = JointModel(PriorDensity.rectangle(pi_grid), cos2_model(pi_grid))
        np.testing.assert_allclose(marginal_outcome(joint), 0.5, atol=1e-6)

    def test_marginal_of_deterministic_model(self, pi_grid):
        probs = np.zeros((3, pi_grid.points))
        probs[1] = 1.0
        model = ConditionalModel(pi_grid, probs, np.zeros_like(probs), "analytic")
        joint = JointModel(PriorDensity.rectangle(pi_grid), model)
        np.testing.assert_allclose(marginal_outcome(joint), [0.0, 1.0, 0.0], atol=1e-9)

    def test_average_fisher_cos2(self, pi_grid):
        joint = JointModel(PriorDensity.rectangle(pi_grid), cos2_model(pi_grid))
        assert average_fisher(joint) == pytest.approx(1.0, abs=1e-3)


def old_entropy(prior):
    """H(phi) as first written: one log of the whole density, masked by np.where."""
    p = prior.density
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(p > 0.0, -p * np.log(p), 0.0)
    return integrate(integrand, prior.grid)


def old_quadrature(prior):
    """(q, q ln p, q phi, q phi^2) as first written, with a log of their own."""
    q = simpson_weights(prior.grid) * prior.density
    log_p = np.zeros_like(prior.density)
    np.log(prior.density, out=log_p, where=prior.density > 0.0)
    q_phi = q * prior.grid.values
    return q, q * log_p, q_phi, q_phi * prior.grid.values


def guard_priors():
    for name in ("cos2", "cos2-gaussian", "noon", "dephasing-qubit", "ampdamp-qubit",
                 "erasure-qutrit"):
        yield build_builtin(name).prior
    rng = np.random.default_rng(DEFAULT_SEED)   # the models of `verify --count 200`
    grid = ParameterGrid(0.0, 1.0, DEFAULT_GRID_POINTS)
    for _ in range(200):
        yield random_joint_model(rng, grid).prior


class TestOneLogPerPrior:
    def test_entropy_and_quadrature_keep_their_bytes(self):
        kinds = set()
        for prior in guard_priors():
            kinds.add(prior.kind)
            assert float(prior.entropy).hex() == float(old_entropy(prior)).hex()
            for have, want in zip(prior._quadrature, old_quadrature(prior), strict=True):
                assert have.tobytes() == want.tobytes()
        assert kinds == {"rectangle", "gaussian", "tabulated"}

    def test_log_is_taken_once(self, monkeypatch, pi_grid):
        prior = PriorDensity.cosine_window(pi_grid, 1.0, 1.2)
        calls = []
        log = np.log

        def counted(*args, **kwargs):
            calls.append(1)
            return log(*args, **kwargs)

        monkeypatch.setattr(np, "log", counted)
        prior.entropy, prior._quadrature
        assert len(calls) == 1
        assert not prior._log_density.flags.writeable
        assert np.all(prior._log_density[prior.density == 0.0] == 0.0)
