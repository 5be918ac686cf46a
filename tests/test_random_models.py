import numpy as np
import pytest

from infobounds.numerics import ParameterGrid
from infobounds.random_models import _trig_basis, _trig_rows, random_joint_model


EPS = np.finfo(float).eps


def coefficient_matrix(coef, dtau):
    """The (2K, 2 degree + 1) matrix C of a (K, 2, degree + 1) draw, entry by entry:
    rows (a_0, a_m, b_m) for the polynomials, (0, m dtau b_m, -m dtau a_m) for
    their derivatives."""
    n_outcomes, _, width = coef.shape
    c = np.zeros((2 * n_outcomes, 2 * width - 1))
    for x, (a, b) in enumerate(coef):
        c[x, 0] = a[0]
        for m in range(1, width):
            c[x, 2 * m - 1], c[x, 2 * m] = a[m], b[m]
            c[n_outcomes + x, 2 * m - 1] = m * dtau * b[m]
            c[n_outcomes + x, 2 * m] = -(m * dtau) * a[m]
    return c


def row_loop(coef, grid):
    """The retired kernel, as a reference: per outcome, one m-loop of vector passes.
    Returns the polynomial rows stacked over their derivative rows."""
    span = grid.upper - grid.lower
    tau = 2.0 * np.pi * (np.linspace(grid.lower, grid.upper, grid.points) - grid.lower) / span
    dtau = 2.0 * np.pi / span
    polys, dpolys = [], []
    for a, b in coef:
        poly = np.full(grid.points, a[0])
        dpoly = np.zeros(grid.points)
        for m in range(1, len(a)):
            poly += a[m] * np.cos(m * tau) + b[m] * np.sin(m * tau)
            dpoly += m * dtau * (-a[m] * np.sin(m * tau) + b[m] * np.cos(m * tau))
        polys.append(poly)
        dpolys.append(dpoly)
    return np.vstack(polys + dpolys)


def longdouble_product(coef, dtau, basis):
    """(C B, |C| |B|) in np.longdouble, C formed from the float64 draw and dtau."""
    ld = np.longdouble
    n_outcomes, _, width = coef.shape
    a, b = coef[:, 0].astype(ld), coef[:, 1].astype(ld)
    m_dtau = np.arange(1, width).astype(ld) * ld(dtau)
    c = np.zeros((2 * n_outcomes, 2 * width - 1), dtype=ld)
    c[:n_outcomes, 0] = a[:, 0]
    c[:n_outcomes, 1::2], c[:n_outcomes, 2::2] = a[:, 1:], b[:, 1:]
    c[n_outcomes:, 1::2], c[n_outcomes:, 2::2] = m_dtau * b[:, 1:], -m_dtau * a[:, 1:]
    big = basis.astype(ld)
    return c @ big, np.abs(c) @ np.abs(big)


def per_outcome_trig_rows(rng, grid, n_outcomes, degree, floor):
    """Reference: one coefficient pair draw per outcome, set entry by entry into
    the coefficient matrix, whose product with the basis gives every row."""
    dtau = 2.0 * np.pi / (grid.upper - grid.lower)
    coef = np.array([(rng.normal(size=degree + 1), rng.normal(size=degree + 1))
                     for _ in range(n_outcomes)])
    rows = coefficient_matrix(coef, dtau) @ _trig_basis(grid, degree)
    poly, dpoly = rows[:n_outcomes], rows[n_outcomes:]
    return poly * poly + floor, poly * 2.0 * dpoly


class TestTrigRows:
    GRID = ParameterGrid(-0.5, 2.0, 401)

    @pytest.mark.parametrize("degree", range(1, 6))
    @pytest.mark.parametrize("n_outcomes", range(2, 9))
    def test_bitwise_equal_to_per_outcome_loop(self, n_outcomes, degree):
        for seed in range(20):
            have_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            w, dw = _trig_rows(have_rng, self.GRID, n_outcomes, degree, 0.05)
            want_w, want_dw = per_outcome_trig_rows(want_rng, self.GRID, n_outcomes, degree, 0.05)
            assert w.tobytes() == want_w.tobytes()
            assert dw.tobytes() == want_dw.tobytes()
            # the generator is left where the per-outcome draws leave it
            assert have_rng.random() == want_rng.random()

    @pytest.mark.parametrize("degree", range(1, 6))
    @pytest.mark.parametrize("n_outcomes", range(2, 9))
    def test_within_4_eps_of_a_longdouble_product(self, n_outcomes, degree):
        # both the product of test_bitwise_equal_to_per_outcome_loop and the retired
        # row loop are within 4 eps of the sum of |terms| of the exact contraction
        grid = self.GRID
        dtau = 2.0 * np.pi / (grid.upper - grid.lower)
        basis = _trig_basis(grid, degree)
        for seed in range(20):
            coef = np.random.default_rng(seed).normal(size=(n_outcomes, 2, degree + 1))
            exact, magnitude = longdouble_product(coef, dtau, basis)
            bound = 4.0 * EPS * magnitude
            for rows in (coefficient_matrix(coef, dtau) @ basis, row_loop(coef, grid)):
                assert np.all(np.abs(rows - exact) <= bound)

    def test_basis_is_cached_read_only_per_grid_and_degree(self):
        grid = ParameterGrid(-0.5, 2.0, 401)
        basis = _trig_basis(grid, 3)
        assert _trig_basis(ParameterGrid(-0.5, 2.0, 401), 3) is basis
        assert basis.shape == (7, 401) and _trig_basis(grid, 4).shape == (9, 401)
        assert basis.flags.owndata and not basis.flags.writeable
        tau = 2.0 * np.pi * (grid.values - grid.lower) / (grid.upper - grid.lower)
        assert np.all(basis[0] == 1.0)
        for m in range(1, 4):
            assert basis[2 * m - 1].tobytes() == np.cos(m * tau).tobytes()
            assert basis[2 * m].tobytes() == np.sin(m * tau).tobytes()

    def test_normalised_in_the_out_of_place_order(self):
        grid = ParameterGrid(0.0, 1.0, 401)
        for seed in range(10):
            joint = random_joint_model(np.random.default_rng(seed), grid)
            rng = np.random.default_rng(seed)
            w, dw = _trig_rows(rng, grid, int(rng.integers(2, 9)), 3, 0.05)
            total, dtotal = w.sum(axis=0), dw.sum(axis=0)
            assert joint.conditional.probs.tobytes() == (w / total).tobytes()
            assert joint.conditional.dprobs.tobytes() == \
                ((dw * total - w * dtotal) / total ** 2).tobytes()

    def test_fresh_tables_are_kept_not_copied(self, monkeypatch):
        import infobounds.stat_model as stat_model
        kept = {}
        original = stat_model._frozen

        def recording(label, array, *args, **kwargs):
            out = original(label, array, *args, **kwargs)
            kept.setdefault(label, []).append(out[0] is array)
            return out

        monkeypatch.setattr(stat_model, "_frozen", recording)
        grid = ParameterGrid(0.0, 1.0, 401)
        rng = np.random.default_rng(0)
        kinds = set()
        for _ in range(12):
            kinds.add(random_joint_model(rng, grid).prior.kind)
        assert kinds == {"gaussian", "tabulated"}   # both prior builders were used
        for label in ("probs", "dprobs", "density", "derivative"):
            assert kept[label] == [True] * 12, label
        stat_model.PriorDensity.rectangle(grid)
        assert kept["density"][-1] and kept["derivative"][-1]

    def test_same_models_from_a_seed(self):
        grid = ParameterGrid(0.0, 1.0, 201)
        a = random_joint_model(np.random.default_rng(3), grid)
        b = random_joint_model(np.random.default_rng(3), grid)
        assert np.array_equal(a.conditional.probs, b.conditional.probs)
        assert np.array_equal(a.prior.density, b.prior.density)
