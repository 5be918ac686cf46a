import numpy as np
import pytest

from infobounds.numerics import ParameterGrid
from infobounds.random_models import _trig_basis, _trig_rows, random_joint_model


def per_outcome_trig_rows(rng, grid, n_outcomes, degree, floor):
    """Reference: one coefficient pair draw and one m-loop per outcome."""
    span = grid.upper - grid.lower
    tau = 2.0 * np.pi * (np.linspace(grid.lower, grid.upper, grid.points) - grid.lower) / span
    dtau = 2.0 * np.pi / span
    w = np.empty((n_outcomes, grid.points))
    dw = np.empty_like(w)
    for x in range(n_outcomes):
        coef_a = rng.normal(size=degree + 1)
        coef_b = rng.normal(size=degree + 1)
        poly = np.full(grid.points, coef_a[0])
        dpoly = np.zeros(grid.points)
        for m in range(1, degree + 1):
            poly += coef_a[m] * np.cos(m * tau) + coef_b[m] * np.sin(m * tau)
            dpoly += m * dtau * (-coef_a[m] * np.sin(m * tau) + coef_b[m] * np.cos(m * tau))
        w[x] = poly ** 2 + floor
        dw[x] = 2.0 * poly * dpoly
    return w, dw


class TestTrigRows:
    @pytest.mark.parametrize("degree", range(1, 6))
    @pytest.mark.parametrize("n_outcomes", range(2, 9))
    def test_bitwise_equal_to_per_outcome_loop(self, n_outcomes, degree):
        grid = ParameterGrid(-0.5, 2.0, 401)
        for seed in range(20):
            have_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            w, dw = _trig_rows(have_rng, grid, n_outcomes, degree, 0.05)
            want_w, want_dw = per_outcome_trig_rows(want_rng, grid, n_outcomes, degree, 0.05)
            assert np.array_equal(w, want_w)
            assert np.array_equal(dw, want_dw)
            # the generator is left where the per-outcome draws leave it
            assert have_rng.random() == want_rng.random()

    def test_basis_is_cached_read_only_per_grid_and_degree(self):
        basis = _trig_basis(ParameterGrid(-0.5, 2.0, 401), 3)
        assert _trig_basis(ParameterGrid(-0.5, 2.0, 401), 3) is basis
        assert len(basis) == 3 and len(_trig_basis(ParameterGrid(-0.5, 2.0, 401), 4)) == 4
        assert not any(row.flags.writeable for pair in basis for row in pair)

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
