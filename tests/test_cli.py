import csv
import json
import math

import numpy as np
import pytest

import infobounds.stat_model as stat_model
from infobounds.cli import DEFAULT_SEED, _verify_one, build_builtin, load_model_file, main
from infobounds.numerics import ParameterGrid
from infobounds.random_models import random_joint_model

PI = math.pi


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def run(argv):
    return main(argv)


@pytest.fixture
def fisher_calls(monkeypatch):
    """Records every fisher_information call made through the package."""
    calls = []
    original = stat_model.fisher_information
    monkeypatch.setattr(stat_model, "fisher_information",
                        lambda model: calls.append(model) or original(model))
    return calls


class TestBuiltinModels:
    def test_cos2(self):
        joint = build_builtin("cos2", grid_points=201)
        assert joint.grid.points == 201
        assert joint.prior.kind == "rectangle"

    def test_parameterized_builtin(self):
        joint = build_builtin("dephasing-qubit:eta=0.5", grid_points=201)
        assert joint.conditional.n_outcomes == 2

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            build_builtin("sidechannel")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            build_builtin("noon:gamma=2")

    def test_malformed_parameter(self):
        with pytest.raises(ValueError, match="key=value"):
            build_builtin("noon:n")


class TestBoundsCommand:
    def test_cos2_table(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--model", "cos2", "--out", str(out)]) == 0
        rows = {r["name"]: r for r in read_csv(str(out))}
        assert float(rows["mi-bound-finite-support"]["value"]) == pytest.approx(
            math.log(1.0 + PI / 2.0), abs=1e-3)
        assert float(rows["oracle-mi"]["value"]) == pytest.approx(1.0 - math.log(2.0), abs=1e-6)
        # inapplicable bounds appear flagged, never omitted
        assert rows["efroimovich-mi-bound"]["flags"] == "prior-information-divergent"
        assert rows["efroimovich-mi-bound"]["value"] == ""
        assert rows["van-trees"]["flags"] == "prior-information-divergent"
        assert "mse-rectangle-closed-form" in rows

    def test_gaussian_model_ratio_column(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--model", "cos2-gaussian", "--out", str(out)]) == 0
        rows = {r["name"]: r for r in read_csv(str(out))}
        assert float(rows["gaussian-prior-mse-simplified"]["vt_ratio"]) == pytest.approx(
            PI * math.e / 2.0, abs=1e-9)
        assert "gaussian-prior-mse-exact" in rows

    def test_units_bits(self, tmp_path):
        out_nats = tmp_path / "nats.csv"
        out_bits = tmp_path / "bits.csv"
        run(["bounds", "--model", "cos2", "--out", str(out_nats)])
        run(["bounds", "--model", "cos2", "--units", "bits", "--out", str(out_bits)])
        nats = {r["name"]: r for r in read_csv(str(out_nats))}
        bits = {r["name"]: r for r in read_csv(str(out_bits))}
        ratio = float(nats["oracle-mi"]["value"]) / float(bits["oracle-mi"]["value"])
        assert ratio == pytest.approx(math.log(2.0), rel=1e-12)
        assert bits["oracle-mi"]["units"] == "bits"
        # squared-units rows are untouched by the display conversion
        assert bits["oracle-bayes-mse"]["value"] == nats["oracle-bayes-mse"]["value"]

    def test_aliased_winding_reported(self, capsys):
        assert run(["bounds", "--model", "noon:n=100000", "--grid-points", "101"]) == 1
        err = capsys.readouterr().err
        assert "phase winding 100000 is aliased" in err
        assert "diverges" not in err

    def test_stdout_table(self, capsys):
        assert run(["bounds", "--model", "cos2", "--grid-points", "401"]) == 0
        captured = capsys.readouterr().out
        assert "mi-bound-finite-support" in captured
        assert "oracle-mi" in captured


class TestFisherOnce:
    @pytest.mark.parametrize("model", ["cos2", "cos2-gaussian"])
    def test_bounds_command(self, model, fisher_calls, capsys):
        assert run(["bounds", "--model", model, "--grid-points", "401"]) == 0
        assert len(fisher_calls) == 1

    def test_verify_one(self, fisher_calls):
        rng = np.random.default_rng(7)
        grid = ParameterGrid(0.0, 1.0, 401)
        for count in range(1, 4):
            _verify_one(random_joint_model(rng, grid))
            assert len(fisher_calls) == count


class TestModelFiles:
    def schema(self, **overrides):
        cfg = {
            "grid": {"lower": 0.0, "upper": PI, "points": 401},
            "prior": {"kind": "rectangle"},
            "conditional": {"builtin": "cos2"},
        }
        cfg.update(overrides)
        return cfg

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.schema()))
        joint = load_model_file(str(path))
        assert joint.grid.points == 401

    def test_gaussian_prior_file(self, tmp_path):
        cfg = self.schema(grid={"lower": -3.0, "upper": 3.0 + PI, "points": 801},
                          prior={"kind": "gaussian", "mean": PI / 2, "sigma": 0.4})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        assert load_model_file(str(path)).prior.kind == "gaussian"

    def test_tabulated_conditional(self, tmp_path):
        k, points = 2, 101
        matrix = [[0.3] * points, [0.7] * points]
        cfg = self.schema(grid={"lower": 0.0, "upper": 1.0, "points": points},
                          conditional={"matrix": matrix})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        joint = load_model_file(str(path))
        assert joint.conditional.n_outcomes == k
        assert joint.conditional.derivative_source == "finite-difference"

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "grid": {,}\n}\n')
        assert run(["bounds", "--model", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_key_reported(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"grid": {"lower": 0.0, "upper": 1.0, "points": 11}}))
        assert run(["bounds", "--model", str(path)]) == 1
        assert "prior" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["grid", "prior", "conditional"])
    def test_non_object_section_reported(self, tmp_path, capsys, key):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.schema(**{key: [1, 2]})))
        assert run(["bounds", "--model", str(path)]) == 1
        assert f"'{key}' must be a JSON object, got list" in capsys.readouterr().err

    def test_non_object_model_reported(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(["grid", "prior", "conditional"]))
        assert run(["bounds", "--model", str(path)]) == 1
        assert "the model must be a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [401.9, 401.0, "401", True])
    def test_non_integer_points_rejected(self, tmp_path, capsys, points):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.schema(grid={"lower": 0.0, "upper": PI,
                                                     "points": points})))
        assert run(["bounds", "--model", str(path)]) == 1
        assert (f"{path}: grid 'points' must be an integer, got {points!r}"
                in capsys.readouterr().err)

    def test_missing_file(self, capsys):
        assert run(["bounds", "--model", "nosuch.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_regrid_rejected_for_tabulated(self, tmp_path, capsys):
        matrix = [[0.5] * 101, [0.5] * 101]
        cfg = self.schema(grid={"lower": 0.0, "upper": 1.0, "points": 101},
                          conditional={"matrix": matrix})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        assert run(["bounds", "--model", str(path), "--grid-points", "201"]) == 1
        assert "re-gridded" in capsys.readouterr().err


class TestMiCommand:
    def test_outputs_oracle_quantities(self, tmp_path):
        out = tmp_path / "mi.csv"
        assert run(["mi", "--model", "cos2", "--grid-points", "2001",
                    "--out", str(out)]) == 0
        rows = {r["name"]: r for r in read_csv(str(out))}
        assert float(rows["mi"]["value"]) == pytest.approx(1.0 - math.log(2.0), abs=1e-6)
        assert float(rows["h-prior"]["value"]) == pytest.approx(math.log(PI), abs=1e-9)
        assert rows["estimator"]["value"] == "posterior-mean"


class TestVerifyCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = run(["verify", "--count", "3", "--seed", str(DEFAULT_SEED),
                    "--grid-points", "501", "--out", str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        rows = read_csv(str(out))
        assert {r["bound"] for r in rows} >= {"mi-bound-finite-support",
                                              "mi-bound-general-prior", "van-trees"}

    def test_default_200_models_pass(self, capsys):
        # the documented default workload: 200 seeded models, every bound
        # dominating its oracle (coarser grid keeps this test quick)
        assert run(["verify", "--count", "200", "--grid-points", "501"]) == 0
        out = capsys.readouterr().out
        assert "checked 200 models: PASS" in out

    def test_count_zero_is_an_error(self, capsys):
        assert run(["verify", "--count", "0"]) == 1
        assert "--count" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["verify", "--count", "3", "--seed", "5", "--grid-points", "501",
             "--out", str(a)])
        run(["verify", "--count", "3", "--seed", "5", "--grid-points", "501",
             "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["verify", "--count", "3", "--seed", "5", "--grid-points", "501",
             "--out", str(a)])
        run(["verify", "--count", "3", "--seed", "6", "--grid-points", "501",
             "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestMetrologyCommand:
    def test_single_point_value(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["metrology", "--eta", "0.9", "--n-max", "100", "--n-count", "13",
                    "--out", str(out)]) == 0
        rows = read_csv(str(out))
        target = next(r for r in rows if r["N"] == "100")
        assert float(target["mi_cap_nats"]) == pytest.approx(
            math.log(1.0 + PI * math.sqrt(900.0 / 1.09)), abs=1e-9)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["metrology", "--eta", "0.5,0.9", "--n-max", "10000", "--n-count", "41"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_near_noiseless_tracks_heisenberg_curve(self, tmp_path):
        out = tmp_path / "sweep.csv"
        eta = 1.0 - 1e-9
        run(["metrology", "--eta", repr(eta), "--n-max", "1000000", "--n-count", "25",
             "--out", str(out)])
        for row in read_csv(str(out)):
            n = int(row["N"])
            assert float(row["mi_cap_nats"]) == pytest.approx(math.log1p(PI * n), abs=1e-3)

    def test_header_matches_interface(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run(["metrology", "--eta", "0.5", "--n-max", "10", "--n-count", "5",
             "--out", str(out)])
        header = out.read_text().splitlines()[0]
        assert header == "eta,N,mi_cap_nats,hs_ref,sql_ref,slope"

    def test_empty_eta_rejected(self, capsys):
        assert run(["metrology", "--eta", ""]) == 1
        assert "eta" in capsys.readouterr().err
