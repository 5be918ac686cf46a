import csv
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infobounds
import infobounds.stat_model as stat_model
from infobounds.cli import DEFAULT_SEED, _verify_one, build_builtin, load_model_file, main
from infobounds.numerics import ParameterGrid, integrate
from infobounds.random_models import random_joint_model
from infobounds.stat_model import PriorDensity

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


@pytest.fixture
def prior_calls(monkeypatch):
    """Records every computation of a prior's entropy and information."""
    calls = {"entropy": [], "information": []}
    for name, seen in calls.items():
        original = getattr(stat_model.PriorDensity, name).func
        counted = functools.cached_property(
            lambda prior, original=original, seen=seen: seen.append(prior) or original(prior))
        counted.__set_name__(stat_model.PriorDensity, name)
        monkeypatch.setattr(stat_model.PriorDensity, name, counted)
    return calls


STARTUP_SCRIPT = """
import contextlib, io, json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
import infobounds, infobounds.cli
runs = {}
for argv in (["bounds", "--model", "cos2"], ["bounds", "--model", "cos2-gaussian"],
             ["mi", "--model", "noon:n=16"], ["metrology"], ["verify", "--count", "5"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = infobounds.cli.main(argv)
    runs[" ".join(argv)] = {"code": code, "stdout": out.getvalue()}
print(json.dumps(runs))
"""


GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_COMMANDS = {
    "bounds-cos2": ["bounds", "--model", "cos2"],
    "bounds-cos2-gaussian": ["bounds", "--model", "cos2-gaussian"],
    "bounds-dephasing-qubit": ["bounds", "--model", "dephasing-qubit:eta=0.8"],
    "bounds-erasure-qutrit": ["bounds", "--model", "erasure-qutrit"],
    "mi-noon16": ["mi", "--model", "noon:n=16"],
    "metrology": ["metrology"],
    "verify50": ["verify", "--count", "50"],
}


class TestGoldenOutput:
    """A behaviour-preserving change keeps the stdout of these commands byte-identical."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_stdout_matches_golden(self, name, capsys):
        assert run(GOLDEN_COMMANDS[name]) == 0
        want = (GOLDEN_DIR / f"{name}.txt").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == want

    def test_verify_csv_matches_golden(self, tmp_path, capsys):
        # every bound value and margin of the 50 models, not only the worst margins
        out = tmp_path / "verify50.csv"
        assert run(["verify", "--count", "50", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "verify50.csv").read_bytes()


class TestStartup:
    def test_no_command_needs_scipy(self):
        src = str(Path(infobounds.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout)
        assert len(runs) == 5
        assert {command: run["code"] for command, run in runs.items()} == dict.fromkeys(runs, 0)
        table = runs["bounds --model cos2-gaussian"]["stdout"]
        assert "gaussian-prior-mse-exact" in table
        assert "gaussian-prior-mse-simplified" in table


NO_MASKED_ARRAYS_SCRIPT = """
import contextlib, io, json, sys
import infobounds.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert infobounds.cli.main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""


class TestNoMaskedArrays:
    def test_golden_commands_leave_numpy_ma_unimported(self):
        # importing numpy.ma takes some 15 ms of a CLI call; np.median and np.unique load it
        src = str(Path(infobounds.__file__).resolve().parents[1])
        argvs = json.dumps([GOLDEN_COMMANDS[name] for name in sorted(GOLDEN_COMMANDS)])
        proc = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS_SCRIPT, argvs],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestPriorQuantitiesOnce:
    @pytest.mark.parametrize("model", ["cos2", "cos2-gaussian"])
    def test_bounds_command(self, model, prior_calls, capsys):
        assert run(["bounds", "--model", model, "--grid-points", "401"]) == 0
        assert [len(seen) for seen in prior_calls.values()] == [1, 1]

    def test_verify_one(self, prior_calls):
        rng = np.random.default_rng(7)
        grid = ParameterGrid(0.0, 1.0, 401)
        for count in range(1, 4):
            _verify_one(random_joint_model(rng, grid))
            assert [len(seen) for seen in prior_calls.values()] == [count, count]


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

    def test_unknown_parameter_on_cos2(self, capsys):
        assert run(["bounds", "--model", "cos2:foo=1", "--grid-points", "101"]) == 1
        assert "unknown parameters for builtin 'cos2': ['foo']" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["noon:n=2.5", "noon:n=2.0"])
    def test_non_integer_n_rejected(self, spec, capsys):
        assert run(["mi", "--model", spec, "--grid-points", "101"]) == 1
        assert "needs an integer n" in capsys.readouterr().err


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

    def test_fisher_divergent_outside_prior_support(self, tmp_path):
        # F diverges at both grid ends, where the cosine-window prior has no mass:
        # only the finite-support MI bound, taken over the whole grid, is lost
        grid = ParameterGrid(0.0, 1.0, 101)
        phi = grid.values.tolist()
        density = PriorDensity.cosine_window(grid, 0.5, 0.5).density.tolist()
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "grid": {"lower": 0.0, "upper": 1.0, "points": 101},
            "prior": {"kind": "tabulated", "density": density},
            "conditional": {"matrix": [[1.0 - x for x in phi], phi]}}))
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--model", str(path), "--out", str(out)]) == 0
        rows = {r["name"]: r for r in read_csv(str(out))}
        flagged = rows.pop("mi-bound-finite-support")
        assert (flagged["value"], flagged["flags"]) == ("", "fisher-information-divergent")
        oracle_mi = float(rows.pop("oracle-mi")["value"])
        oracle_mse = float(rows.pop("oracle-bayes-mse")["value"])
        valued = [r for r in rows.values() if r["value"]]
        assert {r["name"] for r in valued} >= {"mi-bound-general-prior",
                                                "mse-bound-finite-support",
                                                "mse-bound-general-prior"}
        for row in valued:
            if row["direction"] == "upper-bound-on-MI":
                assert float(row["value"]) >= oracle_mi
            else:
                assert float(row["value"]) <= oracle_mse

    def test_flat_tabulated_prior_keeps_its_end_jumps(self, tmp_path):
        # a tabulated flat density jumps at the grid ends like a rectangle: P
        # diverges, and no bound crosses its oracle
        grid = ParameterGrid(0.0, PI, 201)
        p1 = 0.5 + 0.01 * np.cos(grid.values)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "grid": {"lower": 0.0, "upper": PI, "points": 201},
            "prior": {"kind": "tabulated", "density": [1.0 / PI] * 201},
            "conditional": {"matrix": [(1.0 - p1).tolist(), p1.tolist()]}}))
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--model", str(path), "--out", str(out)]) == 0
        rows = {r["name"]: r for r in read_csv(str(out))}
        oracle_mi = float(rows.pop("oracle-mi")["value"])
        oracle_mse = float(rows.pop("oracle-bayes-mse")["value"])
        for name in ("efroimovich-mi-bound", "van-trees"):
            assert (rows[name]["value"], rows[name]["flags"]) == ("", "prior-information-divergent")
        valued = [r for r in rows.values() if r["value"]]
        assert len(valued) == 5
        for row in valued:
            if row["direction"] == "upper-bound-on-MI":
                assert float(row["value"]) >= oracle_mi, row["name"]
            else:
                assert float(row["value"]) <= oracle_mse, row["name"]

    def test_fisher_divergent_next_to_odd_prior_support(self, tmp_path):
        # F diverges at phi = 1/2, the right neighbour of a prior on indices 2..49:
        # the finite-support MSE bound widens its 47 subintervals to the left instead
        grid = ParameterGrid(0.0, 1.0, 101)
        p1 = np.maximum(grid.values - 0.5, 0.0)
        box = np.zeros(grid.points)
        box[2:50] = 1.0
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "grid": {"lower": 0.0, "upper": 1.0, "points": 101},
            "prior": {"kind": "tabulated", "density": (box / integrate(box, grid)).tolist()},
            "conditional": {"matrix": [(1.0 - p1).tolist(), p1.tolist()]}}))
        assert run(["mi", "--model", str(path), "--out", str(tmp_path / "mi.csv")]) == 0
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--model", str(path), "--out", str(out)]) == 0
        rows = {r["name"]: r for r in read_csv(str(out))}
        assert rows["mi-bound-finite-support"]["flags"] == "fisher-information-divergent"
        mse = rows["mse-bound-finite-support"]
        assert mse["flags"] == ""
        assert 0.0 < float(mse["value"]) <= float(rows["oracle-bayes-mse"]["value"])

    def test_rescaled_model_file_keeps_its_flags(self, tmp_path):
        # the same binary model on [0, pi] and on [0, pi 1e7]: P diverges for both
        # rectangles and F is not constant, whatever the units of phi
        rows = {}
        for scale in (1.0, 1e7):
            grid = ParameterGrid(0.0, PI * scale, 201)
            p1 = 0.5 + 0.45 * np.cos(grid.values / scale)
            path = tmp_path / f"model-{scale:g}.json"
            path.write_text(json.dumps({
                "grid": {"lower": 0.0, "upper": PI * scale, "points": 201},
                "prior": {"kind": "rectangle"},
                "conditional": {"matrix": [(1.0 - p1).tolist(), p1.tolist()]}}))
            out = tmp_path / f"bounds-{scale:g}.csv"
            assert run(["bounds", "--model", str(path), "--out", str(out)]) == 0
            rows[scale] = {r["name"]: r for r in read_csv(str(out))}
        assert {n: r["flags"] for n, r in rows[1e7].items()} == {
            n: r["flags"] for n, r in rows[1.0].items()}
        assert "mse-rectangle-closed-form" not in rows[1e7]
        oracle_mi = float(rows[1e7]["oracle-mi"]["value"])
        oracle_mse = float(rows[1e7]["oracle-bayes-mse"]["value"])
        for row in rows[1e7].values():
            if not row["value"] or row["direction"] == "oracle":
                continue
            if row["direction"] == "upper-bound-on-MI":
                assert float(row["value"]) >= oracle_mi, row["name"]
            else:
                assert float(row["value"]) <= oracle_mse, row["name"]

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

    @pytest.mark.parametrize("points", ["junk", 401.9, None])
    def test_file_points_checked_under_override(self, tmp_path, capsys, points):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.schema(grid={"lower": 0.0, "upper": PI,
                                                     "points": points})))
        with pytest.raises(ValueError, match="grid 'points' must be an integer"):
            load_model_file(str(path), grid_points=201)
        assert run(["bounds", "--model", str(path), "--grid-points", "201"]) == 1
        assert (f"{path}: grid 'points' must be an integer, got {points!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("conditional, message", [
        ({"builtin": "noon", "n": 2.7}, "builtin 'noon' needs an integer n, got 2.7"),
        ({"builtin": "noon", "n": True}, "builtin 'noon' needs an integer n, got True"),
        ({"builtin": "dephasing", "eta": "0.5"},
         "builtin 'dephasing' needs a real number eta, got '0.5'"),
        ({"builtin": "erasure", "eta": False},
         "builtin 'erasure' needs a real number eta, got False"),
        ({"builtin": "noon", "eta": 0.5}, "unknown parameters for builtin 'noon': ['eta']"),
        ({"builtin": "cos2", "matrix": [[1.0]]}, "unknown parameters for builtin 'cos2'"),
        ({"matrix": [[1.0] * 401], "eta": 0.5}, "unknown keys in matrix conditional: ['eta']"),
    ])
    def test_builtin_conditional_parameters_checked(self, tmp_path, capsys, conditional,
                                                    message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.schema(conditional=conditional)))
        assert run(["bounds", "--model", str(path)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, message", [
        ("grid", {"lower": 0.0, "upper": PI, "points": 401, "step": 0.1},
         "unknown keys in grid: ['step']"),
        ("prior", {"kind": "rectangle", "mean": 1.0}, "unknown keys in rectangle prior: ['mean']"),
        ("prior", {"kind": "gaussian", "mean": 1.0, "sigma": 0.4, "width": 2.0},
         "unknown keys in gaussian prior: ['width']"),
    ])
    def test_unknown_section_keys_rejected(self, tmp_path, capsys, section, value, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.schema(**{section: value})))
        assert run(["bounds", "--model", str(path)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    WIDE_GRID = {"lower": -3.0, "upper": 3.0 + PI, "points": 801}

    # each file would load, with a converted value, if only its type were wrong
    @pytest.mark.parametrize("overrides, message", [
        ({"grid": {"lower": "0", "upper": PI, "points": 401}},
         "grid 'lower' must be a JSON number, got '0'"),
        ({"grid": {"lower": 0.0, "upper": True, "points": 401}},
         "grid 'upper' must be a JSON number, got True"),
        ({"grid": WIDE_GRID, "prior": {"kind": "gaussian", "mean": "1.57", "sigma": 0.4}},
         "prior 'mean' must be a JSON number, got '1.57'"),
        ({"grid": WIDE_GRID, "prior": {"kind": "gaussian", "mean": 1.57, "sigma": "0.4"}},
         "prior 'sigma' must be a JSON number, got '0.4'"),
        ({"prior": {"kind": "tabulated", "density": [1.0 / PI] * 401, "smooth": "no"}},
         "prior 'smooth' must be a JSON bool, got 'no'"),
        ({"prior": {"kind": "tabulated", "density": [1.0 / PI] * 400 + [str(1.0 / PI)]}},
         "prior 'density' must hold only JSON numbers"),
        ({"conditional": {"matrix": [[True] * 401, [False] * 401]}},
         "conditional 'matrix' must hold only JSON numbers"),
    ], ids=["lower", "upper", "mean", "sigma", "smooth", "density", "matrix"])
    def test_json_types_checked(self, tmp_path, capsys, overrides, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.schema(**overrides)))
        assert run(["bounds", "--model", str(path)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"grid": {"lower": 0.0, "upper": 1.0, "points": 101},
          "conditional": {"matrix": [[0.5] * 101, [0.5] * 100]}},
         "conditional 'matrix' is ragged"),
        ({"grid": {"lower": 0.0, "upper": 1.0, "points": 101},
          "prior": {"kind": "tabulated", "density": [[1.0] * 101, [1.0] * 100]}},
         "prior 'density' is ragged"),
    ], ids=["matrix", "density"])
    def test_ragged_arrays_named(self, tmp_path, capsys, overrides, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.schema(**overrides)))
        assert run(["bounds", "--model", str(path)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    def test_integer_eta_accepted(self, tmp_path):
        path = tmp_path / "model.json"
        cfg = self.schema(grid={"lower": 0.0, "upper": 2.0 * PI, "points": 401},
                          conditional={"builtin": "dephasing", "eta": 1})
        path.write_text(json.dumps(cfg))
        assert load_model_file(str(path)).conditional.n_outcomes == 2

    def test_override_regrids_a_valid_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.schema()))
        assert load_model_file(str(path), grid_points=201).grid.points == 201

    def test_zero_points_override_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.schema()))
        with pytest.raises(ValueError, match="at least 3 points, got 0"):
            load_model_file(str(path), grid_points=0)

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


class TestGridPointsOption:
    @pytest.mark.parametrize("argv", [["bounds", "--model", "cos2"],
                                      ["mi", "--model", "cos2"],
                                      ["verify", "--count", "1"]])
    def test_zero_points_rejected(self, capsys, argv):
        assert run([*argv, "--grid-points", "0"]) == 1
        assert "grid needs at least 3 points, got 0" in capsys.readouterr().err


class TestSubcommandFlags:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--model", "cos2", "--grid-points", "101", "--seed", "1"],
        ["mi", "--model", "cos2", "--grid-points", "101", "--seed", "1"],
        ["metrology", "--n-max", "10", "--n-count", "2", "--seed", "1"],
        ["verify", "--count", "1", "--grid-points", "101", "--units", "bits"],
        ["metrology", "--n-max", "10", "--n-count", "2", "--units", "bits"],
        ["metrology", "--n-max", "10", "--n-count", "2", "--grid-points", "101"],
    ], ids=["bounds-seed", "mi-seed", "metrology-seed", "verify-units", "metrology-units",
            "metrology-grid-points"])
    def test_unread_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


class TestParserReuse:
    def test_one_parser_no_state_between_calls(self, capsys):
        # main parses with one parser per process; options of one call must
        # not carry over into the next
        assert run(["mi", "--model", "cos2"]) == 0
        first = capsys.readouterr().out
        assert run(["mi", "--model", "cos2", "--units", "bits", "--grid-points", "501"]) == 0
        assert capsys.readouterr().out != first
        assert run(["mi", "--model", "cos2"]) == 0
        assert capsys.readouterr().out == first
        assert infobounds.cli._parser() is infobounds.cli._parser()


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

    def test_noiseless_asymptotic_sweep_rejected_without_warnings(self):
        # at eta = 1 the asymptotic cap is inf: the sweep used to print nan slopes with
        # RuntimeWarnings on stderr; under -W error any warning would end the run early
        src = str(Path(infobounds.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "infobounds.cli",
                               "metrology", "--eta", "1.0", "--regime", "asymptotic",
                               "--n-count", "5", "--n-max", "100"],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("error: the noiseless asymptotic regime (eta = 1) has no Fisher "
                               "cap to sweep; use eta < 1 or the finite-N regime\n")

    def test_noiseless_eta_in_a_list_leaves_stdout_empty(self, capsys):
        assert run(["metrology", "--eta", "0.5,1.0", "--regime", "asymptotic",
                    "--n-count", "5", "--n-max", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "noiseless asymptotic regime" in captured.err
