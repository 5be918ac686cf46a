"""Command-line front end: bound tables, verification sweeps, metrology CSVs.

Subcommands
-----------
bounds     evaluate every applicable bound (and the oracle) for one model
mi         brute-force oracle quantities for one model
verify     seeded random models, every bound checked against its oracle
metrology  noisy-phase MI-cap sweep over (eta, N), CSV output

Models are either builtin names (``cos2``, ``cos2-gaussian``, ``noon``,
``dephasing-qubit``, ``ampdamp-qubit``, ``erasure-qutrit``, optionally with
``name:key=value,...`` parameters) or JSON files described in the README.
All computation is in nats; ``--units bits`` rescales displayed nats values
by 1/ln 2.  Default seed: 42.  Identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import bounds as bnd
from .mi_oracle import mutual_information
from .numerics import NumericError, ParameterGrid
from .quantum_metrology import (CHANNEL_KINDS, channel_outcome_model, noon_outcome_model,
                                transition_sweep)
from .random_models import random_joint_model
from .stat_model import ConditionalModel, JointModel, PriorDensity, cos2_model

DEFAULT_SEED = 42
DEFAULT_GRID_POINTS = 2001

MI_MARGIN_TOL = -1e-3   # dominance slack for MI bounds, in nats
MSE_MARGIN_TOL = -1e-9  # slack for MSE lower bounds


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _parse_model_name(spec: str):
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, raw = item.partition("=")
            if not key or not raw:
                raise ValueError(f"malformed model parameter {item!r} (expected key=value)")
            try:
                params[key] = int(raw)
            except ValueError:
                params[key] = float(raw)
    return name, params


def _is_number(value) -> bool:
    """True for a JSON number; bools and strings are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _all_numbers(value) -> bool:
    """True for a JSON number or a (nested) list holding only numbers."""
    if isinstance(value, list):
        return all(_all_numbers(item) for item in value)
    return _is_number(value)


# the conditional of each builtin model that is not itself a conditional name
_BUILTIN_CONDITIONALS = {"cos2-gaussian": "cos2", "dephasing-qubit": "dephasing",
                         "ampdamp-qubit": "amplitude-damping", "erasure-qutrit": "erasure"}


def build_builtin(spec: str, grid_points: int | None = None) -> JointModel:
    """Instantiate a builtin model, e.g. ``cos2`` or ``dephasing-qubit:eta=0.8``."""
    name, params = _parse_model_name(spec)
    points = DEFAULT_GRID_POINTS if grid_points is None else grid_points
    if name == "cos2":
        grid = ParameterGrid(0.0, math.pi, points)
        prior = PriorDensity.rectangle(grid)
    elif name == "cos2-gaussian":
        mean = float(params.pop("mean", math.pi / 2.0))
        sigma = float(params.pop("sigma", 0.4))
        grid = ParameterGrid(mean - 8.0 * sigma, mean + 8.0 * sigma, points)
        prior = PriorDensity.gaussian(grid, mean, sigma)
    elif name == "noon" or name in _BUILTIN_CONDITIONALS:
        grid = ParameterGrid(0.0, 2.0 * math.pi, points)
        prior = PriorDensity.rectangle(grid)
    else:
        raise ValueError(
            f"unknown builtin model {name!r}; available: cos2, cos2-gaussian, noon, "
            "dephasing-qubit, ampdamp-qubit, erasure-qutrit")
    return JointModel(prior, _builtin_conditional(_BUILTIN_CONDITIONALS.get(name, name),
                                                  params, grid))


def _builtin_conditional(name: str, params: dict, grid: ParameterGrid) -> ConditionalModel:
    """The builtin conditional ``cos2``, ``noon`` or a channel kind on ``grid``.

    ``params`` may hold only the key that conditional reads: ``n`` for
    ``noon`` (an integer, default 4) or ``eta`` for a channel (a real
    number, default 0.9).  Any other key or a mistyped value is an error.
    """
    if name not in ("cos2", "noon", *CHANNEL_KINDS):
        raise ValueError(f"unknown builtin conditional {name!r}")
    reads = {"cos2": set(), "noon": {"n"}}.get(name, {"eta"})
    unknown = sorted(set(params) - reads)
    if unknown:
        raise ValueError(f"unknown parameters for builtin {name!r}: {unknown}")
    if name == "cos2":
        return cos2_model(grid)
    if name == "noon":
        n = params.get("n", 4)
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"builtin 'noon' needs an integer n, got {n!r}")
        return noon_outcome_model(n, grid=grid)
    eta = params.get("eta", 0.9)
    if not _is_number(eta):
        raise ValueError(f"builtin {name!r} needs a real number eta, got {eta!r}")
    return channel_outcome_model(name, float(eta), grid)


def load_model_file(path: str, grid_points: int | None = None) -> JointModel:
    """Load a JSON model definition; see README for the schema."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            cfg = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc

    def need(mapping, key, where):
        if key not in mapping:
            raise ValueError(f"{path}: missing {key!r} in {where}")
        return mapping[key]

    def number(mapping, key, where):
        value = need(mapping, key, where)
        if not _is_number(value):
            raise ValueError(f"{path}: {where} {key!r} must be a JSON number, got {value!r}")
        return float(value)

    def numbers(mapping, key, where):
        value = need(mapping, key, where)
        if not _all_numbers(value):
            raise ValueError(f"{path}: {where} {key!r} must hold only JSON numbers")
        try:
            return np.asarray(value, dtype=float)
        except ValueError:  # the only one left: rows of different lengths
            raise ValueError(f"{path}: {where} {key!r} is ragged: rows differ in length") from None

    def section(key):
        value = need(cfg, key, "model")
        if not isinstance(value, dict):
            raise ValueError(f"{path}: {key!r} must be a JSON object, got {type(value).__name__}")
        return value

    def only(mapping, keys, where):
        unknown = sorted(set(mapping) - set(keys))
        if unknown:
            raise ValueError(f"{path}: unknown keys in {where}: {unknown}")

    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: the model must be a JSON object, got {type(cfg).__name__}")
    gspec = section("grid")
    only(gspec, ("lower", "upper", "points"), "grid")
    # the file's own count is checked even when ``grid_points`` overrides it
    points = need(gspec, "points", "grid")
    if not isinstance(points, int) or isinstance(points, bool):
        raise ValueError(f"{path}: grid 'points' must be an integer, got {points!r}")
    grid = ParameterGrid(number(gspec, "lower", "grid"), number(gspec, "upper", "grid"),
                         points if grid_points is None else grid_points)

    pspec = section("prior")
    kind = need(pspec, "kind", "prior")
    prior_keys = {"rectangle": (), "gaussian": ("mean", "sigma"),
                  "tabulated": ("density", "smooth")}
    if not isinstance(kind, str) or kind not in prior_keys:
        raise ValueError(f"{path}: unknown prior kind {kind!r}")
    only(pspec, ("kind", *prior_keys[kind]), f"{kind} prior")
    if kind == "rectangle":
        prior = PriorDensity.rectangle(grid)
    elif kind == "gaussian":
        prior = PriorDensity.gaussian(grid, number(pspec, "mean", "prior"),
                                      number(pspec, "sigma", "prior"))
    else:
        density = numbers(pspec, "density", "prior")
        if grid_points is not None and density.size != grid.points:
            raise ValueError(f"{path}: tabulated priors cannot be re-gridded")
        smooth = pspec.get("smooth", True)
        if not isinstance(smooth, bool):
            raise ValueError(f"{path}: prior 'smooth' must be a JSON bool, got {smooth!r}")
        prior = PriorDensity.tabulated(grid, density, smooth=smooth)

    cspec = section("conditional")
    if "builtin" in cspec:
        params = {key: value for key, value in cspec.items() if key != "builtin"}
        try:
            cond = _builtin_conditional(cspec["builtin"], params, grid)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    elif "matrix" in cspec:
        only(cspec, ("matrix",), "matrix conditional")
        matrix = numbers(cspec, "matrix", "conditional")
        if grid_points is not None and matrix.shape[-1] != grid.points:
            raise ValueError(f"{path}: tabulated conditionals cannot be re-gridded")
        cond = ConditionalModel.from_probs(grid, matrix)
    else:
        raise ValueError(f"{path}: conditional needs either 'builtin' or 'matrix'")
    return JointModel(prior, cond)


def load_model(spec: str, grid_points: int | None = None) -> JointModel:
    if spec.endswith(".json"):
        return load_model_file(spec, grid_points)
    return build_builtin(spec, grid_points)


def _convert_units(rows: list[dict], units: str) -> list[dict]:
    if units == "nats":
        return rows
    out = []
    for row in rows:
        row = dict(row)
        if row.get("units") == "nats" and isinstance(row.get("value"), float):
            row["value"] = row["value"] / math.log(2.0)
            row["units"] = "bits"
        out.append(row)
    return out


def _emit(rows: list[dict], fieldnames: list[str], out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(fieldnames)
            for row in rows:
                writer.writerow([_fmt(row.get(k)) for k in fieldnames])
        return
    widths = {k: max(len(k), *(len(_fmt(r.get(k))) for r in rows)) for k in fieldnames}
    print("  ".join(k.ljust(widths[k]) for k in fieldnames))
    for row in rows:
        print("  ".join(_fmt(row.get(k)).ljust(widths[k]) for k in fieldnames))


def _report_row(report: bnd.BoundReport) -> dict:
    return {
        "name": report.name,
        "value": report.value,
        "units": report.units,
        "direction": report.direction,
        "flags": ";".join(report.flags),
    }


def _bounds_rows(joint: JointModel) -> list[dict]:
    oracle = mutual_information(joint)
    reports = bnd.all_bounds(joint)
    rows = [_report_row(r) for r in reports if r.direction == bnd.UPPER_MI]
    rows.append({"name": "oracle-mi", "value": oracle.mi, "units": "nats", "direction": "oracle"})
    rows += [_report_row(r) for r in reports if r.direction == bnd.LOWER_MSE]
    rows.append({"name": "entropy-mse-floor", "value": bnd.entropy_mse_floor(oracle.h_posterior),
                 "units": bnd.SQUARED_UNITS, "direction": bnd.LOWER_MSE})
    rows.append({"name": "oracle-bayes-mse", "value": oracle.bayes_mse,
                 "units": bnd.SQUARED_UNITS, "direction": "oracle"})

    vt = next(r["value"] for r in rows if r["name"] == "van-trees")
    for row in rows:
        if vt is not None and row["units"] == bnd.SQUARED_UNITS and (row["value"] or 0.0) > 0:
            row["vt_ratio"] = vt / row["value"]
    return rows


def cmd_bounds(args) -> int:
    joint = load_model(args.model, args.grid_points)
    rows = _convert_units(_bounds_rows(joint), args.units)
    _emit(rows, ["name", "value", "units", "direction", "flags", "vt_ratio"], args.out)
    return 0


def cmd_mi(args) -> int:
    joint = load_model(args.model, args.grid_points)
    oracle = mutual_information(joint)
    rows = [
        {"name": "mi", "value": oracle.mi, "units": "nats"},
        {"name": "h-prior", "value": oracle.h_prior, "units": "nats"},
        {"name": "h-posterior", "value": oracle.h_posterior, "units": "nats"},
        {"name": "bayes-mse", "value": oracle.bayes_mse, "units": bnd.SQUARED_UNITS},
        {"name": "estimator", "value": oracle.estimator, "units": ""},
    ]
    rows = _convert_units(rows, args.units)
    _emit(rows, ["name", "value", "units"], args.out)
    return 0


def _verify_one(joint: JointModel) -> list[dict]:
    oracle = mutual_information(joint)
    rows = []
    for report in bnd.all_bounds(joint):
        row = {"bound": report.name, "direction": report.direction, "value": report.value,
               "oracle": None, "margin": None, "flags": ";".join(report.flags)}
        if report.value is not None:
            row["oracle"] = oracle.mi if report.direction == bnd.UPPER_MI else oracle.bayes_mse
            row["margin"] = bnd.oracle_margin(report, row["oracle"])
        rows.append(row)
    return rows


def cmd_verify(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    rng = np.random.default_rng(args.seed)
    points = DEFAULT_GRID_POINTS if args.grid_points is None else args.grid_points
    grid = ParameterGrid(0.0, 1.0, points)
    rows = []
    worst: dict[str, float] = {}
    failures = 0
    for index in range(args.count):
        joint = random_joint_model(rng, grid)
        for row in _verify_one(joint):
            row = {"model": index, **row}
            rows.append(row)
            if row["margin"] is None:
                continue
            name = row["bound"]
            worst[name] = min(worst.get(name, math.inf), row["margin"])
            tol = MI_MARGIN_TOL if row["direction"] == bnd.UPPER_MI else MSE_MARGIN_TOL
            if row["margin"] < tol:
                failures += 1
                print(f"VIOLATION model={index} bound={name} margin={row['margin']:.3e}",
                      file=sys.stderr)
                print(f"  reproduce with seed={args.seed} (model index {index})",
                      file=sys.stderr)
    if args.out:
        _emit(rows, ["model", "bound", "value", "oracle", "margin", "flags"], args.out)
    for name in sorted(worst):
        print(f"worst margin {name}: {worst[name]:.6e}")
    print(f"checked {args.count} models: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


def cmd_metrology(args) -> int:
    etas = [float(e) for e in args.eta.split(",") if e]
    if not etas:
        raise ValueError("--eta needs at least one value")
    # the sorted distinct values, as np.unique gives them (which would import numpy.ma)
    n_values = np.array(sorted(set(np.logspace(0.0, math.log10(args.n_max),
                                               args.n_count).astype(np.int64).tolist())),
                        dtype=np.int64)
    rows = []
    for eta in etas:
        rows.extend(transition_sweep(eta, n_values, regime=args.regime))
    _emit(rows, ["eta", "N", "mi_cap_nats", "hs_ref", "sql_ref", "slope"], args.out)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infobounds",
        description="Fisher-information bounds on mutual information, with oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    grid_points = {"type": int, "default": None, "metavar": "ODD_INT",
                   "help": "override the grid resolution (odd)"}
    out = {"default": None, "help": "write CSV here instead of stdout"}

    for name, func, text in (("bounds", cmd_bounds, "evaluate every applicable bound for a model"),
                             ("mi", cmd_mi, "brute-force oracle quantities for a model")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--model", required=True,
                       help="builtin name (optionally name:key=value,...) or JSON file path")
        p.add_argument("--grid-points", **grid_points)
        p.add_argument("--units", choices=("nats", "bits"), default="nats")
        p.add_argument("--out", **out)
        p.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="random models, bounds checked against oracles")
    p_verify.add_argument("--grid-points", **grid_points)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--out", **out)
    p_verify.add_argument("--count", type=int, default=200)
    p_verify.set_defaults(func=cmd_verify)

    p_met = sub.add_parser("metrology", help="noisy-phase MI cap sweep, CSV output")
    p_met.add_argument("--out", **out)
    p_met.add_argument("--eta", default="0.5,0.9,0.99", help="comma-separated noise parameters")
    p_met.add_argument("--n-max", type=int, default=1_000_000)
    p_met.add_argument("--n-count", type=int, default=121)
    p_met.add_argument("--regime", choices=("finite-N", "asymptotic"), default="finite-N")
    p_met.set_defaults(func=cmd_metrology)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process (parsing leaves it unchanged)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
