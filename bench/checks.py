"""Output checks behind the benchmark's failure count.

Every function here returns a list of problems; an empty list means the op's
output passed.  Nothing in this file imports the package under test, so the
checks stay independent of the code they judge and can be fed hand-made
violating values (see ``selftest.py``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# The CLI's own verification gates (``MI_MARGIN_TOL`` / ``MSE_MARGIN_TOL`` in
# infobounds.cli), repeated here so a loosened gate in the program cannot
# loosen the benchmark's check.
MI_GATE = -1e-3
MSE_GATE = -1e-9

# Recorded CLI values are compared with this tolerance.  The code at commit
# 8231ae2 printed them with 12 significant digits; the relative slack leaves
# room for refactors that reorder floating-point sums.
REF_RTOL = 1e-6
REF_ATOL = 1e-12

UPPER_MI = "upper-bound-on-MI"
LOWER_MSE = "lower-bound-on-MSE"

# Direction of each bound that ``verify`` reports, fixed by the benchmark
# rather than inferred from the name the way the CLI does.
VERIFY_BOUNDS = {
    "mi-bound-finite-support": UPPER_MI,
    "mi-bound-general-prior": UPPER_MI,
    "efroimovich-mi-bound": UPPER_MI,
    "mse-bound-finite-support": LOWER_MSE,
    "mse-bound-general-prior": LOWER_MSE,
    "van-trees": LOWER_MSE,
}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def parse_table(text: str) -> list[dict]:
    """Rows of the CLI's aligned text table, keyed by the header names.

    Columns are located by the start offset of each header name, so empty
    cells (a bound without a value, an empty flag list) parse as "".
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return []
    header = lines[0]
    names = header.split()
    starts = []
    pos = 0
    for name in names:
        pos = header.index(name, pos)
        starts.append(pos)
        pos += len(name)
    bounds = list(zip(starts, starts[1:] + [None]))
    return [{name: line[a:b].strip() for name, (a, b) in zip(names, bounds)}
            for line in lines[1:]]


def to_float(cell: str):
    """Float value of a table cell, or None for an empty or non-numeric cell."""
    try:
        return float(cell)
    except ValueError:
        return None


def _close(value: float, ref: float) -> bool:
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= REF_ATOL + REF_RTOL * abs(ref)


def compare_values(got: dict, ref: dict, what: str) -> list[str]:
    """Compare name -> value maps; None marks a cell that must stay empty."""
    problems = []
    if sorted(got) != sorted(ref):
        problems.append(f"{what}: rows {sorted(got)} differ from the recorded {sorted(ref)}")
        return problems
    for name, want in ref.items():
        have = got[name]
        if want is None or have is None:
            if want != have:
                problems.append(f"{what}: {name} is {have!r}, recorded {want!r}")
        elif isinstance(want, str) or isinstance(have, str):
            if want != have:
                problems.append(f"{what}: {name} is {have!r}, recorded {want!r}")
        elif not _close(have, want):
            problems.append(f"{what}: {name} = {have!r} differs from the recorded {want!r}")
    return problems


def bounds_values(text: str) -> dict:
    return {row["name"]: to_float(row["value"]) for row in parse_table(text)}


def check_bounds_dominance(text: str) -> list[str]:
    """oracle-mi <= every MI upper bound; every MSE lower bound <= oracle-bayes-mse."""
    rows = parse_table(text)
    by_name = {row["name"]: row for row in rows}
    problems = []
    mi = to_float(by_name.get("oracle-mi", {}).get("value", ""))
    mse = to_float(by_name.get("oracle-bayes-mse", {}).get("value", ""))
    if mi is None or mse is None:
        return ["bounds table lacks oracle-mi or oracle-bayes-mse"]
    for row in rows:
        value = to_float(row["value"])
        if value is None:
            continue
        if row["direction"] == UPPER_MI and value - mi < MI_GATE:
            problems.append(f"{row['name']} = {value} is below oracle-mi = {mi}")
        if row["direction"] == LOWER_MSE and mse - value < MSE_GATE:
            problems.append(f"{row['name']} = {value} exceeds oracle-bayes-mse = {mse}")
    return problems


def mi_values(text: str) -> dict:
    return {row["name"]: (to_float(row["value"]) if to_float(row["value"]) is not None
                          else row["value"]) for row in parse_table(text)}


def metrology_values(text: str) -> dict:
    """Every numeric cell of the metrology sweep, keyed ``eta/N/column``."""
    out = {}
    for row in parse_table(text):
        key = f"{row['eta']}/{row['N']}"
        for column, cell in row.items():
            if column not in ("eta", "N"):
                out[f"{key}/{column}"] = to_float(cell)
    return out


def verify_margins(text: str) -> tuple[dict, str | None]:
    """Worst margin per bound and the PASS/FAIL verdict of a ``verify`` run."""
    margins = {}
    verdict = None
    for line in text.splitlines():
        if line.startswith("worst margin "):
            name, _, value = line[len("worst margin "):].partition(": ")
            margins[name] = float(value)
        elif line.startswith("checked "):
            verdict = line.rsplit(" ", 1)[-1]
    return margins, verdict


def check_verify_output(code: int, text: str, count: int) -> list[str]:
    """PASS, every bound reported, and each worst margin above the CLI's gate."""
    problems = []
    if code != 0:
        problems.append(f"verify exited with {code}")
    margins, verdict = verify_margins(text)
    if verdict != "PASS" or f"checked {count} models: PASS" not in text:
        problems.append(f"verify verdict {verdict!r} for {count} models")
    if sorted(margins) != sorted(VERIFY_BOUNDS):
        problems.append(f"verify reported bounds {sorted(margins)}")
    for name, margin in margins.items():
        gate = MI_GATE if VERIFY_BOUNDS.get(name) == UPPER_MI else MSE_GATE
        if not margin > gate:
            problems.append(f"worst margin of {name} = {margin} is not above {gate}")
    return problems


def check_cli_output(command: str, code: int, text: str, reference: dict) -> list[str]:
    """Exit code, recorded values and dominance for one ``cli-mix`` command."""
    if code != 0:
        return [f"{command}: exit code {code}"]
    ref = reference["cli"][command]
    kind = command.split("-", 1)[0]
    if kind == "bounds":
        return (compare_values(bounds_values(text), ref, command)
                + check_bounds_dominance(text))
    if kind == "mi":
        return compare_values(mi_values(text), ref, command)
    if kind == "metrology":
        return compare_values(metrology_values(text), ref, command)
    if kind == "verify50":
        margins, _ = verify_margins(text)
        return compare_values(margins, ref, command) + check_verify_output(code, text, 50)
    return [f"unknown command {command!r}"]


def check_quantum(out: dict) -> list[str]:
    """Dominance and p(x|phi) checks for one ``quantum-sweep`` design point.

    ``out`` holds the oracle MI and the benchmark's own quadrature of it, the
    finite-support bound, the channel cap, CFI/QFI pairs, and (program,
    benchmark) pairs of p(x|phi) at a few grid points, the second computed
    from the benchmark's own Kraus operators.
    """
    problems = []
    if not math.isfinite(out["mi"]) or out["mi"] < -1e-12:
        problems.append(f"oracle MI = {out['mi']}")
    if not abs(out["mi"] - out["mi_own"]) <= 1e-9:
        problems.append(f"oracle MI {out['mi']} but the benchmark's quadrature gives {out['mi_own']}")
    if out["bound"] - out["mi"] < MI_GATE:
        problems.append(f"oracle MI {out['mi']} exceeds the finite-support bound {out['bound']}")
    if out["kind"] in ("dephasing", "erasure") and out["cap"] - out["mi"] < MI_GATE:
        problems.append(f"oracle MI {out['mi']} exceeds mi_cap {out['cap']}")
    for cfi, qfi in out["fi"]:
        if not (math.isfinite(qfi) and cfi <= qfi * (1.0 + 1e-9) + 1e-12):
            problems.append(f"CFI {cfi} exceeds QFI {qfi}")
    for have, want in out["probs"]:
        if not abs(have - want) <= 1e-9:
            problems.append(f"p(x|phi) = {have} but tr(rho M_x) = {want}")
    return problems


def check_oracle_scale(out: dict, reference: dict) -> list[str]:
    """MI of the repeated model grows with n under ln(1 + sqrt(n) L / 2); MLE rows finite.

    ``out["span"]`` is the grid length: both base models are cos2, whose
    Fisher information is 1 inside the grid, so the Jeffreys length L equals
    the span.  Monte-Carlo values are not pinned.
    """
    problems = []
    previous = -math.inf
    for n, mi in out["repeat_mi"]:
        if not math.isfinite(mi) or mi < previous - 1e-12:
            problems.append(f"MI of the {n}-fold model = {mi} after {previous}")
        cap = math.log1p(math.sqrt(n) * out["span"] / 2.0)
        if mi - cap > -MI_GATE:
            problems.append(f"MI of the {n}-fold model = {mi} exceeds ln(1 + sqrt(n) L / 2) = {cap}")
        previous = mi
    ref = reference["cos2_mi_20001"]
    if not _close(out["mi_fine"], ref):
        problems.append(f"cos2 MI on 20001 points = {out['mi_fine']}, recorded {ref}")
    for row in out["mle"]:
        n, h, asymptote = row["n"], row["h_conditional"], row["asymptote"]
        expected = -0.5 * math.log(n / (2.0 * math.pi * math.e))
        if not math.isfinite(h):
            problems.append(f"MLE row n={n}: H(phi|phi_ML) = {h}")
        # F = 1 inside the grid; the quadrature of F p differs from 1 by the
        # end-point weights, about 3e-4 on 2001 points
        if not abs(asymptote - expected) <= 1e-3:
            problems.append(f"MLE row n={n}: asymptote {asymptote}, expected {expected}")
    if [row["n"] for row in out["mle"]] != [1, 4, 16, 64]:
        problems.append(f"MLE rows for n = {[row['n'] for row in out['mle']]}")
    return problems
