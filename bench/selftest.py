"""Self-test of the benchmark itself.

Usage (from the repository root): ``python3 bench/selftest.py``.  Takes
about two minutes.  It checks that

1. a short run of each workload, untraced and traced, finishes with no
   failed op;
2. every metric declared in BENCHMARK.json is printed, with its unit, and
   nothing else;
3. the same seed gives the same op inputs, and another seed other inputs;
4. each checker counts a dominance-violating value as a failure.

Exits 1 and lists what failed, or prints ``selftest: ok``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, take  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def short_runs() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    wanted = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
              1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
            run = f"{name} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{run}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{run}: {result['failed']} of {result['attempted']} ops failed")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == wanted[trace], f"{run}: printed metrics differ from BENCHMARK.json: "
                   f"{sorted(set(printed.items()) ^ set(wanted[trace].items()))}")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), f"{run}: non-finite metric")


def seeded_inputs() -> None:
    for name, cls in sorted(WORKLOADS.items()):
        workload = cls(None, ROOT / "src")
        first = take(workload.inputs(7), 30)
        expect(first == take(workload.inputs(7), 30), f"{name}: seed 7 gave two input streams")
        expect(first != take(workload.inputs(8), 30), f"{name}: seeds 7 and 8 gave one stream")


def table(rows: list[dict]) -> str:
    """Aligned text table in the layout the CLI prints."""
    names = list(rows[0])
    widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) for k in names}
    lines = ["  ".join(k.ljust(widths[k]) for k in names)]
    lines += ["  ".join(str(r[k]).ljust(widths[k]) for k in names) for r in rows]
    return "\n".join(lines) + "\n"


def violations_fail() -> None:
    mi_row = {"name": "mi-bound-finite-support", "value": 0.5, "direction": checks.UPPER_MI}
    mse_row = {"name": "van-trees", "value": 0.2, "direction": checks.LOWER_MSE}
    oracles = [{"name": "oracle-mi", "value": 0.4, "direction": "oracle"},
               {"name": "oracle-bayes-mse", "value": 0.3, "direction": "oracle"}]
    expect(checks.check_bounds_dominance(table([mi_row, mse_row, *oracles])) == [],
           "bounds check rejects a dominating table")
    bad_mi = dict(oracles[0], value=0.6)
    expect(checks.check_bounds_dominance(table([mi_row, mse_row, bad_mi, oracles[1]])) != [],
           "bounds check accepts oracle-mi above an MI bound")
    bad_mse = dict(oracles[1], value=0.1)
    expect(checks.check_bounds_dominance(table([mi_row, mse_row, oracles[0], bad_mse])) != [],
           "bounds check accepts an MSE lower bound above oracle-bayes-mse")

    margins = "".join(f"worst margin {name}: 1.0e-02\n" for name in checks.VERIFY_BOUNDS)
    verdict = "checked 10 models: PASS\n"
    expect(checks.check_verify_output(0, margins + verdict, 10) == [],
           "verify check rejects a passing run")
    broken = margins.replace("van-trees: 1.0e-02", "van-trees: -1.0e-06")
    expect(checks.check_verify_output(0, broken + verdict, 10) != [],
           "verify check accepts a margin below the gate")

    point = {"kind": "dephasing", "mi": 0.2, "mi_own": 0.2, "bound": 0.9, "cap": 0.8,
             "fi": [(0.5, 0.7)], "probs": [(0.25, 0.25)]}
    expect(checks.check_quantum(point) == [], "quantum check rejects a dominating point")
    for change in ({"mi": 0.95, "mi_own": 0.95}, {"mi_own": 0.3}, {"cap": 0.1},
                   {"fi": [(0.8, 0.7)]}, {"probs": [(0.25, 0.26)]}):
        expect(checks.check_quantum({**point, **change}) != [],
               f"quantum check accepts a violation: {change}")

    reference = checks.load_reference()
    scale = {"repeat_mi": [(4, 0.9), (8, 1.2), (10, 1.3)], "span": math.pi,
             "mi_fine": reference["cos2_mi_20001"],
             "mle": [{"n": n, "h_conditional": 0.0,
                      "asymptote": -0.5 * math.log(n / (2 * math.pi * math.e))}
                     for n in (1, 4, 16, 64)]}
    expect(checks.check_oracle_scale(scale, reference) == [],
           "oracle-scale check rejects valid rows")
    for change in ({"repeat_mi": [(4, 0.9), (8, 0.8), (10, 1.3)]},
                   {"repeat_mi": [(4, 0.9), (8, 1.2), (10, 5.0)]}):
        expect(checks.check_oracle_scale({**scale, **change}, reference) != [],
               f"oracle-scale check accepts a violation: {change}")

    class Violating:
        """A workload whose every op output breaks dominance."""

        name, round_size, items_per_op = "violating", 1, 1

        def inputs(self, seed):
            while True:
                yield seed

        def run(self, op_input):
            return {**point, "mi": 2.0, "mi_own": 2.0}

        def check(self, op_input, out):
            return checks.check_quantum(out)

    phase = worker.Phase(Violating(), 0, 0.01)
    expect(phase.failed == len(phase.latencies) >= 1,
           f"a violating op was not counted as failed ({phase.failed} of {len(phase.latencies)})")


def main() -> int:
    seeded_inputs()
    violations_fail()
    short_runs()
    for failure in FAILURES:
        print(f"FAIL: {failure}")
    print("selftest: ok" if not FAILURES else f"selftest: {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
