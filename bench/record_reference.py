"""Record the reference outputs the ``cli-mix`` and ``oracle-scale`` checks compare against.

Usage (from the repository root): ``python3 bench/record_reference.py``.
It runs each ``cli-mix`` command once against ``src/`` and writes the parsed
values, with the fine-grid cos2 mutual information, to
``bench/reference.json``.  Re-record only when a change is meant to alter
the printed numbers, and say so where that change is described.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import checks
from workloads import CliMix, OracleScale

ROOT = Path(__file__).resolve().parent.parent
PARSERS = {"bounds": checks.bounds_values, "mi": checks.mi_values,
           "metrology": checks.metrology_values,
           "verify50": lambda text: checks.verify_margins(text)[0]}


def main() -> int:
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    reference = {"cli": {}}
    for command, argv in sorted(CliMix.COMMANDS.items()):
        proc = subprocess.run([sys.executable, "-m", "infobounds.cli", *argv], env=env,
                              stdout=subprocess.PIPE, text=True, check=True)
        reference["cli"][command] = PARSERS[command.split("-", 1)[0]](proc.stdout)
    sys.path.insert(0, str(src))
    import infobounds as ib

    grid = ib.ParameterGrid(0.0, math.pi, OracleScale.FINE_POINTS)
    joint = ib.JointModel(ib.PriorDensity.rectangle(grid), ib.cos2_model(grid))
    reference["cos2_mi_20001"] = ib.mutual_information(joint).mi
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
