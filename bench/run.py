"""infobounds benchmark: one workload run, result as the last stdout line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-mix, verify-sweep, quantum-sweep, oracle-scale (see
bench/NOTES.md).  The package is imported from ``src/`` next to this
directory, never from an installed copy; without it the run fails.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh worker processes), ops per second, median and tail op latency,
and peak resident memory.  ``--trace 1`` runs the same ops half untraced and
half traced and reports the per-layer metrics, including the import
breakdown from ``python -X importtime``.  Spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from worker import IMPORT_METRICS, SRC, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3          # fresh worker processes per run; setup_s is their median
IMPORT_PROBES = 3       # importtime probes per traced run; rows are medians
END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MiB"}


def _worker_cmd(args, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return cmd + (["--setup-only"] if setup_only else [])


def drive(cmd: list[str], timeout: float) -> tuple[float, dict | None]:
    """Start a worker process; return (seconds until READY, its JSON result or None)."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker process failed (exit {proc.returncode}): {ready}{rest}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def parse_importtime(stderr: str) -> dict:
    """Import rows from ``-X importtime``: self times summed by package, seconds."""
    self_us = {"scipy": 0, "numpy": 0, "infobounds": 0}
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        own, cumulative, name = int(fields[0]), int(fields[1]), fields[2].strip()
        top = name.split(".")[0]
        if top in self_us:
            self_us[top] += own
        if name == "infobounds":
            total_us = cumulative
    return {"import.total_s": total_us / 1e6, "import.scipy_s": self_us["scipy"] / 1e6,
            "import.numpy_s": self_us["numpy"] / 1e6,
            "import.infobounds_self_s": self_us["infobounds"] / 1e6}


def import_probe() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare = time.perf_counter() - start
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import infobounds"],
                              env=env, stderr=subprocess.PIPE, text=True, check=True)
        samples.append({"interpreter.start_s": bare, **parse_importtime(proc.stderr)})
    return {name: statistics.median(s[name] for s in samples) for name in IMPORT_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "infobounds" / "__init__.py").is_file():
        print(f"error: no infobounds package under {SRC}", file=sys.stderr)
        return 2
    timeout = 2 * args.seconds + 120

    if args.trace:
        metrics = import_probe()
        _, result = drive(_worker_cmd(args, False), timeout)
        metrics.update(result["per_layer"])
        units = per_layer_units()
        print(f"spans: {result['spans_path']}")
    else:
        setups = [drive(_worker_cmd(args, True), timeout)[0] for _ in range(SETUP_RUNS - 1)]
        setup, result = drive(_worker_cmd(args, False), timeout)
        e2e = result["end_to_end"]
        metrics = {"setup_s": statistics.median(setups + [setup]),
                   **{name: e2e[name] for name in END_TO_END if name != "setup_s"}}
        units = END_TO_END
        print(f"op_tail_s is {e2e['tail_rule']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
