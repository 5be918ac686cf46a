"""Worker process of one workload run; started by ``run.py``.

It imports the package from the checkout's ``src``, builds the workload's
fixed inputs, runs one untimed warm-up op and prints ``READY`` (the end of
set-up, timed by the parent).  With ``--setup-only`` it stops there.
Otherwise it runs the closed loop: one client, the next op starts when the
previous one returns, until ``--seconds`` have passed (on ``cli-mix`` the
loop also finishes its round, so every command runs equally often).  Outputs
are checked as each op returns, outside its timing.  The last stdout line is
a JSON result.

With ``--trace 1`` the loop runs twice with the same seed and op code:
half the time untraced, half traced, and the per-layer metrics come from
the traced half.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, CliMix, take, time_op

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"   # spans of traced runs

# op_tail_s percentile, fixed per workload so every run reports the same one:
# the highest percentile with at least ten samples beyond it in a 20 s run
# (BENCHMARK.json run_seconds).  verify-sweep is the exception: its p97 moved
# by 0.28 of its median across ten seeds, more than the metric's bound, while
# p85 (about 50 samples beyond it) moved by 0.09.  cli-mix has no percentile
# (see end_to_end).
TAIL_PERCENTILE = {"verify-sweep": 85.0, "quantum-sweep": 80.0, "oracle-scale": 75.0}

WARM_UP_SEED = 0   # input stream of the untimed warm-up op, the same for every run

CLI_COMMANDS = sorted(CliMix.COMMANDS)
BOUND_FUNCTIONS = ("mi_bound_finite_support", "mi_bound_general_prior", "efroimovich_mi_bound",
                   "van_trees", "mse_bound_finite_support", "mse_bound_general_prior",
                   "gaussian_prior_mse_bounds", "oracle_margin")
CHANNEL_KINDS = ("dephasing", "amplitude-damping", "erasure")
SHARE_LAYERS = ("random_models", "stat_model", "bounds", "mi_oracle", "quantum_metrology")

# per-layer metrics measured by run.py itself
IMPORT_METRICS = {"interpreter.start_s": "s", "import.total_s": "s", "import.scipy_s": "s",
                  "import.numpy_s": "s", "import.infobounds_self_s": "s"}


def _self_rows() -> list[str]:
    rows = ["cli.load_model", "random_models.random_joint_model",
            "stat_model.fisher_information", "stat_model.ConditionalModel"]
    rows += [f"bounds.{fn}" for fn in BOUND_FUNCTIONS]
    rows += ["numerics.tricomi_u", "mi_oracle.mutual_information",
             "mi_oracle.bayes_quadratic_cost", "mi_oracle.repeat_model",
             "mi_oracle.mle_convergence_study"]
    rows += [f"quantum_metrology.channel_outcome_model.{kind}" for kind in CHANNEL_KINDS]
    rows += [f"quantum_metrology.{fn}" for fn in
             ("noon_outcome_model", "qfi", "classical_fi_of_povm", "transition_sweep")]
    return rows


SELF_ROWS = _self_rows()
CALL_ROWS = ("stat_model.fisher_information", "numerics.integrate")


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in the order they are printed."""
    units = dict(IMPORT_METRICS)
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.wall_p50_s"] = "s"
        units[f"cli.{cmd}.main_p50_s"] = "s"
    units.update({f"{row}.self_s": "s/item" for row in SELF_ROWS})
    units.update({f"{row}.calls": "calls/item" for row in CALL_ROWS})
    units.update({f"{layer}.busy_share": "1" for layer in SHARE_LAYERS})
    units["mi_oracle.mutual_information.gbps_computed"] = "GB/s"
    units["mi_oracle.mle_convergence_study.trials_per_s"] = "1/s"
    units.update({f"{layer}.errors": "count" for layer in tracing.LAYERS})
    units["trace.overhead_ratio"] = "1"
    return units


class Phase:
    """Latencies, failures and wall time of one closed-loop timed phase.

    Each op's output is checked as soon as the op returns and then dropped,
    so memory does not grow with the number of ops.  The check is left out
    of the op's latency and out of the phase's wall time.
    """

    MAX_PROBLEMS = 20

    def __init__(self, workload, seed: int, seconds: float):
        self.latencies: list[float] = []
        self.commands: list[str] = []   # cli-mix only: the command of each op
        self.problems: list[str] = []
        self.failed = 0
        keep_commands = isinstance(workload, CliMix)
        stream = workload.inputs(seed)
        checking = 0.0
        start = time.perf_counter()
        while True:
            op_input = next(stream)
            latency, out, error = time_op(workload, op_input)
            check_start = time.perf_counter()
            found = [error] if error is not None else _check(workload, op_input, out)
            checking += time.perf_counter() - check_start
            self.latencies.append(latency)
            if keep_commands:
                self.commands.append(op_input)
            if found:
                self.failed += 1
                self.problems.extend(found[:self.MAX_PROBLEMS - len(self.problems)])
            if (len(self.latencies) % workload.round_size == 0
                    and time.perf_counter() - start - checking >= seconds):
                break
        self.wall = time.perf_counter() - start - checking

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.wall


def _check(workload, op_input, out) -> list[str]:
    try:
        return workload.check(op_input, out)
    except Exception as exc:  # a check that cannot read the output fails the op
        return [f"check raised {type(exc).__name__}: {exc}"]


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(workload, phase: Phase) -> dict:
    if isinstance(workload, CliMix):
        # Latencies fall in two clusters (import-only commands and the rest),
        # and any median across commands lands on the gap between them: the
        # pooled median, and the median of the per-command medians, each
        # moved by 0.107 of itself across ten seeds.  The mean of the seven
        # per-command medians does not jump between clusters.  With about 21
        # samples the tail rule gives p50, so op_tail_s is the same number.
        p50 = statistics.fmean(statistics.median(v) for v in _by_command(phase).values())
        tail = p50
        tail_rule = f"the mean of the per-command medians, over {len(phase.latencies)} ops"
    else:
        q = TAIL_PERCENTILE[workload.name]
        p50, tail = statistics.median(phase.latencies), percentile(phase.latencies, q)
        tail_rule = f"p{q:g} of {len(phase.latencies)} op latencies"
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliMix) else resource.RUSAGE_SELF
    return {
        "ops_per_s": phase.ops_per_s,
        "op_p50_s": p50,
        "op_tail_s": tail,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "tail_rule": tail_rule,
    }


def _by_command(phase: Phase) -> dict:
    out: dict = {}
    for command, latency in zip(phase.commands, phase.latencies):
        out.setdefault(command, []).append(latency)
    return out


def layer_metrics(state: dict, items: int, wall: float, cli_wall: dict, cli_main: dict) -> dict:
    rows = tracing.summarize(state)
    metrics = {}
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}.wall_p50_s"] = statistics.median(cli_wall.get(cmd, [0.0]))
        metrics[f"cli.{cmd}.main_p50_s"] = statistics.median(cli_main.get(cmd, [0.0]))
    for row in SELF_ROWS:
        metrics[f"{row}.self_s"] = rows.get(row, {}).get("self_s", 0.0) / items
    for row in CALL_ROWS:
        metrics[f"{row}.calls"] = state["calls"].get(row, 0) / items
    for layer in SHARE_LAYERS:
        busy = sum(r["self_s"] for name, r in rows.items() if name.startswith(layer + "."))
        metrics[f"{layer}.busy_share"] = busy / wall
    oracle = rows.get("mi_oracle.mutual_information")
    metrics["mi_oracle.mutual_information.gbps_computed"] = (
        oracle["amount"] / oracle["total_s"] / 1e9 if oracle else 0.0)
    study = rows.get("mi_oracle.mle_convergence_study")
    metrics["mi_oracle.mle_convergence_study.trials_per_s"] = (
        study["amount"] / study["total_s"] if study else 0.0)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.errors"] = state["errors"].get(layer, 0)
    return metrics


def traced_phase(workload, seed: int, seconds: float, out_dir: Path):
    """The traced half of a ``--trace 1`` run: (phase, merged trace state, cli.main times)."""
    if isinstance(workload, CliMix):
        tmp = Path(tempfile.mkdtemp(dir=out_dir))
        try:
            workload.trace_dir = tmp
            phase = Phase(workload, seed, seconds)
            workload.trace_dir = None
            states, cli_main = [], {}
            for command, path in workload.trace_files:
                with open(path, encoding="utf-8") as handle:
                    try:
                        state = json.load(handle)
                    except json.JSONDecodeError:
                        continue  # the command died before writing spans; its op failed

                states.append(state)
                mains = [s[4] - s[3] for s in state["spans"] if s[2] == "cli.main"]
                cli_main.setdefault(command, []).extend(mains)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return phase, tracing.merge(states), cli_main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = Phase(workload, seed, seconds)
    finally:
        tracer.uninstall()
    return phase, tracer.state(), {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import infobounds
    import infobounds.cli
    if Path(infobounds.__file__).resolve().parent != SRC / "infobounds":
        print(f"error: imported infobounds from {infobounds.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](infobounds, SRC)
    workload.setup()
    # The warm-up input does not depend on the seed, so set-up time does not
    # depend on which op the seed happens to draw first.
    warm = take(workload.inputs(WARM_UP_SEED), 1)[0]
    time_op(workload, warm)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if not args.trace:
        phase = Phase(workload, args.seed, args.seconds)
        result = {"attempted": len(phase.latencies), "failed": phase.failed,
                  "problems": phase.problems[:20], "end_to_end": end_to_end(workload, phase)}
        print(json.dumps(result))
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    plain = Phase(workload, args.seed, args.seconds / 2.0)
    traced, state, cli_main = traced_phase(workload, args.seed, args.seconds / 2.0, OUT)
    items = len(traced.latencies) * workload.items_per_op
    cli_wall = _by_command(plain) if isinstance(workload, CliMix) else {}
    metrics = layer_metrics(state, items, traced.wall, cli_wall, cli_main)
    metrics["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "items": items,
                   "span_fields": ["id", "parent", "name", "start", "end", "amount"],
                   "summary": tracing.summarize(state), **state}, handle)
    result = {"attempted": len(plain.latencies) + len(traced.latencies),
              "failed": plain.failed + traced.failed,
              "problems": (plain.problems + traced.problems)[:20],
              "per_layer": metrics, "spans_path": str(spans_path)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
