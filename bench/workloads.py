"""The four benchmark workloads: seeded op inputs, the op itself, its check.

Each workload turns the workload seed into an endless, deterministic stream
of op inputs (``inputs``), runs one op on one input through the package's
public API or its CLI (``run``), and judges the op's output (``check``).
``setup`` builds the fixed inputs shared by every op.  The package is
imported as ``ib``; functions are looked up on their modules at call time so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
GRID_POINTS = 2001


class CliMix:
    """One ``python -m infobounds.cli`` subprocess per op, seven commands a round."""

    name = "cli-mix"
    round_size = 7
    items_per_op = 1
    COMMANDS = {
        "bounds-cos2": ["bounds", "--model", "cos2"],
        "bounds-cos2-gaussian": ["bounds", "--model", "cos2-gaussian"],
        "bounds-dephasing-qubit": ["bounds", "--model", "dephasing-qubit:eta=0.8"],
        "bounds-erasure-qutrit": ["bounds", "--model", "erasure-qutrit"],
        "mi-noon16": ["mi", "--model", "noon:n=16"],
        "metrology": ["metrology"],
        "verify50": ["verify", "--count", "50"],
    }

    def __init__(self, ib, src: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.trace_dir = None   # set by the worker for the traced phase
        self.trace_files: list[tuple[str, str]] = []
        self.reference = None

    def setup(self):
        self.reference = checks.load_reference()

    def inputs(self, seed: int):
        rng = random.Random(seed)
        names = sorted(self.COMMANDS)
        while True:
            round_names = list(names)
            rng.shuffle(round_names)
            yield from round_names

    def run(self, command: str):
        argv = self.COMMANDS[command]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "infobounds.cli", *argv]
        else:
            handle, spans = tempfile.mkstemp(suffix=".json", dir=self.trace_dir)
            os.close(handle)
            self.trace_files.append((command, spans))
            cmd = [sys.executable, str(BENCH_DIR / "launch.py"), spans, *argv]
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, command: str, out) -> list[str]:
        code, text = out
        return checks.check_cli_output(command, code, text, self.reference)


class VerifySweep:
    """In-process ``cli.main(["verify", "--count", "10", "--seed", s])``, stdout captured."""

    name = "verify-sweep"
    round_size = 1
    items_per_op = 10   # models verified per op

    def __init__(self, ib, src: Path):
        self.ib = ib

    def setup(self):
        pass

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield int(rng.integers(0, 2 ** 31 - 1))

    def run(self, seed: int):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.ib.cli.main(["verify", "--count", str(self.items_per_op),
                                     "--seed", str(seed)])
        return code, buffer.getvalue()

    def check(self, seed: int, out) -> list[str]:
        code, text = out
        return checks.check_verify_output(code, text, self.items_per_op)


def _kraus(kind: str, eta: float) -> list[np.ndarray]:
    """The benchmark's own Kraus operators of the three noise channels."""
    if kind == "dephasing":
        return [math.sqrt((1 + math.sqrt(eta)) / 2) * np.eye(2),
                math.sqrt((1 - math.sqrt(eta)) / 2) * np.diag([1.0, -1.0])]
    if kind == "amplitude-damping":
        return [np.array([[1.0, 0.0], [0.0, math.sqrt(eta)]]),
                np.array([[0.0, math.sqrt(1 - eta)], [0.0, 0.0]])]
    ops = [math.sqrt(eta) * np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    for level in (0, 1):
        k = np.zeros((3, 3))
        k[2, level] = math.sqrt(1 - eta)
        ops.append(k)
    return ops


def _channel_state(kind: str, eta: float, rho0: np.ndarray, phi: float) -> np.ndarray:
    """Lambda(U_phi rho0 U_phi^dag) with the phase e^{i phi} on level |1>."""
    u = np.eye(rho0.shape[0], dtype=complex)
    u[1, 1] = np.exp(1j * phi)
    r = u @ rho0 @ u.conj().T
    return sum(k @ r @ k.conj().T for k in _kraus(kind, eta))


def _uniform_prior_mi(probs: np.ndarray) -> float:
    """The benchmark's own Simpson quadrature of I(x, phi) for a uniform prior."""
    points = probs.shape[1]
    weights = np.ones(points)
    weights[1:-1:2] = 4.0
    weights[2:-2:2] = 2.0
    weights /= weights.sum()
    pbar = probs @ weights
    ratio = np.where(probs > 0.0, probs, 1.0) / pbar[:, None]
    return float(np.sum((probs * np.log(ratio)) @ weights))


class QuantumSweep:
    """One seeded channel design point: outcome model, oracle, bounds, QFI / CFI."""

    name = "quantum-sweep"
    round_size = 1
    items_per_op = 1
    KINDS = ("dephasing", "amplitude-damping", "erasure")

    def __init__(self, ib, src: Path):
        self.ib = ib

    def setup(self):
        ib = self.ib
        self.grid = ib.ParameterGrid(0.0, 2.0 * math.pi, GRID_POINTS)
        self.prior = ib.PriorDensity.rectangle(self.grid)

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        for index in itertools.count():
            kind = self.KINDS[index % 3]
            dim = 3 if kind == "erasure" else 2
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            yield {
                "kind": kind,
                "eta": float(rng.uniform(0.5, 0.99)),
                "psi": tuple(complex(c) for c in psi / np.linalg.norm(psi)),
                "outcomes": int(rng.integers(2, 5)),
                "povm_seed": int(rng.integers(0, 2 ** 31 - 1)),
                "phis": tuple(float(p) for p in rng.uniform(0.0, 2.0 * math.pi, 4)),
                "points": tuple(int(g) for g in rng.integers(0, GRID_POINTS, 3)),
            }

    def run(self, point: dict):
        ib = self.ib
        kind, eta = point["kind"], point["eta"]
        psi = np.array(point["psi"])
        rho0 = np.outer(psi, psi.conj())
        povm = ib.random_povm(np.random.default_rng(point["povm_seed"]), psi.size,
                              point["outcomes"])
        cond = ib.channel_outcome_model(kind, eta, self.grid, rho0=rho0, povm=povm)
        oracle = ib.mutual_information(ib.JointModel(self.prior, cond))
        bound = ib.mi_bound_finite_support(ib.fisher_information(cond))
        cap = ib.mi_cap(1, eta, kind=kind)
        family = ib.PhaseChannelFamily(kind, eta, rho0)
        fi = [(ib.classical_fi_of_povm(family, povm, phi), ib.qfi(family, phi))
              for phi in point["phis"]]
        probs = [(float(cond.probs[x, g]), g, x) for g in point["points"]
                 for x in range(cond.n_outcomes)]
        return {"kind": kind, "mi": oracle.mi, "bound": bound.value, "cap": cap.value,
                "fi": fi, "probs": probs, "rho0": rho0, "povm": povm.elements,
                "table": cond.probs}

    def check(self, point: dict, out) -> list[str]:
        spacing = 2.0 * math.pi / (GRID_POINTS - 1)
        pairs = []
        for have, g, x in out["probs"]:
            rho = _channel_state(point["kind"], point["eta"], out["rho0"], g * spacing)
            pairs.append((have, float(np.trace(rho @ out["povm"][x]).real)))
        return checks.check_quantum({**out, "probs": pairs,
                                     "mi_own": _uniform_prior_mi(out["table"])})


class OracleScale:
    """Oracles at scale: n-fold products up to 1024 outcomes, a fine grid, MLE study."""

    name = "oracle-scale"
    round_size = 1
    items_per_op = 1
    REPEATS = (4, 8, 10)
    MLE_N = [1, 4, 16, 64]
    MLE_TRIALS = 500
    FINE_POINTS = 20001

    def __init__(self, ib, src: Path):
        self.ib = ib

    def setup(self):
        ib = self.ib
        self.reference = checks.load_reference()
        self.bases = [ib.cli.build_builtin("cos2"), ib.cli.build_builtin("cos2-gaussian")]
        fine = ib.ParameterGrid(0.0, math.pi, self.FINE_POINTS)
        self.fine = ib.JointModel(ib.PriorDensity.rectangle(fine), ib.cos2_model(fine))

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        for index in itertools.count():
            yield {"base": index % 2, "mle_seed": int(rng.integers(0, 2 ** 31 - 1))}

    def run(self, op: dict):
        ib = self.ib
        base = self.bases[op["base"]]
        repeat_mi = [(n, ib.mutual_information(ib.repeat_model(base, n)).mi)
                     for n in self.REPEATS]
        mi_fine = ib.mutual_information(self.fine).mi
        study = ib.mle_convergence_study(base, self.MLE_N, trials=self.MLE_TRIALS,
                                         seed=op["mle_seed"])
        return {"repeat_mi": repeat_mi, "mi_fine": mi_fine,
                "span": base.grid.upper - base.grid.lower,
                "mle": [{"n": r.n, "h_conditional": r.h_conditional,
                         "asymptote": r.asymptote} for r in study]}

    def check(self, op: dict, out) -> list[str]:
        return checks.check_oracle_scale(out, self.reference)


WORKLOADS = {w.name: w for w in (CliMix, VerifySweep, QuantumSweep, OracleScale)}


def take(stream, count: int) -> list:
    return list(itertools.islice(stream, count))


def time_op(workload, op_input):
    """Run one op; return (latency seconds, output or None, error text or None)."""
    start = time.perf_counter()
    try:
        out = workload.run(op_input)
    except Exception as exc:  # an op that raises is a counted failure, not a crash
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, None
