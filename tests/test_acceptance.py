"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from infobounds.bounds import (
    DIVERGENT_PRIOR_INFORMATION,
    efroimovich_mi_bound,
    gaussian_prior_mse_bounds,
    joint_derivative_l1,
    joint_derivative_l1_bound,
    mi_bound_finite_support,
    mi_bound_general_prior,
    mse_bound_finite_support,
    oracle_margin,
    van_trees,
)
from infobounds.cli import main
from infobounds.mi_oracle import bayes_quadratic_cost, mle_convergence_study, mutual_information
from infobounds.numerics import ParameterGrid, integrate
from infobounds.quantum_metrology import (
    PhaseChannelFamily,
    classical_fi_of_povm,
    mi_cap,
    noon_family,
    noon_outcome_model,
    qfi,
    random_povm,
    transition_sweep,
)
from infobounds.random_models import random_joint_model
from infobounds.stat_model import (
    ConditionalModel,
    FisherProfile,
    JointModel,
    PriorDensity,
    cos2_model,
    fisher_information,
)

PI = math.pi
LN2 = math.log(2.0)

# frozen by this package's own 10001-point quadrature (grid doubling moves it
# by ~4e-13); the analytic value for this model is 1 - ln 2
COS2_ORACLE_MI = 0.3068528194


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def test_01_dominance_suite():
    rng = np.random.default_rng(20240)
    grid = ParameterGrid(0.0, 1.0, 2001)
    started = time.perf_counter()
    worst_finite = math.inf
    worst_general = math.inf
    for _ in range(200):
        joint = random_joint_model(rng, grid, max_outcomes=8)
        oracle = mutual_information(joint)
        finite = mi_bound_finite_support(fisher_information(joint.conditional))
        general = mi_bound_general_prior(joint)
        worst_finite = min(worst_finite, oracle_margin(finite, oracle.mi))
        worst_general = min(worst_general, oracle_margin(general, oracle.mi))
    elapsed = time.perf_counter() - started
    assert worst_finite >= -1e-3
    assert worst_general >= -1e-3
    assert elapsed < 120.0
    report(1, "DOMINANCE SUITE",
           f"worst margins {worst_finite:.4f}/{worst_general:.4f} nats, {elapsed:.1f}s")


def test_02_cos2_benchmark():
    grid = ParameterGrid(0.0, PI, 10001)
    joint = JointModel(PriorDensity.rectangle(grid), cos2_model(grid))

    profile = fisher_information(joint.conditional)
    assert np.max(np.abs(profile.values[1:-1] - 1.0)) <= 1e-9

    bound = mi_bound_finite_support(FisherProfile.constant(grid, 1.0))
    assert bound.value == pytest.approx(math.log(1.0 + PI / 2.0), abs=1e-9)

    oracle = mutual_information(joint).mi
    assert oracle == pytest.approx(COS2_ORACLE_MI, abs=1e-7)
    doubled = mutual_information(JointModel(PriorDensity.rectangle(grid.refine()),
                                            cos2_model(grid.refine()))).mi
    assert abs(oracle - doubled) < 1e-4
    assert oracle < bound.value
    report(2, "COS2 BENCHMARK", f"oracle {oracle:.6f} < bound {bound.value:.6f}")


def test_03_gaussian_prior_chain():
    for sigma in (0.7, 1.0):
        for f_sigma2 in (0.1, 1.0, 10.0, 100.0):
            f_const = f_sigma2 / sigma ** 2
            exact, simplified = gaussian_prior_mse_bounds(f_const, sigma)

            # (a) Tricomi route against direct quadrature of the defining integral
            grid = ParameterGrid(-10.0 * sigma, 10.0 * sigma, 40001)
            phi = grid.values
            density = np.exp(-0.5 * (phi / sigma) ** 2) / math.sqrt(2 * PI * sigma ** 2)
            integral = integrate(np.sqrt(f_const + phi ** 2 / sigma ** 4) * density, grid)
            direct = 2.0 / (PI * math.e) / integral ** 2
            assert exact.value == pytest.approx(direct, rel=1e-5)

            # (b) van Trees / simplified ratio is exactly pi e / 2
            vt = 1.0 / (f_const + 1.0 / sigma ** 2)
            assert vt / simplified.value == pytest.approx(PI * math.e / 2.0, abs=1e-9)

            # (c) the simplified form converges to the exact one
            if f_sigma2 == 100.0:
                assert abs(simplified.value / exact.value - 1.0) <= 1e-3
    report(3, "GAUSSIAN-PRIOR CHAIN", "F sigma^2 in {0.1, 1, 10, 100}")


def test_04_rectangle_case():
    d = 2.0
    grid = ParameterGrid(0.0, d, 2001)
    flat = ConditionalModel(grid, np.ones((1, grid.points)), np.zeros((1, grid.points)),
                            "analytic")
    joint = JointModel(PriorDensity.rectangle(grid), flat)

    bound = mse_bound_finite_support(joint)
    assert bound.value == pytest.approx(d ** 2 / (2.0 * PI * math.e), abs=1e-9)
    oracle = bayes_quadratic_cost(joint)
    assert oracle == pytest.approx(d ** 2 / 12.0, abs=1e-6)
    assert bound.value < oracle

    for flagged in (efroimovich_mi_bound(joint), van_trees(joint)):
        assert flagged.value is None
        assert DIVERGENT_PRIOR_INFORMATION in flagged.flags
    report(4, "RECTANGLE CASE", f"bound {bound.value:.6f} < oracle {oracle:.6f}")


def test_05_quantum_channel_suite():
    etas = [round(0.1 * k, 1) for k in range(1, 10)] + [0.99]
    for kind in ("dephasing", "amplitude-damping", "erasure"):
        dim = 3 if kind == "erasure" else 2
        for eta in etas:
            # tr state(phi) over the matrix units |a><b| is the identity
            # exactly when the Kraus operators resolve the identity
            total = np.empty((dim, dim), dtype=complex)
            for a in range(dim):
                for b in range(dim):
                    unit = np.zeros((dim, dim), dtype=complex)
                    unit[a, b] = 1.0
                    total[a, b] = np.trace(PhaseChannelFamily(kind, eta, unit).state(0.4))
            assert np.max(np.abs(total - np.eye(dim))) <= 1e-12

    plus = np.full((2, 2), 0.5, dtype=complex)
    for eta in etas:
        family = PhaseChannelFamily("dephasing", eta, plus)
        assert qfi(family, 0.8) == pytest.approx(eta, abs=1e-9)

    for n in range(1, 9):
        assert qfi(noon_family(n), 0.3) == pytest.approx(n ** 2, abs=1e-6 * n ** 2)

    rng = np.random.default_rng(77)
    family = PhaseChannelFamily("dephasing", 0.85, plus)
    q = qfi(family, 0.6)
    for _ in range(100):
        povm = random_povm(rng, 2, int(rng.integers(2, 6)))
        assert classical_fi_of_povm(family, povm, 0.6) <= q + 1e-9
    report(5, "QUANTUM CHANNEL SUITE", "3 channels x 10 etas, QFI checks, 100 POVMs")


def test_06_noisy_mi_cap_figure():
    cap = mi_cap(100, 0.9, "finite-N")
    assert cap.value == pytest.approx(math.log(1.0 + PI * math.sqrt(900.0 / 1.09)), abs=1e-9)

    ns = np.unique(np.logspace(0.0, 6.0, 121).astype(np.int64))
    crossings = []
    saw_heisenberg_regime = False
    for eta in (0.5, 0.9, 0.99):
        rows = transition_sweep(eta, ns)
        f_as = eta / (1.0 - eta)
        slopes = np.array([r["slope"] for r in rows])
        n_arr = np.array([r["N"] for r in rows], dtype=float)
        small = slopes[n_arr < 0.05 * f_as]
        large = slopes[n_arr > 20.0 * f_as]
        if small.size:
            saw_heisenberg_regime = True
            assert np.all(np.abs(small - 1.0) <= 0.05)
        assert large.size and np.all(np.abs(large - 0.5) <= 0.05)
        crossings.append(float(np.interp(-0.75, -slopes, np.log(n_arr))))
    assert saw_heisenberg_regime
    assert crossings[0] < crossings[1] < crossings[2]
    report(6, "NOISY MI CAP / FIGURE",
           f"crossings at N≈{[round(math.exp(c), 1) for c in crossings]}")


def test_07_noon_ceiling():
    for n in (1, 2, 4, 8, 16):
        cond = noon_outcome_model(n)
        joint = JointModel(PriorDensity.rectangle(cond.grid), cond)
        mi = mutual_information(joint).mi
        assert mi <= LN2 + 1e-6
        assert qfi(noon_family(n), 0.3) == pytest.approx(n ** 2, rel=1e-9)
    report(7, "N00N CEILING", "MI <= ln 2 while QFI = N^2, N up to 16")


def test_08_mle_asymptotics():
    grid = ParameterGrid(0.0, PI, 201)
    joint = JointModel(PriorDensity.gaussian(grid, PI / 2.0, 0.3), cos2_model(grid))
    started = time.perf_counter()
    points = mle_convergence_study(joint, [8, 32, 128], trials=20000, seed=42)
    elapsed = time.perf_counter() - started
    gaps = [p.gap for p in points]
    assert gaps[0] > gaps[1] > gaps[2]
    assert elapsed < 300.0
    report(8, "MLE ASYMPTOTICS",
           f"gaps {gaps[0]:.3f} > {gaps[1]:.3f} > {gaps[2]:.3f}, {elapsed:.1f}s")


def test_09_proof_step_checks():
    rng = np.random.default_rng(909)
    grid = ParameterGrid(0.0, 1.0, 1001)
    for _ in range(50):
        joint = random_joint_model(rng, grid)
        left = joint_derivative_l1(joint)
        right = joint_derivative_l1_bound(joint)
        assert np.all(left <= right + 1e-9)

        profile = fisher_information(joint.conditional)
        split = (integrate(np.sqrt(profile.values) * joint.prior.density, grid)
                 + integrate(np.abs(joint.prior.derivative), grid))
        assert integrate(right, grid) <= split + 1e-9
    report(9, "PROOF-STEP CHECKS", "pointwise Cauchy-Schwarz + sqrt subadditivity, 50 models")


def test_10_determinism(tmp_path):
    pairs = []
    for label, argv in (
        ("verify", ["verify", "--count", "5", "--seed", "7", "--grid-points", "1001"]),
        ("metrology", ["metrology", "--eta", "0.5,0.9,0.99", "--n-max", "1000000",
                       "--n-count", "61"]),
    ):
        a = tmp_path / f"{label}_a.csv"
        b = tmp_path / f"{label}_b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        pairs.append(label)
    report(10, "DETERMINISM", f"byte-identical CSVs for {', '.join(pairs)}")
