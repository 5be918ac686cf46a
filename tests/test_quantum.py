import math

import numpy as np
import pytest

from infobounds.mi_oracle import mutual_information
from infobounds.numerics import ParameterGrid
from infobounds.quantum_metrology import (
    CHANNEL_KINDS,
    DensityMatrix,
    PhaseChannelFamily,
    Povm,
    asymptotic_fi_cap,
    channel_outcome_model,
    classical_fi_of_povm,
    finite_n_fi_cap,
    mi_cap,
    noon_family,
    noon_outcome_model,
    plus_minus_povm,
    qfi,
    random_povm,
    transition_sweep,
    _family_outcome_model,
    _phase_tables,
)
from infobounds.stat_model import ZERO_DERIV_TOL, JointModel, PriorDensity

PI = math.pi
PLUS = DensityMatrix.pure([1.0, 1.0]).matrix
ETAS = [round(0.1 * k, 1) for k in range(1, 10)] + [0.99]


def phase_gate(phi: float, dim: int = 2) -> np.ndarray:
    """Reference gate: diagonal unitary putting e^{i phi} on level |1> only.

    Extra levels (the erasure channel's loss level) are untouched.
    """
    if dim < 2:
        raise ValueError(f"phase gate needs dim >= 2, got {dim}")
    diag = np.ones(dim, dtype=complex)
    diag[1] = np.exp(1j * phi)
    return np.diag(diag)


def bloch_qfi(r, dr):
    """Independent QFI oracle from the Bloch representation of a qubit."""
    r = np.asarray(r, float)
    dr = np.asarray(dr, float)
    r2 = float(r @ r)
    if r2 >= 1.0 - 1e-12:
        return float(dr @ dr)
    return float(dr @ dr + (r @ dr) ** 2 / (1.0 - r2))


class TestDensityMatrix:
    def test_pure_normalizes(self):
        rho = DensityMatrix.pure([2.0, 0.0])
        assert np.allclose(rho.matrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(np.diag([1.5, -0.5]))


class TestArrayOwnership:
    """Every quantum value holds finite, read-only arrays the caller cannot reach."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("build, label", [
        (DensityMatrix, "density matrix"),
        (lambda m: Povm((0.5 * np.eye(2), m)), "POVM element 1"),
        (lambda m: PhaseChannelFamily("dephasing", 0.9, m), "rho0"),
    ], ids=["density-matrix", "povm", "rho0"])
    def test_rejects_non_finite_naming_array_and_index(self, build, label, value):
        m = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        m[1, 0] = value
        with pytest.raises(ValueError, match=rf"{label} has a non-finite value at index \(1, 0\)"):
            build(m)

    @pytest.mark.parametrize("case", ["povm", "family"])
    def test_caller_writes_change_nothing(self, case):
        rho = PLUS.copy()
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        if case == "povm":
            povm = Povm((np.eye(2) - minus, minus))
            minus[0, 1] = minus[1, 0] = 5.0
            assert povm.elements[1][0, 1] == -0.5
            assert not any(m.flags.writeable for m in povm.elements)
        else:
            family = PhaseChannelFamily("dephasing", 0.9, rho)
            assert qfi(family, 0.3) == pytest.approx(0.9)
            rho[0, 1] = rho[1, 0] = 5.0
            assert qfi(family, 0.3) == pytest.approx(0.9)
            assert family.rho0[0, 1] == PLUS[0, 1] and not family.rho0.flags.writeable


class TestPhaseGate:
    def test_identity_at_zero(self):
        assert np.allclose(phase_gate(0.0, 4), np.eye(4))

    def test_pi_maps_plus_to_minus(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert np.allclose(phase_gate(PI, 2) @ plus, minus)

    def test_power_additivity(self):
        phi = 0.371
        for n in range(1, 17):
            assert np.max(np.abs(np.linalg.matrix_power(phase_gate(phi, 3), n)
                                 - phase_gate(n * phi, 3))) < 1e-12

    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            phase_gate(0.1, 1)


def transfer_trace(kind, eta, phi):
    """tr state(phi) for every matrix unit |a><b| as input state.

    It equals the identity exactly when the Kraus operators resolve the
    identity, i.e. when the channel preserves the trace of every input.
    """
    dim = 3 if kind == "erasure" else 2
    out = np.empty((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[a, b] = 1.0
            out[a, b] = np.trace(PhaseChannelFamily(kind, eta, unit).state(phi))
    return out


class TestChannels:
    @pytest.mark.parametrize("kind", ["dephasing", "amplitude-damping", "erasure"])
    @pytest.mark.parametrize("eta", ETAS)
    def test_kraus_completeness(self, kind, eta):
        total = transfer_trace(kind, eta, phi=0.7)
        assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-12

    def test_eta_domain(self):
        with pytest.raises(ValueError, match="eta"):
            PhaseChannelFamily("dephasing", 0.0, PLUS)
        with pytest.raises(ValueError, match="eta"):
            PhaseChannelFamily("dephasing", 1.5, PLUS)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            PhaseChannelFamily("bitflip", 0.5, PLUS)

    def test_noiseless_dephasing_equals_unitary(self):
        rng = np.random.default_rng(11)
        u = phase_gate(0.9, 2)
        for _ in range(100):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = DensityMatrix.pure(psi).matrix
            out = PhaseChannelFamily("dephasing", 1.0, rho).state(0.9)
            assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-12

    def test_dephasing_scales_coherence_by_sqrt_eta(self):
        eta = 0.64
        out = PhaseChannelFamily("dephasing", eta, PLUS).state(0.0)
        assert abs(out[0, 1]) == pytest.approx(math.sqrt(eta) * 0.5, abs=1e-12)

    def test_amplitude_damping_decays_excited_population(self):
        eta = 0.36
        rho = DensityMatrix.pure([0.0, 1.0]).matrix
        out = PhaseChannelFamily("amplitude-damping", eta, rho).state(0.2)
        assert out[1, 1].real == pytest.approx(eta, abs=1e-12)
        assert out[0, 0].real == pytest.approx(1.0 - eta, abs=1e-12)

    def test_erasure_loss_probability(self):
        eta = 0.7
        rng = np.random.default_rng(3)
        loss = np.zeros((3, 3), dtype=complex)
        loss[2, 2] = 1.0
        for _ in range(10):
            psi = np.zeros(3, dtype=complex)
            psi[:2] = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = DensityMatrix.pure(psi).matrix
            out = PhaseChannelFamily("erasure", eta, rho).state(0.5)
            assert np.trace(loss @ out).real == pytest.approx(1.0 - eta, abs=1e-12)


class TestQfi:
    def test_pure_phase_qubit(self):
        family = noon_family(1)
        assert qfi(family, 0.42) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_noon_heisenberg(self, n):
        # independent oracle: QFI of a pure family is 4 Var(generator)
        family = noon_family(n)
        assert qfi(family, 1.1) == pytest.approx(n ** 2, rel=1e-6)
        gen = np.diag([0.0, float(n)])
        var = np.trace(PLUS @ gen @ gen).real - np.trace(PLUS @ gen).real ** 2
        assert 4.0 * var == pytest.approx(n ** 2)

    def test_dephased_qubit_closed_form(self):
        for eta in (0.2, 0.5, 0.9):
            family = PhaseChannelFamily("dephasing", eta, PLUS)
            value = qfi(family, 0.8)
            assert value == pytest.approx(eta, abs=1e-9)
            # Bloch-vector oracle: r = sqrt(eta)(cos phi, sin phi, 0)
            s = math.sqrt(eta)
            r = [s * math.cos(0.8), s * math.sin(0.8), 0.0]
            dr = [-s * math.sin(0.8), s * math.cos(0.8), 0.0]
            assert value == pytest.approx(bloch_qfi(r, dr), abs=1e-9)

    def test_rejects_non_hermitian_family(self):
        bad = PhaseChannelFamily("dephasing", 0.9, np.array([[1.0, 0.1], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            qfi(bad, 0.1)


class TestClassicalFi:
    def test_sigma_x_measurement_saturates_at_half_pi(self):
        family = noon_family(1)
        fi = classical_fi_of_povm(family, plus_minus_povm(2), PI / 2)
        assert fi == pytest.approx(1.0, abs=1e-9)
        assert fi <= qfi(family, PI / 2) + 1e-9

    def test_computational_basis_is_blind(self):
        family = noon_family(1)
        povm = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        assert classical_fi_of_povm(family, povm, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_qfi_over_random_povms(self):
        rng = np.random.default_rng(123)
        family = PhaseChannelFamily("dephasing", 0.8, PLUS)
        q = qfi(family, 0.6)
        for _ in range(100):
            povm = random_povm(rng, 2, int(rng.integers(2, 5)))
            assert classical_fi_of_povm(family, povm, 0.6) <= q + 1e-9


class TestPovm:
    def test_resolution_enforced(self):
        with pytest.raises(ValueError, match="identity"):
            Povm((0.5 * np.eye(2),))

    def test_positivity_enforced(self):
        good = np.diag([1.5, 0.5]).astype(complex)
        bad = np.diag([-0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            Povm((good, bad))

    def test_random_povm_is_valid(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3):
            povm = random_povm(rng, dim, 4)
            total = sum(povm.elements)
            assert np.max(np.abs(total - np.eye(dim))) < 1e-12


class TestFisherCaps:
    def test_asymptotic_values(self):
        assert asymptotic_fi_cap(100, 0.5) == pytest.approx(100.0)
        assert asymptotic_fi_cap(100, 0.9) == pytest.approx(900.0)
        assert math.isinf(asymptotic_fi_cap(10, 1.0))

    def test_single_gate_qfi_below_cap(self):
        for eta in (0.3, 0.6, 0.9):
            family = PhaseChannelFamily("dephasing", eta, PLUS)
            assert qfi(family, 0.4) <= asymptotic_fi_cap(1, eta) + 1e-9

    def test_finite_n_values_and_limits(self):
        assert finite_n_fi_cap(100, 0.9) == pytest.approx(900.0 / 1.09, rel=1e-12)
        # large-N ratio to the asymptotic cap approaches 1
        assert (finite_n_fi_cap(10 ** 7, 0.9)
                / asymptotic_fi_cap(10 ** 7, 0.9)) == pytest.approx(1.0, abs=1e-5)
        # noiseless corner recovers the Heisenberg value N^2
        assert finite_n_fi_cap(8, 1.0) == pytest.approx(64.0)
        assert finite_n_fi_cap(8, 1.0 - 1e-12) == pytest.approx(64.0, rel=1e-9)

    def test_finite_n_never_exceeds_asymptotic_or_heisenberg(self):
        for eta in (0.2, 0.7, 0.95):
            for n in (1, 3, 10, 100, 10_000):
                cap = finite_n_fi_cap(n, eta)
                assert cap <= asymptotic_fi_cap(n, eta) + 1e-12
                assert cap <= n ** 2 + 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            asymptotic_fi_cap(0, 0.5)
        with pytest.raises(ValueError):
            finite_n_fi_cap(10, 0.0)


class TestMiCap:
    def test_asymptotic_example(self):
        report = mi_cap(100, 0.5, "asymptotic")
        assert report.value == pytest.approx(math.log(1.0 + 10.0 * PI), rel=1e-12)

    def test_finite_n_example(self):
        report = mi_cap(100, 0.9, "finite-N")
        assert report.value == pytest.approx(math.log(1.0 + PI * math.sqrt(900.0 / 1.09)),
                                             abs=1e-9)

    def test_noiseless_limit_recovers_heisenberg_form(self):
        for n in (4, 64, 1024):
            report = mi_cap(n, 1.0 - 1e-12, "finite-N")
            assert report.value == pytest.approx(math.log1p(PI * n), rel=1e-6)

    def test_finite_n_below_asymptotic(self):
        for eta in (0.3, 0.9, 0.99):
            for n in (2, 10, 1000):
                assert mi_cap(n, eta, "finite-N").value <= mi_cap(n, eta, "asymptotic").value

    def test_noiseless_flagged(self):
        report = mi_cap(10, 1.0, "asymptotic")
        assert math.isinf(report.value)
        assert "noiseless-no-cap" in report.flags

    def test_amplitude_damping_defaults_with_caveat(self):
        # the exact amplitude-damping cap is not built in: defaulting to the
        # dephasing cap is flagged, and an explicit cap clears the caveat
        default = mi_cap(100, 0.9, "finite-N", kind="amplitude-damping")
        assert "amplitude-damping-default-cap" in default.flags
        assert default.value == mi_cap(100, 0.9, "finite-N").value
        configured = mi_cap(100, 0.9, "finite-N", kind="amplitude-damping", fi_cap=500.0)
        assert "configured-fi-cap" in configured.flags
        assert "amplitude-damping-default-cap" not in configured.flags
        assert configured.value == pytest.approx(math.log1p(PI * math.sqrt(500.0)))

    def test_unknown_regime(self):
        with pytest.raises(ValueError, match="regime"):
            mi_cap(10, 0.5, "exact")

    def test_unknown_regime_with_fi_cap(self):
        with pytest.raises(ValueError, match="unknown regime 'bogus'"):
            mi_cap(1, 0.9, regime="bogus", fi_cap=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            mi_cap(10, 0.5, kind="bitflip")


class TestTransitionSweep:
    NS = np.unique(np.logspace(0.0, 6.0, 121).astype(np.int64))

    def test_slope_limits(self):
        saw_small_n_regime = False
        for eta in (0.5, 0.9, 0.99):
            rows = transition_sweep(eta, self.NS)
            f_as = eta / (1.0 - eta)
            for row in rows:
                assert 0.5 - 0.05 <= row["slope"] <= 1.0 + 0.05
                if row["N"] < 0.05 * f_as:
                    saw_small_n_regime = True
                    assert row["slope"] == pytest.approx(1.0, abs=0.05)
                if row["N"] > 20.0 * f_as:
                    assert row["slope"] == pytest.approx(0.5, abs=0.05)
        assert saw_small_n_regime

    def test_cap_monotone_in_n(self):
        for eta in (0.5, 0.9, 0.99):
            caps = [row["mi_cap_nats"] for row in transition_sweep(eta, self.NS)]
            assert all(b >= a for a, b in zip(caps, caps[1:]))

    def test_transition_point_increases_with_eta(self):
        crossings = []
        for eta in (0.5, 0.9, 0.99):
            rows = transition_sweep(eta, self.NS)
            slopes = np.array([r["slope"] for r in rows])
            ns = np.array([r["N"] for r in rows], dtype=float)
            crossings.append(float(np.interp(-0.75, -slopes, np.log(ns))))
        assert crossings[0] < crossings[1] < crossings[2]

    def test_reference_columns(self):
        rows = transition_sweep(0.9, [1, 10, 100])
        for row in rows:
            assert row["hs_ref"] == pytest.approx(math.log(row["N"]))
            assert row["sql_ref"] == pytest.approx(0.5 * math.log(row["N"]))

    def test_asymptotic_regime_slope_is_half(self):
        rows = transition_sweep(0.9, self.NS[:40], regime="asymptotic")
        for row in rows:
            assert row["slope"] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("regime", ["finite-N", "asymptotic"])
    def test_every_row_is_mi_cap_bitwise(self, regime):
        # a vector np.log1p differs from math.log1p in the last bit on some CPUs
        for eta in (0.1, 0.5, 0.9, 0.99):
            for row in transition_sweep(eta, range(1, 400), regime):
                assert row["mi_cap_nats"] == mi_cap(row["N"], eta, regime).value, row


class TestNoonOutcomeModel:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_one_bit_ceiling(self, n):
        cond = noon_outcome_model(n)
        joint = JointModel(PriorDensity.rectangle(cond.grid), cond)
        assert mutual_information(joint).mi <= math.log(2.0) + 1e-6

    def test_heisenberg_fisher_but_bounded_information(self):
        n = 8
        assert qfi(noon_family(n), 0.3) == pytest.approx(n ** 2, rel=1e-9)
        cond = noon_outcome_model(n)
        joint = JointModel(PriorDensity.rectangle(cond.grid), cond)
        assert mutual_information(joint).mi <= math.log(2.0) + 1e-6

    def test_n_equal_one_is_the_cos_model(self):
        cond = noon_outcome_model(1)
        joint = JointModel(PriorDensity.rectangle(cond.grid), cond)
        assert mutual_information(joint).mi == pytest.approx(1.0 - math.log(2.0), abs=1e-6)


class TestChannelOutcomeModel:
    def test_dephasing_model_fisher_peaks_at_eta(self):
        from infobounds.stat_model import fisher_information
        grid = ParameterGrid(0.0, 2.0 * PI, 2001)
        eta = 0.8
        cond = channel_outcome_model("dephasing", eta, grid)
        values = fisher_information(cond).values
        # F(phi) = eta sin^2 phi / (1 - eta cos^2 phi) peaks at eta
        assert np.max(values) == pytest.approx(eta, abs=1e-6)

    def test_erasure_model_has_three_outcomes(self):
        grid = ParameterGrid(0.0, 2.0 * PI, 201)
        cond = channel_outcome_model("erasure", 0.6, grid)
        assert cond.n_outcomes == 3
        np.testing.assert_allclose(cond.probs[2], 0.4, atol=1e-12)


def reference_kraus(kind, eta):
    """Noise Kraus operators written out here, independently of the package."""
    s, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    if kind == "dephasing":
        return (math.sqrt((1.0 + s) / 2.0) * np.eye(2),
                math.sqrt((1.0 - s) / 2.0) * np.diag([1.0, -1.0]))
    if kind == "amplitude-damping":
        return (np.array([[1.0, 0.0], [0.0, s]]), np.array([[0.0, r], [0.0, 0.0]]))
    lost = [np.zeros((3, 3)) for _ in range(3)]
    lost[0][2, 2], lost[1][2, 0], lost[2][2, 1] = 1.0, r, r
    return (np.diag([s, s, 0.0]), *lost)


def reference_table(kind, eta, rho0, povm, grid, gates):
    """p(x|phi) and its derivative point by point from sum_k K_k U rho0 U^dag K_k^dag."""
    kraus = reference_kraus(kind, eta)
    dim = rho0.shape[0]
    gen = np.zeros((dim, dim))
    gen[1, 1] = gates
    probs = np.empty((povm.n_outcomes, grid.points))
    dprobs = np.empty_like(probs)
    for j, phi in enumerate(grid.values):
        u = phase_gate(gates * phi, dim)
        r = u @ rho0 @ u.conj().T
        dr = 1j * (gen @ r - r @ gen)
        rho = sum(k @ r @ k.conj().T for k in kraus)
        drho = sum(k @ dr @ k.conj().T for k in kraus)
        for x, m in enumerate(povm.elements):
            probs[x, j] = np.trace(rho @ m).real
            dprobs[x, j] = np.trace(drho @ m).real
    return probs, dprobs


def random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real).matrix


class TestOutcomeTableEquivalence:
    GRID = ParameterGrid(0.0, 2.0 * PI, 201)
    TOL = 1e-13

    def assert_matches(self, cond, reference):
        probs, dprobs = reference
        assert np.max(np.abs(cond.probs - probs)) <= self.TOL
        assert np.max(np.abs(cond.dprobs - dprobs)) <= self.TOL

    @pytest.mark.parametrize("kind", ["dephasing", "amplitude-damping", "erasure"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_channel_outcome_model(self, kind, seed):
        rng = np.random.default_rng(seed)
        dim = 3 if kind == "erasure" else 2
        eta = float(rng.uniform(0.1, 1.0))
        rho0 = random_state(rng, dim)
        povm = random_povm(rng, dim, int(rng.integers(2, 5)))
        cond = channel_outcome_model(kind, eta, self.GRID, rho0=rho0, povm=povm)
        self.assert_matches(cond, reference_table(kind, eta, rho0, povm, self.GRID, 1))

    @pytest.mark.parametrize("kind", ["dephasing", "amplitude-damping", "erasure"])
    def test_channel_outcome_model_defaults(self, kind):
        dim = 3 if kind == "erasure" else 2
        psi = np.zeros(dim)
        psi[:2] = 1.0
        rho0 = DensityMatrix.pure(psi).matrix
        cond = channel_outcome_model(kind, 0.7, self.GRID)
        self.assert_matches(cond, reference_table(kind, 0.7, rho0, plus_minus_povm(dim),
                                                  self.GRID, 1))

    @pytest.mark.parametrize("kind", ["dephasing", "amplitude-damping", "erasure"])
    @pytest.mark.parametrize("gates", [1, 3, 16])
    def test_wound_family(self, kind, gates):
        rng = np.random.default_rng(gates)
        dim = 3 if kind == "erasure" else 2
        eta = float(rng.uniform(0.1, 1.0))
        rho0 = random_state(rng, dim)
        povm = random_povm(rng, dim, int(rng.integers(2, 5)))
        family = PhaseChannelFamily(kind, eta, rho0, gates=gates)
        cond = _family_outcome_model(family, povm, self.GRID)
        self.assert_matches(cond, reference_table(kind, eta, rho0, povm, self.GRID, gates))

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_noon_outcome_model(self, n):
        rng = np.random.default_rng(n)
        for povm in (plus_minus_povm(2), random_povm(rng, 2, 3)):
            cond = noon_outcome_model(n, povm, self.GRID)
            self.assert_matches(cond, reference_table("dephasing", 1.0, PLUS, povm,
                                                      self.GRID, n))


class TestInputValidation:
    @pytest.mark.parametrize("gates", [2.5, 2.0, "2", True])
    def test_non_integer_gates_rejected(self, gates):
        with pytest.raises(TypeError, match="gates must be an integer"):
            PhaseChannelFamily("dephasing", 0.9, PLUS, gates=gates)

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (3, 3)])
    def test_rho0_must_be_a_channel_sized_square(self, shape):
        with pytest.raises(ValueError, match=r"input state shape .* does not match channel dim 2"):
            PhaseChannelFamily("dephasing", 0.9, np.full(shape, 0.5))

    def test_numpy_integer_gates_accepted(self):
        assert PhaseChannelFamily("dephasing", 0.9, PLUS, gates=np.int64(3)).gates == 3

    @pytest.mark.parametrize("rho0, message", [
        ([[0.5, 0.9], [0.0, 0.5]], "not Hermitian"),
        ([[0.6, 0.0], [0.0, 0.6]], "trace"),
        ([[1.5, 0.0], [0.0, -0.5]], "negative eigenvalue"),
    ])
    def test_channel_model_rejects_invalid_state(self, rho0, message):
        grid = ParameterGrid(0.0, 2.0 * PI, 101)
        with pytest.raises(ValueError, match=message):
            channel_outcome_model("dephasing", 0.9, grid, rho0=rho0)

    @pytest.mark.parametrize("rho0, message", [
        ([[1.5, 1.5], [1.5, 1.5]], "trace"),
        ([[0.5, 0.9], [0.0, 0.5]], "not Hermitian"),
        ([[1.5, 0.0], [0.0, -0.5]], "negative eigenvalue"),
    ])
    @pytest.mark.parametrize("fisher", [
        qfi, lambda family, phi: classical_fi_of_povm(family, plus_minus_povm(2), phi),
    ], ids=["qfi", "cfi"])
    def test_fisher_rejects_invalid_state(self, rho0, message, fisher):
        family = PhaseChannelFamily("dephasing", 0.9, np.array(rho0))
        with pytest.raises(ValueError, match=message):
            fisher(family, 0.3)

    def test_channel_model_accepts_density_matrix(self):
        grid = ParameterGrid(0.0, 2.0 * PI, 101)
        plain = channel_outcome_model("dephasing", 0.9, grid, rho0=PLUS)
        wrapped = channel_outcome_model("dephasing", 0.9, grid, rho0=DensityMatrix(PLUS))
        np.testing.assert_array_equal(plain.probs, wrapped.probs)


class TestWindingAliasing:
    GRID = ParameterGrid(0.0, 2.0 * PI, 101)

    @pytest.mark.parametrize("n", [13, 100000])
    def test_coarse_grid_rejected(self, n):
        with pytest.raises(ValueError, match=f"phase winding {n} is aliased by grid spacing"):
            noon_outcome_model(n, grid=self.GRID)

    def test_eight_points_per_period_accepted(self):
        cond = noon_outcome_model(12, grid=self.GRID)
        joint = JointModel(PriorDensity.rectangle(cond.grid), cond)
        assert mutual_information(joint).mi == pytest.approx(1.0 - math.log(2.0), abs=1e-3)

    @pytest.mark.parametrize("n", [13, 25, 1000])
    def test_suggested_points_are_the_smallest_that_pass(self, n):
        with pytest.raises(ValueError) as info:
            noon_outcome_model(n, grid=self.GRID)
        points = int(str(info.value).rsplit("at least ", 1)[1].split()[0])
        assert points % 2 == 1
        noon_outcome_model(n, grid=ParameterGrid(0.0, 2.0 * PI, points))
        with pytest.raises(ValueError, match="aliased"):
            noon_outcome_model(n, grid=ParameterGrid(0.0, 2.0 * PI, points - 2))

    def test_wound_family_rejected(self):
        family = PhaseChannelFamily("dephasing", 0.9, PLUS, gates=13)
        with pytest.raises(ValueError, match="aliased"):
            _family_outcome_model(family, plus_minus_povm(2), self.GRID)


# The phase-channel algebra as first written, kept as references: the rewrite
# takes the trig once per distinct |W|, applies the noise as one superoperator
# and reads every outcome of a POVM from one matvec.

def reference_outcome_table(family, povm, grid):
    """The outcome table with cos/sin taken for every one of the d^2 entries."""
    heisenberg = np.array([sum(k.conj().T @ m @ k for k in family.kraus)
                           for m in povm.elements])
    coeff = (family.rho0[None, :, :] * heisenberg.transpose(0, 2, 1)).reshape(len(heisenberg), -1)
    winding = family.winding.reshape(-1)
    angle = np.outer(winding, grid.values)
    cos, sin = np.cos(angle), np.sin(angle)
    probs = coeff.real @ cos - coeff.imag @ sin
    dprobs = -((coeff.real * winding) @ sin + (coeff.imag * winding) @ cos)
    return probs, dprobs


def reference_noisy(family, r):
    return sum(k @ r @ k.conj().T for k in family.kraus)


def reference_state_and_derivative(family, phi):
    """rho(phi) and its derivative with the noise applied Kraus by Kraus."""
    wound = family.rho0 * np.exp(1j * family.winding * phi)
    return reference_noisy(family, wound), reference_noisy(family, 1j * family.winding * wound)


def reference_qfi(family, phi):
    rho, drho = reference_state_and_derivative(family, phi)
    evals, evecs = np.linalg.eigh(rho)
    d = evecs.conj().T @ drho @ evecs
    sums = evals[:, None] + evals[None, :]
    keep = sums > 1e-12
    return float(2.0 * np.sum(np.abs(d[keep]) ** 2 / sums[keep]))


def reference_cfi(family, povm, phi):
    """The Fisher information with two traces per POVM element."""
    rho, drho = reference_state_and_derivative(family, phi)
    fi = 0.0
    for m in povm.elements:
        p = float(np.trace(rho @ m).real)
        dp = float(np.trace(drho @ m).real)
        if p <= 0.0:
            if abs(dp) > 1e-9:
                return math.inf
            continue
        fi += dp * dp / p
    return fi


def random_family_and_povm(rng, kind, gates=1):
    dim = 3 if kind == "erasure" else 2
    family = PhaseChannelFamily(kind, float(rng.uniform(0.1, 1.0)), random_state(rng, dim),
                                gates=gates)
    return family, random_povm(rng, dim, int(rng.integers(2, 5)))


KINDS = ["dephasing", "amplitude-damping", "erasure"]


class TestAgainstReferences:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("gates", [1, 3, 16])
    @pytest.mark.parametrize("lower, points", [(0.0, 201), (-PI, 401), (0.0, 2001)])
    def test_outcome_table_bits(self, kind, gates, lower, points):
        rng = np.random.default_rng(100 * gates + points)
        family, povm = random_family_and_povm(rng, kind, gates)
        grid = ParameterGrid(lower, lower + 2.0 * PI, points)
        cond = _family_outcome_model(family, povm, grid)
        probs, dprobs = reference_outcome_table(family, povm, grid)
        assert cond.probs.tobytes() == probs.tobytes()  # also tells -0.0 from +0.0
        assert cond.dprobs.tobytes() == dprobs.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("gates", [1, 3, 16])
    def test_fisher_informations_match_references(self, kind, gates):
        # the superoperator and the stacked POVM re-associate sums of a few
        # terms: measured at most 3e-14 relative, on CFI values near 1e-7
        rng = np.random.default_rng(gates)
        for _ in range(10):
            family, povm = random_family_and_povm(rng, kind, gates)
            phi = float(rng.uniform(-PI, 3.0 * PI))
            assert qfi(family, phi) == pytest.approx(reference_qfi(family, phi),
                                                     rel=1e-13, abs=0.0)
            assert classical_fi_of_povm(family, povm, phi) == pytest.approx(
                reference_cfi(family, povm, phi), rel=1e-13, abs=0.0)

    def test_states_match_references(self):
        rng = np.random.default_rng(8)
        for kind in KINDS:
            family, _ = random_family_and_povm(rng, kind, 5)
            for phi in (0.0, -1.3, 4.1):
                rho, drho = reference_state_and_derivative(family, phi)
                assert np.max(np.abs(family.state(phi) - rho)) <= 1e-15
                assert np.max(np.abs(family.derivative(phi) - drho)) <= 1e-14


def scalar_loop_cfi(family, povm, phi):
    """The CFI as a scalar loop over outcomes, its first form: one term at a
    time, in outcome order, from the same probabilities as the package."""
    elements = povm._stack.reshape(povm.n_outcomes, -1).view(np.float64)
    probs = elements @ family.state(phi).reshape(-1).view(np.float64)
    dprobs = elements @ family.derivative(phi).reshape(-1).view(np.float64)
    fi = 0.0
    for p, dp in zip(probs.tolist(), dprobs.tolist()):
        if p <= 0.0:
            if abs(dp) > ZERO_DERIV_TOL:
                return math.inf
            continue
        fi += dp * dp / p
    return fi


class TestCfiScoreRule:
    """The CFI takes its terms from the rule that F(phi) and P use."""

    def test_bits_equal_the_scalar_loop(self):
        rng = np.random.default_rng(2024)
        for i in range(600):
            kind = KINDS[i % 3]
            dim = 3 if kind == "erasure" else 2
            family = PhaseChannelFamily(kind, float(rng.uniform(0.05, 1.0)),
                                        random_state(rng, dim), gates=int(rng.integers(1, 6)))
            povm = random_povm(rng, dim, int(rng.integers(2, 9)))
            for phi in rng.uniform(0.0, 2.0 * PI, 2).tolist():
                assert classical_fi_of_povm(family, povm, phi).hex() == \
                    scalar_loop_cfi(family, povm, phi).hex()

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_bits_equal_the_scalar_loop_at_noon_zeros(self, n):
        # one outcome has p = 0 at phi = k pi / n, with pdot = 0 up to round-off
        family, povm = noon_family(n), plus_minus_povm(2)
        for k in range(2 * n + 1):
            phi = k * PI / n
            assert classical_fi_of_povm(family, povm, phi).hex() == \
                scalar_loop_cfi(family, povm, phi).hex()

    def test_pointwise_cfi_equals_fisher_of_the_grid_table(self):
        # two paths to one number: the table re-associates the state's sums,
        # measured at most 1.5e-14 relative over these 900 points
        rng = np.random.default_rng(17)
        grid = ParameterGrid(0.0, 2.0 * PI, 201)
        for i in range(90):
            family, povm = random_family_and_povm(rng, KINDS[i % 3], int(rng.integers(1, 6)))
            profile = _family_outcome_model(family, povm, grid).fisher
            for j in rng.choice(grid.points, 10, replace=False).tolist():
                assert classical_fi_of_povm(family, povm, float(grid.values[j])) == \
                    pytest.approx(profile.values[j], rel=1e-12, abs=0.0)
                assert not profile.divergent[j]


class TestFisherOracles:
    @pytest.mark.parametrize("kind", KINDS)
    def test_cfi_never_exceeds_qfi_over_random_states_and_povms(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(60):
            family, povm = random_family_and_povm(rng, kind, int(rng.integers(1, 5)))
            phi = float(rng.uniform(0.0, 2.0 * PI))
            assert classical_fi_of_povm(family, povm, phi) <= qfi(family, phi) * (1.0 + 1e-9)

    @pytest.mark.parametrize("gates", [1, 2, 7])
    def test_erasure_pure_state_closed_form(self, gates):
        # rho(phi) = eta |psi_phi><psi_phi| + (1 - eta) |2><2|, the loss level being
        # phi-independent: QFI = eta 4 Var(g |1><1|) = eta 4 g^2 |b|^2 (1 - |b|^2)
        rng = np.random.default_rng(gates)
        for _ in range(10):
            eta = float(rng.uniform(0.05, 1.0))
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = np.array([a, b, 0.0]) / math.hypot(abs(a), abs(b))
            family = PhaseChannelFamily("erasure", eta, DensityMatrix.pure(psi).matrix,
                                        gates=gates)
            b2 = abs(psi[1]) ** 2
            want = eta * 4.0 * gates ** 2 * b2 * (1.0 - b2)
            assert qfi(family, float(rng.uniform(0.0, 2.0 * PI))) == pytest.approx(
                want, rel=1e-12, abs=0.0)


class TestTrigSymmetry:
    """The per-|W| outcome table reads cos(W phi) and sin(W phi) for W < 0 off
    |W| phi.  Its bits equal the per-entry build only while NumPy's cos is
    even and its sin odd, bitwise, on the angles the package forms."""

    @pytest.mark.parametrize("points", [201, 2001, 20001])
    def test_cos_even_and_sin_odd_bitwise(self, points):
        values = ParameterGrid(0.0, 2.0 * PI, points).values
        for winding in range(1, 251):
            x = winding * values
            assert np.cos(-x).tobytes() == np.cos(x).tobytes(), \
                f"np.cos is not even bitwise at winding {winding} on {points} points"
            assert np.sin(-x).tobytes() == (-np.sin(x)).tobytes(), \
                f"np.sin is not odd bitwise at winding {winding} on {points} points"


def reference_random_povm(rng, dim, n_outcomes):
    """``random_povm`` as a loop over outcomes, its first form: two normal
    draws per outcome, a Python sum, one sandwich per element."""
    raw = []
    for _ in range(n_outcomes):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(a @ a.conj().T)
    total = sum(raw)
    evals, evecs = np.linalg.eigh(total)
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    return Povm(tuple(inv_sqrt @ e @ inv_sqrt for e in raw))


class TestPhaseCovariance:
    # every noise kind commutes with the gate, which is what lets the QFI be
    # computed once per family; a kind that does not must fail here
    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    @pytest.mark.parametrize("gates", [1, 3, 16])
    def test_states_are_gate_conjugates_of_phase_zero(self, kind, gates):
        rng = np.random.default_rng(gates)
        for _ in range(5):
            family, _ = random_family_and_povm(rng, kind, gates)
            rho0, drho0 = family.state(0.0), family.derivative(0.0)
            for phi in rng.uniform(-PI, 3.0 * PI, 4):
                u = phase_gate(gates * phi, rho0.shape[0])
                for have, at_zero in ((family.state(phi), rho0), (family.derivative(phi), drho0)):
                    want = u @ at_zero @ u.conj().T
                    assert np.max(np.abs(have - want)) <= 1e-15 * np.linalg.norm(at_zero)

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_qfi_is_the_same_float_at_every_phase(self, kind):
        rng = np.random.default_rng(11)
        family, _ = random_family_and_povm(rng, kind, int(rng.integers(1, 17)))
        at_zero = qfi(family, 0.0)
        assert all(qfi(family, float(phi)) == at_zero for phi in rng.uniform(-10.0, 10.0, 8))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n_outcomes", [2, 3, 4, 5, 6])
    def test_random_povm_bits_equal_the_loop(self, dim, n_outcomes):
        for seed in range(20):
            povm = random_povm(np.random.default_rng(seed), dim, n_outcomes)
            reference = reference_random_povm(np.random.default_rng(seed), dim, n_outcomes)
            assert povm._stack.tobytes() == reference._stack.tobytes()

    def test_phase_tables_are_built_once_per_grid(self, monkeypatch):
        def counted(f):
            def call(*args, **kwargs):
                calls.append(f.__name__)
                return f(*args, **kwargs)
            return call

        calls = []
        monkeypatch.setattr(np, "cos", counted(np.cos))
        monkeypatch.setattr(np, "sin", counted(np.sin))
        first = channel_outcome_model("erasure", 0.8, ParameterGrid(0.25, 0.25 + 2.0 * PI, 1201))
        assert calls
        calls.clear()
        again = channel_outcome_model("erasure", 0.8, ParameterGrid(0.25, 0.25 + 2.0 * PI, 1201))
        assert calls == []
        assert again.probs.tobytes() == first.probs.tobytes()
        assert again.dprobs.tobytes() == first.dprobs.tobytes()
        winding = PhaseChannelFamily("erasure", 0.8, np.eye(3) / 3.0).winding
        tables = _phase_tables(first.grid, tuple(winding.reshape(-1).tolist()))
        assert not any(table.flags.writeable for table in tables)


class TestQuantumInputsNamed:
    def test_povm_elements_of_different_shapes(self):
        with pytest.raises(ValueError, match=r"POVM element 1 has shape \(3, 3\), "
                                             r"element 0 has shape \(2, 2\)"):
            Povm((0.5 * np.eye(2), np.eye(3)))

    def test_cfi_povm_of_another_dimension(self):
        family = PhaseChannelFamily("erasure", 0.9, DensityMatrix.pure([1.0, 1.0, 0.0]).matrix)
        with pytest.raises(ValueError, match="POVM dim 2 does not match state dim 3"):
            classical_fi_of_povm(family, plus_minus_povm(2), 0.3)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fisher", [
        qfi, lambda family, phi: classical_fi_of_povm(family, plus_minus_povm(2), phi),
    ], ids=["qfi", "cfi"])
    def test_non_finite_phi(self, fisher, phi):
        with pytest.raises(ValueError, match="phi must be finite"):
            fisher(PhaseChannelFamily("dephasing", 0.9, PLUS), phi)

    @pytest.mark.parametrize("build, message", [
        (lambda: Povm((np.zeros((0, 0)),)), r"POVM element 0 must be at least 1x1, got \(0, 0\)"),
        (lambda: DensityMatrix(np.zeros((0, 0))), r"density matrix must be at least 1x1"),
        (lambda: random_povm(np.random.default_rng(0), 0, 2), "dim must be >= 1, got 0"),
    ], ids=["povm", "density-matrix", "random-povm"])
    def test_empty_matrices_rejected_by_name(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_povm_elements_are_read_only_views_of_one_stack(self):
        povm = random_povm(np.random.default_rng(4), 3, 4)
        stack = povm.elements[0].base
        assert stack.shape == (4, 3, 3) and not stack.flags.writeable
        assert all(m.base is stack and not m.flags.writeable for m in povm.elements)

    @pytest.mark.parametrize("bad, message", [
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "POVM element 1 is not Hermitian"),
        (np.diag([-0.5, 0.5]), "POVM element 1 is not positive semidefinite"),
    ])
    def test_first_bad_element_named(self, bad, message):
        good = np.diag([1.5, 0.5])
        with pytest.raises(ValueError, match=message):
            Povm((good, bad, bad))


class TestZeroStateVector:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_pure_rejects_a_zero_vector(self, dim):
        with pytest.raises(ValueError, match="state vector has zero norm"):
            DensityMatrix.pure([0.0] * dim)


class TestGateCount:
    @pytest.mark.parametrize("n", [2.5, 2.0, True, "3"])
    @pytest.mark.parametrize("call", [
        asymptotic_fi_cap, finite_n_fi_cap, mi_cap,
        lambda n, eta: mi_cap(n, eta, fi_cap=1.0),
    ], ids=["asymptotic", "finite-N", "mi-cap", "mi-cap-configured"])
    def test_non_integer_n_rejected(self, call, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            call(n, 0.9)

    def test_sweep_rejects_non_integer_n(self):
        # 1.5 and 2.5 used to become rows for N = 1 and N = 2
        with pytest.raises(TypeError, match="N values must be an integer, got 1.5"):
            transition_sweep(0.9, [1.5, 2.5, 10])

    @pytest.mark.parametrize("call, message", [
        (lambda: asymptotic_fi_cap(0, 0.5), "n must be >= 1"),
        (lambda: mi_cap(0, 0.5, fi_cap=1.0), "n must be >= 1"),
        (lambda: transition_sweep(0.9, [0, 1, 2]), "N values must be >= 1"),
        (lambda: finite_n_fi_cap(10, 0.0), r"eta must be in \(0, 1\]"),
        (lambda: transition_sweep(1.5, [1, 2]), r"eta must be in \(0, 1\]"),
    ], ids=["asymptotic-n", "mi-cap-n", "sweep-n", "finite-N-eta", "sweep-eta"])
    def test_messages_below_one_and_for_eta(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestHeisenbergFold:
    # the stacked fold sums K^dag M K over Kraus operators from zeros, as the
    # per-element Python sum of the reference does; the bytes must agree
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_families_bitwise(self, kind):
        rng = np.random.default_rng(31)
        grid = ParameterGrid(0.0, 2.0 * PI, 201)
        for _ in range(30):
            family, povm = random_family_and_povm(rng, kind, int(rng.integers(1, 8)))
            cond = _family_outcome_model(family, povm, grid)
            probs, dprobs = reference_outcome_table(family, povm, grid)
            assert cond.probs.tobytes() == probs.tobytes()
            assert cond.dprobs.tobytes() == dprobs.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_builtin_povm_bitwise(self, kind):
        grid = ParameterGrid(0.0, 2.0 * PI, 401)
        cond = channel_outcome_model(kind, 0.7, grid)
        dim = 3 if kind == "erasure" else 2
        psi = np.zeros(dim)
        psi[:2] = 1.0
        family = PhaseChannelFamily(kind, 0.7, DensityMatrix.pure(psi).matrix)
        probs, dprobs = reference_outcome_table(family, plus_minus_povm(dim), grid)
        assert cond.probs.tobytes() == probs.tobytes()
        assert cond.dprobs.tobytes() == dprobs.tobytes()
