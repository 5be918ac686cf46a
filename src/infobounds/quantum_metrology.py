"""Noisy qubit/qutrit phase estimation: channels, QFI, and global MI caps.

The phase is imprinted by the gate U_phi = diag(1, e^{i phi}, 1, ...) and
degraded by one of three Kraus families (dephasing, amplitude damping,
erasure) parameterized by a noise strength eta in (0, 1], eta = 1 noiseless.
:class:`PhaseChannelFamily` is the one channel value.  Every noise kind
commutes with the gate, so rho(phi) = U sigma U^dag, with sigma the state
at phi = 0: a family keeps sigma, and its states, outcome probabilities and
QFI are read off it.  Each outcome probability is the one-frequency
polynomial a_x + Re(c_x e^{i g phi}), whose rows 1, cos(g phi) and
sin(g phi) over a grid are built once per (grid, g) and kept read-only; the
QFI does not depend on phi.  Known Fisher-information caps for N noisy
gates translate into global mutual-information caps ln(1 + pi sqrt(F_cap))
on the phase interval [0, 2 pi), which is where the Heisenberg-to-SQL
transition shows up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bounds import BoundReport, UPPER_MI
from .numerics import ParameterGrid
from .stat_model import ZERO_DERIV_TOL, ConditionalModel, _frozen, _read_only, _score_terms

__all__ = [
    "DensityMatrix",
    "PhaseChannelFamily",
    "Povm",
    "asymptotic_fi_cap",
    "channel_outcome_model",
    "classical_fi_of_povm",
    "finite_n_fi_cap",
    "mi_cap",
    "noon_family",
    "noon_outcome_model",
    "plus_minus_povm",
    "qfi",
    "random_povm",
    "transition_sweep",
]

MATRIX_TOL = 1e-12     # hermiticity / trace / completeness / POVM resolution
PSD_TOL = 1e-10        # eigenvalue negativity allowance for states

CHANNEL_KINDS = ("dephasing", "amplitude-damping", "erasure")


def _check_square(label: str, shape: tuple) -> None:
    """ValueError unless ``shape`` is that of a square matrix, at least 1x1."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{label} must be square, got {shape}")
    if shape[0] == 0:
        raise ValueError(f"{label} must be at least 1x1, got {shape}")


def _check_hermitian_psd(stack: np.ndarray, labels, tol: float, negative: str) -> None:
    """ValueError naming the first of the (n, d, d) ``stack`` that is not Hermitian
    or has an eigenvalue below -tol; one batched check each."""
    asymmetric = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2)) > MATRIX_TOL
    if asymmetric.any():
        raise ValueError(f"{labels[asymmetric.argmax()]} is not Hermitian")
    negatives = np.linalg.eigvalsh(stack)[:, 0] < -tol
    if negatives.any():
        raise ValueError(f"{labels[negatives.argmax()]} {negative}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite.

    Compared and hashed by identity, like the other array-valued values.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m, _ = _frozen("density matrix", self.matrix, dtype=complex)
        _check_square("density matrix", m.shape)
        _check_hermitian_psd(m[None], ("density matrix",), PSD_TOL, "has a negative eigenvalue")
        if abs(np.trace(m).real - 1.0) > MATRIX_TOL or abs(np.trace(m).imag) > MATRIX_TOL:
            raise ValueError("density matrix trace must be 1")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, statevector) -> "DensityMatrix":
        psi = np.asarray(statevector, dtype=complex)
        norm = np.linalg.norm(psi)
        if norm == 0.0:
            raise ValueError(f"state vector has zero norm: {statevector!r}")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operator-valued measure: M_x >= 0, sum_x M_x = identity.

    The elements are copied once into one read-only (K, d, d) complex stack;
    ``elements`` are its views.  Compared and hashed by identity.
    """

    elements: tuple
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        shapes = [np.shape(m) for m in elements]
        for i, shape in enumerate(shapes):
            _check_square(f"POVM element {i}", shape)
        if not shapes:
            raise ValueError("POVM needs at least one element")
        for i, shape in enumerate(shapes):
            if shape != shapes[0]:
                raise ValueError(f"POVM element {i} has shape {shape}, "
                                 f"element 0 has shape {shapes[0]}")
        stack = np.array(elements, dtype=complex)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a sum past the range
            total = stack.sum(axis=0)
        if not np.isfinite(total).all():
            for i, m in enumerate(stack):  # the first non-finite entry raises, naming its element
                _frozen(f"POVM element {i}", m, dtype=complex)
        labels = [f"POVM element {i}" for i in range(len(stack))]
        _check_hermitian_psd(stack, labels, MATRIX_TOL, "is not positive semidefinite")
        if np.max(np.abs(total - np.eye(stack.shape[1]))) > MATRIX_TOL:
            raise ValueError("POVM elements do not resolve the identity")
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "elements", tuple(stack))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def _checked_phi(phi: float) -> float:
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    return phi


def _checked_gates(n, eta: float, label: str = "n") -> int:
    """Gate count ``n`` as an int: TypeError unless an integer, ValueError below 1 or bad eta."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError(f"{label} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{label} must be >= 1, got {n}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    return int(n)


def _noise_kraus(kind: str, eta: float) -> tuple:
    if kind == "dephasing":
        k0 = math.sqrt((1.0 + math.sqrt(eta)) / 2.0) * np.eye(2, dtype=complex)
        k1 = math.sqrt((1.0 - math.sqrt(eta)) / 2.0) * np.diag([1.0, -1.0]).astype(complex)
        return (k0, k1)
    if kind == "amplitude-damping":
        k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(eta)]], dtype=complex)
        k1 = np.array([[0.0, math.sqrt(1.0 - eta)], [0.0, 0.0]], dtype=complex)
        return (k0, k1)
    if kind == "erasure":
        s, r = math.sqrt(eta), math.sqrt(1.0 - eta)
        k0 = np.diag([s, s, 0.0]).astype(complex)
        k1 = np.zeros((3, 3), dtype=complex)
        k1[2, 2] = 1.0
        k2 = np.zeros((3, 3), dtype=complex)
        k2[2, 0] = r
        k3 = np.zeros((3, 3), dtype=complex)
        k3[2, 1] = r
        return (k0, k1, k2, k3)
    raise ValueError(f"unknown channel kind {kind!r}; expected one of {CHANNEL_KINDS}")


@dataclass(frozen=True, eq=False)
class PhaseChannelFamily:
    """phi -> sum_k K_k U_{g phi} rho0 U_{g phi}^dag K_k^dag with an analytic phi-derivative.

    ``gates`` winds the phase g times before the single noise application,
    which is exactly the N00N-subspace equivalence of g sequential noiseless
    gates.  Every noise ``kraus`` commutes with the gate up to a phase, so
    the state is the gate acting on sigma = sum_k K_k rho0 K_k^dag, the state
    at phi = 0, kept read-only.  The gate acts entrywise: rho(phi)_ab =
    sigma_ab e^{i W_ab phi} with the winding W_ab = g (n_a - n_b), where n is
    the |1><1| occupation of each level, so the derivative multiplies the
    same entries by i W.
    ``rho0`` is any finite matrix, kept read-only; ``state`` and ``derivative``
    are linear in it, and :attr:`input_state` checks it is a density matrix.
    Families compare and hash by identity.
    """

    kind: str
    eta: float
    rho0: np.ndarray
    gates: int = 1
    kraus: tuple = field(init=False, repr=False)
    winding: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _checked_gates(self.gates, self.eta, "gates")
        noise = _noise_kraus(self.kind, self.eta)  # validates kind
        rho, _ = _frozen("rho0", self.rho0, dtype=complex)
        dim = noise[0].shape[0]
        if rho.shape != (dim, dim):
            raise ValueError(f"input state shape {rho.shape} does not match channel dim {dim}")
        n = np.zeros(dim)
        n[1] = 1.0
        object.__setattr__(self, "rho0", rho)
        object.__setattr__(self, "kraus", noise)
        object.__setattr__(self, "winding", self.gates * (n[:, None] - n[None, :]))

    @cached_property
    def input_state(self) -> DensityMatrix:
        """``rho0`` as a :class:`DensityMatrix`, validated on first access (ValueError)."""
        return DensityMatrix(self.rho0)

    @cached_property
    def _sigma(self) -> np.ndarray:
        """sigma = sum_k K_k rho0 K_k^dag, the state at phi = 0, read-only."""
        return _read_only(sum(k @ self.rho0 @ k.conj().T for k in self.kraus))[0]

    def state(self, phi: float) -> np.ndarray:
        return self._sigma * np.exp(1j * self.winding * _checked_phi(phi))

    def derivative(self, phi: float) -> np.ndarray:
        return 1j * self.winding * self.state(phi)

    @cached_property
    def _qfi(self) -> float:
        """4 g^2 |sigma_01|^2 / (sigma_00 + sigma_11), 0 where that weight is 0;
        see :func:`qfi`."""
        rho = self._sigma
        weight = (rho[0, 0] + rho[1, 1]).real
        if weight <= 0.0:
            return 0.0
        return float(4.0 * self.gates ** 2 * abs(rho[0, 1]) ** 2 / weight)


def noon_family(n: int) -> PhaseChannelFamily:
    """Pure |+> family accumulating phase n*phi: the N00N two-level subspace."""
    plus = DensityMatrix.pure([1.0, 1.0]).matrix
    return PhaseChannelFamily("dephasing", 1.0, plus, gates=n)


def qfi(family: PhaseChannelFamily, phi: float) -> float:
    """Quantum Fisher information of a phase-channel family at phi.

    Every noise kind is phase-covariant: each Kraus operator satisfies
    K_k U_phi = e^{i theta_k} U_phi K_k, so rho(phi) = U rho(0) U^dag with
    U = exp(i phi g |1><1|), and the QFI is the same at every phi.  No
    channel leaves a coherence between the loss level 2 and {|0>, |1>}, and
    the generator acts inside that qubit block B of weight p = B_00 + B_11,
    so the QFI is p times that of the qubit B / p turned about z:

        QFI = 4 g^2 |rho_01|^2 / (rho_00 + rho_11),   0 where rho_00 + rho_11 = 0,

    of rho = rho(0), computed once per family and kept on it.  It agrees
    with 2 sum_{j,k} |<j| d rho |k>|^2 / (l_j + l_k) over the eigenvalues of
    rho(phi) to round-off (measured at most 1.7e-15 relative).  Raises
    ValueError when the family's input state is not a density matrix or phi
    is not finite.
    """
    family.input_state  # raises unless rho0 is a density matrix
    _checked_phi(phi)
    return family._qfi


def classical_fi_of_povm(family: PhaseChannelFamily, povm: Povm, phi: float) -> float:
    """Fisher information of the outcome distribution p(x|phi) = tr(rho_phi M_x).

    Never exceeds the QFI of the family.  Returns inf when some outcome has
    zero probability but a probability derivative above ``ZERO_DERIV_TOL``
    (1e-6), the rule of F(phi) with phi an angle: one phi is at hand, so
    there is no span to scale by.  Raises ValueError when the family's input
    state is not a density matrix, the POVM acts on another dimension, or
    phi is not finite.
    """
    family.input_state  # raises unless rho0 is a density matrix
    a, c = _outcome_coefficients(family, povm)
    g = family.gates
    cz = c * np.exp(1j * g * _checked_phi(phi))
    # in outcome order: a 1-D np.sum adds pairwise, Python 3.12's sum compensates
    return float(np.add.accumulate(_score_terms(a + cz.real, -g * cz.imag, ZERO_DERIV_TOL))[-1])


def plus_minus_povm(dim: int = 2) -> Povm:
    """sigma_x-basis measurement on the qubit block; the loss level, if any, is its own outcome."""
    plus = np.zeros((dim, dim), dtype=complex)
    plus[:2, :2] = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    minus = np.zeros((dim, dim), dtype=complex)
    minus[:2, :2] = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    if dim == 2:
        return Povm((plus, minus))
    rest = np.eye(dim, dtype=complex)
    rest[:2, :2] = 0.0
    return Povm((plus, minus, rest))


def random_povm(rng: np.random.Generator, dim: int, n_outcomes: int) -> Povm:
    """Random POVM: normalized random positive operators, S^{-1/2} E_x S^{-1/2}.

    E_x = a_x a_x^dag with a_x = z[x, 0] + i z[x, 1] from one normal draw z
    of shape (n_outcomes, 2, dim, dim), and S = sum_x E_x.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n_outcomes < 2:
        raise ValueError(f"need at least 2 outcomes, got {n_outcomes}")
    z = rng.normal(size=(n_outcomes, 2, dim, dim))
    a = z[:, 0] + 1j * z[:, 1]
    raw = a @ a.conj().swapaxes(1, 2)
    total = raw.sum(axis=0)
    evals, evecs = np.linalg.eigh(total)
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    return Povm(tuple(inv_sqrt @ raw @ inv_sqrt))


def asymptotic_fi_cap(n: int, eta: float) -> float:
    """Asymptotic Fisher-information cap for N noisy phase gates: N eta / (1 - eta).

    Valid for dephasing and erasure under any adaptive strategy.  At eta = 1
    there is no cap (noiseless case); inf is returned as the divergence flag.
    """
    _checked_gates(n, eta)
    if eta == 1.0:
        return math.inf
    return n * eta / (1.0 - eta)


def finite_n_fi_cap(n: int, eta: float) -> float:
    """Finite-N Fisher cap N F_as / (1 + F_as / N), entanglement-assisted strategy.

    Computed as N^2 eta / (eta + N (1 - eta)), which is stable in the
    noiseless limit where it degenerates to the Heisenberg value N^2.  Never
    exceeds the asymptotic cap nor N^2.
    """
    _checked_gates(n, eta)
    return n * n * eta / (eta + n * (1.0 - eta))


def _fi_cap_function(regime: str):
    caps = {"finite-N": finite_n_fi_cap, "asymptotic": asymptotic_fi_cap}
    if regime not in caps:
        raise ValueError(f"unknown regime {regime!r}; expected 'asymptotic' or 'finite-N'")
    return caps[regime]


def mi_cap(n: int, eta: float, regime: str = "finite-N", kind: str = "dephasing",
           fi_cap: float | None = None) -> BoundReport:
    """Global MI cap for N noisy phase gates on phi in [0, 2 pi): ln(1 + pi sqrt(F_cap)).

    This is the finite-support MI bound with the Fisher information replaced
    by its channel cap, so it holds for any input state and measurement.
    The builtin cap formulas are the dephasing/erasure ones; the exact
    amplitude-damping cap differs and is not built in, so that channel either
    takes an explicit ``fi_cap`` or falls back to the dephasing cap with a
    caveat flag.
    """
    _checked_gates(n, eta)
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}; expected one of {CHANNEL_KINDS}")
    cap_function = _fi_cap_function(regime)
    flags: tuple = ()
    if fi_cap is not None:
        if fi_cap < 0.0:
            raise ValueError(f"fi_cap must be nonnegative, got {fi_cap}")
        cap = float(fi_cap)
        flags += ("configured-fi-cap",)
    else:
        cap = cap_function(n, eta)
    if kind == "amplitude-damping" and fi_cap is None:
        flags += ("amplitude-damping-default-cap",)
    if eta == 1.0:
        flags += ("noiseless-no-cap",)
    value = math.inf if math.isinf(cap) else math.log1p(math.pi * math.sqrt(cap))
    return BoundReport(f"mi-cap-{regime}", value, UPPER_MI, flags=flags)


def transition_sweep(eta: float, n_values, regime: str = "finite-N") -> list[dict]:
    """MI cap versus N, with reference scalings and a local slope.

    Rows carry the cap in nats, the Heisenberg (ln N) and standard-quantum-
    limit (ln(N)/2) reference scalings, and the local log-log slope of the
    bound argument pi sqrt(F_cap(N)).  In the default finite-N regime the
    slope moves from 1 (Heisenberg) to 1/2 (SQL) around N ~ eta/(1-eta);
    stronger noise moves the transition to smaller N.  The asymptotic
    regime has no cap at eta = 1, so sweeping it there raises ValueError.
    """
    ns = np.array(sorted({_checked_gates(n, eta, "N values") for n in n_values}), dtype=np.int64)
    if ns.size < 2:
        raise ValueError("need at least two distinct N values for a sweep")
    cap_fn = _fi_cap_function(regime)
    if regime == "asymptotic" and eta == 1.0:
        raise ValueError("the noiseless asymptotic regime (eta = 1) has no Fisher cap to "
                         "sweep; use eta < 1 or the finite-N regime")
    caps = np.array([cap_fn(int(n), eta) for n in ns])
    arg = math.pi * np.sqrt(caps)
    slope = np.gradient(np.log(arg), np.log(ns.astype(float)))
    rows = []
    for i, n in enumerate(ns):
        rows.append({
            "eta": eta,
            "N": int(n),
            "mi_cap_nats": math.log1p(arg[i]),  # the scalar log1p of mi_cap, bit for bit
            "hs_ref": float(np.log(n)),
            "sql_ref": float(0.5 * np.log(n)),
            "slope": float(slope[i]),
        })
    return rows


def _check_povm_dim(family: PhaseChannelFamily, povm: Povm) -> None:
    if povm.dim != family.rho0.shape[0]:
        raise ValueError(f"POVM dim {povm.dim} does not match state dim {family.rho0.shape[0]}")


def _outcome_coefficients(family: PhaseChannelFamily, povm: Povm) -> tuple:
    """(a, c) of p(x|phi) = a_x + Re(c_x e^{i g phi}) for a Hermitian state.

    p(x|phi) = sum_ab sigma_ab (M_x)_ba e^{i W_ab phi}: a_x sums the terms
    with W_ab = 0, and the terms with W_ab = -g are the conjugates of those
    with W_ab = g, which c_x sums twice.
    """
    _check_povm_dim(family, povm)
    terms = family._sigma * povm._stack.transpose(0, 2, 1)
    a = terms[:, family.winding == 0.0].sum(axis=1).real
    c = 2.0 * terms[:, family.winding == family.gates].sum(axis=1)
    return a, c


@lru_cache(maxsize=8)
def _phase_basis(grid: ParameterGrid, gates: int) -> np.ndarray:
    """Read-only (3, points) rows 1, cos(g phi) and sin(g phi) over the grid."""
    angle = gates * grid.values
    return _read_only(np.stack([np.ones_like(angle), np.cos(angle), np.sin(angle)]))[0]


def _family_outcome_model(family: PhaseChannelFamily, povm: Povm,
                          grid: ParameterGrid) -> ConditionalModel:
    """p(x|phi) = a_x + Re(c_x e^{i g phi}) over the grid, (a, c) from
    :func:`_outcome_coefficients`.

    The table and its derivative are real products of three coefficient
    columns with the rows 1, cos(g phi) and sin(g phi), built once per
    (grid, g) and cached, since every family of a gate count shares them.
    Grids with fewer than 8 points per period of the fastest winding g alias
    it and are rejected.  Raises ValueError unless ``rho0`` is a density matrix.
    """
    family.input_state  # the split into a and c needs a Hermitian state
    a, c = _outcome_coefficients(family, povm)
    g = family.gates
    if g * grid.spacing > math.pi / 4.0:
        span = grid.upper - grid.lower
        points = 2 * math.floor(2.0 * g * span / math.pi) + 1
        while g * (span / (points - 1)) > math.pi / 4.0:
            points += 2
        raise ValueError(f"phase winding {g:g} is aliased by grid spacing {grid.spacing:.6g} "
                         f"(fewer than 8 points per period); use at least {points} grid points")
    basis = _phase_basis(grid, g)
    probs = np.stack([a, c.real, -c.imag], axis=1) @ basis
    dprobs = np.stack([np.zeros_like(a), -g * c.imag, -g * c.real], axis=1) @ basis
    return ConditionalModel(grid, *_read_only(probs, dprobs), "analytic")


def noon_outcome_model(n: int, povm: Povm | None = None,
                       grid: ParameterGrid | None = None) -> ConditionalModel:
    """Outcome model of a measured N00N family: p(x|phi) = tr(rho_{N phi} M_x).

    The family has QFI N^2, yet being confined to a two-dimensional subspace
    it can deliver at most ln 2 nats of mutual information; feeding this
    model to the MI oracle exhibits exactly that ceiling.
    """
    if grid is None:
        grid = ParameterGrid(0.0, 2.0 * math.pi, 2001)
    if povm is None:
        povm = plus_minus_povm(2)
    return _family_outcome_model(noon_family(n), povm, grid)


def channel_outcome_model(kind: str, eta: float, grid: ParameterGrid,
                          rho0=None, povm: Povm | None = None) -> ConditionalModel:
    """Outcome model of a measured noisy phase channel on the given grid."""
    dim = 3 if kind == "erasure" else 2
    if rho0 is None:
        psi = np.zeros(dim, dtype=complex)
        psi[0] = psi[1] = 1.0
        rho0 = DensityMatrix.pure(psi)
    elif not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix(rho0)
    if povm is None:
        povm = plus_minus_povm(dim)
    family = PhaseChannelFamily(kind, eta, rho0.matrix)
    vars(family)["input_state"] = rho0  # the cached check, made once above
    return _family_outcome_model(family, povm, grid)
