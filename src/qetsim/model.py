"""Closed-form quantities of the minimal two-qubit energy-teleportation model:
Hamiltonians, ground state, protocol angles, analytic energies, the no-go gap
for unconditioned local unitaries, entropy bounds, and free time evolution.

The model couples a local field h > 0 and an interaction k > 0. Constants are
chosen so every term has zero mean in the ground state.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .simcore import (
    ATOL_DECOMP,
    DensityMatrix,
    NumericalError,
    Observable,
    PureState,
    expectation,
    is_unitary,
    ry_matrix,
)

# Parameter sets shared by the property suites: a coarse (h, k) grid plus the
# pairs with frozen reference energies. REPORT_PAIRS are the four comparison
# defaults; REFERENCE_PAIRS add (1, 0.1).
GRID_H = (0.5, 1.0, 1.5)
GRID_K = (0.1, 0.2, 0.5, 1.0)
REPORT_PAIRS = ((1.0, 0.2), (1.0, 0.5), (1.0, 1.0), (1.5, 1.0))
REFERENCE_PAIRS = ((1.0, 0.1),) + REPORT_PAIRS


@dataclass(frozen=True)
class ModelParams:
    h: float
    k: float

    def __post_init__(self) -> None:
        # h*h rather than h**2: float ** raises OverflowError instead of giving inf
        if not (self.h > 0 and self.k > 0 and np.isfinite(self.h * self.h + self.k * self.k)):
            raise ValueError(
                f"couplings must be positive with finite h^2 + k^2, got h={self.h}, k={self.k}"
            )

    @property
    def r(self) -> float:
        return float(np.sqrt(self.h**2 + self.k**2))


@dataclass(frozen=True)
class HamiltonianSet:
    h0: Observable
    h1: Observable
    v: Observable
    htot: Observable


@dataclass(frozen=True)
class ProtocolAngles:
    theta: float
    phi: float


@dataclass(frozen=True)
class EntropyReport:
    s_ab: float                 # ground-state entanglement entropy, nats
    delta_s: float              # entropy drop caused by the measurement, nats
    xi: float                   # arctan(k/h), radians
    e_b: float                  # extractable energy, -analytic_E1
    delta_s_lower_bound: float  # bound that delta_s must dominate
    max_eb_lower_bound: float   # entropy-based lower bound on max extractable energy


_I2 = np.eye(2, dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_I4 = np.eye(4, dtype=complex)

Z0 = np.kron(_Z, _I2)
Z1 = np.kron(_I2, _Z)
X0 = np.kron(_X, _I2)
X0X1 = np.kron(_X, _X)


def build_hamiltonians(params: ModelParams) -> HamiltonianSet:
    h, k, r = params.h, params.k, params.r
    h0 = h * Z0 + (h**2 / r) * _I4
    h1 = h * Z1 + (h**2 / r) * _I4
    v = 2 * k * X0X1 + (2 * k**2 / r) * _I4
    return HamiltonianSet(h0=h0, h1=h1, v=v, htot=h0 + h1 + v)


def ground_state(params: ModelParams) -> PureState:
    """Unique ground state of the total Hamiltonian: a|00> - b|11>."""
    h, r = params.h, params.r
    a = np.sqrt((1.0 - h / r) / 2.0)
    b = np.sqrt((1.0 + h / r) / 2.0)
    return np.array([a, 0.0, 0.0, -b], dtype=complex)


def angles(params: ModelParams) -> ProtocolAngles:
    """Ground-prep rotation theta and the receiver's rotation phi.

    phi comes from a single atan2 so that cos(2 phi) and sin(2 phi) satisfy
    their defining pair of equations simultaneously, with 0 < phi < pi/4.
    """
    h, k, r = params.h, params.k, params.r
    a = np.sqrt((1.0 - h / r) / 2.0)
    theta = -float(np.arccos(a))
    phi = 0.5 * float(np.arctan2(h * k, h**2 + 2 * k**2))
    return ProtocolAngles(theta=theta, phi=phi)


def analytic_E0(params: ModelParams) -> float:
    """Mean energy the sender's X measurement deposits."""
    return params.h**2 / params.r


def analytic_E1(params: ModelParams) -> float:
    """Receiver-side mean energy after the conditional rotation (negative)."""
    h, k, r = params.h, params.k, params.r
    two_phi = 2.0 * angles(params).phi
    return -(h * k * np.sin(two_phi) - (h**2 + 2 * k**2) * (1.0 - np.cos(two_phi))) / r


def analytic_H1(params: ModelParams) -> float:
    """Exact local-field expectation after the conditional rotation."""
    h, k, r = params.h, params.k, params.r
    two_phi = 2.0 * angles(params).phi
    return (h**2 * (1.0 - np.cos(two_phi)) + h * k * np.sin(two_phi)) / r


def analytic_V(params: ModelParams) -> float:
    """Exact interaction expectation after the conditional rotation."""
    h, k, r = params.h, params.k, params.r
    two_phi = 2.0 * angles(params).phi
    return (2 * k**2 * (1.0 - np.cos(two_phi)) - 2 * h * k * np.sin(two_phi)) / r


def _projectors_x0() -> tuple[np.ndarray, np.ndarray]:
    return (_I4 + X0) / 2.0, (_I4 - X0) / 2.0


def rho_measured(params: ModelParams) -> DensityMatrix:
    """Post-measurement ensemble before the receiver acts: sum of the two
    X-projected ground-state branches."""
    g = ground_state(params)
    rho_g = np.outer(g, g.conj())
    p_plus, p_minus = _projectors_x0()
    return p_plus @ rho_g @ p_plus + p_minus @ rho_g @ p_minus


def rho_qet(params: ModelParams, phi: float | None = None) -> DensityMatrix:
    """Ensemble after the receiver's outcome-conditioned rotation RY(2 mu phi)
    on qubit 1. phi defaults to the protocol angle; passing another value
    models a receiver using a suboptimal rotation."""
    if phi is None:
        phi = angles(params).phi
    g = ground_state(params)
    rho = np.zeros((4, 4), dtype=complex)
    p_plus, p_minus = _projectors_x0()
    for mu, proj in ((1, p_plus), (-1, p_minus)):
        u1 = np.kron(_I2, ry_matrix(2.0 * mu * phi))
        branch = u1 @ (proj @ g)
        rho += np.outer(branch, branch.conj())
    return rho


def nogo_gap(params: ModelParams, w1: np.ndarray) -> float:
    """Energy change when the receiver applies an arbitrary unitary w1 (2x2,
    acting on qubit 1) to the post-measurement ensemble without using the
    measurement outcome. Nonnegative for every unitary: no outcome-blind
    local operation extracts energy."""
    w1 = np.asarray(w1, dtype=complex)
    if w1.shape != (2, 2) or not is_unitary(w1, ATOL_DECOMP):
        raise ValueError("w1 must be a 2x2 unitary")
    u = np.kron(_I2, w1)
    rho_w = u @ rho_measured(params) @ u.conj().T
    return expectation(rho_w, build_hamiltonians(params).htot) - analytic_E0(params)


def entropy_report(params: ModelParams) -> EntropyReport:
    """Entanglement entropy dropped by the measurement and the two energy
    bounds it implies. Post-measurement branches are pure products, so the
    drop equals the ground-state entropy itself. Natural logarithms."""
    h, k, r = params.h, params.k, params.r
    a2 = (1.0 - h / r) / 2.0
    b2 = (1.0 + h / r) / 2.0
    s_ab = float(-a2 * np.log(a2) - b2 * np.log(b2))
    delta_s = s_ab
    xi = float(np.arctan(k / h))
    c, s = np.cos(xi), np.sin(xi)
    e_b = -analytic_E1(params)
    delta_s_lower_bound = float(
        (1.0 + s**2) / (2.0 * c**3) * np.log((1.0 + c) / (1.0 - c)) * e_b / r
    )
    max_eb_lower_bound = float(
        2.0 * r * (np.sqrt(4.0 - 3.0 * c**2) - 2.0 + c**2) * delta_s
        / ((1.0 + c) * np.log(2.0 / (1.0 + c)) + (1.0 - c) * np.log(2.0 / (1.0 - c)))
    )
    return EntropyReport(
        s_ab=s_ab,
        delta_s=delta_s,
        xi=xi,
        e_b=e_b,
        delta_s_lower_bound=delta_s_lower_bound,
        max_eb_lower_bound=max_eb_lower_bound,
    )


def free_evolution_H1(params: ModelParams, t: float) -> float:
    """Local-field expectation at time t when the post-measurement ensemble
    evolves freely under the total Hamiltonian."""
    h, k, r = params.h, params.k, params.r
    return h**2 * (1.0 - np.cos(4.0 * k * t)) / (2.0 * r)


def free_evolution_V(params: ModelParams, t: float) -> float:
    """Interaction expectation under the same free evolution: identically 0."""
    return 0.0
