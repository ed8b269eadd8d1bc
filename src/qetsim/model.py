"""Closed-form quantities of the minimal two-qubit energy-teleportation model:
Hamiltonians, ground state, protocol angles, analytic energies, the no-go gap
for unconditioned local unitaries, entropy bounds, and free time evolution.

The model couples a local field h > 0 and an interaction k > 0. Constants are
chosen so every term has zero mean in the ground state.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import sys

import numpy as np

from .simcore import (
    ATOL_DECOMP,
    DensityMatrix,
    Observable,
    PureState,
    expectation,
    is_unitary,
    on_qubits,
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
        h, k = float(self.h), float(self.k)
        big = max(h, k)
        # h*h rather than h**2: float ** raises OverflowError instead of giving
        # inf. A normal max(h, k)^2 keeps r > 0 and h / r <= 1; a finite
        # h^2 + 2 k^2 keeps the protocol angle and the energies finite.
        if not (
            h > 0
            and k > 0
            and big * big >= sys.float_info.min
            and math.isfinite(h * h + 2.0 * k * k)
        ):
            raise ValueError(
                "couplings must be positive with a normal max(h, k)^2 and a finite "
                f"h^2 + 2 k^2, got h={self.h}, k={self.k}"
            )

    @property
    def r(self) -> float:
        return math.sqrt(self.h**2 + self.k**2)


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


_Z = np.diag([1.0, -1.0]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_I4 = np.eye(4, dtype=complex)

Z0 = on_qubits({0: _Z})
Z1 = on_qubits({1: _Z})
X0X1 = on_qubits({0: _X, 1: _X})


def build_hamiltonians(params: ModelParams) -> HamiltonianSet:
    h, k, r = params.h, params.k, params.r
    h0 = h * Z0 + (h**2 / r) * _I4
    h1 = h * Z1 + (h**2 / r) * _I4
    v = 2 * k * X0X1 + (2 * k**2 / r) * _I4
    return HamiltonianSet(h0=h0, h1=h1, v=v, htot=h0 + h1 + v)


def ground_state(params: ModelParams) -> PureState:
    """Unique ground state of the total Hamiltonian: a|00> - b|11>."""
    a, b = _amplitudes(params)
    return np.array([a, 0.0, 0.0, -b], dtype=complex)


def _amplitudes(params: ModelParams) -> tuple[float, float]:
    """a and b of the ground state. a^2 = (1 - h/r)/2 = (k/r)^2 / (2 + 2h/r): the
    last form neither cancels for k << h nor, like 2r(r + h), overflows."""
    h, k, r = params.h, params.k, params.r
    return k / r / math.sqrt(2.0 + 2.0 * h / r), math.sqrt((1.0 + h / r) / 2.0)


def angles(params: ModelParams) -> ProtocolAngles:
    """Ground-prep rotation theta and the receiver's rotation phi.

    phi comes from a single atan2 so that cos(2 phi) and sin(2 phi) satisfy
    their defining pair of equations simultaneously, with 0 < phi < pi/4.
    """
    theta = -float(np.arccos(_amplitudes(params)[0]))
    return ProtocolAngles(theta=theta, phi=float(_protocol_phi(params.h, params.k)))


def _protocol_phi(h, k):
    """The receiver's angle from a single atan2, over floats or arrays."""
    return 0.5 * np.arctan2(h * k, h**2 + 2 * k**2)


def _receiver_energies(h, k, phi=None):
    """<V> and <H1> after the receiver's rotation RY(2 mu phi), over broadcast
    floats or arrays of h, k and phi (default: the protocol angle). With
    a^2 - b^2 = -h/r and ab = k/(2r) the ensemble's 2k <X0X1> + 2k^2/r and
    h <Z1> + h^2/r become the forms below, free of cancelling terms; 2k and h
    are factored out so that neither 4k^2 nor 2h^2 overflows."""
    if phi is None:
        phi = _protocol_phi(h, k)
    sin_sq, sin_2phi = np.sin(phi) ** 2, np.sin(2.0 * phi)
    r = np.sqrt(h * h + k * k)
    v = 2 * k * ((2.0 * k * sin_sq - h * sin_2phi) / r)
    return v, h * ((2.0 * h * sin_sq + k * sin_2phi) / r)


def analytic_E0(params: ModelParams) -> float:
    """Mean energy the sender's X measurement deposits."""
    return params.h**2 / params.r


def analytic_E1(params: ModelParams) -> float:
    """Receiver-side mean energy after the conditional rotation (negative)."""
    # tan(2 phi) = h k / A with A = h^2 + 2 k^2 turns -E1 into h^2 k^2 / (r (A + D)),
    # D = hypot(h k, A), free of cancellation; in c = h/r and s = k/r it is
    # h c s^2 / (1 + s^2 + D/r^2), which neither overflows nor underflows early
    h, k, r = params.h, params.k, params.r
    c, s = h / r, k / r
    return -h * (c * s * s / (1.0 + s * s + math.hypot(c * s, 1.0 + s * s)))


def analytic_H1(params: ModelParams) -> float:
    """Exact local-field expectation after the conditional rotation."""
    return _receiver_energies(params.h, params.k)[1]


def analytic_V(params: ModelParams) -> float:
    """Exact interaction expectation after the conditional rotation."""
    return _receiver_energies(params.h, params.k)[0]


def rho_measured(params: ModelParams) -> DensityMatrix:
    """Post-measurement ensemble before the receiver acts: sum of the two
    X-projected ground-state branches."""
    return rho_qet(params, 0.0)


def rho_qet(params: ModelParams, phi: float | None = None) -> DensityMatrix:
    """Ensemble after the receiver's outcome-conditioned rotation RY(2 mu phi)
    on qubit 1; passing phi other than the protocol angle models a suboptimal
    receiver. The X outcome mu leaves (1, mu) (x) (a, -mu b)/2, which the
    rotation turns into (1, mu) (x) (p, mu q) with c, s = cos(phi), sin(phi)."""
    a, b = _amplitudes(params)
    if phi is None:
        phi = _protocol_phi(params.h, params.k)
    c, s = math.cos(phi), math.sin(phi)
    p, q = (a * c + b * s) / 2.0, (a * s - b * c) / 2.0
    plus, minus = np.array([p, q, p, q]), np.array([p, -q, -p, q])
    return (np.outer(plus, plus) + np.outer(minus, minus)).astype(complex)


def nogo_gap(params: ModelParams, w1: np.ndarray) -> float:
    """Energy change when the receiver applies an arbitrary unitary w1 (2x2,
    acting on qubit 1) to the post-measurement ensemble without using the
    measurement outcome. Nonnegative for every unitary: no outcome-blind
    local operation extracts energy."""
    w1 = np.asarray(w1, dtype=complex)
    if w1.shape != (2, 2) or not is_unitary(w1, ATOL_DECOMP):
        raise ValueError("w1 must be a 2x2 unitary")
    u = on_qubits({1: w1})
    rho_w = u @ rho_measured(params) @ u.conj().T
    return expectation(rho_w, build_hamiltonians(params).htot) - analytic_E0(params)


def entropy_report(params: ModelParams) -> EntropyReport:
    """Entanglement entropy dropped by the measurement and the two energy
    bounds it implies. Post-measurement branches are pure products, so the
    drop equals the ground-state entropy itself. Natural logarithms."""
    h, k, r = params.h, params.k, params.r
    # -a2 ln a2 - b2 ln b2 with b2 = 1 - a2 through log1p, which keeps the
    # a2-sized part of the second term as k/h -> 0; 0 log 0 = 0 once a2 underflows
    a2 = _amplitudes(params)[0] ** 2
    s_ab = -a2 * math.log(a2) - (1.0 - a2) * math.log1p(-a2) if a2 > 0.0 else 0.0
    delta_s = s_ab
    xi = float(np.arctan(k / h))
    # cos(xi) and sin(xi) straight from the couplings: cos(arctan(k/h)) is
    # 6e-17, not h/r, once k/h passes 1e16
    c, s = h / r, k / r
    e_b = -analytic_E1(params)
    if c in (0.0, 1.0):
        # both bounds vanish as k -> 0, where 1 - c rounds to 0 first; c
        # rounds to 0 only long after e_b has underflowed to 0
        delta_s_lower_bound = max_eb_lower_bound = 0.0
    else:
        # log((1+c)/(1-c)) e_b / (2 c^3) = (arctanh(c)/c) (e_b/c) / c: every
        # factor stays bounded as c -> 0, where e_b / c^2 -> r/4
        delta_s_lower_bound = float(
            (1.0 + s**2) * (np.arctanh(c) / c) * (e_b / c) / c / r
        )
        # sqrt(4 - 3c^2) - 2 + c^2 = c^2 (q - 1)/(q + 2): no cancellation at c -> 0
        q = np.sqrt(4.0 - 3.0 * c**2)
        max_eb_lower_bound = float(
            2.0 * r * c**2 * (q - 1.0) / (q + 2.0) * delta_s
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
    # halved first: h^2 (1 - cos) overflows near h = 1e154, where the result cannot
    return h**2 / 2.0 * (1.0 - np.cos(4.0 * k * t)) / r
