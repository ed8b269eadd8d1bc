"""Closed-form quantities of the minimal two-qubit energy-teleportation model:
Hamiltonians, ground state, protocol angles, analytic energies, the no-go gap
for unconditioned local unitaries, entropy bounds, and free time evolution.

The model couples a local field h > 0 and an interaction k > 0. Constants are
chosen so every term has zero mean in the ground state.

Every closed form is homogeneous in (h, k). With r = hypot(h, k), c = h/r and
s = k/r, each angle, amplitude and entropy is a function of (c, s) alone, and
each energy is h or k times factors in (c, s), multiplied from the coupling
outward so that nothing underflows before the result does. Scaling (h, k) by
2^m scales every energy by exactly 2^m wherever it is normal.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .simcore import (
    ATOL_DECOMP,
    DensityMatrix,
    Observable,
    PureState,
    _Record,
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


class ModelParams(_Record):
    h: float
    k: float

    def __post_init__(self) -> None:
        h, k = float(self.h), float(self.k)
        big = max(h, k)
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
        return math.hypot(self.h, self.k)


class HamiltonianSet(_Record):
    h0: Observable
    h1: Observable
    v: Observable
    htot: Observable


class ProtocolAngles(_Record):
    theta: float
    phi: float


class EntropyReport(_Record):
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


def _cs(params: ModelParams) -> tuple[float, float]:
    r = params.r
    return params.h / r, params.k / r


def _terms(params: ModelParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """(coefficient, zero-mean constant) of each local-field term, h Z + h c,
    and of the interaction, 2k X0X1 + 2k s."""
    c, s = _cs(params)
    return (params.h, params.h * c), (2.0 * params.k, 2.0 * params.k * s)


def build_hamiltonians(params: ModelParams) -> HamiltonianSet:
    (h, h_const), (two_k, v_const) = _terms(params)
    h0 = h * Z0 + h_const * _I4
    h1 = h * Z1 + h_const * _I4
    v = two_k * X0X1 + v_const * _I4
    return HamiltonianSet(h0=h0, h1=h1, v=v, htot=h0 + h1 + v)


def ground_state(params: ModelParams) -> PureState:
    """Unique ground state of the total Hamiltonian: a|00> - b|11>."""
    a, b = _amplitudes(*_cs(params))
    return np.array([a, 0.0, 0.0, -b], dtype=complex)


def _amplitudes(c: float, s: float) -> tuple[float, float]:
    """a and b of the ground state, with a^2 = (1 - c)/2 taken as s^2/(2 + 2c),
    which does not cancel as s -> 0."""
    return s / math.sqrt(2.0 + 2.0 * c), math.sqrt((1.0 + c) / 2.0)


def angles(params: ModelParams) -> ProtocolAngles:
    """Ground-prep rotation theta and the receiver's rotation phi.

    phi comes from a single atan2 so that cos(2 phi) and sin(2 phi) satisfy
    their defining pair of equations simultaneously, with 0 < phi < pi/4.
    """
    c, s = _cs(params)
    theta = -float(np.arccos(_amplitudes(c, s)[0]))
    return ProtocolAngles(theta=theta, phi=float(_protocol_phi(c, s)))


def _protocol_phi(c, s):
    """The receiver's angle from a single atan2, over floats or arrays."""
    return 0.5 * np.arctan2(c * s, c * c + 2.0 * s * s)


def _receiver_energies(h, k, r, phi=None):
    """<V> and <H1> after the receiver's rotation RY(2 mu phi), over broadcast
    floats or arrays of h, k, r = hypot(h, k) and phi (default: the protocol
    angle). With a^2 - b^2 = -c and ab = s/2 the ensemble's 2k <X0X1> + 2k s and
    h <Z1> + h c become the forms below, free of cancelling terms."""
    c, s = h / r, k / r
    if phi is None:
        phi = _protocol_phi(c, s)
    sin_phi, sin_2phi = np.sin(phi), np.sin(2.0 * phi)
    return (4.0 * k * s * sin_phi * sin_phi - 2.0 * k * c * sin_2phi,
            2.0 * h * c * sin_phi * sin_phi + h * s * sin_2phi)


def analytic_E0(params: ModelParams) -> float:
    """Mean energy the sender's X measurement deposits."""
    return params.h * _cs(params)[0]


def analytic_E1(params: ModelParams) -> float:
    """Receiver-side mean energy after the conditional rotation (negative)."""
    # tan(2 phi) = c s / (c^2 + 2 s^2) turns -E1 into h c s^2 / (1 + s^2 + D),
    # D = hypot(c s, 1 + s^2), free of cancellation
    c, s = _cs(params)
    return -params.h * c * s * s / (1.0 + s * s + math.hypot(c * s, 1.0 + s * s))


def analytic_H1(params: ModelParams) -> float:
    """Exact local-field expectation after the conditional rotation."""
    return _receiver_energies(params.h, params.k, params.r)[1]


def analytic_V(params: ModelParams) -> float:
    """Exact interaction expectation after the conditional rotation."""
    return _receiver_energies(params.h, params.k, params.r)[0]


def rho_measured(params: ModelParams) -> DensityMatrix:
    """Post-measurement ensemble before the receiver acts: sum of the two
    X-projected ground-state branches."""
    return rho_qet(params, 0.0)


def rho_qet(params: ModelParams, phi: float | None = None) -> DensityMatrix:
    """Ensemble after the receiver's outcome-conditioned rotation RY(2 mu phi)
    on qubit 1; passing phi other than the protocol angle models a suboptimal
    receiver. The X outcome mu leaves (1, mu) (x) (a, -mu b)/2, which the
    rotation turns into (1, mu) (x) (p, mu q)."""
    c, s = _cs(params)
    a, b = _amplitudes(c, s)
    if phi is None:
        phi = _protocol_phi(c, s)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    p, q = (a * cos_phi + b * sin_phi) / 2.0, (a * sin_phi - b * cos_phi) / 2.0
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
    c, s = _cs(params)
    # -a2 ln a2 - b2 ln b2 with b2 = 1 - a2 through log1p, which keeps the
    # a2-sized part of the second term as s -> 0; 0 log 0 = 0 once a2 underflows
    a2 = _amplitudes(c, s)[0] ** 2
    s_ab = -a2 * math.log(a2) - (1.0 - a2) * math.log1p(-a2) if a2 > 0.0 else 0.0
    e_b = -analytic_E1(params)
    # (1 + s^2) arctanh(c) e_b / (c^3 r), e_b = h c s^2 / (1 + s^2 + q), q = sqrt(1 + 3s^2):
    # arctanh(c) = asinh(c/s) keeps every digit as c -> 0, where its ratio to c
    # tends to 1, and is finite at c = 1; the factor s^2 vanishes as s -> 0
    q = math.sqrt(1.0 + 3.0 * s * s)
    atanh_ratio = math.asinh(c / s) / c if c and s * s else 1.0
    delta_s_lower_bound = (1.0 + s * s) * s * s / (1.0 + s * s + q) * atanh_ratio
    # 2 r c^2 (q - 1)/(q + 2) delta_s / ((1+c) log(2/(1+c)) + (1-c) log(2/(1-c))), whose
    # denominator is 2 delta_s (a2 = (1 - c)/2), with q - 1 = 3 s^2 / (q + 1)
    max_eb_lower_bound = 3.0 * params.h * c * s * s / ((q + 1.0) * (q + 2.0))
    xi = float(np.arctan(params.k / params.h))
    return EntropyReport(s_ab, s_ab, xi, e_b, delta_s_lower_bound, max_eb_lower_bound)


def free_evolution_H1(params: ModelParams, t: float) -> float:
    """Local-field expectation at time t when the post-measurement ensemble
    evolves freely under the total Hamiltonian."""
    return analytic_E0(params) / 2.0 * (1.0 - np.cos(4.0 * params.k * t))
