"""Closed-form model quantities against independently derived references."""

from __future__ import annotations

from decimal import Decimal, localcontext
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qetsim.analysis import evolution_scan
from qetsim.model import (
    GRID_H,
    GRID_K,
    REFERENCE_PAIRS,
    ModelParams,
    _receiver_energies,
    _terms,
    analytic_E0,
    analytic_E1,
    analytic_H1,
    analytic_V,
    angles,
    build_hamiltonians,
    entropy_report,
    free_evolution_H1,
    ground_state,
    nogo_gap,
    rho_measured,
    rho_qet,
)
from qetsim.protocol import Mode, Target, build_circuit, estimate_energy
from qetsim.simcore import (
    ATOL_ALGEBRA,
    ATOL_DECOMP,
    Cnot,
    Ry,
    evolve,
    exact_distribution,
    expectation,
    gate_unitary,
    is_hermitian,
)

Z0 = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)


def ry_matrix(theta):
    # RY(theta) = [[cos, -sin], [sin, cos]] of theta/2, with the library's arithmetic
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


# Ten-digit references computed with 40-digit arithmetic from the defining
# minimization: phi = argmin of the post-rotation receiver energy.
REFERENCE_TABLE = {
    (1.0, 0.1): (0.9950371902, 0.0144565145, -0.0193224832, -0.0048659687),
    (1.0, 0.2): (0.9805806757, 0.0521039848, -0.0701098165, -0.0180058317),
    (1.0, 0.5): (0.8944271910, 0.1873204098, -0.2598931857, -0.0725727759),
    (1.0, 1.0): (0.7071067812, 0.2598931857, -0.3746408196, -0.1147476339),
    (1.5, 1.0): (1.2480754415, 0.3480754415, -0.4905996075, -0.1425241660),
}


def grid_params() -> list[ModelParams]:
    return [ModelParams(h, k) for h in GRID_H for k in GRID_K]


def all_params() -> list[ModelParams]:
    return grid_params() + [ModelParams(h, k) for h, k in REFERENCE_PAIRS]


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, -0.5)
    for bad in (np.inf, np.nan, 1e300):
        with pytest.raises(ValueError):
            ModelParams(bad, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, bad)
    # a subnormal larger square (r = 0, or h / r > 1) and an overflowing h^2 + 2 k^2
    for h, k in ((1e-300, 1e-300), (1e-160, 1e-300), (9e153, 9e153)):
        with pytest.raises(ValueError):
            ModelParams(h, k)
    assert ModelParams(3.0, 4.0).r == pytest.approx(5.0, abs=ATOL_ALGEBRA)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    h=st.floats(min_value=0.0, exclude_min=True, allow_nan=False),
    k=st.floats(min_value=0.0, exclude_min=True, allow_nan=False),
)
# near the top of the domain 4 k^2 and 2 (h^2 + 2 k^2) overflow
@example(h=7e153, k=7e153)
@example(h=1e100, k=9e153)
def test_closed_forms_finite_on_accepted_couplings(h, k):
    try:
        params = ModelParams(h, k)
    except ValueError:
        return
    values = [
        analytic_E0(params), analytic_E1(params), analytic_H1(params), analytic_V(params),
        *angles(params)._values(), *entropy_report(params)._values(),
    ]
    assert all(np.isfinite(values))
    assert np.all(np.isfinite(ground_state(params)))


@pytest.mark.parametrize("params", all_params(), ids=str)
def test_hamiltonian_structure(params):
    hams = build_hamiltonians(params)
    assert np.allclose(hams.htot, hams.h0 + hams.h1 + hams.v, atol=ATOL_ALGEBRA)
    for term in (hams.h0, hams.h1, hams.v, hams.htot):
        assert is_hermitian(term)


@pytest.mark.parametrize("params", all_params(), ids=str)
def test_ground_state_zero_means_and_annihilation(params):
    g = ground_state(params)
    rho = np.outer(g, g.conj())
    hams = build_hamiltonians(params)
    for term in (hams.h0, hams.h1, hams.v):
        assert expectation(rho, term) == pytest.approx(0.0, abs=ATOL_ALGEBRA)
    # the constants shift the spectrum so the ground energy is exactly zero
    assert np.max(np.abs(hams.htot @ g)) < ATOL_ALGEBRA


@pytest.mark.parametrize("params", all_params(), ids=str)
def test_ground_state_is_lowest_eigenvector(params):
    hams = build_hamiltonians(params)
    evals, evecs = np.linalg.eigh(hams.htot)
    assert evals[0] == pytest.approx(0.0, abs=ATOL_ALGEBRA)
    lowest = evecs[:, 0]
    g = ground_state(params)
    overlap = abs(np.vdot(lowest, g))
    assert overlap == pytest.approx(1.0, abs=ATOL_DECOMP)


def test_local_term_minimum_eigenvalues():
    params = ModelParams(1.0, 1.0)
    hams = build_hamiltonians(params)
    h, k, r = params.h, params.k, params.r
    assert np.linalg.eigvalsh(hams.h1)[0] == pytest.approx(-h + h**2 / r, abs=1e-12)
    assert np.linalg.eigvalsh(hams.v)[0] == pytest.approx(-2 * k + 2 * k**2 / r, abs=1e-12)


@pytest.mark.parametrize("params", all_params(), ids=str)
def test_prep_circuit_reaches_ground_state(params):
    theta = angles(params).theta
    state = gate_unitary(Ry(2.0 * theta, 0)) @ np.eye(4)[0]
    state = gate_unitary(Cnot(0, 1)) @ state
    assert np.allclose(state, ground_state(params), atol=ATOL_ALGEBRA)


def test_prep_angle_amplitudes():
    # |00> amplitude at (1,1) is sqrt((1 - 1/sqrt(2))/2)
    g = ground_state(ModelParams(1.0, 1.0))
    assert g[0].real == pytest.approx(np.sqrt((1 - 1 / np.sqrt(2)) / 2), abs=1e-12)
    # weak local field: the ground state tends to the singlet-like balance
    weak = ModelParams(1e-8, 1.0)
    assert angles(weak).theta == pytest.approx(-np.pi / 4, abs=1e-7)
    g = ground_state(weak)
    assert g[0].real == pytest.approx(1 / np.sqrt(2), abs=1e-7)
    assert g[3].real == pytest.approx(-1 / np.sqrt(2), abs=1e-7)


def test_prep_angle_without_cancellation():
    # k << h: a from (1 - h/r)/2 loses about h^2/k^2 ulps; 40-digit reference
    theta = angles(ModelParams(316.2277660168379, 0.001)).theta
    assert theta == pytest.approx(-1.5707947456560665, rel=1e-15)


@pytest.mark.parametrize("params", all_params(), ids=str)
def test_phi_range_and_defining_equation(params):
    phi = angles(params).phi
    assert 0.0 < phi < np.pi / 4
    h, k = params.h, params.k
    assert np.tan(2 * phi) * (h**2 + 2 * k**2) == pytest.approx(h * k, abs=1e-10)


@pytest.mark.parametrize("h", np.logspace(-3, 7, 21).tolist(), ids="h={}".format)
def test_angles_and_xi_are_the_math_forms(h, monkeypatch):
    # bit for bit: numpy's arccos, arctan2, arctan and sin may round otherwise by
    # the CPU features they dispatch on, and every circuit is built from theta
    # and phi; the scalar closed forms take angles' phi and math.sin, never
    # numpy's arctan2 or sin, and equal the np.sin forms
    monkeypatch.setattr("qetsim.simcore.np.arctan2", None)
    monkeypatch.setattr("qetsim.simcore.np.sin", None)
    for k in np.logspace(-3, 8, 23).tolist():
        params = ModelParams(h, k)
        r = math.hypot(h, k)
        c, s = h / r, k / r
        got = angles(params)
        assert got.theta == -math.acos(s / math.sqrt(2.0 + 2.0 * c))
        assert got.phi == 0.5 * math.atan2(c * s, c * c + 2.0 * s * s)
        assert entropy_report(params).xi == math.atan(k / h)
        assert type(got.theta) is type(got.phi) is float
        v, h1 = _receiver_energies(h, k, r, got.phi, (np.sin(got.phi), np.sin(2.0 * got.phi)))
        energies = analytic_V(params), analytic_H1(params)
        assert energies == (v, h1)
        assert type(energies[0]) is type(energies[1]) is float
        assert np.array_equal(rho_qet(params), rho_qet(params, got.phi))


def test_phi_value_at_unit_couplings():
    phi = angles(ModelParams(1.0, 1.0)).phi
    assert np.cos(2 * phi) == pytest.approx(3 / np.sqrt(10), abs=1e-12)
    assert np.sin(2 * phi) == pytest.approx(1 / np.sqrt(10), abs=1e-12)


def test_conditional_rotations_cancel():
    phi = angles(ModelParams(1.0, 0.5)).phi
    prod = ry_matrix(2 * phi) @ ry_matrix(-2 * phi)
    assert np.allclose(prod, np.eye(2), atol=ATOL_ALGEBRA)


@pytest.mark.parametrize(("pair", "expected"), REFERENCE_TABLE.items(), ids=str)
def test_analytic_reference_values(pair, expected):
    params = ModelParams(*pair)
    e0, h1, v, e1 = expected
    assert analytic_E0(params) == pytest.approx(e0, abs=1e-9)
    assert analytic_H1(params) == pytest.approx(h1, abs=1e-9)
    assert analytic_V(params) == pytest.approx(v, abs=1e-9)
    assert analytic_E1(params) == pytest.approx(e1, abs=1e-9)
    assert analytic_E1(params) == pytest.approx(
        analytic_H1(params) + analytic_V(params), abs=ATOL_ALGEBRA
    )


@pytest.mark.parametrize("params", all_params(), ids=str)
def test_closed_forms_match_matrix_route(params):
    hams = build_hamiltonians(params)
    rho = rho_qet(params)
    assert analytic_H1(params) == pytest.approx(expectation(rho, hams.h1), abs=ATOL_DECOMP)
    assert analytic_V(params) == pytest.approx(expectation(rho, hams.v), abs=ATOL_DECOMP)
    assert analytic_E1(params) == pytest.approx(
        expectation(rho, hams.h1 + hams.v), abs=ATOL_DECOMP
    )
    assert analytic_E0(params) == pytest.approx(
        expectation(rho_measured(params), hams.htot), abs=ATOL_DECOMP
    )


def test_rho_qet_free_of_cancellation_when_k_much_smaller_than_h():
    # (1 - h/r)/2 loses about h^2/k^2 ulps of a^2 here, which once put <V>
    # at -6.3246258e-9 against the true -6.3245553e-9
    params = ModelParams(316.2277660168379, 0.001)
    h, k, r = params.h, params.k, params.r
    rho, hams = rho_qet(params), build_hamiltonians(params)
    for obs, closed, scale in ((hams.v, analytic_V(params), 2 * k + 2 * k * k / r),
                               (hams.h1, analytic_H1(params), h + h * h / r)):
        assert abs(expectation(rho, obs) - closed) <= 1e-14 * max(1.0, abs(closed), scale)


def test_rho_qet_finite_at_largest_couplings():
    rho = rho_qet(ModelParams(1e154, 1e153))
    assert np.all(np.isfinite(rho))
    assert np.trace(rho).real == pytest.approx(1.0, abs=ATOL_ALGEBRA)


@pytest.mark.parametrize("params", all_params(), ids=str)
def test_density_matrix_invariants(params):
    for rho in (rho_measured(params), rho_qet(params)):
        assert is_hermitian(rho)
        assert np.trace(rho).real == pytest.approx(1.0, abs=ATOL_ALGEBRA)
        assert np.linalg.eigvalsh(rho)[0] > -ATOL_ALGEBRA


@pytest.mark.parametrize("params", all_params(), ids=str)
def test_measured_state_energy_bookkeeping(params):
    rho = rho_measured(params)
    hams = build_hamiltonians(params)
    # the measurement deposits energy in the sender's local term only
    assert expectation(rho, Z0) == pytest.approx(0.0, abs=ATOL_ALGEBRA)
    assert expectation(rho, hams.h0) == pytest.approx(analytic_E0(params), abs=ATOL_DECOMP)
    assert expectation(rho, hams.h1) == pytest.approx(0.0, abs=ATOL_ALGEBRA)
    assert expectation(rho, hams.v) == pytest.approx(0.0, abs=ATOL_ALGEBRA)


def test_receiver_rotation_lowers_energy():
    params = ModelParams(1.0, 1.0)
    hams = build_hamiltonians(params)
    h_b = hams.h1 + hams.v
    at_protocol = expectation(rho_qet(params), h_b)
    assert at_protocol == pytest.approx(analytic_E1(params), abs=ATOL_DECOMP)
    # any other rotation angle extracts less
    for off_phi in (0.02, angles(params).phi / 2, 0.5):
        assert expectation(rho_qet(params, off_phi), h_b) > at_protocol - ATOL_DECOMP


def test_nogo_gap_identity_and_protocol_rotation():
    for pair in REFERENCE_TABLE:
        params = ModelParams(*pair)
        assert nogo_gap(params, np.eye(2)) == pytest.approx(0.0, abs=ATOL_DECOMP)
        unconditioned = ry_matrix(2 * angles(params).phi)
        assert nogo_gap(params, unconditioned) >= -1e-10


def test_nogo_gap_random_unitaries():
    rng = np.random.default_rng(314)
    params = ModelParams(1.0, 1.0)
    for _ in range(200):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w1, _ = np.linalg.qr(z)
        assert nogo_gap(params, w1) >= -1e-10


def test_nogo_gap_rejects_invalid_operator():
    params = ModelParams(1.0, 1.0)
    with pytest.raises(ValueError):
        nogo_gap(params, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        nogo_gap(params, np.eye(3))


@pytest.mark.parametrize("params", all_params(), ids=str)
def test_entropy_report_structure(params):
    rep = entropy_report(params)
    h, r = params.h, params.r
    a2 = (1 - h / r) / 2
    b2 = (1 + h / r) / 2
    assert rep.s_ab == pytest.approx(-a2 * np.log(a2) - b2 * np.log(b2), abs=1e-12)
    # post-measurement branches are pure products, so the drop is the full entropy
    assert rep.delta_s == rep.s_ab
    assert rep.xi == pytest.approx(np.arctan(params.k / params.h), abs=1e-12)
    assert rep.e_b == pytest.approx(-analytic_E1(params), abs=1e-12)


def test_entropy_limit_weak_field():
    rep = entropy_report(ModelParams(1e-8, 1.0))
    assert rep.s_ab == pytest.approx(np.log(2.0), abs=1e-6)


def test_entropy_limit_weak_coupling():
    # k/h = 1e-9 leaves a nearly product ground state, a^2 = 2.5e-19, and h/r
    # rounds to 1, which once set both bounds to 0: 50-digit references
    rep = entropy_report(ModelParams(1.0, 1e-9))
    assert rep.s_ab == pytest.approx(1.0958206508753180e-17, rel=1e-15)
    assert rep.delta_s_lower_bound == pytest.approx(1.0708206508753180e-17, rel=1e-15)
    assert rep.max_eb_lower_bound == pytest.approx(5.0000000000000006e-19, rel=1e-15)
    assert rep.e_b == pytest.approx(5.0000000000000006e-19, rel=1e-15)


@pytest.mark.parametrize("h", [1e-300, 1e-160, 1e-30, 1e-9, 1e-6])
def test_closed_forms_strong_coupling_limit(h):
    # E1 -> -h^2/4 as h/k -> 0 at k = 1; 1 - cos(2 phi) once doubled it at
    # h = 1e-9, cos(arctan(k/h)) once put a bound above e_b = 0 at 1e-300, and
    # cancellation in e_b once left it below its saturated bound at 1e-160
    params = ModelParams(h, 1.0)
    assert abs(analytic_E1(params) + h * h / 4) <= 1e-6 * h * h / 4
    rep = entropy_report(params)
    assert rep.delta_s_lower_bound <= rep.delta_s
    assert rep.max_eb_lower_bound <= rep.e_b * (1 + 1e-9)


@pytest.mark.parametrize("params", all_params(), ids=str)
def test_entropy_bounds_hold(params):
    rep = entropy_report(params)
    assert rep.delta_s - rep.delta_s_lower_bound >= -1e-10
    assert rep.e_b - rep.max_eb_lower_bound >= -1e-10
    # the energy-side bound is saturated by this model (algebraic identity)
    assert rep.e_b == pytest.approx(rep.max_eb_lower_bound, abs=1e-9)


def test_free_evolution_closed_form():
    params = ModelParams(1.0, 1.0)
    h, k, r = params.h, params.k, params.r
    assert free_evolution_H1(params, 0.0) == 0.0
    # the interaction energy stays 0 under free evolution
    assert evolution_scan(params, [1.23])[0, 3] == pytest.approx(0.0, abs=1e-12)
    # peak value h^2/r at a quarter of the oscillation period
    assert free_evolution_H1(params, np.pi / (4 * k)) == pytest.approx(h**2 / r, abs=1e-12)
    assert free_evolution_H1(params, np.pi / (2 * k)) == pytest.approx(0.0, abs=1e-12)


def test_free_evolution_matches_simulated_evolution():
    for pair in ((1.0, 1.0), (1.5, 1.0)):
        params = ModelParams(*pair)
        hams = build_hamiltonians(params)
        rho0 = rho_measured(params)
        for t in (0.17, 0.9, 2.4):
            rho_t = evolve(rho0, hams.htot, t)
            assert expectation(rho_t, hams.h1) == pytest.approx(
                free_evolution_H1(params, t), abs=1e-9
            )
            assert expectation(rho_t, hams.v) == pytest.approx(0.0, abs=1e-10)


def test_free_evolution_finite_at_largest_couplings():
    # h^2 (1 - cos 4kt) overflows here; the closed form peaks at h^2/r
    params = ModelParams(1e154, 1e153)
    h1 = free_evolution_H1(params, np.linspace(0.0, 2 * np.pi / params.k, 101))
    assert np.all(np.isfinite(h1))
    peak = free_evolution_H1(params, np.pi / (4 * params.k))
    assert peak == pytest.approx(analytic_E0(params), rel=1e-15)


SCALE_PAIRS = ((1.0, 0.1), (1.0, 1.0), (1.5, 1.0), (1e-3, 1.0), (1.0, 1e-3))
EVOLUTION_TIMES = np.array([0.1, 0.37, 1.3, 5.0])
PROTOCOL_CIRCUITS = [(target, mode) for target in Target for mode in Mode]


def _invariants(params):
    """The dimensionless outputs: functions of (h/r, k/r) alone."""
    rep = entropy_report(params)
    return (
        angles(params), rep.s_ab, rep.delta_s, rep.xi, rep.delta_s_lower_bound,
        [exact_distribution(build_circuit(params, t, m)) for t, m in PROTOCOL_CIRCUITS],
    )


def _energies(params, t):
    """Every energy-valued output, with free evolution at times t."""
    rep = entropy_report(params)
    hams = build_hamiltonians(params)
    closed = [analytic_E0(params), analytic_E1(params), analytic_H1(params),
              analytic_V(params), rep.e_b, rep.max_eb_lower_bound, *np.ravel(_terms(params))]
    matrices = [term.real.ravel() for term in (hams.h0, hams.h1, hams.v, hams.htot)]
    return np.concatenate([closed, free_evolution_H1(params, t), *matrices])


@pytest.mark.parametrize("pair", SCALE_PAIRS, ids=str)
def test_closed_forms_are_scale_covariant(pair):
    # (h, k) -> 2^m (h, k) over the accepted range, with t -> t / 2^m: each
    # dimensionless output is bit-identical and each energy scales by exactly
    # 2^m wherever it is normal
    h, k = pair
    invariants = _invariants(ModelParams(h, k))
    energies = _energies(ModelParams(h, k), EVOLUTION_TIMES)
    for m in range(-480, 481):
        params = ModelParams(math.ldexp(h, m), math.ldexp(k, m))
        assert _invariants(params) == invariants, m
        scaled = _energies(params, np.ldexp(EVOLUTION_TIMES, -m))
        expected = np.ldexp(energies, m)
        normal = np.abs(expected) >= sys.float_info.min
        assert np.array_equal(scaled[normal], expected[normal]), m


def _decimal_references(h, k):
    """E0 = h^2/r and the zero-mean constants h^2/r and 2k^2/r, at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        h, k = Decimal(h), Decimal(k)
        r = (h * h + k * k).sqrt()
        return h * h / r, h * h / r, 2 * k * k / r


@pytest.mark.parametrize("pair", [(1e-165, 1e-150), (1e-160, 1e-150), (1e-150, 1e-165)], ids=str)
def test_closed_forms_at_tiny_couplings(pair):
    # h^2 (or k^2) underflows while the results stay normal: h^2/r once gave
    # 0.0 for E0 at the first pair and a 1.1e-5 relative error at the second
    params = ModelParams(*pair)
    (_, h_const), (_, v_const) = _terms(params)
    values = (analytic_E0(params), h_const, v_const)
    for value, reference in zip(values, _decimal_references(*pair)):
        assert abs(Decimal(value) - reference) <= 4 * Decimal(math.ulp(float(reference)))
    # the estimator adds the same constants: balanced counts estimate them exactly
    for target, const in ((Target.H1, h_const), (Target.V, v_const)):
        assert estimate_energy(params, target, {"00": 1, "01": 1}).mean == const
