"""Gate algebra, branch enumeration, sampling, counts validation, and time
evolution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetsim.model import ModelParams
from qetsim.noise import PRESETS, apply_noise, estimate_calibration_matrix, mitigate
from qetsim.protocol import Mode, Target, build_circuit, estimate_energy, estimate_Z1
from qetsim.simcore import (
    ATOL_ALGEBRA,
    BITSTRINGS,
    Circuit,
    ClassicallyControlledRy,
    Cnot,
    ControlledRy,
    Hadamard,
    MeasureZ,
    NumericalError,
    PauliX,
    Ry,
    depth,
    distribution_vector,
    evolve,
    exact_distribution,
    expectation,
    gate_unitary,
    is_hermitian,
    is_unitary,
    make_rng,
    run_shots,
    ry_matrix,
    state_00,
)

Z0 = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)
Z1 = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
X0 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex)
X0X1 = np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]])).astype(complex)

FIXED_STEPS = [
    Ry(0.3, 0),
    Ry(-1.2, 1),
    Hadamard(0),
    Hadamard(1),
    PauliX(0),
    PauliX(1),
    Cnot(0, 1),
    Cnot(1, 0),
    ControlledRy(0, 1, 0.7, 1),
    ControlledRy(0, 0, -0.4, 1),
    ControlledRy(1, 1, 2.2, 0),
]


@pytest.mark.parametrize("step", FIXED_STEPS, ids=lambda s: type(s).__name__ + repr(s)[:24])
def test_gate_unitary_is_unitary(step):
    assert is_unitary(gate_unitary(step))


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(-10.0, 10.0), target=st.sampled_from([0, 1]))
def test_rotation_unitarity_random_angles(theta, target):
    assert is_unitary(gate_unitary(Ry(theta, target)))
    assert is_unitary(gate_unitary(ControlledRy(1 - target, 1, theta, target)))


def test_hadamard_action():
    plus0 = gate_unitary(Hadamard(0)) @ state_00()
    assert np.allclose(plus0, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0], atol=ATOL_ALGEBRA)
    plus1 = gate_unitary(Hadamard(1)) @ state_00()
    assert np.allclose(plus1, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=ATOL_ALGEBRA)


def test_pauli_x_and_cnot_action():
    s = gate_unitary(PauliX(0)) @ state_00()   # |10>
    s = gate_unitary(Cnot(0, 1)) @ s           # |11>
    assert np.allclose(s, [0, 0, 0, 1], atol=ATOL_ALGEBRA)
    s = gate_unitary(PauliX(1)) @ state_00()   # |01>
    s = gate_unitary(Cnot(1, 0)) @ s           # |11>
    assert np.allclose(s, [0, 0, 0, 1], atol=ATOL_ALGEBRA)
    s = gate_unitary(Cnot(0, 1)) @ state_00()  # control 0: no-op
    assert np.allclose(s, state_00(), atol=ATOL_ALGEBRA)


def test_controlled_ry_acts_on_selected_subspace():
    u = gate_unitary(ControlledRy(0, 1, 0.8, 1))
    assert np.allclose(u[:2, :2], np.eye(2), atol=ATOL_ALGEBRA)
    assert np.allclose(u[2:, 2:], ry_matrix(0.8), atol=ATOL_ALGEBRA)
    assert np.allclose(u[:2, 2:], 0.0, atol=ATOL_ALGEBRA)
    u0 = gate_unitary(ControlledRy(0, 0, 0.8, 1))
    assert np.allclose(u0[:2, :2], ry_matrix(0.8), atol=ATOL_ALGEBRA)
    assert np.allclose(u0[2:, 2:], np.eye(2), atol=ATOL_ALGEBRA)


def test_ry_matrix_convention():
    # RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>
    v = ry_matrix(0.6) @ np.array([1.0, 0.0])
    assert np.allclose(v, [np.cos(0.3), np.sin(0.3)], atol=ATOL_ALGEBRA)


@settings(max_examples=30, deadline=None)
@given(
    thetas=st.lists(st.floats(-6.3, 6.3), min_size=1, max_size=5),
)
def test_gate_sequences_preserve_norm(thetas):
    state = state_00()
    for i, theta in enumerate(thetas):
        state = gate_unitary(Ry(theta, i % 2)) @ state
        state = gate_unitary(Cnot(i % 2, 1 - i % 2)) @ state
    assert abs(np.linalg.norm(state) - 1.0) < ATOL_ALGEBRA


def test_apply_gate_rejects_non_unitary_steps():
    with pytest.raises(ValueError):
        gate_unitary(MeasureZ(0, 0))
    with pytest.raises(ValueError):
        gate_unitary(ClassicallyControlledRy(0, 1, 0.3, 1))


def test_step_index_validation():
    with pytest.raises(ValueError):
        Ry(0.1, 2)
    with pytest.raises(ValueError):
        MeasureZ(0, 5)
    with pytest.raises(ValueError):
        Cnot(1, 1)
    with pytest.raises(ValueError):
        ControlledRy(0, 2, 0.1, 1)
    with pytest.raises(ValueError):
        ClassicallyControlledRy(0, 3, 0.1, 1)


def test_circuit_rejects_unwritten_classical_bit():
    with pytest.raises(ValueError):
        Circuit((ClassicallyControlledRy(0, 1, 0.3, 1),))
    Circuit((MeasureZ(0, 0), ClassicallyControlledRy(0, 1, 0.3, 1)))


def test_depth_layering():
    assert depth(Circuit((Hadamard(0),))) == 1
    assert depth(Circuit((Hadamard(0), Hadamard(1)))) == 1
    assert depth(Circuit((Hadamard(0), Ry(0.1, 0)))) == 2
    # measurements occupy their qubit but do not count
    assert depth(Circuit((MeasureZ(0, 0), MeasureZ(1, 1)))) == 0
    assert depth(Circuit((Hadamard(0), MeasureZ(0, 0), Hadamard(0)))) == 3
    # complementary classically controlled rotations form one if-else layer,
    # scheduled after the measurement slot that produced their control bit
    branch = Circuit((
        MeasureZ(0, 0),
        ClassicallyControlledRy(0, 1, -0.2, 1),
        ClassicallyControlledRy(0, 0, 0.2, 1),
    ))
    assert depth(branch) == 2
    same_value = Circuit((
        MeasureZ(0, 0),
        ClassicallyControlledRy(0, 1, -0.2, 1),
        ClassicallyControlledRy(0, 1, 0.2, 1),
    ))
    assert depth(same_value) == 3


def test_run_shots_trivial_circuit():
    circuit = Circuit((MeasureZ(0, 0), MeasureZ(1, 1)))
    assert run_shots(circuit, 1000, 3) == {"00": 1000}
    flipped = Circuit((PauliX(0), PauliX(1), MeasureZ(0, 0), MeasureZ(1, 1)))
    assert run_shots(flipped, 257, 3) == {"11": 257}


def test_run_shots_determinism_and_validation():
    circuit = Circuit((Hadamard(0), Hadamard(1), MeasureZ(0, 0), MeasureZ(1, 1)))
    a = run_shots(circuit, 5000, 42)
    b = run_shots(circuit, 5000, 42)
    assert a == b
    assert sum(a.values()) == 5000
    with pytest.raises(ValueError):
        run_shots(circuit, 0, 1)


def test_run_shots_honors_classical_control():
    # measured 1 on qubit 0 flips qubit 1 via a conditioned pi rotation
    circuit = Circuit((
        PauliX(0),
        MeasureZ(0, 0),
        ClassicallyControlledRy(0, 1, np.pi, 1),
        MeasureZ(1, 1),
    ))
    assert run_shots(circuit, 400, 9) == {"11": 400}
    untriggered = Circuit((
        MeasureZ(0, 0),
        ClassicallyControlledRy(0, 1, np.pi, 1),
        MeasureZ(1, 1),
    ))
    assert run_shots(untriggered, 400, 9) == {"00": 400}


PROTOCOL_CIRCUITS = [(target, mode) for target in Target for mode in Mode]


@pytest.mark.parametrize(
    "target,mode", PROTOCOL_CIRCUITS, ids=[f"{t.value}-{m.value}" for t, m in PROTOCOL_CIRCUITS]
)
def test_sampling_matches_exact_distribution(target, mode):
    # E0 overwrites classical bit 0; conditional H1 and V steer a classically
    # controlled rotation from the mid-circuit outcome
    circuit = build_circuit(ModelParams(1.0, 0.5), target, mode)
    n = 100_000
    counts = run_shots(circuit, n, 7)
    dist = exact_distribution(circuit)
    for key in BITSTRINGS:
        p = dist[key]
        se = np.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(counts.get(key, 0) / n - p) < 5 * se


def test_run_shots_memory_does_not_grow_with_shots():
    circuit = build_circuit(ModelParams(1.0, 1.0), Target.V, Mode.CONDITIONAL)
    counts = run_shots(circuit, 10**12, 3)
    assert sum(counts.values()) == 10**12


def test_run_shots_seed_forms_agree():
    circuit = build_circuit(ModelParams(1.0, 1.0), Target.V, Mode.DEFERRED)
    expected = run_shots(circuit, 10_000, 5)
    assert run_shots(circuit, 10_000, np.random.SeedSequence(5)) == expected
    assert run_shots(circuit, 10_000, np.random.default_rng(5)) == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
def test_run_shots_rejects_non_finite_angles(theta):
    circuit = Circuit((Ry(theta, 0), MeasureZ(0, 0), MeasureZ(1, 1)))
    with pytest.raises(NumericalError):
        run_shots(circuit, 100, 1)


def test_exact_distribution_trivial_and_normalized():
    dist = exact_distribution(Circuit((MeasureZ(0, 0), MeasureZ(1, 1))))
    assert dist == {"00": 1.0, "01": 0.0, "10": 0.0, "11": 0.0}
    bell = Circuit((Hadamard(0), Cnot(0, 1), MeasureZ(0, 0), MeasureZ(1, 1)))
    dist = exact_distribution(bell)
    assert dist["00"] == pytest.approx(0.5, abs=ATOL_ALGEBRA)
    assert dist["11"] == pytest.approx(0.5, abs=ATOL_ALGEBRA)
    assert sum(dist.values()) == pytest.approx(1.0, abs=ATOL_ALGEBRA)


def test_exact_distribution_overwritten_bit():
    # second measurement of the same qubit overwrites classical bit 0
    circuit = Circuit((
        Hadamard(0),
        MeasureZ(0, 0),
        Hadamard(0),
        MeasureZ(0, 0),
        MeasureZ(1, 1),
    ))
    dist = exact_distribution(circuit)
    assert dist["00"] == pytest.approx(0.5, abs=ATOL_ALGEBRA)
    assert dist["10"] == pytest.approx(0.5, abs=ATOL_ALGEBRA)


# every public consumer of a counts map, each fed one non-finite count
COUNTS_CONSUMERS = {
    "estimate_Z1": estimate_Z1,
    "estimate_energy": lambda c: estimate_energy(ModelParams(1.0, 1.0), Target.V, c),
    "mitigate-direct": lambda c: mitigate(c, np.eye(4), "direct"),
    "mitigate-least-squares": lambda c: mitigate(c, np.eye(4), "least-squares"),
    "apply_noise": lambda c: apply_noise(c, PRESETS["lima-like"], make_rng(0)),
    "estimate_calibration_matrix": lambda c: estimate_calibration_matrix([c] * 4),
}


@pytest.mark.parametrize("consumer", COUNTS_CONSUMERS.values(), ids=COUNTS_CONSUMERS.keys())
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_counts_consumers_reject_non_finite_counts(consumer, value):
    with pytest.raises(ValueError):
        consumer({"00": 10, "01": value})


def test_distribution_vector_ordering():
    vec = distribution_vector({"01": 0.25, "11": 0.75})
    assert np.allclose(vec, [0.0, 0.25, 0.0, 0.75])


def test_expectation_known_values():
    rho00 = np.diag([1.0, 0, 0, 0]).astype(complex)
    assert expectation(rho00, Z0) == pytest.approx(1.0, abs=ATOL_ALGEBRA)
    assert expectation(rho00, Z1) == pytest.approx(1.0, abs=ATOL_ALGEBRA)
    bell = gate_unitary(Cnot(0, 1)) @ gate_unitary(Hadamard(0)) @ state_00()
    rho_bell = np.outer(bell, bell.conj())
    assert expectation(rho_bell, X0X1) == pytest.approx(1.0, abs=ATOL_ALGEBRA)
    assert expectation(rho_bell, Z0) == pytest.approx(0.0, abs=ATOL_ALGEBRA)


def test_expectation_rejects_imaginary_residue():
    rho = 1j * np.eye(4, dtype=complex)
    with pytest.raises(NumericalError):
        expectation(rho, np.eye(4, dtype=complex))


def test_evolve_identity_at_t0():
    bell = gate_unitary(Cnot(0, 1)) @ gate_unitary(Hadamard(0)) @ state_00()
    rho = np.outer(bell, bell.conj())
    assert np.allclose(evolve(rho, Z0 + Z1, 0.0), rho, atol=ATOL_ALGEBRA)


def test_evolve_single_qubit_precession():
    # under H = Z0 the Bloch vector of |+> precesses: <X0>(t) = cos(2t)
    plus = gate_unitary(Hadamard(0)) @ state_00()
    rho = np.outer(plus, plus.conj())
    for t in (0.3, 1.0, np.sqrt(2.0)):
        rho_t = evolve(rho, Z0, t)
        assert expectation(rho_t, X0) == pytest.approx(np.cos(2 * t), abs=1e-12)


def test_evolve_preserves_trace_and_hermiticity():
    bell = gate_unitary(Cnot(0, 1)) @ gate_unitary(Hadamard(0)) @ state_00()
    rho = np.outer(bell, bell.conj())
    h = 0.7 * Z0 + 1.3 * Z1 + 0.4 * X0X1
    rho_t = evolve(rho, h, 2.31)
    assert np.trace(rho_t).real == pytest.approx(1.0, abs=ATOL_ALGEBRA)
    assert is_hermitian(rho_t)
    # purity is preserved under unitary evolution
    assert np.trace(rho_t @ rho_t).real == pytest.approx(1.0, abs=ATOL_ALGEBRA)


def test_evolve_rejects_non_hermitian_generator():
    rho = np.diag([1.0, 0, 0, 0]).astype(complex)
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NumericalError):
        evolve(rho, bad, 0.1)


def test_make_rng_accepts_generator_and_seed():
    rng = make_rng(5)
    assert make_rng(rng) is rng
    a = make_rng(np.random.SeedSequence(5)).random()
    b = make_rng(np.random.SeedSequence(5)).random()
    assert a == b
