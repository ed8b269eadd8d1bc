"""Gate algebra, branch enumeration, sampling, counts validation, and time
evolution."""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetsim import simcore
from qetsim.model import GRID_H, GRID_K, REFERENCE_PAIRS, ModelParams
from qetsim.noise import PRESETS, apply_noise, estimate_calibration_matrix, mitigate
from qetsim.protocol import Mode, Target, build_circuit, estimate_energy
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
    Ry,
    _total,
    check_counts,
    distribution_vector,
    evolve,
    evolved_expectations,
    exact_distribution,
    expectation,
    gate_unitary,
    is_hermitian,
    is_unitary,
    on_qubits,
    run_shots,
)

Z0 = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)
Z1 = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
X0 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex)
X0X1 = np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]])).astype(complex)

KET_00 = np.array([1.0, 0.0, 0.0, 0.0])


def ry_matrix(theta):
    # RY(theta) = [[cos, -sin], [sin, cos]] of theta/2, with the library's arithmetic
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


FIXED_STEPS = [
    Ry(0.3, 0),
    Ry(-1.2, 1),
    Hadamard(0),
    Hadamard(1),
    Cnot(0, 1),
    Cnot(1, 0),
    ControlledRy(0, 1, 0.7, 1),
    ControlledRy(0, 0, -0.4, 1),
    ControlledRy(1, 1, 2.2, 0),
]


@pytest.mark.parametrize("step", FIXED_STEPS, ids=lambda s: type(s).__name__ + repr(s)[:24])
def test_gate_unitary_is_unitary(step):
    assert is_unitary(gate_unitary(step))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(theta=st.floats(-10.0, 10.0), target=st.sampled_from([0, 1]))
def test_rotation_unitarity_random_angles(theta, target):
    assert is_unitary(gate_unitary(Ry(theta, target)))
    assert is_unitary(gate_unitary(ControlledRy(1 - target, 1, theta, target)))


def test_hadamard_action():
    plus0 = gate_unitary(Hadamard(0)) @ KET_00
    assert np.allclose(plus0, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0], atol=ATOL_ALGEBRA)
    plus1 = gate_unitary(Hadamard(1)) @ KET_00
    assert np.allclose(plus1, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=ATOL_ALGEBRA)


def test_pauli_x_and_cnot_action():
    s = gate_unitary(Ry(np.pi, 0)) @ KET_00  # |10>
    s = gate_unitary(Cnot(0, 1)) @ s         # |11>
    assert np.allclose(s, [0, 0, 0, 1], atol=ATOL_ALGEBRA)
    s = gate_unitary(Ry(np.pi, 1)) @ KET_00  # |01>
    s = gate_unitary(Cnot(1, 0)) @ s         # |11>
    assert np.allclose(s, [0, 0, 0, 1], atol=ATOL_ALGEBRA)
    s = gate_unitary(Cnot(0, 1)) @ KET_00  # control 0: no-op
    assert np.allclose(s, KET_00, atol=ATOL_ALGEBRA)


def test_controlled_ry_acts_on_selected_subspace():
    u = gate_unitary(ControlledRy(0, 1, 0.8, 1))
    assert np.allclose(u[:2, :2], np.eye(2), atol=ATOL_ALGEBRA)
    assert np.allclose(u[2:, 2:], ry_matrix(0.8), atol=ATOL_ALGEBRA)
    assert np.allclose(u[:2, 2:], 0.0, atol=ATOL_ALGEBRA)
    u0 = gate_unitary(ControlledRy(0, 0, 0.8, 1))
    assert np.allclose(u0[:2, :2], ry_matrix(0.8), atol=ATOL_ALGEBRA)
    assert np.allclose(u0[2:, 2:], np.eye(2), atol=ATOL_ALGEBRA)


def _controlled(control, value, u):
    # |not v><not v| (x) I + |v><v| (x) U, control factor on its own qubit
    proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    eye = np.eye(2)
    if control == 0:
        return np.kron(proj[1 - value], eye) + np.kron(proj[value], u)
    return np.kron(eye, proj[1 - value]) + np.kron(u, proj[value])


@pytest.mark.parametrize("control", [0, 1])
def test_cnot_matches_placement_rule(control):
    x = np.array([[0, 1], [1, 0]])
    u = gate_unitary(Cnot(control, 1 - control))
    assert np.array_equal(u, _controlled(control, 1, x))


@pytest.mark.parametrize("control", [0, 1])
@pytest.mark.parametrize("value", [0, 1])
def test_controlled_ry_matches_placement_rule(control, value):
    for theta in (0.7, -2.3, np.pi):
        u = gate_unitary(ControlledRy(control, value, theta, 1 - control))
        expected = _controlled(control, value, ry_matrix(theta))
        assert np.array_equal(u, expected)


def test_on_qubits_puts_qubit_0_on_the_high_bit():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.flatnonzero(on_qubits({0: x}) @ KET_00).tolist() == [2]
    assert BITSTRINGS[2] == "10"
    assert np.flatnonzero(on_qubits({1: x}) @ KET_00).tolist() == [1]
    assert np.array_equal(on_qubits({}), np.eye(4))
    a, b = ry_matrix(0.3), np.array([[1, 2j], [3, -4]])
    assert np.array_equal(on_qubits({0: a, 1: b}), np.kron(a, b))


def test_ry_matrix_convention():
    # RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>
    v = ry_matrix(0.6) @ np.array([1.0, 0.0])
    assert np.allclose(v, [np.cos(0.3), np.sin(0.3)], atol=ATOL_ALGEBRA)
    # and the library's Ry on qubit 1 is the same rotation of the low bit
    assert np.array_equal(gate_unitary(Ry(0.6, 1)) @ KET_00, [*v, 0.0, 0.0])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    thetas=st.lists(st.floats(-6.3, 6.3), min_size=1, max_size=5),
)
def test_gate_sequences_preserve_norm(thetas):
    state = KET_00
    for i, theta in enumerate(thetas):
        state = gate_unitary(Ry(theta, i % 2)) @ state
        state = gate_unitary(Cnot(i % 2, 1 - i % 2)) @ state
    assert abs(np.linalg.norm(state) - 1.0) < ATOL_ALGEBRA


def test_apply_gate_rejects_non_unitary_steps():
    with pytest.raises(ValueError):
        gate_unitary(MeasureZ(0, 0))
    with pytest.raises(ValueError):
        gate_unitary(ClassicallyControlledRy(0, 1, 0.3, 1))


# one valid instance of each step class
STEPS = (
    Ry(0.1, 0),
    Hadamard(0),
    Cnot(0, 1),
    ControlledRy(0, 1, 0.1, 1),
    MeasureZ(0, 1),
    ClassicallyControlledRy(1, 0, 0.1, 0),
)


def rebuilt(step, **changes):
    """A step of the same kind from its field values, with changes applied."""
    return type(step)(**{name: getattr(step, name) for name in step._fields} | changes)


# every field but theta is a qubit or a bit, and 2 and -1 are out of range;
# a control may not be its own target
BAD_FIELDS = [
    (step, name, bad)
    for step in STEPS
    for name in step._fields
    if name != "theta"
    for bad in (2, -1)
] + [(Cnot(0, 1), "control", 1), (ControlledRy(0, 1, 0.1, 1), "control", 1)]


@pytest.mark.parametrize(
    "step,name,bad", BAD_FIELDS, ids=[f"{type(s).__name__}.{n}={v}" for s, n, v in BAD_FIELDS]
)
def test_step_index_validation(step, name, bad):
    # a bad value is 2 or -1, or a 0/1 control that equals its target
    message = f"{name} must be 0 or 1, got {bad!r}"
    if bad in (0, 1):
        message = "control and target must differ"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rebuilt(step, **{name: bad})


@pytest.mark.parametrize("step", STEPS, ids=[type(s).__name__ for s in STEPS])
def test_step_checks_run_in_field_order(step):
    # each 0/1 field refuses 2 and NaN; with two bad fields the first one raises
    bits = [name for name in step._fields if name != "theta"]
    for i, name in enumerate(bits):
        for bad in (2, math.nan):
            later = dict.fromkeys(bits[i + 1:], -1)
            with pytest.raises(ValueError, match=f"^{name} must be 0 or 1, got {bad!r}$"):
                rebuilt(step, **{name: bad}, **later)
    # bools and floats equal to 0 and 1 are accepted, and kept as given
    for zero_one in ((False, True), (0.0, 1.0)):
        same = rebuilt(step, **{name: zero_one[getattr(step, name)] for name in bits})
        assert same == step
        assert [type(getattr(same, name)) for name in bits] == [type(zero_one[0])] * len(bits)


def test_distinct_steps_compare_unequal():
    # pairs of kinds with equal field values, which tuple-like steps would
    # compare (and hash) as equal
    steps = [
        Hadamard(0),
        Hadamard(1),
        Ry(0.1, 0),
        Ry(0.1, 1),
        Cnot(0, 1),
        MeasureZ(0, 1),
        Cnot(1, 0),
        MeasureZ(1, 0),
        ControlledRy(0, 1, 0.1, 1),
        ClassicallyControlledRy(0, 1, 0.1, 1),
    ]
    for i, a in enumerate(steps):
        assert a == rebuilt(a)
        for b in steps[i + 1:]:
            assert a != b
    assert len(set(steps)) == len(steps)


def test_circuit_rejects_unwritten_classical_bit():
    with pytest.raises(ValueError):
        Circuit((ClassicallyControlledRy(0, 1, 0.3, 1),))
    Circuit((MeasureZ(0, 0), ClassicallyControlledRy(0, 1, 0.3, 1)))


def test_run_shots_trivial_circuit():
    circuit = Circuit((MeasureZ(0, 0), MeasureZ(1, 1)))
    assert run_shots(exact_distribution(circuit), 1000, 3) == {"00": 1000}
    flipped = Circuit((Ry(np.pi, 0), Ry(np.pi, 1), MeasureZ(0, 0), MeasureZ(1, 1)))
    assert run_shots(exact_distribution(flipped), 257, 3) == {"11": 257}


def test_run_shots_determinism_and_validation():
    dist = exact_distribution(
        Circuit((Hadamard(0), Hadamard(1), MeasureZ(0, 0), MeasureZ(1, 1)))
    )
    a = run_shots(dist, 5000, 42)
    b = run_shots(dist, 5000, 42)
    assert a == b
    assert sum(a.values()) == 5000
    for bad in (0, -1, 1.5, 2**63, float(2**63), math.nan, math.inf, 10**20):
        with pytest.raises(ValueError):
            run_shots(dist, bad, 1)
    # an integral float is a count
    assert run_shots(dist, 5000.0, 42) == a
    # the largest count an int64 tally holds is still drawn
    assert sum(run_shots(dist, 2**63 - 1, 1).values()) == 2**63 - 1


def test_run_shots_tallies_are_those_of_the_ndarray_route():
    # run_shots sums and divides four plain floats; the route it replaced drew
    # on p / p.sum() of the ndarray p, and gave these tallies bit for bit
    rng = np.random.default_rng(26)
    for _ in range(400):
        p = rng.random(4) * 10.0 ** rng.uniform(-18, 0, 4) * (rng.random(4) < 0.8)
        p[rng.integers(4)] += 1e-3
        p = p / p.sum() * (1.0 + rng.uniform(-1e-11, 1e-11))  # off 1 within the guard
        seed = int(rng.integers(2**63))
        n_shots = int(rng.choice([1, 1_000, 10**6, 2**63 - 1]))
        tallies = np.random.default_rng(seed).multinomial(n_shots, p / p.sum()).tolist()
        expected = {key: c for key, c in zip(BITSTRINGS, tallies) if c > 0}
        assert run_shots(dict(zip(BITSTRINGS, p.tolist())), n_shots, seed) == expected


def test_run_shots_names_the_probabilities_it_refuses():
    with pytest.raises(NumericalError) as excinfo:
        run_shots({"00": 0.5, "01": 0.6}, 10, 1)
    assert str(excinfo.value) == "outcome probabilities [0.5 0.6 0.  0. ] do not form a distribution"


@pytest.mark.parametrize("key", ["", "0", "011", "2", 0, None])
def test_run_shots_rejects_keys_outside_the_bitstrings(key):
    # distribution_vector alone would read such a key as absent
    with pytest.raises(ValueError, match="invalid outcome key"):
        run_shots({"00": 0.5, "11": 0.5, key: 0.0}, 100, 1)
    # a missing bitstring is an outcome of probability 0
    assert sum(run_shots({"00": 0.5, "11": 0.5}, 100, 1).values()) == 100


def test_run_shots_rejects_a_circuit():
    circuit = Circuit((MeasureZ(0, 0), MeasureZ(1, 1)))
    with pytest.raises(TypeError, match="exact_distribution dict, got Circuit"):
        run_shots(circuit, 100, 1)


def test_run_shots_honors_classical_control():
    # measured 1 on qubit 0 flips qubit 1 via a conditioned pi rotation
    circuit = Circuit((
        Ry(np.pi, 0),
        MeasureZ(0, 0),
        ClassicallyControlledRy(0, 1, np.pi, 1),
        MeasureZ(1, 1),
    ))
    assert run_shots(exact_distribution(circuit), 400, 9) == {"11": 400}
    untriggered = Circuit((
        MeasureZ(0, 0),
        ClassicallyControlledRy(0, 1, np.pi, 1),
        MeasureZ(1, 1),
    ))
    assert run_shots(exact_distribution(untriggered), 400, 9) == {"00": 400}


PROTOCOL_CIRCUITS = [(target, mode) for target in Target for mode in Mode]


@pytest.mark.parametrize(
    "target,mode", PROTOCOL_CIRCUITS, ids=[f"{t.value}-{m.value}" for t, m in PROTOCOL_CIRCUITS]
)
def test_sampling_matches_exact_distribution(target, mode):
    # E0 overwrites classical bit 0; conditional H1 and V steer a classically
    # controlled rotation from the mid-circuit outcome
    circuit = build_circuit(ModelParams(1.0, 0.5), target, mode)
    n = 100_000
    dist = exact_distribution(circuit)
    counts = run_shots(dist, n, 7)
    for key in BITSTRINGS:
        p = dist[key]
        se = np.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(counts.get(key, 0) / n - p) < 5 * se


def test_seed_to_counts_mapping_is_pinned():
    # sha256 of run_shots counts at 1e5 shots for the six protocol circuits
    # over the acceptance grid and seeds 0-2, taken from the per-branch
    # enumeration with one 4x4 unitary per step
    pairs = [(h, k) for h in GRID_H for k in GRID_K] + list(REFERENCE_PAIRS)
    lines = []
    for h, k in pairs:
        for target, mode in PROTOCOL_CIRCUITS:
            dist = exact_distribution(build_circuit(ModelParams(h, k), target, mode))
            for seed in range(3):
                counts = run_shots(dist, 100_000, seed)
                lines.append(f"{h!r} {k!r} {target.value} {mode.value} {seed} {counts}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "49765439f54dec300fa687eaeecfc70333063f3338203d019b3175c7d3c8622d"


def test_exact_distribution_output_is_pinned():
    # sha256 of the repr of every distribution of the six protocol circuits
    # over the acceptance grid and the reference pairs: an ulp shift anywhere
    # in enumeration fails here rather than through the noisy digests. Taken
    # when theta and phi came from (h/r, k/r) with r = hypot(h, k)
    pairs = [(h, k) for h in GRID_H for k in GRID_K] + list(REFERENCE_PAIRS)
    lines = [
        f"{h!r} {k!r} {target.value} {mode.value} "
        f"{exact_distribution(build_circuit(ModelParams(h, k), target, mode))!r}"
        for h, k in pairs
        for target, mode in PROTOCOL_CIRCUITS
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "97f4df70b4b4d827b530a3e45af5c87c328b06d7a141ceed09565ec432765ca1"


def test_exact_distribution_is_plain_float_arithmetic(monkeypatch):
    # enumeration makes no numpy call and returns Python floats
    circuits = [build_circuit(ModelParams(1.0, 0.5), t, m) for t, m in PROTOCOL_CIRCUITS]
    monkeypatch.setattr(simcore, "np", None)
    for circuit in circuits:
        dist = exact_distribution(circuit)
        assert list(dist) == list(BITSTRINGS)
        assert all(type(p) is float for p in dist.values())


def test_run_shots_memory_does_not_grow_with_shots():
    circuit = build_circuit(ModelParams(1.0, 1.0), Target.V, Mode.CONDITIONAL)
    counts = run_shots(exact_distribution(circuit), 10**12, 3)
    assert sum(counts.values()) == 10**12


def test_run_shots_seed_forms_agree():
    dist = exact_distribution(build_circuit(ModelParams(1.0, 1.0), Target.V, Mode.DEFERRED))
    expected = run_shots(dist, 10_000, 5)
    assert run_shots(dist, 10_000, np.random.SeedSequence(5)) == expected
    assert run_shots(dist, 10_000, np.random.default_rng(5)) == expected


@pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
def test_run_shots_rejects_non_finite_angles(theta):
    circuit = Circuit((Ry(theta, 0), MeasureZ(0, 0), MeasureZ(1, 1)))
    with pytest.raises(NumericalError):
        run_shots(exact_distribution(circuit), 100, 1)
    # a controlled rotation spoils only the branches it acts on
    for rotation in (
        ControlledRy(0, 1, theta, 1),
        ClassicallyControlledRy(0, 1, theta, 1),
    ):
        circuit = Circuit((Hadamard(0), MeasureZ(0, 0), rotation, MeasureZ(1, 1)))
        with pytest.raises(NumericalError):
            run_shots(exact_distribution(circuit), 100, 1)
    # even where it acts only on a dropped branch, which is kept with zeros
    circuit = Circuit((
        Ry(np.pi, 0), MeasureZ(0, 0), ClassicallyControlledRy(0, 0, theta, 1), MeasureZ(1, 1),
    ))
    with pytest.raises(NumericalError):
        run_shots(exact_distribution(circuit), 100, 1)


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


def test_exact_distribution_drops_improbable_outcomes():
    # cos(pi/2)^2 ~ 4e-33 is below the 1e-15 cut: the outcome-0 branch is
    # dropped at the first measurement, so the Hadamard cannot revive it
    circuit = Circuit((Ry(np.pi, 0), MeasureZ(0, 0), Hadamard(0), MeasureZ(0, 1)))
    dist = exact_distribution(circuit)
    assert dist["00"] == 0.0 and dist["01"] == 0.0
    assert dist["10"] == pytest.approx(0.5, abs=ATOL_ALGEBRA)
    assert dist["11"] == pytest.approx(0.5, abs=ATOL_ALGEBRA)


def test_equal_circuits_with_signed_zero_angles_enumerate_identically():
    # Ry(0.0) == Ry(-0.0): equal circuits give the same distribution, bit for
    # bit, so either may answer for the other
    def circuit(zero):
        return Circuit((
            Ry(zero, 0), Hadamard(1), ControlledRy(1, 1, zero, 0), MeasureZ(0, 0),
            ClassicallyControlledRy(0, 1, zero, 1), MeasureZ(1, 1),
        ))

    assert circuit(0.0) == circuit(-0.0)
    assert repr(exact_distribution(circuit(0.0))) == repr(exact_distribution(circuit(-0.0)))


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _reference_distribution(circuit):
    # one normalized state per branch and one 4x4 matrix per step, each
    # built with np.kron
    def on(q, m):
        return np.kron(m, np.eye(2)) if q == 0 else np.kron(np.eye(2), m)

    proj = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    branches = [(np.array([1.0, 0.0, 0.0, 0.0]), (0, 0), 1.0)]
    for step in circuit.steps:
        if isinstance(step, MeasureZ):
            nxt = []
            for state, bits, prob in branches:
                for outcome in (0, 1):
                    kept = on(step.target, proj[outcome]) @ state
                    p = float(np.vdot(kept, kept).real)
                    if p >= 1e-15:
                        new_bits = list(bits)
                        new_bits[step.cbit] = outcome
                        nxt.append((kept / np.sqrt(p), tuple(new_bits), prob * p))
            branches = nxt
            continue
        if isinstance(step, ClassicallyControlledRy):
            u = on(step.target, ry_matrix(step.theta))
            branches = [
                (u @ state if bits[step.cbit] == step.required_value else state, bits, prob)
                for state, bits, prob in branches
            ]
            continue
        if isinstance(step, Ry):
            u = on(step.target, ry_matrix(step.theta))
        elif isinstance(step, Hadamard):
            u = on(step.target, _H)
        elif isinstance(step, Cnot):
            u = _controlled(step.control, 1, _X)
        else:
            u = _controlled(step.control, step.control_value, ry_matrix(step.theta))
        branches = [(u @ state, bits, prob) for state, bits, prob in branches]
    dist = dict.fromkeys(BITSTRINGS, 0.0)
    for _, bits, prob in branches:
        dist[f"{bits[0]}{bits[1]}"] += prob
    return dist


_ANGLES = st.one_of(
    st.sampled_from([0.0, np.pi, -np.pi, np.pi / 2]),
    st.floats(-4 * np.pi, 4 * np.pi),
)


@st.composite
def _random_circuits(draw):
    # every step kind on both qubits; a classically controlled rotation reads
    # a bit some earlier measurement wrote, and later measurements may
    # overwrite it
    steps, written = [], []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(
            ["ry", "h", "cnot", "cry", "measure", "ccry"]
        ))
        q, theta = draw(st.sampled_from([0, 1])), draw(_ANGLES)
        if kind == "ccry" and not written:
            kind = "measure"
        if kind == "ry":
            steps.append(Ry(theta, q))
        elif kind == "h":
            steps.append(Hadamard(q))
        elif kind == "cnot":
            steps.append(Cnot(q, 1 - q))
        elif kind == "cry":
            steps.append(ControlledRy(q, draw(st.sampled_from([0, 1])), theta, 1 - q))
        elif kind == "measure":
            cbit = draw(st.sampled_from([0, 1]))
            steps.append(MeasureZ(q, cbit))
            written.append(cbit)
        else:
            cbit = draw(st.sampled_from(sorted(set(written))))
            steps.append(ClassicallyControlledRy(cbit, draw(st.sampled_from([0, 1])), theta, q))
    return Circuit(tuple(steps))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(circuit=_random_circuits())
def test_exact_distribution_matches_per_branch_reference(circuit):
    dist = exact_distribution(circuit)
    expected = _reference_distribution(circuit)
    assert list(dist) == list(BITSTRINGS)
    for key in BITSTRINGS:
        assert abs(dist[key] - expected[key]) < 1e-12


# every public consumer of a counts map, each fed one non-finite count
COUNTS_CONSUMERS = {
    "estimate_energy": lambda c: estimate_energy(ModelParams(1.0, 1.0), Target.V, c),
    "mitigate-direct": lambda c: mitigate(c, np.eye(4), "direct"),
    "mitigate-least-squares": lambda c: mitigate(c, np.eye(4), "least-squares"),
    "apply_noise": lambda c: apply_noise(c, PRESETS["lima-like"], np.random.default_rng(0)),
    "estimate_calibration_matrix": lambda c: estimate_calibration_matrix([c] * 4),
}


@pytest.mark.parametrize("consumer", COUNTS_CONSUMERS.values(), ids=COUNTS_CONSUMERS.keys())
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_counts_consumers_reject_non_finite_counts(consumer, value):
    with pytest.raises(ValueError):
        consumer({"00": 10, "01": value})


def test_total_adds_left_to_right_from_zero():
    # 1e16 + 1.0 rounds back to 1e16; compensated sums (math.fsum, and builtin
    # sum on Python 3.12 and later) keep the 1.0
    assert _total([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    assert _total([]) == 0.0 and type(_total([3, 4])) is float
    assert math.copysign(1.0, _total([-0.0])) == 1.0
    # from the int 0, integer tallies add exactly
    assert _total([2**53, 1, 1], 0) == 2**53 + 2 and _total([2**53, 1, 1]) == 2.0**53


@pytest.mark.parametrize("counts, total", [
    ({"00": 2.0**53, "01": 1.0, "10": 1.0}, 2.0**53),  # each 1.0 rounds away; fsum keeps both
    ({"00": 2**53, "01": 1, "10": 1}, 2.0**53),  # integer tallies add as floats too
    ({"01": 0.1, "00": 0.7, "11": 0.2}, 1.0),  # in dict order: reversed, they give 1 - 2**-53
], ids=str)
def test_check_counts_returns_the_total(counts, total):
    assert check_counts(counts) == _total(counts.values()) == total


def test_distribution_vector_ordering():
    vec = distribution_vector({"01": 0.25, "11": 0.75})
    assert np.allclose(vec, [0.0, 0.25, 0.0, 0.75])


def test_expectation_known_values():
    rho00 = np.diag([1.0, 0, 0, 0]).astype(complex)
    assert expectation(rho00, Z0) == pytest.approx(1.0, abs=ATOL_ALGEBRA)
    assert expectation(rho00, Z1) == pytest.approx(1.0, abs=ATOL_ALGEBRA)
    bell = gate_unitary(Cnot(0, 1)) @ gate_unitary(Hadamard(0)) @ KET_00
    rho_bell = np.outer(bell, bell.conj())
    assert expectation(rho_bell, X0X1) == pytest.approx(1.0, abs=ATOL_ALGEBRA)
    assert expectation(rho_bell, Z0) == pytest.approx(0.0, abs=ATOL_ALGEBRA)


def test_expectation_rejects_imaginary_residue():
    rho = 1j * np.eye(4, dtype=complex)
    with pytest.raises(NumericalError):
        expectation(rho, np.eye(4, dtype=complex))


def test_evolve_identity_at_t0():
    bell = gate_unitary(Cnot(0, 1)) @ gate_unitary(Hadamard(0)) @ KET_00
    rho = np.outer(bell, bell.conj())
    assert np.allclose(evolve(rho, Z0 + Z1, 0.0), rho, atol=ATOL_ALGEBRA)


def test_evolve_single_qubit_precession():
    # under H = Z0 the Bloch vector of |+> precesses: <X0>(t) = cos(2t)
    plus = gate_unitary(Hadamard(0)) @ KET_00
    rho = np.outer(plus, plus.conj())
    for t in (0.3, 1.0, np.sqrt(2.0)):
        rho_t = evolve(rho, Z0, t)
        assert expectation(rho_t, X0) == pytest.approx(np.cos(2 * t), abs=1e-12)


def test_evolve_preserves_trace_and_hermiticity():
    bell = gate_unitary(Cnot(0, 1)) @ gate_unitary(Hadamard(0)) @ KET_00
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
    with pytest.raises(NumericalError):
        evolve(rho, bad, np.array([0.0, 0.1]))
    for t in (0.1, np.array([0.0, 0.1])):
        with pytest.raises(NumericalError, match="Hermitian generator"):
            evolved_expectations(rho, bad, t, (Z0,))


def test_evolve_and_expectation_over_a_stack_of_times():
    plus = gate_unitary(Hadamard(0)) @ KET_00
    rho = np.outer(plus, plus.conj())
    h = 0.7 * Z0 + 1.3 * Z1 + 0.4 * X0X1
    t_values = np.array([[0.0, 0.3], [1.0, 2.31]])
    stack = evolve(rho, h, t_values)
    assert stack.shape == (2, 2, 4, 4)
    values = expectation(stack, X0)
    assert values.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        one = evolve(rho, h, t_values[idx])
        assert np.array_equal(stack[idx], one)
        assert values[idx] == expectation(one, X0)
    assert isinstance(expectation(rho, X0), float)


def test_evolved_expectations_match_evolve_over_a_stack_of_times():
    plus = gate_unitary(Hadamard(0)) @ KET_00
    rho = np.outer(plus, plus.conj())
    h = 0.7 * Z0 + 1.3 * Z1 + 0.4 * X0X1
    t_values = np.array([[0.0, 0.3], [1.0, 2.31]])
    values = evolved_expectations(rho, h, t_values, (X0, Z0 + X0X1))
    assert values.shape == (2, 2, 2)
    for idx in np.ndindex(2, 2):
        one = evolve(rho, h, t_values[idx])
        expected = [expectation(one, X0), expectation(one, Z0 + X0X1)]
        assert np.allclose(values[idx], expected, rtol=0.0, atol=1e-14)
    # under H = Z0 the Bloch vector of |+> precesses: <X0>(t) = cos(2t)
    assert evolved_expectations(rho, Z0, 0.3, (X0,))[0] == pytest.approx(np.cos(0.6), abs=1e-12)


def test_evolved_expectations_reject_imaginary_residue():
    rho = np.diag([1.0, 0, 0, 0]).astype(complex)
    with pytest.raises(NumericalError, match="imaginary residue"):
        evolved_expectations(rho, Z0 + Z1, np.array([0.0, 0.1]), (Z0, 1j * np.eye(4)))
    # every time is checked: a non-Hermitian |00><00| + c |00><01| gives
    # Tr[rho(t) X1] = c exp(-2it) under H = Z1, real only at t = 0
    rho[0, 1] = 1e-3
    x1 = np.kron(np.eye(2), [[0, 1], [1, 0]])
    assert evolved_expectations(rho, Z1, np.array([0.0]), (x1,))[0] == pytest.approx(1e-3)
    with pytest.raises(NumericalError, match="imaginary residue"):
        evolved_expectations(rho, Z1, np.array([0.0, 1.0]), (x1,))


def test_expectation_checks_every_state_of_a_stack():
    stack = np.stack([np.eye(4, dtype=complex) / 4] * 3)
    stack[2] *= 1j
    with pytest.raises(NumericalError):
        expectation(stack, np.eye(4, dtype=complex))
    assert np.array_equal(expectation(stack[:2], np.eye(4, dtype=complex)), [1.0, 1.0])
