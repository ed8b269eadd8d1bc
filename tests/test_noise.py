"""Readout channel, calibration estimation, and mitigation solvers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetsim.noise import (
    MITIGATION_METHODS,
    PRESETS,
    ReadoutNoise,
    apply_noise,
    build_calibration_circuits,
    confusion_matrix,
    estimate_calibration_matrix,
    measurement_fidelity,
    mitigate,
    noisy_distribution,
)
from qetsim.simcore import BITSTRINGS, NumericalError, distribution_vector, make_rng, run_shots

LIMA = PRESETS["lima-like"]


def test_noise_parameter_validation():
    with pytest.raises(ValueError):
        ReadoutNoise.symmetric(1.0, 0.1)
    with pytest.raises(ValueError):
        ReadoutNoise((-0.1, 0.0), (0.0, 0.0))
    ReadoutNoise.symmetric(0.0, 0.0)


def test_confusion_matrix_kronecker_entries():
    a = confusion_matrix(ReadoutNoise.symmetric(0.1, 0.2))
    # column j: observation distribution when the true outcome is state j
    assert a[0, 0] == pytest.approx(0.9 * 0.8)
    assert a[3, 0] == pytest.approx(0.1 * 0.2)
    assert a[1, 2] == pytest.approx(0.1 * 0.2)
    assert a[2, 2] == pytest.approx(0.9 * 0.8)
    assert np.allclose(a.sum(axis=0), 1.0, atol=1e-12)


def test_confusion_matrix_asymmetric():
    noise = ReadoutNoise((0.1, 0.0), (0.3, 0.0))
    a = confusion_matrix(noise)
    # qubit 1 is read perfectly; qubit 0 mixes within its own bit
    assert a[0, 0] == pytest.approx(0.9)
    assert a[2, 0] == pytest.approx(0.1)
    assert a[0, 2] == pytest.approx(0.3)
    assert a[2, 2] == pytest.approx(0.7)
    assert a[1, 0] == pytest.approx(0.0)


def test_zero_noise_is_identity():
    clean = ReadoutNoise.symmetric(0.0, 0.0)
    assert np.allclose(confusion_matrix(clean), np.eye(4))
    counts = {"00": 700, "11": 300}
    assert apply_noise(counts, clean, make_rng(0)) == counts


def test_noisy_distribution_is_matrix_action():
    dist = {"00": 0.5, "01": 0.25, "10": 0.25}
    out = noisy_distribution(dist, LIMA)
    expected = confusion_matrix(LIMA) @ distribution_vector(dist)
    assert np.allclose(distribution_vector(out), expected, atol=1e-15)
    assert sum(out.values()) == pytest.approx(1.0, abs=1e-12)


def test_apply_noise_preserves_total_and_is_deterministic():
    counts = {"00": 40_000, "01": 25_000, "10": 25_000, "11": 10_000}
    a = apply_noise(counts, LIMA, make_rng(8))
    b = apply_noise(counts, LIMA, make_rng(8))
    assert a == b
    assert sum(a.values()) == 100_000


def test_apply_noise_sampled_frequencies_track_exact_channel():
    n = 200_000
    counts = {"01": n}
    observed = apply_noise(counts, LIMA, make_rng(21))
    expected = confusion_matrix(LIMA)[:, 1]
    for i, key in enumerate(BITSTRINGS):
        p = expected[i]
        se = np.sqrt(p * (1 - p) / n)
        assert abs(observed.get(key, 0) / n - p) < 5 * se


def test_apply_noise_input_validation():
    with pytest.raises(ValueError):
        apply_noise({"00": 3.5}, LIMA, make_rng(0))
    with pytest.raises(ValueError):
        apply_noise({"0x": 1}, LIMA, make_rng(0))
    with pytest.raises(ValueError):
        apply_noise({"00": -2}, LIMA, make_rng(0))


def test_calibration_circuits_prepare_basis_states():
    circuits = build_calibration_circuits()
    assert len(circuits) == 4
    for key, circuit in zip(BITSTRINGS, circuits):
        assert run_shots(circuit, 100, 1) == {key: 100}


def test_calibration_matrix_noiseless_is_identity():
    counts = [run_shots(c, 1000, seed) for seed, c in enumerate(build_calibration_circuits())]
    assert np.allclose(estimate_calibration_matrix(counts), np.eye(4))


def test_calibration_matrix_recovers_channel():
    n = 100_000
    rng = make_rng(5)
    truth = confusion_matrix(LIMA)
    counts = []
    for j, circuit in enumerate(build_calibration_circuits()):
        clean = run_shots(circuit, n, 100 + j)
        counts.append(apply_noise(clean, LIMA, rng))
    estimated = estimate_calibration_matrix(counts)
    assert np.allclose(estimated.sum(axis=0), 1.0, atol=1e-12)
    for i in range(4):
        for j in range(4):
            se = np.sqrt(max(truth[i, j] * (1 - truth[i, j]), 1e-9) / n)
            assert abs(estimated[i, j] - truth[i, j]) < 5 * se


def test_calibration_matrix_validation():
    with pytest.raises(ValueError):
        estimate_calibration_matrix([{"00": 1}] * 3)
    with pytest.raises(ValueError):
        estimate_calibration_matrix([{"00": 1}] * 3 + [{}])


def test_measurement_fidelity_values():
    assert measurement_fidelity(np.eye(4)) == 1.0
    assert measurement_fidelity(confusion_matrix(LIMA)) == pytest.approx(
        0.9804 * 0.9870, abs=1e-12
    )
    assert measurement_fidelity(confusion_matrix(PRESETS["jakarta-like"])) == pytest.approx(
        0.9756 * 0.9760, abs=1e-12
    )
    assert measurement_fidelity(confusion_matrix(PRESETS["cairo-like"])) == pytest.approx(
        0.9915 * 0.9920, abs=1e-12
    )


@pytest.mark.parametrize("method", MITIGATION_METHODS)
def test_mitigate_identity_matrix(method):
    out = mitigate({"00": 2, "01": 2}, np.eye(4), method)
    assert out == pytest.approx({"00": 0.5, "01": 0.5, "10": 0.0, "11": 0.0})


@pytest.mark.parametrize("method", MITIGATION_METHODS)
def test_mitigate_exact_round_trip(method):
    p = np.array([0.0264, 0.4736, 0.4736, 0.0264])
    a = confusion_matrix(LIMA)
    y = a @ p
    counts = {key: float(y[i]) * 1e6 for i, key in enumerate(BITSTRINGS)}
    recovered = mitigate(counts, a, method)
    assert np.allclose(distribution_vector(recovered), p, atol=1e-10)


def test_mitigate_direct_clips_and_renormalizes():
    # an observed corner distribution maps outside the simplex under inversion
    a = confusion_matrix(LIMA)
    out = mitigate({"00": 1000}, a, "direct")
    vec = distribution_vector(out)
    assert np.all(vec >= 0.0)
    assert vec.sum() == pytest.approx(1.0, abs=1e-12)


def test_mitigate_least_squares_stays_on_simplex():
    a = confusion_matrix(LIMA)
    rng = make_rng(12)
    for _ in range(25):
        y = rng.dirichlet(np.ones(4))
        out = mitigate(dict(zip(BITSTRINGS, y)), a, "least-squares")
        vec = distribution_vector(out)
        assert np.all(vec >= 0.0)
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_mitigate_least_squares_is_optimal_on_simplex(weights):
    # the KKT solution must beat every probe point on the simplex
    a = confusion_matrix(LIMA)
    y = np.array(weights) / np.sum(weights)
    x = distribution_vector(mitigate(dict(zip(BITSTRINGS, y)), a, "least-squares"))
    best = float(np.sum((a @ x - y) ** 2))
    probes = [np.eye(4)[i] for i in range(4)] + [np.full(4, 0.25), y]
    for z in probes:
        assert best <= float(np.sum((a @ z - y) ** 2)) + 1e-9


def test_mitigate_rejects_singular_matrix():
    singular = confusion_matrix(ReadoutNoise.symmetric(0.5, 0.5))
    with pytest.raises(NumericalError):
        mitigate({"00": 10}, singular, "direct")
    with pytest.raises(NumericalError):
        mitigate({"00": 10}, singular, "least-squares")


def test_mitigate_input_validation():
    a = np.eye(4)
    with pytest.raises(ValueError):
        mitigate({"00": 1}, a, "bogus")
    with pytest.raises(ValueError):
        mitigate({"00": 1}, np.eye(3), "direct")
    with pytest.raises(ValueError):
        mitigate({"0x": 1}, a, "direct")
    with pytest.raises(ValueError):
        mitigate({"00": 0.0}, a, "direct")


def test_preset_magnitudes():
    # readout-flip scales ordered cairo < lima < jakarta
    scale = {name: np.mean(noise.read1_given0) for name, noise in PRESETS.items()}
    assert scale["cairo-like"] < scale["lima-like"] < scale["jakarta-like"]
    for noise in PRESETS.values():
        assert noise.read1_given0 == noise.read0_given1
