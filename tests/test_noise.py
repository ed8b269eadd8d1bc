"""Readout channel, calibration estimation, and mitigation solvers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetsim.analysis import sampled_calibration_matrix
from qetsim.cli import parse_noise
from qetsim.model import ModelParams
from qetsim.noise import (
    MITIGATION_METHODS,
    PRESETS,
    ReadoutNoise,
    _correct,
    _simplex_least_squares,
    _solve,
    apply_noise,
    estimate_calibration_matrix,
    measurement_fidelity,
    mitigate,
)
from qetsim.simcore import (
    ATOL_ALGEBRA,
    BITSTRINGS,
    ControlledRy,
    NumericalError,
    check_counts,
    distribution_vector,
)

LIMA = PRESETS["lima-like"]


def test_noise_parameter_validation():
    with pytest.raises(ValueError):
        ReadoutNoise.symmetric(1.0, 0.1)
    with pytest.raises(ValueError):
        ReadoutNoise((-0.1, 0.0), (0.0, 0.0))
    ReadoutNoise.symmetric(0.0, 0.0)


@pytest.mark.parametrize(
    "read1_given0, read0_given1",
    [((0.1,), (0.1,)), ((0.1, 0.1, 0.1), (0.1, 0.1)), ((0.1, 0.1), (0.1, 0.1, 0.1)), ((), ())],
)
def test_noise_needs_two_flip_probabilities_per_direction(read1_given0, read0_given1):
    with pytest.raises(ValueError):
        ReadoutNoise(read1_given0, read0_given1)


def test_response_matrix_is_built_once_and_read_only():
    noise = ReadoutNoise((0.1, 0.02), (0.3, 0.05))
    with pytest.raises(ValueError):
        noise.response[0, 0] = 1.0
    # the matrix is derived: equality, hashing and repr see the probabilities only
    twin = ReadoutNoise((0.1, 0.02), (0.3, 0.05))
    assert twin == noise and hash(twin) == hash(noise)
    assert repr(noise) == "ReadoutNoise(read1_given0=(0.1, 0.02), read0_given1=(0.3, 0.05))"
    p0 = np.array([[0.9, 0.3], [0.1, 0.7]])
    p1 = np.array([[0.98, 0.05], [0.02, 0.95]])
    assert np.array_equal(noise.response, np.kron(p0, p1))
    # the plain-float copy the sampling path reads holds the same entries
    assert noise.response_columns == tuple(map(tuple, noise.response.T.tolist()))
    assert not hasattr(noise, "response_rows")


def row_wise_recorded(noise, dist):
    # A p as sample_protocol's noisy branch summed it, row by row over the
    # response matrix's rows as plain floats: the bits recorded must keep
    p = [dist.get(key, 0.0) for key in BITSTRINGS]
    rows = noise.response.tolist()
    return {key: a[0] * p[0] + a[1] * p[1] + a[2] * p[2] + a[3] * p[3]
            for key, a in zip(BITSTRINGS, rows)}


def _random_noise(rng):
    return ReadoutNoise(tuple(rng.uniform(0.0, 0.5, 2)), tuple(rng.uniform(0.0, 0.5, 2)))


def _random_dists(rng):
    weights = rng.dirichlet(np.ones(4), size=20).tolist()
    dists = [dict(zip(BITSTRINGS, w)) for w in weights]
    # a zero entry, missing keys, one certain outcome, and no keys at all
    dists += [{"00": 0.25, "01": 0.0, "10": 0.5, "11": 0.25}, {"01": 0.3, "11": 0.7},
              {"10": 1.0}, {}]
    return dists


RECORDED_NOISE = {
    **PRESETS,
    "asymmetric": ReadoutNoise((0.1, 0.02), (0.3, 0.05)),
    "noiseless": ReadoutNoise.symmetric(0.0, 0.0),
    **{f"random {i}": _random_noise(np.random.default_rng(i)) for i in range(5)},
}


@pytest.mark.parametrize("noise", RECORDED_NOISE.values(), ids=RECORDED_NOISE.keys())
def test_recorded_is_the_row_wise_sum(noise):
    for dist in _random_dists(np.random.default_rng(11)):
        got = noise.recorded(dist)
        assert list(got) == list(BITSTRINGS)
        want = row_wise_recorded(noise, dist)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
        matmul = noise.response @ distribution_vector(dist)
        assert np.max(np.abs(np.array(list(got.values())) - matmul)) <= 1e-15


def test_record_reprs_name_every_field():
    # the form a frozen dataclass prints; parametrized test ids are built from it
    assert repr(ModelParams(1.0, 0.5)) == "ModelParams(h=1.0, k=0.5)"
    step = ControlledRy(0, 1, 0.1, 1)
    assert repr(step) == "ControlledRy(control=0, control_value=1, theta=0.1, target=1)"


def test_confusion_matrix_kronecker_entries():
    a = ReadoutNoise.symmetric(0.1, 0.2).response
    # column j: observation distribution when the true outcome is state j
    assert a[0, 0] == pytest.approx(0.9 * 0.8)
    assert a[3, 0] == pytest.approx(0.1 * 0.2)
    assert a[1, 2] == pytest.approx(0.1 * 0.2)
    assert a[2, 2] == pytest.approx(0.9 * 0.8)
    assert np.allclose(a.sum(axis=0), 1.0, atol=1e-12)


def test_confusion_matrix_asymmetric():
    noise = ReadoutNoise((0.1, 0.0), (0.3, 0.0))
    a = noise.response
    # qubit 1 is read perfectly; qubit 0 mixes within its own bit
    assert a[0, 0] == pytest.approx(0.9)
    assert a[2, 0] == pytest.approx(0.1)
    assert a[0, 2] == pytest.approx(0.3)
    assert a[2, 2] == pytest.approx(0.7)
    assert a[1, 0] == pytest.approx(0.0)


def test_zero_noise_is_identity():
    clean = ReadoutNoise.symmetric(0.0, 0.0)
    assert np.allclose(clean.response, np.eye(4))
    counts = {"00": 700, "11": 300}
    assert apply_noise(counts, clean, np.random.default_rng(0)) == counts


def test_apply_noise_preserves_total_and_is_deterministic():
    counts = {"00": 40_000, "01": 25_000, "10": 25_000, "11": 10_000}
    a = apply_noise(counts, LIMA, np.random.default_rng(8))
    b = apply_noise(counts, LIMA, np.random.default_rng(8))
    assert a == b
    assert sum(a.values()) == 100_000


def test_apply_noise_sampled_frequencies_track_exact_channel():
    n = 200_000
    counts = {"01": n}
    observed = apply_noise(counts, LIMA, np.random.default_rng(21))
    expected = LIMA.response[:, 1]
    for i, key in enumerate(BITSTRINGS):
        p = expected[i]
        se = np.sqrt(p * (1 - p) / n)
        assert abs(observed.get(key, 0) / n - p) < 5 * se


def test_apply_noise_input_validation():
    with pytest.raises(ValueError):
        apply_noise({"00": 3.5}, LIMA, np.random.default_rng(0))
    with pytest.raises(ValueError):
        apply_noise({"0x": 1}, LIMA, np.random.default_rng(0))
    with pytest.raises(ValueError):
        apply_noise({"00": -2}, LIMA, np.random.default_rng(0))
    # int64 tallies: totals from 2**63 on would overflow or wrap
    for too_many in ({"00": 1e300}, {"00": 2**63}, dict.fromkeys(BITSTRINGS, 2**63 - 1)):
        with pytest.raises(ValueError):
            apply_noise(too_many, LIMA, 0)
    largest = apply_noise({"00": 2**63 - 2, "11": 1}, LIMA, 0)
    assert sum(largest.values()) == 2**63 - 1


def test_apply_noise_seed_forms_agree():
    counts = {"00": 4_000, "11": 6_000}
    expected = apply_noise(counts, LIMA, 5)
    assert apply_noise(counts, LIMA, np.random.SeedSequence(5)) == expected
    assert apply_noise(counts, LIMA, np.random.default_rng(5)) == expected


def test_calibration_matrix_noiseless_is_identity():
    counts = [{key: 1000} for key in BITSTRINGS]
    assert np.allclose(estimate_calibration_matrix(counts), np.eye(4))


def test_calibration_matrix_recovers_channel():
    n = 100_000
    rng = np.random.default_rng(5)
    truth = LIMA.response
    counts = [apply_noise({key: n}, LIMA, rng) for key in BITSTRINGS]
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
    assert measurement_fidelity(LIMA.response) == pytest.approx(
        0.9804 * 0.9870, abs=1e-12
    )
    assert measurement_fidelity(PRESETS["jakarta-like"].response) == pytest.approx(
        0.9756 * 0.9760, abs=1e-12
    )
    assert measurement_fidelity(PRESETS["cairo-like"].response) == pytest.approx(
        0.9915 * 0.9920, abs=1e-12
    )


def test_measurement_fidelity_is_the_mean_of_the_diagonal():
    # the diagonal summed in order and divided by four: the bits of np.mean's
    matrices = [np.eye(4), *(noise.response for noise in PRESETS.values())]
    matrices += [
        sampled_calibration_matrix(noise, n_shots, seed)
        for noise in (*PRESETS.values(), ReadoutNoise((0.05, 0.02), (0.1, 0.3)))
        for n_shots in (1, 7, 2_000, 10**6, 2**63 - 1)
        for seed in range(10)
    ]
    for a in matrices:
        assert measurement_fidelity(a) == float(np.mean(np.diag(a)))


def test_measurement_fidelity_of_negative_zeros_is_positive_zero():
    # np.mean adds from +0.0, so -0.0 entries give +0.0
    a = np.diag([-0.0] * 4)
    assert math.copysign(1.0, measurement_fidelity(a)) == math.copysign(1.0, np.mean(np.diag(a))) == 1.0


@pytest.mark.parametrize("method", MITIGATION_METHODS)
def test_mitigate_identity_matrix(method):
    out = mitigate({"00": 2, "01": 2}, np.eye(4), method)
    assert out == pytest.approx({"00": 0.5, "01": 0.5, "10": 0.0, "11": 0.0})


@pytest.mark.parametrize("method", MITIGATION_METHODS)
def test_mitigate_exact_round_trip(method):
    p = np.array([0.0264, 0.4736, 0.4736, 0.0264])
    a = LIMA.response
    y = a @ p
    counts = {key: float(y[i]) * 1e6 for i, key in enumerate(BITSTRINGS)}
    recovered = mitigate(counts, a, method)
    assert np.allclose(distribution_vector(recovered), p, atol=1e-10)


def test_mitigate_direct_clips_and_renormalizes():
    # an observed corner distribution maps outside the simplex under inversion
    a = LIMA.response
    out = mitigate({"00": 1000}, a, "direct")
    vec = distribution_vector(out)
    assert np.all(vec >= 0.0)
    assert vec.sum() == pytest.approx(1.0, abs=1e-12)


def test_mitigate_least_squares_stays_on_simplex():
    a = LIMA.response
    rng = np.random.default_rng(12)
    for _ in range(25):
        y = rng.dirichlet(np.ones(4))
        out = mitigate(dict(zip(BITSTRINGS, y)), a, "least-squares")
        vec = distribution_vector(out)
        assert np.all(vec >= 0.0)
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_mitigate_least_squares_is_optimal_on_simplex(weights):
    # the KKT solution must beat every probe point on the simplex
    a = LIMA.response
    y = np.array(weights) / np.sum(weights)
    x = distribution_vector(mitigate(dict(zip(BITSTRINGS, y)), a, "least-squares"))
    best = float(np.sum((a @ x - y) ** 2))
    probes = [np.eye(4)[i] for i in range(4)] + [np.full(4, 0.25), y]
    for z in probes:
        assert best <= float(np.sum((a @ z - y) ** 2)) + 1e-9


def test_mitigate_rejects_singular_matrix():
    singular = ReadoutNoise.symmetric(0.5, 0.5).response
    with pytest.raises(NumericalError):
        mitigate({"00": 10}, singular, "direct")
    with pytest.raises(NumericalError):
        mitigate({"00": 10}, singular, "least-squares")


@pytest.mark.parametrize(
    "a",
    [
        np.zeros((4, 4)),
        np.diag([1.0, 1.0, 1.0, 0.0]),
        *(np.diag([1.0, 1.0, 1.0, d]) for d in (1e-6, np.nextafter(1e-6, 1.0), 2e-6)),
        *(np.diag([d, 1.0, 1.0, 1.0]) for d in (1e6, 1e306, 5e-324)),
        np.full((4, 4), 0.25),
        LIMA.response,
        np.eye(4),
    ],
)
def test_mitigate_direct_guard_is_the_condition_number(a):
    # the direct method refuses exactly the matrices np.linalg.cond puts at or
    # past the ceiling, singular ones (condition number inf) included
    refused = np.linalg.cond(a) >= 1e6
    if refused:
        with pytest.raises(NumericalError):
            mitigate({"00": 3, "11": 1}, a, "direct")
    else:
        assert sum(mitigate({"00": 3, "11": 1}, a, "direct").values()) == pytest.approx(1.0)


NON_FINITE = [(method, bad) for method in MITIGATION_METHODS for bad in (np.nan, np.inf, -np.inf)]


# the direct cases keep their ids from before least squares was checked too
@pytest.mark.parametrize(
    "method, bad", NON_FINITE, ids=[f"{m}-{b}" if m != "direct" else str(b) for m, b in NON_FINITE]
)
def test_mitigate_direct_rejects_non_finite_matrix(method, bad):
    for i, j in np.ndindex(4, 4):
        a = np.eye(4)
        a[i, j] = bad
        with pytest.raises(NumericalError, match="non-finite entry"):
            mitigate({"00": 3, "11": 1}, a, method)


@pytest.mark.parametrize(
    "a, counts",
    [(-np.eye(4), {"00": 3, "11": 1}), (np.diag([1.0, 1.0, 1.0, -1.0]), {"11": 1})],
    ids=["-eye", "diag-last-negative"],
)
def test_mitigate_direct_rejects_solution_without_positive_mass(a, counts):
    # well conditioned, but every entry of the solution clips to zero
    assert np.linalg.cond(a) < 1e6
    with pytest.raises(NumericalError):
        mitigate(counts, a, "direct")


def reference_simplex_least_squares(a, y):
    """The numpy active-set solver that the plain-float one replaced; returns
    the corrected distribution and the final free set."""
    free = np.ones(4, dtype=bool)
    for _ in range(8):
        cols = np.flatnonzero(free)
        af = a[:, cols]
        m = len(cols)
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = 2.0 * af.T @ af
        kkt[:m, m] = 1.0
        kkt[m, :m] = 1.0
        rhs = np.concatenate([2.0 * af.T @ y, [1.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("degenerate calibration matrix") from exc
        xf = sol[:m]
        if np.all(xf >= -ATOL_ALGEBRA):
            x = np.zeros(4)
            x[cols] = np.clip(xf, 0.0, None)
            return x / x.sum(), cols.tolist()
        free[cols[int(np.argmin(xf))]] = False
    raise NumericalError("simplex least squares failed to converge")


def reference_mitigate(counts, a, method):
    """mitigate on numpy's solvers, as it was before plain floats."""
    y = distribution_vector(counts) / check_counts(counts)
    if method == "least-squares":
        return reference_simplex_least_squares(a, y)[0]
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] >= 1e6:
        raise NumericalError("calibration matrix is singular or ill-conditioned")
    x = np.clip(np.linalg.solve(a, y), 0.0, None)
    return x / x.sum()


@pytest.mark.parametrize("shots", [1, 50, 2000])
@pytest.mark.parametrize("spec", ["lima-like", "jakarta-like", "0.05,0.1,0.02,0.3"])
def test_mitigate_matches_numpy_reference(spec, shots):
    noise = parse_noise(spec)
    rng = np.random.default_rng(shots)
    free_sets = set()
    for seed in range(40):
        a = sampled_calibration_matrix(noise, shots, seed)
        p = rng.dirichlet(np.full(4, 0.3)) if seed % 4 else np.eye(4)[seed // 4 % 4]
        draw = rng.multinomial(shots, noise.response @ p)
        counts = {key: int(c) for key, c in zip(BITSTRINGS, draw) if c}
        y = distribution_vector(counts) / check_counts(counts)
        for method in MITIGATION_METHODS:
            try:
                want = reference_mitigate(counts, a, method)
            except NumericalError:
                with pytest.raises(NumericalError):
                    mitigate(counts, a, method)
                continue
            got = distribution_vector(mitigate(counts, a, method))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            # mitigate is its checks plus the kernel
            record = _correct(y.tolist(), a, method)
            assert mitigate(counts, a, method) == dict(zip(BITSTRINGS, record[0]))
            if method == "direct":
                assert record[1] == [0, 1, 2, 3] and record[3] == np.linalg.cond(a)
        try:
            free = reference_simplex_least_squares(a, y)[1]
        except NumericalError:
            continue
        # the same outcomes pinned to zero
        assert _simplex_least_squares(a.tolist(), y.tolist())[1] == free
        assert _correct(y.tolist(), a, "least-squares")[1] == free
        free_sets.add(len(free))
    # solutions inside the simplex, and past one shot (0/1 matrices) ones that pin
    assert 4 in free_sets and (shots == 1 or len(free_sets) > 1), free_sets


@pytest.mark.parametrize("method", MITIGATION_METHODS)
def test_correct_records_what_mitigation_did(method):
    # jakarta-like readout at 2,000 shots: the direct solutions of runs near a
    # corner of the simplex go negative and are clipped
    noise = PRESETS["jakarta-like"]
    rng = np.random.default_rng(2000)
    clipping = 0
    for seed in range(200):
        a = sampled_calibration_matrix(noise, 2000, seed)
        draw = rng.multinomial(2000, noise.response @ rng.dirichlet(np.full(4, 0.3)))
        y = (draw / 2000).tolist()
        x, free, clipped, cond, solves = _correct(y, a, method)
        if method == "direct":
            raw = _solve(a.tolist(), y)
            assert free == [0, 1, 2, 3] and cond == np.linalg.cond(a) and solves == 1
            # the clipped entries, against numpy's solver
            reference = np.linalg.solve(a, y)
            assert clipped == pytest.approx(-reference[reference < 0.0].sum(), rel=0, abs=1e-12)
        else:
            raw = _simplex_least_squares(a.tolist(), y)[0]
            assert cond is None and solves == 5 - len(free)
            assert clipped <= 4 * ATOL_ALGEBRA
        assert (clipped == 0.0) == (min(raw) >= 0.0)
        assert clipped >= 0.0
        clipping += clipped > 0.0
    if method == "direct":
        assert clipping > 0


@pytest.mark.parametrize(
    "a, method",
    [
        (ReadoutNoise.symmetric(0.5, 0.5).response, "direct"),  # singular
        (np.diag([1.0, 1.0, 1.0, 1e-7]), "direct"),  # ill-conditioned
        (ReadoutNoise.symmetric(0.5, 0.5).response, "least-squares"),  # zero pivot
        (-np.eye(4), "direct"),  # no positive mass
    ],
    ids=["singular", "ill-conditioned", "zero-pivot", "no-positive-mass"],
)
def test_correct_refuses_what_it_cannot_correct(a, method):
    # the checks that can fire on the pipeline's own matrix live in the kernel
    with pytest.raises(NumericalError):
        _correct([1.0, 0.0, 0.0, 0.0], a, method)


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
