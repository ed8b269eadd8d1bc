"""Protocol circuits, estimators, and the conditional/deferred equivalence."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qetsim.model import (
    GRID_H,
    GRID_K,
    REFERENCE_PAIRS,
    ModelParams,
    analytic_E0,
    analytic_E1,
    analytic_H1,
    analytic_V,
    _terms,
)
from qetsim.noise import PRESETS
from qetsim.protocol import (
    EstimationResult,
    Mode,
    Target,
    build_circuit,
    combine_E1,
    estimate_energy,
    run_protocol,
    run_protocol_E1,
    sample_protocol,
)
from qetsim.simcore import (
    BITSTRINGS,
    ClassicallyControlledRy,
    ControlledRy,
    Hadamard,
    distribution_vector,
    exact_distribution,
)

ANALYTIC = {
    Target.E0: analytic_E0,
    Target.H1: analytic_H1,
    Target.V: analytic_V,
}


def all_params() -> list[ModelParams]:
    grid = [ModelParams(h, k) for h in GRID_H for k in GRID_K]
    return grid + [ModelParams(h, k) for h, k in REFERENCE_PAIRS]


def test_interaction_circuit_extends_local_circuit():
    # the X-basis readout differs from the Z-basis one by a single Hadamard
    params = ModelParams(1.0, 0.5)
    for mode in Mode:
        v_steps = list(build_circuit(params, Target.V, mode).steps)
        h1_steps = list(build_circuit(params, Target.H1, mode).steps)
        assert v_steps.count(Hadamard(1)) == 1
        v_steps.remove(Hadamard(1))
        assert v_steps == h1_steps


def test_deposit_circuit_is_mode_independent():
    params = ModelParams(1.0, 0.5)
    cond = build_circuit(params, Target.E0, Mode.CONDITIONAL)
    defer = build_circuit(params, Target.E0, Mode.DEFERRED)
    assert cond.steps == defer.steps
    kinds = [type(s) for s in cond.steps]
    assert ControlledRy not in kinds
    assert ClassicallyControlledRy not in kinds


def test_feedforward_rotation_signs():
    # recorded 1 (outcome -1) rotates by -2 phi, recorded 0 by +2 phi
    params = ModelParams(1.0, 1.0)
    cond = build_circuit(params, Target.H1, Mode.CONDITIONAL)
    ccrys = [s for s in cond.steps if isinstance(s, ClassicallyControlledRy)]
    assert [(s.required_value, np.sign(s.theta)) for s in ccrys] == [(1, -1), (0, 1)]
    defer = build_circuit(params, Target.H1, Mode.DEFERRED)
    crys = [s for s in defer.steps if isinstance(s, ControlledRy)]
    assert [(s.control_value, np.sign(s.theta)) for s in crys] == [(1, -1), (0, 1)]
    assert all(s.target == 1 for s in ccrys + crys)


def test_estimator_formulas_on_small_counts():
    # E0 and H1 read h Z + h^2/r, V reads 2k X0X1 + 2k^2/r
    params = ModelParams(1.0, 0.5)
    h, k, r = params.h, params.k, params.r
    cases = [
        (Target.H1, {"00": 3, "01": 1}, 0.5 * h + h**2 / r),
        (Target.H1, {"10": 2, "11": 2}, h**2 / r),
        (Target.E0, {"00": 1, "01": 1, "11": 2}, h**2 / r),
        (Target.E0, {"10": 3, "01": 1}, -0.5 * h + h**2 / r),
        (Target.V, {"00": 2, "11": 2}, 2 * k + 2 * k**2 / r),
        (Target.V, {"01": 1, "10": 1}, -2 * k + 2 * k**2 / r),
        (Target.V, {"00": 1, "01": 1, "10": 1, "11": 1}, 2 * k**2 / r),
    ]
    for target, counts, expected in cases:
        assert estimate_energy(params, target, counts).mean == pytest.approx(expected)


def test_estimator_validation():
    # the last two round to zero shots
    bad_counts = (
        {}, {"xx": 3}, {"00": -1}, {"00": 0}, {"00": 1e308, "01": 1e308},
        {"00": 0.3, "11": 0.2}, {"01": 0.5},
    )
    for bad in bad_counts:
        for target in Target:
            with pytest.raises(ValueError):
                estimate_energy(ModelParams(1.0, 1.0), target, bad)
    assert estimate_energy(ModelParams(1.0, 1.0), Target.V, {"00": 0.3, "11": 0.25}).n_shots == 1


@pytest.mark.parametrize("shots", [1, 2_000, 2_000.0, 2**53 + 1, 2**60])
@pytest.mark.parametrize("target", [*Target, "V"], ids=str)
def test_sample_protocol_scores_as_estimate_energy(target, shots):
    # the pipeline scores run_shots' tallies without estimate_energy's checks;
    # past 2**53 the float total is summed in dict order, as check_counts sums it
    # (at 2**60 shots of V, seeds 13 and 31 score otherwise on float(2**60))
    params = ModelParams(1.0, 0.5)
    dist = exact_distribution(build_circuit(params, target, Mode.DEFERRED))
    for seed in (0, 1, 13, 31):
        result = sample_protocol(params, target, dist, shots, seed)
        assert result == estimate_energy(params, target, result.raw_counts)
        assert type(result.n_shots) is int


def test_float_weights_score_left_to_right():
    # V's signed weights 3e16, -2, -5, 8 add from the left, as every total does;
    # a compensated sum (math.fsum, builtin sum from Python 3.12 on) moves the mean
    params = ModelParams(1.0, 1.0)
    (coef, const), signed = _terms(params)[1], [3e16, -2.0, -5.0, 8.0]
    total = ((3e16 + 2.0) + 5.0) + 8.0
    result = estimate_energy(params, Target.V, {"00": 3e16, "01": 2.0, "10": 5.0, "11": 8.0})
    assert result.mean == coef * ((((3e16 - 2.0) - 5.0) + 8.0) / total) + const
    assert result.mean != coef * (math.fsum(signed) / total) + const


def test_combine_E1_adds_errors_by_math_hypot():
    # correctly rounded here, where np.hypot is an ulp low (against 60 digits)
    h1 = EstimationResult(0.5, 0.55740888009091, 10, None)
    v = EstimationResult(-0.25, 0.4989864523070149, 10, None)
    assert combine_E1(h1, v).std_error == math.hypot(0.55740888009091, 0.4989864523070149)
    assert combine_E1(h1, v).std_error == 0.7481257509203539


def test_estimate_energy_degenerate_counts():
    params = ModelParams(1.0, 1.0)
    result = estimate_energy(params, Target.H1, {"00": 100})
    assert result.mean == pytest.approx(params.h + params.h**2 / params.r)
    assert result.std_error == 0.0
    assert result.n_shots == 100


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
@pytest.mark.parametrize("pair", REFERENCE_PAIRS, ids=str)
def test_estimators_are_unbiased_on_exact_distribution(pair, target):
    # feeding exact outcome probabilities through the estimator must return
    # the closed-form value: the estimator and circuit match by construction
    params = ModelParams(*pair)
    dist = exact_distribution(build_circuit(params, target, Mode.DEFERRED))
    result = estimate_energy(params, target, dist)
    assert result.mean == pytest.approx(ANALYTIC[target](params), abs=1e-10)


@pytest.mark.parametrize("pair", REFERENCE_PAIRS, ids=str)
def test_composite_estimate_is_unbiased(pair):
    params = ModelParams(*pair)
    parts = []
    for target in (Target.H1, Target.V):
        dist = exact_distribution(build_circuit(params, target, Mode.DEFERRED))
        parts.append(estimate_energy(params, target, dist))
    assert combine_E1(*parts).mean == pytest.approx(analytic_E1(params), abs=1e-10)


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
@pytest.mark.parametrize("params", all_params(), ids=str)
def test_mode_equivalence_exact(params, target):
    cond = exact_distribution(build_circuit(params, target, Mode.CONDITIONAL))
    defer = exact_distribution(build_circuit(params, target, Mode.DEFERRED))
    for key in BITSTRINGS:
        assert abs(cond[key] - defer[key]) < 1e-12


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
@pytest.mark.parametrize("params", all_params(), ids=str)
def test_modes_give_bit_identical_distributions(params, target):
    # both modes put the same products through the same float operations, so
    # one seed gives the same counts whichever mode a run takes
    cond = exact_distribution(build_circuit(params, target, Mode.CONDITIONAL))
    defer = exact_distribution(build_circuit(params, target, Mode.DEFERRED))
    assert repr(cond) == repr(defer)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_sampled_counts_match_exact_distribution(mode):
    params = ModelParams(1.0, 1.0)
    circuit = build_circuit(params, Target.V, mode)
    n = 100_000
    counts = run_protocol(params, Target.V, mode, n, 2026).raw_counts
    dist = exact_distribution(circuit)
    # Pearson's statistic over the four outcomes has 3 degrees of freedom, whose
    # chi-square survival function is erfc(sqrt(x/2)) + sqrt(2x/pi) exp(-x/2)
    x = sum((counts.get(key, 0) - dist[key] * n) ** 2 / (dist[key] * n) for key in BITSTRINGS)
    pvalue = math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    assert pvalue > 0.001


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
@pytest.mark.parametrize("pair", REFERENCE_PAIRS, ids=str)
def test_sampled_estimates_near_analytic(pair, target):
    params = ModelParams(*pair)
    result = run_protocol(params, target, Mode.DEFERRED, 100_000, 2026)
    assert abs(result.mean - ANALYTIC[target](params)) < 4 * result.std_error


def test_standard_error_scales_inverse_root_n():
    # the reported error is itself an estimate, so average out its jitter
    params = ModelParams(1.0, 1.0)
    ratios = []
    for seed in range(20):
        small = run_protocol(params, Target.V, Mode.DEFERRED, 1_000, seed)
        large = run_protocol(params, Target.V, Mode.DEFERRED, 100_000, seed)
        ratios.append(small.std_error / large.std_error)
    assert float(np.mean(ratios)) == pytest.approx(10.0, rel=0.1)


def test_run_protocol_determinism():
    params = ModelParams(1.0, 0.5)
    a = run_protocol(params, Target.V, Mode.CONDITIONAL, 20_000, 99)
    b = run_protocol(params, Target.V, Mode.CONDITIONAL, 20_000, 99)
    assert a == b
    record = PRESETS["lima-like"].recorded(
        exact_distribution(build_circuit(params, Target.V, Mode.DEFERRED))
    )
    noisy_a = sample_protocol(params, Target.V, record, 20_000, 99)
    noisy_b = sample_protocol(params, Target.V, record, 20_000, 99)
    assert noisy_a == noisy_b


def test_composite_run_shares_nothing_between_parts():
    params = ModelParams(1.0, 1.0)
    result = run_protocol_E1(params, Mode.DEFERRED, 50_000, 17)
    h1_part, v_part = result.components
    assert result.mean == pytest.approx(h1_part.mean + v_part.mean, abs=1e-12)
    assert result.std_error == pytest.approx(
        float(np.hypot(h1_part.std_error, v_part.std_error)), abs=1e-12
    )
    assert result.n_shots == 100_000
    assert result.raw_counts is None
    assert abs(result.mean - analytic_E1(params)) < 4 * result.std_error


def test_readout_noise_shrinks_interaction_magnitude():
    params = ModelParams(1.0, 1.0)
    noise = PRESETS["lima-like"]
    clean_dist = exact_distribution(build_circuit(params, Target.V, Mode.DEFERRED))
    noisy_dist = noise.response @ distribution_vector(clean_dist)
    noisy_counts = dict(zip(BITSTRINGS, noisy_dist.tolist()))
    noisy_mean = estimate_energy(params, Target.V, noisy_counts).mean
    assert abs(noisy_mean) < abs(analytic_V(params))
    # the sampled noisy run concentrates around the pushed-through value
    result = sample_protocol(params, Target.V, noise.recorded(clean_dist), 100_000, 11)
    assert abs(result.mean - noisy_mean) < 4 * result.std_error


def test_estimation_result_is_frozen():
    result = EstimationResult(1.0, 0.1, 10, {"00": 10})
    with pytest.raises(AttributeError):
        result.mean = 2.0
