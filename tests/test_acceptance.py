"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Criteria with a stated runtime budget assert it with a wall clock.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np
import pytest

from qetsim.analysis import SweepGrid, heatmap, mitigated_run, phi_scan
from qetsim.cli import DEFAULT_AXIS, parse_axis
from qetsim.model import (
    GRID_H,
    GRID_K,
    REFERENCE_PAIRS,
    REPORT_PAIRS,
    ModelParams,
    analytic_E0,
    analytic_E1,
    analytic_H1,
    analytic_V,
    build_hamiltonians,
    entropy_report,
    free_evolution_H1,
    nogo_gap,
    rho_measured,
)
from qetsim.noise import PRESETS
from qetsim.protocol import Mode, Target, build_circuit, run_protocol
from qetsim.simcore import BITSTRINGS, evolve, exact_distribution, expectation

LIMA = PRESETS["lima-like"]

# Four-decimal reference rows for (E0, H1, V, E1), as published per pair.
QUOTED_TABLE = {
    (1.0, 0.2): (0.9806, 0.0521, -0.0701, -0.0180),
    (1.0, 0.5): (0.8944, 0.1873, -0.2598, -0.0726),
    (1.0, 1.0): (0.7071, 0.2598, -0.3746, -0.1147),
    (1.5, 1.0): (1.2481, 0.3480, -0.4905, -0.1425),
    (1.0, 0.1): (0.9950, 0.0144, -0.0193, -0.0049),
}

ANALYTIC = {
    Target.E0: analytic_E0,
    Target.H1: analytic_H1,
    Target.V: analytic_V,
}


def all_test_params() -> list[ModelParams]:
    grid = [ModelParams(h, k) for h in GRID_H for k in GRID_K]
    return grid + [ModelParams(h, k) for h, k in REFERENCE_PAIRS]


def test_criterion_01_analytic_regression_quoted_table():
    start = time.perf_counter()
    worst = 0.0
    for pair, (e0, h1, v, e1) in QUOTED_TABLE.items():
        params = ModelParams(*pair)
        computed = (
            analytic_E0(params),
            analytic_H1(params),
            analytic_V(params),
            analytic_E1(params),
        )
        for got, quoted in zip(computed, (e0, h1, v, e1)):
            worst = max(worst, abs(got - quoted))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max deviation from quoted table {worst:.3e}, {elapsed:.3f} s")
    assert worst < 1e-4
    assert elapsed < 1.0


def test_criterion_02_sampled_estimators_within_four_sigma():
    start = time.perf_counter()
    n_shots, n_seeds = 100_000, 20
    for p_idx, pair in enumerate(REFERENCE_PAIRS):
        params = ModelParams(*pair)
        for t_idx, target in enumerate((Target.E0, Target.H1, Target.V)):
            reference = ANALYTIC[target](params)
            hits = 0
            for rep in range(n_seeds):
                seed = 20_000 + 1_000 * p_idx + 100 * t_idx + rep
                result = run_protocol(params, target, Mode.DEFERRED, n_shots, seed)
                hits += abs(result.mean - reference) < 4.0 * result.std_error
            assert hits >= 19, f"{pair} {target.value}: {hits}/20 within 4 sigma"
    elapsed = time.perf_counter() - start
    print(f"criterion 2: all settings >= 19/20 within 4 sigma, {elapsed:.1f} s")
    assert elapsed < 30.0


def test_criterion_03_conditional_deferred_equivalence():
    worst = 0.0
    for params in all_test_params():
        for target in Target:
            cond = exact_distribution(build_circuit(params, target, Mode.CONDITIONAL))
            defer = exact_distribution(build_circuit(params, target, Mode.DEFERRED))
            worst = max(worst, max(abs(cond[key] - defer[key]) for key in BITSTRINGS))
    print(f"criterion 3: max mode probability difference {worst:.3e}")
    assert worst < 1e-12


def test_criterion_04_nogo_inequality_random_unitaries():
    rng = np.random.default_rng(271_828)
    worst = np.inf
    for pair in REPORT_PAIRS:
        params = ModelParams(*pair)
        for _ in range(1_000):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            w1, _ = np.linalg.qr(z)
            worst = min(worst, nogo_gap(params, w1))
    print(f"criterion 4: smallest gap over 4000 unitaries {worst:.3e}")
    assert worst >= -1e-10


def test_criterion_05_time_evolution_against_closed_form():
    worst = 0.0
    for pair in ((1.0, 1.0), (1.5, 1.0)):
        params = ModelParams(*pair)
        hams = build_hamiltonians(params)
        rho0 = rho_measured(params)
        for t in np.linspace(0.0, 2 * np.pi / params.k, 101):
            rho_t = evolve(rho0, hams.htot, t)
            dev_h1 = abs(expectation(rho_t, hams.h1) - free_evolution_H1(params, t))
            dev_v = abs(expectation(rho_t, hams.v))
            worst = max(worst, dev_h1, dev_v)
    print(f"criterion 5: max evolution deviation {worst:.3e}")
    assert worst < 1e-9


def test_criterion_06_entropy_bound_on_grid():
    least_slack = np.inf
    for params in all_test_params():
        rep = entropy_report(params)
        least_slack = min(least_slack, rep.delta_s - rep.delta_s_lower_bound)
    print(f"criterion 6: smallest entropy-bound slack {least_slack:.3e}")
    assert least_slack >= -1e-10


@lru_cache(maxsize=1)
def _mitigation_samples() -> dict[tuple[float, float], list[tuple[float, float]]]:
    # 100 seeds x 4 pairs of the full noisy-run + sampled-calibration pipeline
    samples: dict[tuple[float, float], list[tuple[float, float]]] = {}
    for p_idx, pair in enumerate(REPORT_PAIRS):
        params = ModelParams(*pair)
        rows = []
        for rep in range(100):
            seed = 700_000 + 1_000 * p_idx + rep
            unmit, mit, _ = mitigated_run(
                params, Target.V, Mode.DEFERRED, 100_000, seed, LIMA, "least-squares"
            )
            rows.append((unmit.mean, mit.mean))
        samples[pair] = rows
    return samples


def test_criterion_07_mitigation_efficacy():
    start = time.perf_counter()
    samples = _mitigation_samples()
    for pair, rows in samples.items():
        reference = analytic_V(ModelParams(*pair))
        closer = sum(abs(mit - reference) < abs(unmit - reference) for unmit, mit in rows)
        negative = sum(mit < 0.0 for _, mit in rows)
        assert closer >= 95, f"{pair}: mitigated closer in only {closer}/100 seeds"
        assert negative >= 99, f"{pair}: mitigated negative in only {negative}/100 seeds"
    elapsed = time.perf_counter() - start
    print(f"criterion 7: mitigation closer and negative on all pairs, {elapsed:.1f} s")
    assert elapsed < 300.0


def test_criterion_08_noisy_magnitude_ordering():
    # hardware rows are device-specific and not reproduced; the qualitative
    # ordering |unmitigated| < |mitigated| <= |analytic| is checked per seed on
    # the left and on the 100-seed mean (4 standard errors) on the right
    samples = _mitigation_samples()
    for pair, rows in samples.items():
        magnitude = abs(analytic_V(ModelParams(*pair)))
        unmit_abs = np.array([abs(u) for u, _ in rows])
        mit_abs = np.array([abs(m) for _, m in rows])
        restored = int(np.sum(unmit_abs < mit_abs))
        assert restored >= 95, f"{pair}: magnitude restored in only {restored}/100 seeds"
        sem = float(np.std(mit_abs, ddof=1)) / np.sqrt(len(mit_abs))
        assert float(np.mean(mit_abs)) <= magnitude + 4.0 * sem
    print("criterion 8: noise shrinks, mitigation restores without overshoot")


def test_criterion_09_heatmap_sign_structure():
    start = time.perf_counter()
    axis = parse_axis(DEFAULT_AXIS)  # the default sweep grid
    v_map, h1_map = heatmap(SweepGrid(axis, axis))
    elapsed = time.perf_counter() - start
    print(f"criterion 9: 2500-cell sign check, {elapsed:.2f} s")
    assert v_map.shape == (50, 50)
    assert np.all(v_map < 0.0)
    assert np.all(h1_map > 0.0)
    assert elapsed < 10.0


def test_criterion_10_phi_scan_matches_protocol_angle():
    worst_ratio = 0.0
    for pair in REPORT_PAIRS:
        result = phi_scan(ModelParams(*pair))
        worst_ratio = max(worst_ratio, result.distance / result.resolution)
        assert result.distance <= 2.0 * result.resolution, pair
    print(f"criterion 10: worst argmin distance {worst_ratio:.2f} grid steps")
