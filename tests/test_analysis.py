"""Sweeps, angle scans, evolution tables, and comparison reports."""

from __future__ import annotations

import numpy as np
import pytest

from qetsim.analysis import (
    SweepGrid,
    comparison_report,
    default_grid,
    evolution_scan,
    heatmap,
    mitigated_run,
    phi_scan,
    sampled_calibration_matrix,
)
from qetsim.model import (
    REPORT_PAIRS,
    ModelParams,
    analytic_E1,
    analytic_V,
    angles,
    free_evolution_H1,
)
from qetsim.noise import PRESETS, confusion_matrix
from qetsim.protocol import Mode, Target, run_protocol

LIMA = PRESETS["lima-like"]


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid((), (1.0,))
    with pytest.raises(ValueError):
        SweepGrid((1.0,), (0.0,))
    for bad in (np.inf, np.nan, 1e300):
        with pytest.raises(ValueError):
            SweepGrid((1.0, bad), (1.0,))
    grid = SweepGrid([1], [2])
    assert grid.h_values == (1.0,) and grid.k_values == (2.0,)


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid.h_values) == 50 and len(grid.k_values) == 50
    assert grid.h_values[0] == pytest.approx(0.05)
    assert grid.h_values[-1] == pytest.approx(2.0)


def test_heatmap_frozen_cells():
    v_map, h1_map = heatmap(SweepGrid((1.0,), (0.1, 1.0)))
    assert v_map[0, 0] == pytest.approx(-0.0193224832, abs=1e-9)
    assert h1_map[0, 0] == pytest.approx(0.0144565145, abs=1e-9)
    assert v_map[0, 1] == pytest.approx(-0.3746408196, abs=1e-9)
    assert h1_map[0, 1] == pytest.approx(0.2598931857, abs=1e-9)


def test_heatmap_sign_structure_small_grid():
    values = tuple(np.linspace(0.05, 2.0, 6))
    v_map, h1_map = heatmap(SweepGrid(values, values))
    assert np.all(v_map < 0.0)
    assert np.all(h1_map > 0.0)


@pytest.mark.parametrize("pair", REPORT_PAIRS, ids=str)
def test_phi_scan_finds_protocol_angle(pair):
    params = ModelParams(*pair)
    result = phi_scan(params, n_points=2_000)
    assert result.protocol_phi == pytest.approx(angles(params).phi, abs=1e-15)
    assert result.distance <= result.resolution
    # the scan minimum brackets the true minimum from above
    assert analytic_E1(params) - 1e-12 <= result.min_e1 <= analytic_E1(params) + 1e-5


def test_phi_scan_starts_at_zero_energy():
    # the first grid angle is 0, where the receiver does nothing
    params = ModelParams(1.0, 1.0)
    result = phi_scan(params, n_points=500)
    assert result.min_e1 < 0.0
    assert result.resolution == pytest.approx((np.pi / 2) / 500)


def test_evolution_scan_table():
    params = ModelParams(1.0, 1.0)
    t_values = np.linspace(0.0, 2 * np.pi / params.k, 101)
    rows = evolution_scan(params, t_values)
    assert rows.shape == (101, 4)
    assert np.allclose(rows[0], 0.0, atol=1e-12)
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-9
    assert np.max(np.abs(rows[:, 3])) < 1e-10
    closed = [free_evolution_H1(params, t) for t in t_values]
    assert np.allclose(rows[:, 2], closed, atol=1e-12)
    peak = params.h**2 / params.r
    assert np.max(rows[:, 1]) <= peak + 1e-9
    assert np.max(rows[:, 1]) > 0.95 * peak


def test_sampled_calibration_matrix_noiseless_and_deterministic():
    a = sampled_calibration_matrix(None, 2_000, 7)
    assert np.allclose(a, np.eye(4))
    b1 = sampled_calibration_matrix(LIMA, 2_000, 7)
    b2 = sampled_calibration_matrix(LIMA, 2_000, 7)
    assert np.array_equal(b1, b2)
    assert np.allclose(b1.sum(axis=0), 1.0, atol=1e-12)
    assert np.max(np.abs(b1 - confusion_matrix(LIMA))) < 0.05


def test_mitigated_run_improves_estimate():
    params = ModelParams(1.0, 1.0)
    unmit, mit, matrix = mitigated_run(
        params, Target.V, Mode.DEFERRED, 100_000, 11, LIMA
    )
    analytic = analytic_V(params)
    assert abs(mit.mean - analytic) < abs(unmit.mean - analytic)
    assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-12)
    assert mit.n_shots == unmit.n_shots == 100_000


def test_mitigated_run_calibrates_with_the_run_shots():
    _, _, matrix = mitigated_run(
        ModelParams(1.0, 1.0), Target.V, Mode.DEFERRED, 2_000, 3, LIMA
    )
    cal_seed = np.random.SeedSequence(3).spawn(2)[1]
    assert np.array_equal(matrix, sampled_calibration_matrix(LIMA, 2_000, cal_seed))


@pytest.mark.parametrize("noise", [None, LIMA], ids=["clean", "lima-like"])
def test_mitigated_run_without_method_is_the_plain_run(noise):
    params = ModelParams(1.0, 1.0)
    unmit, mit, matrix = mitigated_run(
        params, Target.V, Mode.DEFERRED, 5_000, 3, noise, method=None
    )
    assert matrix is None
    assert unmit == mit == run_protocol(params, Target.V, Mode.DEFERRED, 5_000, 3, noise)


def test_comparison_report_collapses_without_noise():
    pairs = [ModelParams(1.0, 0.5), ModelParams(1.0, 1.0)]
    rows = comparison_report(pairs, 5_000, 31)
    assert len(rows) == 8
    assert [r.quantity for r in rows[:4]] == ["E0", "H1", "V", "E1"]
    for row in rows:
        assert row.unmitigated == row.noiseless
        assert row.mitigated == row.noiseless
        assert row.unmitigated_err == row.noiseless_err


def test_comparison_report_composite_row_consistency():
    rows = comparison_report([ModelParams(1.0, 1.0)], 5_000, 31)
    by_quantity = {r.quantity: r for r in rows}
    e1 = by_quantity["E1"]
    assert e1.noiseless == pytest.approx(
        by_quantity["H1"].noiseless + by_quantity["V"].noiseless, abs=1e-12
    )
    assert e1.noiseless_err == pytest.approx(
        float(np.hypot(by_quantity["H1"].noiseless_err, by_quantity["V"].noiseless_err)),
        abs=1e-12,
    )
    assert e1.analytic == pytest.approx(analytic_E1(ModelParams(1.0, 1.0)), abs=1e-12)


def test_comparison_report_noise_without_mitigation():
    rows = comparison_report([ModelParams(1.0, 1.0)], 4_000, 13, LIMA, method=None)
    for row in rows:
        assert row.mitigated == row.unmitigated
        if row.quantity == "V":
            assert row.unmitigated != row.noiseless


def test_comparison_report_with_mitigation_and_determinism():
    args = ([ModelParams(1.0, 1.0)], 4_000, 13, LIMA, "least-squares")
    rows_a = comparison_report(*args)
    rows_b = comparison_report(*args)
    assert rows_a == rows_b
    v_row = next(r for r in rows_a if r.quantity == "V")
    assert abs(v_row.mitigated - v_row.analytic) < abs(v_row.unmitigated - v_row.analytic)
