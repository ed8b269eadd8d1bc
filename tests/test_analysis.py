"""Sweeps, angle scans, evolution tables, and comparison reports."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from qetsim import analysis, protocol
from qetsim.analysis import (
    HALF_UNIT,
    ComparisonRow,
    SweepGrid,
    comparison_report,
    evolution_scan,
    heatmap,
    mitigated_run,
    phi_scan,
    sampled_calibration_matrix,
)
from qetsim.cli import DEFAULT_AXIS, format_float, main, parse_axis
from qetsim.model import (
    GRID_H,
    GRID_K,
    REPORT_PAIRS,
    ModelParams,
    _receiver_energies,
    analytic_E1,
    analytic_H1,
    analytic_V,
    angles,
    build_hamiltonians,
    free_evolution_H1,
    rho_measured,
    rho_qet,
)
from qetsim.noise import (
    MITIGATION_METHODS,
    PRESETS,
    ReadoutNoise,
    apply_noise,
    estimate_calibration_matrix,
    mitigate,
)
from qetsim.protocol import (
    EstimationResult,
    Mode,
    Target,
    build_circuit,
    combine_E1,
    e1_parts,
    estimate_energy,
    run_protocol,
    run_protocol_E1,
    sample_protocol,
)
from qetsim.simcore import (
    BITSTRINGS,
    NumericalError,
    distribution_vector,
    evolve,
    exact_distribution,
    expectation,
    run_shots,
)

LIMA = PRESETS["lima-like"]


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid((), (1.0,))
    with pytest.raises(ValueError):
        SweepGrid((1.0,), (0.0,))
    for bad in (np.inf, np.nan, 1e300):
        with pytest.raises(ValueError):
            SweepGrid((1.0, bad), (1.0,))
    # only the cell pairing the two smallest values has r = 0
    with pytest.raises(ValueError):
        SweepGrid((1e-300, 1.0), (1e-300, 1.0))
    grid = SweepGrid([1], [2])
    assert grid.h_values == (1.0,) and grid.k_values == (2.0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0], ids=str)
def test_sweep_grid_bad_axis_value_message(bad):
    for h_values, k_values in (((1.0, bad), (1.0,)), ((1.0,), (bad, 1.0))):
        with pytest.raises(ValueError, match="^grid values must be positive and finite$"):
            SweepGrid(h_values, k_values)


def test_default_grid_shape():
    axis = parse_axis(DEFAULT_AXIS)
    grid = SweepGrid(axis, axis)
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
    result = phi_scan(params)
    assert result.protocol_phi == pytest.approx(angles(params).phi, abs=1e-15)
    assert result.distance <= result.resolution
    # the scan minimum brackets the true minimum from above
    assert analytic_E1(params) - 1e-12 <= result.min_e1 <= analytic_E1(params) + 1e-5


def test_phi_scan_starts_at_zero_energy():
    # the first grid angle is 0, where the receiver does nothing
    params = ModelParams(1.0, 1.0)
    result = phi_scan(params)
    assert result.min_e1 < 0.0
    assert result.resolution == pytest.approx((np.pi / 2) / 10**4)


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


# The batched scans against their per-cell and per-step definitions: a log
# grid over six decades plus the SweepGrid edge pairs.
LOG_AXIS = tuple(float(x) for x in np.logspace(-3, 3, 13))
EDGE_PAIRS = ((1e-160, 1.0), (1.0, 1e-160))
SCAN_PAIRS = tuple((h, k) for h in LOG_AXIS[::3] for k in LOG_AXIS[::3]) + EDGE_PAIRS
# the pairs whose one-period evolve table float64 cannot resolve to the printed
# half unit: (1, 1e-160) loses the 4k oscillation, and (1e3, 1e-3) rounds h1_sim
# by 1e-6
UNRESOLVED_PAIRS = ((1.0, 1e-160), (1e3, 1e-3))


def _bound(definition, scale):
    # each side sums operator terms as large as `scale` (for example 2 k^2 / r
    # against a V of -h^2 / 8 when k >> h), so both round at 1e-16 of it
    return 1e-14 * np.maximum(np.maximum(1.0, np.abs(definition)), scale)


def _assert_matches(batched, definition, scale):
    assert np.all(np.abs(np.asarray(batched) - definition) <= _bound(definition, scale))


def _term_scales(params: ModelParams) -> tuple[float, float]:
    """Sizes of the terms of V and of H1."""
    h, k, r = params.h, params.k, params.r
    return 2 * k + 2 * k * k / r, h + h * h / r


def _per_cell_heatmap(h_values, k_values):
    """V, H1 and their term sizes, one ModelParams and rho_qet per cell."""
    out = np.empty((4, len(h_values), len(k_values)))
    for i, h in enumerate(h_values):
        for j, k in enumerate(k_values):
            params = ModelParams(h, k)
            rho, hams = rho_qet(params), build_hamiltonians(params)
            out[:, i, j] = (expectation(rho, hams.v), expectation(rho, hams.h1),
                            *_term_scales(params))
    return out


@pytest.mark.parametrize(
    "h_values, k_values",
    [(LOG_AXIS, LOG_AXIS), (GRID_H, GRID_K)] + [((h,), (k,)) for h, k in REPORT_PAIRS + EDGE_PAIRS],
)
def test_heatmap_matches_per_cell_definition(h_values, k_values):
    v_map, h1_map = heatmap(SweepGrid(h_values, k_values))
    v, h1, v_scale, h1_scale = _per_cell_heatmap(h_values, k_values)
    _assert_matches(v_map, v, v_scale)
    _assert_matches(h1_map, h1, h1_scale)
    # and no six-decimal CLI cell flips, except where the per-cell reference
    # lies within its own bound of a rounding boundary and so cannot decide
    # the digit: BOUNDARY_CELLS pins each such cell from high precision
    for name, batched, cell, scale in (("V", v_map, v, v_scale), ("H1", h1_map, h1, h1_scale)):
        bound = _bound(cell, scale)
        for (i, j), x in np.ndenumerate(cell):
            if format_float(x - bound[i, j]) != format_float(x + bound[i, j]):
                assert (name, h_values[i], k_values[j]) in BOUNDARY_CELLS
            else:
                assert format_float(batched[i, j]) == format_float(x)


# The LOG_AXIS cells whose per-cell reference lies within its bound of a
# six-decimal rounding boundary, with their value and printed digits. Values
# from mpmath at 50 digits: phi = atan2(h k, h^2 + 2 k^2)/2, r = sqrt(h^2 + k^2),
# V = 2k (2k sin^2 phi - h sin 2phi)/r and H1 = h (2h sin^2 phi + k sin 2phi)/r,
# rounded to 17 significant digits. The first and last once printed wrong.
BOUNDARY_CELLS = {
    ("V", 0.1, 1000.0): (-7.4999999296875014e-6, "-0.000007"),
    ("V", 0.03162277660168379, 100.0): (-7.4999992968750606e-6, "-0.000007"),
    ("H1", 0.01, 100.0): (4.9999999562500006e-7, "0.000000"),
    ("H1", 0.03162277660168379, 1000.0): (4.9999999956249994e-7, "0.000000"),
    ("H1", 100.0, 0.01): (1.4999999437500020e-6, "0.000001"),
    ("H1", 1000.0, 0.03162277660168379): (1.4999999943749998e-6, "0.000001"),
}


@pytest.mark.parametrize("cell", BOUNDARY_CELLS, ids=str)
def test_cells_near_rounding_boundary_print_right(capsys, cell):
    name, h, k = cell
    value, printed = BOUNDARY_CELLS[cell]
    analytic = analysis.ANALYTIC[name](ModelParams(h, k))
    assert abs(analytic - value) <= 1e-15 * abs(value)
    assert format_float(analytic) == printed
    # the sweep cell and the run's analytic value print the same digits
    assert main(["sweep", "--grid-h", repr(h), "--grid-k", repr(k)]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[2 if name == "V" else 3] == printed
    assert main(["run", "--target", name, "--h", repr(h), "--k", repr(k), "--shots", "10"]) == 0
    assert format_float(json.loads(capsys.readouterr().out)["analytic"]) == printed


def test_receiver_energies_at_largest_couplings(capsys):
    # h^2 * 2 overflows here; <H1> is 1.44565145190689755e152 (mpmath, 50 digits)
    params, expected = ModelParams(1e154, 1e153), 1.44565145190689755e152
    _, h1_map = heatmap(SweepGrid((1e154,), (1e153,)))
    for value in (analytic_H1(params), h1_map[0, 0]):
        assert abs(value - expected) <= 1e-15 * expected
    # every scanned angle stays finite: an overflow warning fails the test
    result = phi_scan(params)
    e1 = analytic_E1(params)
    assert e1 - 1e-12 * abs(e1) <= result.min_e1 < 0.0
    assert main(["run", "--target", "H1", "--h", "1e154", "--k", "1e153", "--shots", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["analytic"] == analytic_H1(params)


@pytest.mark.parametrize("pair", SCAN_PAIRS, ids=str)
def test_phi_scan_matches_per_angle_definition(pair, monkeypatch):
    monkeypatch.setattr(analysis, "_PHI_POINTS", 64)
    params = ModelParams(*pair)
    result = phi_scan(params)
    phis = np.linspace(0.0, np.pi / 2, 64, endpoint=False)
    hams = build_hamiltonians(params)
    energies = [expectation(rho_qet(params, phi), hams.h1 + hams.v) for phi in phis]
    best = int(np.argmin(energies))
    assert result.best_phi == phis[best]
    _assert_matches(result.min_e1, energies[best], sum(_term_scales(params)))


def test_phi_scan_tables_are_built_once_and_change_no_bit(monkeypatch):
    # the cached sine tables give every bit of a fresh evaluation over the same
    # angles, on a log grid and at the largest couplings
    phis = np.linspace(0.0, np.pi / 2, analysis._PHI_POINTS, endpoint=False)
    axis = np.logspace(-3, 3, 7).tolist()
    for h, k in [(h, k) for h in axis for k in axis] + [(1e154, 1e153)]:
        params = ModelParams(h, k)
        energies = sum(_receiver_energies(h, k, params.r, phis))
        best, protocol_phi = int(np.argmin(energies)), angles(params).phi
        assert phi_scan(params) == analysis.PhiScanResult(
            float(phis[best]), float(energies[best]), protocol_phi,
            abs(float(phis[best]) - protocol_phi), float(phis[1] - phis[0]))
    tables = analysis._phi_tables(analysis._PHI_POINTS)
    assert tables is analysis._phi_tables(analysis._PHI_POINTS)
    assert not any(table.flags.writeable for table in (tables, *tables))
    with pytest.raises(ValueError, match="read-only"):
        tables[1][0] = 1.0
    # another point count gets tables of its own
    monkeypatch.setattr(analysis, "_PHI_POINTS", 64)
    assert phi_scan(ModelParams(1.0, 1.0)).resolution == (np.pi / 2) / 64
    assert analysis._phi_tables(64).shape == (3, 64)


@pytest.mark.parametrize("pair", SCAN_PAIRS + REPORT_PAIRS, ids=str)
def test_evolution_scan_matches_per_step_evolve(pair, monkeypatch):
    # a five-step chunk makes the 33 steps cross six batch boundaries
    monkeypatch.setattr(analysis, "_EVOLVE_CHUNK", 5)
    params = ModelParams(*pair)
    t_values = np.linspace(0.0, 2 * np.pi / params.k, 33)
    if pair in UNRESOLVED_PAIRS:
        with pytest.raises(NumericalError, match="rounding reaches"):
            evolution_scan(params, t_values)
        return
    rows = evolution_scan(params, t_values)
    hams = build_hamiltonians(params)
    states = [evolve(rho_measured(params), hams.htot, t) for t in t_values]
    v_scale, h1_scale = _term_scales(params)
    assert np.array_equal(rows[:, 0], t_values)
    assert np.array_equal(rows[:, 2], [free_evolution_H1(params, t) for t in t_values])
    _assert_matches(rows[:, 1], [expectation(rho, hams.h1) for rho in states], h1_scale)
    _assert_matches(rows[:, 3], [expectation(rho, hams.v) for rho in states], v_scale)


EVOLVE_PAIRS = tuple(dict.fromkeys(
    SCAN_PAIRS + REPORT_PAIRS + tuple((h, k) for h in GRID_H for k in GRID_K)
))


@pytest.mark.parametrize("pair", EVOLVE_PAIRS, ids=str)
def test_evolution_table_cells_match_per_step_evolve(pair):
    # the default qet evolve table: no six-decimal CLI cell flips
    params = ModelParams(*pair)
    t_values = np.linspace(0.0, 2 * np.pi / params.k, 101)
    if pair in UNRESOLVED_PAIRS:
        with pytest.raises(NumericalError, match="rounding reaches"):
            evolution_scan(params, t_values)
        return
    rows = evolution_scan(params, t_values)
    hams = build_hamiltonians(params)
    states = [evolve(rho_measured(params), hams.htot, t) for t in t_values]
    for column, obs in ((1, hams.h1), (3, hams.v)):
        per_step = [format_float(expectation(rho, obs)) for rho in states]
        assert [format_float(x) for x in rows[:, column]] == per_step


@pytest.mark.parametrize(
    "pair", [(1.0, 3e-8), (1e3, 0.03), (3e7, 3e7), (1.0, 4e8), (1e-3, 4e8), (1e-3, 1e6)], ids=str
)
def test_evolution_scan_keeps_the_swing_where_it_runs(pair):
    # pairs at the edges of the rounding check over one period (h^2/k, h and k
    # each near its largest): h1_sim keeps the closed form, and v_sim its 0,
    # to the printed half unit
    params = ModelParams(*pair)
    rows = evolution_scan(params, np.linspace(0.0, 2 * np.pi / params.k, 101))
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) <= HALF_UNIT
    assert np.max(np.abs(rows[:, 3])) <= HALF_UNIT


def test_evolution_scan_prints_no_rounding_as_digits():
    # wherever the scan runs, on a log grid of couplings and of times from a
    # thousandth of a period to a thousand periods, each printed cell is off by
    # at most half its last digit
    ran = 0
    for h in np.logspace(-3, 9, 25):
        for k in np.logspace(-3, 9, 25):
            params = ModelParams(h, k)
            for periods in (1e-3, 1.0, 1e3):
                t_values = np.linspace(0.0, periods * 2 * np.pi / k, 101)
                try:
                    rows = evolution_scan(params, t_values)
                except NumericalError:
                    continue
                ran += 1
                h1_closed = free_evolution_H1(params, t_values)
                assert np.max(np.abs(rows[:, 1] - h1_closed)) <= HALF_UNIT, (h, k, periods)
                assert np.max(np.abs(rows[:, 3])) <= HALF_UNIT, (h, k, periods)
    assert ran > 1000


def test_evolution_scan_rejects_unresolved_phases():
    # the 4k oscillation is 1e-9 of the eigenvalues' size 4r: a short run
    # resolves its phases, a full period does not
    params = ModelParams(1.0, 1e-9)
    assert np.all(np.isfinite(evolution_scan(params, [0.0, 1e3])))
    with pytest.raises(NumericalError, match="rounding reaches"):
        evolution_scan(params, [0.0, 2 * np.pi / params.k])


def test_sampled_calibration_matrix_is_deterministic():
    b1 = sampled_calibration_matrix(LIMA, 2_000, 7)
    b2 = sampled_calibration_matrix(LIMA, 2_000, 7)
    assert np.array_equal(b1, b2)
    assert np.allclose(b1.sum(axis=0), 1.0, atol=1e-12)
    assert np.max(np.abs(b1 - LIMA.response)) < 0.05


def reference_calibration_matrix(noise, n_shots, seed):
    """The per-column path: a record of n_shots of basis state j through
    apply_noise on its own spawned generator, tabulated by
    estimate_calibration_matrix."""
    seeds = np.random.SeedSequence(seed).spawn(8)[1::2]
    return estimate_calibration_matrix(
        [apply_noise({key: n_shots}, noise, s) for key, s in zip(BITSTRINGS, seeds)]
    )


def reference_noisy_counts(dist, noise, n_shots, seed):
    """The two-step noisy run: clean shots on one spawned generator, then
    apply_noise flipping their records on a second."""
    shot_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    return apply_noise(run_shots(dist, n_shots, shot_seed), noise, noise_seed)


CALIBRATION_NOISE = [*PRESETS.values(), ReadoutNoise((0.05, 0.02), (0.1, 0.3))]
BAND_SEEDS = [0, 7, 2024]

# A statistical check passes while each tally lies within BAND binomial
# standard deviations of its expected value n q. Every expected tally it checks
# is at least 100, where the normal approximation puts a two-sided excursion
# past 6 sigma near 2e-9: under 1e-5 over all the checks below. The seeds are
# fixed, so a failure repeats; it is reported with its z-score, and the seeds
# are never changed to make it pass.
BAND = 6.0


def assert_in_band(tallies, n, q, what):
    for key, c, qi in zip(BITSTRINGS, tallies, q):
        mean, sigma = n * qi, math.sqrt(n * qi * (1.0 - qi))
        assert mean >= 100.0, f"{what}: expected tally {mean} too small for the band"
        z = (c - mean) / sigma
        assert abs(z) <= BAND, (
            f"{what}: outcome {key} tallied {c} against {mean:.1f} +/- {sigma:.1f} "
            f"({z:+.2f} sigma). Under the readout model this has probability about "
            f"2e-9: a defect, or that chance; report it, do not re-seed"
        )


@pytest.mark.parametrize("noise", CALIBRATION_NOISE)
@pytest.mark.parametrize("n_shots", [1, 2_000, 2**63 - 1])
@pytest.mark.parametrize("seed", BAND_SEEDS)
def test_sampled_calibration_matrix_is_one_generator_tabulation(noise, n_shots, seed):
    # the four columns' draws follow each other on the one generator seed seeds,
    # one 1-D call per column; numpy's one 2-D call over the transposed response
    # draws its rows in the same order on the same stream
    g = np.random.default_rng(np.random.SeedSequence(seed))
    tallies = g.multinomial(n_shots, noise.response.T).tolist()
    expected = estimate_calibration_matrix([dict(zip(BITSTRINGS, t)) for t in tallies])
    a = sampled_calibration_matrix(noise, n_shots, seed)
    assert a.dtype == expected.dtype and a.tobytes() == expected.tobytes()


@pytest.mark.parametrize("noise", CALIBRATION_NOISE)
@pytest.mark.parametrize("n_shots", [10**7, 2**63 - 1])
def test_calibration_columns_lie_in_band(noise, n_shots):
    for seed in BAND_SEEDS:
        for name, a in (
            ("sampled_calibration_matrix", sampled_calibration_matrix(noise, n_shots, seed)),
            ("per-column apply_noise", reference_calibration_matrix(noise, n_shots, seed)),
        ):
            for j, key in enumerate(BITSTRINGS):
                what = f"{name} column {key}, seed {seed}"
                assert_in_band(a[:, j] * n_shots, n_shots, noise.response[:, j], what)


BAND_PARAMS = [ModelParams(1.0, 0.5), ModelParams(0.3, 1.2), ModelParams(1.5, 1.0)]
BAND_CIRCUITS = [(Target.E0, Mode.DEFERRED)] + [
    (target, mode) for target in (Target.H1, Target.V) for mode in Mode
]


@pytest.mark.parametrize("noise", CALIBRATION_NOISE)
@pytest.mark.parametrize("target, mode", BAND_CIRCUITS)
def test_noisy_tallies_lie_in_band(noise, target, mode):
    n_shots = 10**7
    for params in BAND_PARAMS:
        dist = exact_distribution(build_circuit(params, target, mode))
        q = noise.response @ distribution_vector(dist)
        for seed in BAND_SEEDS:
            run = sample_protocol(params, target, noise.recorded(dist), n_shots, seed).raw_counts
            for name, counts in (
                ("sample_protocol", run),
                ("run_shots then apply_noise", reference_noisy_counts(dist, noise, n_shots, seed)),
            ):
                tallies = [counts.get(key, 0) for key in BITSTRINGS]
                what = f"{name} {target.value} {mode.value} at {params}, seed {seed}"
                assert_in_band(tallies, n_shots, q, what)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_noisy_sample_rejects_non_finite_distribution(bad):
    dist = {"00": bad, "01": 0.0, "10": 0.0, "11": 0.0}
    with pytest.raises(NumericalError):
        sample_protocol(ModelParams(1.0, 1.0), Target.V, LIMA.recorded(dist), 100, 0)


@pytest.mark.parametrize("n_shots", [0, -1, 1.5, 2**63, float(2**63), np.nan, np.inf])
@pytest.mark.parametrize("noise", [LIMA, None])
def test_sampled_calibration_matrix_rejects_bad_shot_counts(monkeypatch, n_shots, noise):
    with pytest.raises(ValueError):
        reference_calibration_matrix(LIMA, n_shots, 0)

    def no_sampling(*args, **kwargs):
        raise AssertionError("a generator was seeded")

    # a noise-free run calibrates nothing, whatever its method, and still
    # checks its shot count before it samples
    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(ValueError):
        if noise is None:
            mitigated_run(ModelParams(1.0, 1.0), Target.V, Mode.DEFERRED, n_shots, 0, None,
                          "least-squares")
        else:
            sampled_calibration_matrix(noise, n_shots, 0)


def test_shot_counts_are_integral():
    params = ModelParams(1.0, 1.0)
    with pytest.raises(ValueError):
        run_protocol(params, Target.V, Mode.DEFERRED, 5.5, 1)
    for noise in (None, LIMA):
        for method in ("least-squares", None):
            with pytest.raises(ValueError):
                mitigated_run(params, Target.V, Mode.DEFERRED, 5.5, 1, noise, method)
    # an integral float is a count: the same results, each with an int n_shots
    as_int = (
        run_protocol(params, Target.V, Mode.DEFERRED, 5, 1),
        *mitigated_run(params, "E1", Mode.DEFERRED, 5, 1, LIMA)[:2],
    )
    as_float = (
        run_protocol(params, Target.V, Mode.DEFERRED, 5.0, 1),
        *mitigated_run(params, "E1", Mode.DEFERRED, 5.0, 1, LIMA)[:2],
    )
    assert as_float == as_int
    for result in as_float:
        assert type(result.n_shots) is int
        for part in result.components or ():
            assert type(part.n_shots) is int and part.n_shots == 5


def test_sampled_calibration_matrix_spawns_no_children():
    # the calibration seed seeds its one generator itself: a caller's
    # SeedSequence has spawned nothing afterwards
    seed = np.random.SeedSequence(3)
    sampled_calibration_matrix(LIMA, 10, seed)
    assert seed.n_children_spawned == 0


def test_report_enumerates_each_circuit_once(monkeypatch):
    circuits = []

    def counting(circuit):
        circuits.append(circuit)
        return exact_distribution(circuit)

    for module in (analysis, protocol):
        monkeypatch.setattr(module, "exact_distribution", counting)
    pairs = [ModelParams(1.0, 0.5), ModelParams(0.3, 1.2)]
    for params_list, noise in ((pairs[:1], LIMA), (pairs, LIMA), (pairs, None)):
        circuits.clear()
        comparison_report(params_list, 1_000, 3, noise, "least-squares")
        # three distinct circuits (E0, H1, V) per pair, each run clean and noisy
        assert len(circuits) == len(set(circuits)) == 3 * len(params_list)


@pytest.mark.parametrize("method", [*MITIGATION_METHODS, None])
def test_report_rows_are_the_per_target_runs(method):
    # each target's clean and noisy runs share one enumeration, and the same
    # seeds as separate run_protocol and mitigated_run calls
    params_list = [ModelParams(1.0, 0.5), ModelParams(0.3, 1.2)]
    rows = comparison_report(params_list, 2_000, 5, LIMA, method)
    expected = []
    for params, pair_seed in zip(params_list, np.random.SeedSequence(5).spawn(2)):
        seeds = pair_seed.spawn(6)
        clean, unmit, mit = {}, {}, {}
        for i, target in enumerate((Target.E0, Target.H1, Target.V)):
            clean[target.value] = run_protocol(params, target, Mode.DEFERRED, 2_000, seeds[i])
            unmit[target.value], mit[target.value], _ = mitigated_run(
                params, target, Mode.DEFERRED, 2_000, seeds[3 + i], LIMA, method
            )
        for table in (clean, unmit, mit):
            table["E1"] = combine_E1(table["H1"], table["V"])
        for q in ("E0", "H1", "V", "E1"):
            expected.append(ComparisonRow(
                params, q, float(analysis.ANALYTIC[q](params)),
                clean[q].mean, clean[q].std_error,
                unmit[q].mean, unmit[q].std_error,
                mit[q].mean, mit[q].std_error,
            ))
    assert rows == expected


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


@pytest.mark.parametrize("shots", [50, 2_000, 2**53 + 1, 2**60])
@pytest.mark.parametrize("method", MITIGATION_METHODS)
@pytest.mark.parametrize("target", ["E0", Target.H1, "V"], ids=str)
def test_mitigated_run_scores_as_the_public_entries(target, method, shots):
    # the pipeline corrects its own tallies and matrix, and scores the weights,
    # without the public entries' checks; the results are theirs, with the
    # run's exact shot count
    params = ModelParams(1.0, 0.5)
    for seed in range(3):
        unmit, mit, matrix = mitigated_run(params, target, Mode.DEFERRED, shots, seed, LIMA, method)
        assert unmit == estimate_energy(params, target, unmit.raw_counts)
        corrected = mitigate(unmit.raw_counts, matrix, method)
        assert mit.raw_counts == {key: p * shots for key, p in corrected.items()}
        est = estimate_energy(params, target, mit.raw_counts)
        assert mit == EstimationResult(est.mean, est.std_error, shots, est.raw_counts)


def test_noisy_pipeline_rejects_an_unknown_method():
    params = ModelParams(1.0, 0.5)
    with pytest.raises(ValueError, match="unknown mitigation method"):
        mitigated_run(params, Target.V, Mode.DEFERRED, 100, 3, LIMA, "bogus")
    with pytest.raises(ValueError, match="unknown mitigation method"):
        comparison_report([params], 100, 3, LIMA, "bogus")


# a run without a method, and a noise-free run whatever its method: there is
# no readout error to correct
PLAIN_RUNS = [(None, None), (None, "direct"), (None, "least-squares"), (LIMA, None)]
PLAIN_IDS = ["clean", "clean-direct", "clean-least-squares", "lima-like"]


@pytest.mark.parametrize("noise, method", PLAIN_RUNS, ids=PLAIN_IDS)
def test_mitigated_run_without_method_is_the_plain_run(noise, method):
    params = ModelParams(1.0, 1.0)
    unmit, mit, matrix = mitigated_run(
        params, Target.V, Mode.DEFERRED, 5_000, 3, noise, method
    )
    assert matrix is None
    # one draw, seeded with seed itself, on the distribution the readout records
    dist = exact_distribution(build_circuit(params, Target.V, Mode.DEFERRED))
    record = dist if noise is None else noise.recorded(dist)
    assert unmit == mit == sample_protocol(params, Target.V, record, 5_000, 3)
    if noise is None:
        assert unmit == run_protocol(params, Target.V, Mode.DEFERRED, 5_000, 3)


@pytest.mark.parametrize("noise, method", PLAIN_RUNS, ids=PLAIN_IDS)
def test_mitigated_run_of_E1_without_method_sums_the_plain_runs(noise, method):
    params = ModelParams(1.0, 1.0)
    unmit, mit, matrix = mitigated_run(
        params, "E1", Mode.DEFERRED, 5_000, 3, noise, method
    )
    assert matrix is None
    parts = []
    for part, part_seed in e1_parts(3):
        dist = exact_distribution(build_circuit(params, part, Mode.DEFERRED))
        record = dist if noise is None else noise.recorded(dist)
        parts.append(sample_protocol(params, part, record, 5_000, part_seed))
    assert unmit == mit == combine_E1(*parts)
    if noise is None:
        assert unmit == run_protocol_E1(params, Mode.DEFERRED, 5_000, 3)


def test_mitigated_run_of_E1_sums_the_mitigated_parts():
    params = ModelParams(1.0, 1.0)
    unmit, mit, matrix = mitigated_run(
        params, "E1", Mode.DEFERRED, 5_000, 3, LIMA, "least-squares"
    )
    h1_seed, v_seed = np.random.SeedSequence(3).spawn(2)
    u_h1, m_h1, h1_matrix = mitigated_run(
        params, Target.H1, Mode.DEFERRED, 5_000, h1_seed, LIMA, "least-squares"
    )
    u_v, m_v, _ = mitigated_run(
        params, Target.V, Mode.DEFERRED, 5_000, v_seed, LIMA, "least-squares"
    )
    assert unmit.components == (u_h1, u_v)
    assert mit.components == (m_h1, m_v)
    assert mit.mean == m_h1.mean + m_v.mean
    assert np.array_equal(matrix, h1_matrix)


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
