"""Parameter sweeps, rotation-angle scans, time-evolution tables, and
comparison reports that put analytic, sampled, noisy, and mitigated estimates
side by side.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
import math

import numpy as np

from .model import (
    ModelParams,
    _receiver_energies,
    analytic_E0,
    analytic_E1,
    analytic_H1,
    analytic_V,
    angles,
    build_hamiltonians,
    free_evolution_H1,
    rho_measured,
)
from .noise import ReadoutNoise, _correct
from .protocol import (
    EstimationResult,
    Mode,
    Target,
    _score,
    _seed_sequence,
    build_circuit,
    combine_E1,
    e1_parts,
    sample_protocol,
)
from .simcore import (BITSTRINGS, NumericalError, _Record, _rng, _total, evolved_expectations,
                      exact_distribution, shot_count)


class SweepGrid(_Record):
    h_values: tuple[float, ...]
    k_values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_values", tuple(float(h) for h in self.h_values))
        object.__setattr__(self, "k_values", tuple(float(k) for k in self.k_values))
        if not self.h_values or not self.k_values:
            raise ValueError("grid must be nonempty")
        if not all(v > 0 and math.isfinite(v) for v in self.h_values + self.k_values):
            raise ValueError("grid values must be positive and finite")
        # the smallest pair has the smallest max(h, k) and the largest pair the
        # largest h^2 + 2 k^2 of any cell
        ModelParams(min(self.h_values), min(self.k_values))
        ModelParams(max(self.h_values), max(self.k_values))


def heatmap(grid: SweepGrid) -> tuple[np.ndarray, np.ndarray]:
    """Exact interaction and local-field expectations per grid cell, as two
    arrays indexed [i_h, i_k], from one broadcast of the closed-form kernel
    model._receiver_energies (SweepGrid's extreme-pair checks stand in for a
    ModelParams per cell). The first is negative and the second positive
    everywhere in the valid coupling range."""
    h, k = np.array(grid.h_values)[:, None], np.array(grid.k_values)
    return _receiver_energies(h, k, np.hypot(h, k))


@dataclass(frozen=True)
class PhiScanResult:
    best_phi: float
    min_e1: float
    protocol_phi: float
    distance: float    # |best_phi - protocol_phi|
    resolution: float  # scan step


def phi_scan(params: ModelParams) -> PhiScanResult:
    """Grid search of the receiver-side energy over the rotation angle: every
    angle in one call of the closed-form kernel model._receiver_energies (the
    one heatmap and the analytic energies use), and how far the argmin sits
    from the protocol angle. The scan covers [0, pi/2) in _PHI_POINTS steps."""
    phis = np.linspace(0.0, np.pi / 2, _PHI_POINTS, endpoint=False)
    energies = sum(_receiver_energies(params.h, params.k, params.r, phis))
    best = int(np.argmin(energies))
    protocol_phi = angles(params).phi
    return PhiScanResult(
        best_phi=float(phis[best]),
        min_e1=float(energies[best]),
        protocol_phi=protocol_phi,
        distance=abs(float(phis[best]) - protocol_phi),
        resolution=float(phis[1] - phis[0]),
    )


EVOLUTION_COLUMNS = ("t", "h1_sim", "h1_closed", "v_sim")
_PHI_POINTS = 10_000  # phi_scan's angles in [0, pi/2)
# qet prints six decimals: an error within this half unit moves a printed
# number by at most its last digit, and %.6f prints x as a zero, signed if x
# is negative, exactly when |x| <= HALF_UNIT (the double nearest the half unit
# lies below it)
HALF_UNIT = 5e-7

# Closed form of each reported quantity.
ANALYTIC: dict[str, Callable[[ModelParams], float]] = {
    "E0": analytic_E0,
    "H1": analytic_H1,
    "V": analytic_V,
    "E1": analytic_E1,
}


_EVOLVE_CHUNK = 4096  # time steps per kernel call: 1 MB of phase products
# above 2.3, the largest ratio of actual rounding error to its estimate that
# 40-digit arithmetic found for h and k from 1e-3 to 1e9
_ROUNDING_MARGIN = 2.5


def evolution_scan(params: ModelParams, t_values: np.ndarray) -> np.ndarray:
    """Free evolution of the post-measurement ensemble under the total
    Hamiltonian: rows (t, simulated local-field energy, closed form,
    simulated interaction energy), one eigendecomposition per chunk of times.

    Rounding the eigenvalues, which reach 4r, moves the phases by about
    eps 4r t, and so <H1>, which swings by h^2/r, by about eps 4h^2 t. Rounding
    the eigenvectors moves h1_sim and v_sim (0 exactly) by about eps max(h, 2k),
    the size of the Hamiltonian's terms. When _ROUNDING_MARGIN times the
    largest of these passes HALF_UNIT, this raises NumericalError."""
    t = np.asarray(t_values, dtype=float)
    h, k, t_max = params.h, params.k, np.abs(t).max(initial=0.0)
    rounding = _ROUNDING_MARGIN * np.finfo(float).eps * max(4.0 * h * h * t_max, h, 2.0 * k)
    if not rounding <= HALF_UNIT:
        raise NumericalError(f"float64 rounding reaches {rounding:.1e}, past half a printed unit")
    hams = build_hamiltonians(params)
    rho0 = rho_measured(params)
    rows = np.empty((len(t), 4))
    rows[:, 0] = t
    rows[:, 2] = free_evolution_H1(params, t)
    for start in range(0, len(t), _EVOLVE_CHUNK):
        chunk = slice(start, start + _EVOLVE_CHUNK)
        rows[chunk, 1::2] = evolved_expectations(rho0, hams.htot, t[chunk], (hams.h1, hams.v))
    return rows


def sampled_calibration_matrix(
    noise: ReadoutNoise,
    n_shots: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Response matrix estimated the way an experiment would: read n_shots of each
    basis state through the same noisy readout and tabulate. Noise acts on the record
    only, so state j records j on every shot and column j is one multinomial draw
    over response[:, j]; seed itself seeds the one generator that draws the four in order."""
    n_shots = shot_count(n_shots)
    rng, columns = _rng(_seed_sequence(seed)), []
    for column in noise.response_columns:
        tally = rng.multinomial(n_shots, column).tolist()
        total = _total(tally)
        columns.append([c / total for c in tally])
    return np.array(columns).T


def mitigated_run(
    params: ModelParams,
    target: Target | str,
    mode: Mode,
    n_shots: int,
    seed: int | np.random.SeedSequence,
    noise: ReadoutNoise | None,
    method: str | None = "least-squares",
) -> tuple[EstimationResult, EstimationResult, np.ndarray | None]:
    """The noisy run, one draw on noise.recorded, plus calibration and correction.
    Returns (unmitigated, mitigated, estimated calibration matrix); the
    calibration reads as many shots of each basis state as the run. With no
    noise or no method the run is seeded with `seed` itself and returned twice,
    without a matrix; with no noise it is run_protocol's (run_protocol_E1's for
    "E1"), whatever the method. Target "E1" sums the H1 and V pipelines of
    protocol.e1_parts and returns the H1 run's matrix."""
    if target == "E1":
        (u_h1, m_h1, matrix), (u_v, m_v, _) = (
            mitigated_run(params, part, mode, n_shots, part_seed, noise, method)
            for part, part_seed in e1_parts(seed)
        )
        return combine_E1(u_h1, u_v), combine_E1(m_h1, m_v), matrix
    dist = exact_distribution(build_circuit(params, target, mode))
    return _mitigated(params, Target(target), dist, n_shots, seed, noise, method)


def _mitigated(
    params: ModelParams,
    target: Target,
    dist: dict[str, float],
    n_shots: int,
    seed: int | np.random.SeedSequence,
    noise: ReadoutNoise | None,
    method: str | None,
) -> tuple[EstimationResult, EstimationResult, np.ndarray | None]:
    """mitigated_run of one target, from its circuit's exact distribution. Readout
    flips each shot's record alone, so the run is one draw on noise.recorded(dist).
    Without noise there is no readout error to correct: the clean run on dist."""
    if noise is not None:
        dist = noise.recorded(dist)
    if noise is None or method is None:
        result = sample_protocol(params, target, dist, n_shots, seed)
        return result, result, None
    run_seed, cal_seed = _seed_sequence(seed).spawn(2)
    unmitigated = sample_protocol(params, target, dist, n_shots, run_seed)
    cal_matrix = sampled_calibration_matrix(noise, n_shots, cal_seed)
    # the kernels take the run's own tallies and matrix
    counts = unmitigated.raw_counts
    total = _total(counts.values())
    corrected = _correct([counts.get(key, 0) / total for key in BITSTRINGS], cal_matrix, method)[0]
    weights = {key: p * n_shots for key, p in zip(BITSTRINGS, corrected)}
    mean, std_error = _score(params, target, weights)
    # the weights' float total need not round to n_shots past 2**53
    return unmitigated, EstimationResult(mean, std_error, unmitigated.n_shots, weights), cal_matrix


class ComparisonRow(_Record):
    params: ModelParams
    quantity: str  # E0 | H1 | V | E1
    analytic: float
    noiseless: float
    noiseless_err: float
    unmitigated: float
    unmitigated_err: float
    mitigated: float
    mitigated_err: float


def comparison_report(
    params_list: list[ModelParams],
    n_shots: int,
    seed: int,
    noise: ReadoutNoise | None = None,
    method: str | None = "least-squares",
    mode: Mode = Mode.DEFERRED,
) -> list[ComparisonRow]:
    """Side-by-side table of analytic values and sampled estimates, one row
    per (parameter pair, quantity). Without a noise channel the noisy and
    mitigated columns collapse onto the noiseless ones; with noise but no
    mitigation method they stay equal to each other. The receiver-side total
    is always the post-hoc sum of its two separately measured parts. Each
    target's circuit is enumerated once, for its clean and its noisy run."""
    rows: list[ComparisonRow] = []
    pair_seeds = _seed_sequence(seed).spawn(len(params_list))
    for params, pair_seed in zip(params_list, pair_seeds):
        seeds = pair_seed.spawn(6)
        # quantity -> its (noiseless, unmitigated, mitigated) estimates, in row order
        table: dict[str, tuple[EstimationResult, ...]] = {}
        for i, target in enumerate((Target.E0, Target.H1, Target.V)):
            dist = exact_distribution(build_circuit(params, target, mode))
            clean = sample_protocol(params, target, dist, n_shots, seeds[i])
            noisy = (clean, clean) if noise is None else _mitigated(
                params, target, dist, n_shots, seeds[3 + i], noise, method)[:2]
            table[target.value] = (clean, *noisy)
        table["E1"] = tuple(map(combine_E1, table["H1"], table["V"]))
        for quantity, estimates in table.items():
            # each estimate fills a value column and its _err column
            rows.append(ComparisonRow(params, quantity, float(ANALYTIC[quantity](params)),
                                      *(x for e in estimates for x in (e.mean, e.std_error))))
    return rows
