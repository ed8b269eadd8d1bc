"""Parameter sweeps, rotation-angle scans, time-evolution tables, and
comparison reports that put analytic, sampled, noisy, and mitigated estimates
side by side.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import reduce
import math
from operator import add

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
from .noise import ReadoutNoise, mitigate
from .protocol import (
    EstimationResult,
    Mode,
    Target,
    _seed_sequence,
    build_circuit,
    combine_E1,
    e1_parts,
    estimate_energy,
    sample_protocol,
)
from .simcore import (NumericalError, _Record, _rng, evolved_expectations, exact_distribution,
                      shot_count)


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


def phi_scan(params: ModelParams, n_points: int = 10_000) -> PhiScanResult:
    """Grid search of the receiver-side energy over the rotation angle: every
    angle in one call of the closed-form kernel model._receiver_energies (the
    one heatmap and the analytic energies use), and how far the argmin sits
    from the protocol angle. The scan covers [0, pi/2)."""
    phis = np.linspace(0.0, np.pi / 2, n_points, endpoint=False)
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

# Closed form of each reported quantity.
ANALYTIC: dict[str, Callable[[ModelParams], float]] = {
    "E0": analytic_E0,
    "H1": analytic_H1,
    "V": analytic_V,
    "E1": analytic_E1,
}


_EVOLVE_CHUNK = 4096  # time steps per kernel call: 1 MB of phase products
_EVOLVE_RESOLUTION = 1e-6  # six digits of a unit-scale swing, as the CLI prints


def evolution_scan(params: ModelParams, t_values: np.ndarray) -> np.ndarray:
    """Free evolution of the post-measurement ensemble under the total
    Hamiltonian: rows (t, simulated local-field energy, closed form,
    simulated interaction energy), one eigendecomposition per chunk of times.

    <H1> swings by h^2/r. Rounding the eigenvalues, which reach 4r, moves the
    phases by about eps 4r t and <H1> by about eps h: h1_sim is off by eps
    max(4r t, r/h) of the swing and v_sim, 0 exactly, by eps 2k. Past
    _EVOLVE_RESOLUTION (for v_sim its half, the printed half unit) this raises NumericalError."""
    t = np.asarray(t_values, dtype=float)
    r, t_max = params.r, np.abs(t).max(initial=0.0)
    rounding = np.finfo(float).eps * max(4.0 * r * t_max, r / params.h)
    if not rounding <= _EVOLVE_RESOLUTION:
        raise NumericalError(f"float64 rounding reaches {rounding:.1e} of the swing of <H1>")
    v_rounding = np.finfo(float).eps * 2.0 * params.k
    if not v_rounding <= _EVOLVE_RESOLUTION / 2.0:
        raise NumericalError(f"float64 rounding reaches {v_rounding:.1e} in <V>, which is 0")
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
    noise: ReadoutNoise | None,
    n_shots: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Response matrix estimated the way an experiment would: read n_shots of each
    basis state through the same noisy readout and tabulate. Noise acts on the record
    only, so state j records j on every shot and column j is one multinomial draw
    over response[:, j]; seed itself seeds the one generator that draws all four."""
    n_shots = shot_count(n_shots)
    root = _seed_sequence(seed)  # a bad seed raises here, with or without noise
    if noise is None:
        return np.eye(4)
    columns = []
    for tally in _rng(root).multinomial(n_shots, noise.response.T).tolist():
        total = reduce(add, tally, 0.0)  # summed in order, as check_counts sums: the same bits
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
    """One noisy run plus the full calibration-and-correction pipeline.
    Returns (unmitigated, mitigated, estimated calibration matrix); the
    calibration reads as many shots of each basis state as the run. With no
    method the run is seeded with `seed` itself and returned twice, without a
    matrix. Target "E1" sums the H1 and V pipelines of protocol.e1_parts and
    returns the H1 run's matrix."""
    if target == "E1":
        (u_h1, m_h1, matrix), (u_v, m_v, _) = (
            mitigated_run(params, part, mode, n_shots, part_seed, noise, method)
            for part, part_seed in e1_parts(seed)
        )
        return combine_E1(u_h1, u_v), combine_E1(m_h1, m_v), matrix
    dist = exact_distribution(build_circuit(params, target, mode))
    return _mitigated(params, target, dist, n_shots, seed, noise, method)


def _mitigated(
    params: ModelParams,
    target: Target,
    dist: dict[str, float],
    n_shots: int,
    seed: int | np.random.SeedSequence,
    noise: ReadoutNoise | None,
    method: str | None,
) -> tuple[EstimationResult, EstimationResult, np.ndarray | None]:
    """mitigated_run of one target, from its circuit's exact distribution."""
    if method is None:
        result = sample_protocol(params, target, dist, n_shots, seed, noise)
        return result, result, None
    run_seed, cal_seed = _seed_sequence(seed).spawn(2)
    unmitigated = sample_protocol(params, target, dist, n_shots, run_seed, noise)
    cal_matrix = sampled_calibration_matrix(noise, n_shots, cal_seed)
    corrected = mitigate(unmitigated.raw_counts, cal_matrix, method)
    scaled = {key: p * n_shots for key, p in corrected.items()}
    # the weights' float total need not round to n_shots past 2**53
    mitigated = replace(estimate_energy(params, target, scaled), n_shots=unmitigated.n_shots)
    return unmitigated, mitigated, cal_matrix


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
        noiseless: dict[str, EstimationResult] = {}
        unmit: dict[str, EstimationResult] = {}
        mit: dict[str, EstimationResult] = {}
        for i, target in enumerate((Target.E0, Target.H1, Target.V)):
            dist = exact_distribution(build_circuit(params, target, mode))
            clean = sample_protocol(params, target, dist, n_shots, seeds[i])
            noiseless[target.value] = clean
            if noise is None:
                unmit[target.value] = mit[target.value] = clean
            else:
                unmit[target.value], mit[target.value], _ = _mitigated(
                    params, target, dist, n_shots, seeds[3 + i], noise, method
                )
        for table in (noiseless, unmit, mit):
            table["E1"] = combine_E1(table["H1"], table["V"])
        for quantity in ("E0", "H1", "V", "E1"):
            # each table fills a value column and its _err column
            estimates = [table[quantity] for table in (noiseless, unmit, mit)]
            rows.append(ComparisonRow(params, quantity, float(ANALYTIC[quantity](params)),
                                      *(x for e in estimates for x in (e.mean, e.std_error))))
    return rows
