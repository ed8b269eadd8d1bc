"""Parameter sweeps, rotation-angle scans, time-evolution tables, and
comparison reports that put analytic, sampled, noisy, and mitigated estimates
side by side.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
import numpy as np

from .model import (
    ModelParams,
    analytic_E0,
    analytic_E1,
    analytic_H1,
    analytic_V,
    angles,
    build_hamiltonians,
    free_evolution_H1,
    ground_state,
    rho_measured,
    rho_qet,
)
from .noise import (
    ReadoutNoise,
    apply_noise,
    build_calibration_circuits,
    estimate_calibration_matrix,
    mitigate,
)
from .protocol import (
    EstimationResult,
    Mode,
    Target,
    _seed_sequence,
    combine_E1,
    estimate_energy,
    run_protocol,
)
from .simcore import evolve, expectation, make_rng, run_shots


@dataclass(frozen=True)
class SweepGrid:
    h_values: tuple[float, ...]
    k_values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_values", tuple(float(h) for h in self.h_values))
        object.__setattr__(self, "k_values", tuple(float(k) for k in self.k_values))
        if not self.h_values or not self.k_values:
            raise ValueError("grid must be nonempty")
        if not all(v > 0 and np.isfinite(v) for v in self.h_values + self.k_values):
            raise ValueError("grid values must be positive and finite")
        # the largest pair has the largest h^2 + k^2 of any cell
        ModelParams(max(self.h_values), max(self.k_values))


def default_grid(n: int = 50, lo: float = 0.05, hi: float = 2.0) -> SweepGrid:
    values = tuple(np.linspace(lo, hi, n))
    return SweepGrid(values, values)


def heatmap(grid: SweepGrid) -> tuple[np.ndarray, np.ndarray]:
    """Exact interaction and local-field expectations per grid cell, as two
    arrays indexed [i_h, i_k]. The first is negative and the second positive
    everywhere in the valid coupling range."""
    v_map = np.zeros((len(grid.h_values), len(grid.k_values)))
    h1_map = np.zeros_like(v_map)
    for i, h in enumerate(grid.h_values):
        for j, k in enumerate(grid.k_values):
            params = ModelParams(h, k)
            rho = rho_qet(params)
            hams = build_hamiltonians(params)
            v_map[i, j] = expectation(rho, hams.v)
            h1_map[i, j] = expectation(rho, hams.h1)
    return v_map, h1_map


@dataclass(frozen=True)
class PhiScanResult:
    best_phi: float
    min_e1: float
    protocol_phi: float
    distance: float    # |best_phi - protocol_phi|
    resolution: float  # scan step


def phi_scan(
    params: ModelParams, n_points: int = 10_000, phi_max: float = np.pi / 2
) -> PhiScanResult:
    """Grid search of the receiver-side energy over the rotation angle.

    Evaluates the post-rotation ensemble energy for every angle on the grid
    (vectorized over both measurement branches) and reports how far the
    argmin sits from the protocol angle.
    """
    phis = np.linspace(0.0, phi_max, n_points, endpoint=False)
    g = ground_state(params)
    hams = build_hamiltonians(params)
    h_b = hams.h1 + hams.v
    x0 = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2, dtype=complex))
    eye = np.eye(4, dtype=complex)
    energies = np.zeros(n_points)
    for mu in (1, -1):
        branch = ((eye + mu * x0) / 2.0) @ g
        c = np.cos(mu * phis)
        s = np.sin(mu * phis)
        # RY(2 mu phi) on qubit 1 acts pairwise on components (0,1) and (2,3)
        rotated = np.empty((n_points, 4), dtype=complex)
        rotated[:, 0] = c * branch[0] - s * branch[1]
        rotated[:, 1] = s * branch[0] + c * branch[1]
        rotated[:, 2] = c * branch[2] - s * branch[3]
        rotated[:, 3] = s * branch[2] + c * branch[3]
        energies += np.einsum("ni,ij,nj->n", rotated.conj(), h_b, rotated).real
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


def evolution_scan(params: ModelParams, t_values: np.ndarray) -> np.ndarray:
    """Free evolution of the post-measurement ensemble under the total
    Hamiltonian: rows (t, simulated local-field energy, closed form,
    simulated interaction energy)."""
    hams = build_hamiltonians(params)
    rho0 = rho_measured(params)
    rows = np.zeros((len(t_values), 4))
    for i, t in enumerate(np.asarray(t_values, dtype=float)):
        rho_t = evolve(rho0, hams.htot, t)
        rows[i] = (
            t,
            expectation(rho_t, hams.h1),
            free_evolution_H1(params, t),
            expectation(rho_t, hams.v),
        )
    return rows


def sampled_calibration_matrix(
    noise: ReadoutNoise | None,
    n_shots: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Response matrix estimated the way an experiment would: run the four
    basis-preparation circuits through the same noisy readout and tabulate."""
    seeds = _seed_sequence(seed).spawn(8)
    counts_list = []
    for j, circuit in enumerate(build_calibration_circuits()):
        counts = run_shots(circuit, n_shots, seeds[2 * j])
        if noise is not None:
            counts = apply_noise(counts, noise, make_rng(seeds[2 * j + 1]))
        counts_list.append(counts)
    return estimate_calibration_matrix(counts_list)


def mitigated_run(
    params: ModelParams,
    target: Target,
    mode: Mode,
    n_shots: int,
    seed: int | np.random.SeedSequence,
    noise: ReadoutNoise | None,
    method: str | None = "least-squares",
) -> tuple[EstimationResult, EstimationResult, np.ndarray | None]:
    """One noisy run plus the full calibration-and-correction pipeline.
    Returns (unmitigated, mitigated, estimated calibration matrix); the
    calibration circuits get as many shots as the run. With no method the
    run is seeded with `seed` itself and returned twice, without a matrix."""
    if method is None:
        result = run_protocol(params, target, mode, n_shots, seed, noise)
        return result, result, None
    run_seed, cal_seed = _seed_sequence(seed).spawn(2)
    unmitigated = run_protocol(params, target, mode, n_shots, run_seed, noise)
    cal_matrix = sampled_calibration_matrix(noise, n_shots, cal_seed)
    corrected = mitigate(unmitigated.raw_counts, cal_matrix, method)
    scaled = {key: p * n_shots for key, p in corrected.items()}
    mitigated = estimate_energy(params, target, scaled)
    return unmitigated, mitigated, cal_matrix


@dataclass(frozen=True)
class ComparisonRow:
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
    is always the post-hoc sum of its two separately measured parts."""
    rows: list[ComparisonRow] = []
    pair_seeds = np.random.SeedSequence(seed).spawn(len(params_list))
    for params, pair_seed in zip(params_list, pair_seeds):
        seeds = pair_seed.spawn(6)
        noiseless: dict[str, EstimationResult] = {}
        unmit: dict[str, EstimationResult] = {}
        mit: dict[str, EstimationResult] = {}
        for i, target in enumerate((Target.E0, Target.H1, Target.V)):
            clean = run_protocol(params, target, mode, n_shots, seeds[i])
            noiseless[target.value] = clean
            if noise is None:
                unmit[target.value] = mit[target.value] = clean
            else:
                unmit[target.value], mit[target.value], _ = mitigated_run(
                    params, target, mode, n_shots, seeds[3 + i], noise, method
                )
        for table in (noiseless, unmit, mit):
            table["E1"] = combine_E1(table["H1"], table["V"])
        for quantity in ("E0", "H1", "V", "E1"):
            rows.append(
                ComparisonRow(
                    params=params,
                    quantity=quantity,
                    analytic=float(ANALYTIC[quantity](params)),
                    noiseless=noiseless[quantity].mean,
                    noiseless_err=noiseless[quantity].std_error,
                    unmitigated=unmit[quantity].mean,
                    unmitigated_err=unmit[quantity].std_error,
                    mitigated=mit[quantity].mean,
                    mitigated_err=mit[quantity].std_error,
                )
            )
    return rows
