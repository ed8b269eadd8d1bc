"""Terminal readout-error channel and calibration-matrix mitigation.

The channel flips each recorded classical bit independently with per-qubit
asymmetric probabilities; it acts on the terminal record only, never on the
quantum branch a mid-circuit outcome selected. An ideal preparation of basis
state j therefore records j on every shot, and column j of the 4x4
column-stochastic response matrix is estimated by passing those records
through the channel. Mitigation inverts the estimated matrix, either directly
(clip and renormalize) or as a least-squares problem constrained to the
probability simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .simcore import (
    ATOL_ALGEBRA,
    BITSTRINGS,
    SHOT_LIMIT,
    NumericalError,
    _rng,
    check_counts,
    distribution_vector,
    on_qubits,
)

MITIGATION_METHODS = ("direct", "least-squares")

# Condition-number ceiling for the direct inverse.
_COND_LIMIT = 1e6


@dataclass(frozen=True)
class ReadoutNoise:
    """Per-qubit flip probabilities: read1_given0[q] = P(read 1 | true 0),
    read0_given1[q] = P(read 0 | true 1); response is their read-only 4x4 matrix."""

    read1_given0: tuple[float, float]
    read0_given1: tuple[float, float]
    response: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not len(self.read1_given0) == len(self.read0_given1) == 2:
            raise ValueError("need exactly two flip probabilities per direction")
        for p in (*self.read1_given0, *self.read0_given1):
            if not (0.0 <= p < 1.0):
                raise ValueError(f"flip probability must be in [0, 1), got {p}")
        response = on_qubits({
            q: np.array([[1.0 - p10, p01], [p10, 1.0 - p01]])
            for q, (p10, p01) in enumerate(zip(self.read1_given0, self.read0_given1))
        })
        response.flags.writeable = False
        object.__setattr__(self, "response", response)

    @classmethod
    def symmetric(cls, error_q0: float, error_q1: float) -> ReadoutNoise:
        return cls((error_q0, error_q1), (error_q0, error_q1))


# Synthetic presets: per-qubit symmetric flip probabilities at realistic
# superconducting-readout magnitudes.
PRESETS: dict[str, ReadoutNoise] = {
    "lima-like": ReadoutNoise.symmetric(0.0196, 0.0130),
    "jakarta-like": ReadoutNoise.symmetric(0.0244, 0.0240),
    "cairo-like": ReadoutNoise.symmetric(0.0085, 0.0080),
}


def apply_noise(
    counts: dict[str, int],
    noise: ReadoutNoise,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> dict[str, int]:
    """Flip recorded bits stochastically in a counts map of integer tallies
    totalling less than 2**63. Deterministic for a fixed seed."""
    check_counts(counts)
    for key, c in counts.items():
        if c != int(c):
            raise ValueError(f"counts must be integers, got {key}={c}")
    total = sum(int(c) for c in counts.values())
    if total >= SHOT_LIMIT:
        raise ValueError(f"counts must total less than 2**63, got {total}")
    rng = _rng(seed)
    out = np.zeros(4, dtype=np.int64)
    for key in sorted(counts):
        out += rng.multinomial(int(counts[key]), noise.response[:, BITSTRINGS.index(key)])
    return {BITSTRINGS[i]: int(c) for i, c in enumerate(out) if c > 0}


def estimate_calibration_matrix(calibration_counts: list[dict[str, int]]) -> np.ndarray:
    """Column-stochastic matrix whose column j is the observed distribution
    of the run that prepared basis state j."""
    if len(calibration_counts) != 4:
        raise ValueError("need exactly 4 calibration runs, one per basis state")
    a = np.zeros((4, 4))
    for j, counts in enumerate(calibration_counts):
        a[:, j] = distribution_vector(counts) / check_counts(counts)
    return a


def measurement_fidelity(a: np.ndarray) -> float:
    """Mean diagonal of the response matrix."""
    return float(np.mean(np.diag(a)))


def _simplex_least_squares(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    # minimize ||a x - y||^2 subject to x >= 0 and sum x = 1, by active-set
    # elimination: solve the equality-constrained problem on the free set and
    # pin the most negative coordinate to zero until feasible.
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
            return x / x.sum()
        free[cols[int(np.argmin(xf))]] = False
    raise NumericalError("simplex least squares failed to converge")


def mitigate(
    counts: dict[str, float],
    a: np.ndarray,
    method: str = "least-squares",
) -> dict[str, float]:
    """Corrected outcome distribution from observed counts (or frequencies)
    and a response matrix. The direct method requires a well-conditioned
    matrix and clips negative solution entries; least squares stays on the
    probability simplex by construction."""
    if method not in MITIGATION_METHODS:
        raise ValueError(f"unknown mitigation method {method!r}")
    a = np.asarray(a, dtype=float)
    if a.shape != (4, 4):
        raise ValueError("calibration matrix must be 4x4")
    y = distribution_vector(counts) / check_counts(counts)

    if method == "direct":
        # np.linalg.cond's 2-norm ratio, without its wrapper layers
        sv = np.linalg.svd(a, compute_uv=False).tolist() if np.isfinite(a).all() else [0.0]
        if sv[-1] == 0.0 or sv[0] / sv[-1] >= _COND_LIMIT:
            raise NumericalError("calibration matrix is singular or ill-conditioned")
        x = np.linalg.solve(a, y)
        x = np.clip(x, 0.0, None)
        x = x / x.sum()
    else:
        x = _simplex_least_squares(a, y)
    return {key: float(x[i]) for i, key in enumerate(BITSTRINGS)}
