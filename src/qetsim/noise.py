"""Terminal readout-error channel and calibration-matrix mitigation.

The channel flips each recorded classical bit independently with per-qubit
asymmetric probabilities; it acts on the terminal record only, never on the
quantum branch a mid-circuit outcome selected. It maps an outcome distribution
p to A p, A the 4x4 column-stochastic response matrix, so a noisy run draws its
tallies once from A p; an ideal preparation of basis state j records j on every
shot, so calibration draws column j of A alone. Mitigation inverts the
estimated matrix, either directly (clip and renormalize) or as a least-squares
problem constrained to the probability simplex, solving its 4x4 or KKT system by
Gaussian elimination on plain floats. A non-finite matrix, a singular system and
a direct solution with no positive mass raise NumericalError.
"""

from __future__ import annotations

import numpy as np

from .simcore import (
    ATOL_ALGEBRA,
    BITSTRINGS,
    NumericalError,
    _Record,
    _rng,
    _total,
    check_counts,
    distribution_vector,
    on_qubits,
    shot_count,
)

MITIGATION_METHODS = ("direct", "least-squares")

# Condition-number ceiling for the direct inverse.
_COND_LIMIT = 1e6


class ReadoutNoise(_Record):
    """Per-qubit flip probabilities: read1_given0[q] = P(read 1 | true 0),
    read0_given1[q] = P(read 0 | true 1); response is their read-only 4x4 matrix,
    response_columns its columns as tuples of plain floats."""

    read1_given0: tuple[float, float]
    read0_given1: tuple[float, float]

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
        object.__setattr__(self, "response_columns", tuple(zip(*response.tolist())))

    def recorded(self, dist: dict[str, float]) -> dict[str, float]:
        """A p: the distribution of the record when outcomes are drawn from dist.
        Row i sums a[i][0] p0 + ... + a[i][3] p3 in order, on plain floats."""
        p0, p1, p2, p3 = (dist.get(key, 0.0) for key in BITSTRINGS)
        return {key: a0 * p0 + a1 * p1 + a2 * p2 + a3 * p3
                for key, a0, a1, a2, a3 in zip(BITSTRINGS, *self.response_columns)}

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
    totalling less than 2**63. Deterministic for a fixed seed. The per-shot
    reference for the pipeline's single draw on recorded(p); only tests call it."""
    check_counts(counts)
    for key, c in counts.items():
        if c != int(c):
            raise ValueError(f"counts must be integers, got {key}={c}")
    shot_count(sum(int(c) for c in counts.values()))  # the total, drawn as int64 tallies
    rng = _rng(seed)
    draws = [rng.multinomial(int(counts[key]), noise.response[:, BITSTRINGS.index(key)]).tolist()
             for key in sorted(counts)]
    return {key: c for key, c in zip(BITSTRINGS, map(sum, zip(*draws))) if c > 0}


def estimate_calibration_matrix(calibration_counts: list[dict[str, int]]) -> np.ndarray:
    """Column-stochastic matrix whose column j is the observed distribution
    of the run that prepared basis state j."""
    if len(calibration_counts) != 4:
        raise ValueError("need exactly 4 calibration runs, one per basis state")
    return np.array([distribution_vector(c) / check_counts(c) for c in calibration_counts]).T


def measurement_fidelity(a: np.ndarray) -> float:
    """Mean diagonal of the response matrix: the bits of np.mean's."""
    diagonal = [row[i] for i, row in enumerate(np.asarray(a, dtype=float).tolist())]
    return _total(diagonal) / len(diagonal)


def _solve(m: list[list[float]], b: list[float]) -> list[float]:
    """x with m x = b by Gaussian elimination with partial pivoting on plain floats,
    cheaper than numpy's calls at this size. An exact zero pivot raises."""
    n = len(b)
    rows = [[*row, v] for row, v in zip(m, b)]
    for c in range(n):
        col = [abs(row[c]) for row in rows[c:]]
        p = c + col.index(max(col))
        pivot = rows[p]
        rows[p], rows[c] = rows[c], pivot
        if pivot[c] == 0.0:
            raise NumericalError("degenerate calibration matrix")
        for row in rows[c + 1:]:
            f = row[c] / pivot[c]
            for j in range(c + 1, n + 1):
                row[j] -= f * pivot[j]
    x = [0.0] * n
    for c, row in reversed([*enumerate(rows)]):
        s = row[n]
        for j in range(c + 1, n):
            s -= row[j] * x[j]
        x[c] = s / row[c]
    return x


def _simplex_least_squares(a: list[list[float]], y: list[float]) -> tuple[list[float], list[int]]:
    # minimize ||a x - y||^2 subject to x >= 0 and sum x = 1, by active-set
    # elimination: solve the equality-constrained problem on the free set and
    # pin the most negative coordinate to zero until feasible; x (unclipped) and the
    # final free set are returned. An empty free set leaves the system [0] x = [1],
    # whose zero pivot raises. dots is 2 a^T [a | y]: the Gram matrix, then y's column.
    columns = [list(col) for col in zip(*a)]
    dots = [[2.0 * (u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3])
             for v in (*columns, y)] for u in columns]
    cols = [0, 1, 2, 3]
    while True:
        kkt = [[dots[i][j] for j in cols] + [1.0] for i in cols] + [[1.0] * len(cols) + [0.0]]
        xf = _solve(kkt, [dots[i][4] for i in cols] + [1.0])[:-1]
        if all(v >= -ATOL_ALGEBRA for v in xf):
            free = dict(zip(cols, xf))
            return [free.get(i, 0.0) for i in range(4)], cols
        del cols[min(range(len(cols)), key=xf.__getitem__)]


def _correct(y: list[float], a: np.ndarray,
             method: str) -> tuple[list[float], list[int], float, float | None, int]:
    """mitigate's kernel, on frequencies y and a finite 4x4 matrix a: the corrected
    distribution, the free set (all four outcomes for direct), the mass clipped from
    negative entries, the condition number (direct only, else None) and the number
    of linear solves (1 for direct; least squares pins one outcome per further solve)."""
    rows = a.tolist()
    if method == "direct":
        # np.linalg.cond's 2-norm ratio, without its wrapper layers
        sv = np.linalg.svd(a, compute_uv=False).tolist()
        if sv[-1] == 0.0 or sv[0] / sv[-1] >= _COND_LIMIT:
            raise NumericalError("calibration matrix is singular or ill-conditioned")
        raw, free, cond = _solve(rows, y), [0, 1, 2, 3], sv[0] / sv[-1]
    elif method == "least-squares":
        (raw, free), cond = _simplex_least_squares(rows, y), None
    else:
        raise ValueError(f"unknown mitigation method {method!r}")
    x = [max(v, 0.0) for v in raw]
    mass = _total(x)
    if not mass > 0.0:
        raise NumericalError("corrected distribution has no positive mass")
    clipped = _total(-v for v in raw if v < 0.0)
    return [v / mass for v in x], free, clipped, cond, 5 - len(free)


def mitigate(
    counts: dict[str, float],
    a: np.ndarray,
    method: str = "least-squares",
) -> dict[str, float]:
    """Corrected outcome distribution from observed counts (or frequencies)
    and a finite response matrix. The direct method requires a well-conditioned
    matrix and clips negative solution entries, which must leave positive
    mass; least squares stays on the probability simplex by construction."""
    a = np.asarray(a, dtype=float)
    if a.shape != (4, 4):
        raise ValueError("calibration matrix must be 4x4")
    total = check_counts(counts)
    if not np.isfinite(a).all():
        raise NumericalError("calibration matrix has a non-finite entry")
    y = [float(counts.get(key, 0.0)) / total for key in BITSTRINGS]
    return dict(zip(BITSTRINGS, _correct(y, a, method)[0]))
