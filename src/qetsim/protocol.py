"""Energy-teleportation protocol circuits and estimators.

Builds the ground-prep / measure / feed-forward circuits in both conditional
(mid-circuit measurement plus classically controlled rotation) and deferred
(quantum-controlled rotation, terminal measurement) forms, runs them, and
turns counts into energy estimates with per-shot standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math

from .model import ModelParams, _terms, angles
from .simcore import (
    Circuit,
    ClassicallyControlledRy,
    Cnot,
    ControlledRy,
    GateStep,
    Hadamard,
    MeasureZ,
    Ry,
    _SeedNode,
    _seed_sequence,
    _total,
    check_counts,
    exact_distribution,
    np,
    run_shots,
)


class Mode(str, Enum):
    CONDITIONAL = "conditional"
    DEFERRED = "deferred"


class Target(str, Enum):
    E0 = "E0"
    H1 = "H1"
    V = "V"


@dataclass(frozen=True)
class EstimationResult:
    """An energy estimate: mean, standard error, shots and the counts it came from."""
    mean: float
    std_error: float
    n_shots: int
    raw_counts: dict[str, float] | None
    # populated only for composite estimates assembled from separate runs
    components: tuple[EstimationResult, ...] | None = None


# build_circuit's fixed steps, built once: steps are frozen, so circuits share them
_CNOT, _HADAMARD_0, _HADAMARD_1 = Cnot(0, 1), Hadamard(0), Hadamard(1)
_MEASURE_0, _MEASURE_1 = MeasureZ(0, 0), MeasureZ(1, 1)


def build_circuit(params: ModelParams, target: Target, mode: Mode) -> Circuit:
    """Full protocol circuit for one measured quantity.

    Ground prep is RY(2 theta) then CNOT. The sender's X measurement is a
    Hadamard followed by a Z measurement into classical bit 0. The receiver
    rotates qubit 1 by +2 phi when the recorded bit is 0 (outcome +1) and
    -2 phi when it is 1; in deferred form the same pair of rotations is
    quantum-controlled on qubit 0 and all measurements are terminal. The
    interaction readout adds a Hadamard on qubit 1; the local-field readout
    omits it; the deposit readout instead completes the X measurement with a
    second Hadamard and re-measures qubit 0 in the Z basis.
    """
    target = Target(target)
    mode = Mode(mode)
    ang = angles(params)
    prep: list[GateStep] = [Ry(2.0 * ang.theta, 0), _CNOT, _HADAMARD_0]

    if target is Target.E0:
        # identical in both modes: nothing depends on the recorded bit
        return Circuit((*prep, _MEASURE_0, _HADAMARD_0, _MEASURE_0, _MEASURE_1))

    if mode is Mode.CONDITIONAL:
        steps = prep + [
            _MEASURE_0,
            ClassicallyControlledRy(0, 1, -2.0 * ang.phi, 1),
            ClassicallyControlledRy(0, 0, +2.0 * ang.phi, 1),
        ]
        tail: list[GateStep] = [_MEASURE_1]
    else:
        steps = prep + [
            ControlledRy(0, 1, -2.0 * ang.phi, 1),
            ControlledRy(0, 0, +2.0 * ang.phi, 1),
        ]
        tail = [_MEASURE_0, _MEASURE_1]

    if target is Target.V:
        steps.append(_HADAMARD_1)
    return Circuit(tuple(steps + tail))


# +/-1 eigenvalue of each outcome in the Pauli operator a target reads: Z on
# qubit 1 (H1), X0 X1 after the basis change (V), and Z on qubit 0 after the
# completed X measurement (E0, the deposit readout).
_EIGENVALUES: dict[Target, dict[str, int]] = {
    Target.E0: {"00": 1, "01": 1, "10": -1, "11": -1},
    Target.H1: {"00": 1, "01": -1, "10": 1, "11": -1},
    Target.V: {"00": 1, "01": -1, "10": -1, "11": 1},
}


def estimate_energy(
    params: ModelParams, target: Target, counts: dict[str, float]
) -> EstimationResult:
    """Energy estimate for one run's counts.

    Counts must come from the circuit built for the same target; only
    structural validity of the map is checkable here. Float-valued counts
    (for example a corrected distribution scaled by the shot count) are
    accepted if their total rounds to at least one shot; the eigenvalue
    sample variance then uses the weights as given.
    """
    target = Target(target)
    total = check_counts(counts)
    # integer tallies sum exactly; the float total rounds past 2**53
    exact = all(isinstance(c, (int, np.integer)) for c in counts.values())
    n_shots = sum(map(int, counts.values())) if exact else round(total)
    if n_shots < 1:
        raise ValueError(f"counts must total at least one shot, got {total}")
    return EstimationResult(*_score(params, target, counts), n_shots, dict(counts))


def _score(params: ModelParams, target: Target, counts: dict[str, float]) -> tuple[float, float]:
    """(mean, std_error) of valid counts: estimate_energy without its checks."""
    local, interaction = _terms(params)
    coef, const = interaction if target is Target.V else local
    eigenvalues = _EIGENVALUES[target]
    total = _total(counts.values())
    # from the int 0, integer tallies add exactly
    eig_mean = _total((eigenvalues[key] * c for key, c in counts.items()), 0) / total
    # eigenvalues are +/-1, so the population variance is 1 - mean^2
    var = max(1.0 - eig_mean**2, 0.0)
    if total > 1:
        var *= total / (total - 1.0)
    return coef * eig_mean + const, coef * math.sqrt(var / total)


def combine_E1(h1: EstimationResult, v: EstimationResult) -> EstimationResult:
    """Post-hoc sum of separate local-field and interaction estimates, with
    standard errors combined in quadrature."""
    return EstimationResult(
        mean=h1.mean + v.mean,
        std_error=math.hypot(h1.std_error, v.std_error),
        n_shots=h1.n_shots + v.n_shots,
        raw_counts=None,
        components=(h1, v),
    )


def e1_parts(
    seed: int | _SeedNode | np.random.SeedSequence,
) -> tuple[tuple[Target, _SeedNode | np.random.SeedSequence], ...]:
    """The two runs an E1 estimate sums: H1 and then V, on the two children
    of seed."""
    return tuple(zip((Target.H1, Target.V), _seed_sequence(seed).spawn(2)))


def run_protocol(
    params: ModelParams,
    target: Target,
    mode: Mode,
    n_shots: int,
    seed: int | np.random.SeedSequence,
) -> EstimationResult:
    """Build and enumerate the circuit once, then sample_protocol: deterministic
    per seed, one generator samples to estimate."""
    dist = exact_distribution(build_circuit(params, target, mode))
    return sample_protocol(params, target, dist, n_shots, seed)


def sample_protocol(
    params: ModelParams,
    target: Target,
    dist: dict[str, float],
    n_shots: int,
    seed: int | np.random.SeedSequence,
) -> EstimationResult:
    """The sampling step of run_protocol, from dist, the outcome distribution of
    target's circuit: a caller that reruns a circuit enumerates it once. A noisy
    run passes the record's distribution, ReadoutNoise.recorded of the exact one."""
    (shot_seed,) = _seed_sequence(seed).spawn(1)
    counts = run_shots(dist, n_shots, shot_seed)  # checks n_shots: the tallies total int(n_shots)
    return EstimationResult(*_score(params, Target(target), counts), int(n_shots), counts)


def run_protocol_E1(
    params: ModelParams,
    mode: Mode,
    n_shots: int,
    seed: int | np.random.SeedSequence,
) -> EstimationResult:
    """Two-circuit estimate of the receiver's total energy: the local-field
    and interaction terms never share a circuit, so each gets n_shots."""
    h1, v = (
        run_protocol(params, part, mode, n_shots, part_seed)
        for part, part_seed in e1_parts(seed)
    )
    return combine_E1(h1, v)
