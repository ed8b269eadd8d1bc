"""Energy-teleportation protocol circuits and estimators.

Builds the ground-prep / measure / feed-forward circuits in both conditional
(mid-circuit measurement plus classically controlled rotation) and deferred
(quantum-controlled rotation, terminal measurement) forms, runs them, and
turns counts into energy estimates with per-shot standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .noise import ReadoutNoise, apply_noise
from .model import ModelParams, angles
from .simcore import (
    Circuit,
    ClassicallyControlledRy,
    Cnot,
    ControlledRy,
    GateStep,
    Hadamard,
    MeasureZ,
    Ry,
    check_counts,
    make_rng,
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
    mean: float
    std_error: float
    n_shots: int
    raw_counts: dict[str, float] | None
    # populated only for composite estimates assembled from separate runs
    components: tuple[EstimationResult, ...] | None = None


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
    prep: list[GateStep] = [Ry(2.0 * ang.theta, 0), Cnot(0, 1), Hadamard(0)]

    if target is Target.E0:
        # identical in both modes: nothing depends on the recorded bit
        steps = prep + [
            MeasureZ(0, 0),
            Hadamard(0),
            MeasureZ(0, 0),
            MeasureZ(1, 1),
        ]
        return Circuit(tuple(steps))

    if mode is Mode.CONDITIONAL:
        steps = prep + [
            MeasureZ(0, 0),
            ClassicallyControlledRy(0, 1, -2.0 * ang.phi, 1),
            ClassicallyControlledRy(0, 0, +2.0 * ang.phi, 1),
        ]
        tail: list[GateStep] = [MeasureZ(1, 1)]
    else:
        steps = prep + [
            ControlledRy(0, 1, -2.0 * ang.phi, 1),
            ControlledRy(0, 0, +2.0 * ang.phi, 1),
        ]
        tail = [MeasureZ(0, 0), MeasureZ(1, 1)]

    if target is Target.V:
        steps.append(Hadamard(1))
    return Circuit(tuple(steps + tail))


def estimate_Z1(counts: dict[str, float]) -> float:
    """Mean Z eigenvalue of qubit 1: sum of (1 - 2 b1) weighted by counts."""
    total = check_counts(counts)
    return sum((1 - 2 * int(key[1])) * c for key, c in counts.items()) / total


def estimate_X0X1(counts: dict[str, float]) -> float:
    """Mean joint X eigenvalue: sum of (1 - 2 b0)(1 - 2 b1) weighted by counts."""
    total = check_counts(counts)
    return sum(
        (1 - 2 * int(key[0])) * (1 - 2 * int(key[1])) * c for key, c in counts.items()
    ) / total


def estimate_energy(
    params: ModelParams, target: Target, counts: dict[str, float]
) -> EstimationResult:
    """Energy estimate for one run's counts.

    Counts must come from the circuit built for the same target; only
    structural validity of the map is checkable here. Float-valued counts
    (for example a corrected distribution scaled by the shot count) are
    accepted; the eigenvalue sample variance then uses the weights as given.
    """
    target = Target(target)
    total = check_counts(counts)
    h, k, r = params.h, params.k, params.r
    if target is Target.V:
        coef, const, eig_mean = 2.0 * k, 2.0 * k**2 / r, estimate_X0X1(counts)
    elif target is Target.H1:
        coef, const, eig_mean = h, h**2 / r, estimate_Z1(counts)
    else:
        # deposit readout: Z eigenvalue of qubit 0 after the completed X measurement
        coef, const = h, h**2 / r
        eig_mean = sum((1 - 2 * int(key[0])) * c for key, c in counts.items()) / total
    # eigenvalues are +/-1, so the population variance is 1 - mean^2
    var = max(1.0 - eig_mean**2, 0.0)
    if total > 1:
        var *= total / (total - 1.0)
    std_error = coef * float(np.sqrt(var / total))
    return EstimationResult(
        mean=coef * eig_mean + const,
        std_error=std_error,
        n_shots=int(round(total)),
        raw_counts=dict(counts),
    )


def combine_E1(h1: EstimationResult, v: EstimationResult) -> EstimationResult:
    """Post-hoc sum of separate local-field and interaction estimates, with
    standard errors combined in quadrature."""
    return EstimationResult(
        mean=h1.mean + v.mean,
        std_error=float(np.hypot(h1.std_error, v.std_error)),
        n_shots=h1.n_shots + v.n_shots,
        raw_counts=None,
        components=(h1, v),
    )


def _seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def run_protocol(
    params: ModelParams,
    target: Target,
    mode: Mode,
    n_shots: int,
    seed: int | np.random.SeedSequence,
    noise: ReadoutNoise | None = None,
) -> EstimationResult:
    """Build, sample, optionally corrupt with readout noise, and estimate.
    Deterministic for a fixed seed; sampling and noise use independent
    generators spawned from it."""
    shot_seed, noise_seed = _seed_sequence(seed).spawn(2)
    counts = run_shots(build_circuit(params, target, mode), n_shots, shot_seed)
    if noise is not None:
        counts = apply_noise(counts, noise, make_rng(noise_seed))
    return estimate_energy(params, target, counts)


def run_protocol_E1(
    params: ModelParams,
    mode: Mode,
    n_shots: int,
    seed: int | np.random.SeedSequence,
    noise: ReadoutNoise | None = None,
) -> EstimationResult:
    """Two-circuit estimate of the receiver's total energy: the local-field
    and interaction terms never share a circuit, so each gets n_shots."""
    h1_seed, v_seed = _seed_sequence(seed).spawn(2)
    h1 = run_protocol(params, Target.H1, mode, n_shots, h1_seed, noise)
    v = run_protocol(params, Target.V, mode, n_shots, v_seed, noise)
    return combine_E1(h1, v)
