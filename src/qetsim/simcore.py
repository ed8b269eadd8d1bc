"""Exact two-qubit state-vector engine: gates, projective measurement, sampling,
expectation values, and Hamiltonian time evolution.

States are length-4 complex vectors ordered by basis |q0 q1> in {00,01,10,11}
(index = 2*b0 + b1). Density matrices and observables are 4x4 complex arrays.
Counts map 2-bit outcome strings "b0b1" to shot tallies.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numpy as np

# Algebraic identities hold to ATOL_ALGEBRA; decomposition round-trips to ATOL_DECOMP.
ATOL_ALGEBRA = 1e-12
ATOL_DECOMP = 1e-10

BITSTRINGS = ("00", "01", "10", "11")

PureState = np.ndarray      # shape (4,), complex, unit norm
DensityMatrix = np.ndarray  # shape (4, 4), complex, Hermitian, trace 1
Observable = np.ndarray     # shape (4, 4), complex, Hermitian


class NumericalError(Exception):
    """Raised when a numeric invariant is violated (corrupted state, non-Hermitian
    input, singular matrix)."""


def _check_qubit(q: int) -> None:
    if q not in (0, 1):
        raise ValueError(f"qubit index must be 0 or 1, got {q}")


def _check_cbit(c: int) -> None:
    if c not in (0, 1):
        raise ValueError(f"classical bit index must be 0 or 1, got {c}")


@dataclass(frozen=True)
class Ry:
    theta: float
    target: int

    def __post_init__(self) -> None:
        _check_qubit(self.target)


@dataclass(frozen=True)
class Hadamard:
    target: int

    def __post_init__(self) -> None:
        _check_qubit(self.target)


@dataclass(frozen=True)
class PauliX:
    target: int

    def __post_init__(self) -> None:
        _check_qubit(self.target)


@dataclass(frozen=True)
class Cnot:
    control: int
    target: int

    def __post_init__(self) -> None:
        _check_qubit(self.control)
        _check_qubit(self.target)
        if self.control == self.target:
            raise ValueError("control and target must differ")


@dataclass(frozen=True)
class ControlledRy:
    control: int
    control_value: int
    theta: float
    target: int

    def __post_init__(self) -> None:
        _check_qubit(self.control)
        _check_qubit(self.target)
        if self.control == self.target:
            raise ValueError("control and target must differ")
        if self.control_value not in (0, 1):
            raise ValueError("control_value must be 0 or 1")


@dataclass(frozen=True)
class MeasureZ:
    target: int
    cbit: int

    def __post_init__(self) -> None:
        _check_qubit(self.target)
        _check_cbit(self.cbit)


@dataclass(frozen=True)
class ClassicallyControlledRy:
    cbit: int
    required_value: int
    theta: float
    target: int

    def __post_init__(self) -> None:
        _check_cbit(self.cbit)
        _check_qubit(self.target)
        if self.required_value not in (0, 1):
            raise ValueError("required_value must be 0 or 1")


GateStep = (
    Ry | Hadamard | PauliX | Cnot | ControlledRy | MeasureZ | ClassicallyControlledRy
)


@dataclass(frozen=True)
class Circuit:
    steps: tuple[GateStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        written: set[int] = set()
        for step in self.steps:
            if isinstance(step, ClassicallyControlledRy) and step.cbit not in written:
                raise ValueError(
                    f"classical bit {step.cbit} read before any measurement wrote it"
                )
            if isinstance(step, MeasureZ):
                written.add(step.cbit)


def _touched_qubits(step: GateStep) -> tuple[int, ...]:
    if isinstance(step, (Cnot, ControlledRy)):
        return (step.control, step.target)
    return (step.target,)


def depth(circuit: Circuit) -> int:
    """Gate depth under as-soon-as-possible layering.

    Measurements occupy their qubit (and gate their classical bit) but do not
    count toward the reported depth; classically controlled gates cannot start
    before the measurement that wrote their control bit. Two classically
    controlled rotations on the same target conditioned on complementary
    values of the same bit are branch-exclusive (an if-else), so they share
    one layer.
    """
    qubit_free = [0, 0]
    cbit_ready = [0, 0]
    d = 0
    prev: tuple[GateStep, int] | None = None
    for step in circuit.steps:
        if (
            prev is not None
            and isinstance(step, ClassicallyControlledRy)
            and isinstance(prev[0], ClassicallyControlledRy)
            and step.cbit == prev[0].cbit
            and step.target == prev[0].target
            and step.required_value != prev[0].required_value
        ):
            layer = prev[1]
        else:
            start = max(qubit_free[q] for q in _touched_qubits(step))
            if isinstance(step, ClassicallyControlledRy):
                start = max(start, cbit_ready[step.cbit])
            layer = start + 1
        for q in _touched_qubits(step):
            qubit_free[q] = layer
        if isinstance(step, MeasureZ):
            cbit_ready[step.cbit] = layer
        else:
            d = max(d, layer)
        prev = (step, layer)
    return d


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _embed_single(u: np.ndarray, target: int) -> np.ndarray:
    return np.kron(u, _I2) if target == 0 else np.kron(_I2, u)


def _qubit_bit(index: int, qubit: int) -> int:
    return (index >> 1) & 1 if qubit == 0 else index & 1


def gate_unitary(step: GateStep) -> np.ndarray:
    """4x4 unitary of a non-measurement, non-classically-controlled step."""
    if isinstance(step, Ry):
        return _embed_single(ry_matrix(step.theta), step.target)
    if isinstance(step, Hadamard):
        return _embed_single(_H2, step.target)
    if isinstance(step, PauliX):
        return _embed_single(_X2, step.target)
    if isinstance(step, Cnot):
        u = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            j = i ^ (2 if step.target == 0 else 1) if _qubit_bit(i, step.control) else i
            u[j, i] = 1.0
        return u
    if isinstance(step, ControlledRy):
        u = np.eye(4, dtype=complex)
        sub = ry_matrix(step.theta)
        lo = [i for i in range(4) if _qubit_bit(i, step.control) == step.control_value
              and _qubit_bit(i, step.target) == 0]
        for i0 in lo:
            i1 = i0 ^ (2 if step.target == 0 else 1)
            u[np.ix_([i0, i1], [i0, i1])] = sub
        return u
    raise ValueError(f"step {type(step).__name__} has no fixed unitary")


def state_00() -> PureState:
    s = np.zeros(4, dtype=complex)
    s[0] = 1.0
    return s


# Basis indices where qubit q reads 1.
_ONE_COLS = {0: np.array([2, 3]), 1: np.array([1, 3])}
_ONE_MASK = {q: np.isin(np.arange(4), cols) for q, cols in _ONE_COLS.items()}


def make_rng(seed: int | np.random.SeedSequence | np.random.Generator) -> np.random.Generator:
    """Named reproducible generator; never touches global RNG state."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def run_shots(
    circuit: Circuit,
    n_shots: int,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> dict[str, int]:
    """Sample the circuit n_shots times; deterministic for a fixed seed.

    Shots are independent and each ends in one of the four classical-register
    outcomes, so their tallies follow Multinomial(n_shots, p) with p the
    exact_distribution of the circuit (mid-circuit measurement and classical
    control included). One draw gives every count, in time and memory that do
    not depend on n_shots. Only nonzero tallies are returned."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    p = distribution_vector(exact_distribution(circuit))
    total = p.sum()
    if not (np.all(np.isfinite(p)) and abs(total - 1.0) <= ATOL_DECOMP):
        raise NumericalError(f"outcome probabilities {p} do not form a distribution")
    # numpy rejects leading entries summing past 1 + 1e-12, tighter than the guard
    tallies = make_rng(seed).multinomial(n_shots, p / total)
    return {BITSTRINGS[i]: int(c) for i, c in enumerate(tallies) if c > 0}


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact terminal classical-register distribution by enumerating every
    measurement branch. All four bitstrings are reported, zeros included."""
    branches: list[tuple[PureState, tuple[int, int], float]] = [
        (state_00(), (0, 0), 1.0)
    ]
    for step in circuit.steps:
        if isinstance(step, MeasureZ):
            nxt = []
            for state, bits, prob in branches:
                p1 = float(np.sum(np.abs(state[_ONE_COLS[step.target]]) ** 2))
                for outcome, p in ((0, 1.0 - p1), (1, p1)):
                    if p < 1e-15:
                        continue
                    keep = _ONE_MASK[step.target] if outcome else ~_ONE_MASK[step.target]
                    collapsed = np.where(keep, state, 0.0) / np.sqrt(p)
                    new_bits = list(bits)
                    new_bits[step.cbit] = outcome
                    nxt.append((collapsed, tuple(new_bits), prob * p))
            branches = nxt
        elif isinstance(step, ClassicallyControlledRy):
            u = _embed_single(ry_matrix(step.theta), step.target)
            branches = [
                (u @ state if bits[step.cbit] == step.required_value else state, bits, prob)
                for state, bits, prob in branches
            ]
        else:
            u = gate_unitary(step)
            branches = [(u @ state, bits, prob) for state, bits, prob in branches]
    dist = dict.fromkeys(BITSTRINGS, 0.0)
    for _, bits, prob in branches:
        dist[f"{bits[0]}{bits[1]}"] += prob
    return dist


def check_counts(counts: dict[str, float]) -> float:
    """Total of a counts map (integer tallies or float weights). Raises
    ValueError unless every key is an outcome bitstring, every count is finite
    and nonnegative, and the total is positive and finite."""
    total = 0.0
    for key, c in counts.items():
        if key not in BITSTRINGS:
            raise ValueError(f"invalid outcome key {key!r}")
        if not (math.isfinite(c) and c >= 0):
            raise ValueError(f"count for {key!r} must be finite and nonnegative, got {c}")
        total += c
    if not (0.0 < total < math.inf):
        raise ValueError(f"counts must have a positive finite total, got {total}")
    return total


def distribution_vector(dist: dict[str, float]) -> np.ndarray:
    """Dense length-4 vector of a bitstring-keyed map (missing keys are 0)."""
    return np.array([float(dist.get(key, 0.0)) for key in BITSTRINGS])


def expectation(rho: DensityMatrix, obs: Observable) -> float:
    """Tr[rho  obs]; the imaginary residue must stay below ATOL_DECOMP."""
    tr = complex(np.trace(rho @ obs))
    if abs(tr.imag) >= ATOL_DECOMP:
        raise NumericalError(f"imaginary residue {tr.imag:.3e} in expectation value")
    return tr.real


def evolve(rho: DensityMatrix, hamiltonian: Observable, t: float) -> DensityMatrix:
    """exp(-iHt) rho exp(+iHt) via exact Hermitian eigendecomposition."""
    if not is_hermitian(hamiltonian):
        raise NumericalError("evolve requires a Hermitian generator")
    evals, evecs = np.linalg.eigh(hamiltonian)
    u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    out = u @ rho @ u.conj().T
    return (out + out.conj().T) / 2.0


def is_unitary(u: np.ndarray, atol: float = ATOL_ALGEBRA) -> bool:
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < atol)


def is_hermitian(m: np.ndarray, atol: float = ATOL_ALGEBRA) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) < atol)
