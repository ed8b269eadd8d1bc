"""Exact two-qubit state-vector engine: gates, projective measurement, sampling,
expectation values, and Hamiltonian time evolution.

States are length-4 vectors ordered by basis |q0 q1> in {00,01,10,11}
(index = 2*b0 + b1); exact_distribution and gate_unitary share one scalar
kernel on four plain-float amplitudes. Density matrices and observables are
4x4 complex arrays; evolved_expectations reads Tr[rho(t) O] off H's eigenbasis
phases, forming no rho(t). Counts map 2-bit outcome strings "b0b1" to tallies.
A generator at a seed tree's leaf is seeded from its entropy words (_rng).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import reduce
import math
from operator import add
import numpy as np

# Algebraic identities hold to ATOL_ALGEBRA; decomposition round-trips to ATOL_DECOMP.
ATOL_ALGEBRA = 1e-12
ATOL_DECOMP = 1e-10

BITSTRINGS = ("00", "01", "10", "11")

# Shot tallies are drawn and summed as int64: every shot count and every total
# of a counts map that is resampled must stay below this.
SHOT_LIMIT = 2**63


def shot_count(n_shots: float) -> int:
    """n_shots as an int: an integral count in [1, SHOT_LIMIT), or ValueError."""
    if not (1 <= n_shots < SHOT_LIMIT and int(n_shots) == n_shots):
        raise ValueError(f"n_shots must be an integer in [1, 2**63), got {n_shots}")
    return int(n_shots)


PureState = np.ndarray      # shape (4,), complex, unit norm
DensityMatrix = np.ndarray  # shape (4, 4), complex, Hermitian, trace 1
Observable = np.ndarray     # shape (4, 4), complex, Hermitian


class NumericalError(Exception):
    """Raised when a numeric invariant is violated (corrupted state, non-Hermitian
    input, singular matrix)."""


class _Record:
    """Base of the frozen records. The fields are the class's own annotations,
    set by a generated __init__ that then calls __post_init__, if any; records
    compare and hash by type and fields and print as Name(field=value, ...)."""

    def __init_subclass__(cls) -> None:
        # one compiled __init__ per class: a generic *args one costs every instance
        cls._fields = tuple(cls.__annotations__)
        body = [f"_set(self, {name!r}, {name})" for name in cls._fields]
        body.append("self.__post_init__()" if hasattr(cls, "__post_init__") else "pass")
        code = f"def __init__(self, {', '.join(cls._fields)}):\n    " + "\n    ".join(body)
        exec(code, {"_set": object.__setattr__}, namespace := {})
        cls.__init__ = namespace["__init__"]

    def __setattr__(self, name: str, *value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class _Step(_Record):
    """Base of the circuit steps, holding their one validator. Every field but
    theta is a qubit (target, control) or a bit (cbit, control_value,
    required_value), and is 0 or 1; a control is not its own target."""

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # named once per class, so that a construction reads only its 0/1 fields
        cls._bits = tuple(name for name in cls._fields if name != "theta")

    def __post_init__(self) -> None:
        for name in self._bits:
            value = getattr(self, name)
            if value not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {value!r}")
        if getattr(self, "control", None) == self.target:
            raise ValueError("control and target must differ")


class Ry(_Step):
    theta: float
    target: int


class Hadamard(_Step):
    target: int


class Cnot(_Step):
    control: int
    target: int


class ControlledRy(_Step):
    control: int
    control_value: int
    theta: float
    target: int


class MeasureZ(_Step):
    target: int
    cbit: int


class ClassicallyControlledRy(_Step):
    cbit: int
    required_value: int
    theta: float
    target: int


GateStep = Ry | Hadamard | Cnot | ControlledRy | MeasureZ | ClassicallyControlledRy


class Circuit(_Record):
    steps: tuple[GateStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        written: set[int] = set()
        for step in self.steps:
            if isinstance(step, ClassicallyControlledRy) and step.cbit not in written:
                raise ValueError(f"classical bit {step.cbit} read before any measurement wrote it")
            if isinstance(step, MeasureZ):
                written.add(step.cbit)


def _cos_sin(theta: float) -> tuple[float, float]:
    # (cos, sin) of theta/2, the entries of RY(theta); NaNs for a non-finite
    # angle: math.cos raises on inf, run_shots on NaN
    half = theta / 2.0 if math.isfinite(theta) else math.nan
    return math.cos(half), math.sin(half)


_I2 = np.eye(2, dtype=complex)


def on_qubits(ops: dict[int, np.ndarray]) -> np.ndarray:
    """4x4 operator acting as ops[q] (2x2) on qubit q and as the identity on
    a qubit not in ops. Qubit 0 is the high bit of the index 2*b0 + b1, so
    this is the Kronecker product ops[0] (x) ops[1]; broadcasting gives the
    same bits as numpy's kron at a tenth of its per-call cost."""
    a, b = ops.get(0, _I2), ops.get(1, _I2)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


# _PAIRS[q][v]: indices of the two amplitudes that differ only in qubit q, the other reading v
_PAIRS = (((0, 2), (1, 3)), ((0, 1), (2, 3)))
_HADAMARD = (1.0 / math.sqrt(2.0),) * 3 + (-1.0 / math.sqrt(2.0),)


def _apply(step: GateStep, branches: list[list[float]]) -> list[list[float]]:
    """Apply a fixed-unitary step in place to each amplitude list of branches,
    returned: its 2x2 factor (u00, u01, u10, u11) on every pair of the target
    qubit, or, for a controlled step, on the pair where the control reads v."""
    if isinstance(step, Ry):
        c, s = _cos_sin(step.theta)
        u, pairs = (c, -s, s, c), _PAIRS[step.target]
    elif isinstance(step, Hadamard):
        u, pairs = _HADAMARD, _PAIRS[step.target]
    elif isinstance(step, Cnot):
        u, pairs = (0.0, 1.0, 1.0, 0.0), (_PAIRS[step.target][1],)
    elif isinstance(step, ControlledRy):
        c, s = _cos_sin(step.theta)
        u, pairs = (c, -s, s, c), (_PAIRS[step.target][step.control_value],)
    else:
        raise ValueError(f"step {type(step).__name__} has no fixed unitary")
    u00, u01, u10, u11 = u
    for amps in branches:
        for i, j in pairs:
            x, y = amps[i], amps[j]
            amps[i] = u00 * x + u01 * y
            amps[j] = u10 * x + u11 * y
    return branches


def gate_unitary(step: GateStep) -> np.ndarray:
    """4x4 unitary of a fixed-unitary step: its action on the basis states."""
    return np.array(_apply(step, np.eye(4).tolist())).T


class _SeedNode:
    """A SeedSequence's (entropy, spawn_key, n_children_spawned) without its
    pool: it spawns as SeedSequence.spawn does, in tuples, and seeds nothing."""

    __slots__ = ("entropy", "spawn_key", "n_children_spawned")

    def __init__(self, entropy: int, spawn_key: tuple[int, ...] = ()) -> None:
        self.entropy, self.spawn_key, self.n_children_spawned = entropy, spawn_key, 0

    def spawn(self, n_children: int) -> list[_SeedNode]:
        start = self.n_children_spawned
        self.n_children_spawned += n_children
        keys = range(start, self.n_children_spawned)
        return [_SeedNode(self.entropy, self.spawn_key + (i,)) for i in keys]


def _words(n: int) -> list[int]:
    """n as little-endian 32-bit words ([0] for 0), as SeedSequence splits it."""
    return [n] if n < 2**32 else [n >> s & 0xFFFFFFFF for s in range(0, n.bit_length(), 32)]


def _rng(seed: int | _SeedNode | np.random.SeedSequence | np.random.Generator):
    """The generator at a leaf of a seed tree, seeded from the words numpy
    assembles for a spawned SeedSequence: the entropy's, zero-padded to the pool
    size 4 under a spawn key, then each key element's. Same pool, same stream."""
    if isinstance(seed, _SeedNode):
        words = _words(int(seed.entropy))
        if seed.spawn_key:
            words += [0] * (4 - len(words))
            for k in seed.spawn_key:
                words += _words(k)
        seed = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.default_rng(seed)


def run_shots(
    dist: dict[str, float],
    n_shots: int,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> dict[str, int]:
    """Sample a given exact_distribution n_shots times; deterministic per seed.
    A caller enumerates a circuit once and samples it as often as it needs.

    Shots are independent and each ends in one of the four classical-register
    outcomes, so their tallies follow Multinomial(n_shots, p) with p the
    circuit's distribution (mid-circuit measurement and classical control
    included). One draw gives every count, in time and memory that do not
    depend on n_shots. Only nonzero tallies are returned."""
    if not isinstance(dist, dict):
        raise TypeError(f"run_shots takes an exact_distribution dict, got {type(dist).__name__}")
    n_shots = shot_count(n_shots)
    if unknown := dist.keys() - BITSTRINGS:
        raise ValueError(f"invalid outcome key {unknown.pop()!r}")
    p = [float(dist.get(key, 0.0)) for key in BITSTRINGS]
    total = _total(p)
    # a non-finite entry leaves a non-finite total, which fails the comparison
    if not abs(total - 1.0) <= ATOL_DECOMP:
        raise NumericalError(f"outcome probabilities {np.array(p)} do not form a distribution")
    # numpy rejects leading entries summing past 1 + 1e-12, tighter than the guard
    tallies = _rng(seed).multinomial(n_shots, [v / total for v in p])
    return {key: c for key, c in zip(BITSTRINGS, tallies.tolist()) if c > 0}


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact terminal classical-register distribution, all four bitstrings
    included. Each measurement branch is a record (amps, prob, register):
    four unnormalized real amplitudes indexed 2*b0 + b1, the squared norm when
    last measured (gates keep norms) and the bits (b0, b1). An outcome of
    conditional probability below 1e-15 keeps zero amplitudes and adds 0."""
    branches = [([1.0, 0.0, 0.0, 0.0], 1.0, (0, 0))]
    for step in circuit.steps:
        if isinstance(step, MeasureZ):
            halves: tuple[list, list] = ([], [])
            for amps, prob, reg in branches:
                for outcome, (i, j) in enumerate(_PAIRS[1 - step.target]):
                    x, y = amps[i], amps[j]
                    p = x * x + y * y
                    if p < 1e-15 * prob:
                        x = y = p = 0.0
                    kept = [0.0, 0.0, 0.0, 0.0]
                    kept[i], kept[j] = x, y
                    bits = (outcome, reg[1]) if step.cbit == 0 else (reg[0], outcome)
                    halves[outcome].append((kept, p, bits))
            branches = halves[0] + halves[1]
        elif isinstance(step, ClassicallyControlledRy):
            hit = [amps for amps, _, reg in branches if reg[step.cbit] == step.required_value]
            _apply(Ry(step.theta, step.target), hit)
        else:
            _apply(step, [amps for amps, _, _ in branches])
    totals = [0.0, 0.0, 0.0, 0.0]
    for _, prob, (b0, b1) in branches:
        totals[2 * b0 + b1] += prob
    return dict(zip(BITSTRINGS, totals))


def _total(values, start: float = 0.0) -> float:
    """values added left to right to start, as every qetsim total is: builtin sum
    compensates float rounding from Python 3.12 on, so its bits vary by version."""
    return reduce(add, values, start)


def check_counts(counts: dict[str, float]) -> float:
    """_total of a counts map (integer tallies or float weights). Raises
    ValueError unless every key is an outcome bitstring, every count is finite
    and nonnegative, and the total is positive and finite."""
    for key, c in counts.items():
        if key not in BITSTRINGS:
            raise ValueError(f"invalid outcome key {key!r}")
        if not (math.isfinite(c) and c >= 0):
            raise ValueError(f"count for {key!r} must be finite and nonnegative, got {c}")
    total = _total(counts.values())
    if not (0.0 < total < math.inf):
        raise ValueError(f"counts must have a positive finite total, got {total}")
    return total


def distribution_vector(dist: dict[str, float]) -> np.ndarray:
    """Dense length-4 vector of a bitstring-keyed map (missing keys are 0)."""
    return np.array([float(dist.get(key, 0.0)) for key in BITSTRINGS])


def expectation(rho: DensityMatrix, obs: Observable) -> float | np.ndarray:
    """Tr[rho  obs], also over the leading axes of a stack of states; every
    imaginary residue must stay below ATOL_DECOMP times obs's scale."""
    return _real_trace(np.trace(rho @ obs, axis1=-2, axis2=-1), obs)


def _real_trace(tr: np.ndarray, obs: np.ndarray) -> float | np.ndarray:
    # a residue is rounding when below ATOL_DECOMP times the largest |entry| of
    # its observable (a stack of them runs along tr's last axis); the bound
    # scales with the observable, not the value, which may itself be 0
    residue = np.abs(tr.imag)
    if (residue > ATOL_DECOMP * np.abs(obs).max(axis=(-2, -1))).any():
        raise NumericalError(f"imaginary residue {residue.max():.3e} in expectation value")
    return tr.real if tr.ndim else float(tr.real)


def _eigh(hamiltonian: Observable) -> tuple[np.ndarray, np.ndarray]:
    if not is_hermitian(hamiltonian):
        raise NumericalError("evolve requires a Hermitian generator")
    return np.linalg.eigh(hamiltonian)


def evolve(
    rho: DensityMatrix, hamiltonian: Observable, t: float | np.ndarray
) -> DensityMatrix:
    """exp(-iHt) rho exp(+iHt) via one exact Hermitian eigendecomposition; an
    array of times gives a stack of states, shape t.shape + (4, 4)."""
    evals, evecs = _eigh(hamiltonian)
    u = (evecs * np.exp(-1j * np.multiply.outer(t, evals))[..., None, :]) @ evecs.conj().T
    out = u @ rho @ u.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def evolved_expectations(
    rho: DensityMatrix, hamiltonian: Observable, t: float | np.ndarray, observables: tuple
) -> np.ndarray:
    """Tr[evolve(rho, H, t) O] per time and observable O, forming no state: in H's
    eigenbasis V it is sum_ab p_a conj(p_b) rho'_ab O'_ba, with p = exp(-i lambda t),
    rho' = V^dag rho V and O' = V^dag O V. Shape t.shape + (len(observables),)."""
    evals, evecs = _eigh(hamiltonian)
    vh = evecs.conj().T
    observables = np.asarray(observables)
    obs_e = vh @ observables @ evecs
    weights = (vh @ rho @ evecs * obs_e.swapaxes(-1, -2)).reshape(-1, 16).T
    p = np.exp(-1j * np.multiply.outer(t, evals))
    phases = (p[..., :, None] * p.conj()[..., None, :]).reshape(*np.shape(t), 16)
    return _real_trace(phases @ weights, observables)


def is_unitary(u: np.ndarray, atol: float = ATOL_ALGEBRA) -> bool:
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < atol)


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) < ATOL_ALGEBRA)
