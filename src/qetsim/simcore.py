"""Exact two-qubit state-vector engine: gates, projective measurement, sampling,
expectation values, and Hamiltonian time evolution.

States are length-4 vectors ordered by basis |q0 q1> in {00,01,10,11}
(index = 2*b0 + b1); exact_distribution and gate_unitary share one scalar
kernel on four plain-float amplitudes. Density matrices and observables are
4x4 complex arrays; evolved_expectations reads Tr[rho(t) O] off H's eigenbasis
phases, forming no rho(t). Counts map 2-bit outcome strings "b0b1" to tallies.
A seed-tree node (_SeedNode) carries SeedSequence's pool and seeds PCG64 as one.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import reduce
import math
from operator import add
import types


class _LazyNumpy(types.ModuleType):
    """numpy, imported on the first attribute read, so that importing qetsim
    loads no numpy. That read copies numpy's names in, and any other name (a
    submodule numpy loads on use, such as random) is read from numpy once and
    kept. The class then becomes ModuleType: a lookup costs what one on numpy
    does. Each step is idempotent, so threads racing to the first read agree."""

    def __getattr__(self, name: str):
        import numpy

        def fetch(attr: str):
            value = getattr(numpy, attr)
            setattr(self, attr, value)
            return value

        vars(self).update(vars(numpy), __getattr__=fetch)
        self.__class__ = types.ModuleType
        return getattr(self, name)


np = _LazyNumpy("numpy")  # every qetsim module's numpy: from .simcore import np

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


class NumericalError(Exception):
    """Raised when a numeric invariant is violated (corrupted state, non-Hermitian
    input, singular matrix)."""


class _Record:
    """Base of the frozen records. The fields are the class's own annotations,
    set by a generated __init__ that first runs the class's _checks and then
    calls __post_init__, if any; records compare and hash by type and fields
    and print as Name(field=value, ...)."""

    def __init_subclass__(cls) -> None:
        # one compiled __init__ per class: a generic *args one costs every instance
        cls._fields = tuple(cls.__annotations__)
        body = [*cls._checks(), *(f"_set(self, {name!r}, {name})" for name in cls._fields)]
        body.append("self.__post_init__()" if hasattr(cls, "__post_init__") else "pass")
        code = f"def __init__(self, {', '.join(cls._fields)}):\n    " + "\n    ".join(body)
        exec(code, {"_set": object.__setattr__}, namespace := {})
        cls.__init__ = namespace["__init__"]

    @classmethod
    def _checks(cls) -> list[str]:
        """Statements the compiled __init__ runs on its arguments before it sets a field."""
        return []

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
    required_value), and is 0 or 1; a control is not its own target. The
    checks run in field order, compiled into each class's __init__."""

    @classmethod
    def _checks(cls) -> list[str]:
        checks = [f"if {n} not in (0, 1): raise ValueError('{n} must be 0 or 1, got ' + repr({n}))"
                  for n in cls._fields if n != "theta"]
        differ = "if control == target: raise ValueError('control and target must differ')"
        return checks + [differ] if "control" in cls._fields else checks


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


def _ry(theta: float) -> tuple[float, float, float, float]:
    # RY(theta)'s factor, from (cos, sin) of theta/2; NaNs for a non-finite
    # angle: math.cos raises on inf, run_shots on NaN
    half = theta / 2.0 if math.isfinite(theta) else math.nan
    c, s = math.cos(half), math.sin(half)
    return c, -s, s, c


def on_qubits(ops: dict[int, np.ndarray]) -> np.ndarray:
    """4x4 operator acting as ops[q] (2x2) on qubit q and as the identity on
    a qubit not in ops. Qubit 0 is the high bit of the index 2*b0 + b1, so
    this is the Kronecker product ops[0] (x) ops[1]; broadcasting gives the
    same bits as numpy's kron at a tenth of its per-call cost."""
    a, b = (ops[q] if q in ops else np.eye(2, dtype=complex) for q in (0, 1))
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


# _PAIRS[q][v]: indices of the two amplitudes that differ only in qubit q, the other reading v
_PAIRS = (((0, 2), (1, 3)), ((0, 1), (2, 3)))
_HADAMARD = (1.0 / math.sqrt(2.0),) * 3 + (-1.0 / math.sqrt(2.0),)


def _factor(step: GateStep) -> tuple[tuple[float, ...], tuple[tuple[int, int], ...]]:
    """A fixed-unitary step's 2x2 factor (u00, u01, u10, u11) and the pairs it acts
    on: every pair of the target qubit, or, for a controlled step, the pair where
    the control reads v."""
    if isinstance(step, Ry):
        return _ry(step.theta), _PAIRS[step.target]
    if isinstance(step, Hadamard):
        return _HADAMARD, _PAIRS[step.target]
    if isinstance(step, Cnot):
        return (0.0, 1.0, 1.0, 0.0), (_PAIRS[step.target][1],)
    if isinstance(step, ControlledRy):
        return _ry(step.theta), (_PAIRS[step.target][step.control_value],)
    raise ValueError(f"step {type(step).__name__} has no fixed unitary")


def _apply(u: tuple[float, ...], pairs, branches: list[list[float]]) -> list[list[float]]:
    """Apply the 2x2 factor u on pairs in place to each amplitude list of branches, returned."""
    u00, u01, u10, u11 = u
    for amps in branches:
        for i, j in pairs:
            x, y = amps[i], amps[j]
            amps[i] = u00 * x + u01 * y
            amps[j] = u10 * x + u11 * y
    return branches


def gate_unitary(step: GateStep) -> np.ndarray:
    """4x4 unitary of a fixed-unitary step: its action on the basis states."""
    return np.array(_apply(*_factor(step), np.eye(4).tolist())).T


# SeedSequence's hash constants (numpy/random/bit_generator.pyx), on 32-bit words
_MASK, _MULT_A, _MULT_B, _MIX_L, _MIX_R = 0xFFFFFFFF, 0x931E8875, 0x58F38DED, 0xCA01F9DD, 0x4973F715
_INIT_A, _INIT_B = 0x43B0D7E5, 0x8B51F9DD


def _absorb(pool: list[int], const: int, words, dsts=range(4)) -> int:
    """SeedSequence's pool[dst] = mix(pool[dst], hashmix(word)), in place, in turn."""
    for word in words:
        for dst in dsts:
            value = word ^ const
            const = const * _MULT_A & _MASK
            value = value * const & _MASK
            value = _MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16) & _MASK
            pool[dst] = value ^ value >> 16
    return const


class _SeedNode:
    """A SeedSequence in plain ints: entropy, spawn_key, n_children_spawned, the mixed
    pool and the running hash constant. numpy mixes the words past the fourth one at
    a time, so a child mixes just its last key element into a copy of its parent's pool."""

    __slots__ = ("entropy", "spawn_key", "n_children_spawned", "pool", "hash_const")

    def __init__(self, entropy: int, spawn_key: tuple[int, ...] = (), parent=None) -> None:
        if parent is not None:
            pool, const, rest = list(parent.pool), parent.hash_const, _words(spawn_key[-1])
        else:
            # the first four words hashed (zero-padded: numpy hashes zeros), then mixed
            words, pool, const = _words(int(entropy)), [], _INIT_A
            for word in (words + [0, 0, 0])[:4]:
                value = word ^ const
                const = const * _MULT_A & _MASK
                value = value * const & _MASK
                pool.append(value ^ value >> 16)
            for src in range(4):
                const = _absorb(pool, const, (pool[src],), [dst for dst in range(4) if dst != src])
            rest = words[4:] + [w for k in spawn_key for w in _words(int(k))]
        self.entropy, self.spawn_key, self.n_children_spawned = entropy, tuple(spawn_key), 0
        self.pool, self.hash_const = pool, _absorb(pool, const, rest)

    def spawn(self, n_children: int) -> list[_SeedNode]:
        keys = range(self.n_children_spawned, self.n_children_spawned + n_children)
        self.n_children_spawned += n_children
        return [_SeedNode(self.entropy, self.spawn_key + (i,), self) for i in keys]

    def generate_state(self, n_words: int, dtype="uint32") -> np.ndarray:
        """SeedSequence.generate_state: n_words uint32 or uint64 words hashed from
        the pool, a uint64 from two uint32 ones, low first. PCG64 passes np.uint64."""
        wide = dtype is np.uint64 or np.dtype(dtype) == np.uint64
        if not wide and np.dtype(dtype) != np.uint32:
            raise ValueError("only support uint32 or uint64")
        pool, const, state = self.pool, _INIT_B, [0] * n_words
        for i in range(n_words << wide):
            value = pool[i & 3] ^ const
            const = const * _MULT_B & _MASK
            value = value * const & _MASK
            state[i >> wide] |= (value ^ value >> 16) << 32 * (i & wide)
        return np.array(state, dtype=np.uint64 if wide else np.uint32)


def _words(n: int) -> list[int]:
    """n as little-endian 32-bit words ([0] for 0), as SeedSequence splits it."""
    return [n] if n < 2**32 else [n >> s & 0xFFFFFFFF for s in range(0, n.bit_length(), 32)]


def _rng(seed: int | _SeedNode | np.random.SeedSequence | np.random.Generator):
    """A fresh generator (a Generator is returned as it is). numpy seeds PCG64
    from any ISeedSequence's generate_state, so a _SeedNode, registered as one
    here (that needs numpy), seeds it with no numpy SeedSequence built."""
    np.random.bit_generator.ISeedSequence.register(_SeedNode)
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
            _apply(_ry(step.theta), _PAIRS[step.target], hit)
        else:
            _apply(*_factor(step), [amps for amps, _, _ in branches])
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


def expectation(rho: np.ndarray, obs: np.ndarray) -> float | np.ndarray:
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


def _eigh(hamiltonian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if not is_hermitian(hamiltonian):
        raise NumericalError("evolve requires a Hermitian generator")
    return np.linalg.eigh(hamiltonian)


def evolve(
    rho: np.ndarray, hamiltonian: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """exp(-iHt) rho exp(+iHt) via one exact Hermitian eigendecomposition; an
    array of times gives a stack of states, shape t.shape + (4, 4)."""
    evals, evecs = _eigh(hamiltonian)
    u = (evecs * np.exp(-1j * np.multiply.outer(t, evals))[..., None, :]) @ evecs.conj().T
    out = u @ rho @ u.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def evolved_expectations(
    rho: np.ndarray, hamiltonian: np.ndarray, t: float | np.ndarray, observables: tuple
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
