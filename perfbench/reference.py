"""Reference kernels: fixed work that does not touch qetsim, timed next to the
operations so that the benchmark can report times at a fixed machine speed.

On a shared virtual machine the CPU can run at about half speed for seconds to
minutes at a time (a neighbour on the same core, or the host's power state).
Every operation of a run slows down together with these kernels, so dividing
by the kernels' time cancels most of that drift, while a change to qetsim
moves the operations and not the kernels. ``interpreter`` does the kind of
work qetsim does per call on the ``exact`` workload and in ``import``: many
small numpy calls and pure-Python bookkeeping. ``arrays`` does what
``simcore.run_shots`` does per measurement on ``sample``: sweeps of (n, 4)
complex arrays of 5e4 rows. ``mixed`` runs the first and then the second on
2e4 rows, like ``mitigate``, whose short CLI calls sample 1e3-5e3 shots each.
Over four minutes in which the machine changed speed by up to 1.6 times, the
times of mitigate's operations over this kernel's spread by 3-5% between
ten-second windows, against 6-8% over ``interpreter`` alone and 17-20%
unscaled.

NOMINAL_S is each kernel's time on the 2-core x86 virtual machine where the
benchmark was built, in its fast state. A time t measured while the kernel
takes r is reported as t * NOMINAL_S / r: milliseconds at that speed.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20230106)
_MATRIX = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_VECTOR = _RNG.standard_normal(4) + 1j * _RNG.standard_normal(4)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_STATES = np.zeros((50_000, 4), dtype=complex)
_STATES[:, 0] = 1.0
_GATE = np.kron(_HADAMARD, _HADAMARD).astype(complex)


def interpreter() -> float:
    acc = 0.0
    for i in range(40):
        u = np.kron(_HADAMARD, np.eye(2)) @ (_MATRIX * (1.0 + 1e-3 * i))
        rho = np.outer(_VECTOR, _VECTOR.conj())
        acc += float(np.real(np.trace(u @ rho @ u.conj().T)))
        acc += sum(float(x) for x in np.abs(_VECTOR) ** 2)
        table = {f"{j:02b}": f"{j * acc:.6f}" for j in range(4)}
        acc = sum(float(v) for v in table.values()) * 1e-3
    return acc


def arrays(rows: int = len(_STATES)) -> float:
    rng = np.random.default_rng(0)
    states = _STATES[:rows] @ _GATE.T
    p1 = (np.abs(states[:, 2:]) ** 2).sum(axis=1)
    outcome = rng.random(states.shape[0]) < p1
    states = np.where(outcome[:, None], states, 0.0) @ _GATE.T
    return float(np.linalg.norm(states, axis=1).sum())


def mixed() -> float:
    return interpreter() + arrays(20_000)


KERNELS = {"interpreter": interpreter, "arrays": arrays, "mixed": mixed}
NOMINAL_S = {"interpreter": 1.75e-3, "arrays": 9.0e-3, "mixed": 5.3e-3}


def timed(name: str) -> float:
    """Seconds one call of the named kernel takes now."""
    kernel = KERNELS[name]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
