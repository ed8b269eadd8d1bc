"""Span tracer that instruments qetsim from outside the package.

Each traced public function is wrapped, and the wrapper is bound in every
``qetsim.*`` namespace that imported the function by name (``run_shots``, for
example, is called through ``simcore``, ``protocol`` and ``analysis``).
``cli._COMMANDS`` holds the subcommand handlers by value, so its entries are
wrapped as well. ``enable`` and ``disable`` swap the bindings, so an untraced
operation runs the unmodified program.

Spans live in flat arrays while the run lasts and are written as JSON lines
when it ends. The program is single-threaded, so a plain stack gives each
span its parent.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# Public functions wrapped per module: the layers the per-layer metrics name,
# plus the subcommand handlers and run_protocol_E1, so every span has a parent
# inside the program.
TRACED = {
    "simcore": ("run_shots", "exact_distribution", "evolve", "expectation"),
    "protocol": ("build_circuit", "run_protocol", "run_protocol_E1", "estimate_energy"),
    "noise": ("apply_noise", "estimate_calibration_matrix", "mitigate"),
    "model": ("rho_qet", "build_hamiltonians"),
    "analysis": (
        "sampled_calibration_matrix",
        "mitigated_run",
        "comparison_report",
        "heatmap",
        "phi_scan",
        "evolution_scan",
    ),
    "cli": ("main", "build_parser", "render_json", "render_csv"),
}

CALIBRATION_SPAN = "analysis.sampled_calibration_matrix"


class Tracer:
    """Records spans (name, start, end, parent, operation, n_shots) for the
    wrapped functions while enabled."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.op = -1
        self._name_ids: dict[str, int] = {}
        self._name = array("l")
        self._parent = array("l")
        self._op = array("l")
        self._shots = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self._commands: dict | None = None
        self._command_pairs: list[tuple[str, object, object]] = []
        self._install()

    def __len__(self) -> int:
        return len(self._name)

    def _install(self) -> None:
        import qetsim.cli  # noqa: F401  (loads every qetsim module)

        namespaces = [
            m for name, m in sys.modules.items()
            if name == "qetsim" or name.startswith("qetsim.")
        ]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"qetsim.{module_name}"]
            for func_name in functions:
                original = getattr(module, func_name)
                wrapped = self._wrap(f"{module_name}.{func_name}", original)
                for ns in namespaces:
                    for attr, value in vars(ns).items():
                        if value is original:
                            self._bindings.append((ns, attr, original, wrapped))
        self._commands = sys.modules["qetsim.cli"]._COMMANDS
        for key, handler in self._commands.items():
            self._command_pairs.append(
                (key, handler, self._wrap(f"cli.{handler.__name__}", handler))
            )

    def enable(self) -> None:
        for ns, attr, _, wrapped in self._bindings:
            setattr(ns, attr, wrapped)
        for key, _, wrapped in self._command_pairs:
            self._commands[key] = wrapped

    def disable(self) -> None:
        for ns, attr, original, _ in self._bindings:
            setattr(ns, attr, original)
        for key, original, _ in self._command_pairs:
            self._commands[key] = original

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        params = list(inspect.signature(fn).parameters)
        shots_pos = params.index("n_shots") if "n_shots" in params else -1
        names, parents, ops, shots = self._name, self._parent, self._op, self._shots
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            if shots_pos < 0:
                shots.append(-1)
            elif len(args) > shots_pos:
                shots.append(int(args[shots_pos]))
            else:
                shots.append(int(kwargs.get("n_shots", -1)))
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (duration minus the time its child
        spans cover), shots, and calibration_shots (shots sampled under the
        calibration-matrix span)."""
        n = len(self._name)
        child_ns = [0] * n
        in_cal = [False] * n
        cal_id = self._name_ids.get(CALIBRATION_SPAN, -1)
        for i in range(n):
            parent = self._parent[i]
            if parent >= 0:
                child_ns[parent] += self._end[i] - self._start[i]
                in_cal[i] = in_cal[parent]
            if self._name[i] == cal_id:
                in_cal[i] = True
        stats = {
            name: {"calls": 0, "self_s": 0.0, "shots": 0, "calibration_shots": 0}
            for name in self.names
        }
        for i in range(n):
            entry = stats[self.names[self._name[i]]]
            entry["calls"] += 1
            entry["self_s"] += (self._end[i] - self._start[i] - child_ns[i]) * 1e-9
            if self._shots[i] >= 0:
                entry["shots"] += self._shots[i]
                if in_cal[i]:
                    entry["calibration_shots"] += self._shots[i]
        return stats

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self._start[0] if len(self._start) else 0
        with path.open("w") as fh:
            for i in range(len(self._name)):
                span = {
                    "id": i,
                    "name": self.names[self._name[i]],
                    "parent": self._parent[i],
                    "op": self._op[i],
                    "start_ns": self._start[i] - t0,
                    "end_ns": self._end[i] - t0,
                }
                if self._shots[i] >= 0:
                    span["n_shots"] = self._shots[i]
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
