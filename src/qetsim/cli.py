"""Command-line interface.

Subcommands: run (sample one observable), sweep (teleported-energy maps over
a coupling grid), evolve (free relaxation of the measured state), report
(analytic vs sampled comparison table), mitigate-demo (readout-error
calibration and correction walkthrough).

Every option may also come from a flat ``key = value`` config file passed via
--config; command-line flags win over the file, which wins over the QET_SEED
environment variable (seed only), which wins over built-in defaults. Output
is written to stdout and, when --out is given, byte-identically to a file.
Floats are rendered with six decimals so repeated runs compare equal. Exit
codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from .analysis import (
    ANALYTIC,
    EVOLUTION_COLUMNS,
    ComparisonRow,
    SweepGrid,
    comparison_report,
    evolution_scan,
    heatmap,
    mitigated_run,
)
from .model import REPORT_PAIRS, ModelParams
from .noise import MITIGATION_METHODS, PRESETS, ReadoutNoise, measurement_fidelity
from .protocol import EstimationResult, Mode, Target, combine_E1
from .simcore import BITSTRINGS, NumericalError

SCHEMA = "qet-report/1"
DEFAULT_SEED = 12345
DEFAULT_SHOTS = 100_000
SEED_ENV_VAR = "QET_SEED"


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2."""


def format_float(x: float) -> str:
    """Fixed six-decimal rendering; negative zero normalizes to 0.000000."""
    text = f"{float(x):.6f}"
    if text == "-0.000000":
        return "0.000000"
    return text


def render_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with fixed-point floats and insertion-order keys."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            return "null"
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(key))}: {render_json(value, indent + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{render_json(value, indent + 1)}" for value in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def render_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """CSV with LF line endings, a header row, and a trailing newline."""
    lines = [",".join(header)]
    for row in rows:
        cells = [
            cell if isinstance(cell, str) else format_float(cell) for cell in row
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments are ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


class Options:
    """Merged view of command-line flags and a config file."""

    def __init__(self, args: argparse.Namespace) -> None:
        self._args = args
        self._file = read_config_file(args.config) if args.config else {}

    def raw(self, key: str) -> Any:
        value = getattr(self._args, key.replace("-", "_"), None)
        if value is not None:
            return value
        return self._file.get(key)

    def get(self, key: str, cast: Callable[[Any], Any], default: Any = None) -> Any:
        value = self.raw(key)
        if value is None:
            if default is None:
                raise ConfigError(f"missing required option --{key}")
            value = default
        try:
            return cast(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value for --{key}: {value!r}") from exc

    def seed(self) -> int:
        for raw in (self._args.seed, self._file.get("seed"), os.environ.get(SEED_ENV_VAR)):
            if raw is not None and raw != "":
                try:
                    return int(raw)
                except ValueError as exc:
                    raise ConfigError(f"invalid seed: {raw!r}") from exc
        return DEFAULT_SEED


def _positive_int(value: Any) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(value)
    return n


def _choice(allowed: tuple[str, ...]) -> Callable[[Any], str]:
    def cast(value: Any) -> str:
        text = str(value)
        if text not in allowed:
            raise ValueError(value)
        return text

    return cast


def parse_mode(value: Any) -> Mode:
    return Mode(str(value))


def parse_noise(spec: Any) -> ReadoutNoise | None:
    """'none', a preset name, or 2 (symmetric per qubit) / 4 comma-separated
    flip probabilities ordered p(1|0),p(0|1) for qubit 0 then qubit 1."""
    text = str(spec).strip()
    if text == "none":
        return None
    if text in PRESETS:
        return PRESETS[text]
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 2:
        return ReadoutNoise.symmetric(parts[0], parts[1])
    if len(parts) == 4:
        return ReadoutNoise((parts[0], parts[2]), (parts[1], parts[3]))
    raise ValueError(spec)


def parse_axis(spec: Any) -> tuple[float, ...]:
    """A single coupling value or a lo:hi:n inclusive linear range."""
    parts = str(spec).split(":")
    if len(parts) == 1:
        return (float(parts[0]),)
    if len(parts) == 3:
        lo, hi = float(parts[0]), float(parts[1])
        n = _positive_int(parts[2])
        return tuple(np.linspace(lo, hi, n))
    raise ValueError(spec)


def parse_pairs(spec: Any) -> list[ModelParams]:
    pairs: list[ModelParams] = []
    for chunk in str(spec).split(","):
        h_text, sep, k_text = chunk.partition(":")
        if not sep:
            raise ValueError(spec)
        pairs.append(ModelParams(float(h_text), float(k_text)))
    if not pairs:
        raise ValueError(spec)
    return pairs


def _params(opts: Options, default: float | None = None) -> ModelParams:
    h = opts.get("h", float, default)
    k = opts.get("k", float, default)
    try:
        return ModelParams(h, k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _estimate_payload(result: EstimationResult) -> dict[str, Any]:
    return {
        "mean": result.mean,
        "std_error": result.std_error,
        "n_shots": result.n_shots,
    }


def _counts_payload(result: EstimationResult) -> dict[str, Any] | None:
    if result.raw_counts is None:
        return None
    return {key: result.raw_counts.get(key, 0) for key in BITSTRINGS}


def _deviation_sigma(result: EstimationResult, analytic: float) -> float | None:
    if result.std_error <= 0.0:
        return None
    return (result.mean - analytic) / result.std_error


def cmd_run(opts: Options) -> str:
    target_name = opts.get("target", _choice(("E0", "H1", "V", "E1")))
    mode = opts.get("mode", parse_mode, Mode.DEFERRED.value)
    shots = opts.get("shots", _positive_int, DEFAULT_SHOTS)
    noise_spec = opts.get("noise", str, "none")
    noise = opts.get("noise", parse_noise, "none")
    method = opts.get(
        "mitigation", _choice(("none",) + MITIGATION_METHODS), "none"
    )
    seed = opts.seed()
    params = _params(opts)
    analytic = ANALYTIC[target_name](params)

    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "command": "run",
        "config": {
            "h": params.h,
            "k": params.k,
            "target": target_name,
            "mode": mode.value,
            "shots": shots,
            "seed": seed,
            "noise": noise_spec,
            "mitigation": method,
        },
        "analytic": analytic,
    }

    mitigation = None if noise is None or method == "none" else method
    if target_name == "E1":
        h1_seed, v_seed = np.random.SeedSequence(seed).spawn(2)
        u_h1, m_h1, matrix = mitigated_run(
            params, Target.H1, mode, shots, h1_seed, noise, mitigation
        )
        u_v, m_v, _ = mitigated_run(
            params, Target.V, mode, shots, v_seed, noise, mitigation
        )
        unmitigated = combine_E1(u_h1, u_v)
        result = combine_E1(m_h1, m_v)
    else:
        unmitigated, result, matrix = mitigated_run(
            params, Target(target_name), mode, shots, seed, noise, mitigation
        )
    if matrix is not None:
        payload["measurement_fidelity"] = measurement_fidelity(matrix)
        payload["unmitigated"] = _estimate_payload(unmitigated)
    payload["estimate"] = _estimate_payload(result)
    payload["deviation_sigma"] = _deviation_sigma(result, analytic)
    if result.components is not None:
        payload["components"] = {
            name: _estimate_payload(part)
            for name, part in zip(("H1", "V"), result.components)
        }
    payload["counts"] = _counts_payload(result)
    return render_json(payload) + "\n"


def cmd_sweep(opts: Options) -> str:
    h_axis = opts.get("grid-h", parse_axis, "0.05:2:50")
    k_axis = opts.get("grid-k", parse_axis, "0.05:2:50")
    try:
        grid = SweepGrid(h_axis, k_axis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    v_map, h1_map = heatmap(grid)
    rows = [
        (grid.h_values[i], grid.k_values[j], v_map[i, j], h1_map[i, j])
        for i in range(len(grid.h_values))
        for j in range(len(grid.k_values))
    ]
    return render_csv(("h", "k", "V", "H1"), rows)


def cmd_evolve(opts: Options) -> str:
    params = _params(opts)
    t_max = opts.get("t-max", float, 2.0 * math.pi / params.k)
    # the total Hamiltonian's eigenvalues reach 4 r in magnitude, so every
    # evolution phase stays finite when 4 r t-max does
    if not (t_max > 0.0 and math.isfinite(4.0 * params.r * t_max)):
        raise ConfigError(f"t-max must be positive with 4 r t-max finite, got {t_max}")
    t_steps = opts.get("t-steps", _positive_int, 101)
    if t_steps < 2:
        raise ConfigError(f"t-steps must be at least 2, got {t_steps}")
    t_values = np.linspace(0.0, t_max, t_steps)
    rows = evolution_scan(params, t_values)
    return render_csv(EVOLUTION_COLUMNS, rows)


def cmd_report(opts: Options) -> str:
    pairs_default = ",".join(f"{h:g}:{k:g}" for h, k in REPORT_PAIRS)
    params_list = opts.get("pairs", parse_pairs, pairs_default)
    mode = opts.get("mode", parse_mode, Mode.DEFERRED.value)
    shots = opts.get("shots", _positive_int, DEFAULT_SHOTS)
    noise_spec = opts.get("noise", str, "none")
    noise = opts.get("noise", parse_noise, "none")
    method_name = opts.get(
        "mitigation", _choice(("none",) + MITIGATION_METHODS), "least-squares"
    )
    fmt = opts.get("format", _choice(("csv", "json")), "csv")
    seed = opts.seed()
    method = None if method_name == "none" else method_name
    rows = comparison_report(params_list, shots, seed, noise, method, mode)

    # the params field becomes the h and k columns
    header = ("h", "k", *(f.name for f in dataclasses.fields(ComparisonRow)[1:]))
    table = [(row.params.h, row.params.k, *dataclasses.astuple(row)[1:]) for row in rows]
    if fmt == "csv":
        return render_csv(header, table)
    payload = {
        "schema": SCHEMA,
        "command": "report",
        "config": {
            "pairs": [{"h": p.h, "k": p.k} for p in params_list],
            "mode": mode.value,
            "shots": shots,
            "seed": seed,
            "noise": noise_spec,
            "mitigation": method_name,
        },
        "rows": [dict(zip(header, row)) for row in table],
    }
    return render_json(payload) + "\n"


def cmd_mitigate_demo(opts: Options) -> str:
    target_name = opts.get("target", _choice(("E0", "H1", "V")), "V")
    mode = opts.get("mode", parse_mode, Mode.DEFERRED.value)
    shots = opts.get("shots", _positive_int, DEFAULT_SHOTS)
    noise_spec = opts.get("noise", str, "lima-like")
    noise = opts.get("noise", parse_noise, "lima-like")
    if noise is None:
        raise ConfigError("mitigate-demo needs a noise model, got none")
    method = opts.get("mitigation", _choice(MITIGATION_METHODS), "least-squares")
    seed = opts.seed()
    params = _params(opts, 1.0)
    analytic = ANALYTIC[target_name](params)

    unmitigated, mitigated, matrix = mitigated_run(
        params, Target(target_name), mode, shots, seed, noise, method
    )
    payload = {
        "schema": SCHEMA,
        "command": "mitigate-demo",
        "config": {
            "h": params.h,
            "k": params.k,
            "target": target_name,
            "mode": mode.value,
            "shots": shots,
            "seed": seed,
            "noise": noise_spec,
            "mitigation": method,
        },
        "calibration_matrix": [list(row) for row in matrix],
        "measurement_fidelity": measurement_fidelity(matrix),
        "analytic": analytic,
        "unmitigated": _estimate_payload(unmitigated),
        "mitigated": _estimate_payload(mitigated),
        "deviation_sigma": _deviation_sigma(mitigated, analytic),
    }
    return render_json(payload) + "\n"


_COMMANDS: dict[str, Callable[[Options], str]] = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "evolve": cmd_evolve,
    "report": cmd_report,
    "mitigate-demo": cmd_mitigate_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qet",
        description="Exact simulator and estimators for a two-qubit energy "
        "teleportation protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="RNG seed (also QET_SEED env)")
        p.add_argument("--out", help="also write the output to this file")

    def sampling(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", help="conditional or deferred (default deferred)")
        p.add_argument("--shots", help="shots per estimate (default 100000)")
        p.add_argument("--noise", help="none, a preset, or flip probabilities")
        p.add_argument("--mitigation", help="none, direct, or least-squares")

    p_run = sub.add_parser("run", help="sample one observable estimate")
    p_run.add_argument("--h", help="local field strength")
    p_run.add_argument("--k", help="coupling strength")
    p_run.add_argument("--target", help="E0, H1, V, or E1")
    sampling(p_run)
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="exact energy maps over a grid")
    p_sweep.add_argument("--grid-h", help="value or lo:hi:n (default 0.05:2:50)")
    p_sweep.add_argument("--grid-k", help="value or lo:hi:n (default 0.05:2:50)")
    common(p_sweep)

    p_evolve = sub.add_parser("evolve", help="free relaxation after measurement")
    p_evolve.add_argument("--h", help="local field strength")
    p_evolve.add_argument("--k", help="coupling strength")
    p_evolve.add_argument("--t-max", help="final time (default one period)")
    p_evolve.add_argument("--t-steps", help="number of samples (default 101)")
    common(p_evolve)

    p_report = sub.add_parser("report", help="analytic vs sampled comparison")
    p_report.add_argument("--pairs", help="h:k pairs, comma separated")
    p_report.add_argument("--format", help="csv or json (default csv)")
    sampling(p_report)
    common(p_report)

    p_demo = sub.add_parser("mitigate-demo", help="readout calibration demo")
    p_demo.add_argument("--h", help="local field strength (default 1)")
    p_demo.add_argument("--k", help="coupling strength (default 1)")
    p_demo.add_argument("--target", help="E0, H1, or V (default V)")
    sampling(p_demo)
    common(p_demo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = Options(args)
        text = _COMMANDS[args.command](opts)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    out = args.out if args.out is not None else opts.raw("out")
    if out is not None:
        Path(out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
