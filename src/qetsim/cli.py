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
import functools
import math
import os
import sys
from collections.abc import Callable, Sequence
from json.encoder import encode_basestring_ascii
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
from .protocol import EstimationResult, Mode
from .simcore import BITSTRINGS, NumericalError, shot_count

SCHEMA = "qet-report/1"
DEFAULT_SEED = 12345
DEFAULT_SHOTS = 100_000
DEFAULT_AXIS = "0.05:2:50"  # each sweep axis: 50 values from 0.05 to 2
SEED_ENV_VAR = "QET_SEED"
# Most output rows (evolve time steps, sweep cells, points on one lo:hi:n
# axis) a run may ask for: each row is allocated and computed up front.
ROW_LIMIT = 10**6


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
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{encode_basestring_ascii(str(key))}: {render_json(value, indent + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{render_json(value, indent + 1)}" for value in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def render_csv(header: Sequence[str], columns: Sequence[Sequence[Any]]) -> str:
    """CSV with LF line endings, a header row, and a trailing newline, from
    equally long columns. A column holds only strings, passed through, or
    only numbers, rendered as format_float renders them."""
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    text = [n_rows > 0 and isinstance(column[0], str) for column in columns]
    strings = [j for j, is_text in enumerate(text) if is_text]
    numeric = [j for j, is_text in enumerate(text) if not is_text]
    cells = np.empty((len(columns), n_rows), dtype=object)
    if strings:
        cells[strings] = [columns[j] for j in strings]
    if numeric:
        numbers = np.array([columns[j] for j in numeric], dtype=float)
        # %.6f signs a zero exactly when |x| <= 5e-7: the double nearest
        # 5e-7 lies below the half unit
        numbers[np.abs(numbers) <= 5e-7] = 0.0
        cells[numeric] = numbers
    line = ",".join("%s" if is_text else "%.6f" for is_text in text) + "\n"
    return ",".join(header) + "\n" + (line * n_rows) % tuple(cells.T.ravel().tolist())


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
        unknown = [key for key in self._file if key not in build_parser().config_keys]
        if unknown:
            raise ConfigError(f"{args.config}: unknown key {unknown[0]!r}")

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
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value for --{key}: {value!r}") from exc

    def seed(self) -> int:
        for raw in (self._args.seed, self._file.get("seed"), os.environ.get(SEED_ENV_VAR)):
            if raw is not None and raw != "":
                try:
                    seed = int(raw)
                except ValueError as exc:
                    raise ConfigError(f"invalid seed: {raw!r}") from exc
                if seed < 0:
                    raise ConfigError(f"seed must be nonnegative, got {seed}")
                return seed
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
        # linspace warns on a non-finite span, and its steps can round past
        # the largest double on a span within a factor 2 of it
        if not math.isfinite(2.0 * (hi - lo)):
            raise ValueError(spec)
        n = _positive_int(parts[2])
        if n > ROW_LIMIT:
            raise ValueError(spec)
        return tuple(np.linspace(lo, hi, n))
    raise ValueError(spec)


def parse_pairs(spec: Any) -> list[ModelParams]:
    pairs: list[ModelParams] = []
    for chunk in str(spec).split(","):
        h_text, sep, k_text = chunk.partition(":")
        if not sep:
            raise ValueError(spec)
        pairs.append(ModelParams(float(h_text), float(k_text)))
    return pairs


def _params(opts: Options, default: float | None = None) -> ModelParams:
    h = opts.get("h", float, default)
    k = opts.get("k", float, default)
    try:
        return ModelParams(h, k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sampling(
    opts: Options, noise_default: str, methods: tuple[str, ...], method_default: str
) -> tuple[Mode, int, ReadoutNoise | None, str, int, dict[str, Any]]:
    """Mode, shots, noise, mitigation and seed of a sampling subcommand, and
    their config entries in output order."""
    mode = opts.get("mode", Mode, Mode.DEFERRED.value)
    shots = opts.get("shots", lambda value: shot_count(int(value)), DEFAULT_SHOTS)
    noise_spec = opts.get("noise", str, noise_default)
    noise = opts.get("noise", parse_noise, noise_default)
    method = opts.get("mitigation", _choice(methods), method_default)
    seed = opts.seed()
    config = {
        "mode": mode.value,
        "shots": shots,
        "seed": seed,
        "noise": noise_spec,
        "mitigation": method,
    }
    return mode, shots, noise, method, seed, config


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
    mode, shots, noise, method, seed, config = _sampling(
        opts, "none", ("none",) + MITIGATION_METHODS, "none"
    )
    params = _params(opts)
    analytic = ANALYTIC[target_name](params)

    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "command": "run",
        "config": {"h": params.h, "k": params.k, "target": target_name, **config},
        "analytic": analytic,
    }

    mitigation = None if noise is None or method == "none" else method
    unmitigated, result, matrix = mitigated_run(
        params, target_name, mode, shots, seed, noise, mitigation
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
    h_axis = opts.get("grid-h", parse_axis, DEFAULT_AXIS)
    k_axis = opts.get("grid-k", parse_axis, DEFAULT_AXIS)
    if len(h_axis) * len(k_axis) > ROW_LIMIT:
        raise ConfigError(f"a sweep has at most {ROW_LIMIT} cells")
    try:
        grid = SweepGrid(h_axis, k_axis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    v_map, h1_map = heatmap(grid)
    # each axis value heads many rows: render it once
    h_cells = np.array([format_float(h) for h in grid.h_values], dtype=object)
    k_cells = np.array([format_float(k) for k in grid.k_values], dtype=object)
    columns = (np.repeat(h_cells, len(k_cells)), np.tile(k_cells, len(h_cells)))
    return render_csv(("h", "k", "V", "H1"), (*columns, v_map.ravel(), h1_map.ravel()))


def cmd_evolve(opts: Options) -> str:
    params = _params(opts)
    t_max = opts.get("t-max", float, 2.0 * math.pi / params.k)
    # the total Hamiltonian's eigenvalues reach 4 r in magnitude, so every
    # evolution phase stays finite when 4 r t-max does
    if not (t_max > 0.0 and math.isfinite(4.0 * params.r * t_max)):
        raise ConfigError(f"t-max must be positive with 4 r t-max finite, got {t_max}")
    t_steps = opts.get("t-steps", _positive_int, 101)
    if not 2 <= t_steps <= ROW_LIMIT:
        raise ConfigError(f"t-steps must be in [2, {ROW_LIMIT}], got {t_steps}")
    t_values = np.linspace(0.0, t_max, t_steps)
    rows = evolution_scan(params, t_values)
    return render_csv(EVOLUTION_COLUMNS, rows.T)


def cmd_report(opts: Options) -> str:
    pairs_default = ",".join(f"{h:g}:{k:g}" for h, k in REPORT_PAIRS)
    params_list = opts.get("pairs", parse_pairs, pairs_default)
    mode, shots, noise, method_name, seed, config = _sampling(
        opts, "none", ("none",) + MITIGATION_METHODS, "least-squares"
    )
    fmt = opts.get("format", _choice(("csv", "json")), "csv")
    method = None if method_name == "none" else method_name
    rows = comparison_report(params_list, shots, seed, noise, method, mode)

    # the params field becomes the h and k columns
    header = ("h", "k", *(f.name for f in dataclasses.fields(ComparisonRow)[1:]))
    table = [(r.params.h, r.params.k, *(getattr(r, f) for f in header[2:])) for r in rows]
    if fmt == "csv":
        return render_csv(header, tuple(zip(*table)))
    payload = {
        "schema": SCHEMA,
        "command": "report",
        "config": {"pairs": [{"h": p.h, "k": p.k} for p in params_list], **config},
        "rows": [dict(zip(header, row)) for row in table],
    }
    return render_json(payload) + "\n"


def cmd_mitigate_demo(opts: Options) -> str:
    target_name = opts.get("target", _choice(("E0", "H1", "V")), "V")
    mode, shots, noise, method, seed, config = _sampling(
        opts, "lima-like", MITIGATION_METHODS, "least-squares"
    )
    if noise is None:
        raise ConfigError("mitigate-demo needs a noise model, got none")
    params = _params(opts, 1.0)
    analytic = ANALYTIC[target_name](params)

    unmitigated, mitigated, matrix = mitigated_run(
        params, target_name, mode, shots, seed, noise, method
    )
    payload = {
        "schema": SCHEMA,
        "command": "mitigate-demo",
        "config": {"h": params.h, "k": params.k, "target": target_name, **config},
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qet parser, built on first use and shared by every later main
    call: parse_args keeps no state between calls."""
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
    p_sweep.add_argument("--grid-h", help=f"value or lo:hi:n (default {DEFAULT_AXIS})")
    p_sweep.add_argument("--grid-k", help=f"value or lo:hi:n (default {DEFAULT_AXIS})")
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

    parser.subcommands = sub.choices
    # every subcommand's options, so that one config file serves them all
    dests = {dest for p in sub.choices.values() for dest in vars(p.parse_args([]))}
    parser.config_keys = {dest.replace("_", "-") for dest in dests}
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one qet call on argv (default sys.argv[1:]); return its exit code.
    The named subcommand's parser parses argv once. The full parser parses it
    instead, printing its own usage, help or error, when argv names no
    subcommand or the subcommand's parser leaves arguments unrecognized."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else None
    try:
        if name in parser.subcommands:
            namespace = argparse.Namespace(command=name)
            args, extras = parser.subcommands[name].parse_known_args(argv[1:], namespace)
        if name not in parser.subcommands or extras:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = Options(args)
        text = _COMMANDS[args.command](opts)
        out = opts.raw("out")
        if out is not None:
            try:
                Path(out).write_text(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output file {out}: {exc}") from exc
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
