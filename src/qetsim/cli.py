"""Command-line interface.

Subcommands: run (sample one observable), sweep (teleported-energy maps over
a coupling grid), evolve (free relaxation of the measured state), report
(analytic vs sampled comparison table), mitigate-demo (readout-error
calibration and correction walkthrough).

Each subcommand's options, with their casts and defaults, are listed once in
SUBCOMMANDS. Every option may also come from a flat ``key = value`` config
file passed via --config; command-line flags win over the file, which wins
over the option's default. Output is written to stdout and, when --out is
given, byte-identically to a file.
Floats are rendered with six decimals so repeated runs compare equal. Exit
codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
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
    HALF_UNIT,
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
DEFAULT_AXIS = "0.05:2:50"  # each sweep axis: 50 values from 0.05 to 2
# Most output rows (evolve time steps, sweep cells, points on one lo:hi:n axis)
# a run may ask for: each row is allocated and computed up front.
ROW_LIMIT = 10**6
SEED_ENV_VAR = "QET_SEED"


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2."""


def format_float(x: float) -> str:
    """Fixed six-decimal rendering; a zero prints unsigned, as 0.000000."""
    return "%.6f" % (0.0 if abs(x) <= HALF_UNIT else x)


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
        numbers[np.abs(numbers) <= HALF_UNIT] = 0.0
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
    """The options of one qet call. Each is taken from its flag, else from the
    --config file, else from its default in SUBCOMMANDS; the seed's default is
    QET_SEED, else 12345."""

    def __init__(self, args: argparse.Namespace) -> None:
        self._args = args
        self.command = args.command
        self._options = SUBCOMMANDS[args.command][1]
        self._file = read_config_file(args.config) if args.config else {}
        unknown = [key for key in self._file if key not in CONFIG_KEYS]
        if unknown:
            raise ConfigError(f"{args.config}: unknown key {unknown[0]!r}")

    def raw(self, key: str) -> Any:
        value = getattr(self._args, key.replace("-", "_"), None)
        if value is not None:
            return value
        return self._file.get(key)

    def get(self, key: str) -> Any:
        _, cast, default = self._options[key]
        value = self.raw(key)
        if value is None:
            value = default(self) if callable(default) else default
        if value is None:
            raise ConfigError(f"missing required option --{key}")
        try:
            # a listed value comes back as listed: --mode gives a Mode member
            return cast[cast.index(str(value))] if isinstance(cast, tuple) else cast(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value for --{key}: {value!r}") from exc


def _int_at_least(value: Any, least: int = 1) -> int:
    n = int(value)
    if n < least:
        raise ValueError(value)
    return n


def parse_noise(spec: Any, none_ok: bool = True) -> ReadoutNoise | None:
    """'none' if none_ok, a preset name, or 2 (symmetric per qubit) / 4 comma-
    separated flip probabilities ordered p(1|0),p(0|1) for qubit 0 then qubit 1."""
    text = str(spec).strip()
    if text == "none" and none_ok:
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
        n = _int_at_least(parts[2])
        if n > ROW_LIMIT:
            raise ValueError(spec)
        return tuple(np.linspace(lo, hi, n))
    raise ValueError(spec)


def parse_pairs(spec: Any) -> list[ModelParams]:
    pairs: list[ModelParams] = []
    for chunk in str(spec).split(","):
        h_text, _, k_text = chunk.partition(":")
        pairs.append(ModelParams(float(h_text), float(k_text)))
    return pairs


# An option: (help, cast, default). A tuple cast lists the accepted values, a
# callable default is computed from the call's other options, and a None
# default makes the option required.
Option = tuple[str, Any, Any]


def _couplings(default: float | None = None) -> dict[str, Option]:
    return {"h": ("local field strength", float, default),
            "k": ("coupling strength", float, default)}


def _sampling_options(noise: str, mitigation: str, none_ok: bool = True) -> dict[str, Option]:
    # none_ok: --noise and --mitigation accept none, and their help offers it
    none = ("none",) if none_ok else ()
    return {
        "mode": ("circuit form", tuple(Mode), Mode.DEFERRED.value),
        "shots": ("shots per estimate", lambda n: shot_count(int(n)), 100_000),
        # the spec as given is echoed in the output's config
        "noise": (", ".join((*none, "a preset", "or flip probabilities")),
                  lambda spec: (spec, parse_noise(spec, none_ok)), noise),
        "mitigation": ("readout-error mitigation", (*none, *MITIGATION_METHODS), mitigation),
        "seed": (f"RNG seed (default {SEED_ENV_VAR}, else {DEFAULT_SEED})",
                 lambda n: _int_at_least(n, 0),
                 lambda opts: os.environ.get(SEED_ENV_VAR) or DEFAULT_SEED),
    }


_COMMON: dict[str, Option] = {"out": ("also write the output to this file", str, None)}
# Each subcommand's help line and its options by flag name.
SUBCOMMANDS: dict[str, tuple[str, dict[str, Option]]] = {
    "run": ("sample one observable estimate", {
        **_couplings(), "target": ("observable", ("E0", "H1", "V", "E1"), None),
        **_sampling_options("none", "none"), **_COMMON}),
    "sweep": ("exact energy maps over a grid", {
        "grid-h": ("h values: one value or lo:hi:n", parse_axis, DEFAULT_AXIS),
        "grid-k": ("k values: one value or lo:hi:n", parse_axis, DEFAULT_AXIS), **_COMMON}),
    "evolve": ("free relaxation after measurement", {
        **_couplings(),
        "t-max": ("final time (default one period)", float,
                  lambda opts: 2.0 * math.pi / opts.get("k")),
        "t-steps": ("number of samples", _int_at_least, 101), **_COMMON}),
    "report": ("analytic vs sampled comparison", {
        "pairs": ("h:k pairs, comma separated", parse_pairs,
                  ",".join(f"{h:g}:{k:g}" for h, k in REPORT_PAIRS)),
        "format": ("output format", ("csv", "json"), "csv"),
        **_sampling_options("none", "least-squares"), **_COMMON}),
    "mitigate-demo": ("readout calibration demo", {
        **_couplings(1.0), "target": ("observable", ("E0", "H1", "V"), "V"),
        **_sampling_options("lima-like", "least-squares", none_ok=False), **_COMMON}),
}
# one config file may serve every subcommand
CONFIG_KEYS = {key for _, options in SUBCOMMANDS.values() for key in options}


def _params(opts: Options) -> ModelParams:
    try:
        return ModelParams(opts.get("h"), opts.get("k"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sampling(
    opts: Options,
) -> tuple[Mode, int, ReadoutNoise | None, str | None, int, dict[str, Any]]:
    """Mode, shots, noise, mitigation (None for none) and seed of a sampling
    subcommand, and their config entries in output order. Without noise,
    mitigated_run and comparison_report give the clean run whatever the method."""
    mode = opts.get("mode")
    shots = opts.get("shots")
    noise_spec, noise = opts.get("noise")
    method = opts.get("mitigation")
    seed = opts.get("seed")
    config = {
        "mode": mode.value,
        "shots": shots,
        "seed": seed,
        "noise": noise_spec,
        "mitigation": method,
    }
    return mode, shots, noise, None if method == "none" else method, seed, config


def _sampled_run(
    opts: Options,
) -> tuple[dict[str, Any], float, EstimationResult, EstimationResult, np.ndarray | None]:
    """The head of run and mitigate-demo: the output's schema, command and
    config, the target's closed form, and mitigated_run's (unmitigated,
    final estimate, calibration matrix)."""
    target_name = opts.get("target")
    mode, shots, noise, method, seed, config = _sampling(opts)
    params = _params(opts)
    analytic = ANALYTIC[target_name](params)
    head = {"schema": SCHEMA, "command": opts.command,
            "config": {"h": params.h, "k": params.k, "target": target_name, **config}}
    return head, analytic, *mitigated_run(params, target_name, mode, shots, seed, noise, method)


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
    payload, analytic, unmitigated, result, matrix = _sampled_run(opts)
    payload["analytic"] = analytic
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
    h_axis = opts.get("grid-h")
    k_axis = opts.get("grid-k")
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
    t_max = opts.get("t-max")
    # the total Hamiltonian's eigenvalues reach 4 r in magnitude, so every
    # evolution phase stays finite when 4 r t-max does
    if not (t_max > 0.0 and math.isfinite(4.0 * params.r * t_max)):
        raise ConfigError(f"t-max must be positive with 4 r t-max finite, got {t_max}")
    t_steps = opts.get("t-steps")
    if not 2 <= t_steps <= ROW_LIMIT:
        raise ConfigError(f"t-steps must be in [2, {ROW_LIMIT}], got {t_steps}")
    t_values = np.linspace(0.0, t_max, t_steps)
    rows = evolution_scan(params, t_values)
    return render_csv(EVOLUTION_COLUMNS, rows.T)


def cmd_report(opts: Options) -> str:
    params_list = opts.get("pairs")
    mode, shots, noise, method, seed, config = _sampling(opts)
    fmt = opts.get("format")
    rows = comparison_report(params_list, shots, seed, noise, method, mode)

    # the params field becomes the h and k columns
    header = ("h", "k", *ComparisonRow._fields[1:])
    table = [(r.params.h, r.params.k, *r._values()[1:]) for r in rows]
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
    head, analytic, unmitigated, mitigated, matrix = _sampled_run(opts)
    payload = {
        **head,
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
    for name, (about, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=about)
        for key, (text, cast, default) in options.items():
            if isinstance(cast, tuple):  # Mode's members join as their values
                text += ": " + ", ".join(cast)
            if default is not None and not callable(default):
                text += f" (default {default})"
            p.add_argument(f"--{key}", help=text)
        p.add_argument("--config", help="flat key = value config file")
    parser.subcommands = sub.choices
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
