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

import functools
import math
import os
import sys
from collections.abc import Callable, Sequence
from types import SimpleNamespace
from typing import Any, NoReturn

try:  # json's C escaper, imported without the json package
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

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
from .simcore import BITSTRINGS, NumericalError, np, shot_count

SCHEMA = "qet-report/1"
DEFAULT_SEED = 12345
DEFAULT_AXIS = "0.05:2:50"  # each sweep axis: 50 values from 0.05 to 2
# Most output rows (evolve time steps, sweep cells, points on one lo:hi:n axis)
# a run may ask for: each row is allocated and computed up front.
ROW_LIMIT = 10**6
_CSV_CELLS = 2**13  # cells per _fixed_point call: its int64 and float64 arrays stay within 64 KiB
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
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
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
    # a numpy scalar exists only once numpy is loaded, so only then is one looked for
    if sys.modules.get("numpy") is not None and isinstance(obj, (np.integer, np.floating)):
        return render_json(int(obj) if isinstance(obj, np.integer) else float(obj))
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def render_csv(header: Sequence[str], columns: Sequence[Sequence[Any]]) -> str:
    """CSV with LF line endings, a header row, and a trailing newline, from
    equally long columns. A column holds only strings, passed through, or
    only numbers, rendered as format_float renders them: by _fixed_point, a
    chunk of rows at a time, else in one printf-style pass over every cell, on
    Python values, as is any table with a text column."""
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    text = [n_rows > 0 and isinstance(column[0], str) for column in columns]
    head = ",".join(header) + "\n"
    if text and not any(text):
        numbers = np.asarray(columns, dtype=float).reshape(len(columns), n_rows)
        step = max(1, _CSV_CELLS // len(columns))
        chunks = [_fixed_point(numbers[:, i:i + step]) for i in range(0, n_rows, step)]
        if None not in chunks:
            return "".join([head, *chunks])
        columns = numbers.tolist()
    cells = [column if is_text else [0.0 if abs(x) <= HALF_UNIT else x for x in column]
             for column, is_text in zip(columns, text)]
    line = ",".join("%s" if is_text else "%.6f" for is_text in text) + "\n"
    return head + (line * n_rows) % tuple(cell for row in zip(*cells) for cell in row)


@functools.cache
def _text_slots() -> np.ndarray:
    """_fixed_point's NUL-padded 4-byte slots, as uint32: ".nnn", "nnn," and "nnn\n" by n,
    then from 3000 n as a leading group, "nnn", empty, and from the end back "-n"."""
    groups, leads = [f"{n:03d}" for n in range(1000)], [str(n) for n in range(1000)]
    texts = [*("." + n for n in groups), *(n + "," for n in groups), *(n + "\n" for n in groups),
             *leads, *groups, "", *("-" + n for n in reversed(leads))]
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), np.uint32)


def _fixed_point(numbers: np.ndarray) -> str | None:
    """The CSV rows of a (columns, rows) array as format_float prints them, or None if a
    cell is not finite or is 2^52 / 10^6 or more. %.6f rounds x 10^6 half to even, and
    y = fl(x 10^6) lies between the same half-integers (all doubles) or on one."""
    if not np.abs(numbers).max(initial=0.0) < 2.0**52 / 1e6:
        return None
    y = np.empty(numbers.shape[::-1])  # rows by columns, filled along contiguous columns
    rounded = np.rint(np.multiply(numbers, 1e6, out=y.T).T)
    if np.abs(np.subtract(y, rounded, out=y), out=y).max(initial=0.0) == 0.5:
        tie = y == 0.5  # y on a half-integer: %.6f's digits, once per value (sweep axes repeat)
        values, inverse = np.unique(numbers.T[tie], return_inverse=True)
        digits = [float(("%.6f" % x).replace(".", "")) for x in values.tolist()]
        rounded[tie] = np.array(digits)[inverse]
    # integers in the floats' memory, each text gathered once its indices are known
    scaled, whole = y.view(np.int64), rounded.view(np.int64)
    np.copyto(scaled, rounded, casting="unsafe")
    sign = scaled >> 63  # -1 where negative: ~n indexes n's slot with a minus sign
    np.abs(scaled, out=scaled)
    slots, n_groups = _text_slots(), (len(str(scaled.max(initial=0) // 10**6)) + 2) // 3
    texts = np.empty((*scaled.shape, n_groups + 2), np.uint32)
    thousandths = scaled // 1000
    low = np.subtract(scaled, np.multiply(thousandths, 1000, out=whole), out=scaled)
    low[:, -1] += 1000  # the last column ends its row
    slots[1000:].take(low, out=texts[..., -1], mode="wrap")
    np.floor_divide(thousandths, 1000, out=whole)
    mid = np.subtract(thousandths, np.multiply(whole, 1000, out=low), out=thousandths)
    slots.take(mid, out=texts[..., -2], mode="wrap")
    for j in range(n_groups):
        upto = np.floor_divide(whole, 1000**j, out=mid)
        index = np.bitwise_xor(upto, sign, out=low)
        if j < n_groups - 1:  # the top group leads, one below is full past a nonzero one
            np.copyto(index, upto % 1000 + 1000, where=upto >= 1000)
        if j:  # a group above the leading one is empty
            index[upto == 0] = 2000
        slots[3000:].take(index, out=texts[..., -3 - j], mode="wrap")
    return texts.tobytes().translate(None, b"\0").decode()


def read_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments are ignored."""
    from pathlib import Path

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

    def __init__(self, args: Any) -> None:
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
        lo, hi, n = float(parts[0]), float(parts[1]), _int_at_least(parts[2])
        # steps on a span within a factor 2 of the largest double can round past it
        if not math.isfinite(2.0 * (hi - lo)) or n > ROW_LIMIT:
            raise ValueError(spec)
        # np.linspace's arithmetic, in floats: i / div scales a step that underflows
        # (cmd_evolve states the same rule in arrays)
        div = max(n - 1, 1)
        step = (hi - lo) / div
        axis = [i * step + lo if step else i / div * (hi - lo) + lo for i in range(n)]
        return (*axis[:-1], hi) if n > 1 else tuple(axis)
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
def _couplings(default: float | None = None) -> dict[str, tuple]:
    return {"h": ("local field strength", float, default),
            "k": ("coupling strength", float, default)}


def _sampling_options(noise: str, mitigation: str, none_ok: bool = True) -> dict[str, tuple]:
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


_COMMON: dict[str, tuple] = {"out": ("also write the output to this file", str, None)}
# Each subcommand's help line and its options by flag name.
SUBCOMMANDS: dict[str, tuple[str, dict[str, tuple]]] = {
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
    # the h, k, V and H1 columns of every cell, [i_h, i_k] in row order, filled by broadcasting
    table = np.empty((4, len(h_axis), len(k_axis)))
    table[0], table[1] = np.array(grid.h_values)[:, None], grid.k_values
    table[2], table[3] = heatmap(grid)
    return render_csv(("h", "k", "V", "H1"), table.reshape(4, -1))


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
    # np.linspace(0, t-max, t-steps)'s bits in two array passes, by its arithmetic (which
    # parse_axis states in floats): a step that underflows scales i / div (numpy gh-5437)
    t_values, div = np.arange(float(t_steps)), t_steps - 1
    step = t_max / div
    t_values = t_values * step if step else t_values / div * t_max
    t_values[-1] = t_max
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
    call: parse_args keeps no state between calls. argparse is imported here,
    so a call that main reads directly loads none of it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:
            """Usage and message, exit 2, with invalid-choice subcommands quoted on every release."""
            head, tail, _ = message.rpartition(" (choose from ")
            if tail and head.startswith("argument command: invalid choice:"):
                message = f"{head}{tail}{', '.join(map(repr, self.subcommands))})"
            super().error(message)

    parser = _Parser(
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


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """argv's namespace as the full parser gives it when argv is a subcommand
    followed only by --key value pairs, each key one of its options or config
    and no value starting with "-"; else None. A repeated key keeps its last value."""
    if not argv or argv[0] not in SUBCOMMANDS or len(argv) % 2 == 0:
        return None
    values = dict.fromkeys([*SUBCOMMANDS[argv[0]][1], "config"])
    for flag, value in zip(argv[1::2], argv[2::2]):
        if not (flag[:2] == "--" and flag[2:] in values) or value[:1] == "-":
            return None
        values[flag[2:]] = value
    return SimpleNamespace(command=argv[0], **{k.replace("-", "_"): v for k, v in values.items()})


def main(argv: Sequence[str] | None = None) -> int:
    """Run one qet call on argv (default sys.argv[1:]); return its exit code.
    A subcommand followed only by --key value pairs of its own options is read
    directly; every other argv goes to the full parser, which prints its own
    usage, help or error."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _plain_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = Options(args)
        text = _COMMANDS[args.command](opts)
        out = opts.raw("out")
        if out is not None:
            from pathlib import Path

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
