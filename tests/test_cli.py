"""Command-line interface: serialization stability, config handling, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qetsim import cli
from qetsim.analysis import SweepGrid, heatmap, mitigated_run
from qetsim.cli import (
    DEFAULT_AXIS,
    ROW_LIMIT,
    build_parser,
    format_float,
    main,
    parse_axis,
    parse_noise,
    render_csv,
    render_json,
)
from qetsim.model import ModelParams
from qetsim.noise import PRESETS
from qetsim.protocol import Mode

RUN_ARGS = ["run", "--h", "1", "--k", "1", "--target", "V", "--shots", "2000", "--seed", "7"]


def invoke(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_format_float_fixed_point():
    assert format_float(-0.3746408196) == "-0.374641"
    assert format_float(0.0) == "0.000000"
    assert format_float(-0.0) == "0.000000"
    assert format_float(-1e-9) == "0.000000"
    assert format_float(2.0) == "2.000000"


def test_format_float_parse_back():
    rng = np.random.default_rng(4)
    for x in rng.uniform(-2, 2, size=200):
        assert abs(float(format_float(x)) - x) <= 5e-7


def test_render_json_deterministic_shape():
    text = render_json({"a": 1, "b": [0.5, None, True], "c": "x"})
    assert json.loads(text) == {"a": 1, "b": [0.5, None, True], "c": "x"}


def test_render_json_non_finite_floats_are_null():
    for x in (math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(-math.inf)):
        assert render_json(x) == "null"
    assert render_json({"a": [math.nan, math.inf, -math.inf]}) == (
        '{\n  "a": [\n    null,\n    null,\n    null\n  ]\n}'
    )


def test_render_json_empty_containers_render_as_themselves():
    assert render_json({}) == "{}"
    assert render_json([]) == "[]"
    assert render_json(()) == "[]"
    assert render_json({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}'
    assert render_json([{}, []]) == "[\n  {},\n  []\n]"


@pytest.mark.parametrize("value", [{1, 2}, b"x", 1j, object()],
                         ids=["set", "bytes", "complex", "object"])
def test_render_json_rejects_unsupported_types(value):
    with pytest.raises(TypeError, match=f"cannot render {type(value).__name__} as JSON"):
        render_json({"a": [value]})


# a run-shaped payload as source text, so that a child interpreter builds it too
RUN_PAYLOAD = """{
    "schema": "qet-report/1", "command": "run",
    "config": {"h": 1.0, "k": 0.5, "target": "E1", "mode": "deferred", "shots": 2000,
               "seed": 2**128 - 1, "noise": "lima-like", "mitigation": "direct"},
    "analytic": -0.0534, "measurement_fidelity": 0.9837,
    "unmitigated": {"mean": -1e-9, "std_error": 0.0123456789, "n_shots": 2000},
    "estimate": {"mean": float("nan"), "std_error": float("inf"), "n_shots": 2000},
    "deviation_sigma": None,
    "components": {"H1": {"mean": 0.25, "std_error": 0.0, "n_shots": 1000},
                   "V": {"mean": -0.3, "std_error": 1e-300, "n_shots": 1000}},
    "counts": {"00": 1000, "01": 0, "10": 999, "11": 1}, "flags": [True, False, (), {}, []],
}"""


def test_render_json_loads_no_numpy():
    # numpy scalars are looked for only once numpy is loaded: with numpy
    # unimportable a child renders the payload's bytes, and numpy's own
    # integers and floats render as int and fixed-point
    code = ("import sys; sys.modules['numpy'] = None\nfrom qetsim.cli import render_json\n"
            f"sys.stdout.write(render_json({RUN_PAYLOAD}))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == render_json(eval(RUN_PAYLOAD))
    numbers = [np.int64(-3), np.uint8(7), np.float64(0.25), np.float32(-0.5), np.float64(np.nan)]
    assert render_json(numbers) == "[\n  -3,\n  7,\n  0.250000,\n  -0.500000,\n  null\n]"


# quotes, backslashes, control characters, the line separators JavaScript
# rejects in strings, non-BMP characters and lone surrogates
JSON_SPECIALS = '"\\/\x00\x08\x1f\x7f\x80\u2028\U0001f600\U0010ffff\ud800\udfff'
JSON_TEXT = st.text(st.sampled_from(JSON_SPECIALS) | st.characters(exclude_categories=()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(JSON_TEXT)
@example(JSON_SPECIALS)
def test_render_json_quotes_strings_as_json_dumps(text):
    assert render_json(text) == json.dumps(text)
    assert render_json({text: 1}) == "{\n  " + json.dumps(text) + ": 1\n}"


# render_json's bytes for quoted, escaped, non-BMP, surrogate and str-Enum keys and
# values, as the json-escaped renderer printed them
NESTED_PAYLOAD = {
    "": ['"', "\\", {"\x00": "\x1f", "\x7f": None}],
    "\u00e9": {"\U0001d11e": "\ud800", Mode.DEFERRED: Mode.CONDITIONAL},
    "plain": ["schema/1", 1.5, 2, True, []],
}
NESTED_JSON = r"""{
  "": [
    "\"",
    "\\",
    {
      "\u0000": "\u001f",
      "\u007f": null
    }
  ],
  "\u00e9": {
    "\ud834\udd1e": "\ud800",
    "Mode.DEFERRED": "conditional"
  },
  "plain": [
    "schema/1",
    1.500000,
    2,
    true,
    []
  ]
}"""


def test_render_json_nested_payload_is_pinned():
    assert render_json(NESTED_PAYLOAD) == NESTED_JSON


def test_render_csv_line_endings():
    text = render_csv(("a", "b"), [("x",), (1.5,)])
    assert text == "a,b\nx,1.500000\n"
    assert "\r" not in text
    with pytest.raises(ValueError):
        render_csv(("a", "b"), [("x", "y"), (1.5,)])


@pytest.mark.parametrize("columns", [
    [("x", "y"), (1.5,)], [("x", "y", "z"), (1.5,), ("a", "b")],
    [(1.0, 2.0), (1.5,)], [(1.0, 2.0, 3.0), (1.5,), (0.5, 2.5)],
], ids=["text-2", "text-3", "numeric-2", "numeric-3"])
def test_render_csv_refuses_ragged_columns(columns):
    # rows are cut from the columns together, so a short column would cut the table short
    lengths = sorted({len(column) for column in columns})
    with pytest.raises(ValueError, match=re.escape(f"columns differ in length: {lengths}")):
        render_csv([f"c{j}" for j in range(len(columns))], columns)


def render_csv_per_cell(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else format_float(c) for c in row))
    return "\n".join(lines) + "\n"


CSV_NUMBERS = (
    st.sampled_from(
        (-0.0, -1e-9, -4.9999995e-7, -5e-7, 5e-7, math.nan, math.inf, -math.inf, 1e300)
    )
    | st.floats()
    | st.floats().map(np.float64)
    | st.integers(-(2**63), 2**63)
)
# numbers the vectorized pass takes, up to about 1e9: multiples of 2^-6, which
# have six decimals, the doubles nearest six-decimal numbers, and those nearest
# the ties halfway between them (as drawn sweep axes hold), whose digits come
# from %.6f itself
CSV_FIXED = (st.integers(-(2**36), 2**36).map(lambda n: n / 2**6)
             | st.integers(-(10**15), 10**15).map(lambda n: n / 10**6)
             | st.integers(-(10**15), 10**15).map(lambda n: (n + 0.5) / 10**6))
# strings near the numbers' own text, so that a rule meant for numeric cells
# would have string cells to corrupt
CSV_STRINGS = st.just("-0.000000") | st.text(alphabet="-0.1e,nai\n")


def with_columns(header, rows):
    """The table as the reference reads it (rows) and as render_csv does."""
    return header, rows, [[row[j] for row in rows] for j in range(len(header))]


def array_table(*rows):
    """An all-numeric table as cmd_evolve passes it: the columns of a float array."""
    array = np.array(rows, dtype=float)
    return tuple(f"c{j}" for j in range(array.shape[1])), list(map(tuple, array)), array.T


@st.composite
def csv_tables(draw):
    # every column holds only strings or only numbers; half the tables hold
    # only numbers the vectorized pass takes
    palette = draw(st.sampled_from(((CSV_STRINGS, CSV_NUMBERS, CSV_FIXED), (CSV_FIXED,))))
    kinds = draw(st.lists(st.sampled_from(palette), min_size=1, max_size=5))
    rows = draw(st.lists(st.tuples(*kinds), max_size=8))
    header = tuple(f"c{i}" for i in range(len(kinds)))
    if CSV_STRINGS not in kinds and draw(st.booleans()):
        # the shapes cmd_evolve passes, the columns of a float array, and
        # with an object array of strings before them
        array = np.array(rows, dtype=float).reshape(len(rows), len(kinds))
        if draw(st.booleans()):
            return header, list(map(tuple, array)), array.T
        labels = draw(st.lists(CSV_STRINGS, min_size=len(rows), max_size=len(rows)))
        rows = [(label, *row) for label, row in zip(labels, array)]
        return ("s", *header), rows, [np.array(labels, dtype=object), *array.T]
    return with_columns(header, rows)


TIE = 0.0078125  # 7812.5 millionths: %.6f rounds it half to even
FIXED_BOUND = 2**52 / 1e6  # from here on the vectorized pass refuses a cell


@settings(max_examples=200, deadline=None, derandomize=True)
@given(csv_tables())
@example(with_columns(("s", "x"), []))
@example(
    with_columns(("s", "x"), [("-0.000000", -0.0), ("-0.0000001", -4.9999995e-7), ("x", -5e-7)])
)
@example((("a", "b"), [], np.empty((2, 0))))
@example(array_table([TIE, 1.0], [-TIE, 1.0]))
# doubles nearest decimal ties: x 10^6 rounds to the tie, and rint would round
# it otherwise than %.6f
@example(array_table([2.5e-6, -2.5e-6], [4.5e-6, 1.25e-5], [123.4567895, 1000.0000005]))
@example(array_table(*[[np.nextafter(s * TIE, s * t), 1.0] for s in (1, -1) for t in (0, 1)]))
@example(array_table([np.nextafter(FIXED_BOUND, 0), 1.0], [-np.nextafter(FIXED_BOUND, 0), 1.0]))
@example(array_table([FIXED_BOUND, 1.0], [-FIXED_BOUND, 1.0]))
# integer parts of 1 to 10 digits, at each end of their width
@example(array_table(*[[10**d + 0.25, -(10**d - 0.75)] for d in range(10)]))
@example(array_table([-5.000001e-7, 1.0]))
# cells that print as an unsigned zero, which the vectorized pass takes unzeroed
@example(array_table([-1e-9, -4.9999995e-7], [-0.0, -5e-7], [-1e-300, 5e-7]))
# one cell the vectorized pass refuses in a table it would take
@example(array_table([1.5, 2.0], [math.nan, 0.25]))
@example(array_table([1.5, 2.0], [math.inf, 0.25]))
@example(array_table([1.5, 2.0], [-math.inf, 0.25]))
@example(array_table([1.5, 2.0], [2.0**63, 0.25]))
def test_render_csv_matches_per_cell_rendering(table):
    header, rows, columns = table
    assert render_csv(header, columns) == render_csv_per_cell(header, rows)


@pytest.fixture
def fixed_point_results(monkeypatch):
    """What each cli._fixed_point call returns: None sends the table to the
    printf-style pass."""
    results, fixed_point = [], cli._fixed_point

    def recorded(numbers):
        results.append(fixed_point(numbers))
        return results[-1]

    monkeypatch.setattr(cli, "_fixed_point", recorded)
    return results


def test_render_csv_in_chunks(monkeypatch, fixed_point_results):
    # each chunk of 9 cells (3 rows) takes the vectorized pass; a cell refused in
    # the last chunk sends the whole table to the printf-style pass
    monkeypatch.setattr(cli, "_CSV_CELLS", 9)
    header, rows = ("a", "b", "c"), [(i / 8, -i * 1e-3, 1000.0 * i) for i in range(10)]
    assert render_csv(header, list(zip(*rows))) == render_csv_per_cell(header, rows)
    assert len(fixed_point_results) == 4 and None not in fixed_point_results
    rows[-1] = (math.inf, 0.0, 0.0)
    assert render_csv(header, list(zip(*rows))) == render_csv_per_cell(header, rows)
    assert fixed_point_results[-1] is None


def test_render_csv_footprint():
    # chunks of at most _CSV_CELLS cells, whose arrays are reused as they go, keep
    # the traced peak of rendering the default sweep's 10,000 cells to 624 KiB
    # (numpy 2.4.6, Python 3.11.7); the table in one chunk takes 744 KiB
    grid = SweepGrid(parse_axis(DEFAULT_AXIS), parse_axis(DEFAULT_AXIS))
    v_map, h1_map = heatmap(grid)
    n = len(grid.h_values)
    table = (np.repeat(grid.h_values, n), np.tile(grid.k_values, n), v_map.ravel(), h1_map.ravel())
    render_csv(("h", "k", "V", "H1"), table)  # the slot table is built on first use
    tracemalloc.start()
    try:
        render_csv(("h", "k", "V", "H1"), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 700 * 1024


@pytest.mark.parametrize("argv", [["sweep"], ["evolve", "--h", "1", "--k", "0.5"]])
def test_sweep_and_evolve_take_the_vectorized_pass(capsys, fixed_point_results, argv):
    # their pinned outputs hold no cell the vectorized pass refuses
    assert invoke(capsys, argv)[0] == 0
    assert fixed_point_results and None not in fixed_point_results


def test_parse_noise_forms():
    assert parse_noise("none") is None
    assert parse_noise("lima-like").read1_given0 == (0.0196, 0.0130)
    sym = parse_noise("0.1,0.2")
    assert sym.read1_given0 == (0.1, 0.2) and sym.read0_given1 == (0.1, 0.2)
    full = parse_noise("0.01,0.02,0.03,0.04")
    assert full.read1_given0 == (0.01, 0.03) and full.read0_given1 == (0.02, 0.04)
    with pytest.raises(ValueError):
        parse_noise("0.1,0.2,0.3")
    with pytest.raises(ValueError):
        parse_noise("mystery-device")


def test_parse_axis_forms():
    assert parse_axis("1.5") == (1.5,)
    axis = parse_axis("0.5:1.5:3")
    assert axis == (0.5, 1.0, 1.5)
    # a span that is not finite is refused, and so is one whose step multiples
    # can overflow, as on 1:1.8e308:1000
    for bad in ("1:2", "inf:-inf:2", "nan:1:2", "-1e308:1e308:3", "1:1.7976931348623157e308:1000"):
        with pytest.raises(ValueError):
            parse_axis(bad)
    assert len(parse_axis(f"0:1:{ROW_LIMIT}")) == ROW_LIMIT
    for n in (ROW_LIMIT + 1, 10**30):
        with pytest.raises(ValueError):
            parse_axis(f"0:1:{n}")


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _axis_ranges(draw):
    # spans of every size: equal ends, a subnormal step, descending, 1e+-300
    lo = draw(FINITE)
    hi = draw(st.one_of(FINITE, st.just(lo), st.just(-lo),
                        st.floats(-1e-300, 1e-300).map(lambda d: lo + d)))
    return lo, hi, draw(st.integers(1, 40) | st.integers(1, 3000))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_axis_ranges())
@example((0.0, -0.0, 1))
@example((-0.0, 5e-324, 4))
@example((1e-310, 1.5e-310, 7))
def test_parse_axis_equals_linspace(axis_range):
    # parse_axis builds a range in floats so that a refused sweep loads no
    # numpy; every bit, signed zeros included, must be np.linspace's
    lo, hi, n = axis_range
    if not math.isfinite(2.0 * (hi - lo)):
        with pytest.raises(ValueError):
            parse_axis(f"{lo!r}:{hi!r}:{n}")
        return
    got = parse_axis(f"{lo!r}:{hi!r}:{n}")
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == np.linspace(lo, hi, n).tobytes()


def evolve_axis(monkeypatch, t_max: float, n: int) -> np.ndarray:
    """The time axis cmd_evolve hands evolution_scan, which stops the call there."""
    axes = []

    def recorded(params, t_values):
        axes.append(t_values)
        raise cli.NumericalError("stop")

    monkeypatch.setattr(cli, "evolution_scan", recorded)
    assert main(["evolve", "--h", "1", "--k", "1", f"--t-max={t_max!r}", f"--t-steps={n}"]) == 3
    return axes[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(t_max=st.floats(0.0, 1e300, exclude_min=True), n=st.integers(2, 3000))
@example(t_max=1.0, n=2)
@example(t_max=2 * math.pi, n=ROW_LIMIT)
@example(t_max=5e-324, n=3)  # the step underflows to 0
@example(t_max=1e-320, n=10**4)
@example(t_max=1e300, n=101)
def test_evolve_axis_equals_linspace(t_max, n):
    # cmd_evolve takes np.linspace's arithmetic in two array passes; every bit
    # must be linspace's, where the step underflows too
    with pytest.MonkeyPatch.context() as monkeypatch:
        axis = evolve_axis(monkeypatch, t_max, n)
    assert axis.dtype == np.float64 and axis.tobytes() == np.linspace(0.0, t_max, n).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(*[CSV_FIXED | CSV_NUMBERS] * 4), max_size=12))
@example([(1.5, -0.25, 2.0, 1e-7), (math.nan, 0.5, -math.inf, 3.0)])
def test_render_csv_takes_an_array_as_its_columns(rows):
    # cmd_sweep passes one (4, n) float array and cmd_evolve its transpose, which
    # render_csv reads uncopied; either prints what the same columns print as
    # tuples, in either pass
    array = np.array(rows, dtype=float).reshape(len(rows), 4).T
    header, columns = ("h", "k", "V", "H1"), tuple(map(tuple, array.tolist()))
    for block in (np.ascontiguousarray(array), array):
        assert render_csv(header, block) == render_csv(header, columns)


def test_run_reports_analytic_value(capsys):
    code, out = invoke(capsys, RUN_ARGS)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "qet-report/1"
    assert payload["analytic"] == pytest.approx(-0.374641)
    assert payload["config"]["target"] == "V"
    assert payload["estimate"]["n_shots"] == 2000
    assert list(payload["counts"]) == ["00", "01", "10", "11"]
    assert sum(payload["counts"].values()) == 2000


# the second seed needs four 32-bit entropy words
@pytest.mark.parametrize("argv", [
    RUN_ARGS,
    ["run", "--target", "E1", "--h", "1", "--k", "1", "--shots", "1000", "--noise", "lima-like",
     "--mitigation", "direct", "--seed", str(2**128 - 1)],
], ids=["V", "E1-seed-2^128-1"])
def test_run_byte_identical_reruns(capsys, tmp_path, argv):
    code, first = invoke(capsys, argv)
    assert code == 0 and json.loads(first)["config"]["seed"] == int(argv[-1])
    _, second = invoke(capsys, argv)
    assert first == second
    out_file = tmp_path / "run.json"
    code, streamed = invoke(capsys, argv + ["--out", str(out_file)])
    assert code == 0
    assert out_file.read_text() == streamed == first


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_a_config_error(capsys, tmp_path, source, target):
    out = tmp_path / "absent" / "x.csv" if target == "missing-dir" else tmp_path
    argv = ["sweep", "--grid-h", "1", "--grid-k", "1"]
    if source == "flag":
        argv += ["--out", str(out)]
    else:
        cfg = tmp_path / "out.cfg"
        cfg.write_text(f"out = {out}\n")
        argv += ["--config", str(cfg)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: cannot write output file {out}: ")


def test_run_composite_target(capsys):
    code, out = invoke(capsys, ["run", "--h", "1", "--k", "0.5", "--target", "E1",
                                "--shots", "1000", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] is None
    parts = payload["components"]
    assert set(parts) == {"H1", "V"}
    total = parts["H1"]["mean"] + parts["V"]["mean"]
    assert payload["estimate"]["mean"] == pytest.approx(total, abs=2e-6)


def test_run_mitigation_block(capsys):
    code, out = invoke(capsys, ["run", "--h", "1", "--k", "1", "--target", "V",
                                "--shots", "2000", "--seed", "7",
                                "--noise", "lima-like", "--mitigation", "least-squares"])
    assert code == 0
    payload = json.loads(out)
    assert 0.9 < payload["measurement_fidelity"] < 1.0
    assert payload["unmitigated"]["mean"] != payload["estimate"]["mean"]


def test_run_mitigated_composite_keeps_components(capsys):
    code, out = invoke(capsys, ["run", "--h", "1", "--k", "1", "--target", "E1",
                                "--shots", "2000", "--seed", "7",
                                "--noise", "lima-like", "--mitigation", "least-squares"])
    assert code == 0
    payload = json.loads(out)
    parts = payload["components"]
    assert set(parts) == {"H1", "V"}
    total = parts["H1"]["mean"] + parts["V"]["mean"]
    assert payload["estimate"]["mean"] == pytest.approx(total, abs=2e-6)
    assert payload["counts"] is None


READOUTS = {
    "clean": [],
    "noisy": ["--noise", "lima-like"],
    "least-squares": ["--noise", "lima-like", "--mitigation", "least-squares"],
    "direct": ["--noise", "jakarta-like", "--mitigation", "direct"],
}


@pytest.mark.parametrize("shots", [2**53 + 1, 2**63 - 1])
@pytest.mark.parametrize("target", ["V", "E1"])
@pytest.mark.parametrize("readout", READOUTS.values(), ids=READOUTS.keys())
def test_run_prints_exact_shot_counts(capsys, shots, target, readout):
    # past 2**53 a float total of the tallies is no longer the shot count
    code, out = invoke(capsys, ["run", "--target", target, "--h", "1", "--k", "1",
                                "--shots", str(shots), "--seed", "1", *readout])
    assert code == 0
    payload = json.loads(out)
    total = 2 * shots if target == "E1" else shots
    assert payload["estimate"]["n_shots"] == total
    if "unmitigated" in payload:
        assert payload["unmitigated"]["n_shots"] == total
    for part in (payload.get("components") or {}).values():
        assert part["n_shots"] == shots


@pytest.mark.parametrize("shots", [2**53 + 1, 2**63 - 1])
def test_mitigate_demo_prints_exact_shot_counts(capsys, shots):
    code, out = invoke(capsys, ["mitigate-demo", "--shots", str(shots), "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["unmitigated"]["n_shots"] == payload["mitigated"]["n_shots"] == shots


def test_run_validation_failures(capsys):
    assert main(["run", "--h", "1", "--k", "1", "--target", "V", "--shots", "0"]) == 2
    assert main(["run", "--k", "1", "--target", "V"]) == 2
    assert main(["run", "--h", "-1", "--k", "1", "--target", "V"]) == 2
    assert main(["run", "--h", "1", "--k", "1", "--target", "Q"]) == 2
    assert main(["run", "--h", "1", "--k", "1", "--target", "V", "--mode", "sideways"]) == 2
    assert main(["run", "--h", "1", "--k", "1", "--target", "V", "--noise", "0.1,0.2,0.3"]) == 2
    assert main(["run", "--h", "1", "--k", "1", "--target", "V",
                 "--noise", "lima-like", "--mitigation", "sorcery"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--h", "--k"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e300"])
def test_run_rejects_unrepresentable_couplings(capsys, flag, value):
    couplings = {"--h": "1", "--k": "1", flag: value}
    argv = ["run", "--target", "V", *(f"{f}={v}" for f, v in couplings.items())]
    assert invoke(capsys, argv) == (2, "")


def test_run_numerical_failure_exit_code(capsys):
    # one-shot calibration under half-random readout collides two columns
    code = main(["run", "--h", "1", "--k", "1", "--target", "V", "--shots", "1",
                 "--noise", "0.5,0.5", "--mitigation", "direct", "--seed", "0"])
    assert code == 3
    capsys.readouterr()


def test_seed_precedence(capsys, monkeypatch):
    _, flagged = invoke(capsys, RUN_ARGS)
    monkeypatch.setenv("QET_SEED", "7")
    _, from_env = invoke(capsys, RUN_ARGS[:-2])
    assert from_env == flagged
    monkeypatch.setenv("QET_SEED", "99")
    _, flag_wins = invoke(capsys, RUN_ARGS)
    assert flag_wins == flagged
    _, env_wins = invoke(capsys, RUN_ARGS[:-2])
    assert env_wins != flagged
    # an empty QET_SEED counts as unset
    monkeypatch.setenv("QET_SEED", "")
    assert invoke(capsys, RUN_ARGS[:-2]) == invoke(capsys, [*RUN_ARGS[:-2], "--seed", "12345"])


@pytest.mark.parametrize("command", ["run", "report"])
@pytest.mark.parametrize("source", ["flag", "file", "env"])
def test_negative_seed_is_a_config_error(capsys, tmp_path, monkeypatch, command, source):
    argv = {"run": RUN_ARGS[:-2], "report": ["report", "--shots", "100"]}[command]
    if source == "flag":
        argv = argv + ["--seed", "-1"]
    elif source == "file":
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -1\n")
        argv = argv + ["--config", str(cfg)]
    else:
        monkeypatch.setenv("QET_SEED", "-4")
    assert invoke(capsys, argv) == (2, "")


@pytest.mark.parametrize("command", ["run", "report", "mitigate-demo"])
@pytest.mark.parametrize("shots", [str(2**63), "100000000000000000000"])
def test_shots_past_int64_are_a_config_error(capsys, command, shots):
    argv = {"run": RUN_ARGS[:-4], "report": ["report"], "mitigate-demo": ["mitigate-demo"]}
    assert invoke(capsys, argv[command] + ["--shots", shots]) == (2, "")


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("h = 1\nk = 1\n# experiment defaults\ntarget = V\nshots = 2000\nseed = 7\n")
    _, flagged = invoke(capsys, RUN_ARGS)
    _, from_file = invoke(capsys, ["run", "--config", str(cfg)])
    assert from_file == flagged
    _, overridden = invoke(capsys, ["run", "--config", str(cfg), "--target", "H1"])
    assert json.loads(overridden)["config"]["target"] == "H1"


def test_config_file_errors(capsys, tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("h 1\n")
    assert main(["run", "--config", str(bad)]) == 2
    # an empty value is an error for the seed as for any other option
    empty_seed = tmp_path / "empty-seed.cfg"
    empty_seed.write_text("seed =\n")
    assert invoke(capsys, RUN_ARGS[:-2] + ["--config", str(empty_seed)]) == (2, "")
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["1", "1:", ":1", "1:2:3"])
def test_malformed_pairs_are_a_config_error(capsys, spec):
    code = main(["report", "--pairs", spec, "--shots", "10"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: invalid value for --pairs: {spec!r}\n"


@pytest.mark.parametrize(
    "argv, typo",
    [(["run"], "shot = 10"), (["sweep"], "grid_h = 1"), (["run"], "config = inner.cfg")],
    ids=["run", "sweep", "nested-config"],
)
def test_unknown_config_key_is_a_config_error(capsys, tmp_path, argv, typo):
    # a misspelt key would otherwise fall back to its default: 100,000 shots,
    # or the full 50 x 50 grid; a file names no further file
    (tmp_path / "inner.cfg").write_text("shots = 10\n")
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(f"h = 1\nk = 1\ntarget = V\n{typo}\n")
    code = main(argv + ["--config", str(cfg)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {cfg}: unknown key {typo.split()[0]!r}\n"


def test_config_file_serves_every_subcommand(capsys, tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("h = 1\nk = 1\ntarget = V\nshots = 2000\nseed = 7\ngrid-h = 1\ngrid-k = 1\n")
    _, flagged = invoke(capsys, RUN_ARGS)
    assert invoke(capsys, ["run", "--config", str(cfg)]) == (0, flagged)
    assert invoke(capsys, ["sweep", "--config", str(cfg)]) == (
        0, "h,k,V,H1\n1.000000,1.000000,-0.374641,0.259893\n"
    )


@pytest.mark.parametrize(
    "h, k, row",
    [
        ("1", "1", "1.000000,1.000000,-0.374641,0.259893"),
        # V lies 7e-14 from a rounding boundary
        ("0.1", "1000", "0.100000,1000.000000,-0.000007,0.000005"),
        # V = -1.0e-8 prints without a sign
        ("2", "0.0001", "2.000000,0.000100,0.000000,0.000000"),
    ],
)
def test_sweep_single_cell(capsys, h, k, row):
    code, out = invoke(capsys, ["sweep", "--grid-h", h, "--grid-k", k])
    assert code == 0
    assert out == f"h,k,V,H1\n{row}\n"


def test_sweep_row_ordering(capsys):
    code, out = invoke(capsys, ["sweep", "--grid-h", "0.5:1:2", "--grid-k", "0.1:0.2:2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    firsts = [line.split(",")[0] for line in lines[1:]]
    assert firsts == ["0.500000", "0.500000", "1.000000", "1.000000"]
    assert main(["sweep", "--grid-h", "0:1:2"]) == 2
    capsys.readouterr()


def test_evolve_output(capsys):
    code, out = invoke(capsys, ["evolve", "--h", "1", "--k", "1",
                                "--t-max", "0.7853981633974483", "--t-steps", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,h1_sim,h1_closed,v_sim"
    assert lines[1] == "0.000000,0.000000,0.000000,0.000000"
    assert lines[3].startswith("0.785398,0.707107,0.707107,")
    assert main(["evolve", "--h", "1", "--k", "1", "--t-steps", "1"]) == 2
    assert main(["evolve", "--h", "1", "--k", "1", "--t-max", "-2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "h,k", [(1e25, 1e50), (1, 1e-25), (1e5, 1e14), (1e154, 1e153), (1e8, 1e8), (1e5, 1), (1e3, 1e-5)]
)
def test_evolve_rejects_unresolved_couplings(capsys, h, k):
    # rounding past the printed half unit would print noise as digits: in
    # h1_sim when its swing h^2/r is large (1e8:1e8, 1e5:1, 1e3:1e-5) or its
    # 4k oscillation is lost (1:1e-25), and in v_sim, which is 0 exactly, when
    # k is large
    assert main(["evolve", f"--h={h}", f"--k={k}", "--t-steps=4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "rounding reaches" in captured.err


@pytest.mark.parametrize("target", ["E0", "H1", "V", "E1"])
def test_run_mitigates_only_a_noisy_readout(capsys, target):
    argv = ["run", "--target", target, "--h", "1", "--k", "0.5", "--shots", "2000", "--seed", "7"]
    plain = json.loads(invoke(capsys, argv)[1])
    # without a noise model a mitigation method changes nothing but the config
    for method in ("direct", "least-squares"):
        code, out = invoke(capsys, [*argv, "--noise", "none", "--mitigation", method])
        payload = json.loads(out)
        assert code == 0 and payload["config"]["mitigation"] == method
        assert payload.keys() == plain.keys()  # no measurement_fidelity or unmitigated
        for key in ("estimate", "deviation_sigma", "counts"):
            assert payload[key] == plain[key]
    # --mitigation none prints the noisy run itself, with no calibration, and
    # a rerun prints the same bytes
    noisy_argv = [*argv, "--noise", "lima-like", "--mitigation", "none"]
    code, out = invoke(capsys, noisy_argv)
    payload = json.loads(out)
    assert code == 0 and payload.keys() == plain.keys()
    assert invoke(capsys, noisy_argv) == (code, out)
    _, noisy, matrix = mitigated_run(
        ModelParams(1, 0.5), target, Mode.DEFERRED, 2000, 7, PRESETS["lima-like"], None
    )
    assert matrix is None
    assert payload["estimate"]["mean"] == pytest.approx(noisy.mean, abs=5e-7)
    if target != "E1":
        assert payload["counts"] == noisy.raw_counts
        assert all(type(n) is int for n in payload["counts"].values())


@pytest.mark.parametrize("t_max", ["inf", "nan", "1e308"])
def test_evolve_rejects_unrepresentable_t_max(capsys, t_max):
    assert invoke(capsys, ["evolve", "--h", "1", "--k", "1", f"--t-max={t_max}"]) == (2, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--h", "1", "--k", "1", f"--t-steps={ROW_LIMIT + 1}"],
        ["evolve", "--h", "1", "--k", "1", f"--t-steps={10**30}"],
        ["sweep", f"--grid-h=0.1:1:{ROW_LIMIT + 1}"],
        ["sweep", "--grid-h=1", f"--grid-k=0.1:1:{10**30}"],
        ["sweep", "--grid-h=0.1:1:1001", "--grid-k=0.1:1:1000"],
    ],
    ids=["t-steps", "t-steps-huge", "grid-h", "grid-k-huge", "cells"],
)
def test_rows_past_the_limit_are_a_config_error(capsys, argv):
    assert invoke(capsys, argv) == (2, "")


def test_report_columns_collapse_without_noise(capsys):
    code, out = invoke(capsys, ["report", "--pairs", "1:1", "--shots", "2000",
                                "--seed", "5", "--noise", "none", "--mitigation", "none"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("h,k,quantity,analytic,noiseless,noiseless_err,"
                        "unmitigated,unmitigated_err,mitigated,mitigated_err")
    assert len(lines) == 5
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[4:6] == cells[6:8] == cells[8:10]
    v_cells = lines[3].split(",")
    assert v_cells[2] == "V" and v_cells[3] == "-0.374641"


def test_report_json_format(capsys):
    code, out = invoke(capsys, ["report", "--pairs", "1:0.5", "--shots", "1000",
                                "--seed", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "qet-report/1"
    assert [row["quantity"] for row in payload["rows"]] == ["E0", "H1", "V", "E1"]


def test_report_default_pairs(capsys):
    code, out = invoke(capsys, ["report", "--shots", "200", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17
    pair_cells = {(line.split(",")[0], line.split(",")[1]) for line in lines[1:]}
    assert pair_cells == {
        ("1.000000", "0.200000"), ("1.000000", "0.500000"),
        ("1.000000", "1.000000"), ("1.500000", "1.000000"),
    }


def test_mitigate_demo_output(capsys):
    code, out = invoke(capsys, ["mitigate-demo", "--shots", "2000", "--seed", "9"])
    assert code == 0
    payload = json.loads(out)
    matrix = payload["calibration_matrix"]
    assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
    for j in range(4):
        assert sum(matrix[i][j] for i in range(4)) == pytest.approx(1.0, abs=2e-6)
    assert payload["config"]["noise"] == "lima-like"
    assert 0.9 < payload["measurement_fidelity"] < 1.0
    assert payload["analytic"] == pytest.approx(-0.374641)
    assert main(["mitigate-demo", "--noise", "none"]) == 2
    capsys.readouterr()


# ordinary option values (None leaves the option out) and values at and past
# the edges of each accepted domain
EDGE_NUMBERS = ("inf", "-inf", "nan", "0", "-0.0", "1e-320", "1e-160", "1e300", "-1")
EDGE_COUNTS = ("-1", "0", str(2**63 - 1), str(2**63), "1e300", "nan", "1.5")
ORDINARY_OPTIONS = {
    "h": st.sampled_from(("1", "0.4", "1.7")),
    "k": st.sampled_from(("1", "0.4", "1.7")),
    "t-max": st.sampled_from((None, "0.5", "3")),
    "shots": st.sampled_from((None, "1", "7", "2000")),
    "seed": st.sampled_from((None, "0", "12")),
    "noise": st.sampled_from((None, "none", "lima-like", "0.02,0.03")),
    "target": st.sampled_from(("E0", "H1", "V", "E1")),
    "mode": st.sampled_from((None, "conditional", "deferred")),
    "mitigation": st.sampled_from((None, "none", "direct", "least-squares")),
}
EDGE_OPTIONS = {
    "h": st.sampled_from(EDGE_NUMBERS) | st.floats().map(repr),
    "k": st.sampled_from(EDGE_NUMBERS) | st.floats().map(repr),
    "t-max": st.sampled_from(EDGE_NUMBERS) | st.floats().map(repr),
    "shots": st.sampled_from(EDGE_COUNTS) | st.integers(-2, 2**64).map(str),
    "seed": st.sampled_from(EDGE_COUNTS) | st.integers(-2, 2**70).map(str),
    "noise": st.sampled_from(
        ("0.5,0.5", "0,0", "1,0", "inf,0", "nan,0.1", "-0.0,1e-320", "0.01,0.02,0.03", "bogus")
    ) | st.lists(st.floats(-0.1, 1.1).map(repr), min_size=2, max_size=4).map(",".join),
    "target": st.sampled_from(("Q", "")),
    "mode": st.sampled_from(("sideways", "")),
    "mitigation": st.sampled_from(("sorcery", "")),
}
# the options each subcommand takes; grid shapes and step counts are either
# small or past ROW_LIMIT, because they size what is allocated and computed
FUZZ_COMMANDS = {
    "run": ("h", "k", "target", "shots", "seed", "noise", "mode", "mitigation"),
    "evolve": ("h", "k", "t-max"),
    "report": ("shots", "seed", "noise", "mode", "mitigation"),
    "mitigate-demo": ("h", "k", "target", "shots", "seed", "noise", "mode", "mitigation"),
    "sweep": (),
}


@st.composite
def fuzz_options(draw):
    # one or two options at an edge, so that most runs get past validation
    edged = draw(st.lists(st.sampled_from(tuple(EDGE_OPTIONS)), min_size=1, max_size=2))
    return {
        key: draw(EDGE_OPTIONS[key] if key in edged else ORDINARY_OPTIONS[key])
        for key in EDGE_OPTIONS
    }


def _run_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(tuple(FUZZ_COMMANDS)),
    values=fuzz_options(),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 3))
    | st.sampled_from(
        ((ROW_LIMIT + 1, 1), (1, 10**30), (1001, 1000), (2, ROW_LIMIT // 2 + 1))
    ),
    t_steps=st.integers(2, 101) | st.sampled_from((ROW_LIMIT + 1, 2**63, 10**30)),
)
def test_cli_fuzz_exit_codes_and_clean_stdout(command, values, shape, t_steps):
    argv = [command]
    argv += [f"--{key}={values[key]}" for key in FUZZ_COMMANDS[command] if values[key] is not None]
    if command == "evolve":
        argv.append(f"--t-steps={t_steps}")
    if command == "report":
        argv.append(f"--pairs={values['h']}:{values['k']}")
    if command == "sweep":
        argv += [
            f"--grid-h={values['h']}:{values['k']}:{shape[0]}",
            f"--grid-k={values['k']}:{values['h']}:{shape[1]}",
        ]
    code, out = _run_quietly(argv)
    assert code in (0, 2, 3)
    if code != 0:
        assert out == ""
    assert _run_quietly(argv) == (code, out)


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    assert build_parser() is build_parser()
    commands = build_parser().subcommands
    assert list(commands) == ["run", "sweep", "evolve", "report", "mitigate-demo"]

    def capture(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def no_new_parser(*args, **kwargs):
        raise AssertionError("main built a parser")

    # neither the parser nor its command map is rebuilt by later calls
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_new_parser)
    first = capture(RUN_ARGS)
    assert capture(["run", "--bogus"])[0] == 2
    assert capture(["--help"])[0] == 0
    assert capture([*RUN_ARGS, "--shots", "0"])[0] == 2
    assert capture(RUN_ARGS) == first
    assert build_parser().subcommands is commands


# argv that the subcommand's own parser handles, and argv that leave it to
# the full parser: no subcommand, help, unknown or ambiguous options, extra
# positionals, missing or ill-typed values, abbreviations and "--"
PARITY_ARGV = [
    [], ["-h"], ["--help"], ["bogus"], ["ru"], ["--seed", "1", "run"], ["--", "run"],
    ["run", "-h"], ["mitigate-demo", "--shots", "10", "-h"], ["run", "--bogus"],
    ["run", "-x"], ["run", "--h", "1", "--bogus", "--k"],
    [*RUN_ARGS, "extra", "more"], ["run", "run"], ["evolve", "--h", "1", "--k", "1", "sweep"],
    ["run", "--h"], ["mitigate-demo", "--shots"], ["sweep", "--config"],
    ["run", "--seed", "abc"], ["run", "--seed=1.5"],
    [*RUN_ARGS[:-4], "--sh", "10"], ["report", "--pairs", "1:1", "--m", "none"],
    ["run", "--", "--h", "1"], [*RUN_ARGS, "--", "--seed", "3"],
    ["sweep", "--grid-h=1", "--grid-k=2"], ["sweep", "--grid", "1"],
    ["evolve", "--h", "1", "--k", "1", "--t-steps", "3"], ["report", "--pairs=1:1", "--shots=10"],
    # read directly: a repeated flag keeps its last value, an empty value is a value
    [*RUN_ARGS, "--seed", "8"], ["run", "--out", ""], ["sweep", "--config", "FILE"],
    # left to the full parser: a value starting with "-", an odd number of tokens, and a
    # positional that ends in a flag's name
    ["run", "--h", "-1", "--k", "1"], ["run", "--seed", "--"], ["report", "--pairs", "1:1", "--format"],
    ["run", "++h", "1"],
]


def main_namespace(argv):
    """The namespace main hands to Options for argv, else main's exit code, stdout and stderr."""
    seen, out, err = [], io.StringIO(), io.StringIO()

    class Recording(cli.Options):
        def __init__(self, args):
            seen.append(vars(args))
            raise cli.ConfigError("parsed")

    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        patch.setattr(cli, "Options", Recording)
        code = main(argv)
    return seen[0] if seen else (code, out.getvalue(), err.getvalue())


def parser_namespace(argv):
    """The full parser's namespace for argv, else its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            code = int(exc.code or 0)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=[shlex.join(a) or "empty" for a in PARITY_ARGV])
def test_main_parses_argv_as_the_full_parser_does(argv):
    assert main_namespace(argv) == parser_namespace(argv)


@st.composite
def argv_tokens(draw):
    """A subcommand, then tokens that are mostly its exact flags, each with a value or not."""
    command = draw(st.sampled_from(tuple(cli.SUBCOMMANDS)))
    own = [f"--{key}" for key in (*cli.SUBCOMMANDS[command][1], "config")]
    exact = st.sampled_from(own)
    flag = st.one_of(
        exact, exact, exact,
        st.sampled_from(sorted(f"--{key}" for key in cli.CONFIG_KEYS if f"--{key}" not in own)),
        st.sampled_from([f[:-1] for f in own if len(f) > 3]),  # abbreviations
        exact.map(lambda f: f + "=1"), st.sampled_from(("--", "-h", "++h")),
    )
    value = st.sampled_from(("1", "", "-1", "-x", "a b", "lima-like"))
    pairs = draw(st.lists(st.tuples(flag, value) | flag.map(lambda f: (f,)), max_size=5))
    return [command, *(token for pair in pairs for token in pair)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=argv_tokens())
def test_main_reads_argv_as_the_full_parser_does(argv):
    assert main_namespace(argv) == parser_namespace(argv)


def test_plain_argv_needs_no_parser(capsys, monkeypatch):
    expected = invoke(capsys, RUN_ARGS)

    def no_parser():
        raise AssertionError("main used the full parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert invoke(capsys, RUN_ARGS) == expected
    assert invoke(capsys, ["sweep", "--grid-h", "1", "--grid-k", "2", "--grid-h", "1:2:3"])[0] == 0


def option_help(capsys, command, flag):
    assert main([command, "--help"]) == 0
    # the last mention of the flag heads its help; the next option ends it
    text = capsys.readouterr().out.rsplit(f"{flag} ", 1)[1].split("\n  --")[0]
    return " ".join(text.split()[1:])  # without the metavar


def test_help_states_each_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a word
    assert option_help(capsys, "run", "--mitigation").endswith("(default none)")
    assert option_help(capsys, "report", "--mitigation").endswith("(default least-squares)")
    assert option_help(capsys, "report", "--noise").endswith("(default none)")
    demo = option_help(capsys, "mitigate-demo", "--mitigation")
    assert "none" not in demo
    assert demo.endswith("direct, least-squares (default least-squares)")
    demo_noise = option_help(capsys, "mitigate-demo", "--noise")
    assert "none" not in demo_noise
    assert demo_noise.endswith("(default lima-like)")
    assert option_help(capsys, "evolve", "--t-steps").endswith("(default 101)")
    assert "QET_SEED" in option_help(capsys, "run", "--seed")


@pytest.mark.parametrize("argv", [["sweep"], ["evolve", "--h", "1", "--k", "1"]],
                         ids=["sweep", "evolve"])
def test_exact_subcommands_take_no_seed(capsys, argv):
    # they draw no random numbers: --seed is an unknown option, as in their help
    code = main([*argv, "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "--seed" in captured.err
    assert main([argv[0], "--help"]) == 0
    assert "--seed" not in capsys.readouterr().out


def test_unknown_command_exits_nonzero(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["bogus", "-", "x (choose from y"])
def test_invalid_choice_message_quotes_the_subcommands(capsys, value):
    # Python 3.13.13's argparse lists the choices bare, 3.11's and 3.13.0's quoted:
    # qet's parser prints the quoted list whichever message argparse words
    assert main([value]) == 2
    quoted = capsys.readouterr()
    choice = f"argument command: invalid choice: {value!r} (choose from "
    assert quoted.err.endswith(f"{choice}{', '.join(map(repr, cli.SUBCOMMANDS))})\n")
    bare = f"{choice}{', '.join(cli.SUBCOMMANDS)})"
    with pytest.raises(SystemExit) as exc:
        build_parser().error(bare)
    assert exc.value.code == 2
    assert capsys.readouterr() == quoted


# README examples: a sh block holding one qet command, then its output block;
# a "..." line ends the quoted part of a longer output
README_EXAMPLES = re.findall(
    r"```sh\n(qet [^\n]*)\n```\n\n```[a-z]*\n(.*?)```",
    (Path(__file__).resolve().parents[1] / "README.md").read_text(),
    re.DOTALL,
)


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 4


@pytest.mark.parametrize(
    "command,expected", README_EXAMPLES, ids=[cmd.split()[1] for cmd, _ in README_EXAMPLES]
)
def test_readme_example_output(capsys, command, expected):
    code, out = invoke(capsys, shlex.split(command)[1:])
    assert code == 0
    quoted = expected.splitlines()
    if "..." in quoted:
        quoted = quoted[: quoted.index("...")]
        assert out.splitlines()[: len(quoted)] == quoted
    else:
        assert out == expected
