"""Command-line interface: serialization stability, config handling, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qetsim import cli
from qetsim.cli import (
    ROW_LIMIT,
    build_parser,
    format_float,
    main,
    parse_axis,
    parse_noise,
    render_csv,
    render_json,
)

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


def test_render_csv_line_endings():
    text = render_csv(("a", "b"), [("x",), (1.5,)])
    assert text == "a,b\nx,1.500000\n"
    assert "\r" not in text
    with pytest.raises(ValueError):
        render_csv(("a", "b"), [("x", "y"), (1.5,)])


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
# strings near the numbers' own text, so that a rule meant for numeric cells
# would have string cells to corrupt
CSV_STRINGS = st.just("-0.000000") | st.text(alphabet="-0.1e,nai\n")


def with_columns(header, rows):
    """The table as the reference reads it (rows) and as render_csv does."""
    return header, rows, [[row[j] for row in rows] for j in range(len(header))]


@st.composite
def csv_tables(draw):
    # every column holds only strings or only numbers
    kinds = draw(st.lists(st.sampled_from((CSV_STRINGS, CSV_NUMBERS)), min_size=1, max_size=5))
    rows = draw(st.lists(st.tuples(*kinds), max_size=8))
    header = tuple(f"c{i}" for i in range(len(kinds)))
    if kinds.count(CSV_NUMBERS) == len(kinds) and draw(st.booleans()):
        # the shapes cmd_sweep passes: an object array of strings and the
        # columns of a float array
        array = np.array(rows, dtype=float).reshape(len(rows), len(kinds))
        labels = draw(st.lists(CSV_STRINGS, min_size=len(rows), max_size=len(rows)))
        rows = [(label, *row) for label, row in zip(labels, array)]
        return ("s", *header), rows, [np.array(labels, dtype=object), *array.T]
    return with_columns(header, rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(csv_tables())
@example(with_columns(("s", "x"), []))
@example(
    with_columns(("s", "x"), [("-0.000000", -0.0), ("-0.0000001", -4.9999995e-7), ("x", -5e-7)])
)
def test_render_csv_matches_per_cell_rendering(table):
    header, rows, columns = table
    assert render_csv(header, columns) == render_csv_per_cell(header, rows)


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
    # linspace would warn on a span that is not finite, or overflow in a step
    # multiple on 1:1.8e308:1000
    for bad in ("1:2", "inf:-inf:2", "nan:1:2", "-1e308:1e308:3", "1:1.7976931348623157e308:1000"):
        with pytest.raises(ValueError):
            parse_axis(bad)
    assert len(parse_axis(f"0:1:{ROW_LIMIT}")) == ROW_LIMIT
    for n in (ROW_LIMIT + 1, 10**30):
        with pytest.raises(ValueError):
            parse_axis(f"0:1:{n}")


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


def test_run_byte_identical_reruns(capsys, tmp_path):
    _, first = invoke(capsys, RUN_ARGS)
    _, second = invoke(capsys, RUN_ARGS)
    assert first == second
    out_file = tmp_path / "run.json"
    code, streamed = invoke(capsys, RUN_ARGS + ["--out", str(out_file)])
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


def test_sweep_single_cell(capsys):
    code, out = invoke(capsys, ["sweep", "--grid-h", "1", "--grid-k", "1"])
    assert code == 0
    assert out == "h,k,V,H1\n1.000000,1.000000,-0.374641,0.259893\n"


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


@pytest.mark.parametrize("h,k", [(1e8, 1e8)])
def test_evolve_at_large_couplings(capsys, h, k):
    # each imaginary residue is bounded by its observable's scale, not an
    # absolute tolerance; v_sim's rounding eps 2k is 4.4e-8, below the printed
    # half unit
    code, out = invoke(capsys, ["evolve", f"--h={h}", f"--k={k}"])
    assert code == 0
    rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
    assert rows.shape == (101, 4) and np.all(np.isfinite(rows))
    h1_sim, h1_closed = rows[:, 1], rows[:, 2]
    assert np.max(h1_closed) == pytest.approx(h / math.hypot(h, k) * h, rel=1e-2)
    assert np.max(np.abs(h1_sim - h1_closed)) <= 1e-12 * h


@pytest.mark.parametrize("h,k", [(1e25, 1e50), (1, 1e-25), (1e5, 1e14), (1e154, 1e153)])
def test_evolve_rejects_unresolved_couplings(capsys, h, k):
    # rounding of order eps max(h, k) / min(h, k) of the swing h^2/r would
    # print noise as h1_sim (k >> h) or lose the 4k oscillation (k << h), and
    # rounding of order eps 2k past the printed half unit would print noise
    # as v_sim, which is 0 exactly
    assert main(["evolve", f"--h={h}", f"--k={k}", "--t-steps=4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "rounding reaches" in captured.err


E1_RUN = ["run", "--target", "E1", "--h", "1", "--k", "1"]
LIMA_LS = ["--noise", "lima-like", "--mitigation", "least-squares"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["sweep"], "573beb50f7234bdca635b5b17dd88fbada7334cd62891afd6dce933bd1fd3098"),
        (["evolve", "--h", "1", "--k", "0.5"],
         "104cae80a3908b90b02a3b1d674bbdf0769502c799a7bc5573576fbf79c284e6"),
        (E1_RUN, "9666940836d60d575fb2707a57c39f1417088d5f37a8ec363353b866ca89755b"),
        (E1_RUN + LIMA_LS,
         "49757740a2b28ff396f8b9a4ef3d3bf67b9be932674b8801ff41d3ba0f1d6ede"),
        (E1_RUN + ["--noise", "jakarta-like", "--mitigation", "direct",
                   "--mode", "conditional"],
         "54a60219cb2f660dbffb482eeca14e69fc383084024b5fc7ee7d1696d862dd9f"),
        # the mitigated counts are the corrected distribution's float weights
        (["run", "--target", "V", "--h", "1", "--k", "1"] + LIMA_LS,
         "477d6d326d9b538c5caaa9ddbea2ceeb55dc2522152d0f91b31c05a50107ac4a"),
        (["report", "--noise", "lima-like", "--format", "json"],
         "b6eda7fb7dff19c69cb91e1ed2c8f56887ee6f89965f4487e7d94f37ed69b441"),
        (["mitigate-demo"],
         "17b305e0d8eb82852ebc1440428a8b970571c88e6bc5b6cb3e8089631092ed49"),
    ],
)
def test_exact_layer_output_is_pinned(capsys, monkeypatch, argv, digest):
    # sha256 of stdout: sweep and evolve from the per-cell and per-step
    # implementation, the clean run from when cmd_run split the E1 seed
    # itself; the noisy ones were re-taken when readout noise became one
    # draw on response @ p and calibration one generator
    monkeypatch.delenv("QET_SEED", raising=False)
    code, out = invoke(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


NOISY_GRID = [
    ["--noise", noise, "--mitigation", method, "--mode", mode,
     "--shots", shots, "--seed", seed]
    for noise in ("lima-like", "jakarta-like", "0.05,0.1,0.02,0.3")
    for method in ("direct", "least-squares")
    for mode in ("conditional", "deferred")
    for shots in ("1", "2000", "100000")
    for seed in ("0", "2024")
]


def noisy_outputs_digest(capsys, command):
    """sha256 over exit code, stdout and stderr of command on every NOISY_GRID
    case: one-shot runs exercise the exit-3 path as well."""
    digest = hashlib.sha256()
    for case in NOISY_GRID:
        code = main(command + case)
        captured = capsys.readouterr()
        digest.update(repr((code, captured.out, captured.err)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "command, digest",
    [
        (["report", "--format", "csv"],
         "e43d19089ea53849ae8986d56af125330970f2b9b4f7621d663f369d7f26b95b"),
        (["report", "--format", "json"],
         "d777957eeee67af3c5c603660f509960d313b56a3b8c83f2b2dbb676abe856cc"),
        (E1_RUN,
         "f6e7148d220c7a2ea3caf04e529ae567f97118b3ad5ee719fe7e1fa404df3123"),
        (["mitigate-demo"],
         "e8ba1334dc09f0b5f8f88ba238358ffe2387fae86a1f5fe5da74ce9d68fba7db"),
    ],
    ids=["report-csv", "report-json", "run-E1", "mitigate-demo"],
)
def test_noisy_output_is_pinned(capsys, monkeypatch, command, digest):
    # taken before the readout layer built its response matrix once per noise
    # model and drew calibration straight into the matrix; the two report
    # digests were re-taken when branch enumeration moved to plain float
    # arithmetic, which moved the conditional H1 distribution at
    # (h, k) = (1.5, 1.0) by 3 ulp; all four were re-taken when readout noise
    # became one draw on response @ p and calibration one generator
    monkeypatch.delenv("QET_SEED", raising=False)
    assert noisy_outputs_digest(capsys, command) == digest


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
]


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=[shlex.join(a) or "empty" for a in PARITY_ARGV])
def test_main_parses_argv_as_the_full_parser_does(capsys, monkeypatch, argv):
    # the reference: the full parser's namespace, or its exit code and output
    try:
        expected = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        expected = int(exc.code or 0)
    reference = capsys.readouterr()
    seen = []

    class Recording(cli.Options):
        def __init__(self, args):
            seen.append(vars(args))
            super().__init__(args)

    monkeypatch.setattr(cli, "Options", Recording)
    code = main(argv)
    captured = capsys.readouterr()
    if isinstance(expected, int):
        assert (code, captured.out, captured.err) == (expected, reference.out, reference.err)
        assert seen == []
    else:
        assert seen == [expected]


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
    assert "QET_SEED" in option_help(capsys, "sweep", "--seed")


def test_unknown_command_exits_nonzero(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()


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
