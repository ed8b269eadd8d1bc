"""Command-line interface: serialization stability, config handling, exit codes."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from qetsim.cli import format_float, main, parse_axis, parse_noise, render_csv, render_json

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


def test_render_csv_line_endings():
    text = render_csv(("a", "b"), [("x", 1.5)])
    assert text == "a,b\nx,1.500000\n"
    assert "\r" not in text


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
    with pytest.raises(ValueError):
        parse_axis("1:2")


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
    capsys.readouterr()


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


@pytest.mark.parametrize("t_max", ["inf", "nan", "1e308"])
def test_evolve_rejects_unrepresentable_t_max(capsys, t_max):
    assert invoke(capsys, ["evolve", "--h", "1", "--k", "1", f"--t-max={t_max}"]) == (2, "")


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
