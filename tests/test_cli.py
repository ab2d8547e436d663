import math
from pathlib import Path

import pytest

from adiabatic_lab.cli import check_config, main
from adiabatic_lab.tqd import compile_pulse_sequence, parse_pulse_sequence

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "adcheck": ["adcheck", "--r-sweep", "0.5:1.5:0.5", "--n-points", "301"],
    "deutsch": ["deutsch", "--balanced", "--tau-ladder", "3", "--n-steps", "800"],
    "heat": ["heat", "--gamma0-list", "314,628", "--n-steps", "300"],
    "lz_tqd": [
        "lz-tqd",
        "--n-tau", "5",
        "--n-quad", "501",
        "--tau-min-s", "1e-5",
        "--tau-max-s", "1e-4",
    ],
    "nmr_tqd": ["nmr-tqd", "--omega-sweep", "10000:30000:10000"],
    "gate": ["gate", "--tau-list", "1e-4", "--n-steps", "400"],
    "pulses": ["pulses", "--variant", "optimal", "--tau-s", "0.01"],
    "battery_stirap": ["battery-stirap", "--omega0tau", "5", "--n-steps", "800"],
    "battery_cells": ["battery-cells", "--jtau", "10", "--n-steps", "500"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_scenario_output_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["adcheck", "--r-sweep", "0:1:0"],
        ["lz-tqd", "--n-tau", "0"],
        ["nmr-tqd", "--omega-sweep", "1:0:1"],
        ["gate", "--tau-list", ""],
        ["heat", "--gamma0-list", "1e9", "--n-steps", "100"],
        ["battery-stirap", "--gamma0", "50", "--n-steps", "100"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_hopeless_config_exits_two_with_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert any(line.startswith("error: ") for line in captured.err.splitlines())
    assert captured.out == ""


def test_resonant_sweep_point_becomes_nan_row():
    lines = (GOLDEN / "adcheck.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#") and ln[0].isdigit()]
    by_r = {row[0]: row[1:] for row in rows}
    assert all(v == "nan" for v in by_r["1.0"])
    assert all(v != "nan" for v in by_r["0.5"])


def test_pulses_output_parses_back(tmp_path):
    out = tmp_path / "prog.txt"
    assert main(CASES["pulses"] + ["--out", str(out)]) == 0
    seq = parse_pulse_sequence(out.read_text())
    want = compile_pulse_sequence("optimal", 8, 0.01, 35.0, 215.0)
    assert seq.items == want.items
    assert seq.energy_units == 3


def test_flags_override_config_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[deutsch]\ntau-ladder = 4\nn-steps = 300\ngamma = 0.05\n")
    out = tmp_path / "out.csv"
    rc = main(
        ["deutsch", "--config", str(ini), "--tau-ladder", "2", "--out", str(out)]
    )
    assert rc == 0
    text = out.read_text()
    assert "# tau_ladder=2" in text  # flag wins
    assert "# gamma=0.05" in text  # file beats the default
    data_rows = [ln for ln in text.splitlines() if ln and ln[0].isdigit()]
    assert len(data_rows) == 2


def test_config_with_unknown_key_is_rejected(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[heat]\nbandwidth = 3\n")
    assert main(["heat", "--config", str(ini)]) == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_validate_reports_each_section(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[deutsch]\ngamma = -0.2\n"
        "[pulses]\nvariant = optimal\n"
        "[battery-cells]\njtau = 10\n"
        "[mystery]\nx = 1\n"
    )
    assert main(["validate", "--config", str(ini)]) == 2
    out = capsys.readouterr().out
    assert "deutsch: gamma must be non-negative" in out
    assert "pulses: missing required parameter tau_s" in out
    assert "battery-cells: ok" in out
    assert "mystery: unknown scenario" in out


def test_validate_single_clean_section(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[battery-cells]\njtau = 10\n[deutsch]\ngamma = -1\n")
    rc = main(["validate", "--config", str(ini), "--scenario", "battery-cells"])
    assert rc == 0
    assert "battery-cells: ok" in capsys.readouterr().out


def test_missing_required_flag_is_an_error(capsys):
    assert main(["pulses"]) == 2
    assert "tau_s" in capsys.readouterr().err


def test_constraint_violation_exits_two(capsys):
    assert main(["adcheck", "--n-points", "10"]) == 2
    assert "at least 100" in capsys.readouterr().err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["adcheck", "--bogus", "1"])
    assert exc.value.code == 2


def test_check_config_flags_mutual_exclusion():
    problems = check_config(
        "deutsch",
        {
            "balanced": True,
            "constant": True,
            "f0": 0,
            "f1": 1,
            "omega_hz": 1.0e4,
            "gamma": 0.1,
            "tau_ladder": 8,
            "n_steps": 2000,
        },
    )
    assert any("balanced" in p and "constant" in p for p in problems)
