import ast
import builtins
import functools
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adiabatic_lab import battery, tqd
from adiabatic_lab.cli import RUNNERS, SCENARIOS, _fmt, _merge_config, check_config, main
from adiabatic_lab.dynamics import READOUT_BLOCK, IntegrationError, Schedule
from adiabatic_lab.openad import deutsch_scenario
from adiabatic_lab.tqd import compile_pulse_sequence, parse_pulse_sequence

GOLDEN = Path(__file__).parent / "golden"
PACKAGE = Path(__file__).parent.parent / "src" / "adiabatic_lab"

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


# The long-trajectory tables: the scenario's argv, the report function the
# runner calls, and the report's columns in table order.
STREAMED = {
    "battery-cells": (["battery-cells", "--jtau", "10"], "two_cell_discharge",
                      lambda rep: [rep.times, rep.charge, rep.power, rep.parity]),
    "battery-stirap": (["battery-stirap", "--omega0tau", "5", "--gamma0", "0.01"], "stirap_charge",
                       lambda rep: [rep.times, rep.ergotropy, rep.power, *rep.populations.T]),
}


def _whole_table(name: str, cfg: dict, extra: list, header: list, rows) -> str:
    """The table as one string: every line joined by newlines, plus the last."""
    lines = [f"# adiabatic-lab {name}"] + [f"# {key}={_fmt(cfg[key])}" for key in sorted(cfg)]
    lines += [f"# {note}" for note in extra] + [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


# 768 rows fill three blocks exactly; 1001 rows leave a ragged fourth block
@pytest.mark.parametrize("n_steps", [3 * READOUT_BLOCK - 1, 1000])
@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_table_equals_the_whole_string_table(name, n_steps, tmp_path, monkeypatch, capsys):
    """Rows written block by block, to stdout and to --out, give the bytes of
    the table rendered whole from the same report."""
    argv, producer, columns = STREAMED[name]
    argv = argv + ["--n-steps", str(n_steps)]
    run, produce = RUNNERS[name], getattr(battery, producer)
    reports, tables = [], []

    def report(*args, **kwargs):
        reports.append(produce(*args, **kwargs))
        return reports[-1]

    def runner(cfg):
        extra, header, rows = run(cfg)
        whole_rows = zip(*(col.tolist() for col in columns(reports[-1])))
        tables.append(_whole_table(name, cfg, extra, header, whole_rows))
        return extra, header, rows

    monkeypatch.setattr(battery, producer, report)
    monkeypatch.setitem(RUNNERS, name, runner)
    assert main(argv) == 0
    streamed = capsys.readouterr().out
    out = tmp_path / "table.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert len(streamed.splitlines()) > n_steps > 2 * READOUT_BLOCK
    assert [streamed, out.read_bytes().decode("utf-8")] == tables


@pytest.mark.parametrize("argv, node_bytes, n_steps", [
    (["battery-cells"], 8 * 16, 6000),  # an (8,) complex amplitude vector per node
    # a (3, 3) complex density matrix per node; the jump route runs slowly under tracemalloc
    (["battery-stirap", "--gamma0", "0.01"], 9 * 16, 1500),
], ids=["battery-cells", "battery-stirap-noisy"])
def test_doubling_a_long_run_grows_its_peak_by_little_beyond_the_states(argv, node_bytes, n_steps, tmp_path):
    """Readouts and the writer take one block at a time, so the peak traced
    memory of a run with --out grows by at most 1.5 times its state array
    when the step count doubles (whole-trajectory copies gave 3.6 and 4.5)."""
    out = str(tmp_path / "table.csv")
    assert main(argv + ["--n-steps", "400", "--out", out]) == 0  # caches filled on first use are no growth
    peaks = []
    for n in (n_steps, 2 * n_steps):
        tracemalloc.start()
        try:
            assert main(argv + ["--n-steps", str(n), "--out", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 1.5 * n_steps * node_bytes


@pytest.mark.parametrize(
    "argv",
    [
        ["adcheck", "--r-sweep", "0:1:0"],
        ["lz-tqd", "--n-tau", "0"],
        ["nmr-tqd", "--omega-sweep", "1:0:1"],
        ["gate", "--tau-list", ""],
        ["heat", "--gamma0-list", "1e9", "--n-steps", "100"],
        ["battery-stirap", "--gamma0", "50", "--n-steps", "100"],
        ["deutsch", "--gamma", "1e6", "--tau-ladder", "2", "--n-steps", "100"],
        ["battery-cells", "--jtau", "1e6", "--n-steps", "100"],
        pytest.param(
            ["heat", "--gamma0-list", "1e5", "--n-steps", "100"],
            id="heat-negative-eigenvalue",
            marks=pytest.mark.filterwarnings("ignore:positivity dip:RuntimeWarning"),
        ),
        pytest.param(["pulses", "--tau-s", "0.01", "--j-hz", "0"], id="pulses-zero-coupling"),
        pytest.param(["adcheck", "--r-sweep", "0:1e300:1e-300"], id="adcheck-uncountable-range"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.filterwarnings("error:overflow:RuntimeWarning", "error:invalid value:RuntimeWarning")
def test_hopeless_config_exits_two_with_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert any(line.startswith("error: ") for line in captured.err.splitlines())
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(["lz-tqd", "--delta-hz", "1e-300", "--n-quad", "100"], "ZeroDivisionError: ",
                     id="lz-tqd-underflow"),
        pytest.param(["lz-tqd", "--delta-hz", "1e-152", "--n-quad", "100"], "OverflowError: ",
                     id="lz-tqd-overflow"),
        pytest.param(["lz-tqd", "--tau-max-s", "1e200", "--n-quad", "100"], "OverflowError: ",
                     id="lz-tqd-tau-overflow"),
        pytest.param(["nmr-tqd", "--omega0-hz", "1e300"], "OverflowError: ", id="nmr-tqd-overflow"),
        pytest.param(["adcheck", "--tau-s", "1e300", "--r-sweep", "0.5:0.5:1", "--n-points", "100"],
                     "OverflowError: c_ar overflows at tau=1e+300", id="adcheck-overflow"),
        pytest.param(["adcheck", "--tau-s", "1e200", "--r-sweep", "0.5:0.5:1", "--n-points", "100"],
                     "OverflowError: c_ar overflows at tau=1e+200", id="adcheck-c-ar-long-overflow"),
        pytest.param(["adcheck", "--tau-s", "1e-160", "--r-sweep", "0.5:0.5:1", "--n-points", "100"],
                     "OverflowError: c_ar overflows at tau=1e-160", id="adcheck-c-ar-overflow"),
        pytest.param(["adcheck", "--tau-s", "1e-300", "--r-sweep", "0.5:0.5:1", "--n-points", "100"],
                     "OverflowError: c_wu denominator overflows at tau=1e-300", id="adcheck-c-wu-overflow"),
        pytest.param(["battery-stirap", "--omega0tau", "1e-300", "--rabi-hz", "1e300", "--n-steps", "100"],
                     "a schedule's duration must be positive, not 0.0", id="battery-stirap-zero-duration"),
    ],
)
def test_config_that_passes_its_checks_but_not_float_range_exits_two(argv, named, capsys):
    """Configs inside every declared bound whose arithmetic underflows to
    zero or overflows end in one named error line, not a traceback or a
    NaN table."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {named}")
    assert captured.out == ""


def test_lz_tqd_takes_its_ladder_and_tau_b_from_one_quadrature(capsys, monkeypatch):
    """lz-tqd forms its integrals once, in one lz_intensities call over the
    ladder, and divides only at the durations it was asked for: a delta
    whose 4 tau^2 delta^2 int tan^2 overflows at tau = 1 s but at no tau of
    the ladder runs, since tau_b does not depend on tau.  Each row carries
    the bits of its own scalar call."""
    calls = []
    lz_intensities = tqd.lz_intensities
    monkeypatch.setattr(tqd, "lz_intensities", lambda *a, **k: calls.append(a) or lz_intensities(*a, **k))
    assert main(["lz-tqd", "--delta-hz", "1e153", "--theta0-rad", "1.5", "--n-tau", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == 1
    cfg = {**_default_config("lz-tqd"), "delta_hz": 1e153, "theta0_rad": 1.5, "n_tau": 3}
    delta = 2.0 * math.pi * cfg["delta_hz"]
    taus = np.geomspace(cfg["tau_min_s"], cfg["tau_max_s"], cfg["n_tau"])
    want = [lz_intensities(lambda s: 1.5 * s, delta, tau, n_quad=cfg["n_quad"]) for tau in taus]
    rows = [[float(x) for x in ln.split(",")] for ln in lines if ln[:1].isdigit()]
    assert len(rows) == 3
    for row, tau, res in zip(rows, taus, want):
        assert np.array(row).tobytes() == np.array([tau, res["i_std"], res["i_opt"]]).tobytes()
    assert f"# tau_b_s={want[0]['tau_b']!r}" in lines


def test_negative_eigenvalue_config_warns_of_the_positivity_dip():
    with pytest.warns(RuntimeWarning, match="positivity dip"):
        assert main(["heat", "--gamma0-list", "1e5", "--n-steps", "100"]) == 2


def _data_rows(argv, capsys):
    assert main(argv) == 0
    return [ln for ln in capsys.readouterr().out.splitlines() if ln[:1].isdigit()]


def test_sweep_rows_equal_one_member_runs(capsys):
    """Each row of a lock-step sweep is byte-identical to its member's own run."""
    heat = ["heat", "--n-steps", "200", "--gamma0-list"]
    rows = _data_rows(heat + ["314,628,1257"], capsys)
    assert rows == [_data_rows(heat + [g], capsys)[0] for g in ("314", "628", "1257")]

    gate = ["gate", "--variant", "standard", "--n-steps", "200", "--tau-list"]
    for controlled in ([], ["--controlled"]):
        rows = _data_rows(gate + ["1e-4,1e-3,1e-2"] + controlled, capsys)
        assert rows == [_data_rows(gate + [t] + controlled, capsys)[0] for t in ("1e-4", "1e-3", "1e-2")]

    rows = _data_rows(["deutsch", "--balanced", "--tau-ladder", "4", "--n-steps", "200"], capsys)
    omega = 2.0 * math.pi * 1.0e4
    assert len(rows) == 4
    for row in rows:
        tau = float(row.split(",")[0])
        res = deutsch_scenario((0, 1), omega, 0.1 * omega, tau, n_steps=200)
        assert row == f"{tau!r},{float(res['f_os'][-1])!r},{float(res['f_cs'][-1])!r}"


@pytest.mark.parametrize("gamma0", ["1e5", "1e9"])
@pytest.mark.filterwarnings("ignore:positivity dip:RuntimeWarning")
def test_sweep_with_one_failing_member_prints_its_error_line(gamma0, capsys):
    """A failing second member fails the sweep with the error line of its own run."""
    assert main(["heat", "--gamma0-list", gamma0, "--n-steps", "100"]) == 2
    alone = capsys.readouterr().err.splitlines()[-1]
    assert main(["heat", "--gamma0-list", "314," + gamma0, "--n-steps", "100"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == alone
    if gamma0 == "1e5":
        assert alone == "error: state has negative eigenvalue -8.878e-01"


def test_deutsch_sweep_with_one_failing_member_prints_its_error_line(capsys):
    omega = 2.0 * math.pi * 1.0e4
    first, second = ((100.0 / omega) * 2.0 ** (k - 1) for k in range(2))
    deutsch_scenario((0, 1), omega, 2.0 * omega, first, n_steps=100)
    with pytest.raises(IntegrationError, match="trace drift") as alone:
        deutsch_scenario((0, 1), omega, 2.0 * omega, second, n_steps=100)
    assert main(["deutsch", "--gamma", "2", "--tau-ladder", "2", "--n-steps", "100"]) == 2
    line = "error: step 26: trace drift 1.000e+00 exceeds 1.0e-09; increase --n-steps"
    assert f"error: {alone.value}; increase --n-steps" == line
    assert capsys.readouterr().err.splitlines() == [line]


def test_resonant_sweep_point_becomes_nan_row():
    lines = (GOLDEN / "adcheck.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#") and ln[0].isdigit()]
    by_r = {row[0]: row[1:] for row in rows}
    assert all(v == "nan" for v in by_r["1.0"])
    assert all(v != "nan" for v in by_r["0.5"])


@pytest.mark.filterwarnings("ignore:coupling between levels:RuntimeWarning")
def test_each_adcheck_point_samples_its_schedule_once(monkeypatch, capsys):
    """The three conditions that read dH/dt share one sample of the
    schedule per point; the resonant point r = 1 builds no model, and the
    undriven point r = 0 skips its vanishing c_wu pairs with a warning."""
    grids = []
    sample = Schedule.sample

    def counting(self, grid):
        grids.append(len(grid))
        return sample(self, grid)

    monkeypatch.setattr(Schedule, "sample", counting)
    assert main(["adcheck", "--r-sweep", "0:1:0.5"]) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines() if ln[:1].isdigit()]
    evaluated = [row for row in rows if row[1] != "nan"]
    assert [row[0] for row in rows] == ["0.0", "0.5", "1.0"] and len(evaluated) == 2
    assert grids == [301] * len(evaluated)


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


# Each call's (exit code, stdout, stderr), in a fresh interpreter running the
# argv lists of argv[1] in order; COLUMNS fixes argparse's help width.
_CALLS = (
    "import contextlib, io, json, sys\n"
    f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
    "from adiabatic_lab.cli import main\n"
    "def call(argv):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        try:\n"
    "            code = main(argv)\n"
    "        except SystemExit as exc:\n"
    "            code = exc.code\n"
    "    return [code, out.getvalue(), err.getvalue()]\n"
    "print(json.dumps([call(argv) for argv in json.loads(sys.argv[1])]))\n"
)


def _calls_in_one_process(argvs: list) -> list:
    env = {**os.environ, "COLUMNS": "100"}
    proc = subprocess.run([sys.executable, "-c", _CALLS, json.dumps(argvs)], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_later_calls_in_a_process_write_what_a_first_call_writes():
    """The parser is built once per process and reused: an exit through
    argparse (an unknown flag), an exit through an ``error:`` line, the
    top-level and a scenario's --help and a table write, in each later call,
    the bytes that each writes as the first call of its own process."""
    argvs = [
        ["adcheck", "--bogus", "1"],
        ["pulses"],
        ["--help"],
        ["gate", "--help"],
        ["lz-tqd", "--n-tau", "3", "--n-quad", "101"],
    ]
    firsts = [_calls_in_one_process([argv])[0] for argv in argvs]
    assert [code for code, _, _ in firsts] == [2, 2, 0, 0, 0]
    assert "unrecognized arguments: --bogus 1" in firsts[0][2] and firsts[1][2].startswith("error: ")
    assert firsts[3][1].startswith("usage: adiabatic-lab gate ") and firsts[4][1].startswith("# adiabatic-lab lz-tqd")
    assert _calls_in_one_process(argvs + argvs[::-1]) == firsts + firsts[::-1]


# Every single-flag bound of the CLI schema: (scenario, key, op, bound).
# For list kinds the bound applies to every entry.
BOUNDS = [
    ("adcheck", "omega0_hz", ">", 0),
    ("adcheck", "tau_s", ">", 0),
    ("adcheck", "n_points", ">=", 100),
    ("deutsch", "omega_hz", ">", 0),
    ("deutsch", "gamma", ">=", 0),
    ("deutsch", "tau_ladder", ">=", 2),
    ("deutsch", "n_steps", ">=", 100),
    ("heat", "omega_pev", ">", 0),
    ("heat", "beta_inv_pev", ">", 0),
    ("heat", "gamma0_list", ">=", 0),
    ("heat", "tau_dec_s", ">", 0),
    ("heat", "n_steps", ">=", 100),
    ("lz-tqd", "delta_hz", ">", 0),
    ("lz-tqd", "tau_min_s", ">", 0),
    ("lz-tqd", "tau_max_s", ">", 0),
    ("lz-tqd", "n_tau", ">=", 1),
    ("lz-tqd", "n_quad", ">=", 100),
    ("nmr-tqd", "omega0_hz", ">", 0),
    ("nmr-tqd", "omega1_hz", ">", 0),
    ("gate", "nu_hz", ">", 0),
    ("gate", "tau_list", ">", 0),
    ("gate", "n_steps", ">=", 100),
    ("pulses", "n_blocks", ">=", 1),
    ("pulses", "tau_s", ">", 0),
    ("pulses", "nu_hz", ">", 0),
    ("pulses", "j_hz", ">", 0),
    ("battery-stirap", "rabi_hz", ">", 0),
    ("battery-stirap", "omega0tau", ">", 0),
    ("battery-stirap", "gamma0", ">=", 0),
    ("battery-stirap", "n_steps", ">=", 100),
    ("battery-cells", "j_hz", ">", 0),
    ("battery-cells", "omega0_hz", ">", 0),
    ("battery-cells", "jtau", ">", 0),
    ("battery-cells", "n_steps", ">=", 100),
]


def _default_config(name: str) -> dict:
    # tau_s is the only required flag (pulses); other scenarios ignore it
    return _merge_config(name, {"tau_s": 0.01}, {})


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_config_is_valid(name):
    assert check_config(name, _default_config(name)) == []


@pytest.mark.parametrize("name,key,op,bound", BOUNDS, ids=lambda v: str(v))
def test_value_just_past_bound_is_named(name, key, op, bound):
    cfg = _default_config(name)
    if isinstance(cfg[key], int):
        past = bound - 1 if op == ">=" else bound
    else:
        past = math.nextafter(float(bound), -math.inf)
    cfg[key] = (1.0, past) if isinstance(cfg[key], tuple) else past
    problems = check_config(name, cfg)
    assert any(key in p for p in problems), problems


def test_schema_declares_exactly_the_pinned_bounds():
    declared = [(name, p.key, *p.low) for name, params in SCENARIOS.items() for p in params if p.low]
    assert sorted(declared) == sorted(BOUNDS)


@pytest.mark.parametrize("name,key,op,bound", BOUNDS, ids=lambda v: str(v))
def test_help_shows_each_bound(name, key, op, bound, capsys):
    with pytest.raises(SystemExit):
        main([name, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    flag = "--" + key.replace("_", "-")
    assert f"({op} {bound})" in help_text.rsplit(flag, 1)[1].split(" --", 1)[0]


def test_zero_coupling_is_named_by_run_and_validate(tmp_path, capsys):
    assert main(["pulses", "--tau-s", "0.01", "--j-hz", "0"]) == 2
    assert "error: j_hz must be positive" in capsys.readouterr().err
    ini = tmp_path / "run.ini"
    ini.write_text("[pulses]\ntau-s = 0.01\nj-hz = 0\n")
    assert main(["validate", "--config", str(ini)]) == 2
    assert "pulses: j_hz must be positive" in capsys.readouterr().out


def test_range_with_uncountable_points_is_named():
    problems = check_config("adcheck", {**_default_config("adcheck"), "r_sweep": (0.0, 1e300, 1e-300)})
    assert problems == ["r_sweep has too many points to count"]
    problems = check_config("adcheck", {**_default_config("adcheck"), "r_sweep": (1e308, -1e308, 1.0)})
    assert problems == ["r_sweep is empty: stop lies below start"]


def test_cross_flag_rule_skips_flags_that_failed_their_own_check():
    problems = check_config("lz-tqd", {**_default_config("lz-tqd"), "tau_max_s": -1.0})
    assert problems == ["tau_max_s must be positive"]


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


def test_package_and_tqd_scenarios_load_no_scipy():
    """scipy is imported only where it is used: liouville_spectrum and
    contested eigenframe assignments.  No module import and no tqd
    scenario at its defaults reaches either."""
    code = (
        "import contextlib, importlib, io, sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        + "".join(f"importlib.import_module('adiabatic_lab.{p.stem}')\n" for p in sorted(PACKAGE.glob("*.py")))
        + "from adiabatic_lab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['nmr-tqd']), main(['lz-tqd'])]\n"
        "print(codes, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0]", "[]"], proc.stdout


def test_package_modules_use_every_name_they_import():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert sorted(PACKAGE.glob("*.py")) and not unused, unused


def test_every_oracle_is_imported_and_defined_once():
    """Each function of tests/oracles.py is imported by some test module, and
    no test module defines a function of the same name, with or without a
    leading underscore."""
    tests = Path(__file__).parent
    oracles = {node.name for node in ast.parse((tests / "oracles.py").read_text()).body
               if isinstance(node, ast.FunctionDef)}
    imported, copies = set(), []
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.FunctionDef) and node.name.lstrip("_") in oracles:
                copies.append(f"{path.name}:{node.lineno} {node.name}")
    assert oracles and oracles <= imported and not copies, (sorted(oracles - imported), copies)


def test_package_private_names_are_all_referenced():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(path.name, node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphans = [f"{f}:{line} {n}" for f, line, n in defined if n not in used]
    assert defined and not orphans, orphans


REPO = PACKAGE.parent.parent
# Paper results that no root reaches yet and that stay until their owner
# binds them to a criterion or removes them; an exempt function's options
# and outputs are exempt with it.
HELD = {
    "openad.jordan_block_coefficient_ode": "the Jordan-block coefficient flow of the open-system theory",
    "openad.adiabatic_propagator_inverse_identities": "the forward/inverse propagator identities, with l_matrix",
    "openad.xi_coefficients(rho0=)": "the initial-state class result of the validity coefficients",
    "spectral.LiouvilleSpectrum.block_sizes": "the Jordan block sizes of a defective Liouvillian",
    "spectral.LiouvilleSpectrum.near_defective": "the flag of a spectrum too ill-conditioned to trust",
}
# Run diagnostics that no root reads yet: they explain how a run went rather
# than state a result, and stay for a run report to carry.
SIDECAR = {
    'dynamics.evolve_unitary["final_norm_deviation"]': "the norm drift of the raw integrator output",
    'dynamics.evolve_lindblad["min_eigenvalue"]': "the deepest positivity dip of the states",
    'openad.asymptotic_adiabaticity_certificate["reasons"]': "why a certificate was refused",
    'tqd.tqd_time_independence["connection_drift"]': "the premise of the constant-driving criterion",
}


def _roots(repo: Path) -> tuple:
    """Every public name and option serves a claim reached from one of these:
    the CLI scenarios, the acceptance criteria and the benchmark workloads."""
    return (repo / "src" / "adiabatic_lab" / "cli.py", repo / "tests" / "test_acceptance.py",
            repo / "bench" / "workloads.py")


def _label(node) -> str:
    """The name an expression ends in: ``d``, ``x.d``, ``x["d"]`` and ``d(...)``
    all end in ``d``."""
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        return str(node.slice.value)
    if isinstance(node, ast.Call):
        node = node.func
    return str(getattr(node, "id", getattr(node, "attr", None)))


def _strings(node) -> set:
    return {f'["{c.value}"]' for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)}


def _key(node):
    """The key of a subscript read or of a ``.get`` call, or None."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        return node.slice
    if isinstance(node, ast.Call) and node.args and getattr(node.func, "attr", None) == "get":
        return node.args[0]
    return None


def _taken_whole(node):
    """The dict that a call or a loop takes whole, or None."""
    if isinstance(node, ast.Call):
        if getattr(node.func, "attr", None) in ("values", "items", "keys") and not node.args:
            return node.func.value
        if getattr(node.func, "id", None) in ("list", "tuple", "set", "sorted", "dict") and len(node.args) == 1:
            return node.args[0]
    if isinstance(node, (ast.For, ast.comprehension)) and not isinstance(node.iter, (ast.Tuple, ast.List)):
        return node.iter
    return None


@functools.lru_cache(maxsize=None)
def _tree(text: str) -> ast.Module:
    """One parse per source text, so a node's id names it in every pass."""
    return ast.parse(text)


class _Scope:
    """The names a function (or a module) body binds, each with every way it
    is bound there; a name it does not bind is looked up in the enclosing
    scope."""

    def __init__(self, parent):
        self.parent, self.bound = parent, {}

    def bind(self, name: str, how: tuple) -> None:
        self.bound.setdefault(name, []).append(how)


class _Producers:
    """Resolve the receiver of a read to what produced it: a package class,
    labelled ``module.Class``, or a package function that returns dict
    displays, directly or through a list, labelled ``module.function`` (as
    :func:`_outputs` labels its keys).  A name resolves when every binding
    in its scope gives the same producer: a parameter's annotation (the
    class for a method's first parameter), the class of a constructor call,
    the return annotation of a called function (for one without, the
    producer of its returns), or the dict function itself.  An item of a
    dict function's result (a loop target, through ``zip`` too, or a
    non-string subscript) is one of its dicts, and a dataclass field's
    annotation types the next link of a chain.  Anything else resolves to
    None."""

    def __init__(self, package: Path, roots, outputs):
        self.classes, self.functions, self.scope_of, self.handled, self.busy = {}, {}, {}, set(), set()
        self.dicts = {label.split("[")[0] for label, readers in outputs  # bound to the function's own name
                      if "*" + label.split("[")[0].rsplit(".", 1)[-1] in readers}
        for path in sorted(package.glob("*.py")):
            for node in _tree(path.read_text()).body:
                if isinstance(node, ast.ClassDef):
                    fields = {i.target.id: i.annotation for i in node.body if isinstance(i, ast.AnnAssign)
                              and isinstance(i.target, ast.Name)} if any(
                        _label(d) == "dataclass" for d in node.decorator_list) else {}
                    methods = {i.name: i for i in node.body if isinstance(i, ast.FunctionDef)}
                    self.classes[f"{path.stem}.{node.name}"] = (fields, methods)
                    self.functions.setdefault(node.name, []).append((f"{path.stem}.{node.name}", None))
                elif isinstance(node, ast.FunctionDef):
                    self.functions.setdefault(node.name, []).append((f"{path.stem}.{node.name}", node))
        for path in sorted(package.glob("*.py")) + [r for r in roots if r.parent != package]:
            self._index(_tree(path.read_text()), _Scope(None), path.stem)

    def _index(self, node, scope: _Scope, module: str, owner=None) -> None:
        """Record the scope of every node under ``node``, opening a scope at
        each function and class body; ``owner`` is the class of a method."""
        self.scope_of[id(node)] = scope
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            inner, args = _Scope(scope), node.args
            for i, a in enumerate(args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]):
                if a is not None:
                    inner.bind(a.arg, ("is", self._annotation(a.annotation) or (owner if i == 0 else None)))
            if isinstance(node, ast.FunctionDef):
                scope.bind(node.name, ("def", (f"{module}.{node.name}" if scope.parent is None else None, node)))
            scope = inner
        elif isinstance(node, ast.ClassDef):  # calling it constructs it
            label = f"{module}.{node.name}" if f"{module}.{node.name}" in self.classes else None
            scope.bind(node.name, ("def", (label, None)))
            body = _Scope(scope)
            for child in ast.iter_child_nodes(node):
                self._index(child, body, module, label)
            return
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                self._bind(target, ("value", node.value), scope)
        elif isinstance(node, (ast.For, ast.comprehension)):
            self._bind(node.target, ("item", node.iter), scope)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                scope.bind((alias.asname or alias.name).split(".")[0], ("import", None))
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load) and id(node) not in self.handled:
            scope.bind(node.id, ("is", None))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            scope.bind(node.name, ("is", None))
        for child in ast.iter_child_nodes(node):
            self._index(child, scope, module)

    def _bind(self, target, how: tuple, scope: _Scope) -> None:
        """Bind a target to a value, or to an item of one; an item of a
        literal tuple or list is each of its elements in turn."""
        kind, value = how
        if kind == "item" and isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                self._bind(target, ("value", element), scope)
        elif isinstance(target, ast.Name):
            scope.bind(target.id, ("def", (None, value)) if isinstance(value, ast.Lambda) else how)
            self.handled.add(id(target))
        elif isinstance(target, (ast.Tuple, ast.List)):
            n = len(target.elts)
            if kind == "value" and isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == n:
                parts = [("value", v) for v in value.elts]
            elif kind == "item" and _label(value) == "zip" and isinstance(value, ast.Call) and len(value.args) == n:
                parts = [("item", a) for a in value.args]
            else:
                parts = [("is", None)] * n
            for t, part in zip(target.elts, parts):
                self._bind(t, part, scope)

    def _annotation(self, node):
        """The package class an annotation names (``C``, ``"C"``, ``m.C``,
        ``C | None``), or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            sides = [n for n in (node.left, node.right) if not (isinstance(n, ast.Constant) and n.value is None)]
            node = sides[0] if len(sides) == 1 else None
        labels = [label for label, fn in self.functions.get(_label(node), []) if fn is None]
        return labels[0] if isinstance(node, (ast.Name, ast.Attribute)) and len(labels) == 1 else None

    def _item(self, producer):
        return producer if producer in self.dicts else None

    def _returns(self, label, fn):
        if fn is None:
            return label
        if isinstance(fn, ast.Lambda):
            return self.producer(fn.body, self.scope_of[id(fn.body)])
        if fn.returns is not None or label in self.dicts:
            return self._annotation(fn.returns) or self._item(label)
        found = {self.producer(r.value, self.scope_of[id(r)]) for r in ast.walk(fn)
                 if isinstance(r, ast.Return) and r.value is not None and self.scope_of[id(r)].parent
                 is self.scope_of[id(fn)]}
        return found.pop() if len(found) == 1 else None

    def _bindings(self, name: str, scope: _Scope) -> list:
        while scope is not None and name not in scope.bound:
            scope = scope.parent
        return [] if scope is None else [(kind, value, scope) for kind, value in scope.bound[name]]

    def _call(self, call: ast.Call, scope: _Scope):
        name = _label(call)
        if isinstance(call.func, ast.Attribute):
            receiver = self.producer(call.func.value, scope)
            methods = self.classes.get(receiver, ({}, {}))[1]
            callees = [(f"{receiver}.{name}", methods[name])] if name in methods else self.functions.get(
                name, []) + [(f"{c}.{name}", d[1][name]) for c, d in self.classes.items() if name in d[1]]
        else:  # what the caller's scope defines, else what it imports
            kinds = [(kind, value) for kind, value, _ in self._bindings(name, scope)]
            callees = ([value for _, value in kinds] if {k for k, _ in kinds} == {"def"}
                       else self.functions.get(name, []) if {k for k, _ in kinds} <= {"import"} else [])
        found = {self._returns(*callee) for callee in callees}
        return found.pop() if len(found) == 1 else None

    def producer(self, expr, scope: _Scope):
        """The producer of the value of ``expr`` in ``scope``, or None."""
        if isinstance(expr, ast.Name):
            bound = self._bindings(expr.id, scope)
            if not bound or (id(bound[0][2]), expr.id) in self.busy:
                return None
            self.busy.add((id(bound[0][2]), expr.id))
            found = {value if kind == "is" else self.producer(value, where) if kind == "value"
                     else self._item(self.producer(value, where)) if kind == "item" else None
                     for kind, value, where in bound}
            self.busy.discard((id(bound[0][2]), expr.id))
            return found.pop() if len(found) == 1 else None
        if isinstance(expr, ast.Call):
            return self._call(expr, scope)
        if isinstance(expr, ast.Attribute):
            cls = self.classes.get(self.producer(expr.value, scope))
            return self._annotation(cls[0].get(expr.attr)) if cls else None
        if isinstance(expr, ast.Subscript) and not isinstance(expr.slice, ast.Constant):
            return self._item(self.producer(expr.value, scope))
        return None

    def read(self, node, name: str) -> str:
        """What a read counts for: ``name`` (``.field`` or ``["key"]``) of
        the receiver's producer when it has such a field or keys, else the
        bare ``name``."""
        receiver = node.func.value if isinstance(node, ast.Call) else node.value
        producer = self.producer(receiver, self.scope_of[id(node)])
        if name.startswith("."):
            return producer + name if name[1:] in self.classes.get(producer, ({},))[0] else name
        return producer + name if producer in self.dicts else name


def _referenced(nodes, producers: _Producers) -> set:
    """Names the nodes read: ``name`` for a bare name, ``.name`` for an
    attribute access, ``["key"]`` for a string key read by subscript or by
    ``.get``, and ``*name`` for a dict taken whole (``list(d)``,
    ``d.values()``, ``d.items()``, ``d.keys()``, a loop over d) whose
    expression ends in ``name`` (see _label).  A field or key read whose
    receiver ``producers`` resolves counts only for that producer's field
    or key (``module.Class.name``, ``module.function["key"]``).  A loop over
    a literal tuple whose variable keys such a read reads every string of
    the tuple.  A dict comprehension over ``d.items()`` copies d's keys
    rather than reading them."""
    names, copies = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(producers.read(sub, "." + sub.attr))
            if isinstance(_key(sub), ast.Constant):
                names |= {producers.read(sub, key) for key in _strings(_key(sub))}
            if isinstance(sub, ast.DictComp):
                copies |= {id(loop.iter) for loop in sub.generators}
            for loop in [sub] if isinstance(sub, ast.For) else getattr(sub, "generators", []):
                drawn = {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
                if isinstance(loop.iter, (ast.Tuple, ast.List)):
                    names |= {producers.read(n, key) for n in ast.walk(sub)
                              if getattr(_key(n), "id", None) in drawn for key in _strings(loop.iter)}
            whole = _taken_whole(sub)
            if whole is not None and id(sub) not in copies:
                names.add("*" + _label(whole))
    return names


def _package_functions(package: Path):
    """(module, qualified name, def node, is method) of every function and
    method defined at the top of a package module or of its classes."""
    for path in sorted(package.glob("*.py")):
        for node in _tree(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node.name, node, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path.stem, f"{node.name}.{item.name}", item, True


def _outputs(package: Path):
    """(label, names that read it) for every output of the package: each
    dataclass field, read by ``.field``, and each string key of a dict
    display in a package function, read by ``["key"]`` or by taking the dict
    whole under a name it is bound to.  That name is the variable it is
    assigned to, the key or keyword it is passed under, or else the function
    itself, which returns it directly or through a list.  A display that is
    subscripted in place is a lookup table, not an output."""
    for path in sorted(package.glob("*.py")):
        for node in _tree(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(_label(d) == "dataclass" for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{path.stem}.{node.name}.{item.target.id}", {"." + item.target.id}
    for module, qualname, fn, _ in _package_functions(package):
        parents = {id(child): node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(fn):
            parent = parents.get(id(node))
            if not isinstance(node, ast.Dict) or isinstance(parent, (ast.Attribute, ast.Subscript)):
                continue
            if isinstance(parent, ast.Assign):
                bound = {t.id for t in parent.targets if isinstance(t, ast.Name)}
            elif isinstance(parent, ast.keyword):
                bound = {parent.arg}
            elif isinstance(parent, ast.Dict):
                bound = {k.value for k, v in zip(parent.keys, parent.values) if v is node}
            else:
                bound = {fn.name}
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield f'{module}.{qualname}["{key.value}"]', {f'["{key.value}"]'} | {"*" + b for b in bound}


def unreached_public_names(repo: Path, held=HELD) -> list:
    """Public functions, classes, methods, dataclass fields and returned dict
    keys of the package that no root reaches, following referenced names
    through the package's definitions.  A top-level function or class is
    reached by its bare name or by an attribute access (``module.name``); a
    method or a field only by an attribute access, so a local variable that
    shares its name reaches nothing; a dict key as :func:`_outputs` says.
    A field or key read whose receiver :class:`_Producers` resolves counts
    only for that producer's field or key.
    A ``held`` function seeds the walk as a root would, and no ``held``
    name, nor an output of a held function, is reported."""
    package = repo / "src" / "adiabatic_lab"
    outputs = list(_outputs(package))
    producers = _Producers(package, _roots(repo), outputs)
    bodies, seeds = {}, set()
    for path in sorted(package.glob("*.py")):
        for node in _tree(path.read_text()).body:
            if isinstance(node, ast.ClassDef):  # its dunder methods run when it is used
                rest = [n for n in node.body if not isinstance(n, ast.FunctionDef) or n.name.startswith("__")]
                bodies.setdefault(node.name, []).append((f"{path.stem}.{node.name}", rest + node.bases + node.decorator_list))
            elif not isinstance(node, ast.FunctionDef):
                seeds |= _referenced([node], producers)  # runs on import
    for module, qualname, node, method in _package_functions(package):
        bodies.setdefault("." * method + node.name, []).append((f"{module}.{qualname}", [node]))
    held_defs = {name.split("(")[0] for name in held}
    seeds |= {name for name, defs in bodies.items() for label, _ in defs if label in held_defs}
    for root in _roots(repo):
        seeds |= _referenced([_tree(root.read_text())], producers)
    reached, todo = set(), list(seeds)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, nodes in bodies.get(name, []):
                todo += _referenced(nodes, producers) - reached
            if name.startswith("."):
                todo.append(name[1:])
    unreached = [label for name, defs in bodies.items() for label, _ in defs
                 if name not in reached and not name.lstrip(".").startswith("_")]
    unreached += [label for label, readers in outputs if not (readers | {label}) & reached
                  and not re.search(r'[.\["]_', label) and label.split("[")[0] not in held]
    return sorted(label for label in unreached if label not in held)


def unset_public_options(repo: Path, held=HELD) -> list:
    """Defaulted parameters of public package functions and methods that no
    call in the package or in the roots sets, by keyword or by position.
    No ``held`` option, nor an option of a held function, is reported."""
    package = repo / "src" / "adiabatic_lab"
    calls = {}
    for path in sorted(package.glob("*.py")) + list(_roots(repo)[1:]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = []
    for module, qualname, fn, method in _package_functions(package):
        if any(part.startswith("_") for part in qualname.split(".")) or f"{module}.{fn.name}" in held:
            continue
        positional = fn.args.posonlyargs + fn.args.args
        options = [(a.arg, i) for i, a in enumerate(positional) if i >= len(positional) - len(fn.args.defaults)]
        options += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        for arg, index in options:
            def sets(call):
                if any(kw.arg in (arg, None) for kw in call.keywords):
                    return True
                if index is None:
                    return False
                shift = 1 if method and isinstance(call.func, ast.Attribute) else 0
                return len(call.args) > index - shift or any(isinstance(a, ast.Starred) for a in call.args)

            label = f"{module}.{fn.name}({arg}=)"
            if label not in held and not any(sets(call) for call in calls.get(fn.name, [])):
                unset.append(label)
    return unset


def test_every_public_name_is_reached_from_a_root():
    unreached = [name for name in unreached_public_names(REPO) if name not in SIDECAR]
    assert not unreached, unreached


def test_output_guard_read_rules(tmp_path):
    """On a small package: a field is read by attribute, a key by subscript,
    by ``.get``, by a loop over a literal tuple whose variable keys a read,
    or by taking its dict whole; a loop whose variable keys nothing reads
    nothing, and a dict comprehension over ``d.items()`` only copies d.  A
    read on a receiver of known producer counts only for that producer's
    field or key; a read on an unresolved receiver counts by name."""
    package = tmp_path / "src" / "adiabatic_lab"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\n"
        "class Report:\n"
        "    read: float\n"
        "    unread: float\n"
        "    notes: dict\n\n"
        "    def copy(self):\n"
        "        return Report(self.read, 0.0, notes={k: v for k, v in self.notes.items()})\n\n\n"
        "@dataclass\n"
        "class Other:\n"
        "    read: float\n"
        "    shared: float\n\n\n"
        "def report():\n"
        "    return Report(1.0, 2.0, notes={'note': 1})\n\n\n"
        "def other() -> Other:\n"
        "    return Other(1.0, 2.0)\n\n\n"
        "def run():\n"
        "    checks = {'whole': True}\n"
        "    return {'sub': 1, 'got': 2, 'looped': 3, 'checks': checks, 'unread_key': 4}\n\n\n"
        "def run2():\n"
        "    return [{'sub': 5}]\n"
    )
    (package / "cli.py").write_text(
        "from . import m\n\n\n"
        "def show(item):\n"
        "    return item.shared\n\n\n"
        "def main():\n"
        "    rep, out = m.report().copy(), m.run()\n"
        "    for name in ('unread_key',):\n"
        "        print(name)\n"
        "    print(show(m.other()), m.run2())\n"
        "    return rep.read, rep.notes, out['sub'], out.get('got'), [out[k] for k in ('looped',)], list(out['checks'])\n"
    )
    for root in ("tests/test_acceptance.py", "bench/workloads.py"):
        (tmp_path / root).parent.mkdir()
        (tmp_path / root).write_text("from adiabatic_lab.cli import main\nmain()\n")
    assert unreached_public_names(tmp_path, held={}) == [
        'm.Other.read', 'm.Report.unread', 'm.report["note"]', 'm.run2["sub"]', 'm.run["unread_key"]']


def test_held_and_sidecar_entries_exist_and_are_unreached():
    """An entry that no longer names anything, or that a root now reaches,
    is stale: it has to leave its list."""
    flagged = set(unreached_public_names(REPO, held={})) | set(unset_public_options(REPO, held={}))
    stale = sorted((set(HELD) | set(SIDECAR)) - flagged)
    assert not stale, stale


def test_every_public_option_is_set_by_some_caller():
    unset = unset_public_options(REPO)
    assert not unset, unset


# Bare backticked README words that are none of the package's names: notation,
# LAPACK and resource names, a theorem-check result key and the validate command.
README_WORDS = {"J", "expm", "filterwarnings", "geev", "ru_maxrss", "satisfied", "validate"}


def _package_names(modules) -> set:
    """The package's modules and module attributes, and the methods, fields
    and parameters of its public functions and classes."""
    names = set(modules)
    for module in modules:
        mod = importlib.import_module(f"adiabatic_lab.{module}")
        for name, value in vars(mod).items():
            names.add(name)
            if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(value):
                names |= set(vars(value)) | set(getattr(value, "__dataclass_fields__", ()))
                members = [m for m in vars(value).values() if inspect.isfunction(m)]
            else:
                members = [value] if inspect.isfunction(value) else []
            for fn in members:
                names |= set(inspect.signature(fn).parameters)
    return names


def test_readme_module_names_resolve():
    """Every backticked `module.name` of README.md names a package attribute,
    and every bare backticked name is a package name (see _package_names), a
    builtin, a numpy name, a scenario or config key, or in README_WORDS."""
    text = (REPO / "README.md").read_text()
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    refs = re.findall(r"`(" + "|".join(modules) + r")\.(\w+)", text)
    missing = [f"{m}.{n}" for m, n in refs if not hasattr(importlib.import_module(f"adiabatic_lab.{m}"), n)]
    config = set(SCENARIOS) | {p.key for params in SCENARIOS.values() for p in params}
    known = _package_names(modules) | set(dir(builtins)) | set(dir(np)) | set(dir(np.linalg)) | config
    stale = sorted(set(re.findall(r"`([A-Za-z_]\w*)`", text)) - known - README_WORDS)
    assert refs and not missing and not stale, (missing, stale)


def test_every_schedule_built_in_the_package_is_vectorized():
    built, scalar = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if not isinstance(node, ast.Call) or getattr(func, "id", getattr(func, "attr", None)) != "Schedule":
                continue
            built += 1
            flag = {kw.arg: kw.value for kw in node.keywords}.get("vectorized")
            if not (isinstance(flag, ast.Constant) and flag.value is True):
                scalar.append(f"{path.name}:{node.lineno}")
    assert built and not scalar, scalar
