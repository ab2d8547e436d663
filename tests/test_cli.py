import ast
import builtins
import importlib
import inspect
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adiabatic_lab.cli import SCENARIOS, _merge_config, check_config, main
from adiabatic_lab.dynamics import IntegrationError
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
                     "OverflowError: ", id="adcheck-overflow"),
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
# are exempt with it.
HELD = {
    "openad.jordan_block_coefficient_ode": "the Jordan-block coefficient flow of the open-system theory",
    "openad.adiabatic_propagator_inverse_identities": "the forward/inverse propagator identities, with l_matrix",
    "openad.xi_coefficients(rho0=)": "the initial-state class result of the validity coefficients",
}


def _roots(repo: Path) -> tuple:
    """Every public name and option serves a claim reached from one of these:
    the CLI scenarios, the acceptance criteria and the benchmark workloads."""
    return (repo / "src" / "adiabatic_lab" / "cli.py", repo / "tests" / "test_acceptance.py",
            repo / "bench" / "workloads.py")


def _referenced(nodes) -> set:
    """Names the nodes read: ``name`` for a bare name and ``.name`` for an
    attribute access."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add("." + sub.attr)
    return names


def _package_functions(package: Path):
    """(module, qualified name, def node, is method) of every function and
    method defined at the top of a package module or of its classes."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node.name, node, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path.stem, f"{node.name}.{item.name}", item, True


def unreached_public_names(repo: Path) -> list:
    """Public functions, classes and methods of the package that no root
    reaches, following referenced names through the package's definitions.
    A top-level function or class is reached by its bare name or by an
    attribute access (``module.name``); a method only by an attribute
    access, so a local variable that shares a method's name reaches
    nothing."""
    package = repo / "src" / "adiabatic_lab"
    bodies, seeds = {}, {name.split(".")[1].split("(")[0] for name in HELD}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                rest = [n for n in node.body if not isinstance(n, ast.FunctionDef)]
                bodies.setdefault(node.name, []).append((f"{path.stem}.{node.name}", rest + node.bases + node.decorator_list))
            elif not isinstance(node, ast.FunctionDef):
                seeds |= _referenced([node])  # runs on import
    for module, qualname, node, method in _package_functions(package):
        bodies.setdefault("." * method + node.name, []).append((f"{module}.{qualname}", [node]))
    for root in _roots(repo):
        seeds |= _referenced([ast.parse(root.read_text())])
    reached, todo = set(), list(seeds)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, nodes in bodies.get(name, []):
                todo += _referenced(nodes) - reached
            if name.startswith("."):
                todo.append(name[1:])
    return sorted(label for name, defs in bodies.items() for label, _ in defs
                  if name not in reached and not name.lstrip(".").startswith("_") and label not in HELD)


def unset_public_options(repo: Path) -> list:
    """Defaulted parameters of public package functions and methods that no
    call in the package or in the roots sets, by keyword or by position."""
    package = repo / "src" / "adiabatic_lab"
    calls = {}
    for path in sorted(package.glob("*.py")) + list(_roots(repo)[1:]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = []
    for module, qualname, fn, method in _package_functions(package):
        if any(part.startswith("_") for part in qualname.split(".")) or f"{module}.{fn.name}" in HELD:
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
            if label not in HELD and not any(sets(call) for call in calls.get(fn.name, [])):
                unset.append(label)
    return unset


def test_every_public_name_is_reached_from_a_root():
    unreached = unreached_public_names(REPO)
    assert not unreached, unreached


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
