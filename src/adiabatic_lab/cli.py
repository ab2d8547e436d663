"""Command-line scenario runner.

Each subcommand reproduces one study's data as a deterministic CSV (or,
for ``pulses``, a pulse-program listing): a ``#`` comment block echoing
the effective configuration, a header row, then data rows.  Reruns with
the same configuration produce identical bytes.

Units at this boundary are Hz and seconds (flag names say so); angular
frequencies in rad/s are formed at ingestion.  Plain rates (1/s) are
taken as given.  Configuration files are INI: one section per
subcommand, keys equal to the long flag names with dashes as
underscores; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import adcheck as _adcheck
from . import battery as _battery
from . import openad as _openad
from . import thermo as _thermo
from . import tqd as _tqd
from .dynamics import READOUT_BLOCK, IntegrationError

MIN_GRID = 100

RAMPS: dict[str, Callable[[float], float]] = {
    "linear": lambda s: s,
    "sin2": lambda s: math.sin(0.5 * math.pi * s) ** 2,
    "smooth": lambda s: s * s * (3.0 - 2.0 * s),
}


# ---------------------------------------------------------------------------
# parameter schema


@dataclass(frozen=True)
class Param:
    name: str
    kind: str  # float | int | str | flag | floats (comma list) | range (a:b:step)
    default: object
    help: str
    required: bool = False
    choices: tuple | None = None
    low: tuple | None = None  # (">", x) or (">=", x); list kinds bound every entry

    @property
    def key(self) -> str:
        """Config-key spelling of the flag name."""
        return self.name.replace("-", "_")


POS, NONNEG, GRID = (">", 0), (">=", 0), (">=", MIN_GRID)


def _parse_value(p: Param, raw: str):
    if p.kind == "float":
        return float(raw)
    if p.kind == "int":
        return int(raw)
    if p.kind == "flag":
        return raw.strip().lower() in ("1", "true", "yes", "on")
    if p.kind == "floats":
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if p.kind == "range":
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {raw!r}")
        return tuple(float(x) for x in parts)
    return raw


def _range_count(rng: tuple) -> float:
    """Number of points of start:stop:step (step > 0), or +-inf if it overflows."""
    start, stop, step = rng
    span = (stop - start) / step + 1e-9
    return math.floor(span) + 1 if math.isfinite(span) else span


def _range_values(rng: tuple) -> list[float]:
    """Points of start:stop:step; ``check_config`` has vetted the count."""
    start, _, step = rng
    return [start + k * step for k in range(_range_count(rng))]


SCENARIOS: dict[str, list[Param]] = {
    "adcheck": [
        Param("model", "str", "oscillating", "driving model", choices=("nmr", "oscillating")),
        Param("frame", "str", "noninertial", "reference frame: nmr uses lab/rotating, "
              "oscillating uses inertial/noninertial",
              choices=("lab", "rotating", "inertial", "noninertial")),
        Param("omega0-hz", "float", 1.0e4, "level-splitting frequency omega0/2pi (Hz)", low=POS),
        Param("omega1-hz", "float", 0.5e4, "transverse drive frequency omega1/2pi (Hz, nmr model)"),
        Param("theta-rad", "float", 0.03, "drive angle theta (rad, oscillating model)"),
        Param("r-sweep", "range", (0.0, 3.0, 0.05), "sweep of r = omega/omega0 as start:stop:step"),
        Param("tau-s", "float", 1.0e-3, "protocol duration (s)", low=POS),
        Param("n-points", "int", 301, "frame grid size", low=GRID),
    ],
    "deutsch": [
        Param("balanced", "flag", None, "use a balanced function pair (f0, f1) = (0, 1)"),
        Param("constant", "flag", None, "use a constant function pair (f0, f1) = (0, 0)"),
        Param("f0", "int", 0, "f(0) in {0, 1}", choices=(0, 1)),
        Param("f1", "int", 1, "f(1) in {0, 1}", choices=(0, 1)),
        Param("omega-hz", "float", 1.0e4, "drive frequency omega/2pi (Hz)", low=POS),
        Param("gamma", "float", 0.1, "dephasing rate as a fraction of omega (dimensionless)", low=NONNEG),
        Param("tau-ladder", "int", 8, "number of runs on the geometric ladder ending at 100/omega",
              low=(">=", 2)),
        Param("n-steps", "int", 2000, "integrator steps per run", low=GRID),
    ],
    "heat": [
        Param("omega-pev", "float", 82.662, "qubit gap (peV)", low=POS),
        Param("beta-inv-pev", "float", 17.238, "bath temperature k_B T (peV)", low=POS),
        Param("gamma0-list", "floats", (314.0, 628.0, 1257.0), "dephasing base rates (1/s), comma separated",
              low=NONNEG),
        Param("tau-dec-s", "float", 1.0e-3, "run duration (s); the rate doubles over it", low=POS),
        Param("n-steps", "int", 2000, "integrator steps", low=GRID),
    ],
    "lz-tqd": [
        Param("intensities", "flag", None, "emit the field-intensity ladder (default output)"),
        Param("delta-hz", "float", 2000.0, "gap scale delta/2pi (Hz)", low=POS),
        Param("theta0-rad", "float", math.pi / 3, "sweep angle at s = 1 (rad); theta(s) = theta0 s"),
        Param("tau-min-s", "float", 1.0e-5, "smallest duration (s)", low=POS),
        Param("tau-max-s", "float", 1.0e-3, "largest duration (s)", low=POS),
        Param("n-tau", "int", 25, "ladder size (geometric)", low=(">=", 1)),
        Param("n-quad", "int", 2001, "quadrature grid", low=GRID),
    ],
    "nmr-tqd": [
        Param("omega0-hz", "float", 1.0e4, "level-splitting frequency omega0/2pi (Hz)", low=POS),
        Param("omega1-hz", "float", 1.0e4, "transverse drive frequency omega1/2pi (Hz)", low=POS),
        Param("omega-sweep", "range", (2000.0, 40000.0, 2000.0), "rotation frequency sweep (Hz) start:stop:step"),
    ],
    "gate": [
        Param("axis", "floats", (0.0, 0.0, 1.0), "rotation axis (unnormalized), comma separated"),
        Param("phi-rad", "float", math.pi, "rotation angle (rad)"),
        Param("phi0-rad", "float", math.pi, "ancilla sweep angle (rad)"),
        Param("nu-hz", "float", 35.0, "ancilla sweep frequency (Hz)", low=POS),
        Param("variant", "str", "optimal", "driving variant", choices=_tqd.VARIANTS),
        Param("controlled", "flag", None, "prepend a control qubit"),
        Param("tau-list", "floats", (1.0e-4, 1.0e-3, 1.0e-2), "durations (s), comma separated", low=POS),
        Param("n-steps", "int", 2000, "integrator steps per run", low=GRID),
    ],
    "pulses": [
        Param("variant", "str", "optimal", "program variant", choices=_tqd.VARIANTS),
        Param("n-blocks", "int", 8, "number of decomposition blocks (ignored for optimal)",
              low=(">=", 1)),
        Param("tau-s", "float", None, "protocol duration (s)", required=True, low=POS),
        Param("nu-hz", "float", 35.0, "sweep frequency (Hz)", low=POS),
        Param("j-hz", "float", 215.0, "scalar coupling J (Hz)", low=POS),
    ],
    "battery-stirap": [
        Param("protocol", "str", "stable", "drive ordering", choices=("stable", "unstable")),
        Param("rabi-hz", "float", 1000.0, "peak drive frequency Omega0/2pi (Hz)", low=POS),
        Param("omega0tau", "float", 20.0, "dimensionless duration Omega0 tau", low=POS),
        Param("level2", "float", 1.0, "middle level (units of Omega0)"),
        Param("level3", "float", 1.95, "top level (units of Omega0)"),
        Param("gamma0", "float", 0.0, "noise strength Gamma0 (dimensionless)", low=NONNEG),
        Param("n-steps", "int", 2000, "integrator steps", low=GRID),
    ],
    "battery-cells": [
        Param("ramp", "str", "linear", "interpolation shape", choices=tuple(RAMPS)),
        Param("j-hz", "float", 100.0, "exchange coupling J/2pi (Hz)", low=POS),
        Param("omega0-hz", "float", 100.0, "hub splitting omega0/2pi (Hz)", low=POS),
        Param("jtau", "float", 80.0, "dimensionless duration J tau (J in rad/s)", low=POS),
        Param("n-steps", "int", 4000, "integrator steps", low=GRID),
    ],
}

# Constraints a single bound cannot state: (scenario, keys read, predicate
# on their values that must hold, message).  A rule runs only when every
# key it reads is set and passed its own checks.
RULES: list[tuple[str, tuple[str, ...], Callable[..., bool], str]] = [
    ("adcheck", ("model", "frame"), lambda model, frame: model != "nmr" or frame in ("lab", "rotating"),
     "nmr model uses frame in {lab, rotating}"),
    ("adcheck", ("model", "frame"),
     lambda model, frame: model != "oscillating" or frame in ("inertial", "noninertial"),
     "oscillating model uses frame in {inertial, noninertial}"),
    ("deutsch", ("balanced", "constant"), lambda balanced, constant: not (balanced and constant),
     "balanced and constant are mutually exclusive"),
    ("lz-tqd", ("tau_min_s", "tau_max_s"), lambda lo, hi: hi >= lo, "tau_max_s must be >= tau_min_s"),
    ("lz-tqd", ("theta0_rad",), lambda theta0: 0 < abs(theta0) < 0.5 * math.pi,
     "theta0_rad must lie in (0, pi/2) up to sign"),
    ("gate", ("axis",), lambda axis: len(axis) == 3 and any(abs(a) >= 1e-12 for a in axis),
     "axis must be a nonzero 3-vector"),
    ("pulses", ("variant", "tau_s", "j_hz"), lambda variant, tau, j: variant != "optimal" or tau >= 1.0 / j,
     "optimal variant needs tau_s >= 1/j_hz (echo delay)"),
    ("battery-stirap", ("level2", "level3"), lambda level2, level3: 0 < level2 < level3,
     "levels must satisfy 0 < level2 < level3"),
]


# ---------------------------------------------------------------------------
# configuration merge and validation


def _read_ini(path: str) -> dict[str, dict]:
    """Sections of an INI file as plain dicts."""
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _merge_config(name: str, cli_values: dict, file_values: dict) -> dict:
    """Defaults, then file values, then explicit flags (other keys ignored)."""
    params = {p.key: p for p in SCENARIOS[name]}
    merged = {key: p.default for key, p in params.items()}
    for raw_key, raw in file_values.items():
        key = raw_key.replace("-", "_")
        if key not in params:
            raise ValueError(f"unknown parameter {raw_key!r} for scenario {name!r}")
        merged[key] = _parse_value(params[key], raw)
    for key, val in cli_values.items():
        if key in params and val is not None:
            merged[key] = val
    return merged


def _bound_words(low: tuple) -> str:
    op, bound = low
    if bound == 0:
        return "positive" if op == ">" else "non-negative"
    return f"at least {bound}" if op == ">=" else f"greater than {bound}"


def _value_problem(p: Param, val) -> str | None:
    """What is wrong with one parameter's value on its own, or None."""
    if p.choices and val not in p.choices:
        return f"must be one of {p.choices}, got {val!r}"
    listed = p.kind in ("floats", "range")
    entries = val if listed else (val,)
    noun = "entries " if listed else ""
    if p.kind in ("float", "floats", "range") and not all(math.isfinite(v) for v in entries):
        return noun + "must be finite"
    if p.kind == "floats" and not val:
        return "must list at least one value"
    if p.kind == "range":
        if val[2] <= 0:
            return "step must be positive"
        count = _range_count(val)
        if count < 1:
            return "is empty: stop lies below start"
        if not math.isfinite(count):
            return "has too many points to count"
    if p.low and any(v <= p.low[1] if p.low[0] == ">" else v < p.low[1] for v in entries):
        return f"{noun}must be {_bound_words(p.low)}"
    return None


def check_config(name: str, cfg: dict) -> list[str]:
    """Constraint report for a merged configuration; empty means valid."""
    problems: list[str] = []
    passed: set[str] = set()
    params = {p.key: p for p in SCENARIOS[name]}
    for key, p in params.items():
        val = cfg.get(key)
        if val is None:
            if p.required:
                problems.append(f"missing required parameter {key}")
            continue
        problem = _value_problem(p, val)
        if problem:
            problems.append(f"{key} {problem}")
        else:
            passed.add(key)
    problems += [f"unknown parameter {key}" for key in cfg if key not in params]
    for scenario, keys, holds, message in RULES:
        if scenario == name and passed.issuperset(keys) and not holds(*(cfg[k] for k in keys)):
            problems.append(message)
    return problems


def _configure(name: str, cli_values: dict, file_values: dict) -> tuple[dict, list]:
    """Merged configuration and its problems; no problems means valid."""
    try:
        cfg = _merge_config(name, cli_values, file_values)
    except ValueError as exc:
        return {}, [str(exc)]
    return cfg, check_config(name, cfg)


# ---------------------------------------------------------------------------
# scenario runners: each returns (extra_comments, header, rows) or raw text


def _run_adcheck(cfg: dict):
    """One row per drive ratio r.  A point the study refuses with a
    ValueError (the closed gap at r = 1, say) becomes a row of NaNs and the
    sweep goes on; an ArithmeticError means a hopeless configuration and
    ends the run through :func:`main`, with one ``error:`` line."""
    w0 = 2.0 * math.pi * cfg["omega0_hz"]
    w1 = 2.0 * math.pi * cfg["omega1_hz"]
    tau, n_points = cfg["tau_s"], cfg["n_points"]
    model, frame_kind = cfg["model"], cfg["frame"]
    r_values = _range_values(cfg["r_sweep"])

    def kit_for(r: float):
        w = r * w0
        if model == "nmr":
            if frame_kind == "rotating":
                return _adcheck.nmr_rotating_frame(w0, w1, w, tau, n_points=n_points)
            return _adcheck.nmr_rotating(w0, w1, w, tau, n_points=n_points)
        if frame_kind == "noninertial":
            return _adcheck.oscillating_noninertial(w0, cfg["theta_rad"], w, tau, n_points=n_points)
        return _adcheck.oscillating(w0, cfg["theta_rad"], w, tau, n_points=n_points)

    def point(r: float):
        try:
            kit = kit_for(r)
            frame, hdot = kit.frame, _adcheck.hdot_samples(kit)
            return (
                r,
                _adcheck.c_trad(frame, hdot),
                _adcheck.c_tong(frame, hdot),
                _adcheck.c_wu(frame),
                _adcheck.c_ar(frame, hdot),
            )
        except ValueError:
            return (r, math.nan, math.nan, math.nan, math.nan)

    rows = [point(r) for r in r_values]
    return [], ["r", "c_trad", "c_tong", "c_wu", "c_ar"], rows


def _run_deutsch(cfg: dict):
    if cfg.get("balanced"):
        f_values = (0, 1)
    elif cfg.get("constant"):
        f_values = (0, 0)
    else:
        f_values = (cfg["f0"], cfg["f1"])
    omega = 2.0 * math.pi * cfg["omega_hz"]
    gamma = cfg["gamma"] * omega
    n = cfg["tau_ladder"]
    taus = [(100.0 / omega) * 2.0 ** (k - n + 1) for k in range(n)]

    results = _openad.deutsch_scenario(f_values, omega, gamma, taus, n_steps=cfg["n_steps"])
    rows = [(tau, float(res["f_os"][-1]), float(res["f_cs"][-1])) for tau, res in zip(taus, results)]
    return [f"f_values={f_values[0]}{f_values[1]}"], ["tau_s", "f_os", "f_cs"], rows


def _run_heat(cfg: dict):
    omega = _thermo.ev_to_rads(cfg["omega_pev"] * 1e-12)
    beta = 1.0 / _thermo.ev_to_rads(cfg["beta_inv_pev"] * 1e-12)
    tau = cfg["tau_dec_s"]

    gammas = cfg["gamma0_list"]
    results = _thermo.dephasing_heat_scenario(
        omega, beta, [lambda s, g=gamma0: g * (1.0 + s) for gamma0 in gammas], tau, n_steps=cfg["n_steps"]
    )
    rows = [
        (gamma0, *(_thermo.rads_to_ev(res[key]) * 1e12 for key in ("q_total", "q_closed", "q_asymptote")))
        for gamma0, res in zip(gammas, results)
    ]
    return (
        [f"q_max_pev={_thermo.rads_to_ev(omega * math.tanh(beta * omega)) * 1e12!r}"],
        ["gamma0_per_s", "q_pev", "q_closed_pev", "q_asymptote_pev"],
        rows,
    )


def _run_lz_tqd(cfg: dict):
    delta = 2.0 * math.pi * cfg["delta_hz"]
    theta0 = cfg["theta0_rad"]
    taus = np.geomspace(cfg["tau_min_s"], cfg["tau_max_s"], cfg["n_tau"])
    results = _tqd.lz_intensities(lambda s: theta0 * s, delta, taus, n_quad=cfg["n_quad"])
    rows = [(float(tau), res["i_std"], res["i_opt"]) for tau, res in zip(taus, results)]
    return [f"tau_b_s={results[0]['tau_b']!r}"], ["tau_s", "i_std", "i_opt"], rows


def _run_nmr_tqd(cfg: dict):
    w0 = 2.0 * math.pi * cfg["omega0_hz"]
    w1 = 2.0 * math.pi * cfg["omega1_hz"]

    def point(f: float):
        norms = _tqd.nmr_tqd_field_norms(w0, w1, 2.0 * math.pi * f)
        return (f, norms["b0"], norms["b_opt"], norms["b_std"], norms["ratio"])

    rows = [point(f) for f in _range_values(cfg["omega_sweep"])]
    return [], ["omega_hz", "b0_rads", "b_opt_rads", "b_std_rads", "ratio"], rows


def _run_gate(cfg: dict):
    axis = list(cfg["axis"])
    phi, phi0 = cfg["phi_rad"], cfg["phi0_rad"]
    omega = 2.0 * math.pi * cfg["nu_hz"]
    controlled = bool(cfg.get("controlled"))
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    register = np.kron(plus, plus) if controlled else plus

    sweep = _tqd.controlled_gate_schedule(
        axis, phi, phi0, omega, cfg["tau_list"], variant=cfg["variant"], controlled=controlled
    )
    results = _tqd.gate_run(sweep, register, axis, phi, cfg["n_steps"], controlled=controlled)
    rows = [(tau, res["success_prob"], res["fidelity"]) for tau, res in zip(cfg["tau_list"], results)]
    return [], ["tau_s", "success_prob", "fidelity"], rows


def _run_pulses(cfg: dict) -> str:
    seq = _tqd.compile_pulse_sequence(
        cfg["variant"], cfg["n_blocks"], cfg["tau_s"], cfg["nu_hz"], cfg["j_hz"]
    )
    return _tqd.serialize_pulse_sequence(seq)


def _run_battery_stirap(cfg: dict):
    om = 2.0 * math.pi * cfg["rabi_hz"]
    tau = cfg["omega0tau"] / om
    spectrum = (0.0, cfg["level2"] * om, cfg["level3"] * om)
    if cfg["protocol"] == "stable":
        o12, o23 = _battery.stable_protocol(om)
    else:
        o12, o23 = _battery.unstable_protocol(om)
    noise = _battery.stirap_noise_model(cfg["gamma0"], om) if cfg["gamma0"] > 0 else None
    rep = _battery.stirap_charge(
        o12, o23, spectrum, tau, noise=noise, n_steps=cfg["n_steps"], protocol=cfg["protocol"]
    )
    rows = _column_rows(rep.times, rep.ergotropy, rep.power, *rep.populations.T)
    extra = [
        f"e_max_rads={spectrum[2] - spectrum[0]!r}",
        f"p_max_norm={rep.p_max_norm!r}",
        f"tail_max_power={rep.tail_max_power!r}",
    ]
    return extra, ["t_s", "ergotropy_rads", "power", "pop1", "pop2", "pop3"], rows


def _run_battery_cells(cfg: dict):
    j_rad = 2.0 * math.pi * cfg["j_hz"]
    tau = cfg["jtau"] / j_rad
    rep = _battery.two_cell_discharge(
        RAMPS[cfg["ramp"]],
        j_rad,
        2.0 * math.pi * cfg["omega0_hz"],
        tau,
        n_steps=cfg["n_steps"],
    )
    rows = _column_rows(rep.times, rep.charge, rep.power, rep.parity)
    extra = [
        f"c_max_rads={rep.c_max!r}",
        f"tail_max_power={rep.tail_max_power!r}",
        f"peak_power={rep.peak_power!r}",
    ]
    return extra, ["t_s", "charge_rads", "power", "parity"], rows


RUNNERS = {
    "adcheck": _run_adcheck,
    "deutsch": _run_deutsch,
    "heat": _run_heat,
    "lz-tqd": _run_lz_tqd,
    "nmr-tqd": _run_nmr_tqd,
    "gate": _run_gate,
    "pulses": _run_pulses,
    "battery-stirap": _run_battery_stirap,
    "battery-cells": _run_battery_cells,
}


# ---------------------------------------------------------------------------
# output


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _column_rows(*columns: np.ndarray):
    """The rows of equal-length 1-D columns, as tuples of Python floats
    (whose repr the table prints; a numpy scalar's differs), converted
    ``READOUT_BLOCK`` rows at a time as the writer takes them."""
    for a in range(0, len(columns[0]), READOUT_BLOCK):
        yield from zip(*(col[a:a + READOUT_BLOCK].tolist() for col in columns))


def _write_csv(out, name: str, cfg: dict, extra: list[str], header: list[str], rows) -> None:
    """Write the table to the open text stream ``out``: the comment lines and
    the header, then each row as it is rendered, so the table is never held
    whole."""
    lines = [f"# adiabatic-lab {name}"]
    for key in sorted(cfg):
        lines.append(f"# {key}={_fmt(cfg[key])}")
    for note in extra:
        lines.append(f"# {note}")
    lines.append(",".join(header))
    out.write("\n".join(lines) + "\n")
    out.writelines(",".join(map(repr, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call and reused
    by every later call in the process: it is a pure function of the
    constant ``SCENARIOS`` table, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="adiabatic-lab",
        description="Deterministic scenario runner for driven closed- and "
        "open-system adiabatic studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, params in SCENARIOS.items():
        sp = sub.add_parser(name, help=f"run the {name} scenario")
        sp.add_argument("--config", help="INI file; section [%s] supplies defaults" % name)
        sp.add_argument("--out", help="output path (default stdout)")
        for p in params:
            text = f"{p.help} ({p.low[0]} {p.low[1]})" if p.low else p.help
            if p.kind == "flag":
                sp.add_argument(f"--{p.name}", action="store_const", const=True, help=text)
            else:
                parse = {"int": int, "float": float}.get(p.kind, lambda raw, _p=p: _parse_value(_p, raw))
                sp.add_argument(f"--{p.name}", type=parse, help=text)
    vp = sub.add_parser("validate", help="check a configuration file without running")
    vp.add_argument("--config", required=True, help="INI file to check")
    vp.add_argument("--scenario", help="restrict the check to one section")
    return parser


def _run_validate(args: argparse.Namespace) -> int:
    ini = _read_ini(args.config)
    failed = False
    for section in [args.scenario] if args.scenario else list(ini):
        if section in SCENARIOS:
            _, problems = _configure(section, {}, ini.get(section, {}))
        else:
            problems = ["unknown scenario"]
        for msg in problems or ["ok"]:
            print(f"{section}: {msg}")
        failed = failed or bool(problems)
    return 2 if failed else 0


def _fail(problems: list) -> int:
    for msg in problems:
        print(f"error: {msg}", file=sys.stderr)
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return _run_validate(args)

    name = args.command
    file_values = _read_ini(args.config).get(name, {}) if args.config else {}
    cfg, problems = _configure(name, vars(args), file_values)
    if problems:
        return _fail(problems)

    try:
        result = RUNNERS[name](cfg)
    except IntegrationError as exc:
        return _fail([f"{exc}; increase --n-steps"])
    except ValueError as exc:
        return _fail([exc])
    except ArithmeticError as exc:  # a float that underflowed to 0 or overflowed past range
        return _fail([f"{type(exc).__name__}: {exc}"])
    sink = open(args.out, "w", encoding="utf-8", newline="\n") if args.out else contextlib.nullcontext(sys.stdout)
    with sink as out:
        if isinstance(result, str):
            out.write(result)
        else:
            _write_csv(out, name, cfg, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
