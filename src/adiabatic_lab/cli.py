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
from .dynamics import IntegrationError

MIN_GRID = 100


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


def _range_values(rng: tuple) -> list[float]:
    """Points of start:stop:step; ``check_config`` has vetted the step."""
    start, stop, step = rng
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(n)]


SCENARIOS: dict[str, list[Param]] = {
    "adcheck": [
        Param("model", "str", "oscillating", "driving model", choices=("nmr", "oscillating")),
        Param("frame", "str", "noninertial", "reference frame: nmr uses lab/rotating, "
              "oscillating uses inertial/noninertial",
              choices=("lab", "rotating", "inertial", "noninertial")),
        Param("omega0-hz", "float", 1.0e4, "level-splitting frequency omega0/2pi (Hz)"),
        Param("omega1-hz", "float", 0.5e4, "transverse drive frequency omega1/2pi (Hz, nmr model)"),
        Param("theta-rad", "float", 0.03, "drive angle theta (rad, oscillating model)"),
        Param("r-sweep", "range", (0.0, 3.0, 0.05), "sweep of r = omega/omega0 as start:stop:step"),
        Param("tau-s", "float", 1.0e-3, "protocol duration (s)"),
        Param("n-points", "int", 301, "frame grid size (>= 100)"),
    ],
    "deutsch": [
        Param("balanced", "flag", None, "use a balanced function pair (f0, f1) = (0, 1)"),
        Param("constant", "flag", None, "use a constant function pair (f0, f1) = (0, 0)"),
        Param("f0", "int", 0, "f(0) in {0, 1}"),
        Param("f1", "int", 1, "f(1) in {0, 1}"),
        Param("omega-hz", "float", 1.0e4, "drive frequency omega/2pi (Hz)"),
        Param("gamma", "float", 0.1, "dephasing rate as a fraction of omega (dimensionless)"),
        Param("tau-ladder", "int", 8, "number of runs on the geometric ladder ending at 100/omega"),
        Param("n-steps", "int", 2000, "integrator steps per run (>= 100)"),
    ],
    "heat": [
        Param("omega-pev", "float", 82.662, "qubit gap (peV)"),
        Param("beta-inv-pev", "float", 17.238, "bath temperature k_B T (peV)"),
        Param("gamma0-list", "floats", (314.0, 628.0, 1257.0), "dephasing base rates (1/s), comma separated"),
        Param("tau-dec-s", "float", 1.0e-3, "run duration (s); the rate doubles over it"),
        Param("n-steps", "int", 2000, "integrator steps (>= 100)"),
    ],
    "lz-tqd": [
        Param("intensities", "flag", None, "emit the field-intensity ladder (default output)"),
        Param("delta-hz", "float", 2000.0, "gap scale delta/2pi (Hz)"),
        Param("theta0-rad", "float", math.pi / 3, "sweep angle at s = 1 (rad); theta(s) = theta0 s"),
        Param("tau-min-s", "float", 1.0e-5, "smallest duration (s)"),
        Param("tau-max-s", "float", 1.0e-3, "largest duration (s)"),
        Param("n-tau", "int", 25, "ladder size (geometric)"),
        Param("n-quad", "int", 2001, "quadrature grid (>= 100)"),
    ],
    "nmr-tqd": [
        Param("omega0-hz", "float", 1.0e4, "level-splitting frequency omega0/2pi (Hz)"),
        Param("omega1-hz", "float", 1.0e4, "transverse drive frequency omega1/2pi (Hz)"),
        Param("omega-sweep", "range", (2000.0, 40000.0, 2000.0), "rotation frequency sweep (Hz) start:stop:step"),
    ],
    "gate": [
        Param("axis", "floats", (0.0, 0.0, 1.0), "rotation axis (unnormalized), comma separated"),
        Param("phi-rad", "float", math.pi, "rotation angle (rad)"),
        Param("phi0-rad", "float", math.pi, "ancilla sweep angle (rad)"),
        Param("nu-hz", "float", 35.0, "ancilla sweep frequency (Hz)"),
        Param("variant", "str", "optimal", "driving variant",
              choices=("adiabatic", "standard", "optimal")),
        Param("controlled", "flag", None, "prepend a control qubit"),
        Param("tau-list", "floats", (1.0e-4, 1.0e-3, 1.0e-2), "durations (s), comma separated"),
        Param("n-steps", "int", 2000, "integrator steps per run (>= 100)"),
    ],
    "pulses": [
        Param("variant", "str", "optimal", "program variant",
              choices=("adiabatic", "standard", "optimal")),
        Param("n-blocks", "int", 8, "number of decomposition blocks (ignored for optimal)"),
        Param("tau-s", "float", None, "protocol duration (s)", required=True),
        Param("nu-hz", "float", 35.0, "sweep frequency (Hz)"),
        Param("j-hz", "float", 215.0, "scalar coupling J (Hz)"),
    ],
    "battery-stirap": [
        Param("protocol", "str", "stable", "drive ordering", choices=("stable", "unstable")),
        Param("rabi-hz", "float", 1000.0, "peak drive frequency Omega0/2pi (Hz)"),
        Param("omega0tau", "float", 20.0, "dimensionless duration Omega0 tau"),
        Param("level2", "float", 1.0, "middle level (units of Omega0)"),
        Param("level3", "float", 1.95, "top level (units of Omega0)"),
        Param("gamma0", "float", 0.0, "noise strength Gamma0 (dimensionless)"),
        Param("n-steps", "int", 2000, "integrator steps (>= 100)"),
    ],
    "battery-cells": [
        Param("ramp", "str", "linear", "interpolation shape", choices=("linear", "sin2", "smooth")),
        Param("j-hz", "float", 100.0, "exchange coupling J/2pi (Hz)"),
        Param("omega0-hz", "float", 100.0, "hub splitting omega0/2pi (Hz)"),
        Param("jtau", "float", 80.0, "dimensionless duration J tau (J in rad/s)"),
        Param("n-steps", "int", 4000, "integrator steps (>= 100)"),
    ],
}

RAMPS: dict[str, Callable[[float], float]] = {
    "linear": lambda s: s,
    "sin2": lambda s: math.sin(0.5 * math.pi * s) ** 2,
    "smooth": lambda s: s * s * (3.0 - 2.0 * s),
}


# ---------------------------------------------------------------------------
# configuration merge and validation


def _load_config_section(path: str, section: str) -> dict:
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    if not parser.has_section(section):
        return {}
    return dict(parser.items(section))


def _merge_config(name: str, cli_values: dict, file_values: dict) -> dict:
    """Defaults, then file values, then explicit flags."""
    params = {p.name.replace("-", "_"): p for p in SCENARIOS[name]}
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


def check_config(name: str, cfg: dict) -> list[str]:
    """Constraint report for a merged configuration; empty means valid."""
    problems: list[str] = []
    params = {p.name.replace("-", "_"): p for p in SCENARIOS[name]}
    for key, p in params.items():
        val = cfg.get(key)
        if val is None:
            if p.required:
                problems.append(f"missing required parameter {key}")
            continue
        if p.choices and val not in p.choices:
            problems.append(f"{key} must be one of {p.choices}, got {val!r}")
        if p.kind == "float" and not math.isfinite(float(val)):
            problems.append(f"{key} must be finite")
        if p.kind in ("floats", "range") and not all(math.isfinite(v) for v in val):
            problems.append(f"{key} entries must be finite")
        elif p.kind == "range" and val[2] <= 0:
            problems.append(f"{key} step must be positive")
        elif p.kind == "range" and not _range_values(val):
            problems.append(f"{key} is empty: stop lies below start")
    for key in cfg:
        if key not in params:
            problems.append(f"unknown parameter {key}")

    def positive(key: str) -> None:
        val = cfg.get(key)
        if val is not None and val <= 0:
            problems.append(f"{key} must be positive")

    def grid(key: str) -> None:
        val = cfg.get(key)
        if val is not None and val < MIN_GRID:
            problems.append(f"{key} must be at least {MIN_GRID}")

    def nonempty(key: str) -> None:
        if cfg.get(key) is not None and not cfg[key]:
            problems.append(f"{key} must list at least one value")

    if name == "adcheck":
        positive("omega0_hz")
        positive("tau_s")
        grid("n_points")
        if cfg.get("model") == "nmr" and cfg.get("frame") in ("inertial", "noninertial"):
            problems.append("nmr model uses frame in {lab, rotating}")
        if cfg.get("model") == "oscillating" and cfg.get("frame") in ("lab", "rotating"):
            problems.append("oscillating model uses frame in {inertial, noninertial}")
    elif name == "deutsch":
        positive("omega_hz")
        grid("n_steps")
        if cfg.get("gamma") is not None and cfg["gamma"] < 0:
            problems.append("gamma must be non-negative")
        for key in ("f0", "f1"):
            if cfg.get(key) not in (0, 1, None):
                problems.append(f"{key} must be 0 or 1")
        if cfg.get("balanced") and cfg.get("constant"):
            problems.append("balanced and constant are mutually exclusive")
        if cfg.get("tau_ladder") is not None and cfg["tau_ladder"] < 2:
            problems.append("tau_ladder must be at least 2")
    elif name == "heat":
        positive("omega_pev")
        positive("beta_inv_pev")
        positive("tau_dec_s")
        grid("n_steps")
        nonempty("gamma0_list")
        if cfg.get("gamma0_list") is not None and any(g < 0 for g in cfg["gamma0_list"]):
            problems.append("gamma0_list rates must be non-negative")
    elif name == "lz-tqd":
        positive("delta_hz")
        positive("tau_min_s")
        positive("tau_max_s")
        grid("n_quad")
        if cfg.get("n_tau") is not None and cfg["n_tau"] < 1:
            problems.append("n_tau must be at least 1")
        if (
            cfg.get("tau_min_s") is not None
            and cfg.get("tau_max_s") is not None
            and cfg["tau_max_s"] < cfg["tau_min_s"]
        ):
            problems.append("tau_max_s must be >= tau_min_s")
        if cfg.get("theta0_rad") is not None and not 0 < abs(cfg["theta0_rad"]) < 0.5 * math.pi:
            problems.append("theta0_rad must lie in (0, pi/2) up to sign")
    elif name == "nmr-tqd":
        positive("omega0_hz")
        positive("omega1_hz")
    elif name == "gate":
        positive("nu_hz")
        grid("n_steps")
        if cfg.get("axis") is not None:
            if len(cfg["axis"]) != 3 or all(abs(a) < 1e-12 for a in cfg["axis"]):
                problems.append("axis must be a nonzero 3-vector")
        nonempty("tau_list")
        if cfg.get("tau_list") is not None and any(t <= 0 for t in cfg["tau_list"]):
            problems.append("tau_list entries must be positive")
    elif name == "pulses":
        positive("tau_s")
        positive("nu_hz")
        positive("j_hz")
        if cfg.get("n_blocks") is not None and cfg["n_blocks"] < 1:
            problems.append("n_blocks must be at least 1")
        if (
            cfg.get("variant") == "optimal"
            and cfg.get("tau_s") is not None
            and cfg.get("j_hz") is not None
            and cfg["tau_s"] < 1.0 / cfg["j_hz"]
        ):
            problems.append("optimal variant needs tau_s >= 1/j_hz (echo delay)")
    elif name == "battery-stirap":
        positive("rabi_hz")
        positive("omega0tau")
        grid("n_steps")
        if cfg.get("gamma0") is not None and cfg["gamma0"] < 0:
            problems.append("gamma0 must be non-negative")
        if (
            cfg.get("level2") is not None
            and cfg.get("level3") is not None
            and not 0 < cfg["level2"] < cfg["level3"]
        ):
            problems.append("levels must satisfy 0 < level2 < level3")
    elif name == "battery-cells":
        positive("j_hz")
        positive("omega0_hz")
        positive("jtau")
        grid("n_steps")
    return problems


# ---------------------------------------------------------------------------
# scenario runners: each returns (extra_comments, header, rows) or raw text


def _run_adcheck(cfg: dict):
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
            frame, sched = kit.frame, kit.schedule
            return (
                r,
                _adcheck.c_trad(frame, sched),
                _adcheck.c_tong(frame, sched)["max"],
                _adcheck.c_wu(frame),
                _adcheck.c_ar(frame, sched),
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

    def point(tau: float):
        res = _openad.deutsch_scenario(f_values, omega, gamma, tau, n_steps=cfg["n_steps"])
        return (tau, float(res["f_os"][-1]), float(res["f_cs"][-1]))

    rows = [point(tau) for tau in taus]
    return [f"f_values={f_values[0]}{f_values[1]}"], ["tau_s", "f_os", "f_cs"], rows


def _run_heat(cfg: dict):
    omega = _thermo.ev_to_rads(cfg["omega_pev"] * 1e-12)
    beta = 1.0 / _thermo.ev_to_rads(cfg["beta_inv_pev"] * 1e-12)
    tau = cfg["tau_dec_s"]

    def point(gamma0: float):
        res = _thermo.dephasing_heat_scenario(
            omega, beta, lambda s: gamma0 * (1.0 + s), tau, n_steps=cfg["n_steps"]
        )
        return (
            gamma0,
            _thermo.rads_to_ev(res["q_total"]) * 1e12,
            _thermo.rads_to_ev(res["q_closed"]) * 1e12,
            _thermo.rads_to_ev(res["q_asymptote"]) * 1e12,
        )

    rows = [point(gamma0) for gamma0 in cfg["gamma0_list"]]
    return (
        [f"q_max_pev={_thermo.rads_to_ev(omega * math.tanh(beta * omega)) * 1e12!r}"],
        ["gamma0_per_s", "q_pev", "q_closed_pev", "q_asymptote_pev"],
        rows,
    )


def _run_lz_tqd(cfg: dict):
    delta = 2.0 * math.pi * cfg["delta_hz"]
    theta0 = cfg["theta0_rad"]
    taus = np.geomspace(cfg["tau_min_s"], cfg["tau_max_s"], cfg["n_tau"])

    def point(tau: float):
        res = _tqd.lz_intensities(lambda s: theta0 * s, delta, tau, n_quad=cfg["n_quad"])
        return (float(tau), res["i_std"], res["i_opt"])

    rows = [point(tau) for tau in taus]
    tau_b = _tqd.lz_intensities(lambda s: theta0 * s, delta, 1.0, n_quad=cfg["n_quad"])["tau_b"]
    return [f"tau_b_s={tau_b!r}"], ["tau_s", "i_std", "i_opt"], rows


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

    def point(tau: float):
        sched = _tqd.controlled_gate_schedule(
            axis, phi, phi0, omega, tau, variant=cfg["variant"], controlled=controlled
        )
        res = _tqd.gate_run(sched, register, axis, phi, cfg["n_steps"], controlled=controlled)
        return (tau, res["success_prob"], res["fidelity"])

    rows = [point(tau) for tau in cfg["tau_list"]]
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
    rows = [
        (float(t), float(e), float(p), float(p1), float(p2), float(p3))
        for t, e, p, (p1, p2, p3) in zip(rep.times, rep.ergotropy, rep.power, rep.populations)
    ]
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
    rows = [
        (float(t), float(c), float(p), float(pi))
        for t, c, p, pi in zip(rep.times, rep.charge, rep.power, rep.parity)
    ]
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


def _render_csv(name: str, cfg: dict, extra: list[str], header: list[str], rows: list) -> str:
    lines = [f"# adiabatic-lab {name}"]
    for key in sorted(cfg):
        lines.append(f"# {key}={_fmt(cfg[key])}")
    for note in extra:
        lines.append(f"# {note}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
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
            flag = f"--{p.name}"
            if p.kind == "flag":
                sp.add_argument(flag, action="store_const", const=True, default=None, help=p.help)
            elif p.kind == "int":
                sp.add_argument(flag, type=int, default=None, help=p.help)
            elif p.kind == "float":
                sp.add_argument(flag, type=float, default=None, help=p.help)
            else:
                sp.add_argument(
                    flag,
                    type=lambda raw, _p=p: _parse_value(_p, raw),
                    default=None,
                    help=p.help,
                )
    vp = sub.add_parser("validate", help="check a configuration file without running")
    vp.add_argument("--config", required=True, help="INI file to check")
    vp.add_argument("--scenario", help="restrict the check to one section")
    return parser


def _run_validate(args: argparse.Namespace) -> int:
    parser = configparser.ConfigParser()
    with open(args.config, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    sections = [args.scenario] if args.scenario else parser.sections()
    problems_total = 0
    for section in sections:
        if section not in SCENARIOS:
            print(f"{section}: unknown scenario")
            problems_total += 1
            continue
        try:
            merged = _merge_config(section, {}, dict(parser.items(section)) if parser.has_section(section) else {})
        except ValueError as exc:
            print(f"{section}: {exc}")
            problems_total += 1
            continue
        problems = check_config(section, merged)
        for msg in problems:
            print(f"{section}: {msg}")
        problems_total += len(problems)
        if not problems:
            print(f"{section}: ok")
    return 2 if problems_total else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return _run_validate(args)

    name = args.command
    file_values = {}
    if args.config:
        file_values = _load_config_section(args.config, name)
    cli_values = {
        key: val
        for key, val in vars(args).items()
        if key not in ("command", "config", "out")
    }
    try:
        cfg = _merge_config(name, cli_values, file_values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = check_config(name, cfg)
    if problems:
        for msg in problems:
            print(f"error: {msg}", file=sys.stderr)
        return 2

    try:
        result = RUNNERS[name](cfg)
    except IntegrationError as exc:
        print(f"error: {exc}; increase --n-steps", file=sys.stderr)
        return 2
    if isinstance(result, str):
        _emit(result, args.out)
    else:
        extra, header, rows = result
        _emit(_render_csv(name, cfg, extra, header, rows), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
