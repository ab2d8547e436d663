"""Benchmark workloads: a seed becomes the list of calls one pass makes.

Each call is either a CLI invocation (``cli.main(argv)`` with stdout
captured) or a library call that renders its result as a small CSV-like
table.  Either way a call yields text, and its check function raises
:class:`CheckError` when the text is wrong.

The seed draws physical parameters around the CLI defaults (rates, drive
angles, ramp shape, Rabi frequency).  Grid sizes and step counts never
depend on the seed, so the seed varies the inputs and not the amount of
work.  Seed 0 is the default seed: every parameter sits at its default
and the outputs are also compared with the reference tables in ``ref/``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
WORKLOADS = ("open-sweep", "closed-sweep", "long-trajectory", "liouville")

# Relative agreement with the reference tables (the re-baseline bound of
# the project's bit-identity policy).
REF_RTOL = 1e-10


class CheckError(AssertionError):
    """An output failed its check."""


@dataclass(frozen=True)
class Call:
    name: str
    run: Callable[[], str]
    check: Callable[[str], None]
    argv: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# parameter draws


class _Draw:
    """Multiplicative jitter around a default; the default seed draws none."""

    def __init__(self, seed: int):
        self.rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def scale(self, default: float, lo: float, hi: float) -> float:
        return default if self.rng is None else default * self.rng.uniform(lo, hi)

    def choice(self, default: str, options: tuple[str, ...]) -> str:
        return default if self.rng is None else self.rng.choice(options)


# ---------------------------------------------------------------------------
# table parsing and checks


def parse_table(text: str) -> tuple[dict, dict]:
    """Split a CLI table into its ``# key=value`` notes and named columns."""
    notes: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[float]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                notes[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    if header is None or not rows:
        raise CheckError("table has no header or no rows")
    data = np.array(rows)
    if data.shape[1] != len(header):
        raise CheckError("row width differs from header width")
    return notes, {name: data[:, j] for j, name in enumerate(header)}


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _finite(cols: dict, names=None) -> None:
    for name in names or cols:
        _require(np.all(np.isfinite(cols[name])), f"{name} has non-finite entries")


def _rel_close(got, want, rtol: float, label: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
    _require(err <= rtol, f"{label}: relative error {err:.3e} exceeds {rtol:.0e}")


_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def compare_to_reference(text: str, ref: str) -> float:
    """Largest relative difference of ``text`` from ``ref``.

    Everything but the numbers must match exactly.  A number is compared
    relative to the larger of its own magnitude and the largest magnitude
    in its column (same token position on lines with the same token
    count), so noise-level entries next to large ones do not dominate.
    Returns 0.0 for identical text and raises :class:`CheckError` on a
    structural mismatch.
    """
    if text == ref:
        return 0.0
    got_lines, ref_lines = text.splitlines(), ref.splitlines()
    _require(len(got_lines) == len(ref_lines), "line count differs from reference")
    split_got = [_NUMBER.split(line) for line in got_lines]
    split_ref = [_NUMBER.split(line) for line in ref_lines]
    scale: dict[tuple[int, int], float] = {}
    for parts in split_ref:
        for j in range(1, len(parts), 2):
            key = (len(parts), j)
            val = abs(float(parts[j]))
            if math.isfinite(val):
                scale[key] = max(scale.get(key, 0.0), val)
    worst = 0.0
    for k, (got, want) in enumerate(zip(split_got, split_ref)):
        _require(len(got) == len(want) and got[0::2] == want[0::2],
                 f"line {k + 1} differs from reference outside its numbers")
        for j in range(1, len(got), 2):
            a, b = float(got[j]), float(want[j])
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            denom = max(abs(a), abs(b), scale.get((len(want), j), 0.0))
            worst = max(worst, abs(a - b) / denom if denom > 0 else math.inf)
    return worst


# ---------------------------------------------------------------------------
# calls
#
# Library functions are looked up on their module at call time, never bound
# by name here, so that the traced run's wrappers see the benchmark's calls.


def _cli_call(name: str, argv: list[str], check: Callable[[str], None]) -> Call:
    from adiabatic_lab import cli

    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects an argument
                code = exc.code
        if code != 0:
            raise CheckError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return Call(name=name, run=run, check=check, argv=tuple(argv))


def _fmt(x: float) -> str:
    return repr(float(x))


def _table(title: str, notes: dict, header: list[str], rows: list) -> str:
    lines = [f"# {title}"] + [f"# {k}={_fmt(v)}" for k, v in notes.items()]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# open-sweep: Lindblad integration, per-node fidelity, the heat ledger


def _open_sweep(d: _Draw) -> list[Call]:
    omega_hz = d.scale(1.0e4, 0.8, 1.25)
    gamma = d.scale(0.1, 0.7, 1.4)
    gammas = [d.scale(g, 0.8, 1.25) for g in (314.0, 628.0, 1257.0)]
    omega_pev = d.scale(82.662, 0.95, 1.05)
    beta_inv_pev = d.scale(17.238, 0.9, 1.1)

    def check_deutsch(text: str) -> None:
        cols = parse_table(text)[1]
        _require(len(cols["tau_s"]) == 4, "expected 4 ladder rows")
        _finite(cols)
        for name in ("f_os", "f_cs"):
            _require(np.all((cols[name] >= 0) & (cols[name] <= 1 + 1e-9)),
                     f"{name} outside [0, 1]")
        # the slowest run follows the open-system adiabatic reference
        _require(cols["f_os"][-1] >= 0.999, "slowest run is not adiabatic")

    def check_heat(text: str) -> None:
        cols = parse_table(text)[1]
        _require(len(cols["q_pev"]) == 3, "expected 3 rate rows")
        _finite(cols)
        _rel_close(cols["q_pev"], cols["q_closed_pev"], 1e-6, "heat vs closed form")

    return [
        _cli_call("deutsch", [
            "deutsch", "--balanced", "--omega-hz", _fmt(omega_hz), "--gamma", _fmt(gamma),
            "--tau-ladder", "4", "--n-steps", "500",
        ], check_deutsch),
        _cli_call("heat", [
            "heat", "--gamma0-list", ",".join(_fmt(g) for g in gammas),
            "--omega-pev", _fmt(omega_pev), "--beta-inv-pev", _fmt(beta_inv_pev),
            "--n-steps", "1000",
        ], check_heat),
    ]


# ---------------------------------------------------------------------------
# closed-sweep: eigenframes, adiabaticity coefficients, unitary RK4


def _nmr_lab_schedule(w0: float, w1: float, r: float, tau: float):
    from adiabatic_lab.dynamics import Schedule
    from adiabatic_lab.opalg import SIGMA_X, SIGMA_Y, SIGMA_Z

    w = r * w0

    def sampler(s):
        t = s * tau
        return 0.5 * w0 * SIGMA_Z + 0.5 * w1 * (np.cos(w * t) * SIGMA_X + np.sin(w * t) * SIGMA_Y)

    return Schedule(tau, sampler)


def _closed_sweep(d: _Draw) -> list[Call]:
    from adiabatic_lab import dynamics, spectral

    theta = d.scale(0.03, 0.7, 1.4)
    omega1_hz = d.scale(0.5e4, 0.7, 1.4)
    phi = d.scale(math.pi, 0.5, 1.0)
    nu_hz = d.scale(35.0, 0.8, 1.25)
    theta0 = d.scale(math.pi / 3, 0.8, 1.1)
    delta_hz = d.scale(2000.0, 0.8, 1.25)
    tqd_omega1_hz = d.scale(1.0e4, 0.7, 1.4)
    j_hz = d.scale(215.0, 0.8, 1.25)
    ratios = [d.scale(r, 0.9, 1.1) for r in (0.1, 0.5, 1.0, 2.0, 3.0)]
    nmr_theta = d.scale(0.03, 0.7, 1.4)
    w0, tau = 2.0 * math.pi * 1.0e4, 1.0e-3
    w1 = w0 * math.tan(nmr_theta)

    def check_adcheck(text: str) -> None:
        cols = parse_table(text)[1]
        _require(len(cols["r"]) == 13, "expected 13 sweep rows")
        for name in ("c_trad", "c_tong", "c_wu", "c_ar"):
            vals = cols[name][np.isfinite(cols[name])]
            _require(len(vals) >= 11, f"{name}: too many skipped points")
            _require(np.all(vals >= 0), f"{name} negative")

    def check_gate(text: str) -> None:
        cols = parse_table(text)[1]
        _finite(cols)
        for name in ("success_prob", "fidelity"):
            _require(np.all((cols[name] >= 0) & (cols[name] <= 1 + 1e-9)), f"{name} outside [0, 1]")
        # the optimal (correction-only) variant is exact at any speed
        _require(np.all(cols["fidelity"] >= 1 - 1e-6), "optimal gate fidelity below 1 - 1e-6")

    def check_lz(text: str) -> None:
        cols = parse_table(text)[1]
        _finite(cols)
        _rel_close(cols["i_std"], 1.0 + cols["i_opt"], 1e-12, "i_std = 1 + i_opt")
        scaled = cols["i_opt"] * cols["tau_s"] ** 2
        _rel_close(scaled, np.full_like(scaled, scaled[0]), 1e-9, "i_opt tau^2 constant")

    def check_nmr_tqd(text: str) -> None:
        cols = parse_table(text)[1]
        _finite(cols)
        a0 = 2.0 * math.pi * 1.0e4
        a1 = 2.0 * math.pi * tqd_omega1_hz
        om = 2.0 * math.pi * cols["omega_hz"]
        _rel_close(cols["b0_rads"], np.full_like(om, math.hypot(a0, a1)), 1e-12, "b0")
        _rel_close(cols["b_opt_rads"], om * a1 / math.hypot(a0, a1), 1e-12, "b_opt")
        _rel_close(cols["ratio"], (a0**2 + a1**2) / (a1 * om), 1e-12, "ratio")

    def check_pulses(text: str) -> None:
        from adiabatic_lab.tqd import parse_pulse_sequence, serialize_pulse_sequence

        _require(serialize_pulse_sequence(parse_pulse_sequence(text)) == text,
                 "pulse program does not round-trip")

    def nmr_survival() -> str:
        rows = []
        for r in ratios:
            traj = dynamics.evolve_unitary(_nmr_lab_schedule(w0, w1, r, tau),
                                           np.array([1.0, 0.0], dtype=complex), 2000)
            p_int = np.abs(traj.states[:, 0]) ** 2
            p_ref = dynamics.nmr_closed_form_p0(w0, w1, r * w0, traj.times)
            rows.append((r, float(np.max(np.abs(p_ref - p_int))), float(p_int[-1])))
        return _table("nmr-survival", {"theta": nmr_theta}, ["r", "max_abs_err", "p0_final"], rows)

    def check_nmr_survival(text: str) -> None:
        cols = parse_table(text)[1]
        _finite(cols)
        _require(np.all(cols["max_abs_err"] < 1e-6), "survival deviates from closed form by >= 1e-6")

    def eigenframe() -> str:
        rows = []
        for r in ratios:
            frame = spectral.tracked_eigensystem(_nmr_lab_schedule(w0, w1, r, tau), 1001)
            rows.append((r, float(np.min(frame.energies[:, 0])), float(np.max(frame.energies[:, 1])),
                         frame.max_residual))
        return _table("eigenframe", {"theta": nmr_theta}, ["r", "e_low_min", "e_high_max", "max_residual"], rows)

    def check_eigenframe(text: str) -> None:
        cols = parse_table(text)[1]
        _finite(cols)
        half = 0.5 * math.hypot(w0, w1)
        _rel_close(-cols["e_low_min"], np.full_like(cols["r"], half), 1e-9, "lower level")
        _rel_close(cols["e_high_max"], np.full_like(cols["r"], half), 1e-9, "upper level")

    gate_args = ["--phi-rad", _fmt(phi), "--nu-hz", _fmt(nu_hz), "--n-steps", "500"]
    return [
        _cli_call("adcheck", ["adcheck", "--theta-rad", _fmt(theta), "--r-sweep", "0:3:0.25"], check_adcheck),
        _cli_call("adcheck-nmr", [
            "adcheck", "--model", "nmr", "--frame", "rotating", "--omega1-hz", _fmt(omega1_hz),
            "--r-sweep", "0:3:0.25",
        ], check_adcheck),
        _cli_call("gate", ["gate"] + gate_args, check_gate),
        _cli_call("gate-controlled", ["gate", "--controlled"] + gate_args, check_gate),
        _cli_call("lz-tqd", ["lz-tqd", "--theta0-rad", _fmt(theta0), "--delta-hz", _fmt(delta_hz)], check_lz),
        _cli_call("nmr-tqd", ["nmr-tqd", "--omega1-hz", _fmt(tqd_omega1_hz)], check_nmr_tqd),
        _cli_call("pulses", ["pulses", "--tau-s", "0.01", "--j-hz", _fmt(j_hz), "--nu-hz", _fmt(nu_hz)],
                  check_pulses),
        Call("nmr-survival", nmr_survival, check_nmr_survival),
        Call("eigenframe", eigenframe, check_eigenframe),
    ]


# ---------------------------------------------------------------------------
# long-trajectory: one long integration per call, every node a CSV row


def _long_trajectory(d: _Draw) -> list[Call]:
    rabi_hz = d.scale(1000.0, 0.8, 1.25)
    gamma0 = d.scale(0.01, 0.7, 1.4)
    ramp = d.choice("linear", ("linear", "sin2", "smooth"))

    def check_stirap(n_steps: int) -> Callable[[str], None]:
        def check(text: str) -> None:
            notes, cols = parse_table(text)
            _require(len(cols["t_s"]) == n_steps + 1, "row count differs from the step count")
            _finite(cols)
            pops = cols["pop1"] + cols["pop2"] + cols["pop3"]
            _require(np.max(np.abs(pops - 1.0)) < 1e-9, "populations do not sum to 1")
            e_max = float(notes["e_max_rads"])
            erg = cols["ergotropy_rads"]
            _require(np.all((erg >= -1e-9 * e_max) & (erg <= e_max * (1 + 1e-9))),
                     "ergotropy outside [0, e_max]")
        return check

    def check_cells(text: str) -> None:
        notes, cols = parse_table(text)
        _require(len(cols["t_s"]) == 12001, "row count differs from the step count")
        _finite(cols)
        drift = float(np.max(np.abs(cols["parity"] - cols["parity"][0])))
        _require(drift < 1e-8, f"parity drift {drift:.2e} >= 1e-8")
        c_max = float(notes["c_max_rads"])
        _require(np.all(np.abs(cols["charge_rads"] - 0.5 * c_max) <= 0.5 * c_max * (1 + 1e-8)),
                 "charge outside [0, c_max]")
        _require(cols["charge_rads"][-1] >= 0.99 * c_max, "discharge ends below 0.99 c_max")
        # the held final bonds commute with the hub energy
        _require(float(notes["tail_max_power"]) == 0.0, "power flows back in the hold window")

    rabi = ["--rabi-hz", _fmt(rabi_hz)]
    return [
        _cli_call("stirap", ["battery-stirap", "--n-steps", "5000"] + rabi, check_stirap(5000)),
        _cli_call("stirap-noisy", ["battery-stirap", "--gamma0", _fmt(gamma0), "--n-steps", "2500"] + rabi,
                  check_stirap(2500)),
        # the step count of the acceptance suite's discharge runs
        _cli_call("cells", ["battery-cells", "--n-steps", "12000", "--ramp", ramp], check_cells),
    ]


# ---------------------------------------------------------------------------
# liouville: superoperators and Liouvillian eigenspace tracking (no CLI)


def _liouville(d: _Draw) -> list[Call]:
    from adiabatic_lab import openad, thermo
    from adiabatic_lab.dynamics import LindbladGenerator, Schedule
    from adiabatic_lab.opalg import SIGMA_X, SIGMA_Y, SIGMA_Z, pauli_basis
    from adiabatic_lab.thermo import ev_to_rads

    basis = pauli_basis(1)
    omega = 2.0 * math.pi * 1.0e3
    gamma = d.scale(0.1, 0.7, 1.4) * omega
    sweep = d.scale(0.25 * math.pi, 0.7, 1.4)
    tau = d.scale(50.0, 0.8, 1.25) / omega
    n_points = 1001
    rho0 = 0.5 * (np.eye(2, dtype=complex) + SIGMA_X)

    def sampler(s):
        p = sweep * s
        ham = -0.5 * omega * (np.cos(p) * SIGMA_X - np.sin(p) * SIGMA_Y)
        return LindbladGenerator(ham, ((gamma, SIGMA_Z),))

    sched = Schedule(tau, sampler)
    notes = {"gamma": gamma, "sweep": sweep, "tau": tau}

    def xi() -> str:
        rep = openad.xi_coefficients(sched, tau, basis, n_points=n_points)
        return _table("xi", notes, ["max_xi1", "max_xi2"], [(rep.max_xi1(), rep.max_xi2())])

    def check_xi(text: str) -> None:
        _finite(parse_table(text)[1])

    def propagate() -> str:
        sol = openad.adiabatic_propagate_1d(sched, rho0, tau, basis, n_points=n_points)
        final = sol.states[-1]
        traces = np.trace(sol.states, axis1=1, axis2=2)
        return _table("propagate", notes, ["trace_drift", "rho00", "rho01_re", "rho01_im", "residual"],
                      [(float(np.max(np.abs(traces - 1.0))), final[0, 0].real, final[0, 1].real,
                        final[0, 1].imag, sol.expansion_residual)])

    def check_propagate(text: str) -> None:
        cols = parse_table(text)[1]
        _finite(cols)
        _require(cols["trace_drift"][0] < 1e-8, "block-adiabatic states lose trace")
        _require(cols["residual"][0] < 1e-8, "initial state not reproduced by the eigenvector family")

    def certificate() -> str:
        out = openad.asymptotic_adiabaticity_certificate(sched, rho0, basis, n_points=n_points)
        return _table("certificate", notes, ["certified"] + list(out["checks"]),
                      [[float(out["certified"])] + [float(v) for v in out["checks"].values()]])

    def check_certificate(text: str) -> None:
        _require(parse_table(text)[1]["certified"][0] == 1.0, "certificate not granted")

    h_omega = ev_to_rads(d.scale(82.662, 0.95, 1.05) * 1e-12)
    h_beta = 1.0 / ev_to_rads(d.scale(17.238, 0.9, 1.1) * 1e-12)
    h_gamma0 = d.scale(628.0, 0.8, 1.25)

    def heat_dual_route() -> str:
        # the basis turns on the dual-route heat/work checks, which raise
        # AssertionError when the two routes disagree
        res = thermo.dephasing_heat_scenario(h_omega, h_beta, lambda s: h_gamma0 * (1.0 + s), 1.0e-3,
                                      n_steps=1000, basis=basis)
        return _table("heat-dual-route", {"gamma0": h_gamma0}, ["q_total", "q_closed"],
                      [(res["q_total"], res["q_closed"])])

    def check_heat(text: str) -> None:
        cols = parse_table(text)[1]
        _finite(cols)
        _rel_close(cols["q_total"], cols["q_closed"], 1e-6, "heat vs closed form")

    return [
        Call("xi", xi, check_xi),
        Call("propagate", propagate, check_propagate),
        Call("certificate", certificate, check_certificate),
        Call("heat-dual-route", heat_dual_route, check_heat),
    ]


_BUILDERS = {
    "open-sweep": _open_sweep,
    "closed-sweep": _closed_sweep,
    "long-trajectory": _long_trajectory,
    "liouville": _liouville,
}


def build(workload: str, seed: int) -> list[Call]:
    """The calls of one pass of ``workload`` at ``seed``."""
    return _BUILDERS[workload](_Draw(seed))
