"""End-to-end acceptance runs, one test per numbered criterion.

Each test exercises one headline claim at its stated tolerance and wall
budget and prints a single pass line on success (visible with -s; the
pytest -v status line carries the same verdict).
"""

import math
import time

import numpy as np
import pytest

from adiabatic_lab.adcheck import (
    c_ar,
    c_tong,
    c_trad,
    c_wu,
    hdot_samples,
    min_gap_noninertial,
    nmr_rotating,
    oscillating,
    oscillating_noninertial,
    scan_min_gap,
    theorem1_check,
    theorem2_check,
)
from adiabatic_lab.battery import (
    stable_protocol,
    stirap_charge,
    stirap_noise_model,
    stirap_unstable_ergotropy,
    two_cell_discharge,
    unstable_protocol,
)
from adiabatic_lab.dynamics import (
    LindbladGenerator,
    Schedule,
    evolve_lindblad,
    evolve_unitary,
    lindblad_action,
    nmr_closed_form_p0,
)
from adiabatic_lab.opalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    from_coherence_vector,
    pauli_basis,
    superoperator_matrix,
    to_coherence_vector,
)
from adiabatic_lab.openad import deutsch_scenario
from adiabatic_lab.spectral import liouville_spectrum
from adiabatic_lab.thermo import (
    build_ledger,
    dephasing_heat_scenario,
    ev_to_rads,
    unitary_conjugate_channel,
)
from adiabatic_lab.tqd import (
    compile_pulse_sequence,
    constant_phases,
    controlled_gate_schedule,
    energy_cost_sigma,
    gate_run,
    generalized_tqd,
    lz_intensities,
    lz_frame,
    nmr_field_ratio,
    nmr_tqd_field_norms,
    optimal_phases,
    phase_gate_schedule,
    pulse_sequence_unitary,
    standard_tqd,
    tqd_time_independence,
)

W0 = 2.0 * math.pi * 1.0e4
THETA = 0.03
W1 = W0 * math.tan(THETA)
TAU = 1.0e-3

LZ_DELTA = 2.0 * math.pi * 2000.0
LZ_THETA0 = math.pi / 3.0

OMEGA_EV = ev_to_rads(82.662e-12)
BETA_EV = 1.0 / ev_to_rads(17.238e-12)

OMEGA_R = 2.0 * math.pi * 1000.0
SPECTRUM3 = (0.0, 1.0 * OMEGA_R, 1.95 * OMEGA_R)
E_MAX3 = SPECTRUM3[2] - SPECTRUM3[0]


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS ({detail})")


def _lz_frame(tau, n_points=801):
    return lz_frame(LZ_DELTA, lambda s: LZ_THETA0 * s, tau, n_points)


def _nmr_lab_schedule(r):
    w = r * W0

    def sampler(s):
        t = s * TAU
        return 0.5 * W0 * SIGMA_Z + 0.5 * W1 * (
            np.cos(w * t) * SIGMA_X + np.sin(w * t) * SIGMA_Y
        )

    return Schedule(TAU, sampler)


def test_criterion_01_nmr_survival_closed_form():
    t0 = time.monotonic()
    worst = 0.0
    for r in (0.1, 0.5, 1.0, 2.0, 3.0):
        traj = evolve_unitary(
            _nmr_lab_schedule(r), np.array([1.0, 0.0], dtype=complex), 10000
        )
        times = traj.times[::10]  # 1001 comparison nodes
        p_integrated = np.abs(traj.states[::10, 0]) ** 2
        p_formula = nmr_closed_form_p0(W0, W1, r * W0, times)
        worst = max(worst, float(np.max(np.abs(p_formula - p_integrated))))
    elapsed = time.monotonic() - t0
    assert worst < 1e-6
    assert elapsed < 5.0
    _report(1, f"max |formula - integration| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_adiabaticity_coefficient_closed_forms_and_curves():
    t0 = time.monotonic()
    # closed forms of the rotating-drive model against the generic evaluators
    worst_trad = worst_wu = 0.0
    for r in (0.1, 0.5, 1.0, 2.0, 3.0):
        kit = nmr_rotating(W0, W1, r * W0, TAU, n_points=2001)
        got_trad = c_trad(kit.frame, hdot_samples(kit))
        want_trad = 0.5 * abs(r * math.sin(THETA) * math.cos(THETA))
        worst_trad = max(worst_trad, abs(got_trad - want_trad) / want_trad)
        got_wu = c_wu(kit.frame)
        want_wu = (
            r * math.sin(THETA) * math.cos(THETA)
            / (2.0 * math.sqrt(1.0 + (r * math.cos(THETA) ** 2) ** 2))
        )
        worst_wu = max(worst_wu, abs(got_wu - want_wu) / want_wu)
    assert worst_trad < 1e-4
    assert worst_wu < 1e-4

    # oscillating model, companion frame: all four coefficients peak at r = 1
    r_grid = np.arange(0.05, 3.0001, 0.05)
    curves = {"trad": [], "tong": [], "wu": [], "ar": []}
    for r in r_grid:
        try:
            kit = oscillating_noninertial(W0, THETA, r * W0, TAU, n_points=301)
            hdot = hdot_samples(kit)
            curves["trad"].append(c_trad(kit.frame, hdot))
            curves["tong"].append(c_tong(kit.frame, hdot))
            curves["wu"].append(c_wu(kit.frame))
            curves["ar"].append(c_ar(kit.frame, hdot))
        except ValueError:
            for series in curves.values():
                series.append(np.nan)
    for name, series in curves.items():
        series = np.asarray(series)
        peak_r = r_grid[np.nanargmax(series)]
        assert abs(peak_r - 1.0) <= 0.15, f"{name} peaks at r={peak_r}"

    # original frame: trad and ar grow monotonically with the drive rate
    r_coarse = np.arange(0.25, 3.0001, 0.25)
    trad_in, ar_in = [], []
    for r in r_coarse:
        kit = oscillating(W0, THETA, r * W0, TAU, n_points=301)
        hdot = hdot_samples(kit)
        trad_in.append(c_trad(kit.frame, hdot))
        ar_in.append(c_ar(kit.frame, hdot))
    assert np.all(np.diff(trad_in) > 0)
    assert np.all(np.diff(ar_in) > 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(2, f"closed forms {max(worst_trad, worst_wu):.1e} rel, {elapsed:.1f} s")


def test_criterion_03_frame_equivalence_theorem_validators():
    t0 = time.monotonic()
    verdicts = {}
    for label, builder, checker in (
        ("osc", lambda r: oscillating(W0, THETA, r * W0, TAU, 801), theorem1_check),
        ("nmr", lambda r: nmr_rotating(W0, W1, r * W0, TAU, 801), theorem2_check),
    ):
        for r, expect in ((0.1, True), (1.0, False)):
            kit = builder(r)
            res = checker(kit)
            assert res["satisfied"] is expect
            if expect:
                assert res["max_deviation"] < 0.02
            else:
                assert res["max_deviation"] > 0.1
            # the verdict must agree with brute-force integration
            traj = evolve_unitary(kit.schedule, kit.frame.vectors[0][:, 0], 4000)
            p_trans = abs(np.vdot(kit.frame.vectors[-1][:, 1], traj.final)) ** 2
            assert (p_trans < 0.02**2) == res["satisfied"]
            verdicts[(label, r)] = res["max_deviation"]
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, f"deviations {verdicts}, {elapsed:.1f} s")


def test_criterion_04_minimum_transformed_gap():
    for r in (0.0, 0.5, 1.0, 2.0):
        want = min_gap_noninertial(W0, r)
        if r == 1.0:
            tt = math.tan(THETA)

            def sampler(s):
                t = s * TAU
                amp = 0.5 * W0 * tt * math.sin(W0 * t)
                ph = np.exp(1j * W0 * t)
                return amp * np.array([[0.0, ph], [np.conj(ph), 0.0]])

            got = scan_min_gap(Schedule(TAU, sampler), n_points=4001)
            assert want == 0.0
            assert got < 1e-6 * W0
        else:
            kit = oscillating_noninertial(W0, THETA, r * W0, TAU, n_points=2001)
            got = 2.0 * float(np.min(kit.frame.energies[:, 1]))
            assert got == pytest.approx(want, rel=1e-6)
    _report(4, "transformed-frame minimum gap matches omega0 |1 - r|")


def test_criterion_05_function_parity_fidelity_ladder():
    t0 = time.monotonic()
    omega = 2.0 * math.pi * 1.0e4
    gamma = 0.1 * omega
    tau_top = 100.0 / omega
    taus = [tau_top * 2.0 ** (k - 7) for k in range(8)]
    f_os_final, f_cs_final = [], []
    for tau in taus:
        res = deutsch_scenario((0, 1), omega, gamma, tau, n_steps=2500)
        f_os_final.append(res["f_os"][-1])
        f_cs_final.append(res["f_cs"][-1])
    assert f_os_final[-1] >= 0.999
    assert np.all(np.diff(f_os_final) > 0)
    assert f_cs_final[-1] < 0.9  # gamma tau_top = 10: coherence is gone
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(
        5,
        f"F_os(100/w) = {f_os_final[-1]:.6f}, F_cs = {f_cs_final[-1]:.3f}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_06_dephasing_heat_bookkeeping():
    t0 = time.monotonic()
    tau_dec = 1.0e-3
    q_inf = OMEGA_EV * math.tanh(BETA_EV * OMEGA_EV)

    # ramped-rate heat against the closed form
    worst = 0.0
    for gamma0 in (314.0, 628.0, 1257.0):
        res = dephasing_heat_scenario(
            OMEGA_EV, BETA_EV, lambda s: gamma0 * (1.0 + s), tau_dec, n_steps=2000
        )
        want = q_inf * (1.0 - math.exp(-3.0 * gamma0 * tau_dec))
        worst = max(worst, abs(res["q_total"] - want) / want)
    assert worst < 1e-6

    # saturated integration against the caption-energy value
    sat = dephasing_heat_scenario(OMEGA_EV, BETA_EV, 1.0e4, tau_dec, n_steps=4000)
    assert abs(sat["q_total"] - q_inf) < 1e-3 * q_inf

    # entropy flow pairs with heat flow at the dephasing temperature
    res = dephasing_heat_scenario(OMEGA_EV, BETA_EV, 628.0, tau_dec, n_steps=1000)
    ledger = res["ledger"]
    g = np.array([-np.real(np.trace(rho @ SIGMA_X)) for rho in res["trajectory"].states])
    want_rate = (np.arctanh(g) / OMEGA_EV) * ledger.heat_rate
    rel = np.abs(ledger.entropy_rate - want_rate) / np.abs(want_rate)
    assert np.max(rel) < 1e-8

    # heat is basis independent: 50 random conjugated channels
    sched = Schedule(
        tau_dec, lambda s: LindbladGenerator(OMEGA_EV * SIGMA_X, ((628.0, SIGMA_Z),))
    )
    rho0 = 0.5 * (np.eye(2, dtype=complex) - math.tanh(BETA_EV * OMEGA_EV) * SIGMA_X)
    q_base = build_ledger(sched, evolve_lindblad(sched, rho0, 800)).heat[-1]
    rng = np.random.default_rng(2026)
    drift = 0.0
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(a)
        conj = unitary_conjugate_channel(sched, u)
        led = build_ledger(conj, evolve_lindblad(conj, u @ rho0 @ dagger(u), 800))
        drift = max(drift, abs(led.heat[-1] - q_base))
    assert drift < 1e-9 * abs(q_base)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(
        6,
        f"heat {worst:.1e} rel, conjugation drift {drift / abs(q_base):.1e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_07_transitionless_populations_and_phases():
    rng = np.random.default_rng(7)
    for x in (0.01, 0.1, 1.0):
        tau = x / LZ_DELTA
        frame = _lz_frame(tau)
        psi0 = frame.vectors[0][:, 0].copy()
        for _ in range(5):
            phases = constant_phases(frame, rng.uniform(-3.0e4, 3.0e4, size=2))
            psi = evolve_unitary(
                generalized_tqd(frame, phases), psi0, (len(frame.grid) - 1) // 2
            ).final
            pops = np.abs(frame.vectors[-1].conj().T @ psi) ** 2
            assert abs(pops[0] - 1.0) < 1e-6
            assert pops[1] < 1e-6

        # the adiabatic-phase variant reproduces the adiabatic relative phase
        v0 = frame.vectors[0]
        sup = (v0[:, 0] + v0[:, 1]) / math.sqrt(2.0)
        psi = evolve_unitary(standard_tqd(frame), sup, 400).final
        amps = frame.vectors[-1].conj().T @ psi
        from adiabatic_lab.tqd import adiabatic_phases

        target = tau * np.trapezoid(adiabatic_phases(frame), frame.grid, axis=0)
        mismatch = math.remainder(
            (np.angle(amps[1]) - np.angle(amps[0])) - (target[1] - target[0]),
            2.0 * math.pi,
        )
        assert abs(mismatch) < 1e-4
    _report(7, "populations pinned to 1e-6, phases to 1e-4 rad")


def test_criterion_08_minimal_cost_phases_and_boundary_time():
    frame = _lz_frame(1.0e-4)
    base = optimal_phases(frame)
    sigma0 = energy_cost_sigma(generalized_tqd(frame, base))
    eps = 1e-3 * LZ_DELTA
    for level in (0, 1):
        up = base.copy()
        up[:, level] += eps
        down = base.copy()
        down[:, level] -= eps
        s_up = energy_cost_sigma(generalized_tqd(frame, up))
        s_down = energy_cost_sigma(generalized_tqd(frame, down))
        assert s_up > sigma0 and s_down > sigma0
        assert abs(s_up - s_down) < 1e-6 * sigma0

    report = tqd_time_independence(frame, base)
    assert report["field_drift"] < 1e-8

    res = lz_intensities(lambda s: LZ_THETA0 * s, LZ_DELTA, 1.0, n_quad=2001)
    assert abs(res["tau_b"] - 5.2e-5) <= 0.02 * 5.2e-5
    _report(8, f"tau_b = {res['tau_b']:.4e} s, field drift {report['field_drift']:.1e}")


def test_criterion_09_field_norm_ordering():
    w = 2.0 * math.pi * 1.0e4
    assert nmr_field_ratio(w, w, w) == 2.0
    rng = np.random.default_rng(9)
    for _ in range(10):
        w0, w1, wd = rng.uniform(1.0e3, 1.0e5, size=3)
        norms = nmr_tqd_field_norms(w0, w1, wd)
        assert norms["b_std"] > norms["b0"]
        assert norms["b_std"] > norms["b_opt"]
    _report(9, "balanced ratio exactly 2; combined drive dominates both parts")


def test_criterion_10_steered_gates_and_pulse_programs():
    t0 = time.monotonic()
    axis = (0.0, 0.0, 1.0)
    omega = 2.0 * math.pi * 35.0
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    for tau in (1.0e-4, 1.0e-3, 1.0e-2):
        sched = controlled_gate_schedule(axis, math.pi, math.pi, omega, tau, "optimal")
        res = gate_run(sched, plus, axis, math.pi, n_steps=2000)
        assert res["fidelity"] > 1.0 - 1e-6
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert abs(np.vdot(minus, res["output"])) ** 2 > 1.0 - 1e-6
    for phi0 in (math.pi / 3.0, math.pi / 2.0, math.pi):
        sched = controlled_gate_schedule(axis, math.pi, phi0, omega, 1.0e-3, "optimal")
        res = gate_run(sched, plus, axis, math.pi, n_steps=2000)
        assert res["success_prob"] == pytest.approx(math.sin(0.5 * phi0) ** 2, abs=1e-6)

    nu, j, tau_c = 35.0, 215.0, 1.0e-2
    psi0 = np.kron(plus, np.array([1.0, 0.0])).astype(complex)
    for variant in ("adiabatic", "standard"):
        ref = evolve_unitary(phase_gate_schedule(nu, tau_c, variant), psi0, 4000).final
        fids = []
        for n in (8, 16, 32, 64):
            seq = compile_pulse_sequence(variant, n, tau_c, nu, j)
            if variant == "adiabatic":
                assert seq.energy_units == 2 * (n + 1)
            else:
                assert seq.energy_units == 5 * n
            fids.append(abs(np.vdot(ref, pulse_sequence_unitary(seq) @ psi0)) ** 2)
        assert all(b > a for a, b in zip(fids, fids[1:]))
    assert compile_pulse_sequence("optimal", 0, tau_c, nu, j).energy_units == 3
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(10, f"gate fidelities > 1 - 1e-6, ledger exact, {elapsed:.1f} s")


def test_criterion_11_battery_charging_and_discharge():
    t0 = time.monotonic()
    # noise-free dark-state transfer at moderate speed
    rep20 = stirap_charge(
        *stable_protocol(OMEGA_R), SPECTRUM3, 20.0 / OMEGA_R, n_steps=2000,
        protocol="stable",
    )
    assert rep20.final_ergotropy >= 0.99 * E_MAX3

    # an interior optimum appears under sequential decay and dephasing
    noise = stirap_noise_model(0.01, OMEGA_R)
    erg_at = {}
    for om_tau, n_steps in ((10.0, 2000), (100.0, 6000)):
        rep = stirap_charge(
            *stable_protocol(OMEGA_R), SPECTRUM3, om_tau / OMEGA_R,
            noise=noise, n_steps=n_steps, protocol="stable",
        )
        erg_at[om_tau] = rep.final_ergotropy
    assert erg_at[10.0] > erg_at[100.0]

    # role-swapped protocol oscillates inside its closed-form envelope
    tau_u = 5000.0 / OMEGA_R
    rep_u = stirap_charge(
        *unstable_protocol(OMEGA_R), SPECTRUM3, tau_u,
        n_steps=196608, protocol="unstable", hold_fraction=0.0,
    )
    grid, env = stirap_unstable_ergotropy(
        *unstable_protocol(OMEGA_R), SPECTRUM3, tau_u, n_points=196609
    )
    env_err = float(np.max(np.abs(rep_u.ergotropy - env))) / E_MAX3
    assert env_err < 1e-3

    # two-cell discharge for three ramp shapes
    j = 2.0 * math.pi * 100.0
    ramps = (
        lambda s: s,
        lambda s: math.sin(0.5 * math.pi * s) ** 2,
        lambda s: s * s * (3.0 - 2.0 * s),
    )
    for ramp in ramps:
        rep = two_cell_discharge(ramp, j, j, 80.0 / j, n_steps=12000)
        assert rep.final_charge >= 0.99 * rep.c_max
        assert np.max(np.abs(rep.parity - rep.parity[0])) < 1e-8
        assert rep.tail_max_power == 0.0  # held bonds commute with the hub energy

    # a slow stable charge parks: hold-window power is noise-level
    rep_s = stirap_charge(
        *stable_protocol(OMEGA_R), SPECTRUM3, 1000.0 / OMEGA_R, n_steps=30000,
        protocol="stable",
    )
    assert rep_s.tail_max_power < 1e-3 * rep_s.peak_power
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(11, f"envelope err {env_err:.2e}, tail ratio "
               f"{rep_s.tail_max_power / rep_s.peak_power:.1e}, {elapsed:.1f} s")


def test_criterion_12_structural_property_battery():
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    basis1 = pauli_basis(1)

    for _ in range(20):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = 0.5 * (h + dagger(h)) * 1.0e4
        jump = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gen = LindbladGenerator(h, ((float(rng.uniform(0.0, 1.0e3)), jump),))

        sup = superoperator_matrix(lambda rho: lindblad_action(gen, rho), basis1)
        assert sup.trace_preserving  # identity row vanishes
        scale = float(np.max(np.abs(sup.matrix)))
        assert np.max(np.abs(sup.matrix[0])) < 1e-12 * max(scale, 1.0)

        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho0 = a @ dagger(a)
        rho0 = rho0 / np.trace(rho0)
        traj = evolve_lindblad(Schedule(1.0e-4, lambda s: gen), rho0, 400)
        final = traj.final
        assert abs(np.trace(final) - 1.0) < 1e-10
        assert np.max(np.abs(final - dagger(final))) < 1e-10
        assert np.min(np.linalg.eigvalsh(final)) > -1e-9

        # round-trip vectorization
        vec = to_coherence_vector(rho0, basis1)
        back = from_coherence_vector(vec, basis1)
        assert np.max(np.abs(back - rho0)) < 1e-12

        # biorthonormality and completeness of the spectral pairing
        spec = liouville_spectrum(sup.matrix)
        if spec.diagonalizable:
            eye = np.eye(4)
            assert np.max(np.abs(spec.left @ spec.right - eye)) < 1e-8
            assert np.max(np.abs(spec.right @ spec.left - eye)) < 1e-8

    # first law on the dephasing ledger
    res = dephasing_heat_scenario(OMEGA_EV, BETA_EV, 628.0, 1.0e-3, n_steps=2000)
    assert res["ledger"].first_law_residual < 1e-7 * OMEGA_EV

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(12, f"20 random channels, all invariants hold, {elapsed:.1f} s")
