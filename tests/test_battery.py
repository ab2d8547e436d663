import math

import numpy as np
import pytest

from adiabatic_lab.cli import RAMPS
from adiabatic_lab.dynamics import LindbladGenerator, Schedule, evolve_unitary, lindblad_action
from adiabatic_lab.opalg import SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z
from adiabatic_lab.battery import (
    ergotropy,
    passive_state,
    power_operator,
    stable_protocol,
    stirap_charge,
    stirap_dark_state_ergotropy,
    stirap_noise_model,
    stirap_schedule,
    stirap_unstable_ergotropy,
    two_cell_discharge,
    two_cell_hamiltonians,
    two_cell_schedule,
    unstable_protocol,
)

RNG = np.random.default_rng(40)

OMEGA_R = 2.0 * math.pi * 1000.0
SPECTRUM = (0.0, 1.0 * OMEGA_R, 1.95 * OMEGA_R)
E_MAX = SPECTRUM[2] - SPECTRUM[0]

J = 2.0 * math.pi * 100.0


def random_density(dim):
    a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# work content


def test_ergotropy_of_pure_excited_qubit():
    h0 = np.diag([0.0, 2.5]).astype(complex)
    rho = np.diag([0.0, 1.0]).astype(complex)
    assert ergotropy(rho, h0) == pytest.approx(2.5)


def test_thermal_like_states_are_passive():
    h0 = np.diag([0.0, 1.0, 3.0]).astype(complex)
    rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
    assert ergotropy(rho, h0) == pytest.approx(0.0, abs=1e-12)


def test_passive_state_is_idempotent_and_drains_all_work():
    h0 = np.diag([0.0, 1.0, 3.0]).astype(complex)
    rho = random_density(3)
    pas = passive_state(rho, h0)
    assert ergotropy(pas, h0) == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(passive_state(pas, h0), pas, atol=1e-12)
    # ergotropy is the gap to the passive partner's energy
    want = np.real(np.trace((rho - pas) @ h0))
    assert ergotropy(rho, h0) == pytest.approx(want, abs=1e-10)
    assert ergotropy(rho, h0) >= 0.0


def test_ergotropy_rejects_non_hermitian_inputs():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    skew = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="state"):
        ergotropy(skew, h0)
    with pytest.raises(ValueError, match="reference"):
        ergotropy(np.eye(2) / 2.0, skew)


def test_power_operator_hand_check():
    assert np.allclose(power_operator(SIGMA_Z, SIGMA_X), 2.0 * SIGMA_Y, atol=1e-12)


def test_stacked_power_operator_matches_per_node_loop_and_names_first_bad_node():
    h0 = np.diag([0.0, 1.0, 2.5]).astype(complex)
    a = RNG.normal(size=(7, 3, 3)) + 1j * RNG.normal(size=(7, 3, 3))
    h_c = a + np.conj(np.swapaxes(a, -1, -2))
    stack = power_operator(h0, h_c)
    assert np.array_equal(stack, np.array([power_operator(h0, h) for h in h_c]))
    grid = h_c.reshape(7, 1, 3, 3)
    assert np.array_equal(power_operator(h0, grid), stack[:, None])
    bad = h_c.copy()
    bad[3, 0, 1] += 1e-3
    bad[5, 1, 2] += 1.0
    p3 = -1j * (h0 @ bad[3] - bad[3] @ h0)
    asym = np.max(np.abs(p3 - p3.conj().T))
    with pytest.raises(AssertionError, match=f"^power observable asymmetry {asym:.2e} at node 3$"):
        power_operator(h0, bad)
    with pytest.raises(AssertionError, match=f"^power observable asymmetry {asym:.2e}$"):
        power_operator(h0, bad[3])



# ---------------------------------------------------------------------------
# three-level charging


def test_noise_model_rate_table():
    rates = stirap_noise_model(0.01, OMEGA_R)
    assert rates == {
        "gamma21": 0.01 * OMEGA_R,
        "gamma32": 0.02 * OMEGA_R,
        "deph2": 0.01 * OMEGA_R,
        "deph3": 0.02 * OMEGA_R,
    }


def test_stable_charge_reaches_nearly_full_ergotropy():
    rep = stirap_charge(
        *stable_protocol(OMEGA_R), SPECTRUM, 20.0 / OMEGA_R, n_steps=2000, protocol="stable"
    )
    assert rep.final_ergotropy >= 0.99 * E_MAX
    assert rep.final_ergotropy / E_MAX == pytest.approx(0.9941550920129415, rel=1e-8)
    assert rep.p_max_norm == pytest.approx(0.5 * math.pi / E_MAX, rel=1e-12)
    assert np.max(np.abs(np.sum(rep.populations, axis=1) - 1.0)) < 1e-8


def test_slow_stable_charge_has_negligible_tail_power():
    rep = stirap_charge(
        *stable_protocol(OMEGA_R), SPECTRUM, 200.0 / OMEGA_R, n_steps=8000, protocol="stable"
    )
    assert rep.final_ergotropy >= 0.999 * E_MAX
    assert rep.tail_max_power < 2e-3 * rep.peak_power


def test_dark_state_ergotropy_tracks_a_slow_run():
    tau = 200.0 / OMEGA_R
    om12, om23 = stable_protocol(OMEGA_R)
    rep = stirap_charge(om12, om23, SPECTRUM, tau, n_steps=8000, protocol="stable")
    for s_probe in (0.25, 0.5, 0.75):
        k = int(np.argmin(np.abs(rep.times - s_probe * tau)))
        s = rep.times[k] / tau
        want = stirap_dark_state_ergotropy(om12(s), om23(s), SPECTRUM)
        assert abs(rep.ergotropy[k] - want) < 0.02 * E_MAX


def test_dark_state_ergotropy_endpoints_and_guard():
    assert stirap_dark_state_ergotropy(0.0, OMEGA_R, SPECTRUM) == pytest.approx(0.0)
    assert stirap_dark_state_ergotropy(OMEGA_R, 0.0, SPECTRUM) == pytest.approx(E_MAX)
    with pytest.raises(ValueError, match="dark state undefined"):
        stirap_dark_state_ergotropy(0.0, 0.0, SPECTRUM)


def test_unstable_charge_oscillates_inside_closed_form_envelope():
    tau = 50.0 / OMEGA_R
    rep = stirap_charge(
        *unstable_protocol(OMEGA_R),
        SPECTRUM,
        tau,
        n_steps=40000,
        protocol="unstable",
        hold_fraction=0.0,
    )
    grid, env = stirap_unstable_ergotropy(*unstable_protocol(OMEGA_R), SPECTRUM, tau, 40001)
    env_on = np.interp(rep.times / tau, grid, env)
    # the envelope is the adiabatic limit; at this sweep rate it holds to a few percent
    assert np.max(np.abs(rep.ergotropy - env_on)) < 0.05 * E_MAX
    # the stored energy swings instead of ratcheting
    assert np.min(env_on[len(env_on) // 4 :]) < 0.5 * E_MAX < np.max(env_on)


def test_unstable_envelope_guard():
    with pytest.raises(ValueError, match="bright doublet"):
        stirap_unstable_ergotropy(
            lambda s: s - 0.5, lambda s: 0.0, SPECTRUM, 1.0, n_points=101
        )


def test_boundary_checks_catch_swapped_drives():
    om12, om23 = stable_protocol(OMEGA_R)
    with pytest.raises(ValueError, match="must vanish for this protocol"):
        stirap_charge(om23, om12, SPECTRUM, 1.0e-3, n_steps=200, protocol="stable")
    with pytest.raises(ValueError, match="must vanish for this protocol"):
        stirap_charge(om12, om23, SPECTRUM, 1.0e-3, n_steps=200, protocol="unstable")


def test_stirap_charge_input_guards():
    om12, om23 = stable_protocol(OMEGA_R)
    with pytest.raises(ValueError, match="w3 > w1"):
        stirap_charge(om12, om23, (1.0, 0.5, 0.5), 1.0e-3, n_steps=200)
    with pytest.raises(ValueError, match="negative rate"):
        stirap_charge(om12, om23, SPECTRUM, 1.0e-3, noise={"gamma21": -1.0}, n_steps=200)
    with pytest.raises(ValueError, match="unknown protocol"):
        stirap_charge(om12, om23, SPECTRUM, 1.0e-3, n_steps=200, protocol="resonant")
    with pytest.raises(ValueError, match="hold_fraction"):
        stirap_charge(om12, om23, SPECTRUM, 1.0e-3, n_steps=200, hold_fraction=-0.1)


# ---------------------------------------------------------------------------
# two-cell discharge


def test_two_cell_bond_layouts_conserve_parity():
    parts = two_cell_hamiltonians(J)
    parity = np.kron(np.kron(SIGMA_Z, SIGMA_Z), SIGMA_Z)
    for name in ("initial", "bridge", "final"):
        h = parts[name]
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.max(np.abs(h @ parity - parity @ h)) < 1e-12


def test_two_cell_linear_ramp_transfer():
    rep = two_cell_discharge(lambda s: s, J, J, 20.0 / J, n_steps=4000)
    assert rep.c_max == pytest.approx(2.0 * J)
    assert rep.charge[0] == pytest.approx(0.0, abs=1e-10)
    assert rep.final_charge / rep.c_max == pytest.approx(0.9625697621854423, rel=1e-8)
    assert np.max(np.abs(rep.parity - rep.parity[0])) < 1e-8
    assert rep.parity[0] == pytest.approx(-1.0, abs=1e-12)


def test_two_cell_slow_ramp_is_nearly_complete():
    rep = two_cell_discharge(lambda s: s, J, J, 80.0 / J, n_steps=8000)
    assert rep.final_charge >= 0.99 * rep.c_max


def test_two_cell_hold_window_power_is_exactly_zero():
    rep = two_cell_discharge(lambda s: s, J, J, 20.0 / J, n_steps=2000, hold_fraction=0.2)
    assert rep.tail_max_power == 0.0
    assert rep.peak_power > 0.0


def test_two_cell_ramp_and_hold_guards():
    with pytest.raises(ValueError, match=r"f\(0\) = 0 and f\(1\) = 1"):
        two_cell_discharge(lambda s: 0.5 + 0.5 * s, J, J, 1.0e-2, n_steps=200)
    with pytest.raises(ValueError, match="hold_fraction"):
        two_cell_discharge(lambda s: s, J, J, 1.0e-2, n_steps=200, hold_fraction=-1.0)


def _two_cell_scalar_sampler(ramp, j_coupling, hold_fraction):
    """The two-cell sampler as a one-s closure, the form it had before it
    took arrays of s."""
    parts = two_cell_hamiltonians(j_coupling)
    stretch = 1.0 + hold_fraction

    def sampler(s):
        f = ramp(min(s * stretch, 1.0))
        return (1.0 - f) * parts["initial"] + (1.0 - f) * f * parts["bridge"] + f * parts["final"]

    return sampler


def _two_cell_power_per_node(ramp, j_coupling, omega0, tau, n_steps, hold_fraction):
    """The two-cell power readout as a loop of one power observable and one
    vdot per node, on the same trajectory as two_cell_discharge."""
    stretch = 1.0 + hold_fraction
    sampler = _two_cell_scalar_sampler(ramp, j_coupling, hold_fraction)
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    psi0 = np.kron(singlet, np.array([1.0, 0.0], dtype=complex))
    traj = evolve_unitary(Schedule(tau * stretch, sampler), psi0, n_steps)
    h0_hub = np.kron(np.kron(SIGMA_0, SIGMA_0), -omega0 * SIGMA_Z)
    power = np.empty(len(traj.times))
    for k, psi in enumerate(traj.states):
        p_op = power_operator(h0_hub, sampler(traj.times[k] / (tau * stretch)))
        power[k] = float(np.real(np.vdot(psi, p_op @ psi)))
    return power


@pytest.mark.parametrize("ramp", [lambda s: s, lambda s: math.sin(0.5 * math.pi * s) ** 2], ids=["linear", "sin2"])
def test_two_cell_blocked_power_matches_per_node_loop(ramp):
    """600 steps give 601 nodes: two full 256-node blocks and a short one,
    with the hold window inside the last."""
    rep = two_cell_discharge(ramp, J, J, 20.0 / J, n_steps=600, hold_fraction=0.2)
    assert len(rep.power) % 256
    assert np.array_equal(rep.power, _two_cell_power_per_node(ramp, J, J, 20.0 / J, 600, 0.2))


# Normalized times from s = 0 to s = 1, with the hold window s * stretch > 1
# (stretch 1.2 here) and the sweep's end 1 / stretch itself.
GRID = np.concatenate([np.linspace(0.0, 1.0, 2001), [1.0 / 1.2, 0.9, 1.0]])


@pytest.mark.parametrize("ramp", ["linear", "sin2", "smooth", "math-sin2"])
def test_two_cell_array_sampler_matches_scalar_closure(ramp):
    """One array call gives the stack of the one-s closure's samples.  The
    ramp stays a scalar callable, called on Python floats, so a ramp
    written with ``math`` works and keeps its bits."""
    f = (lambda s: math.sin(0.5 * math.pi * s) ** 2) if ramp == "math-sin2" else RAMPS[ramp]
    sched = two_cell_schedule(f, J, 20.0 / J, hold_fraction=0.2)
    scalar = _two_cell_scalar_sampler(f, J, 0.2)
    assert sched.vectorized
    want = np.array([scalar(s) for s in GRID.tolist()])
    assert np.array_equal(sched.sample(GRID), want)
    assert np.array_equal(sched.at(GRID[-2]), want[-2])


def _stirap_scalar_sampler(omega12, omega23, noise, hold_fraction):
    """The STIRAP sampler as a one-s closure, the form it had before it took
    arrays of s (its jumps come from the array schedule's own generator)."""
    stretch = 1.0 + hold_fraction
    dissipator = stirap_schedule(omega12, omega23, 1.0, noise, hold_fraction).at(0.0)

    def sampler(s):
        s_prot = min(s * stretch, 1.0)
        w12, w23 = omega12(s_prot), omega23(s_prot)
        ham = np.array([[0.0, w12, 0.0], [w12, 0.0, w23], [0.0, w23, 0.0]], dtype=complex)
        return dissipator.replace(ham)

    return sampler


@pytest.mark.parametrize("case", ["stable", "unstable", "noisy"])
def test_stirap_array_sampler_matches_scalar_closure(case):
    """One array call gives one stacked generator whose Hamiltonians are the
    one-s closure's and whose jumps are its shared channels; node k acts as
    the closure's sample at s_k does."""
    drives = (unstable_protocol if case == "unstable" else stable_protocol)(OMEGA_R)
    noise = stirap_noise_model(0.05, OMEGA_R) if case == "noisy" else None
    sched = stirap_schedule(*drives, 20.0 / OMEGA_R, noise, hold_fraction=0.2)
    scalar = _stirap_scalar_sampler(*drives, noise, 0.2)
    want = [scalar(s) for s in GRID.tolist()]
    gen = sched.sample(GRID)
    assert isinstance(gen, LindbladGenerator)
    assert np.array_equal(gen.hamiltonian, np.array([g.hamiltonian for g in want]))
    assert len(gen.jumps) == (4 if case == "noisy" else 0)
    for (rate, jump), (rate_k, jump_k) in zip(gen.jumps, want[0].jumps):
        assert rate == rate_k and np.array_equal(jump, jump_k)
    assert gen.channels[1].ndim == 3  # one (C, D, D) channel stack for every node
    rho = np.array([random_density(3) for _ in GRID])
    acts = np.array([lindblad_action(g, r) for g, r in zip(want, rho)])
    assert np.array_equal(lindblad_action(gen, rho), acts)
    for k in (0, len(GRID) - 1):
        assert np.array_equal(lindblad_action(gen[k], rho[k]), acts[k])
