"""Quantum-battery charging and discharging scenarios.

Work content is measured by ergotropy, the energy extractable through
unitaries: the gap between a state's mean energy and that of its passive
partner (same spectrum, populations anti-ordered against the energy
levels).  Two concrete machines live here: a three-level ladder charged
by a pair of Rabi drives (dark-state transfer), and a two-cell battery
discharging into a hub qubit through a bond-rewiring sweep.

Energies are rad/s with hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import READOUT_BLOCK, LindbladGenerator, Schedule, evolve_lindblad, evolve_unitary
from .opalg import SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, is_hermitian
from .spectral import cumtrapz, fourth_order_derivative

BOUNDARY_TOL = 1e-9
RAMP_TOL = 1e-12
# The two-cell sweep holds its final bonds for this fraction of tau.
TWO_CELL_HOLD = 0.1


# ---------------------------------------------------------------------------
# ergotropy


def ergotropy(rho: np.ndarray, h0: np.ndarray):
    """Unitarily extractable work of ``rho`` against ``h0``.

    Stacks of states and/or Hamiltonians (..., D, D) broadcast against
    each other and give an array; a single pair gives a float.
    """
    rho = np.asarray(rho, dtype=complex)
    h0 = np.asarray(h0, dtype=complex)
    if not is_hermitian(rho):
        raise ValueError("state must be Hermitian")
    if not is_hermitian(h0):
        raise ValueError("reference Hamiltonian must be Hermitian")
    pops = np.linalg.eigvalsh(rho)[..., ::-1]
    levels = np.linalg.eigvalsh(h0)
    passive = (pops[..., None, :] @ levels[..., :, None])[..., 0, 0]
    out = np.real(np.trace(rho @ h0, axis1=-2, axis2=-1)) - passive
    return float(out) if out.ndim == 0 else out


def power_operator(h0_a: np.ndarray, h_c: np.ndarray) -> np.ndarray:
    """Instantaneous-power observable -i [H0, H_coupling]; its mean is
    d/dt of the stored energy whenever the state evolves under H_c.

    Stacks (..., D, D) broadcast against each other and give a stack of
    observables.  The asymmetry check runs node by node, on each node's
    own scale, and names the first failing node of a stack (counted in
    row-major order over its leading axes).
    """
    h0_a = np.asarray(h0_a, dtype=complex)
    h_c = np.asarray(h_c, dtype=complex)
    p = -1j * (h0_a @ h_c - h_c @ h0_a)
    asym = np.max(np.abs(p - dagger(p)), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(p), axis=(-2, -1)))
    bad = np.flatnonzero(asym > 1e-10 * scale)
    if bad.size:
        k = bad[0]
        where = f" at node {k}" if asym.ndim else ""
        raise AssertionError(f"power observable asymmetry {asym.flat[k]:.2e}{where}")
    return 0.5 * (p + dagger(p))


# ---------------------------------------------------------------------------
# three-level ladder charged through a dark state


def stable_protocol(omega_rabi: float) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Drive pair that keeps the transfer in the dark state: the lower
    coupling ramps up, the upper ramps down."""
    return (lambda s: omega_rabi * s, lambda s: omega_rabi * (1.0 - s))


def unstable_protocol(omega_rabi: float) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Role-swapped drive pair: the initial state then overlaps the bright
    doublet and the stored energy oscillates instead of ratcheting."""
    return (lambda s: omega_rabi * (1.0 - s), lambda s: omega_rabi * s)


def stirap_noise_model(gamma0: float, omega_rabi: float) -> dict:
    """Sequential-decay and dephasing rates used by the charging study,
    scaled by the dimensionless strength ``gamma0``."""
    base = gamma0 * omega_rabi
    return {"gamma21": base, "gamma32": 2.0 * base, "deph2": base, "deph3": 2.0 * base}


@dataclass(eq=False)
class ChargeReport:
    times: np.ndarray
    ergotropy: np.ndarray
    power: np.ndarray
    populations: np.ndarray
    final_ergotropy: float
    p_max_norm: float
    peak_power: float
    tail_max_power: float


def _check_boundary(value: float, scale: float, label: str) -> None:
    if abs(value) > BOUNDARY_TOL * max(scale, 1.0):
        raise ValueError(f"{label} must vanish for this protocol, got {value:.3e}")


def stirap_schedule(
    omega12: Callable[[float], float],
    omega23: Callable[[float], float],
    tau: float,
    noise: dict | None = None,
    hold_fraction: float = 0.1,
) -> Schedule:
    """The ladder's open schedule for :func:`stirap_charge`: the two-tone
    drive swept over ``tau``, then held at its final value for
    ``hold_fraction`` of tau, with the jumps of ``noise`` (rates keyed as
    in :func:`stirap_noise_model`).  The schedule is vectorized: the
    envelopes are called once per node, and each sampler call builds one
    stacked generator whose nodes share one set of channels."""
    rates = noise or {}
    jumps = []
    lower21 = np.zeros((3, 3), dtype=complex)
    lower21[0, 1] = 1.0
    lower32 = np.zeros((3, 3), dtype=complex)
    lower32[1, 2] = 1.0
    for key, op in (
        ("gamma21", lower21),
        ("gamma32", lower32),
        ("deph2", np.diag([0.0, 1.0, 0.0]).astype(complex)),
        ("deph3", np.diag([0.0, 0.0, 1.0]).astype(complex)),
    ):
        rate = float(rates.get(key, 0.0))
        if rate < 0:
            raise ValueError(f"negative rate {key}")
        if rate > 0:
            jumps.append((rate, op))

    if hold_fraction < 0:
        raise ValueError("hold_fraction must be non-negative")
    stretch = 1.0 + hold_fraction
    jumps = tuple(jumps)

    def sampler(s: np.ndarray) -> LindbladGenerator:
        s_prot = np.minimum(s * stretch, 1.0).tolist()
        ham = np.zeros((len(s_prot), 3, 3), dtype=complex)
        ham[:, 0, 1] = ham[:, 1, 0] = [omega12(x) for x in s_prot]
        ham[:, 1, 2] = ham[:, 2, 1] = [omega23(x) for x in s_prot]
        return LindbladGenerator(ham, jumps)

    return Schedule(tau * stretch, sampler, vectorized=True)


def stirap_charge(
    omega12: Callable[[float], float],
    omega23: Callable[[float], float],
    spectrum: Sequence[float],
    tau: float,
    noise: dict | None = None,
    n_steps: int = 4000,
    *,
    protocol: str,
    hold_fraction: float = 0.1,
) -> ChargeReport:
    """Charge the three-level ladder with a two-tone drive.

    The drive couples 1-2 and 2-3 with envelopes ``omega12(s)`` and
    ``omega23(s)`` (rad/s, s = t/tau) in the resonant rotating frame;
    jumps and dephasing act identically in that frame, and the ladder
    energies ``spectrum`` enter only the ergotropy bookkeeping, which the
    frame change leaves untouched.  ``protocol`` ("stable" or "unstable")
    picks the boundary checks of that drive pair; any other value is a
    ValueError.  The ergotropy is read out over ``READOUT_BLOCK`` nodes at
    a time, so the readout costs one block beyond the states.

    After the sweep the drive is held at its final value for an extra
    ``hold_fraction`` of tau; ``tail_max_power`` is the largest |P| seen
    in that hold window, the stability figure of merit (an adiabatic run
    parks in an eigenstate of the held drive, so its tail power vanishes
    and no stored energy flows back).  ``peak_power`` is the largest |P|
    of the whole run and ``p_max_norm`` the conventional normalizer
    pi / (2 (w3 - w1)).
    """
    w1, w2, w3 = (float(w) for w in spectrum)
    if not (w3 > w1):
        raise ValueError("spectrum must have w3 > w1")
    scale = max(abs(omega12(0.5)), abs(omega23(0.5)), abs(omega12(1.0)), abs(omega23(0.0)))
    if protocol == "stable":
        _check_boundary(omega12(0.0), scale, "omega12(0)")
        _check_boundary(omega23(1.0), scale, "omega23(1)")
    elif protocol == "unstable":
        _check_boundary(omega23(0.0), scale, "omega23(0)")
        _check_boundary(omega12(1.0), scale, "omega12(1)")
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    traj = evolve_lindblad(stirap_schedule(omega12, omega23, tau, noise, hold_fraction), rho0, n_steps)

    h0 = np.diag([w1, w2, w3]).astype(complex)
    states = np.asarray(traj.states)
    erg = np.concatenate([ergotropy(states[a:a + READOUT_BLOCK], h0)
                          for a in range(0, len(states), READOUT_BLOCK)])
    pops = np.real(np.einsum("tii->ti", states))
    power = fourth_order_derivative(erg, traj.times[1] - traj.times[0])
    k_end = int(np.searchsorted(traj.times, tau, side="right"))
    # skip the stencil width around the sweep-to-hold kink
    k_tail = min(k_end + 3, len(erg) - 2)
    tail = np.abs(power[k_tail:]) if hold_fraction > 0 else np.abs(power[-2:])
    return ChargeReport(
        times=traj.times,
        ergotropy=erg,
        power=power,
        populations=pops,
        final_ergotropy=float(erg[min(k_end, len(erg) - 1)]),
        p_max_norm=0.5 * math.pi / (w3 - w1),
        peak_power=float(np.max(np.abs(power))),
        tail_max_power=float(np.max(tail)),
    )


def stirap_unstable_ergotropy(
    omega12: Callable[[float], float],
    omega23: Callable[[float], float],
    spectrum: Sequence[float],
    tau: float,
    n_points: int = 2001,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ergotropy envelope of the role-swapped protocol.

    The initial state is an equal superposition of the bright doublet;
    following it adiabatically and keeping the opposite dynamical phases
    exp(-+ i Phi), Phi = int sqrt(w12^2 + w23^2) dt, gives
    E(t) = cos^2(Phi) (w1 w12^2 + w3 w23^2)/D^2 + w2 sin^2(Phi) - w1.
    Returns (s_grid, ergotropy)."""
    w1, w2, w3 = (float(w) for w in spectrum)
    grid = np.linspace(0.0, 1.0, n_points)
    w12 = np.array([omega12(s) for s in grid])
    w23 = np.array([omega23(s) for s in grid])
    d2 = w12**2 + w23**2
    if np.any(d2 <= 0):
        raise ValueError("drive gap closes; bright doublet degenerates")
    phi = cumtrapz(np.sqrt(d2), grid * tau)
    energy = np.cos(phi) ** 2 * (w1 * w12**2 + w3 * w23**2) / d2 + w2 * np.sin(phi) ** 2
    return grid, energy - w1


# ---------------------------------------------------------------------------
# two-cell battery discharging into a hub


@dataclass(eq=False)
class DischargeReport:
    times: np.ndarray
    charge: np.ndarray
    power: np.ndarray
    parity: np.ndarray
    final_charge: float
    c_max: float
    peak_power: float
    tail_max_power: float


def _expectation(states: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Re <psi|op|psi> for every row of ``states``; ``op`` is one matrix,
    or a stack with one matrix per row."""
    images = op @ states[:, :, None]
    return np.real(np.conj(states)[:, None, :] @ images)[:, 0, 0]


def _two_body(op_a: np.ndarray, slot_a: int, op_b: np.ndarray, slot_b: int) -> np.ndarray:
    ops = [SIGMA_0, SIGMA_0, SIGMA_0]
    ops[slot_a] = op_a
    ops[slot_b] = op_b
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


def two_cell_hamiltonians(j_coupling: float) -> dict:
    """The three bond layouts of the discharge sweep on (cell1, cell2, hub):
    the starting intra-cell exchange, the bridge that adds the cell2-hub
    exchange, and the final Ising bonds onto the hub."""
    xx_b = _two_body(SIGMA_X, 0, SIGMA_X, 1) + _two_body(SIGMA_Y, 0, SIGMA_Y, 1)
    xx_bridge = xx_b + _two_body(SIGMA_X, 1, SIGMA_X, 2) + _two_body(SIGMA_Y, 1, SIGMA_Y, 2)
    zz_fin = _two_body(SIGMA_Z, 0, SIGMA_Z, 2) + _two_body(SIGMA_Z, 1, SIGMA_Z, 2)
    return {
        "initial": j_coupling * xx_b,
        "bridge": j_coupling * xx_bridge,
        "final": j_coupling * zz_fin,
    }


def two_cell_schedule(
    ramp: Callable[[float], float],
    j_coupling: float,
    tau: float,
) -> Schedule:
    """The bond sweep of :func:`two_cell_discharge`, H(s) = (1 - f) H_initial
    + (1 - f) f H_bridge + f H_final with f = ramp(s) over ``tau``, then the
    final bonds held for ``TWO_CELL_HOLD`` of tau.  The schedule is
    vectorized: ``ramp`` is called once per node, on a Python float."""
    if abs(ramp(0.0)) > RAMP_TOL or abs(ramp(1.0) - 1.0) > RAMP_TOL:
        raise ValueError("ramp must satisfy f(0) = 0 and f(1) = 1")
    parts = two_cell_hamiltonians(j_coupling)
    stretch = 1.0 + TWO_CELL_HOLD

    def sampler(s: np.ndarray) -> np.ndarray:
        f = np.array([ramp(x) for x in np.minimum(s * stretch, 1.0).tolist()])[:, None, None]
        return (1.0 - f) * parts["initial"] + (1.0 - f) * f * parts["bridge"] + f * parts["final"]

    return Schedule(tau * stretch, sampler, vectorized=True)


def two_cell_discharge(
    ramp: Callable[[float], float],
    j_coupling: float,
    omega0: float,
    tau: float,
    n_steps: int = 4000,
) -> DischargeReport:
    """Sweep the two-cell battery's bonds onto the hub qubit.

    H(s) = (1 - f) H_initial + (1 - f) f H_bridge + f H_final with
    f = ramp(s), ramp(0) = 0 and ramp(1) = 1 enforced to 1e-12.  The
    battery starts in the intra-cell singlet with the hub in its excited
    z state of H0_hub = -omega0 sigma_z; a slow sweep lands the hub on
    the opposite pole, transferring charge C = <H0_hub> + omega0 from 0
    to 2 omega0.  The three-fold z parity is conserved exactly and is
    reported as a discretization diagnostic.

    The final bond layout is held for an extra ``TWO_CELL_HOLD`` of tau;
    because it commutes with the hub energy, the power in that window is
    identically zero for any state, which is the no-backflow stability
    mechanism.  ``tail_max_power`` reports the largest |P| seen there and
    ``peak_power`` the run's own maximum for normalizing it.  Charge,
    parity and power are read out over ``READOUT_BLOCK`` nodes at a time.
    """
    sched = two_cell_schedule(ramp, j_coupling, tau)
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1.0 / math.sqrt(2.0)
    singlet[2] = -1.0 / math.sqrt(2.0)
    psi0 = np.kron(singlet, np.array([1.0, 0.0], dtype=complex))

    traj = evolve_unitary(sched, psi0, n_steps)

    h0_hub = np.kron(np.kron(SIGMA_0, SIGMA_0), -omega0 * SIGMA_Z)
    parity_op = np.kron(np.kron(SIGMA_Z, SIGMA_Z), SIGMA_Z)
    m = len(traj.times)
    charge, power, parity = np.empty(m), np.empty(m), np.empty(m)
    # one sampler call per block re-samples the nodes rk4 sampled and dropped:
    # keeping every sample would cost memory that blocks do not
    for a in range(0, m, READOUT_BLOCK):
        block = slice(a, a + READOUT_BLOCK)
        states = traj.states[block]
        charge[block] = _expectation(states, h0_hub) + omega0
        parity[block] = _expectation(states, parity_op)
        p_op = power_operator(h0_hub, sched.sample(traj.times[block] / sched.tau))
        power[block] = _expectation(states, p_op)
    k_end = int(np.searchsorted(traj.times, tau, side="right"))
    tail = np.abs(power[min(k_end, m - 1):])
    return DischargeReport(
        times=traj.times,
        charge=charge,
        power=power,
        parity=parity,
        final_charge=float(charge[min(k_end, m - 1)]),
        c_max=2.0 * omega0,
        peak_power=float(np.max(np.abs(power))),
        tail_max_power=float(np.max(tail)),
    )
