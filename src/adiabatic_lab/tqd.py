"""Transitionless driving: counter-diabatic schedules, phase freedoms,
field-cost scenarios, gate constructions, and a pulse-program compiler.

A driving Hamiltonian built from a tracked frame reproduces the frame's
eigenstates exactly at any speed, carrying per-level phases at rates
theta_n(s) that the caller chooses: an (M, d) array on the frame grid, in
rad/s.  The adiabatic choice mimics slow driving, the optimal choice
zeroes every controllable phase and minimizes the Hilbert-Schmidt field
cost.

All frequencies are rad/s with hbar = 1 except where a parameter name
says ``_hz``; those are plain Hz at the lab boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import Schedule, difference_points, evolve_unitary, pure_state_density
from .opalg import SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, stack_2x2
from .spectral import SpectralFrame, fourth_order_derivative, frame_from_functions

HERMITICITY_TOL = 1e-8
PHASE_IMAG_TOL = 1e-8


# ---------------------------------------------------------------------------
# phase freedoms and driving schedules


def adiabatic_phases(frame: SpectralFrame) -> np.ndarray:
    """Phase rates that mimic slow driving: -E_n plus the connection term
    i <E_n|dE_n/dt>."""
    return optimal_phases(frame) - frame.energies


def optimal_phases(frame: SpectralFrame) -> np.ndarray:
    """Minimal-field phase rates theta_n = i <E_n|dE_n/dt>; in a
    parallel-transport gauge these vanish identically."""
    conn = 1j * np.einsum("knn->kn", frame.connection)
    worst = np.max(np.abs(np.imag(conn)), axis=0)
    scale = np.maximum(1.0, np.max(np.abs(conn), axis=0))
    bad = np.flatnonzero(worst > PHASE_IMAG_TOL * scale)
    if bad.size:
        raise AssertionError(f"optimal phase has imaginary residual {worst[bad[0]]:.2e}")
    return np.real(conn)


def constant_phases(frame: SpectralFrame, values: Sequence[float]) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.broadcast_to(values, (len(frame.grid), values.shape[0])).copy()


def matrix_series_schedule(grid: np.ndarray, tau: float, mats: np.ndarray) -> Schedule:
    """Schedule over a precomputed matrix series.

    Samples exactly at grid nodes when s lands on one (within 1e-6 of a
    node index) and interpolates linearly otherwise.  Fixed-step
    integrators whose nodes and midpoints coincide with the grid therefore
    see the series without interpolation error.  The schedule is
    vectorized.
    """
    m = len(grid)

    def sampler(s: np.ndarray) -> np.ndarray:
        x = s * (m - 1)
        k = np.rint(x)
        lo = np.clip(np.floor(x), 0, m - 2).astype(int)
        w = (x - lo)[:, None, None]
        snap = (np.abs(x - k) < 1e-6)[:, None, None]
        return np.where(snap, mats[np.clip(k, 0, m - 1).astype(int)], (1.0 - w) * mats[lo] + w * mats[lo + 1])

    return Schedule(tau=tau, sampler=sampler, vectorized=True)


def generalized_tqd(frame: SpectralFrame, theta: np.ndarray) -> Schedule:
    """Driving schedule that follows the frame's eigenstates exactly while
    each level accumulates exp(i int theta_n dt), for phase rates
    ``theta`` of shape (M, d) on the frame grid.

    H(t) = i sum_n |dE_n/dt><E_n|  -  sum_n theta_n |E_n><E_n|,
    Hermitized with an asserted residual below 1e-8 of its scale.
    """
    m, d = frame.energies.shape
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (m, d):
        raise ValueError("phase array does not match the frame grid")
    v, dv = frame.vectors, frame.dvectors
    h = 1j * (dv @ dagger(v)) - (v * theta[:, None, :]) @ dagger(v)
    asym = np.max(np.abs(h - dagger(h)), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(h), axis=(1, 2)))
    bad = np.flatnonzero(asym > HERMITICITY_TOL * scale)
    if bad.size:
        k = bad[0]
        raise AssertionError(
            f"driving Hamiltonian asymmetry {asym[k]:.2e} at node {k}; "
            "frame derivatives are too noisy"
        )
    return matrix_series_schedule(frame.grid, frame.tau, 0.5 * (h + dagger(h)))


def standard_tqd(frame: SpectralFrame) -> Schedule:
    """Driving schedule with adiabatic phases: the frame Hamiltonian plus
    its counter-diabatic correction."""
    return generalized_tqd(frame, adiabatic_phases(frame))


def energy_cost_sigma(h: Schedule) -> float:
    """Mean Hilbert-Schmidt field size (1/tau) int sqrt(Tr H^2) dt, by the
    trapezoid rule on 801 points."""
    grid = np.linspace(0.0, 1.0, 801)
    hams = h.sample(grid)
    vals = np.sqrt(np.maximum(np.real(np.trace(hams @ hams, axis1=1, axis2=2)), 0.0))
    return float(np.trapezoid(vals, grid))


def tqd_time_independence(frame: SpectralFrame, theta: np.ndarray) -> dict:
    """Premise and conclusion of the constant-driving criterion.

    When every connection <E_k|dE_m/dt> is constant in time, constant
    phase rates give a time-independent driving Hamiltonian.  Returns the
    largest connection drift and the largest driving-field drift, both
    relative to their initial scale.
    """
    conn = frame.connection
    drift = float(np.max(np.abs(conn - conn[:1])))
    conn_scale = max(float(np.max(np.abs(conn[0]))), 1e-300)

    hams = generalized_tqd(frame, theta).sample(frame.grid)
    h_scale = max(float(np.max(np.abs(hams[0]))), 1e-300)
    h_drift = float(np.max(np.abs(hams - hams[0])))
    return {
        "connection_drift": drift / conn_scale,
        "field_drift": h_drift / h_scale,
    }


# ---------------------------------------------------------------------------
# avoided-crossing sweep scenario


def lz_frame(
    delta: float,
    theta_fn: Callable[[float], float],
    tau: float,
    n_points: int = 801,
) -> SpectralFrame:
    """Closed-form frame of the two-level avoided-crossing sweep
    H0 = delta (sigma_z + tan(theta(s)) sigma_x).

    The eigenvector derivatives take d theta/ds as a central difference
    between :func:`difference_points`.  ``theta_fn`` takes one Python
    float; the frame calls it three times per node, at the node and at its
    two difference points.
    """
    if delta == 0.0:
        raise ValueError("delta must be nonzero")

    def angles(s: np.ndarray) -> np.ndarray:
        return np.array([theta_fn(x) for x in s.tolist()])

    def eigensystem(s: np.ndarray) -> tuple:
        th = angles(s)
        e = abs(delta) / np.abs(np.cos(th))
        half = 0.5 * th
        lo, hi = difference_points(s)
        rate = 0.5 * ((angles(hi) - angles(lo)) / (hi - lo)) / tau
        rows = stack_2x2(-np.cos(half), -np.sin(half), -np.sin(half), np.cos(half))
        return (
            np.stack((-e, e), axis=-1),
            stack_2x2(-np.sin(half), np.cos(half), np.cos(half), np.sin(half)),
            # a complex product, as in the scalar form: it gives the zero
            # imaginary parts their signs
            rate[:, None, None] * rows.astype(complex),
        )

    return frame_from_functions(tau, n_points, eigensystem)


def lz_intensities(
    theta_fn: Callable[[float], float],
    delta: float,
    tau: float | Sequence[float],
    n_quad: int = 2001,
) -> dict | list[dict]:
    """Relative field intensities of the avoided-crossing sweep variants.

    Normalized so the bare sweep has unit intensity:
    i_opt = int |theta'|^2 ds / (4 tau^2 delta^2 int tan^2 theta ds) and
    i_std = 1 + i_opt.  ``tau_b`` is the duration where the correction
    intensity matches the bare one, sqrt(int |theta'|^2 / int tan^2) /
    (2 |delta|), whatever tau is.  A sequence of durations ``tau`` forms
    the two integrals once and returns a list with one such dict per
    duration, each equal to the dict of its own scalar call.
    """
    grid = np.linspace(0.0, 1.0, n_quad)
    theta = np.array([theta_fn(s) for s in grid])
    if np.any(np.abs(np.cos(theta)) < 1e-9):
        raise ValueError("sweep angle reaches pi/2; intensity integral diverges")
    tan2 = np.tan(theta) ** 2
    dtheta = fourth_order_derivative(theta, grid[1] - grid[0])
    int_tan2 = float(np.trapezoid(tan2, grid))
    int_dth2 = float(np.trapezoid(dtheta**2, grid))
    if int_tan2 <= 0.0:
        raise ValueError("bare sweep intensity vanishes; nothing to normalize by")
    tau_b = math.sqrt(int_dth2 / int_tan2) / (2.0 * abs(delta))
    taus = np.asarray(tau, dtype=float)
    results = []
    # Each duration is divided in Python floats and refused by name when the
    # denominator overflows or underflows or the quotient overflows: a numpy
    # float64 tau would warn and give an i_opt = 0 or inf row.  The product
    # keeps numpy's scalar tau**2, whose bits the lz_tqd golden holds (an
    # array's taus**2 multiplies and may round otherwise), with its overflow
    # warning silenced and the overflow named just below.
    for t in taus.reshape(-1):
        with np.errstate(over="ignore"):
            denom = float(4.0 * t**2 * delta**2 * int_tan2)
        if math.isinf(denom):
            raise OverflowError(f"4 tau^2 delta^2 int tan^2 overflows at tau={float(t)!r}")
        if denom == 0.0:
            raise ZeroDivisionError(f"4 tau^2 delta^2 int tan^2 underflows to 0 at tau={float(t)!r}")
        i_opt = int_dth2 / denom
        if math.isinf(i_opt):
            raise OverflowError(f"correction intensity overflows at tau={float(t)!r}")
        results.append({"i_opt": i_opt, "i_std": 1.0 + i_opt, "tau_b": tau_b})
    return results if taus.ndim else results[0]


# ---------------------------------------------------------------------------
# rotating-field cost comparison


def nmr_field_ratio(omega0: float, omega1: float, omega: float) -> float:
    """Amplitude ratio of the bare rotating-field drive to the minimal
    correction field: (omega0^2 + omega1^2) / (omega1 omega).

    A vanishing denominator (static or transverse-free drive) is returned
    as infinity with a warning rather than raised, since the divergence is
    the physically meaningful answer.
    """
    denom = omega1 * omega
    if denom == 0.0:
        warnings.warn("correction field vanishes; ratio diverges", RuntimeWarning)
        return math.inf
    return (omega0**2 + omega1**2) / denom


def nmr_tqd_field_norms(omega0: float, omega1: float, omega: float) -> dict:
    """Closed-form field magnitudes of the rotating-drive qubit protocols.

    All three are time independent: the bare field, the bare-plus-
    correction field (orthogonal contributions), and the minimal
    correction alone.
    """
    b0 = math.hypot(omega0, omega1)
    alpha = math.atan2(omega1, omega0)
    b_opt = abs(omega) * math.sin(alpha)
    return {
        "b0": b0,
        "b_opt": b_opt,
        "b_std": math.hypot(b0, b_opt),
        "ratio": nmr_field_ratio(omega0, omega1, omega) if omega1 * omega != 0 else math.inf,
    }


# ---------------------------------------------------------------------------
# measurement-steered gates


def _projector_pair(axis: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError("gate axis must be a 3-vector")
    norm = float(np.linalg.norm(axis))
    if norm < 1e-12:
        raise ValueError("gate axis must be nonzero")
    nx, ny, nz = axis / norm
    eps = math.acos(max(-1.0, min(1.0, nz)))
    delta = math.atan2(ny, nx)
    n_plus = np.array([math.cos(0.5 * eps), np.exp(1j * delta) * math.sin(0.5 * eps)])
    n_minus = np.array([-math.sin(0.5 * eps), np.exp(1j * delta) * math.cos(0.5 * eps)])
    return n_plus, n_minus, pure_state_density(n_plus), pure_state_density(n_minus)


def gate_target_unitary(axis: Sequence[float], phi: float) -> np.ndarray:
    """The rotation the steered protocol implements on its register:
    |n+><n+| + e^{i phi} |n-><n-|."""
    _, _, p_plus, p_minus = _projector_pair(axis)
    return p_plus + np.exp(1j * phi) * p_minus


def _ancilla_ham(xi: float, omega: float, phi0: float) -> Callable[[np.ndarray], np.ndarray]:
    """Bare ancilla sweep; maps s, or an array of s, to one matrix per s."""
    in_plane = math.cos(xi) * SIGMA_X + math.sin(xi) * SIGMA_Y

    def sampler(s: np.ndarray) -> np.ndarray:
        sweep = (phi0 * np.asarray(s))[..., None, None]
        return -omega * (np.cos(sweep) * SIGMA_Z + np.sin(sweep) * in_plane)

    return sampler


VARIANTS = ("adiabatic", "standard", "optimal")


def variant_sampler(
    variant: str, base: Callable[[np.ndarray], np.ndarray], correction: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Sampler of a driving variant: "adiabatic" is the bare ``base``
    sweep, "standard" adds the fixed ``correction``, "optimal" keeps
    only the correction.  It takes what ``base`` takes: with an
    array-native ``base``, an array of s gives one matrix per s."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "adiabatic":
        return base
    if variant == "standard":
        return lambda s: base(s) + correction
    return lambda s: np.broadcast_to(correction, np.shape(s) + correction.shape)


def _ancilla_cd(xi: float, phi0: float, tau: float) -> np.ndarray:
    return (0.5 * phi0 / tau) * (math.cos(xi) * SIGMA_Y - math.sin(xi) * SIGMA_X)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, node by node for stacks (..., R, C): the
    same products as one broadcast multiply, without np.kron's
    generic-shape overhead."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, ra, rb, ca, cb = prod.shape
    return prod.reshape(tuple(lead) + (ra * rb, ca * cb))


def controlled_gate_schedule(
    axis: Sequence[float],
    phi: float,
    phi0: float,
    omega: float,
    tau: float,
    variant: str = "adiabatic",
    controlled: bool = False,
) -> Schedule:
    """Ancilla-steered rotation gate about ``axis`` by angle ``phi``.

    The register is projected onto the axis eigenstates; each branch drags
    an ancilla from its ground state through a sweep of angle ``phi0``,
    imprinting the branch phase on the ancilla's excited component.
    Variants: "adiabatic" (bare sweep, needs slow tau), "standard" (sweep
    plus correction), "optimal" (correction only, exact at any speed and
    time independent).  With ``controlled`` a further qubit gates the
    rotation: the branch Hamiltonian acts only in its excited subspace.
    The schedule is vectorized: one sampler call gives a whole grid.

    A sequence of durations ``tau`` gives a sweep schedule with one member
    per duration.  The correction term depends on the duration, so the
    sweep's sampler stacks, over the member axis, each member's sample from
    that duration's own schedule.
    """
    if np.ndim(tau):
        members = [controlled_gate_schedule(axis, phi, phi0, omega, t, variant, controlled) for t in tau]

        def sweep(s: np.ndarray) -> np.ndarray:
            return np.stack([m.sampler(s[:, r]) for r, m in enumerate(members)], axis=1)

        return Schedule(tau=tau, sampler=sweep, vectorized=True)
    plus = variant_sampler(variant, _ancilla_ham(0.0, omega, phi0), _ancilla_cd(0.0, phi0, tau))
    minus = variant_sampler(variant, _ancilla_ham(phi, omega, phi0), _ancilla_cd(phi, phi0, tau))
    _, _, p_plus, p_minus = _projector_pair(axis)
    off, on = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])  # control-qubit projectors

    def sampler(s: np.ndarray) -> np.ndarray:
        h_plus = plus(s)
        h = _kron(p_plus, h_plus) + _kron(p_minus, minus(s))
        if controlled:
            return _kron(off, _kron(SIGMA_0, h_plus)) + _kron(on, h)
        return h

    return Schedule(tau=tau, sampler=sampler, vectorized=True)


def gate_run(
    schedule: Schedule,
    register_state: np.ndarray,
    axis: Sequence[float],
    phi: float,
    n_steps: int,
    controlled: bool = False,
) -> dict | list[dict]:
    """Run a steered-gate schedule and post-select the flagged branch.

    The ancilla starts in its ground state |0>; at the end the component
    with the ancilla flipped carries the rotated register.  Success below
    1e-12 (no sweep, phi0 = 0) is refused since the post-selected state
    is then undefined.  A sweep schedule (a sequence of durations in
    :func:`controlled_gate_schedule`) runs all its members in one
    lock-step :func:`evolve_unitary` and returns a list with one dict per
    member, in sweep order, each equal to the dict of its own run.
    """
    register_state = np.asarray(register_state, dtype=complex)
    register_state = register_state / np.linalg.norm(register_state)
    psi0 = np.kron(register_state, np.array([1.0, 0.0], dtype=complex))
    final = evolve_unitary(schedule, psi0, n_steps).final
    finals = [final] if schedule.members is None else list(final)
    u_rot = gate_target_unitary(axis, phi)
    if controlled:
        u_rot = np.kron(np.diag([1.0, 0.0]), SIGMA_0) + np.kron(np.diag([0.0, 1.0]), u_rot)
    expected = u_rot @ register_state

    results = []
    for final in finals:
        branch = final.reshape(-1, 2)[:, 1]
        success = float(np.real(np.vdot(branch, branch)))
        if success < 1e-12:
            raise ValueError("post-selected branch has no weight")
        out = branch / math.sqrt(success)
        fid = float(abs(np.vdot(expected, out)) ** 2)
        results.append({
            "success_prob": success,
            "output": out,
            "fidelity": fid,
        })
    return results[0] if schedule.members is None else results


# ---------------------------------------------------------------------------
# two-spin phase-gate forms and the pulse-program compiler


def phase_gate_schedule(nu_hz: float, tau: float, variant: str) -> Schedule:
    """Two-spin form of the steered z rotation used by the compiler.

    H0(s) = -2 pi nu [cos(pi s) 1 x sigma_z + sin(pi s) sigma_z x sigma_x];
    "standard" adds (pi / 2 tau) sigma_z x sigma_y, "optimal" keeps only
    that correction.
    """
    w = 2.0 * math.pi * nu_hz
    zz_x = np.kron(SIGMA_Z, SIGMA_X)
    one_z = np.kron(SIGMA_0, SIGMA_Z)
    correction = (0.5 * math.pi / tau) * np.kron(SIGMA_Z, SIGMA_Y)

    def base(s: np.ndarray) -> np.ndarray:
        angle = (math.pi * s)[:, None, None]
        return -w * (np.cos(angle) * one_z + np.sin(angle) * zz_x)

    return Schedule(tau=tau, sampler=variant_sampler(variant, base, correction), vectorized=True)


@dataclass(eq=False)
class PulseSequence:
    """A compiled program of in-plane rotations and scalar-coupling delays.

    ``items`` is a tuple of ("ROT", spin, theta, phi) and ("FREE", dt)
    entries in execution order.  Rotations are
    exp[-i (theta/2)(cos(phi) sigma_x + sin(phi) sigma_y)] on the named
    spin (1 or 2); a delay evolves exp[-i (pi J / 2) dt sigma_z sigma_z]
    with J in Hz.  ``energy_units`` counts rotations, the pulse-energy
    bookkeeping unit.
    """

    variant: str
    n_blocks: int
    tau: float
    nu_hz: float
    j_hz: float
    items: tuple

    @property
    def n_rotations(self) -> int:
        return sum(1 for it in self.items if it[0] == "ROT")

    @property
    def n_free(self) -> int:
        return sum(1 for it in self.items if it[0] == "FREE")

    @property
    def energy_units(self) -> int:
        return self.n_rotations


def _rot(spin: int, theta: float, phi: float) -> tuple:
    # canonical form: non-negative angle, axis phase wrapped to (-pi, pi]
    if theta < 0:
        theta, phi = -theta, phi + math.pi
    phi = math.remainder(phi, 2.0 * math.pi)
    return ("ROT", spin, float(theta), float(phi))


def compile_pulse_sequence(
    variant: str,
    n_blocks: int,
    tau: float,
    nu_hz: float,
    j_hz: float,
) -> PulseSequence:
    """Compile the phase-gate evolution into rotations and delays.

    adiabatic: a basis-opening pulse, n_blocks symmetric Trotter blocks
    of [half x-pulse, coupling delay, half x-pulse], and a closing pulse;
    2 (n_blocks + 1) rotations.  The opening pulse turns the coupling
    term into plain sigma_z sigma_z evolution whose required phase is
    non-negative throughout the sweep, so every delay is realizable.

    standard: n_blocks first-order blocks in the lab basis; per block a
    two-pulse conjugated delay implements the combined coupling-plus-
    correction term (its in-plane axis absorbs both components) and a
    three-pulse composite implements the single-spin z term; 5 n_blocks
    rotations.

    optimal: the correction alone is a fixed two-spin rotation; one echo
    delay pair of total length tau with difference 1/J realizes it with
    3 rotations.  Durations that cannot fit the echo (tau < 1/J) are
    refused.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if tau <= 0 or j_hz <= 0:
        raise ValueError("tau and j_hz must be positive")
    items: list = []
    w = 2.0 * math.pi * nu_hz

    if variant == "optimal":
        dt1 = (j_hz * tau + 1.0) / (2.0 * j_hz)
        dt2 = tau - dt1
        if dt2 < 0:
            raise ValueError(
                f"echo delay 2 is negative ({dt2:.3e} s): tau must be at least 1/J"
            )
        items.append(_rot(2, 0.5 * math.pi, 0.0))
        items.append(("FREE", dt1))
        items.append(_rot(2, math.pi, 0.0))
        items.append(("FREE", dt2))
        items.append(_rot(2, 0.5 * math.pi, 0.0))
        return PulseSequence(variant, 0, tau, nu_hz, j_hz, tuple(items))

    if n_blocks < 1:
        raise ValueError("n_blocks must be at least 1")
    dt = tau / n_blocks
    mids = (np.arange(n_blocks) + 0.5) * dt

    if variant == "adiabatic":
        items.append(_rot(2, 0.5 * math.pi, 0.5 * math.pi))  # open: z <-> x basis
        for n, t_n in enumerate(mids):
            c = -w * math.cos(math.pi * t_n / tau)
            d_free = (4.0 * nu_hz / j_hz) * math.sin(math.pi * t_n / tau) * dt
            if d_free < -1e-15:
                raise ValueError(f"negative delay in block {n + 1}")
            items.append(_rot(2, c * dt, 0.0))
            items.append(("FREE", max(d_free, 0.0)))
            items.append(_rot(2, c * dt, 0.0))
        items.append(_rot(2, 0.5 * math.pi, -0.5 * math.pi))  # close
        return PulseSequence(variant, n_blocks, tau, nu_hz, j_hz, tuple(items))

    # standard
    k_corr = 0.5 * math.pi / tau
    for n, t_n in enumerate(mids):
        a = -w * math.cos(math.pi * t_n / tau)
        b = -w * math.sin(math.pi * t_n / tau)
        v_norm = math.hypot(b, k_corr)
        phi_v = math.atan2(k_corr, b)
        d_free = 2.0 * v_norm * dt / (math.pi * j_hz)
        if d_free < 0:
            raise ValueError(f"negative delay in block {n + 1}")
        # conjugated delay: exp(-i dt sigma_z (b sx + k sy))
        items.append(_rot(2, 0.5 * math.pi, phi_v + 1.5 * math.pi))
        items.append(("FREE", d_free))
        items.append(_rot(2, 0.5 * math.pi, phi_v + 0.5 * math.pi))
        # z composite: exp(-i dt a 1 x sigma_z), zeta = 2 a dt
        zeta = 2.0 * a * dt
        items.append(_rot(2, 0.5 * math.pi, math.pi))
        items.append(_rot(2, zeta, 0.5 * math.pi))
        items.append(_rot(2, 0.5 * math.pi, 0.0))
    return PulseSequence(variant, n_blocks, tau, nu_hz, j_hz, tuple(items))


def _rotation_matrix(theta: float, phi: float) -> np.ndarray:
    axis = math.cos(phi) * SIGMA_X + math.sin(phi) * SIGMA_Y
    return (
        math.cos(0.5 * theta) * SIGMA_0 - 1j * math.sin(0.5 * theta) * axis
    )


def pulse_sequence_unitary(seq: PulseSequence) -> np.ndarray:
    """The exact two-spin unitary of a compiled program."""
    u = np.eye(4, dtype=complex)
    zz = np.kron(SIGMA_Z, SIGMA_Z)
    for item in seq.items:
        if item[0] == "ROT":
            _, spin, theta, phi = item
            r = _rotation_matrix(theta, phi)
            step = np.kron(r, SIGMA_0) if spin == 1 else np.kron(SIGMA_0, r)
        else:
            phase = 0.5 * math.pi * seq.j_hz * item[1]
            step = np.diag(np.exp(-1j * phase * np.diag(zz)))
        u = step @ u
    return u


def serialize_pulse_sequence(seq: PulseSequence) -> str:
    lines = [
        "# pulse-program v1",
        (
            f"# variant={seq.variant} n_blocks={seq.n_blocks} tau={seq.tau!r} "
            f"nu_hz={seq.nu_hz!r} j_hz={seq.j_hz!r}"
        ),
        (
            f"# rotations={seq.n_rotations} free_intervals={seq.n_free} "
            f"energy_units={seq.energy_units}"
        ),
    ]
    for item in seq.items:
        if item[0] == "ROT":
            _, spin, theta, phi = item
            lines.append(f"ROT {spin} {theta!r} {phi!r}")
        else:
            lines.append(f"FREE {item[1]!r}")
    return "\n".join(lines) + "\n"


def parse_pulse_sequence(text: str) -> PulseSequence:
    """Inverse of :func:`serialize_pulse_sequence`."""
    meta: dict = {}
    items: list = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, val = token.split("=", 1)
                    meta[key] = val
            continue
        parts = line.split()
        if parts[0] == "ROT":
            items.append(("ROT", int(parts[1]), float(parts[2]), float(parts[3])))
        elif parts[0] == "FREE":
            items.append(("FREE", float(parts[1])))
        else:
            raise ValueError(f"unknown program line {line!r}")
    return PulseSequence(
        variant=meta.get("variant", "unknown"),
        n_blocks=int(meta.get("n_blocks", 0)),
        tau=float(meta.get("tau", 0.0)),
        nu_hz=float(meta.get("nu_hz", 0.0)),
        j_hz=float(meta.get("j_hz", 0.0)),
        items=tuple(items),
    )
