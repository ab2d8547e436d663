"""Adiabaticity condition evaluators and frame-equivalence checks.

All evaluators work on a :class:`~adiabatic_lab.spectral.SpectralFrame`
plus the Hamiltonian schedule that produced it, with hbar = 1 so energies
and rates are rad/s.  Four condition families are provided: the
traditional gap criterion, its three-part refinement, the
gauge-invariant resonance-sensitive criterion, and the norm-based
rigorous bound.  Two theorem checkers compare adiabatic verdicts between
frames related by a time-dependent unitary.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import Schedule, frame_transform
from .opalg import SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, stack_2x2
from .spectral import SpectralFrame, fourth_order_derivative, frame_from_functions

def _hdot_samples(h: Schedule, grid: np.ndarray, tau: float) -> np.ndarray:
    return fourth_order_derivative(h.sample(grid), grid[1] - grid[0]) / tau


def _profile(series: np.ndarray) -> np.ndarray:
    """Maximum of |series[:, m, n]| over the grid for every pair, (d, d);
    each pair's profile is reduced as one contiguous row."""
    return np.max(np.ascontiguousarray(np.moveaxis(np.abs(series), 0, -1)), axis=-1)


def _coupling(frame: SpectralFrame, h: Schedule, modulus: bool = False) -> np.ndarray:
    """<E_m|dH/dt|E_n> / (E_m - E_n)^2 on every node, (M, d, d) with a zero
    diagonal.  ``modulus`` divides |<E_m|dH/dt|E_n>| instead, as
    :func:`c_trad` is defined; that rounds differently from the modulus of
    the quotient."""
    hdot = _hdot_samples(h, frame.grid, frame.tau)
    num = dagger(frame.vectors) @ hdot @ frame.vectors
    if modulus:
        num = np.abs(num)
    gap = frame.energies[:, :, None] - frame.energies[:, None, :]
    off = ~np.eye(frame.n_levels, dtype=bool)
    out = np.zeros_like(num)
    # float_power rounds like a scalar ``gap ** 2`` (libm pow); ndarray ** 2
    # multiplies instead and can differ in the last bit
    out[:, off] = num[:, off] / np.float_power(gap[:, off], 2)
    return out


def c_trad(frame: SpectralFrame, h: Schedule) -> float:
    """Traditional gap condition: max over time and level pairs of
    |<E_m|dH/dt|E_n>| / (E_m - E_n)^2."""
    return float(np.max(_coupling(frame, h, modulus=True)))


def c_tong(frame: SpectralFrame, h: Schedule) -> float:
    """Three-part refinement of the gap condition.

    Returns the largest of the parts (a), (b) and (c).  Part (a) is the
    traditional condition.  Part (b) bounds the drift of the gap-weighted
    coupling, part (c) its mixing with the eigenstate velocities; both are
    scaled by the duration tau and take each pair's maximum over time.
    """
    grid, tau = frame.grid, frame.tau
    dim = frame.n_levels
    coupling = _coupling(frame, h)
    part_a = float(np.max(np.abs(coupling)))

    dcoupling = fourth_order_derivative(coupling, grid[1] - grid[0]) / tau
    off = ~np.eye(dim, dtype=bool)
    part_b = float(np.max(_profile(dcoupling)[off]) * tau)

    # amp[m, n] * vel[m, l] over pairs m != n and levels l != m
    amp, vel = _profile(coupling), _profile(frame.connection)
    prod = amp[:, :, None] * vel[:, None, :] * tau
    part_c = float(np.max(prod[off[:, :, None] & off[:, None, :]], initial=0.0))

    return max(part_a, part_b, part_c)


def c_wu(frame: SpectralFrame) -> float:
    """Resonance-sensitive condition built from eigenstate velocities.

    Uses gamma_nm = i <E_n|dE_m/dt> and, per ordered pair (m, n), the
    effective detuning Delta = gamma_mm - gamma_nn + d/dt arg gamma_nm
    with the phase unwrapped along the grid.  The returned value is the
    worst over time, pairs, and numerator level k != m of
    sqrt(N-1) |gamma_km| / sqrt((E_n - E_m)^2 + Delta^2).

    The construction is gauge invariant up to finite-difference error;
    pairs whose coupling gamma_nm vanishes identically are skipped with a
    notice since their phase derivative is undefined.
    """
    grid, tau = frame.grid, frame.tau
    ds = grid[1] - grid[0]
    dim = frame.n_levels
    gamma = 1j * frame.connection

    worst = 0.0
    scale = np.max(np.abs(gamma))
    for m, n in itertools.permutations(range(dim), 2):
        g_nm = gamma[:, n, m]
        if np.max(np.abs(g_nm)) < 1e-14 * max(scale, 1e-300):
            warnings.warn(
                f"coupling between levels {n} and {m} vanishes; pair skipped",
                RuntimeWarning,
            )
            continue
        phase = np.unwrap(np.angle(g_nm))
        dphase = fourth_order_derivative(phase, ds) / tau
        detune = np.real(gamma[:, m, m] - gamma[:, n, n]) + dphase
        gap = frame.energies[:, n] - frame.energies[:, m]
        denom = np.sqrt(gap**2 + detune**2)
        for k in range(dim):
            if k == m:
                continue
            ratio = np.sqrt(dim - 1) * np.abs(gamma[:, k, m]) / denom
            worst = max(worst, float(np.max(ratio)))
    return worst


def c_ar(frame: SpectralFrame, h: Schedule) -> float:
    """Norm-based rigorous bound, Frobenius norms throughout.

    max over time of max(|dH/dt|^3 / gap^4, |dH/dt| |d2H/dt2| / gap^3)
    times tau^2, with the lowest spectral gap E_1 - E_0; a gap that is
    not strictly positive on some node is refused.
    """
    grid, tau = frame.grid, frame.tau
    ds = grid[1] - grid[0]
    hdot = _hdot_samples(h, grid, tau)
    hddot = fourth_order_derivative(hdot, ds) / tau
    norm1 = np.linalg.norm(hdot, axis=(1, 2))
    norm2 = np.linalg.norm(hddot, axis=(1, 2))
    gap = frame.energies[:, 1] - frame.energies[:, 0]
    if np.any(gap <= 0):
        raise ValueError("gap profile must be strictly positive")
    bound = np.maximum(norm1**3 / gap**4, norm1 * norm2 / gap**3)
    return float(np.max(bound) * tau**2)


def scan_min_gap(h: Schedule, n_points: int = 1001) -> float:
    """Minimum E_1 - E_0 over the grid by direct diagonalization.

    Unlike tracked frames this tolerates exact degeneracies, so it is the
    right probe when a crossing is the expected answer.
    """
    vals = np.linalg.eigvalsh(h.sample(np.linspace(0.0, 1.0, n_points)))
    return float(np.min(vals[:, 1] - vals[:, 0]))


# ---------------------------------------------------------------------------
# built-in driven-qubit models


@dataclass(eq=False)
class ModelKit:
    """A schedule bundled with its closed-form frame and frame map.

    ``frame_map`` is the unitary O(s) connecting this model to its
    companion frame, when one exists, and ``frame_map_dot`` its
    physical-time derivative.  Both map an (M,) array of s to an
    (M, D, D) stack, as :func:`~adiabatic_lab.dynamics.frame_transform`
    takes them; the theorem checks refuse a kit without both.
    """

    schedule: Schedule
    frame: SpectralFrame
    frame_map: Callable[[np.ndarray], np.ndarray] | None = None
    frame_map_dot: Callable[[np.ndarray], np.ndarray] | None = None


def _z_rotation(omega: float, tau: float) -> tuple[Callable, Callable]:
    """Frame map O(s) = exp(i omega t sigma_z / 2), t = s tau, the z
    rotation at the drive frequency, in closed form, and its physical-time
    derivative."""

    def frame_map(s: np.ndarray) -> np.ndarray:
        a = 0.5j * omega * s * tau
        return stack_2x2(np.exp(a), 0.0, 0.0, np.exp(-a))

    def frame_map_dot(s: np.ndarray) -> np.ndarray:
        return (0.5j * omega * SIGMA_Z) @ frame_map(s)

    return frame_map, frame_map_dot


def nmr_rotating(
    omega0: float, omega1: float, omega: float, tau: float, n_points: int = 801
) -> ModelKit:
    """Qubit with static z splitting omega0 and a transverse field of
    magnitude omega1 rotating at omega (all rad/s).

    The instantaneous splitting is constant, omega0 / cos(theta) with
    tan(theta) = omega1 / omega0, and the frame map is the z rotation at
    the drive frequency.
    """
    if omega0 == 0.0:
        raise ValueError("omega0 must be nonzero")
    theta = np.arctan2(omega1, omega0)
    half, sec = 0.5 * theta, 1.0 / np.cos(theta)
    e_split = 0.5 * omega0 * sec

    def sampler(s: np.ndarray) -> np.ndarray:
        t = (s * tau)[..., None, None]
        return 0.5 * omega0 * SIGMA_Z + 0.5 * omega1 * (
            np.cos(omega * t) * SIGMA_X + np.sin(omega * t) * SIGMA_Y
        )

    def eigensystem(s: np.ndarray) -> tuple:
        ph = np.exp(-1j * omega * s * tau)
        return (
            np.broadcast_to([-e_split, e_split], s.shape + (2,)),
            stack_2x2(-ph * np.sin(half), ph * np.cos(half), np.cos(half), np.sin(half)),
            stack_2x2(1j * omega * ph * np.sin(half), -1j * omega * ph * np.cos(half), 0.0, 0.0),
        )

    frame = frame_from_functions(tau, n_points, eigensystem)
    return ModelKit(Schedule(tau, sampler, vectorized=True), frame, *_z_rotation(omega, tau))


def nmr_rotating_frame(
    omega0: float, omega1: float, omega: float, tau: float, n_points: int = 801
) -> ModelKit:
    """Companion constant Hamiltonian of the rotating-drive qubit:
    0.5 (omega0 - omega) sigma_z + 0.5 omega1 sigma_x."""
    detuning = omega0 - omega
    split = 0.5 * np.hypot(detuning, omega1)
    if split == 0.0:
        raise ValueError("rotating-frame Hamiltonian vanishes at resonance")
    mix = 0.5 * np.arctan2(omega1, detuning)
    ham = 0.5 * detuning * SIGMA_Z + 0.5 * omega1 * SIGMA_X
    vecs = stack_2x2(-np.sin(mix), np.cos(mix), np.cos(mix), np.sin(mix))

    frame = frame_from_functions(tau, n_points, lambda s: (
        np.broadcast_to([-split, split], s.shape + (2,)),
        np.broadcast_to(vecs, s.shape + (2, 2)),
        np.zeros(s.shape + (2, 2), dtype=complex),
    ))
    schedule = Schedule(tau, lambda s: np.broadcast_to(ham, s.shape + (2, 2)), vectorized=True)
    return ModelKit(schedule, frame)


def oscillating(
    omega0: float, theta: float, omega: float, tau: float, n_points: int = 801
) -> ModelKit:
    """Qubit with fixed z splitting and an x field oscillating at omega:
    0.5 omega0 (sigma_z + tan(theta) sin(omega t) sigma_x).

    The frame map to the companion non-inertial description is the same z
    rotation as in the rotating-drive model.
    """
    if omega0 == 0.0:
        raise ValueError("omega0 must be nonzero")
    tt = np.tan(theta)

    def field(s: np.ndarray) -> np.ndarray:
        return tt * np.sin(omega * s * tau)

    def sampler(s: np.ndarray) -> np.ndarray:
        return 0.5 * omega0 * (SIGMA_Z + field(s)[..., None, None] * SIGMA_X)

    def eigensystem(s: np.ndarray) -> tuple:
        x = field(s)
        e = 0.5 * omega0 * np.sqrt(1.0 + x * x)
        half = 0.5 * np.arctan2(x, 1.0)
        # the rate spells the field omega * (s * tau), which rounds
        # differently from field(s)
        t = s * tau
        xt = tt * np.sin(omega * t)
        dmix_dt = tt * omega * np.cos(omega * t) / (1.0 + xt * xt)
        rows = stack_2x2(-np.cos(half), -np.sin(half), -np.sin(half), np.cos(half))
        return (
            np.stack((-e, e), axis=-1),
            stack_2x2(-np.sin(half), np.cos(half), np.cos(half), np.sin(half)),
            # a complex product, as in the scalar form: it gives the zero
            # imaginary parts their signs
            (0.5 * dmix_dt)[..., None, None] * rows.astype(complex),
        )

    frame = frame_from_functions(tau, n_points, eigensystem)
    return ModelKit(Schedule(tau, sampler, vectorized=True), frame, *_z_rotation(omega, tau))


def oscillating_noninertial(
    omega0: float, theta: float, omega: float, tau: float, n_points: int = 801
) -> ModelKit:
    """The oscillating-drive model seen from the rotating (non-inertial)
    frame, where the drive acquires a rotating transverse component and
    the gap can close.

    The instantaneous splitting is omega0 sqrt((1-r)^2 + tan^2(theta)
    sin^2(omega t)) with r = omega / omega0, so at r = 1 the spectrum
    degenerates whenever sin(omega t) = 0 and no continuous frame exists;
    that case is refused here and should be probed with
    :func:`scan_min_gap` instead.
    """
    if omega0 == 0.0:
        raise ValueError("omega0 must be nonzero")
    tt = np.tan(theta)
    detuning = omega0 - omega

    def sampler(s: np.ndarray) -> np.ndarray:
        t = (s * tau)[..., None, None]
        amp = 0.5 * omega0 * tt * np.sin(omega * t)
        return 0.5 * detuning * SIGMA_Z + amp * (
            np.cos(omega * t) * SIGMA_X - np.sin(omega * t) * SIGMA_Y
        )

    def bloch(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The field vector, (M, 3), and its length, (M,)."""
        t = s * tau
        amp = 0.5 * omega0 * tt * np.sin(omega * t)
        h = np.stack(
            (amp * np.cos(omega * t), -amp * np.sin(omega * t), np.full_like(t, 0.5 * detuning)),
            axis=-1,
        )
        # a stacked matmul runs each node's dot product as the BLAS dot of a
        # one-vector norm; np.linalg.norm along an axis rounds differently
        return h, np.sqrt((h[..., None, :] @ h[..., :, None])[..., 0, 0])

    gap_floor = abs(detuning)
    if gap_floor < 1e-12 * abs(omega0):
        raise ValueError(
            "resonant drive closes the gap; no continuous eigenframe exists "
            "(use scan_min_gap on the transformed schedule)"
        )

    if detuning > 0:
        # north-pole-safe gauge
        def vectors(h: np.ndarray, r: np.ndarray) -> np.ndarray:
            c = np.sqrt(0.5 * (1.0 + h[..., 2] / r))
            w = (h[..., 0] + 1j * h[..., 1]) / (2.0 * r * c)
            return stack_2x2(-np.conj(w), c, c, w)

    else:
        # south-pole-safe gauge
        def vectors(h: np.ndarray, r: np.ndarray) -> np.ndarray:
            sn = np.sqrt(0.5 * (1.0 - h[..., 2] / r))
            u = (h[..., 0] - 1j * h[..., 1]) / (2.0 * r * sn)
            return stack_2x2(-sn, u, np.conj(u), sn)

    def eigensystem(s: np.ndarray) -> tuple:
        h, r = bloch(s)
        return np.stack((-r, r), axis=-1), vectors(h, r), None

    frame = frame_from_functions(tau, n_points, eigensystem)
    return ModelKit(Schedule(tau, sampler, vectorized=True), frame)


# ---------------------------------------------------------------------------
# frame-equivalence checks


def theorem1_check(kit: ModelKit) -> dict:
    """Constancy of the cross-frame eigenstate overlaps.

    For a model with frame map O(s), adiabatic behaviour agrees between
    the two descriptions exactly when every |<E^O_m(s)| O(s) |E_n(s)>| is
    constant in time.  Returns the largest drift of those moduli from
    their initial values for the ground level n = 0 of the kit's frame,
    and whether it stays below 0.02.  The check runs on the grid of the
    kit's frame.
    """
    if kit.frame_map is None or kit.frame_map_dot is None:
        raise ValueError("model has no frame map with its derivative")
    h_o = frame_transform(kit.schedule, kit.frame_map, kit.frame_map_dot)
    lab = kit.frame
    grid = lab.grid
    # Per-node diagonalization with ascending order: the moduli below are
    # gauge independent node by node, so no continuity tracking is needed
    # and isolated degeneracies of the transformed Hamiltonian (where the
    # overlap row is genuinely basis-arbitrary) do not abort the check.
    _, vecs_o = np.linalg.eigh(h_o.sample(grid))
    o = np.asarray(kit.frame_map(grid), dtype=complex)
    overlaps = np.abs(dagger(vecs_o) @ o @ lab.vectors[:, :, 0, None])[:, :, 0]
    drift = np.abs(overlaps - overlaps[0])
    max_dev = float(np.max(drift))
    return {
        "satisfied": max_dev < 0.02,
        "max_deviation": max_dev,
    }


def theorem2_check(kit: ModelKit) -> dict:
    """Eigenstate populations under the exact propagator of a model whose
    companion-frame Hamiltonian is constant.

    With H_O constant the exact propagator is
    U(t, 0) = O(t)^dag exp(-i H_O t) O(0), and adiabaticity in the
    original description is equivalent to constancy of
    |<E_k(t)| U(t,0) |E_n(0)>|, checked from the ground level n = 0 of the
    kit's frame.  The constancy of H_O itself is verified first, on 17
    probe points from s = 0; a drifting transformed Hamiltonian is a usage
    error.  The check runs on the grid of the kit's frame.
    """
    if kit.frame_map is None or kit.frame_map_dot is None:
        raise ValueError("model has no frame map with its derivative")
    h_o = frame_transform(kit.schedule, kit.frame_map, kit.frame_map_dot)
    probe = np.linspace(0.0, 1.0, 17)
    probe_h = np.asarray(h_o.sample(probe), dtype=complex)
    h_o0 = probe_h[0]
    scale = max(1.0, float(np.linalg.norm(h_o0)))
    dev = np.max(np.abs(probe_h - h_o0), axis=(1, 2))
    bad = np.flatnonzero(dev > 1e-9 * scale)
    if bad.size:
        raise ValueError(
            f"transformed Hamiltonian is not constant at s={probe[bad[0]]:.4f}"
        )

    evals, evecs = np.linalg.eigh(h_o0)
    lab = kit.frame
    grid = lab.grid
    o_t = np.asarray(kit.frame_map(grid), dtype=complex)

    psi0 = lab.vectors[0][:, 0]
    ref = np.abs(lab.vectors[0].conj().T @ psi0)
    t = grid * lab.tau
    phase_diag = np.zeros((len(grid),) + evecs.shape, dtype=complex)
    phase_diag[:, range(len(evals)), range(len(evals))] = np.exp(-1j * evals * t[:, None])
    u = dagger(o_t) @ (evecs @ phase_diag @ dagger(evecs)) @ o_t[0]
    amps = np.abs(dagger(lab.vectors) @ (u @ psi0)[:, :, None])[:, :, 0]
    drift = np.abs(amps - ref)
    max_dev = float(np.max(drift))
    return {"satisfied": max_dev < 0.02, "max_deviation": max_dev}


def min_gap_noninertial(omega0: float, r: float) -> float:
    """Closed-form minimum splitting of the non-inertial oscillating-drive
    description: omega0 |1 - r|."""
    return abs(omega0) * abs(1.0 - r)
