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

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .dynamics import Schedule, frame_transform, time_scale
from .opalg import SIGMA_X, SIGMA_Y, SIGMA_Z, dagger
from .spectral import SpectralFrame, fourth_order_derivative, frame_from_functions

_STATS = {"max": np.max, "mean": np.mean}


def _hdot_samples(h: Schedule, grid: np.ndarray, tau: float) -> np.ndarray:
    return fourth_order_derivative(h.sample(grid), grid[1] - grid[0]) / time_scale(tau)


def _offdiag_pairs(n: int):
    return [(m, k) for m in range(n) for k in range(n) if m != k]


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


def c_tong(frame: SpectralFrame, h: Schedule, stat: str = "max") -> dict:
    """Three-part refinement of the gap condition.

    Returns the parts (a), (b), (c) and their maximum.  Part (a) is the
    traditional condition.  Part (b) bounds the drift of the gap-weighted
    coupling, part (c) its mixing with the eigenstate velocities; both are
    scaled by the duration tau.  ``stat`` selects how the time profile is
    collapsed before the pair maximum: "max" (default) or "mean".
    """
    reduce = _STATS[stat.lower()]
    grid, tau = frame.grid, frame.tau
    dim = frame.n_levels
    coupling = _coupling(frame, h)
    part_a = float(np.max(np.abs(coupling)))

    dcoupling = fourth_order_derivative(coupling, grid[1] - grid[0]) / time_scale(tau)
    part_b = float(
        max(reduce(np.abs(dcoupling[:, m, n])) for m, n in _offdiag_pairs(dim)) * tau
    )

    part_c = 0.0
    for m, n in _offdiag_pairs(dim):
        amp = reduce(np.abs(coupling[:, m, n]))
        for l in range(dim):
            if l == m:
                continue
            vel = reduce(np.abs(frame.connection(m, l)))
            part_c = max(part_c, amp * vel * tau)
    part_c = float(part_c)

    return {
        "a": part_a,
        "b": part_b,
        "c": part_c,
        "max": max(part_a, part_b, part_c),
    }


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
    m_pts = len(grid)

    gamma = np.empty((m_pts, dim, dim), dtype=complex)
    for n in range(dim):
        for m in range(dim):
            gamma[:, n, m] = 1j * frame.connection(n, m)

    worst = 0.0
    scale = np.max(np.abs(gamma))
    for m, n in _offdiag_pairs(dim):
        g_nm = gamma[:, n, m]
        if np.max(np.abs(g_nm)) < 1e-14 * max(scale, 1e-300):
            warnings.warn(
                f"coupling between levels {n} and {m} vanishes; pair skipped",
                RuntimeWarning,
            )
            continue
        phase = np.unwrap(np.angle(g_nm))
        dphase = fourth_order_derivative(phase, ds) / time_scale(tau)
        detune = np.real(gamma[:, m, m] - gamma[:, n, n]) + dphase
        gap = frame.energies[:, n] - frame.energies[:, m]
        denom = np.sqrt(gap**2 + detune**2)
        for k in range(dim):
            if k == m:
                continue
            ratio = np.sqrt(dim - 1) * np.abs(gamma[:, k, m]) / denom
            worst = max(worst, float(np.max(ratio)))
    return worst


def c_ar(
    frame: SpectralFrame,
    h: Schedule,
    gap_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Norm-based rigorous bound, Frobenius norms throughout.

    max over time of max(|dH/dt|^3 / gap^4, |dH/dt| |d2H/dt2| / gap^3)
    times tau^2.  The gap defaults to the lowest spectral gap E_1 - E_0;
    ``gap_fn`` may map the (M, d) energy array to a custom (M,) profile.
    """
    grid, tau = frame.grid, frame.tau
    ds = grid[1] - grid[0]
    hdot = _hdot_samples(h, grid, tau)
    hddot = fourth_order_derivative(hdot, ds) / time_scale(tau)
    norm1 = np.linalg.norm(hdot, axis=(1, 2))
    norm2 = np.linalg.norm(hddot, axis=(1, 2))
    if gap_fn is None:
        gap = frame.energies[:, 1] - frame.energies[:, 0]
    else:
        gap = np.asarray(gap_fn(frame.energies))
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

    ``frame_map`` (and its physical-time derivative) is the unitary O(s)
    connecting this model to its companion frame, when one exists.
    """

    schedule: Schedule
    frame: SpectralFrame
    frame_map: Callable[[float], np.ndarray] | None = None
    frame_map_dot: Callable[[float], np.ndarray] | None = None


def _z_rotation(omega: float, tau: float) -> tuple[Callable, Callable]:
    """Frame map O(s) = exp(i omega t sigma_z / 2), t = s tau, the z
    rotation at the drive frequency, and its physical-time derivative."""

    def frame_map(s: float) -> np.ndarray:
        return scipy.linalg.expm(0.5j * omega * s * tau * SIGMA_Z)

    def frame_map_dot(s: float) -> np.ndarray:
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

    def sampler(s: float) -> np.ndarray:
        t = s * tau
        return 0.5 * omega0 * SIGMA_Z + 0.5 * omega1 * (
            np.cos(omega * t) * SIGMA_X + np.sin(omega * t) * SIGMA_Y
        )

    def energy_fn(s: float) -> np.ndarray:
        return np.array([-e_split, e_split])

    def vector_fn(s: float) -> np.ndarray:
        ph = np.exp(-1j * omega * s * tau)
        return np.array(
            [[-ph * np.sin(half), ph * np.cos(half)], [np.cos(half), np.sin(half)]]
        )

    def dvector_fn(s: float) -> np.ndarray:
        ph = np.exp(-1j * omega * s * tau)
        return np.array(
            [
                [1j * omega * ph * np.sin(half), -1j * omega * ph * np.cos(half)],
                [0.0, 0.0],
            ]
        )

    frame = frame_from_functions(tau, n_points, energy_fn, vector_fn, dvector_fn)
    return ModelKit(Schedule(tau, sampler), frame, *_z_rotation(omega, tau))


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
    vecs = np.array(
        [[-np.sin(mix), np.cos(mix)], [np.cos(mix), np.sin(mix)]], dtype=complex
    )

    frame = frame_from_functions(
        tau,
        n_points,
        lambda s: np.array([-split, split]),
        lambda s: vecs,
        lambda s: np.zeros((2, 2), dtype=complex),
    )
    return ModelKit(Schedule(tau, lambda s: ham), frame)


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

    def sampler(s: float) -> np.ndarray:
        x = tt * np.sin(omega * s * tau)
        return 0.5 * omega0 * (SIGMA_Z + x * SIGMA_X)

    def energy_fn(s: float) -> np.ndarray:
        x = tt * np.sin(omega * s * tau)
        e = 0.5 * omega0 * np.sqrt(1.0 + x * x)
        return np.array([-e, e])

    def mixing(s: float) -> float:
        return np.arctan2(tt * np.sin(omega * s * tau), 1.0)

    def vector_fn(s: float) -> np.ndarray:
        half = 0.5 * mixing(s)
        return np.array(
            [[-np.sin(half), np.cos(half)], [np.cos(half), np.sin(half)]],
            dtype=complex,
        )

    def dvector_fn(s: float) -> np.ndarray:
        t = s * tau
        x = tt * np.sin(omega * t)
        dmix_dt = tt * omega * np.cos(omega * t) / (1.0 + x * x)
        half = 0.5 * mixing(s)
        return 0.5 * dmix_dt * np.array(
            [[-np.cos(half), -np.sin(half)], [-np.sin(half), np.cos(half)]],
            dtype=complex,
        )

    frame = frame_from_functions(tau, n_points, energy_fn, vector_fn, dvector_fn)
    return ModelKit(Schedule(tau, sampler), frame, *_z_rotation(omega, tau))


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

    def sampler(s: float) -> np.ndarray:
        t = s * tau
        amp = 0.5 * omega0 * tt * np.sin(omega * t)
        return 0.5 * detuning * SIGMA_Z + amp * (
            np.cos(omega * t) * SIGMA_X - np.sin(omega * t) * SIGMA_Y
        )

    def bloch(s: float) -> np.ndarray:
        t = s * tau
        amp = 0.5 * omega0 * tt * np.sin(omega * t)
        return np.array(
            [amp * np.cos(omega * t), -amp * np.sin(omega * t), 0.5 * detuning]
        )

    def energy_fn(s: float) -> np.ndarray:
        r = np.linalg.norm(bloch(s))
        return np.array([-r, r])

    gap_floor = abs(detuning)
    if gap_floor < 1e-12 * abs(omega0):
        raise ValueError(
            "resonant drive closes the gap; no continuous eigenframe exists "
            "(use scan_min_gap on the transformed schedule)"
        )

    if detuning > 0:
        # north-pole-safe gauge
        def vector_fn(s: float) -> np.ndarray:
            h = bloch(s)
            r = np.linalg.norm(h)
            c = np.sqrt(0.5 * (1.0 + h[2] / r))
            w = (h[0] + 1j * h[1]) / (2.0 * r * c)
            return np.array([[-np.conj(w), c], [c, w]])

    else:
        # south-pole-safe gauge
        def vector_fn(s: float) -> np.ndarray:
            h = bloch(s)
            r = np.linalg.norm(h)
            sn = np.sqrt(0.5 * (1.0 - h[2] / r))
            u = (h[0] - 1j * h[1]) / (2.0 * r * sn)
            return np.array([[-sn, u], [np.conj(u), sn]])

    frame = frame_from_functions(tau, n_points, energy_fn, vector_fn)
    return ModelKit(Schedule(tau, sampler), frame)


# ---------------------------------------------------------------------------
# frame-equivalence checks


def theorem1_check(
    kit: ModelKit,
    n_points: int = 801,
    level: int = 0,
    tol: float = 0.02,
) -> dict:
    """Constancy of the cross-frame eigenstate overlaps.

    For a model with frame map O(s), adiabatic behaviour agrees between
    the two descriptions exactly when every |<E^O_m(s)| O(s) |E_n(s)>| is
    constant in time.  Returns the largest drift of those moduli from
    their initial values for the chosen starting level, and whether it
    stays below ``tol``.
    """
    if kit.frame_map is None:
        raise ValueError("model has no frame map")
    h_o = frame_transform(kit.schedule, kit.frame_map, kit.frame_map_dot)
    lab = kit.frame
    if len(lab.grid) != n_points:
        raise ValueError("frame grid disagrees; rebuild the kit with n_points")
    grid = lab.grid
    # Per-node diagonalization with ascending order: the moduli below are
    # gauge independent node by node, so no continuity tracking is needed
    # and isolated degeneracies of the transformed Hamiltonian (where the
    # overlap row is genuinely basis-arbitrary) do not abort the check.
    _, vecs_o = np.linalg.eigh(h_o.sample(grid))
    o = Schedule(lab.tau, kit.frame_map).sample(grid)
    overlaps = np.abs(dagger(vecs_o) @ o @ lab.vectors[:, :, level, None])[:, :, 0]
    drift = np.abs(overlaps - overlaps[0])
    max_dev = float(np.max(drift))
    return {
        "satisfied": max_dev < tol,
        "max_deviation": max_dev,
        "overlaps": overlaps,
        "grid": grid,
    }


def theorem2_check(
    kit: ModelKit,
    h_o_const: np.ndarray | None = None,
    n_points: int = 801,
    level: int = 0,
    tol: float = 0.02,
    const_tol: float = 1e-9,
) -> dict:
    """Eigenstate populations under the exact propagator of a model whose
    companion-frame Hamiltonian is constant.

    With H_O constant the exact propagator is
    U(t, 0) = O(t)^dag exp(-i H_O t) O(0), and adiabaticity in the
    original description is equivalent to constancy of
    |<E_k(t)| U(t,0) |E_n(0)>|.  The constancy of H_O itself is verified
    first; a drifting transformed Hamiltonian is a usage error.
    """
    if kit.frame_map is None:
        raise ValueError("model has no frame map")
    h_o = frame_transform(kit.schedule, kit.frame_map, kit.frame_map_dot)
    grid = np.linspace(0.0, 1.0, n_points)
    if h_o_const is None:
        h_o_const = np.asarray(h_o.at(0.0), dtype=complex)
    scale = max(1.0, float(np.linalg.norm(h_o_const)))
    probe = np.linspace(0.0, 1.0, 17)
    dev = np.max(np.abs(h_o.sample(probe) - h_o_const), axis=(1, 2))
    bad = np.flatnonzero(dev > const_tol * scale)
    if bad.size:
        raise ValueError(
            f"transformed Hamiltonian is not constant at s={probe[bad[0]]:.4f}"
        )

    evals, evecs = np.linalg.eigh(h_o_const)
    o0 = np.asarray(kit.frame_map(0.0), dtype=complex)
    lab = kit.frame
    if len(lab.grid) != n_points:
        raise ValueError("frame grid disagrees; rebuild the kit with n_points")

    psi0 = lab.vectors[0][:, level]
    ref = np.abs(lab.vectors[0].conj().T @ psi0)
    t = grid * lab.tau
    phase_diag = np.zeros((n_points,) + evecs.shape, dtype=complex)
    phase_diag[:, range(len(evals)), range(len(evals))] = np.exp(-1j * evals * t[:, None])
    o_t = Schedule(lab.tau, kit.frame_map).sample(grid)
    u = dagger(o_t) @ (evecs @ phase_diag @ dagger(evecs)) @ o0
    amps = np.abs(dagger(lab.vectors) @ (u @ psi0)[:, :, None])[:, :, 0]
    drift = np.abs(amps - ref)
    max_dev = float(np.max(drift))
    return {"satisfied": max_dev < tol, "max_deviation": max_dev, "grid": grid}


def min_gap_noninertial(omega0: float, r: float) -> float:
    """Closed-form minimum splitting of the non-inertial oscillating-drive
    description: omega0 |1 - r|."""
    return abs(omega0) * abs(1.0 - r)
