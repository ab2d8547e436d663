"""Time-dependent generators, fixed-step integrators, frames, fidelities.

Internal unit system: hbar = 1, Hamiltonian entries in rad/s, time in
seconds.  Integration is classical fixed-step RK4 on a uniform grid; the
step count is a caller decision (see :func:`recommended_steps`), adaptive
stepping is deliberately excluded so rerunning a scenario is reproducible
bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .opalg import TOL_HERM, TOL_POS, dagger, is_density_matrix, is_hermitian, is_unitary


class IntegrationError(RuntimeError):
    """Raised when an integration produces non-finite state entries."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(eq=False)
class LindbladGenerator:
    """Open-system generator: Hamiltonian part plus (rate, jump) channels."""

    hamiltonian: np.ndarray
    jumps: tuple = ()

    def __post_init__(self) -> None:
        self.hamiltonian = np.asarray(self.hamiltonian, dtype=complex)
        self.jumps = tuple((float(g), np.asarray(j, dtype=complex)) for g, j in self.jumps)


def lindblad_action(gen: LindbladGenerator, rho: np.ndarray) -> np.ndarray:
    """Right-hand side -i[H, rho] + sum_n g_n (J rho J^dag - {J^dag J, rho}/2)."""
    h = gen.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for rate, jump in gen.jumps:
        jd = dagger(jump)
        jdj = jd @ jump
        out += rate * (jump @ rho @ jd - 0.5 * (jdj @ rho + rho @ jdj))
    return out


@dataclass(eq=False)
class Schedule:
    """A generator of operators over normalized time s in [0, 1].

    Parameters
    ----------
    tau : float
        Total duration in seconds; physical time is t = s * tau.
    sampler : callable
        Maps s to a Hamiltonian matrix (closed case) or to a
        :class:`LindbladGenerator` (open case).
    """

    tau: float
    sampler: Callable[[float], object]

    def at(self, s: float):
        return self.sampler(float(s))

    def sample(self, grid: np.ndarray) -> np.ndarray:
        """Matrix samples at every s of ``grid``, stacked as (M, D, D) complex.

        Calls :meth:`at` node by node in grid order, so a sampler error
        names the first failing node.
        """
        return np.array([np.asarray(self.at(s), dtype=complex) for s in grid])

    def generator_at(self, s: float) -> LindbladGenerator:
        """Sample at s as a generator; a bare Hamiltonian gets no jumps."""
        g = self.at(s)
        return g if isinstance(g, LindbladGenerator) else LindbladGenerator(g)

    def probe(self, n_probe: int = 5, tol: float = TOL_HERM) -> None:
        """Spot-check sampler invariants on a coarse grid.

        Hamiltonian samples must be Hermitian and rates non-negative; the
        full grid is not checked here because integrators already touch
        every point and NaNs surface immediately.
        """
        for s in np.linspace(0.0, 1.0, n_probe):
            g = self.generator_at(s)
            scale = max(1.0, float(np.max(np.abs(g.hamiltonian))))
            if not is_hermitian(g.hamiltonian, tol * scale):
                raise ValueError(f"non-Hermitian Hamiltonian sample at s={s}")
            for rate, _ in g.jumps:
                if rate < 0:
                    raise ValueError(f"negative rate {rate} at s={s}")


@dataclass(eq=False)
class Trajectory:
    """Uniform-grid time series of states plus derived observables."""

    times: np.ndarray
    states: np.ndarray
    kind: str  # "pure" or "density"
    diagnostics: dict = field(default_factory=dict)
    observables: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def time_scale(tau: float) -> float:
    """Divisor from physical to normalized time: tau, or 1 for a zero duration."""
    return tau if tau else 1.0


def recommended_steps(omega_max: float, tau: float, resolution: float = 0.05) -> int:
    """Smallest step count keeping omega_max * dt below ``resolution``."""
    return max(8, int(np.ceil(abs(omega_max) * abs(tau) / resolution)))


def rk4(deriv: Callable[[float, np.ndarray], np.ndarray], y0: np.ndarray,
        times: np.ndarray) -> np.ndarray:
    """Fixed-step RK4 over a uniform grid; returns the state at every node.

    Overflow and invalid-value warnings are silenced inside the loop: the
    update is linear, so an inf or NaN never turns finite again, and the
    per-step check below reports it as a named :class:`IntegrationError`.
    """
    y = np.asarray(y0, dtype=complex)
    out = np.empty((len(times),) + y.shape, dtype=complex)
    out[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(times) - 1):
            t = times[k]
            dt = times[k + 1] - t
            k1 = deriv(t, y)
            k2 = deriv(t + 0.5 * dt, y + 0.5 * dt * k1)
            k3 = deriv(t + 0.5 * dt, y + 0.5 * dt * k2)
            k4 = deriv(t + dt, y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.all(np.isfinite(y)):
                raise IntegrationError(k + 1, "non-finite state entries")
            out[k + 1] = y
    return out


def evolve_unitary(h: Schedule, psi0: np.ndarray, n_steps: int,
                   renormalize: bool = False) -> Trajectory:
    """Integrate the Schrödinger equation for a Hamiltonian schedule.

    Per-step renormalization is off by default: the norm drift of the raw
    integrator output is a useful accuracy diagnostic and is reported in
    ``diagnostics["final_norm_deviation"]``.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 is not normalized")
    h.probe()
    times = np.linspace(0.0, h.tau, n_steps + 1)
    tau = time_scale(h.tau)

    def deriv(t, psi):
        return -1j * (np.asarray(h.at(t / tau)) @ psi)

    states = rk4(deriv, psi0, times)
    if renormalize:
        states = states / np.linalg.norm(states, axis=1)[:, None]
    drift = abs(np.linalg.norm(states[-1]) - 1.0)
    return Trajectory(times=times, states=states, kind="pure",
                      diagnostics={"final_norm_deviation": drift})


def evolve_lindblad(l: Schedule, rho0: np.ndarray, n_steps: int,
                    trace_tol: float = 1e-9, pos_tol: float = TOL_POS) -> Trajectory:
    """Integrate a Lindblad master equation for an open schedule.

    Trace drift beyond ``trace_tol`` on any grid node is an error (it means
    the step size is too coarse for the generator's fastest rate).  A
    positivity dip beyond ``pos_tol`` is only flagged with a step-size hint
    since transient negative eigenvalues at the integrator tolerance level
    are expected.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if not is_density_matrix(rho0):
        raise ValueError("rho0 is not a density matrix")
    l.probe()
    times = np.linspace(0.0, l.tau, n_steps + 1)
    tau = time_scale(l.tau)

    def deriv(t, rho):
        return lindblad_action(l.generator_at(t / tau), rho)

    states = rk4(deriv, rho0, times)
    traces = np.trace(states, axis1=1, axis2=2)
    drift = float(np.max(np.abs(traces - 1.0)))
    if drift >= trace_tol:
        raise IntegrationError(
            int(np.argmax(np.abs(traces - 1.0))),
            f"trace drift {drift:.3e} exceeds {trace_tol:.1e}; increase n_steps",
        )
    herm = 0.5 * (states + np.conj(np.transpose(states, (0, 2, 1))))
    min_eig = float(np.min(np.linalg.eigvalsh(herm)))
    if min_eig < -pos_tol:
        warnings.warn(
            f"positivity dip {min_eig:.3e} beyond tolerance; "
            f"try n_steps={2 * n_steps}",
            RuntimeWarning,
        )
    return Trajectory(times=times, states=states, kind="density",
                      diagnostics={"trace_drift": drift, "min_eigenvalue": min_eig})


def frame_transform(h: Schedule, o: Callable[[float], np.ndarray],
                    o_dot: Callable[[float], np.ndarray] | None = None,
                    ds: float = 1e-6) -> Schedule:
    """Move a Hamiltonian schedule into the frame defined by O(t).

    Returns the schedule of H_O = O H O^dag + i (dO/dt) O^dag.  The second
    term must be Hermitian when O is unitary; it is symmetrized when the
    asymmetry is at rounding level and rejected otherwise.  ``o_dot`` is
    the physical-time derivative; when omitted it is estimated by central
    differences in s (one-sided at the ends).
    """
    tau = h.tau

    def o_dot_fd(s: float) -> np.ndarray:
        lo, hi = max(0.0, s - ds), min(1.0, s + ds)
        return (np.asarray(o(hi)) - np.asarray(o(lo))) / ((hi - lo) * tau)

    d_o = o_dot if o_dot is not None else o_dot_fd

    def sampler(s: float) -> np.ndarray:
        u = np.asarray(o(s), dtype=complex)
        if not is_unitary(u):
            raise ValueError(f"frame map is not unitary at s={s}")
        ham = np.asarray(h.at(s), dtype=complex)
        pot = 1j * (np.asarray(d_o(s), dtype=complex) @ dagger(u))
        scale = max(1.0, float(np.max(np.abs(pot))), float(np.max(np.abs(ham))))
        asym = np.max(np.abs(pot - dagger(pot)))
        if asym > 1e-6 * scale:
            raise ValueError(
                f"i*dO/dt*O^dag deviates from Hermitian by {asym:.2e} at s={s}; "
                "check the supplied o_dot"
            )
        return u @ ham @ dagger(u) + 0.5 * (pot + dagger(pot))

    return Schedule(tau=tau, sampler=sampler)


def nmr_closed_form_p0(omega0: float, omega1: float, omega: float, t) -> np.ndarray:
    """Survival probability of the rotating-field model's initial eigenstate.

    Parameters are angular frequencies in rad/s; ``t`` may be an array.
    With r = omega/omega0 and tan(theta) = omega1/omega0 the probability is

        p0(t) = 1 - [tan^2(theta) / ((1-r)^2 + tan^2(theta))]
                    * sin^2(Omega t / 2),
        Omega = omega0 * sqrt((1-r)^2 + tan^2(theta)).
    """
    if omega0 == 0:
        raise ValueError("omega0 must be nonzero")
    r = omega / omega0
    tan_theta = omega1 / omega0
    denom = (1.0 - r) ** 2 + tan_theta**2
    rabi = omega0 * np.sqrt(denom)
    t = np.asarray(t, dtype=float)
    return 1.0 - (tan_theta**2 / denom) * np.sin(0.5 * rabi * t) ** 2


def nmr_extremal_times(omega0: float, omega1: float, omega: float,
                       n: int = 1) -> tuple[float, float]:
    """Times of maximal and minimal p0 for the rotating-field model.

    Returns (tau_max, tau_min) = (2 n pi / Omega, (2n+1) pi / Omega) for the
    n-th oscillation of the effective Rabi frequency Omega.
    """
    r = omega / omega0
    tan_theta = omega1 / omega0
    rabi = abs(omega0) * np.sqrt((1.0 - r) ** 2 + tan_theta**2)
    return 2.0 * n * np.pi / rabi, (2.0 * n + 1.0) * np.pi / rabi


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ dagger(vecs)


def fidelity(rho1: np.ndarray, rho2: np.ndarray):
    """Uhlmann fidelity Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)).

    Accepts pure-state vectors as well; they are promoted to projectors.
    Stacks of density matrices (..., D, D) broadcast against each other
    and give an array of fidelities; two single states give a float.
    """
    rho1 = _as_density(rho1)
    rho2 = _as_density(rho2)
    for rho in (rho1, rho2):
        if np.linalg.eigvalsh(0.5 * (rho + dagger(rho))).min() < -TOL_POS:
            raise ValueError("input is not positive semidefinite within tolerance")
    s1 = _sqrtm_psd(rho1)
    inner = s1 @ rho2 @ s1
    vals = np.clip(np.linalg.eigvalsh(0.5 * (inner + dagger(inner))), 0.0, None)
    out = np.sum(np.sqrt(vals), axis=-1)
    return float(out) if out.ndim == 0 else out


def relative_purity(rho_gs: np.ndarray, rho: np.ndarray) -> float:
    """Overlap |Tr(rho_gs rho)| normalized by the purities of both states."""
    rho_gs = _as_density(rho_gs)
    rho = _as_density(rho)
    p1 = np.real(np.trace(rho_gs @ rho_gs))
    p2 = np.real(np.trace(rho @ rho))
    if p1 <= 0 or p2 <= 0:
        raise ValueError("zero-purity input")
    return float(abs(np.trace(rho_gs @ rho)) / np.sqrt(p1 * p2))


def pure_state_density(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| of a normalized amplitude vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, np.conj(psi))


def _as_density(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return pure_state_density(state / np.linalg.norm(state))
    return state
