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
from typing import Callable

import numpy as np

from .opalg import TOL_HERM, TOL_POS, dagger, is_density_matrix, is_hermitian, is_unitary


class IntegrationError(RuntimeError):
    """Raised when an integration produces non-finite state entries."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(eq=False)
class LindbladGenerator:
    """Open-system generator: Hamiltonian part plus (rate, jump) channels.

    ``channels`` holds (rate, J, J^dag, J^dag J) per jump, computed once at
    construction for :func:`lindblad_action`; a generator is not to be
    mutated after it is built.  :meth:`replace` makes a generator with new
    rates or a new Hamiltonian that shares these channel products.

    A generator may also hold a stack of M nodes (or M sweep members): an
    (M, D, D) Hamiltonian and, per jump, (M,) rates with (M, D, D) jumps, or
    one (D, D) jump shared by every node.  Its channel rates are shaped
    (M, 1, 1) here, so :func:`lindblad_action` acts node by node on an
    (M, D, D) stack of states.
    """

    hamiltonian: np.ndarray
    jumps: tuple = ()
    channels: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.hamiltonian = np.asarray(self.hamiltonian, dtype=complex)
        jumps, channels = [], []
        for g, j in self.jumps:
            g, scale = _rate(g)
            j = np.asarray(j, dtype=complex)
            jd = dagger(j)
            jumps.append((g, j))
            channels.append((scale, j, jd, jd @ j))
        self.jumps = tuple(jumps)
        self.channels = tuple(channels)

    def replace(self, hamiltonian: np.ndarray, rates: tuple | None = None) -> "LindbladGenerator":
        """This generator with another Hamiltonian and, if given, one new rate
        (a float or an (M,) array) per jump.  The jump operators and their
        J^dag and J^dag J are shared with this generator, not rebuilt."""
        new = object.__new__(LindbladGenerator)
        new.hamiltonian = np.asarray(hamiltonian, dtype=complex)
        if rates is None:
            new.jumps, new.channels = self.jumps, self.channels
        else:
            rates = [_rate(g) for g in rates]
            new.jumps = tuple((g, j) for (g, _), (_, j) in zip(rates, self.jumps))
            new.channels = tuple((scale,) + ch[1:] for (_, scale), ch in zip(rates, self.channels))
        return new

    def __getitem__(self, k: int) -> "LindbladGenerator":
        """Node (or member) k of a stacked generator; parts shared by every node stay whole."""
        h = self.hamiltonian
        return LindbladGenerator(
            h[k] if h.ndim > 2 else h,
            tuple((g[k] if np.ndim(g) else g, j[k] if j.ndim > 2 else j) for g, j in self.jumps),
        )


def _rate(g) -> tuple:
    """A channel rate as ``jumps`` stores it and as it scales its channel:
    a float twice, or an (M,) array and its (M, 1, 1) view."""
    if isinstance(g, np.ndarray) and g.ndim > 0:
        g = np.asarray(g, dtype=float)
        return g, g[..., None, None]
    g = float(g)
    return g, g


def lindblad_action(gen: LindbladGenerator, rho: np.ndarray) -> np.ndarray:
    """Right-hand side -i[H, rho] + sum_n g_n (J rho J^dag - {J^dag J, rho}/2)."""
    h = gen.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for rate, jump, jd, jdj in gen.channels:
        out += rate * (jump @ rho @ jd - 0.5 * (jdj @ rho + rho @ jdj))
    return out


@dataclass(eq=False)
class Schedule:
    """A generator of operators over normalized time s in [0, 1].

    Parameters
    ----------
    tau : float or sequence of floats
        Total duration in seconds; physical time is t = s * tau.  A
        sequence of R durations makes a sweep schedule: its R members are
        sampled together, one s per member.
    sampler : callable
        Maps s to a Hamiltonian matrix (closed case) or to a
        :class:`LindbladGenerator` (open case).  The sampler of a sweep
        schedule maps the (R,) array of member times to a sample stacked
        over the R members.
    """

    tau: float
    sampler: Callable[[float], object]
    members: int | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.members = None
        if np.ndim(self.tau):
            self.tau = np.asarray(self.tau, dtype=float)
            if self.tau.ndim != 1 or not self.tau.size:
                raise ValueError("a sweep schedule needs a non-empty 1-d sequence of durations")
            self.members = self.tau.size

    def at(self, s: float):
        """The sample at s; a sweep schedule takes one s per member, or one s for all."""
        if self.members is None:
            return self.sampler(float(s))
        s = np.asarray(s, dtype=float)
        return self.sampler(s if s.shape == self.tau.shape else np.broadcast_to(s, self.tau.shape))

    def sample(self, grid: np.ndarray):
        """Samples at every s of ``grid``, stacked over the grid's M nodes.

        Matrix samples give an (M, D, D) complex array.  Generator samples
        give one stacked :class:`LindbladGenerator`; every node must then be
        a generator with the same jump count.  Calls :meth:`at` node by node
        in grid order, so a sampler error names the first failing node.
        """
        samples = [self.at(s) for s in grid]
        counts = [len(g.jumps) if isinstance(g, LindbladGenerator) else None for g in samples]
        for s, n in zip(grid, counts):
            if n != counts[0]:
                what = "sample kind" if None in (n, counts[0]) else f"jump count ({counts[0]} -> {n})"
                raise ValueError(f"{what} changes at s={s}")
        if not samples or counts[0] is None:
            return np.array([np.asarray(g, dtype=complex) for g in samples])
        jumps = tuple(
            tuple(np.array(col) for col in zip(*(g.jumps[n] for g in samples)))
            for n in range(counts[0])
        )
        return LindbladGenerator(np.array([g.hamiltonian for g in samples]), jumps)

    def generator_at(self, s: float) -> LindbladGenerator:
        """Sample at s as a generator; a bare Hamiltonian gets no jumps."""
        g = self.at(s)
        return g if isinstance(g, LindbladGenerator) else LindbladGenerator(g)

    def probe(self, n_probe: int = 5, tol: float = TOL_HERM) -> None:
        """Spot-check sampler invariants on a coarse grid.

        Hamiltonian samples must be Hermitian and rates non-negative; the
        full grid is not checked here because integrators already touch
        every point and NaNs surface immediately.  A sweep schedule is
        checked member by member, in sweep order.
        """
        grid = np.linspace(0.0, 1.0, n_probe)
        samples = [self.generator_at(s) for s in grid]
        members = [samples] if self.members is None else [[g[r] for g in samples] for r in range(self.members)]
        for member in members:
            for s, g in zip(grid, member):
                scale = max(1.0, float(np.max(np.abs(g.hamiltonian))))
                if not is_hermitian(g.hamiltonian, tol * scale):
                    raise ValueError(f"non-Hermitian Hamiltonian sample at s={s}")
                for rate, _ in g.jumps:
                    if rate < 0:
                        raise ValueError(f"negative rate {rate} at s={s}")


@dataclass(eq=False)
class Trajectory:
    """Uniform-grid time series of states plus integration diagnostics.

    A sweep's trajectory has a member axis: (n+1, R) times, (n+1, R, ...)
    states and (R,) diagnostics; :meth:`member` takes one member out.
    """

    times: np.ndarray
    states: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def member(self, r: int) -> "Trajectory":
        """Member r of a sweep, as its run on its own would return it."""
        return Trajectory(
            times=np.ascontiguousarray(self.times[:, r]),
            states=np.ascontiguousarray(self.states[:, r]),
            diagnostics={key: float(val[r]) for key, val in self.diagnostics.items()},
        )


def time_scale(tau):
    """Divisor from physical to normalized time: tau, or 1 for a zero
    duration; member by member for an array of durations."""
    if np.ndim(tau):
        return np.where(np.asarray(tau) == 0, 1.0, tau)
    return tau if tau else 1.0


def recommended_steps(omega_max: float, tau: float, resolution: float = 0.05) -> int:
    """Smallest step count keeping omega_max * dt below ``resolution``."""
    return max(8, int(np.ceil(abs(omega_max) * abs(tau) / resolution)))


def rk4(sample: Callable[[float], object], y0: np.ndarray, times: np.ndarray,
        act: Callable[[object, np.ndarray], np.ndarray]) -> np.ndarray:
    """Fixed-step RK4 for a linear flow y' = A(t) y; returns the state at every node.

    ``sample(t)`` returns the generator A at physical time t and
    ``act(a, y)`` returns A y.  Each step samples its midpoint once, for
    both k2 and k3, and its end point once; the end sample is reused as
    the next step's k1 when that step starts at an equal float time, as
    it always does on a ``linspace`` grid from 0.  n steps then take
    2n + 1 samples instead of the textbook 4n, at the textbook's times and
    with its arithmetic, so the states are the same bit for bit.
    ``sample`` must be a pure function of t.

    ``times`` may also be (n+1, R), one grid per member of a sweep that
    advances in lock step: ``y0`` then has a leading (R,) member axis,
    ``sample`` gets the (R,) member times of a node, each member's step
    broadcasts over its own state, and an end sample is reused only when
    every member's time agrees.  Each member's states are the ones its own
    run would give, bit for bit.

    Overflow and invalid-value warnings are silenced inside the loop: the
    update is linear, so an inf or NaN never turns finite again, and the
    per-step check below reports it as a named :class:`IntegrationError`.
    """
    y = np.asarray(y0, dtype=complex)
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times),) + y.shape, dtype=complex)
    out[0] = y
    start = times[:-1]
    dt = times[1:] - start
    stop = start + dt
    same = start[1:] == stop[:-1]
    reuse = [False] + np.all(same, axis=tuple(range(1, same.ndim))).tolist()
    mid = start + 0.5 * dt
    if times.ndim > 1:  # a member's step sizes broadcast over its own state
        dt = dt.reshape(dt.shape + (1,) * (y.ndim - 1))
    steps = zip(start, mid, stop, dt, 0.5 * dt, dt / 6.0, reuse)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (t, t_mid, t_end, h, h_half, h_sixth, again) in enumerate(steps):
            k1 = act(a_end if again else sample(t), y)
            a_mid = sample(t_mid)
            k2 = act(a_mid, y + h_half * k1)
            k3 = act(a_mid, y + h_half * k2)
            a_end = sample(t_end)
            k4 = act(a_end, y + h * k3)
            y = y + h_sixth * (k1 + 2.0 * (k2 + k3) + k4)
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

    states = rk4(lambda t: np.asarray(h.at(t / tau)), psi0, times,
                 lambda a, psi: -1j * (a @ psi))
    if renormalize:
        states = states / np.linalg.norm(states, axis=1)[:, None]
    drift = abs(np.linalg.norm(states[-1]) - 1.0)
    return Trajectory(times=times, states=states,
                      diagnostics={"final_norm_deviation": drift})


def evolve_lindblad(l: Schedule, rho0: np.ndarray, n_steps: int,
                    trace_tol: float = 1e-9, pos_tol: float = TOL_POS) -> Trajectory:
    """Integrate a Lindblad master equation for an open schedule.

    Trace drift beyond ``trace_tol`` on any grid node is an error (it means
    the step size is too coarse for the generator's fastest rate).  A
    positivity dip beyond ``pos_tol`` is only flagged with a step-size hint
    since transient negative eigenvalues at the integrator tolerance level
    are expected.

    A sweep schedule integrates its R members in one lock-step :func:`rk4`
    from the same ``rho0``, each on its own grid, and returns one
    trajectory with a member axis.  The probe, the non-finite check, the
    trace-drift raise and the positivity warning each scan the members in
    sweep order, and the first guard that trips wins, so a sweep with one
    failing member fails as that member fails on its own.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if not is_density_matrix(rho0):
        raise ValueError("rho0 is not a density matrix")
    l.probe()
    times = np.linspace(0.0, l.tau, n_steps + 1)
    tau = time_scale(l.tau)
    y0 = rho0 if l.members is None else np.stack([rho0] * l.members)

    states = rk4(lambda t: l.generator_at(t / tau), y0, times, lindblad_action)
    per_member = states.reshape((len(times), -1) + rho0.shape)
    deviation = np.abs(np.trace(per_member, axis1=-2, axis2=-1) - 1.0)
    drift = np.max(deviation, axis=0)
    failing = np.flatnonzero(drift >= trace_tol)
    if failing.size:
        r = failing[0]
        raise IntegrationError(
            int(np.argmax(deviation[:, r])),
            f"trace drift {drift[r]:.3e} exceeds {trace_tol:.1e}; increase n_steps",
        )
    herm = 0.5 * (per_member + dagger(per_member))
    min_eig = np.min(np.linalg.eigvalsh(herm), axis=(0, 2))
    for dip in min_eig[min_eig < -pos_tol]:
        warnings.warn(
            f"positivity dip {dip:.3e} beyond tolerance; "
            f"try n_steps={2 * n_steps}",
            RuntimeWarning,
        )
    if l.members is None:
        drift, min_eig = float(drift[0]), float(min_eig[0])
    return Trajectory(times=times, states=states,
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
