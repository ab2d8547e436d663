"""Heat, work, and entropy bookkeeping for driven open qubits.

Rates follow the standard split of dU/dt = Tr(rho dH/dt) + Tr(L[rho] H)
into work and heat.  Every rate has two equivalent evaluations, the
direct operator trace and the coherence-vector pairing; both are
computed and must agree, which catches convention drift between modules.

Internally hbar = 1 (energies in rad/s).  Conversion helpers to
electron-volt units live at the bottom; HBAR_EVS is the CODATA value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import (
    LindbladGenerator,
    Schedule,
    Trajectory,
    evolve_lindblad,
    lindblad_action,
    time_scale,
)
from .opalg import (
    SIGMA_0,
    SIGMA_X,
    SIGMA_Z,
    OperatorBasis,
    dagger,
    is_unitary,
    superoperator_matrix,
    to_coherence_vector,
)
from .spectral import cumtrapz, fourth_order_derivative

HBAR_EVS = 6.582119569e-16  # eV s
DUAL_ROUTE_TOL = 1e-10
ENTROPY_EIG_FLOOR = 1e-14


def _dual_route_check(direct: float, paired: float, label: str) -> None:
    scale = max(1.0, abs(direct))
    if abs(direct - paired) > DUAL_ROUTE_TOL * scale:
        raise AssertionError(
            f"{label}: operator-trace route {direct!r} and coherence-vector "
            f"route {paired!r} disagree beyond {DUAL_ROUTE_TOL}"
        )


def heat_rate(
    gen: LindbladGenerator,
    rho: np.ndarray,
    h: np.ndarray,
    basis: OperatorBasis | None = None,
) -> float:
    """Instantaneous heat current Tr(L[rho] H).

    When ``basis`` is supplied the same number is recomputed as the
    bilinear pairing (1/D) h . (L rho) of component vectors and the two
    routes are required to agree within 1e-10 relative.
    """
    direct = float(np.real(np.trace(lindblad_action(gen, rho) @ h)))
    if basis is not None:
        lmat = superoperator_matrix(lambda op: lindblad_action(gen, op), basis).matrix
        h_vec = to_coherence_vector(np.asarray(h, dtype=complex), basis).components
        rho_vec = to_coherence_vector(np.asarray(rho, dtype=complex), basis).components
        paired = float(np.real(h_vec @ (lmat @ rho_vec) / basis.dim))
        _dual_route_check(direct, paired, "heat rate")
    return direct


def work_rate(
    h_dot: np.ndarray,
    rho: np.ndarray,
    basis: OperatorBasis | None = None,
) -> float:
    """Instantaneous work rate Tr(rho dH/dt), with the optional paired
    coherence-vector evaluation as in :func:`heat_rate`."""
    direct = float(np.real(np.trace(np.asarray(rho) @ np.asarray(h_dot))))
    if basis is not None:
        hd_vec = to_coherence_vector(np.asarray(h_dot, dtype=complex), basis).components
        rho_vec = to_coherence_vector(np.asarray(rho, dtype=complex), basis).components
        paired = float(np.real(hd_vec @ rho_vec / basis.dim))
        _dual_route_check(direct, paired, "work rate")
    return direct


def entropy_rate(gen: LindbladGenerator, rho: np.ndarray) -> float:
    """Von Neumann entropy production rate -Tr(L[rho] log rho).

    Eigenvalues of rho below 1e-14 are floored there (and flagged) so the
    logarithm stays finite; an eigenvalue that is negative beyond
    tolerance means the input is not a state and is refused.
    """
    rho = np.asarray(rho, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (rho + dagger(rho)))
    if vals.min() < -1e-12:
        raise ValueError(f"state has negative eigenvalue {vals.min():.3e}")
    if np.any(vals < ENTROPY_EIG_FLOOR):
        warnings.warn(
            "state is rank deficient at working precision; "
            f"eigenvalues floored at {ENTROPY_EIG_FLOOR}",
            RuntimeWarning,
        )
        vals = np.clip(vals, ENTROPY_EIG_FLOOR, None)
    log_rho = (vecs * np.log(vals)) @ dagger(vecs)
    return float(-np.real(np.trace(lindblad_action(gen, rho) @ log_rho)))


def von_neumann_entropy(rho: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    vals = np.clip(vals, ENTROPY_EIG_FLOOR, None)
    return float(-np.sum(vals * np.log(vals)))


@dataclass(eq=False)
class ThermoLedger:
    """Time-resolved energy bookkeeping along an open trajectory.

    ``first_law_residual`` is max |U(t) - U(0) - Q(t) - W(t)| over the
    grid; it is integration noise, not physics, and should sit at the
    integrator tolerance.
    """

    times: np.ndarray
    internal_energy: np.ndarray
    heat: np.ndarray
    work: np.ndarray
    heat_rate: np.ndarray
    work_rate: np.ndarray
    entropy: np.ndarray
    entropy_rate: np.ndarray
    first_law_residual: float


def build_ledger(
    l: Schedule,
    traj: Trajectory,
    basis: OperatorBasis | None = None,
    check_stride: int = 0,
) -> ThermoLedger:
    """Assemble the heat/work/entropy ledger of an integrated trajectory.

    ``check_stride`` > 0 additionally runs the dual-route agreement check
    on every stride-th node (the superoperator build is the expensive
    part, so the default checks nothing and trusts :func:`heat_rate`
    tests).
    """
    times = traj.times
    m = len(times)
    tau = time_scale(l.tau)

    gens = [l.generator_at(t / tau) for t in times]
    hams = np.array([g.hamiltonian for g in gens])
    if m >= 5:
        h_dots = fourth_order_derivative(hams, times[1] - times[0])
    else:
        h_dots = np.gradient(hams, times, axis=0)

    q_rate = np.empty(m)
    w_rate = np.empty(m)
    u = np.empty(m)
    s = np.empty(m)
    s_rate = np.empty(m)
    for k in range(m):
        rho = traj.states[k]
        use_basis = basis if (check_stride and k % check_stride == 0) else None
        q_rate[k] = heat_rate(gens[k], rho, hams[k], use_basis)
        w_rate[k] = work_rate(h_dots[k], rho, use_basis)
        u[k] = float(np.real(np.trace(rho @ hams[k])))
        s[k] = von_neumann_entropy(rho)
        s_rate[k] = entropy_rate(gens[k], rho)

    heat = cumtrapz(q_rate, times)
    work = cumtrapz(w_rate, times)
    residual = float(np.max(np.abs(u - u[0] - heat - work)))
    return ThermoLedger(
        times=times,
        internal_energy=u,
        heat=heat,
        work=work,
        heat_rate=q_rate,
        work_rate=w_rate,
        entropy=s,
        entropy_rate=s_rate,
        first_law_residual=residual,
    )


def adiabatic_heat_1d(solution, h_components: np.ndarray) -> np.ndarray:
    """Heat current of a block-adiabatic open solution.

    (1/D) sum_a r_a(t) lambda_a(t) (h . D_a(t)) with the bilinear pairing;
    ``h_components`` is either one component vector or one per grid node.
    """
    frame = solution.frame
    h_comp = np.asarray(h_components, dtype=complex)
    dim = int(round(np.sqrt(frame.right.shape[1])))
    pairing = (h_comp[..., None, :] @ frame.right)[:, 0, :]  # h . D_a for every block
    flux = np.sum(solution.coefficients * frame.eigenvalues * pairing, axis=1)
    return np.real(flux) / dim


def unitary_conjugate_channel(l: Schedule, u: np.ndarray) -> Schedule:
    """Conjugate a Lindblad schedule by a fixed unitary: H -> U H U^dag and
    every jump J -> U J U^dag with rates unchanged.

    Heat, work, and entropy rates are invariant under this map when the
    state is conjugated the same way.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("conjugation map is not unitary")
    ud = dagger(u)

    def sampler(s: float) -> LindbladGenerator:
        g = l.generator_at(s)
        jumps = tuple((rate, u @ jump @ ud) for rate, jump in g.jumps)
        return LindbladGenerator(u @ g.hamiltonian @ ud, jumps)

    return Schedule(tau=l.tau, sampler=sampler)


def dephasing_heat_scenario(
    omega: float,
    beta: float,
    gamma: Callable[[float], float] | float,
    tau: float,
    n_steps: int = 4000,
    basis: OperatorBasis | None = None,
) -> dict:
    """Thermal qubit under a z-axis bath misaligned with its x Hamiltonian.

    H = omega sigma_x is constant (no work), the initial state is thermal
    at inverse temperature beta, and the jump operator sigma_z erodes the
    x coherence at rate gamma(t).  The exact solution keeps the state on
    the x axis of the Bloch ball with coherence g(t) =
    exp(-2 int gamma) tanh(beta omega), so every ledger entry has a
    closed form; the integrated ledger is returned next to those forms.

    Returns a dict with the ledger, the total heat, the effective inverse
    temperature series beta_eff(t) = arctanh(g)/omega, and the closed-form
    references ``q_closed`` and ``q_asymptote`` (the gamma -> infinity
    plateau omega tanh(beta omega)).
    """
    if omega <= 0 or beta <= 0:
        raise ValueError("omega and beta must be positive")
    gamma_fn = gamma if callable(gamma) else (lambda s, _g=float(gamma): _g)
    ham = omega * SIGMA_X
    g0 = np.tanh(beta * omega)
    rho0 = 0.5 * (SIGMA_0 - g0 * SIGMA_X)

    def sampler(s: float) -> LindbladGenerator:
        return LindbladGenerator(ham, ((gamma_fn(s), SIGMA_Z),))

    sched = Schedule(tau, sampler)
    traj = evolve_lindblad(sched, rho0, n_steps)
    ledger = build_ledger(sched, traj, basis=basis, check_stride=max(1, n_steps // 8) if basis else 0)

    s_grid = traj.times / time_scale(tau)
    gamma_int = cumtrapz(np.array([gamma_fn(s) for s in s_grid]), traj.times)
    g = np.exp(-2.0 * gamma_int) * g0
    beta_eff = np.arctanh(np.clip(g, -1 + 1e-15, 1 - 1e-15)) / omega
    q_closed = omega * g0 * (1.0 - np.exp(-2.0 * gamma_int[-1]))
    return {
        "ledger": ledger,
        "trajectory": traj,
        "q_total": float(ledger.heat[-1]),
        "q_closed": float(q_closed),
        "q_asymptote": float(omega * g0),
        "beta_eff": beta_eff,
        "coherence": g,
    }


def ev_to_rads(energy_ev: float) -> float:
    """Energy in eV to angular frequency in rad/s."""
    return energy_ev / HBAR_EVS


def rads_to_ev(omega: float) -> float:
    """Angular frequency in rad/s to energy in eV."""
    return omega * HBAR_EVS
