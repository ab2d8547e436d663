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
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    LindbladGenerator,
    Schedule,
    Trajectory,
    evolve_lindblad,
    lindblad_action,
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


def _dual_route_check(direct, paired, label: str) -> None:
    """Require the two routes to agree on every node; a disagreement names
    the first failing node of a stack."""
    direct = np.asarray(direct)
    bad = np.ravel(np.abs(direct - paired) > DUAL_ROUTE_TOL * np.maximum(1.0, np.abs(direct)))
    if bad.any():
        k = int(np.argmax(bad))
        where = f" at node {k}" if direct.ndim else ""
        raise AssertionError(
            f"{label}: operator-trace route {float(np.ravel(direct)[k])!r} and coherence-vector "
            f"route {float(np.ravel(paired)[k])!r} disagree beyond {DUAL_ROUTE_TOL}{where}"
        )


def _real_trace(a: np.ndarray):
    """Re Tr(a): a float for one matrix, an array for a stack (..., D, D)."""
    out = np.real(np.trace(a, axis1=-2, axis2=-1))
    return float(out) if out.ndim == 0 else out


def heat_rate(
    gen: LindbladGenerator,
    rho: np.ndarray,
    h: np.ndarray,
    basis: OperatorBasis | None = None,
):
    """Instantaneous heat current Tr(L[rho] H).

    Takes one node or a stack of M nodes (a stacked generator with (M, D, D)
    states and Hamiltonians) and gives a float or an (M,) array.  When
    ``basis`` is supplied the same number is recomputed on every node as the
    bilinear pairing (1/D) h . (L rho) of component vectors, from one
    stacked superoperator build, and the two routes are required to agree
    within 1e-10 relative; an AssertionError names the first node where
    they do not.
    """
    direct = _real_trace(lindblad_action(gen, rho) @ h)
    if basis is not None:
        lmat = superoperator_matrix(lambda ops: lindblad_action(gen, ops[:, None]), basis).matrix
        h_vec = to_coherence_vector(h, basis)
        l_rho = (lmat @ to_coherence_vector(rho, basis)[..., None])[..., 0]
        paired = np.real(np.sum(h_vec * l_rho, axis=-1)) / basis.dim
        _dual_route_check(direct, paired, "heat rate")
    return direct


def work_rate(
    h_dot: np.ndarray,
    rho: np.ndarray,
    basis: OperatorBasis | None = None,
):
    """Instantaneous work rate Tr(rho dH/dt), for one node or a stack, with
    the optional paired coherence-vector evaluation on every node as in
    :func:`heat_rate`."""
    direct = _real_trace(np.asarray(rho) @ np.asarray(h_dot))
    if basis is not None:
        hd_vec = to_coherence_vector(h_dot, basis)
        rho_vec = to_coherence_vector(rho, basis)
        _dual_route_check(direct, np.real(np.sum(hd_vec * rho_vec, axis=-1)) / basis.dim, "work rate")
    return direct


def entropy_rate(gen: LindbladGenerator, rho: np.ndarray):
    """Von Neumann entropy production rate -Tr(L[rho] log rho), for one
    node or a stack as in :func:`heat_rate`.

    Eigenvalues of rho below 1e-14 are floored there (and flagged once per
    call) so the logarithm stays finite; an eigenvalue that is negative
    beyond tolerance means the input is not a state and is refused, naming
    the lowest eigenvalue of the first such node.
    """
    rho = np.asarray(rho, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (rho + dagger(rho)))
    lowest = np.ravel(vals.min(axis=-1))
    bad = lowest < -1e-12
    if bad.any():
        raise ValueError(f"state has negative eigenvalue {lowest[np.argmax(bad)]:.3e}")
    if np.any(vals < ENTROPY_EIG_FLOOR):
        warnings.warn(
            "state is rank deficient at working precision; "
            f"eigenvalues floored at {ENTROPY_EIG_FLOOR}",
            RuntimeWarning,
        )
        vals = np.clip(vals, ENTROPY_EIG_FLOOR, None)
    log_rho = (vecs * np.log(vals)[..., None, :]) @ dagger(vecs)
    return -_real_trace(lindblad_action(gen, rho) @ log_rho)


@dataclass(eq=False)
class ThermoLedger:
    """Time-resolved energy bookkeeping along an open trajectory.

    ``first_law_residual`` is max |U(t) - U(0) - Q(t) - W(t)| over the
    grid; it is integration noise, not physics, and should sit at the
    integrator tolerance.
    """

    heat: np.ndarray
    heat_rate: np.ndarray
    entropy_rate: np.ndarray
    first_law_residual: float


def build_ledger(
    l: Schedule,
    traj: Trajectory,
    basis: OperatorBasis | None = None,
) -> ThermoLedger:
    """Assemble the heat and entropy-production ledger of an integrated
    trajectory, with the first-law residual of its heat and work.

    The schedule is sampled once on the trajectory's grid and every rate is
    one stacked evaluation.  With a ``basis``, the dual-route agreement
    check of :func:`heat_rate` and :func:`work_rate` runs on every node.
    """
    times = traj.times
    rho = traj.states

    gen = l.generators(times / l.tau)
    hams = gen.hamiltonian
    h_dots = fourth_order_derivative(hams, times[1] - times[0])

    q_rate = heat_rate(gen, rho, hams, basis)
    w_rate = work_rate(h_dots, rho, basis)
    u = _real_trace(rho @ hams)
    s_rate = entropy_rate(gen, rho)

    heat = cumtrapz(q_rate, times)
    work = cumtrapz(w_rate, times)
    residual = float(np.max(np.abs(u - u[0] - heat - work)))
    return ThermoLedger(
        heat=heat,
        heat_rate=q_rate,
        entropy_rate=s_rate,
        first_law_residual=residual,
    )


def unitary_conjugate_channel(l: Schedule, u: np.ndarray) -> Schedule:
    """Conjugate a Lindblad schedule by a fixed unitary: H -> U H U^dag and
    every jump J -> U J U^dag with rates unchanged.

    Heat, work, and entropy rates are invariant under this map when the
    state is conjugated the same way.  The conjugated schedule is
    vectorized: it samples ``l`` once per call through
    :meth:`Schedule.generators` and conjugates the stacks.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("conjugation map is not unitary")
    ud = dagger(u)

    def sampler(s: np.ndarray) -> LindbladGenerator:
        g = l.generators(s)
        jumps = tuple((rate, u @ jump @ ud) for rate, jump in g.jumps)
        return LindbladGenerator(u @ g.hamiltonian @ ud, jumps)

    return Schedule(tau=l.tau, sampler=sampler, vectorized=True)


def dephasing_heat_scenario(
    omega: float,
    beta: float,
    gamma: Callable[[float], float] | float | Sequence,
    tau: float,
    n_steps: int = 4000,
    basis: OperatorBasis | None = None,
) -> dict | list[dict]:
    """Thermal qubit under a z-axis bath misaligned with its x Hamiltonian.

    H = omega sigma_x is constant (no work), the initial state is thermal
    at inverse temperature beta, and the jump operator sigma_z erodes the
    x coherence at rate gamma(t).  The exact solution keeps the state on
    the x axis of the Bloch ball with coherence g(t) =
    exp(-2 int gamma) tanh(beta omega), so every ledger entry has a
    closed form; the integrated ledger is returned next to those forms.

    Returns a dict with the ledger, the trajectory, the total heat and the
    closed-form references ``q_closed`` = omega g(0) (1 - exp(-2 int gamma))
    and ``q_asymptote`` (the gamma -> infinity plateau omega tanh(beta
    omega)).  A sequence of rates ``gamma`` (each
    a callable or a float) integrates every rate as one member of a single
    lock-step sweep and returns a list with one such dict per rate, each
    equal to the dict of its own scalar call.
    """
    if omega <= 0 or beta <= 0:
        raise ValueError("omega and beta must be positive")
    one = callable(gamma) or np.ndim(gamma) == 0
    gamma_fns = [g if callable(g) else (lambda s, _g=float(g): _g) for g in ([gamma] if one else gamma)]
    ham = omega * SIGMA_X
    g0 = np.tanh(beta * omega)
    rho0 = 0.5 * (SIGMA_0 - g0 * SIGMA_X)

    def sampler(s: np.ndarray) -> LindbladGenerator:
        """The generators at an (m, R) node-by-member array of s."""
        rates = np.array([[f(x) for f, x in zip(gamma_fns, row)] for row in s.tolist()])
        return LindbladGenerator(np.broadcast_to(ham, s.shape + ham.shape), ((rates, SIGMA_Z),))

    traj = evolve_lindblad(Schedule(np.full(len(gamma_fns), tau), sampler, vectorized=True), rho0, n_steps)

    results = []
    for r, gamma_fn in enumerate(gamma_fns):
        member = traj.member(r)
        sched = Schedule(tau, lambda s, f=gamma_fn: LindbladGenerator(
            np.broadcast_to(ham, s.shape + ham.shape), ((np.array([f(x) for x in s.tolist()]), SIGMA_Z),)),
            vectorized=True)
        ledger = build_ledger(sched, member, basis=basis)
        s_grid = member.times / tau
        gamma_int = cumtrapz(np.array([gamma_fn(s) for s in s_grid]), member.times)
        q_closed = omega * g0 * (1.0 - np.exp(-2.0 * gamma_int[-1]))
        results.append({
            "ledger": ledger,
            "trajectory": member,
            "q_total": float(ledger.heat[-1]),
            "q_closed": float(q_closed),
            "q_asymptote": float(omega * g0),
        })
    return results[0] if one else results


def ev_to_rads(energy_ev: float) -> float:
    """Energy in eV to angular frequency in rad/s."""
    return energy_ev / HBAR_EVS


def rads_to_ev(omega: float) -> float:
    """Angular frequency in rad/s to energy in eV."""
    return omega * HBAR_EVS
