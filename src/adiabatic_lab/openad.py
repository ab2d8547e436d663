"""Adiabaticity theory for Lindblad dynamics in superoperator form.

The Liouvillian is sampled along a schedule, eigen-decomposed with
continuity tracking, and the one-dimensional-block adiabatic solution
propagates each quasi-eigenvector coefficient with its eigenvalue and
diagonal connection.  Validity coefficients compare the inter-block
coupling against the accumulated eigenvalue differences.

Left and right quasi-eigenvectors are paired bilinearly (plain dot, no
conjugation): the left family is the row inverse of the right matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    LindbladGenerator,
    Schedule,
    evolve_lindblad,
    fidelity,
    lindblad_action,
    rk4,
)
from .opalg import (
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    LinearityError,
    OperatorBasis,
    combine_components,
    superoperator_matrix,
    to_coherence_vector,
)
from .spectral import (
    NEAR_DEFECTIVE_COND,
    cumtrapz,
    fourth_order_derivative,
    require_stencil_points,
    track_eigenvectors,
)

IDENTICAL_BLOCK_TOL = 1e-10
EXPANSION_RESIDUAL_TOL = 1e-8


def superoperator_at(l: Schedule, grid: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Sample a Liouvillian schedule as coherence-vector matrices (1/s):
    one D^2 x D^2 matrix per node of the (M,) ``grid`` of normalized times.

    The schedule is sampled once through :meth:`Schedule.generators`, and
    every node's matrix comes from one :func:`lindblad_action` call over the
    node axis.  The sampler may return a :class:`LindbladGenerator` or a
    bare Hamiltonian (coherent part only), D x D for the basis's D.
    """
    gen = l.generators(grid)
    shape = gen.hamiltonian.shape[1:]
    if shape != (basis.dim, basis.dim):
        raise ValueError(f"cannot interpret Liouvillian sample of shape {shape}")
    try:
        return superoperator_matrix(lambda ops: lindblad_action(gen, ops[:, None]), basis).matrix
    except LinearityError as exc:
        raise ValueError(f"generator failed the linearity probe at s={grid[exc.node]}") from None


@dataclass(eq=False)
class LiouvilleFrame:
    """Tracked, gauge-fixed Liouvillian eigensystem along a schedule.

    ``right[k][:, a]`` is quasi-eigenvector a at node k (unit 2-norm,
    phase-continuous); ``left[k][a]`` is the matching bilinear row, so
    ``left[k] @ right[k]`` is the identity.  ``connection[k]`` holds
    left @ d(right)/ds, the block-coupling matrix in normalized time.
    The five arrays are read-only: :func:`track_liouville_spectrum` hands
    one frame to every analysis of a schedule.
    """

    grid: np.ndarray
    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    connection: np.ndarray

    @property
    def n_blocks(self) -> int:
        return self.eigenvalues.shape[1]


# The last frame that track_liouville_spectrum returned, with its key:
# (schedule, sampler, basis, vectorized, n_points).
_last_frame: tuple | None = None


def track_liouville_spectrum(
    l: Schedule, n_points: int, basis: OperatorBasis
) -> LiouvilleFrame:
    """Diagonalize the Liouvillian on a grid with continuity tracking.

    Eigenvalues are ordered by descending real part at s=0 and followed
    through the grid by :func:`~adiabatic_lab.spectral.track_eigenvectors`,
    whose assignment weighs eigenvector overlap against eigenvalue
    distance.  The grid's matrices are decomposed in one batched ``eig``.

    The last frame returned is kept in one module-level slot, so the
    analyses of one schedule (:func:`xi_coefficients`,
    :func:`adiabatic_propagate_1d` and
    :func:`asymptotic_adiabaticity_certificate`) share one tracking.  A
    call returns the kept frame itself when it passes the same ``l``,
    ``l.sampler`` and ``basis`` objects (by identity; the slot holds them,
    so no id is reused while it does) with an equal ``l.vectorized`` and
    ``n_points``; any other call tracks anew and takes the slot.  This
    relies on the sampler being a pure function of s, as :class:`Schedule`
    requires.  Only a successful tracking is kept: a call that raises
    leaves the slot as it was, and the same call raises again.  The
    frame's five arrays are read-only, so no caller can change the frame
    that another receives.

    Raises if any sampled Liouvillian has a non-finite entry, or if any
    sampled spectrum is defective; the one-dimensional-block theory
    implemented here has no Jordan chains to propagate.
    """
    global _last_frame
    held = _last_frame  # one read: the key and the frame are one entry's
    if (
        held is not None
        and held[0] is l
        and held[1] is l.sampler
        and held[2] is basis
        and held[3:5] == (l.vectorized, n_points)
    ):
        return held[5]
    require_stencil_points(n_points)
    grid = np.linspace(0.0, 1.0, n_points)
    mats = superoperator_at(l, grid, basis)
    finite = np.all(np.isfinite(mats), axis=(1, 2))
    if not finite.all():
        raise ValueError(f"Liouvillian has non-finite entries at s={grid[np.argmin(finite)]:.4f}")
    vals, vecs = np.linalg.eig(mats)
    # each node's vectors in the column-major layout of one LAPACK call: the
    # layout sets the summation order, and so the bits, of the column norms
    vecs = np.ascontiguousarray(vecs.swapaxes(1, 2)).swapaxes(1, 2)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    order, right = track_eigenvectors(vals, vecs, np.lexsort((vals[0].imag, -vals[0].real)))
    eigenvalues = np.take_along_axis(vals, order, axis=1)

    cond = np.linalg.cond(right)
    bad = np.flatnonzero(cond > NEAR_DEFECTIVE_COND)
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"Liouvillian is defective or near-defective at s={grid[k]:.4f} "
            f"(eigenvector condition number {cond[k]:.2e})"
        )
    left = np.linalg.inv(right)

    ds = grid[1] - grid[0]
    dright = fourth_order_derivative(right, ds)
    connection = np.einsum("kab,kbc->kac", left, dright)
    for arr in (grid, eigenvalues, right, left, connection):
        arr.flags.writeable = False
    frame = LiouvilleFrame(
        grid=grid,
        eigenvalues=eigenvalues,
        right=right,
        left=left,
        connection=connection,
    )
    _last_frame = (l, l.sampler, basis, l.vectorized, n_points, frame)
    return frame


@dataclass(eq=False)
class XiReport:
    """Validity coefficients for the one-dimensional-block adiabatic
    approximation, with excluded (diagonal or degenerate) pairs as NaN."""

    xi1: np.ndarray  # (M, B, B), pair (alpha, beta)
    xi2: np.ndarray

    def max_xi1(self) -> float:
        return float(np.nanmax(self.xi1))

    def max_xi2(self) -> float:
        return float(np.nanmax(self.xi2))


def xi_coefficients(
    l: Schedule,
    tau: float,
    basis: OperatorBasis,
    n_points: int = 401,
    rho0: np.ndarray | None = None,
) -> XiReport:
    """First- and second-kind validity coefficients of the block-adiabatic
    solution for a diagonalizable Liouvillian schedule.

    The source populations use the zeroth-order closure
    p_a(s) = r_a(0) exp(-int_0^s <<E_a|d_s D_a>>); with ``rho0`` omitted
    every block starts at unit coefficient, which upper-bounds any
    normalized initial condition pairwise.  The frame is the one
    :func:`track_liouville_spectrum` keeps, shared with a propagation or
    certificate of the same schedule, basis and ``n_points``.
    """
    frame = track_liouville_spectrum(l, n_points, basis)
    grid = frame.grid
    b = frame.n_blocks
    conn = frame.connection
    diag_conn = np.einsum("kaa->ka", conn)

    if rho0 is None:
        r0 = np.ones(b, dtype=complex)
    else:
        r0, _ = expand_in_blocks(rho0, frame, basis)

    int_diag = cumtrapz(diag_conn, grid)
    p = r0[None, :] * np.exp(-int_diag)

    gcal = frame.eigenvalues[:, :, None] - frame.eigenvalues[:, None, :]
    int_g = cumtrapz(gcal, grid)

    ftilde = np.exp(-int_diag)[:, None, :] * p[:, :, None] * np.transpose(
        conn, (0, 2, 1)
    )

    scale = max(float(np.max(np.abs(frame.eigenvalues))), 1e-300)
    excluded = np.eye(b, dtype=bool) | (np.max(np.abs(gcal), axis=0) < IDENTICAL_BLOCK_TOL * scale)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        growth = np.exp(tau * int_g)
        xi1 = np.abs(ftilde * growth / (tau * gcal))
        ratio = np.where(np.abs(gcal) > 0, ftilde / gcal, 0.0)
        dratio = fourth_order_derivative(ratio, grid[1] - grid[0])
        xi2 = np.abs(dratio * growth / tau)

    xi1[:, excluded] = np.nan
    xi2[:, excluded] = np.nan
    return XiReport(xi1=xi1, xi2=xi2)


def expand_in_blocks(
    rho0: np.ndarray, frame: LiouvilleFrame, basis: OperatorBasis
) -> tuple[np.ndarray, float]:
    """Coefficients of a state in the initial quasi-eigenvector family.

    Raises when the family does not reproduce the state to 1e-8, which
    happens when the spectrum was truncated or mis-tracked.
    """
    vec = to_coherence_vector(np.asarray(rho0, dtype=complex), basis)
    coeffs = frame.left[0] @ vec
    residual = float(
        np.linalg.norm(frame.right[0] @ coeffs - vec)
        / max(np.linalg.norm(vec), 1e-300)
    )
    if residual > EXPANSION_RESIDUAL_TOL:
        raise ValueError(
            f"quasi-eigenvector expansion residual {residual:.2e}; "
            "spectral family incomplete for this state"
        )
    return coeffs, residual


@dataclass(eq=False)
class AdiabaticOpenSolution:
    """Block-adiabatic trajectory: decoupled coefficients riding their own
    eigenvalue and diagonal connection, recombined into states."""

    states: np.ndarray  # (M, D, D)
    expansion_residual: float


def adiabatic_propagate_1d(
    l: Schedule,
    rho0: np.ndarray,
    tau: float,
    basis: OperatorBasis,
    n_points: int = 401,
) -> AdiabaticOpenSolution:
    """Propagate the block-adiabatic solution of a diagonalizable
    Liouvillian: r_a(s) = r_a(0) exp(int_0^s (tau lambda_a - c_a) ds').
    The frame is the one :func:`track_liouville_spectrum` keeps, shared
    with the coefficients or certificate of the same schedule, basis and
    ``n_points``."""
    frame = track_liouville_spectrum(l, n_points, basis)
    r0, residual = expand_in_blocks(rho0, frame, basis)
    diag_conn = np.einsum("kaa->ka", frame.connection)
    exponent = cumtrapz(tau * frame.eigenvalues - diag_conn, frame.grid)
    coeffs = r0[None, :] * np.exp(exponent)

    states = combine_components((frame.right @ coeffs[..., None])[..., 0], basis)
    return AdiabaticOpenSolution(states=states, expansion_residual=residual)


def jordan_block_coefficient_ode(
    g_fn: Callable[[float], np.ndarray],
    p0: Sequence[complex],
    tau: float,
    n_steps: int = 2000,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient flow inside one Jordan block of size u.

    Integrates dp/dt = (S - G(s)) p where S is the upper-shift matrix
    (ones on the first superdiagonal) carrying the chain structure and
    G(s) is the block's coupling matrix in physical 1/s units.  For u = 1
    this reduces to p(t) = p(0) exp(-int G).
    """
    p0 = np.asarray(p0, dtype=complex)
    u = p0.shape[0]
    shift = np.eye(u, k=1, dtype=complex)
    times = np.linspace(0.0, tau, n_steps + 1)

    def node(t: float) -> np.ndarray:
        g = np.asarray(g_fn(t / tau), dtype=complex)
        if g.shape != (u, u):
            raise ValueError(f"block matrix shape {g.shape} does not match p")
        return shift - g

    return times, rk4(lambda ts: np.array([node(t) for t in ts]), p0, times, np.matmul)


def adiabatic_propagator_inverse_identities(
    u_coeffs: np.ndarray,
    u_tilde_coeffs: np.ndarray,
    l_matrix: np.ndarray | None = None,
) -> dict:
    """Residuals of the forward/inverse coefficient identities.

    ``u_coeffs`` columns expand states in quasi-eigenvectors;
    ``u_tilde_coeffs`` rows invert that expansion.  Checks
    sum_j u[p, j] út[j, m] = delta_pm and, when a Liouvillian matrix is
    supplied, that út L u is diagonal (the block-decoupled form).
    """
    u = np.asarray(u_coeffs, dtype=complex)
    ut = np.asarray(u_tilde_coeffs, dtype=complex)
    n = u.shape[0]
    inverse_residual = float(np.max(np.abs(u @ ut - np.eye(n))))
    out = {"inverse_residual": inverse_residual}
    if l_matrix is not None:
        transformed = ut @ np.asarray(l_matrix, dtype=complex) @ u
        off = transformed - np.diag(np.diag(transformed))
        scale = max(float(np.max(np.abs(transformed))), 1e-300)
        out["offdiagonal_residual"] = float(np.max(np.abs(off)) / scale)
    return out


# ---------------------------------------------------------------------------
# two-level oracle-interrogation scenario


def deutsch_scenario(
    f_values: tuple,
    omega: float,
    gamma: float,
    tau: float | Sequence[float],
    n_steps: int = 4000,
) -> dict | list[dict]:
    """Single-qubit function-parity interrogation under dephasing.

    The register starts in the +x pure state and follows a Hamiltonian
    that rotates with phase phi(t) = pi F t / (2 tau), where
    F = 1 - (-1)^(f(0) + f(1)) separates balanced (F = 2) from constant
    (F = 0) function pairs.  Dephasing acts along z at the constant rate
    gamma.

    Returns two fidelity series of the integrated states: against
    the open-system adiabatic reference (coherence damped by
    exp(-2 gamma t)) and against the decoherence-free rotating pure
    state, both from one :func:`fidelity` call over the two targets.  A
    sequence of durations ``tau`` integrates every duration as one member
    of a single lock-step sweep and returns a list with one such dict per
    duration, each equal to the dict of its own scalar call.
    """
    f0, f1 = (int(v) for v in f_values)
    if f0 not in (0, 1) or f1 not in (0, 1):
        raise ValueError("function values must be 0 or 1")
    f_param = 1 - (-1) ** (f0 + f1)
    taus = np.asarray(tau, dtype=float)

    def phi(s):
        return 0.5 * np.pi * f_param * s

    def sampler(s: np.ndarray) -> LindbladGenerator:
        """The generators at an (m, R) node-by-member array of s."""
        p = phi(s)[..., None, None]
        ham = -0.5 * omega * (np.cos(p) * SIGMA_X - np.sin(p) * SIGMA_Y)
        return LindbladGenerator(ham, ((gamma, SIGMA_Z),))

    rho0 = 0.5 * (SIGMA_0 + SIGMA_X)
    sweep = Schedule(taus.reshape(-1), sampler, vectorized=True)
    traj = evolve_lindblad(sweep, rho0, n_steps)

    s_grid = traj.times / sweep.tau
    gamma_int = cumtrapz(np.full(s_grid.shape, float(gamma)), traj.times)

    p = phi(s_grid)[..., None, None]
    coherence = np.cos(p) * SIGMA_X - np.sin(p) * SIGMA_Y
    damping = np.exp(-2.0 * gamma_int)[..., None, None]
    f_os, f_cs = fidelity(traj.states, 0.5 * (SIGMA_0 + np.stack([damping * coherence, coherence])))

    results = [{"f_os": f_os[:, r], "f_cs": f_cs[:, r]} for r in range(sweep.members)]
    return results if taus.ndim else results[0]


def asymptotic_adiabaticity_certificate(
    l: Schedule,
    rho0: np.ndarray,
    basis: OperatorBasis,
    n_points: int = 201,
) -> dict:
    """Structural certificate that the block-adiabatic answer is reached
    at long times regardless of speed.

    Checks: (i) trace preservation (identity row of the Liouvillian
    vanishes), (ii) diagonalizability with no eigenvalue collision along
    the schedule, (iii) a unique zero eigenvalue with every other real
    part strictly negative, (iv) the initial state populating the
    steady block plus at most one other.

    The frame is the one :func:`track_liouville_spectrum` keeps, shared
    with :func:`xi_coefficients` and :func:`adiabatic_propagate_1d` only
    when they pass the same schedule, basis and ``n_points`` (their
    default is 401, this one's 201).  The identity-row check samples the
    schedule on 17 nodes of its own.
    """
    frame = track_liouville_spectrum(l, n_points, basis)
    scale = max(float(np.max(np.abs(frame.eigenvalues))), 1e-300)
    reasons = []

    grid = np.linspace(0.0, 1.0, 17)
    mats = superoperator_at(l, grid, basis)
    scale_k = np.maximum(1.0, np.max(np.abs(mats), axis=(1, 2)))
    leak = np.max(np.abs(mats[:, 0]), axis=1) > 1e-12 * scale_k
    trace_ok = not leak.any()
    if not trace_ok:
        reasons.append(f"identity row of the generator is nonzero at s={grid[np.argmax(leak)]:.3f}")

    a, c = np.triu_indices(frame.n_blocks, 1)
    min_sep = float(np.min(np.abs(frame.eigenvalues[:, a] - frame.eigenvalues[:, c]), initial=np.inf))
    distinct_ok = min_sep > IDENTICAL_BLOCK_TOL * scale
    if not distinct_ok:
        reasons.append("eigenvalue curves collide along the schedule")

    re_parts = np.real(frame.eigenvalues)
    zero_mask = np.abs(frame.eigenvalues) < 1e-9 * scale
    n_zero = np.unique(np.sum(zero_mask, axis=1))
    decay_ok = bool(
        np.all(n_zero == 1)
        and np.all(re_parts[~zero_mask] < -1e-9 * scale)
    )
    if not decay_ok:
        reasons.append("spectrum lacks a unique steady block with decaying rest")

    try:
        r0, _ = expand_in_blocks(rho0, frame, basis)
        populated = np.where(np.abs(r0) > 1e-10 * np.max(np.abs(r0)))[0]
        steady = int(np.argmin(np.abs(frame.eigenvalues[0])))
        others = [a for a in populated if a != steady]
        population_ok = len(others) <= 1
        if not population_ok:
            reasons.append(
                f"initial state populates {len(others)} blocks beyond the steady one"
            )
    except ValueError as exc:
        population_ok = False
        reasons.append(str(exc))

    checks = {
        "trace_preserving": trace_ok,
        "distinct_blocks": distinct_ok,
        "unique_steady_decay": decay_ok,
        "two_block_initial_state": population_ok,
    }
    return {"certified": all(checks.values()), "checks": checks, "reasons": reasons}
