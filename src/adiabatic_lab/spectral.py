"""Tracked instantaneous eigensystems and Liouvillian spectral analysis.

Eigenvectors along a schedule are matched between neighbouring grid points
by overlap assignment, then gauge fixed: the smooth gauge makes every
successive overlap real positive.  Derivatives are fourth-order finite
differences, one-sided at the grid ends.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import Schedule
from .opalg import Superoperator

GAP_TOL_FACTOR = 1e-8
CLUSTER_TOL_FACTOR = 1e-7
RANK_SVD_TOL = 1e-8
NEAR_DEFECTIVE_COND = 1e10
# A tracking node whose every row minimum of the assignment cost beats the
# row's runner-up by more than this is decided without the assignment
# solver.  The cost the solver sees and the batched cost differ by rounding
# (about 1e-15 per entry, times at most d entries per assignment); 1e-9 is
# far above that and far below any real overlap or eigenvalue separation.
ASSIGNMENT_MARGIN = 1e-9


def fourth_order_derivative(samples: np.ndarray, dx: float) -> np.ndarray:
    """Differentiate uniformly gridded samples along axis 0 at fourth order.

    Interior points use the five-point central stencil; the two points at
    each end use one-sided five-point stencils of the same order.
    """
    f = np.asarray(samples)
    require_stencil_points(f.shape[0])
    out = np.empty_like(f, dtype=complex if np.iscomplexobj(f) else float)
    out[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * dx)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (
        12.0 * dx
    )
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * dx)
    out[-2] = -(
        -3.0 * f[-1] - 10.0 * f[-2] + 18.0 * f[-3] - 6.0 * f[-4] + f[-5]
    ) / (12.0 * dx)
    out[-1] = -(
        -25.0 * f[-1] + 48.0 * f[-2] - 36.0 * f[-3] + 16.0 * f[-4] - 3.0 * f[-5]
    ) / (12.0 * dx)
    return out


def require_stencil_points(m: int) -> None:
    """Refuse a grid too short for the five-point stencils."""
    if m < 5:
        raise ValueError("need at least 5 samples for the fourth-order stencils")


def cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral along axis 0, starting from zero.

    ``x`` is one (n+1,) grid for every column of ``y``, or an (n+1, R)
    array of grids, one per member column.  The arithmetic is that of
    scipy's ``cumulative_trapezoid(y, x, axis=0, initial=0)``, bit for bit.
    """
    y, x = np.asarray(y), np.asarray(x)
    d = np.diff(x, axis=0)
    if x.ndim == 1:
        d = d.reshape((-1,) + (1,) * (y.ndim - 1))
    res = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate([np.zeros((1,) + res.shape[1:], dtype=res.dtype), res])


class LevelCrossingError(RuntimeError):
    """Raised when the instantaneous spectrum degenerates along the grid."""


@dataclass(eq=False)
class SpectralFrame:
    """Gauge-fixed instantaneous eigensystem of a Hamiltonian schedule.

    Attributes
    ----------
    grid : ndarray, shape (M,)
        Normalized times s in [0, 1].
    tau : float
        Total duration in seconds; physical time is s * tau.
    energies : ndarray, shape (M, d)
        Instantaneous eigenvalues, tracked by continuity (ascending at s=0).
    vectors : ndarray, shape (M, d, d)
        Eigenvectors as columns: ``vectors[k][:, n]`` is level n at node k.
    dvectors : ndarray, shape (M, d, d)
        Physical-time derivatives of the eigenvector columns.
    denergies : ndarray, shape (M, d)
        Physical-time derivatives of the eigenvalues.
    max_residual : float
        Largest eigenvalue-equation residual encountered, for diagnostics.
    """

    grid: np.ndarray
    tau: float
    energies: np.ndarray
    vectors: np.ndarray
    dvectors: np.ndarray
    denergies: np.ndarray
    max_residual: float = 0.0

    @property
    def n_levels(self) -> int:
        return self.energies.shape[1]

    @functools.cached_property
    def connection(self) -> np.ndarray:
        """Connection matrix <E_n(s)|dE_m/dt(s)> over the grid, (M, d, d)
        indexed [node, n, m]; formed on first access and kept."""
        return np.einsum("kin,kim->knm", np.conj(self.vectors), self.dvectors)


def track_eigenvectors(
    vals: np.ndarray, vecs: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Follow eigenvectors through a grid by continuity and fix their phases.

    ``vals`` (M, d) and ``vecs`` (M, D, d) hold each node's eigenvalues and
    eigenvector columns in decomposition order; ``first`` orders node 0.
    Each later node's columns are assigned to the previous node's by the
    minimum total cost 1 - |overlap| + eigenvalue distance / node scale,
    the scale being max(1, largest |eigenvalue| at the node).  Each
    assigned column is then rotated so that its overlap with the previous
    gauge-fixed column is real positive; overlaps below 1e-12 leave the
    phase alone.  Returns ``order`` (M, d), with ``vals[k, order[k]]`` the
    tracked eigenvalues of node k, and the gauge-fixed columns (M, D, d).
    """
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=1))
    # eigenvalue distance of node k-1 (rows) to node k (columns), both in
    # decomposition order; row order is fixed up at use by node k-1's order
    dist = np.abs(vals[:-1, :, None] - vals[1:, None, :]) / scale[1:, None, None]
    # The same cost for every adjacent pair at once, from the unphased
    # columns.  The cost the loop would build from node k-1's gauge-fixed
    # columns differs from row order[k-1][i] of this one only by the
    # rounding of the unit phase division, about 1e-15 an entry.  Where
    # every row minimum beats its row's runner-up by more than
    # ASSIGNMENT_MARGIN and the minima form a permutation, that
    # permutation is therefore the unique optimal assignment of both costs
    # (any other assignment leaves some row's minimum and pays the margin),
    # which is what linear_sum_assignment would return.  Such a node is
    # clear; only the others go to the solver.  A non-finite cost is never
    # clear, so the solver raises on it.
    cost = 1.0 - np.abs(np.conj(vecs[:-1]).swapaxes(1, 2) @ vecs[1:]) + dist
    best = np.argmin(cost, axis=2)
    d = vals.shape[1]
    runner_up = np.partition(cost, 1, axis=2)[..., 1] if d > 1 else np.inf
    clear = (
        np.all(runner_up - np.min(cost, axis=2) > ASSIGNMENT_MARGIN, axis=1)
        & np.all(np.sort(best, axis=1) == np.arange(d), axis=1)
        & np.all(np.isfinite(cost), axis=(1, 2))
    )
    order = np.empty(vals.shape, dtype=int)
    order[0] = first
    out = np.empty(vecs.shape, dtype=complex)
    out[0] = vecs[0][:, first]
    for k, is_clear in enumerate(clear.tolist(), start=1):
        prev = out[k - 1]
        if is_clear:
            order[k] = best[k - 1][order[k - 1]]
        else:
            from scipy.optimize import linear_sum_assignment

            row, col = linear_sum_assignment(
                1.0 - np.abs(prev.conj().T @ vecs[k]) + dist[k - 1][order[k - 1]]
            )
            order[k, row] = col
        v = vecs[k][:, order[k]]
        ov = np.einsum("ia,ia->a", np.conj(prev), v)
        ov[np.abs(ov) < 1e-12] = 1.0
        out[k] = v / (ov / np.abs(ov))[None, :]
    return order, out


def tracked_eigensystem(
    h: Schedule,
    n_points: int,
) -> SpectralFrame:
    """Diagonalize a Hamiltonian schedule on a grid with continuity tracking.

    Levels are ordered by ascending energy at s=0 and followed through the
    grid by :func:`track_eigenvectors`.  A gap below ``GAP_TOL_FACTOR``
    times the Hamiltonian scale anywhere on the grid is treated as a level
    crossing and refused, because derivative and connection data are
    meaningless across a crossing; so is an adjacent-node eigenvector
    overlap below 0.999, which means the grid is too coarse to track.
    Both are raised at the first failing node, the gap first.
    """
    require_stencil_points(n_points)
    grid = np.linspace(0.0, 1.0, n_points)
    hams = h.sample(grid)
    energies, vecs = np.linalg.eigh(hams)
    scale = np.maximum(1.0, np.max(np.abs(energies), axis=1))
    closed = np.flatnonzero(np.min(np.diff(energies, axis=1), axis=1) < GAP_TOL_FACTOR * scale)

    order, vectors = track_eigenvectors(energies, vecs, np.arange(energies.shape[1]))
    energies = np.take_along_axis(energies, order, axis=1)
    # the assigned eigh columns before the phase fix, which moves their bits
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    adj = np.min(np.abs(np.einsum("kin,kin->kn", np.conj(vecs[:-1]), vecs[1:])), axis=1)
    torn = np.flatnonzero(adj < 0.999)
    if closed.size and (not torn.size or closed[0] <= torn[0] + 1):
        s = grid[closed[0]]
        raise LevelCrossingError(
            f"spectral gap below tolerance at s={s:.6f} (t={s * h.tau:.3e} s)"
        )
    if torn.size:
        raise LevelCrossingError(
            f"continuity tracking failed at s={grid[torn[0] + 1]:.6f} "
            f"(min adjacent overlap {adj[torn[0]]:.4f}); increase n_points"
        )
    max_res = float(np.max(np.abs(hams @ vecs - vecs * energies[:, None, :])))
    del hams, vecs  # not needed below, where the derivative stencils peak the memory

    ds = grid[1] - grid[0]
    dvectors = fourth_order_derivative(vectors, ds) / h.tau
    denergies = fourth_order_derivative(energies, ds) / h.tau
    return SpectralFrame(
        grid=grid,
        tau=h.tau,
        energies=energies,
        vectors=vectors,
        dvectors=dvectors,
        denergies=np.real(denergies),
        max_residual=max_res,
    )


def frame_from_functions(
    tau: float,
    n_points: int,
    eigensystem: Callable[[np.ndarray], tuple],
) -> SpectralFrame:
    """Build a frame from a closed-form eigensystem of s in [0, 1].

    ``eigensystem`` is called once, on the (M,) array of grid points s,
    and returns every node at once as ``(energies, vectors, dvectors)``:
    the (M, d) energies, the (M, D, d) eigenvector matrices (columns
    ascending at s=0) and their physical-time derivatives, also (M, D, d),
    or None.  One call lets a model compute what the three share once.
    When the derivative is None it is computed by the same
    finite-difference stencils used for numeric frames.  The duration
    ``tau`` must be positive, as a :class:`Schedule`'s must.
    """
    if not tau > 0:
        raise ValueError(f"a frame's duration must be positive, not {tau}")
    require_stencil_points(n_points)
    grid = np.linspace(0.0, 1.0, n_points)
    energies, vectors, dvectors = eigensystem(grid)
    energies = np.ascontiguousarray(energies, dtype=float)
    vectors = np.ascontiguousarray(vectors, dtype=complex)
    if vectors.ndim != 3 or vectors.shape[0] != n_points or energies.shape != vectors.shape[::2]:
        raise ValueError(
            f"the eigensystem must map the ({n_points},) grid to (M, d) energies and "
            f"(M, D, d) vectors, not {energies.shape} and {vectors.shape}"
        )
    ds = grid[1] - grid[0]
    if dvectors is not None:
        dvectors = np.ascontiguousarray(dvectors, dtype=complex)
    else:
        dvectors = fourth_order_derivative(vectors, ds) / tau
    denergies = fourth_order_derivative(energies, ds) / tau
    return SpectralFrame(
        grid=grid,
        tau=tau,
        energies=energies,
        vectors=vectors,
        dvectors=dvectors,
        denergies=np.real(denergies),
    )


@dataclass(eq=False)
class LiouvilleSpectrum:
    """Eigenstructure of a superoperator matrix under the bilinear pairing.

    ``left[i]`` is a row vector; for diagonalizable spectra
    ``left @ right = 1`` and ``right @ left = 1`` within 1e-8 (completeness),
    which is the matrix form of the quasi-eigenvector biorthonormality.
    """

    eigenvalues: np.ndarray
    right: np.ndarray  # columns
    left: np.ndarray  # rows
    block_sizes: list
    diagonalizable: bool
    near_defective: bool = False


def _matrix_rank(a: np.ndarray) -> int:
    svals = np.linalg.svd(a, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_SVD_TOL * svals[0]))


def _jordan_block_sizes(mat: np.ndarray, lam: complex, alg_mult: int) -> list:
    """Block sizes for eigenvalue ``lam`` from ranks of (L - lam)^k.

    Rank thresholds are anchored to powers of the shifted matrix's own
    scale: a power that has collapsed to rounding noise must read as rank
    zero, which a threshold relative to that noise would miss.
    """
    n = mat.shape[0]
    shifted = mat - lam * np.eye(n)
    s_ref = max(float(np.linalg.norm(shifted, 2)), 1e-300)
    ranks = [n]
    power = np.eye(n)
    for k in range(1, alg_mult + 1):
        power = power @ shifted
        svals = np.linalg.svd(power, compute_uv=False)
        ranks.append(int(np.sum(svals > RANK_SVD_TOL * s_ref**k)))
        if ranks[-1] == n - alg_mult:
            break
    # number of blocks of size >= k is rank_{k-1} - rank_k
    counts = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes = []
    for k in range(len(counts), 0, -1):
        n_ge_k = counts[k - 1]
        n_ge_next = counts[k] if k < len(counts) else 0
        sizes.extend([k] * (n_ge_k - n_ge_next))
    return sorted(sizes, reverse=True)


def liouville_spectrum(l: Superoperator | np.ndarray) -> LiouvilleSpectrum:
    """Eigen-decompose a Liouvillian matrix, reporting Jordan structure.

    Eigenvalues are clustered at 1e-7 of the matrix scale; for each cluster
    the geometric multiplicity is compared against the algebraic one, and a
    defective cluster gets its block sizes from rank tests.  Left vectors
    are the rows of the inverse of the right-vector matrix, which is the
    bilinear pairing the propagation theory uses (no complex conjugation).
    Near-defective spectra (eigenvector condition number above 1e10) fall
    back to a pseudoinverse and are flagged rather than trusted.
    """
    mat = l.matrix if isinstance(l, Superoperator) else np.asarray(l, dtype=complex)
    n = mat.shape[0]
    scale = max(1.0, float(np.linalg.norm(mat, 2)))
    tol_cluster = CLUSTER_TOL_FACTOR * scale

    import scipy.linalg

    vals, vecs = scipy.linalg.eig(mat)
    order = np.lexsort((np.abs(vals), vals.imag, -vals.real))
    vals, vecs = vals[order], vecs[:, order]

    # cluster eigenvalues that agree within tolerance
    clusters: list[list[int]] = []
    for i, lam in enumerate(vals):
        for cl in clusters:
            if abs(lam - vals[cl[0]]) < tol_cluster:
                cl.append(i)
                break
        else:
            clusters.append([i])

    block_sizes: list[int] = []
    diagonalizable = True
    for cl in clusters:
        lam = np.mean(vals[cl])
        alg = len(cl)
        geo = n - _matrix_rank(mat - lam * np.eye(n))
        if geo < alg:
            diagonalizable = False
            block_sizes.extend(_jordan_block_sizes(mat, lam, alg))
        else:
            block_sizes.extend([1] * alg)

    near_defective = False
    cond = np.linalg.cond(vecs)
    if cond > NEAR_DEFECTIVE_COND or not diagonalizable:
        if diagonalizable:
            near_defective = True
            warnings.warn(
                f"eigenvector matrix condition number {cond:.2e}; "
                "spectrum flagged near-defective",
                RuntimeWarning,
            )
        left = np.linalg.pinv(vecs)
    else:
        left = np.linalg.inv(vecs)

    return LiouvilleSpectrum(
        eigenvalues=vals,
        right=vecs,
        left=left,
        block_sizes=sorted(block_sizes, reverse=True),
        diagonalizable=diagonalizable,
        near_defective=near_defective,
    )

