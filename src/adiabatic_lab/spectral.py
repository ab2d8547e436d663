"""Tracked instantaneous eigensystems and Liouvillian spectral analysis.

Eigenvectors along a schedule are matched between neighbouring grid points
by overlap assignment, then gauge fixed.  The smooth gauge makes every
successive overlap real positive; the parallel-transport gauge additionally
integrates out the residual diagonal connection so that <E_n|dE_n/dt>
vanishes to finite-difference accuracy.  Derivatives are fourth-order
finite differences, one-sided at the grid ends.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import linear_sum_assignment

from .dynamics import Schedule, time_scale
from .opalg import Superoperator, dagger

GAP_TOL_FACTOR = 1e-8
CLUSTER_TOL_FACTOR = 1e-7
RANK_SVD_TOL = 1e-8
NEAR_DEFECTIVE_COND = 1e10


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
    """Cumulative trapezoid integral along axis 0, starting from zero."""
    return cumulative_trapezoid(y, x, axis=0, initial=0.0)


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
    gauge : str
        "smooth" or "parallel-transport".
    max_residual : float
        Largest eigenvalue-equation residual encountered, for diagnostics.
    """

    grid: np.ndarray
    tau: float
    energies: np.ndarray
    vectors: np.ndarray
    dvectors: np.ndarray
    denergies: np.ndarray
    gauge: str
    max_residual: float = 0.0

    @property
    def n_levels(self) -> int:
        return self.energies.shape[1]

    def level(self, n: int) -> np.ndarray:
        """Eigenvector time series of level n, shape (M, d)."""
        return self.vectors[:, :, n]

    def dlevel(self, n: int) -> np.ndarray:
        return self.dvectors[:, :, n]

    def connection(self, n: int, m: int) -> np.ndarray:
        """Series <E_n(s)|dE_m/dt(s)> over the grid."""
        return np.einsum("ki,ki->k", np.conj(self.vectors[:, :, n]), self.dvectors[:, :, m])

    def min_gap(self) -> float:
        e = np.sort(self.energies, axis=1)
        return float(np.min(np.diff(e, axis=1)))


def _assign_by_overlap(prev_vecs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    overlap = np.abs(dagger(prev_vecs) @ vecs)
    row, col = linear_sum_assignment(-overlap)
    order = np.empty(len(col), dtype=int)
    order[row] = col
    return order


def _smooth_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each level's phase so successive overlaps are real positive."""
    out = vectors.copy()
    for k in range(1, out.shape[0]):
        ov = np.einsum("in,in->n", np.conj(out[k - 1]), out[k])
        phase = ov / np.abs(ov)
        out[k] = out[k] / phase[None, :]
    return out


def tracked_eigensystem(
    h: Schedule,
    n_points: int,
    gauge: str = "smooth",
    gap_tol_factor: float = GAP_TOL_FACTOR,
    min_adjacent_overlap: float = 0.999,
) -> SpectralFrame:
    """Diagonalize a Hamiltonian schedule on a grid with continuity tracking.

    Levels are ordered by ascending energy at s=0 and followed through the
    grid by maximum-overlap assignment.  A gap below ``gap_tol_factor``
    times the Hamiltonian scale anywhere on the grid is treated as a level
    crossing and refused, because derivative and connection data are
    meaningless across a crossing.
    """
    if gauge not in ("smooth", "parallel-transport"):
        raise ValueError(f"unknown gauge {gauge!r}")
    grid = np.linspace(0.0, 1.0, n_points)
    hams = h.sample(grid)
    energies, vectors = np.linalg.eigh(hams)
    scale = np.maximum(1.0, np.max(np.abs(energies), axis=1))
    gap_closed = np.min(np.diff(energies, axis=1), axis=1) < gap_tol_factor * scale

    for k, s in enumerate(grid):
        if gap_closed[k]:
            raise LevelCrossingError(
                f"spectral gap below tolerance at s={s:.6f} (t={s * h.tau:.3e} s)"
            )
        if k:
            prev = vectors[k - 1]
            order = _assign_by_overlap(prev, vectors[k])
            energies[k], vectors[k] = energies[k, order], vectors[k][:, order]
            adj = np.abs(np.einsum("in,in->n", np.conj(prev), vectors[k]))
            if np.min(adj) < min_adjacent_overlap:
                raise LevelCrossingError(
                    f"continuity tracking failed at s={s:.6f} "
                    f"(min adjacent overlap {np.min(adj):.4f}); increase n_points"
                )
    max_res = float(np.max(np.abs(hams @ vectors - vectors * energies[:, None, :])))

    vectors = _smooth_phases(vectors)
    ds = grid[1] - grid[0]
    tau = time_scale(h.tau)

    if gauge == "parallel-transport":
        # remove the accumulated diagonal connection; two sweeps push the
        # residual below the finite-difference noise floor
        for _ in range(2):
            dvec_s = fourth_order_derivative(vectors, ds)
            conn = np.einsum("kin,kin->kn", np.conj(vectors), dvec_s)
            theta = np.zeros_like(conn, dtype=float)
            theta[1:] = np.cumsum(
                0.5 * ds * np.imag(conn[1:] + conn[:-1]), axis=0
            )
            vectors = vectors * np.exp(-1j * theta)[:, None, :]

    dvectors = fourth_order_derivative(vectors, ds) / tau
    denergies = fourth_order_derivative(energies, ds) / tau
    return SpectralFrame(
        grid=grid,
        tau=h.tau,
        energies=energies,
        vectors=vectors,
        dvectors=dvectors,
        denergies=np.real(denergies),
        gauge=gauge,
        max_residual=max_res,
    )


def frame_from_functions(
    tau: float,
    n_points: int,
    energy_fn: Callable[[float], np.ndarray],
    vector_fn: Callable[[float], np.ndarray],
    dvector_fn: Callable[[float], np.ndarray] | None = None,
    gauge: str = "smooth",
) -> SpectralFrame:
    """Build a frame from closed-form eigensystem functions of s in [0, 1].

    ``vector_fn`` returns the eigenvector matrix (columns ascending at s=0);
    ``dvector_fn`` returns its physical-time derivative.  When the
    derivative is not supplied it is computed by the same finite-difference
    stencils used for numeric frames.
    """
    grid = np.linspace(0.0, 1.0, n_points)
    energies = np.array([np.asarray(energy_fn(s), dtype=float) for s in grid])
    vectors = np.array([np.asarray(vector_fn(s), dtype=complex) for s in grid])
    ds = grid[1] - grid[0]
    scale_tau = time_scale(tau)
    if dvector_fn is not None:
        dvectors = np.array([np.asarray(dvector_fn(s), dtype=complex) for s in grid])
    else:
        dvectors = fourth_order_derivative(vectors, ds) / scale_tau
    denergies = fourth_order_derivative(energies, ds) / scale_tau
    return SpectralFrame(
        grid=grid,
        tau=tau,
        energies=energies,
        vectors=vectors,
        dvectors=dvectors,
        denergies=np.real(denergies),
        gauge=gauge,
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


def _matrix_rank(a: np.ndarray, tol_factor: float = RANK_SVD_TOL) -> int:
    svals = np.linalg.svd(a, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > tol_factor * svals[0]))


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


def eigvec_overlap_matrix(
    frame_a: SpectralFrame,
    frame_b: SpectralFrame,
    o: Callable[[float], np.ndarray] | None = None,
) -> np.ndarray:
    """Time series of |<E^b_m(s)| O(s) |E^a_n(s)>| over the common grid.

    Rows index ``frame_b`` levels, columns index ``frame_a`` levels.  With
    ``o`` omitted the identity map is used.
    """
    if frame_a.grid.shape != frame_b.grid.shape or np.max(
        np.abs(frame_a.grid - frame_b.grid)
    ) > 1e-12:
        raise ValueError("frames are on different grids")
    if o is None:
        mid = np.eye(frame_a.n_levels)
    else:
        mid = Schedule(frame_a.tau, o).sample(frame_a.grid)
    return np.abs(dagger(frame_b.vectors) @ mid @ frame_a.vectors)
