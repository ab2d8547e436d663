import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatic_lab.dynamics import Schedule
from adiabatic_lab.opalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    pauli_basis,
    stack_2x2,
    superoperator_matrix,
)
from adiabatic_lab.spectral import (
    LevelCrossingError,
    eigvec_overlap_matrix,
    fourth_order_derivative,
    frame_from_functions,
    liouville_spectrum,
    tracked_eigensystem,
)

RNG = np.random.default_rng(11)


def _same_bits(a, b):
    """np.array_equal, and the same bytes: array_equal takes -0.0 for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# finite differences


def test_fourth_order_derivative_exact_on_quartics():
    x = np.linspace(0.0, 1.0, 41)
    f = 3.0 * x**4 - 2.0 * x**3 + x - 5.0
    df = 12.0 * x**3 - 6.0 * x**2 + 1.0
    got = fourth_order_derivative(f, x[1] - x[0])
    assert np.max(np.abs(got - df)) < 1e-10


def test_fourth_order_derivative_order_of_accuracy():
    errs = []
    for m in (41, 81):
        x = np.linspace(0.0, 1.0, m)
        got = fourth_order_derivative(np.sin(6 * x), x[1] - x[0])
        errs.append(np.max(np.abs(got - 6 * np.cos(6 * x))))
    # halving the step should shrink the error by about 2^4
    assert errs[0] / errs[1] > 12.0


def test_fourth_order_derivative_needs_five_samples():
    with pytest.raises(ValueError):
        fourth_order_derivative(np.zeros(4), 0.1)


# ---------------------------------------------------------------------------
# tracked Hamiltonian eigensystems


def _lz_schedule(delta, theta0, tau):
    def sampler(s):
        th = theta0 * s
        return delta * (SIGMA_Z + np.tan(th) * SIGMA_X)

    return Schedule(tau, sampler)


def test_tracked_eigensystem_matches_closed_form():
    delta, theta0, tau = 2 * np.pi * 2e3, np.pi / 3, 1e-3
    frame = tracked_eigensystem(_lz_schedule(delta, theta0, tau), 201)
    th = theta0 * frame.grid
    want = delta / np.cos(th)
    assert np.max(np.abs(frame.energies[:, 1] - want)) < 1e-8 * delta
    assert np.max(np.abs(frame.energies[:, 0] + want)) < 1e-8 * delta
    # ground state is (-sin(th/2), cos(th/2)) up to the smooth-gauge phase
    g = frame.level(0)
    overlap = np.abs(-np.sin(0.5 * th) * g[:, 0].conj() + np.cos(0.5 * th) * g[:, 1].conj())
    assert np.max(np.abs(overlap - 1.0)) < 1e-10


def test_tracked_eigensystem_derivative_accuracy():
    delta, theta0, tau = 2 * np.pi * 2e3, np.pi / 3, 1e-3
    frame = tracked_eigensystem(_lz_schedule(delta, theta0, tau), 401)
    want = delta * theta0 * np.tan(theta0 * frame.grid) / np.cos(theta0 * frame.grid) / tau
    assert np.max(np.abs(frame.denergies[:, 1] - want)) < 1e-6 * np.max(np.abs(want))


def test_smooth_gauge_has_real_positive_adjacent_overlaps():
    frame = tracked_eigensystem(_lz_schedule(2 * np.pi * 1e3, 1.0, 1e-3), 101)
    for k in range(1, 101):
        ov = np.einsum("in,in->n", np.conj(frame.vectors[k - 1]), frame.vectors[k])
        assert np.all(np.abs(ov.imag) < 1e-12)
        assert np.all(ov.real > 0)


def test_parallel_transport_kills_diagonal_connection():
    frame = tracked_eigensystem(
        _lz_schedule(2 * np.pi * 1e3, 1.0, 1e-3), 401, gauge="parallel-transport"
    )
    conn = np.einsum("knn->kn", frame.connection)
    assert np.max(np.abs(conn[2:-2])) * frame.tau < 1e-6


def test_level_crossing_refused():
    # H = s * sigma_z crosses zero gap at s = 0
    sched = Schedule(1.0, lambda s: (s - 0.5) * SIGMA_Z)
    with pytest.raises(LevelCrossingError):
        tracked_eigensystem(sched, 101)


def test_level_crossing_names_first_closure():
    sched = Schedule(1.0, lambda s: (s - 0.3) * (s - 0.7) * SIGMA_Z)
    with pytest.raises(LevelCrossingError, match=r"gap below tolerance at s=0\.300000"):
        tracked_eigensystem(sched, 11)


def test_continuity_failure_before_a_later_gap_closure_is_named():
    # the eigenbasis jumps from z to x between s = 0.3 and 0.4, and the gap
    # closes at s = 0.8
    sched = Schedule(1.0, lambda s: SIGMA_Z if s < 0.35 else (s - 0.8) * SIGMA_X)
    with pytest.raises(LevelCrossingError, match=r"continuity tracking failed at s=0\.400000"):
        tracked_eigensystem(sched, 11)


def test_frame_from_functions_matches_tracked():
    delta, theta0, tau = 2 * np.pi * 2e3, np.pi / 4, 1e-3
    tracked = tracked_eigensystem(_lz_schedule(delta, theta0, tau), 201)

    def eigensystem(s):
        e = delta / np.cos(theta0 * s)
        h = 0.5 * theta0 * s
        return np.stack((-e, e), axis=-1), stack_2x2(-np.sin(h), np.cos(h), np.cos(h), np.sin(h)), None

    closed = frame_from_functions(tau, 201, eigensystem)
    assert np.max(np.abs(closed.energies - tracked.energies)) < 1e-7 * delta
    ov = eigvec_overlap_matrix(closed, tracked)
    assert np.max(np.abs(ov - np.eye(2)[None])) < 1e-6
    # a frame map O(s) is called once on the grid and maps it to a stack
    flip = eigvec_overlap_matrix(closed, tracked, lambda s: np.broadcast_to(SIGMA_X, s.shape + (2, 2)))
    assert np.array_equal(flip, np.abs(dagger(tracked.vectors) @ SIGMA_X @ closed.vectors))


def test_unknown_gauge_rejected():
    with pytest.raises(ValueError, match="gauge"):
        tracked_eigensystem(_lz_schedule(1.0, 0.5, 1.0), 11, gauge="lorenz")


@pytest.mark.parametrize("n_points", [0, 1, 4])
def test_short_grids_are_refused_by_name(n_points):
    with pytest.raises(ValueError, match="at least 5 samples"):
        tracked_eigensystem(_lz_schedule(1.0, 0.5, 1.0), n_points)
    with pytest.raises(ValueError, match="at least 5 samples"):
        frame_from_functions(1.0, n_points, _constant_eigensystem)


def test_frame_from_functions_refuses_one_node_closures():
    with pytest.raises(ValueError, match=r"must map the \(11,\) grid"):
        frame_from_functions(1.0, 11, lambda s: (np.array([-1.0, 1.0]), _constant_eigensystem(s)[1], None))


# ---------------------------------------------------------------------------
# the node-by-node Hermitian tracker that track_eigenvectors replaced, kept
# as the bit-for-bit reference


def _reference_tracked_eigensystem(h, n_points, gauge):
    grid = np.linspace(0.0, 1.0, n_points)
    hams = h.sample(grid)
    energies, vectors = np.linalg.eigh(hams)
    for k in range(1, n_points):
        overlap = np.abs(dagger(vectors[k - 1]) @ vectors[k])
        row, col = scipy.optimize.linear_sum_assignment(-overlap)
        order = np.empty(len(col), dtype=int)
        order[row] = col
        energies[k], vectors[k] = energies[k, order], vectors[k][:, order]
    max_res = float(np.max(np.abs(hams @ vectors - vectors * energies[:, None, :])))
    # smooth phases: every successive overlap real positive
    for k in range(1, n_points):
        ov = np.einsum("in,in->n", np.conj(vectors[k - 1]), vectors[k])
        vectors[k] = vectors[k] / (ov / np.abs(ov))[None, :]
    ds = grid[1] - grid[0]
    if gauge == "parallel-transport":
        for _ in range(2):
            dvec_s = fourth_order_derivative(vectors, ds)
            conn = np.einsum("kin,kin->kn", np.conj(vectors), dvec_s)
            theta = np.zeros_like(conn, dtype=float)
            theta[1:] = np.cumsum(0.5 * ds * np.imag(conn[1:] + conn[:-1]), axis=0)
            vectors = vectors * np.exp(-1j * theta)[:, None, :]
    dvectors = fourth_order_derivative(vectors, ds) / h.tau
    denergies = np.real(fourth_order_derivative(energies, ds) / h.tau)
    return energies, vectors, dvectors, denergies, max_res


def _nmr_lab_schedule(r):
    w0, tau = 2.0 * np.pi * 1.0e4, 1.0e-3
    w1, w = w0 * np.tan(0.03), r * w0

    def sampler(s):
        t = s * tau
        return 0.5 * w0 * SIGMA_Z + 0.5 * w1 * (np.cos(w * t) * SIGMA_X + np.sin(w * t) * SIGMA_Y)

    return Schedule(tau, sampler)


def _random_schedule(dim, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2))
    ha, hb = a + dagger(a), b + dagger(b)
    spread = 8.0 * np.diag(np.arange(dim, dtype=float))
    return Schedule(2.0, lambda s: ha + s * hb + spread)


@pytest.mark.parametrize("gauge", ["smooth", "parallel-transport"])
@pytest.mark.parametrize(
    "sched, n_points",
    [
        (_lz_schedule(2 * np.pi * 2e3, np.pi / 3, 1e-3), 201),
        (_nmr_lab_schedule(1.0), 1001),
        (_random_schedule(3, 5), 201),
        (_random_schedule(8, 6), 201),
    ],
    ids=["lz", "nmr-lab", "random-3x3", "random-8x8"],
)
def test_tracked_eigensystem_matches_node_by_node_reference(sched, n_points, gauge):
    frame = tracked_eigensystem(sched, n_points, gauge=gauge)
    energies, vectors, dvectors, denergies, max_res = _reference_tracked_eigensystem(
        sched, n_points, gauge
    )
    assert _same_bits(frame.energies, energies)
    assert _same_bits(frame.vectors, vectors)
    assert _same_bits(frame.dvectors, dvectors)
    assert _same_bits(frame.denergies, denergies)
    assert _same_bits(frame.max_residual, max_res)


# ---------------------------------------------------------------------------
# Liouvillian spectra


def test_liouville_spectrum_biorthonormality_random_diagonalizable():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        spec = liouville_spectrum(mat)
        assert spec.diagonalizable
        assert spec.block_sizes == [1] * 6
        eye = np.eye(6)
        assert np.max(np.abs(spec.left @ spec.right - eye)) < 1e-8
        assert np.max(np.abs(spec.right @ spec.left - eye)) < 1e-8
        # right vectors are genuine eigenvectors
        res = mat @ spec.right - spec.right * spec.eigenvalues[None, :]
        assert np.max(np.abs(res)) < 1e-8 * max(1.0, np.max(np.abs(mat)))


def test_liouville_spectrum_reports_jordan_blocks():
    # one 2-block at 3, one 1-block at 3, one 1-block at -1
    j = np.array([[3.0, 1.0, 0.0, 0.0],
                  [0.0, 3.0, 0.0, 0.0],
                  [0.0, 0.0, 3.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0]])
    p = RNG.normal(size=(4, 4))
    spec = liouville_spectrum(p @ j @ np.linalg.inv(p))
    assert not spec.diagonalizable
    assert spec.block_sizes == [2, 1, 1]


def test_liouville_spectrum_clusters_near_degenerate_pair():
    """A pair split below the cluster tolerance is treated as one defective
    eigenvalue and decomposed with the pseudoinverse instead of crashing."""
    eps = 1e-13
    mat = np.array([[1.0, 1.0], [0.0, 1.0 + eps]])
    spec = liouville_spectrum(mat)
    assert not spec.diagonalizable
    assert spec.block_sizes == [2]
    # pinv left family still inverts on the reachable subspace
    assert np.max(np.abs(spec.right @ spec.left @ spec.right - spec.right)) < 1e-8


def test_liouville_spectrum_dephasing_generator():
    """Static sigma_z dephasing plus x Hamiltonian, eigenvalues by hand."""
    g, w = 100.0, 2 * np.pi * 1e3
    basis = pauli_basis(1)
    h = 0.5 * w * SIGMA_X

    def gen(op):
        return -1j * (h @ op - op @ h) + g * (SIGMA_Z @ op @ SIGMA_Z - op)

    spec = liouville_spectrum(superoperator_matrix(gen, basis))
    got = np.sort_complex(np.round(spec.eigenvalues, 6))
    # x component is conserved-frequency free: blocks 0 and -2g, and the
    # (y, z) sector gives -g +- sqrt(g^2 - w^2)
    root = np.sqrt(complex(g * g - w * w))
    want = np.sort_complex(np.round(np.array([0.0, -2 * g, -g + root, -g - root]), 6))
    assert np.max(np.abs(got - want)) < 1e-6 * max(g, w)


def _constant_eigensystem(s):
    return np.broadcast_to([-1.0, 1.0], s.shape + (2,)), np.broadcast_to(np.eye(2), s.shape + (2, 2)), None


def test_overlap_matrix_grid_mismatch():
    f1 = frame_from_functions(1.0, 11, _constant_eigensystem)
    f2 = frame_from_functions(1.0, 21, _constant_eigensystem)
    with pytest.raises(ValueError, match="grids"):
        eigvec_overlap_matrix(f1, f2)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_tracked_frame_columns_stay_orthonormal(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    ha, hb = a + a.T, b + b.T
    sched = Schedule(1.0, lambda s: ha + s * 0.2 * hb + 5.0 * np.diag([0.0, 1.0, 2.0]))
    try:
        frame = tracked_eigensystem(sched, 101)
    except LevelCrossingError:
        return
    for k in (0, 50, 100):
        v = frame.vectors[k]
        assert np.max(np.abs(dagger(v) @ v - np.eye(3))) < 1e-10
