import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatic_lab.dynamics import Schedule
from adiabatic_lab.opalg import SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, pauli_basis, superoperator_matrix
from adiabatic_lab.spectral import (
    LevelCrossingError,
    eigvec_overlap_matrix,
    fourth_order_derivative,
    frame_from_functions,
    liouville_spectrum,
    tracked_eigensystem,
)

RNG = np.random.default_rng(11)


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
    for n in range(2):
        conn = frame.connection(n, n)
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

    def energy_fn(s):
        e = delta / np.cos(theta0 * s)
        return np.array([-e, e])

    def vector_fn(s):
        h = 0.5 * theta0 * s
        return np.array([[-np.sin(h), np.cos(h)], [np.cos(h), np.sin(h)]], dtype=complex)

    closed = frame_from_functions(tau, 201, energy_fn, vector_fn)
    assert np.max(np.abs(closed.energies - tracked.energies)) < 1e-7 * delta
    ov = eigvec_overlap_matrix(closed, tracked)
    assert np.max(np.abs(ov - np.eye(2)[None])) < 1e-6


def test_unknown_gauge_rejected():
    with pytest.raises(ValueError, match="gauge"):
        tracked_eigensystem(_lz_schedule(1.0, 0.5, 1.0), 11, gauge="lorenz")


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


def test_overlap_matrix_grid_mismatch():
    f1 = frame_from_functions(1.0, 11, lambda s: np.array([-1.0, 1.0]),
                              lambda s: np.eye(2, dtype=complex))
    f2 = frame_from_functions(1.0, 21, lambda s: np.array([-1.0, 1.0]),
                              lambda s: np.eye(2, dtype=complex))
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
