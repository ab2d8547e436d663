import numpy as np
import pytest
import scipy.integrate
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
    ASSIGNMENT_MARGIN,
    LevelCrossingError,
    cumtrapz,
    fourth_order_derivative,
    frame_from_functions,
    liouville_spectrum,
    track_eigenvectors,
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


@pytest.mark.parametrize(
    "y, x",
    [
        (np.sin(7.0 * np.linspace(0.0, 1.3, 41) ** 2), np.linspace(0.0, 1.3, 41)),
        # one time grid per member column, as lock-step sweeps integrate
        (RNG.normal(size=(33, 4)), np.cumsum(RNG.uniform(0.1, 1.0, size=(33, 4)), axis=0)),
        # a complex (M, d, d) stack on one grid
        (RNG.normal(size=(25, 3, 3)) + 1j * RNG.normal(size=(25, 3, 3)), np.linspace(0.0, 2.0, 25)),
    ],
    ids=["1d", "member-grids", "complex-stack"],
)
def test_trapezoid_rules_keep_scipys_bits(y, x):
    want = scipy.integrate.cumulative_trapezoid(y, x, axis=0, initial=0)
    assert _same_bits(cumtrapz(y, x), want)
    assert _same_bits(np.trapezoid(y, x, axis=0), scipy.integrate.trapezoid(y, x, axis=0))


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
    g = frame.vectors[:, :, 0]
    overlap = np.abs(-np.sin(0.5 * th) * g[:, 0].conj() + np.cos(0.5 * th) * g[:, 1].conj())
    assert np.max(np.abs(overlap - 1.0)) < 1e-10


def _denergies(frame):
    """Physical-time derivatives of a frame's tracked energies by the
    frame's own fourth-order stencils, (M, d)."""
    return np.real(fourth_order_derivative(frame.energies, frame.grid[1] - frame.grid[0]) / frame.tau)


def test_tracked_eigensystem_derivative_accuracy():
    delta, theta0, tau = 2 * np.pi * 2e3, np.pi / 3, 1e-3
    frame = tracked_eigensystem(_lz_schedule(delta, theta0, tau), 401)
    want = delta * theta0 * np.tan(theta0 * frame.grid) / np.cos(theta0 * frame.grid) / tau
    assert np.max(np.abs(_denergies(frame)[:, 1] - want)) < 1e-6 * np.max(np.abs(want))


def test_smooth_gauge_has_real_positive_adjacent_overlaps():
    frame = tracked_eigensystem(_lz_schedule(2 * np.pi * 1e3, 1.0, 1e-3), 101)
    for k in range(1, 101):
        ov = np.einsum("in,in->n", np.conj(frame.vectors[k - 1]), frame.vectors[k])
        assert np.all(np.abs(ov.imag) < 1e-12)
        assert np.all(ov.real > 0)


def test_connection_is_formed_once_with_the_einsum_bytes():
    frame = tracked_eigensystem(_lz_schedule(2 * np.pi * 1e3, 1.0, 1e-3), 101)
    first = frame.connection
    assert frame.connection is first
    want = np.einsum("kin,kim->knm", np.conj(frame.vectors), frame.dvectors)
    assert _same_bits(first, want)


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
    ov = np.abs(dagger(tracked.vectors) @ closed.vectors)
    assert np.max(np.abs(ov - np.eye(2)[None])) < 1e-6


@pytest.mark.parametrize("n_points", [0, 1, 4])
def test_short_grids_are_refused_by_name(n_points):
    with pytest.raises(ValueError, match="at least 5 samples"):
        tracked_eigensystem(_lz_schedule(1.0, 0.5, 1.0), n_points)
    with pytest.raises(ValueError, match="at least 5 samples"):
        frame_from_functions(1.0, n_points, _constant_eigensystem)


@pytest.mark.parametrize("tau", [0.0, -1.0e-3, np.nan])
def test_durations_that_are_not_positive_are_refused(tau):
    """Schedules, sweep members and closed-form frames all refuse a
    duration that is not positive, so every caller may divide by it."""
    with pytest.raises(ValueError, match="^a schedule's duration must be positive, not "):
        Schedule(tau, lambda s: SIGMA_Z)
    with pytest.raises(ValueError, match="^a schedule's duration must be positive, not "):
        Schedule([1.0, tau], lambda s: SIGMA_Z)
    with pytest.raises(ValueError, match="^a frame's duration must be positive, not "):
        frame_from_functions(tau, 11, _constant_eigensystem)


def test_frame_from_functions_refuses_one_node_closures():
    with pytest.raises(ValueError, match=r"must map the \(11,\) grid"):
        frame_from_functions(1.0, 11, lambda s: (np.array([-1.0, 1.0]), _constant_eigensystem(s)[1], None))


# ---------------------------------------------------------------------------
# the node-by-node Hermitian tracker that track_eigenvectors replaced, kept
# as the bit-for-bit reference


def _reference_tracked_eigensystem(h, n_points):
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


@pytest.mark.parametrize(
    "sched, n_points",
    [
        (_lz_schedule(2 * np.pi * 2e3, np.pi / 3, 1e-3), 201),
        (_nmr_lab_schedule(1.0), 1001),
        (_random_schedule(3, 5), 201),
        (_random_schedule(8, 6), 201),
    ],
    ids=["lz-smooth", "nmr-lab-smooth", "random-3x3-smooth", "random-8x8-smooth"],
)
def test_tracked_eigensystem_matches_node_by_node_reference(sched, n_points):
    frame = tracked_eigensystem(sched, n_points)
    energies, vectors, dvectors, denergies, max_res = _reference_tracked_eigensystem(sched, n_points)
    assert _same_bits(frame.energies, energies)
    assert _same_bits(frame.vectors, vectors)
    assert _same_bits(frame.dvectors, dvectors)
    assert _same_bits(_denergies(frame), denergies)
    assert _same_bits(frame.max_residual, max_res)


# ---------------------------------------------------------------------------
# the assignment step of track_eigenvectors, against the per-node solver


_SOLVER = scipy.optimize.linear_sum_assignment


def _reference_track_eigenvectors(vals, vecs, first, costs):
    """The per-node tracker: every node's assignment solved on the cost
    from the previous node's gauge-fixed columns.  Appends each node's cost
    to ``costs``."""
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=1))
    dist = np.abs(vals[:-1, :, None] - vals[1:, None, :]) / scale[1:, None, None]
    order = np.empty(vals.shape, dtype=int)
    order[0] = first
    out = np.empty(vecs.shape, dtype=complex)
    out[0] = vecs[0][:, first]
    for k in range(1, len(vals)):
        prev = out[k - 1]
        cost = 1.0 - np.abs(prev.conj().T @ vecs[k]) + dist[k - 1][order[k - 1]]
        costs.append(cost)
        row, col = _SOLVER(cost)
        order[k, row] = col
        v = vecs[k][:, order[k]]
        ov = np.einsum("ia,ia->a", np.conj(prev), v)
        ov[np.abs(ov) < 1e-12] = 1.0
        out[k] = v / (ov / np.abs(ov))[None, :]
    return order, out


@pytest.fixture
def solver_costs(monkeypatch):
    """The cost matrices that track_eigenvectors hands the solver."""
    seen = []

    def counting(cost):
        seen.append(np.array(cost))
        return _SOLVER(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counting)
    return seen


def _hermitian_grid(sched, n_points):
    energies, vecs = np.linalg.eigh(sched.sample(np.linspace(0.0, 1.0, n_points)))
    return energies, vecs, np.arange(energies.shape[1])


def _qutrit_liouvillian_grid(n_points):
    """A driven qutrit with ladder decay and dephasing as 9x9 Liouvillian
    matrices in the column-stacking representation, decomposed as the
    Liouvillian tracker does.  On 201 nodes two real eigenvalues meet and
    leave as a complex pair between nodes 81 and 82, and meet again and
    part as real ones between nodes 158 and 159: the assignment is
    contested at nodes 82 and 159."""
    rng = np.random.default_rng(31)
    h0, h1 = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
    h0, h1 = h0 + dagger(h0), h1 + dagger(h1)
    eye = np.eye(3)
    jumps = (np.diag([1.0, np.sqrt(2.0)], k=1), np.diag([1.0, 0.0, -1.0]))
    mats = []
    for s in np.linspace(0.0, 1.0, n_points):
        h = np.cos(1.3 * s) * h0 + s * h1
        gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        for rate, j in zip((0.4, 0.2 + 0.3 * s), jumps):
            jj = dagger(j) @ j
            gen = gen + rate * (np.kron(j.conj(), j) - 0.5 * np.kron(eye, jj) - 0.5 * np.kron(jj.T, eye))
        mats.append(gen)
    vals, vecs = np.linalg.eig(np.array(mats))
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    return vals, vecs, np.lexsort((vals[0].imag, -vals[0].real))


def _contested_grid():
    """Seven hand-built 3-level nodes, each in its own column order and with
    random column phases.  Nodes 1 and 2 swap columns in two ways that do
    not commute; node 3 ties overlaps and distances exactly, node 4 nearly
    (1e-12), and at node 5 two rows share one clear minimum, so the solver
    must run at nodes 3, 4 and 5 and only there."""
    rng = np.random.default_rng(4)
    e = np.eye(3, dtype=complex)
    f0, f1 = np.sqrt(0.5) * (e[:, 0] + e[:, 1]), np.sqrt(0.5) * (e[:, 0] - e[:, 1])
    c, s = np.cos(np.deg2rad(40.0)), np.sin(np.deg2rad(40.0))
    nodes = [
        ((e[:, 0], e[:, 1], e[:, 2]), (0.0, 1.0, 2.0)),
        ((e[:, 1], e[:, 0], e[:, 2]), (1.01, 0.01, 2.01)),
        ((e[:, 1], e[:, 2], e[:, 0]), (1.02, 2.02, 0.02)),
        ((f1, e[:, 2], f0), (0.52, 2.03, 0.52)),
        ((e[:, 2], f0, f1), (-0.48 + 1e-12, 0.52, 0.52)),
        ((c * f0 + s * f1, -s * f0 + c * f1, e[:, 2]), (0.62, 1.52, -0.48)),
        ((e[:, 2], -s * f0 + c * f1, c * f0 + s * f1), (-0.47, 1.53, 0.63)),
    ]
    vecs = np.array([np.stack(cols, axis=1) for cols, _ in nodes])
    vecs = vecs * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(len(nodes), 1, 3)))
    return np.array([v for _, v in nodes]), vecs, np.arange(3)


def _one_level_grid():
    rng = np.random.default_rng(9)
    vecs = rng.normal(size=(50, 4, 1)) + 1j * rng.normal(size=(50, 4, 1))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return rng.normal(size=(50, 1)), vecs, np.zeros(1, dtype=int)


def _per_node_track_eigenvectors(vals, vecs, first):
    """The tracker as it was before each run of clear nodes was gathered at
    once: the same clear test, then every node's order composed and its
    columns fancy-indexed and phase-fixed one node at a time."""
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=1))
    dist = np.abs(vals[:-1, :, None] - vals[1:, None, :]) / scale[1:, None, None]
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
            row, col = _SOLVER(1.0 - np.abs(prev.conj().T @ vecs[k]) + dist[k - 1][order[k - 1]])
            order[k, row] = col
        v = vecs[k][:, order[k]]
        ov = np.einsum("ia,ia->a", np.conj(prev), v)
        ov[np.abs(ov) < 1e-12] = 1.0
        out[k] = v / (ov / np.abs(ov))[None, :]
    return order, out


def _near_tie_grid():
    """Eight 3-level nodes, each in a shuffled column order with random
    column phases.  At nodes 1, 4 and 7 the first two columns turn between
    the basis e0, e1 and its 50/50 mixtures while their eigenvalues tie to
    1e-12, so those nodes are contested: the first node after node 0, one
    between two clear runs, and the last node."""
    rng = np.random.default_rng(17)
    e = np.eye(3, dtype=complex)
    f0, f1 = np.sqrt(0.5) * (e[:, 0] + e[:, 1]), np.sqrt(0.5) * (e[:, 0] - e[:, 1])
    tie = (0.5, 0.5 + 1e-12, 2.0)
    nodes = [
        ((e[:, 0], e[:, 1], e[:, 2]), (0.0, 1.0, 2.0)),
        ((f0, f1, e[:, 2]), tie),
        ((f0, f1, e[:, 2]), (0.4, 0.6, 2.01)),
        ((f0, f1, e[:, 2]), (0.3, 0.7, 2.02)),
        ((e[:, 0], e[:, 1], e[:, 2]), tie),
        ((e[:, 0], e[:, 1], e[:, 2]), (0.2, 0.8, 2.03)),
        ((e[:, 0], e[:, 1], e[:, 2]), (0.1, 0.9, 2.04)),
        ((f0, f1, e[:, 2]), tie),
    ]
    perms = [rng.permutation(3) for _ in nodes]
    vecs = np.array([np.stack(cols, axis=1)[:, p] for (cols, _), p in zip(nodes, perms)])
    vecs = vecs * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(len(nodes), 1, 3)))
    vals = np.array([np.asarray(v)[p] for (_, v), p in zip(nodes, perms)])
    return vals, vecs, np.argsort(vals[0])


def _qutrit_cut(a, b):
    """Nodes a..b-1 of the 201-node qutrit grid, the first of them ordered
    as the Liouvillian tracker orders a grid's node 0."""
    vals, vecs, _ = _qutrit_liouvillian_grid(201)
    vals, vecs = vals[a:b], vecs[a:b]
    return vals, vecs, np.lexsort((vals[0].imag, -vals[0].real))


@pytest.mark.parametrize(
    "grid, solved_at",
    [
        (lambda: _hermitian_grid(_lz_schedule(2 * np.pi * 2e3, np.pi / 3, 1e-3), 201), []),
        (lambda: _hermitian_grid(_nmr_lab_schedule(1.0), 1001), []),
        (lambda: _hermitian_grid(_random_schedule(3, 5), 201), []),
        (lambda: _hermitian_grid(_random_schedule(8, 6), 201), []),
        (lambda: _qutrit_liouvillian_grid(201), [82, 159]),
        # contested at node 1, between two clear runs and at the last node
        (lambda: _qutrit_cut(81, 201), [1, 78]),
        (lambda: _qutrit_cut(0, 160), [82, 159]),
        (lambda: _qutrit_cut(81, 160), [1, 78]),
        (_near_tie_grid, [1, 4, 7]),
        (_one_level_grid, []),
        (_contested_grid, [3, 4, 5]),
    ],
    ids=["lz", "nmr-lab", "random-3x3", "random-8x8", "qutrit-9x9", "qutrit-first", "qutrit-last",
         "qutrit-first-and-last", "near-tie", "one-level", "contested"],
)
def test_track_eigenvectors_solves_only_contested_nodes(grid, solved_at, solver_costs):
    """The tracker gives the bits of the per-node solver and of the per-node
    loop it replaced, and hands the solver only the contested nodes, each on
    the cost from the previous node's gauge-fixed columns."""
    vals, vecs, first = grid()
    order, out = track_eigenvectors(vals, vecs, first)
    costs = []
    want_order, want_out = _reference_track_eigenvectors(vals, vecs, first, costs)
    assert _same_bits(order, want_order)
    assert _same_bits(out, want_out)
    loop_order, loop_out = _per_node_track_eigenvectors(vals, vecs, first)
    assert _same_bits(order, loop_order)
    assert _same_bits(out, loop_out)
    assert len(solver_costs) == len(solved_at)
    for cost, k in zip(solver_costs, solved_at):
        assert _same_bits(cost, costs[k - 1])


def test_track_eigenvectors_raises_on_a_nan_cost():
    vals, vecs, first = _hermitian_grid(_random_schedule(3, 5), 11)
    vals[6, 1] = np.nan
    with pytest.raises(ValueError, match="invalid numeric entries"):
        track_eigenvectors(vals, vecs, first)


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
        res = mat @ spec.right - spec.right * np.diag(spec.left @ mat @ spec.right)[None, :]
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

    mat = superoperator_matrix(gen, basis).matrix
    spec = liouville_spectrum(mat)
    got = np.sort_complex(np.round(np.diag(spec.left @ mat @ spec.right), 6))
    # x component is conserved-frequency free: blocks 0 and -2g, and the
    # (y, z) sector gives -g +- sqrt(g^2 - w^2)
    root = np.sqrt(complex(g * g - w * w))
    want = np.sort_complex(np.round(np.array([0.0, -2 * g, -g + root, -g - root]), 6))
    assert np.max(np.abs(got - want)) < 1e-6 * max(g, w)


def _constant_eigensystem(s):
    return np.broadcast_to([-1.0, 1.0], s.shape + (2,)), np.broadcast_to(np.eye(2), s.shape + (2, 2)), None


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
