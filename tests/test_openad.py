import numpy as np
import pytest
import scipy.linalg

from adiabatic_lab import dynamics, openad
from adiabatic_lab.dynamics import LindbladGenerator, Schedule, evolve_lindblad, lindblad_action
from adiabatic_lab.opalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    OperatorBasis,
    combine_components,
    pauli_basis,
    superoperator_matrix,
    to_coherence_vector,
)
from adiabatic_lab.openad import (
    adiabatic_propagate_1d,
    adiabatic_propagator_inverse_identities,
    asymptotic_adiabaticity_certificate,
    deutsch_scenario,
    expand_in_blocks,
    jordan_block_coefficient_ode,
    superoperator_at,
    track_liouville_spectrum,
    xi_coefficients,
)
from adiabatic_lab.spectral import cumtrapz, fourth_order_derivative

BASIS = pauli_basis(1)
RNG = np.random.default_rng(23)


def dephasing_schedule(omega, gamma, tau):
    ham = -0.5 * omega * SIGMA_X
    return Schedule(tau, lambda s: LindbladGenerator(ham, ((gamma, SIGMA_Z),)))


# ---------------------------------------------------------------------------
# sampling and tracking


def test_superoperator_at_takes_generators_and_bare_hamiltonians():
    """A grid of generator samples gives one matrix per node; a bare
    Hamiltonian is a generator without jumps; a sample of any other shape,
    a raw D^2 x D^2 matrix among them, is refused."""
    grid = np.linspace(0.0, 1.0, 5)
    gen = LindbladGenerator(SIGMA_Z, ((0.3, SIGMA_Z),))
    mats = superoperator_at(Schedule(1.0, lambda s: gen), grid, BASIS)
    want = superoperator_matrix(
        lambda op: -1j * (SIGMA_Z @ op - op @ SIGMA_Z) + 0.3 * (SIGMA_Z @ op @ SIGMA_Z - op), BASIS
    ).matrix
    assert mats.shape == (5, 4, 4)
    assert np.max(np.abs(mats - want)) < 1e-14
    coherent = superoperator_at(Schedule(1.0, lambda s: SIGMA_Z), grid, BASIS)
    want = superoperator_matrix(lambda op: -1j * (SIGMA_Z @ op - op @ SIGMA_Z), BASIS).matrix
    assert np.max(np.abs(coherent - want)) < 1e-14
    bare = Schedule(1.0, lambda s: np.cos(s) * SIGMA_X + s * SIGMA_Z)
    got = superoperator_at(bare, grid, BASIS)
    assert got.shape == (5, 4, 4)
    assert np.array_equal(got, superoperator_at(Schedule(1.0, lambda s: LindbladGenerator(bare.at(s))), grid, BASIS))
    assert np.array_equal(got, np.array([superoperator_at(bare, grid[k:k + 1], BASIS)[0] for k in range(5)]))
    for shape in ((3, 3), (4, 4)):
        with pytest.raises(ValueError, match=f"shape \\({shape[0]}, {shape[1]}\\)"):
            superoperator_at(Schedule(1.0, lambda s: np.zeros(shape)), grid, BASIS)


def test_grid_linearity_probe_names_first_failing_s(monkeypatch):
    # the action squares its argument wherever the Hamiltonian is nonzero,
    # which the schedule makes it from s > 0.5 on
    monkeypatch.setattr(
        "adiabatic_lab.openad.lindblad_action", lambda gen, op: gen.hamiltonian @ op @ op
    )
    sched = Schedule(1.0, lambda s: LindbladGenerator(max(0.0, s - 0.5) * SIGMA_X))
    with pytest.raises(ValueError, match=r"linearity probe at s=0\.75$"):
        superoperator_at(sched, np.linspace(0.0, 1.0, 5), BASIS)


def test_tracked_spectrum_constant_dephasing_eigenvalues():
    omega, gamma = 2 * np.pi * 1e3, 150.0
    frame = track_liouville_spectrum(dephasing_schedule(omega, gamma, 1e-3), 41, BASIS)
    root = np.sqrt(complex(gamma**2 - omega**2))
    want = np.sort_complex(np.array([0.0, -2 * gamma, -gamma + root, -gamma - root]))
    for k in (0, 20, 40):
        got = np.sort_complex(frame.eigenvalues[k])
        assert np.max(np.abs(got - want)) < 1e-8 * omega
    # bilinear biorthonormality on every node
    for k in range(41):
        assert np.max(np.abs(frame.left[k] @ frame.right[k] - np.eye(4))) < 1e-9
    # constant generator: no block coupling
    assert np.max(np.abs(frame.connection)) < 1e-6


def _feed_raw_matrices(monkeypatch):
    """Make the tracker (and the per-node oracle) read a schedule's samples as
    raw D^2 x D^2 generator matrices, which superoperator_at does not take:
    spectra that no small Lindblad schedule gives exactly, such as Jordan
    chains, reach the tracker this way.  The tracker's kept frame is keyed
    by the schedule, not by this patch, so each caller tracks a schedule
    built for it."""
    monkeypatch.setattr(openad, "superoperator_at",
                        lambda l, grid, basis: np.array([l.at(s) for s in grid], dtype=complex))


def test_tracked_spectrum_rejects_defective_liouvillian(monkeypatch):
    # a full-size Jordan chain fed in as a raw generator matrix
    chain = np.eye(4, k=1)
    sched = Schedule(1.0, lambda s: chain)
    _feed_raw_matrices(monkeypatch)
    with pytest.raises(ValueError, match="defective"):
        track_liouville_spectrum(sched, 11, BASIS)


def test_tracked_spectrum_names_first_defective_node(monkeypatch):
    # a 2x2 Jordan block forms where c(s) = 0, at s = 0.25 and s = 0.75
    def sampler(s):
        c = 16.0 * (s - 0.25) * (s - 0.75)
        return np.array(
            [[0.0, 1.0, 0.0, 0.0], [0.0, c, 0.0, 0.0], [0.0, 0.0, -5.0, 0.0], [0.0, 0.0, 0.0, -7.0]]
        )

    _feed_raw_matrices(monkeypatch)
    with pytest.raises(ValueError, match=r"defective at s=0\.2500"):
        track_liouville_spectrum(Schedule(1.0, sampler), 5, BASIS)


def _track_per_node(l, n_points, basis):
    """Reference tracker: scipy's eig on one node at a time, each node
    ordered against the previous node's gauge-fixed vectors and reordered
    eigenvalues as it is decomposed."""
    from scipy.optimize import linear_sum_assignment

    grid = np.linspace(0.0, 1.0, n_points)
    d2 = basis.dim**2
    eigenvalues = np.empty((n_points, d2), dtype=complex)
    right = np.empty((n_points, d2, d2), dtype=complex)
    prev_vals = prev_vecs = None
    for k, mat in enumerate(openad.superoperator_at(l, grid, basis)):
        vals, vecs = scipy.linalg.eig(mat)
        vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
        if prev_vecs is None:
            order = np.lexsort((vals.imag, -vals.real))
        else:
            scale = max(1.0, float(np.max(np.abs(vals))))
            cost = 1.0 - np.abs(prev_vecs.conj().T @ vecs)
            cost = cost + np.abs(prev_vals[:, None] - vals[None, :]) / scale
            row, col = linear_sum_assignment(cost)
            order = np.empty(d2, dtype=int)
            order[row] = col
        vals, vecs = vals[order], vecs[:, order]
        if k > 0:
            ov = np.einsum("ia,ia->a", np.conj(prev_vecs), vecs)
            bad = np.abs(ov) < 1e-12
            ov[bad] = 1.0
            vecs = vecs / (ov / np.abs(ov))[None, :]
        eigenvalues[k], right[k] = vals, vecs
        prev_vals, prev_vecs = vals, vecs
    left = np.linalg.inv(right)
    connection = np.einsum("kab,kbc->kac", left, fourth_order_derivative(right, grid[1] - grid[0]))
    return eigenvalues, right, left, connection


def _gell_mann_basis():
    """Qutrit basis: the identity and the eight Gell-Mann matrices scaled
    to Tr(sigma_n sigma_m^dag) = 3 delta_nm."""
    elements = [np.eye(3, dtype=complex)]
    for a in range(3):
        for b in range(a + 1, 3):
            sym = np.zeros((3, 3), dtype=complex)
            sym[a, b] = sym[b, a] = 1.0
            asym = np.zeros((3, 3), dtype=complex)
            asym[a, b], asym[b, a] = -1j, 1j
            elements += [sym, asym]
    elements.append(np.diag([1.0, -1.0, 0.0]).astype(complex))
    elements.append(np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3.0))
    elements = [elements[0]] + [np.sqrt(1.5) * e for e in elements[1:]]
    return OperatorBasis(dim=3, elements=tuple(elements), labels=tuple(f"g{n}" for n in range(9)))


def _qutrit_schedule():
    """A driven qutrit with decay down a ladder and dephasing: three jumps,
    a per-node rate, a 9x9 Liouvillian."""
    rng = np.random.default_rng(31)
    h0, h1 = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
    h0, h1 = h0 + h0.conj().T, h1 + h1.conj().T
    lower = np.diag([1.0, np.sqrt(2.0)], k=1).astype(complex)
    deph = np.diag([1.0, 0.0, -1.0]).astype(complex)
    mix = np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=complex)

    def sampler(s):
        ham = np.cos(1.3 * s) * h0 + s * h1
        return LindbladGenerator(ham, ((0.4, lower), (0.2 + 0.3 * s, deph), (0.15, mix)))

    return Schedule(2.0, sampler)


def _crossing_schedule():
    """A raw 4x4 generator V diag(lambda(s)) V^-1 (see _feed_raw_matrices) whose eigenvalues are far
    apart against the eigenvector overlaps, with eig returning them out of
    the tracked order, so the eigenvalue-distance term must follow the
    previous node's order."""
    rng = np.random.default_rng(7)
    v = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    v_inv = np.linalg.inv(v)

    def sampler(s):
        lam = np.array([-1.0 + 10.0j, -0.5 * s, -1.0 - 10.0j - s, -2.0 + 3.0j * s])
        return (v * lam) @ v_inv

    return Schedule(1.0, sampler)


@pytest.mark.parametrize(
    "case, n_solved", [("dephasing", 0), ("qutrit", 2), ("crossing", 0)], ids=["dephasing", "qutrit", "crossing"]
)
def test_tracked_spectrum_equals_per_node_oracle(case, n_solved, monkeypatch):
    """The batched tracker gives the per-node tracker's frame bit for bit:
    eigenvalues, right and left vectors and connection.  The assignment
    solver runs only where the qutrit's real eigenvalue pair turns complex
    and back."""
    import scipy.optimize

    sched, basis, n_points = {
        "dephasing": (dephasing_schedule(2 * np.pi * 1e3, 150.0, 1e-3), BASIS, 41),
        "qutrit": (_qutrit_schedule(), _gell_mann_basis(), 61),
        "crossing": (_crossing_schedule(), BASIS, 41),
    }[case]
    if case == "crossing":
        _feed_raw_matrices(monkeypatch)
    solver, calls = scipy.optimize.linear_sum_assignment, []
    with monkeypatch.context() as patch:
        patch.setattr(scipy.optimize, "linear_sum_assignment", lambda cost: calls.append(cost) or solver(cost))
        frame = track_liouville_spectrum(sched, n_points, basis)
    assert len(calls) == n_solved
    want = _track_per_node(sched, n_points, basis)
    for got, ref in zip((frame.eigenvalues, frame.right, frame.left, frame.connection), want):
        assert np.array_equal(got, ref)
    if case == "crossing":
        # the tracked order differs from eig's own order before the last
        # node, where it feeds the distance term of the next assignment
        raw = np.linalg.eig(openad.superoperator_at(sched, frame.grid, basis))[0]
        assert np.any(frame.eigenvalues[:-1] != raw[:-1])


def test_tracked_spectrum_names_first_non_finite_node():
    def sampler(s):
        return LindbladGenerator(SIGMA_X, ((np.nan if s >= 0.5 else 0.2, SIGMA_Z),))

    with pytest.raises(ValueError, match=r"non-finite entries at s=0\.5000"):
        track_liouville_spectrum(Schedule(1.0, sampler), 9, BASIS)


def test_tracking_samples_a_scalar_schedule_once_per_node():
    """Tracking a scalar schedule on n nodes calls its sampler n times."""
    calls = []

    def sampler(s):
        calls.append(s)
        return LindbladGenerator(np.cos(s) * SIGMA_X, ((0.3 + s, SIGMA_Z),))

    track_liouville_spectrum(Schedule(1.0, sampler), 21, BASIS)
    assert calls == np.linspace(0.0, 1.0, 21).tolist()


@pytest.mark.parametrize("n_points", [0, 1, 2, 4])
def test_tracked_spectrum_needs_five_points(n_points):
    sched = dephasing_schedule(2 * np.pi * 1e3, 100.0, 1e-3)
    with pytest.raises(ValueError, match="at least 5 samples"):
        track_liouville_spectrum(sched, n_points, BASIS)


# ---------------------------------------------------------------------------
# one tracked frame per schedule: the last frame is kept and shared


def _counting_schedule(calls):
    """A fresh scalar schedule of a driven, dephased qubit whose sampler
    appends every s it is called on to ``calls``."""
    def sampler(s):
        calls.append(s)
        return LindbladGenerator(-0.5 * 50.0 * (np.cos(s) * SIGMA_X - np.sin(s) * SIGMA_Y), ((5.0, SIGMA_Z),))

    return Schedule(1.0, sampler)


def test_analyses_of_one_schedule_share_one_tracking():
    """xi, propagation and certificate on one schedule and grid sample it
    n_points times for the frame, plus the certificate's 17 nodes."""
    calls, n_points = [], 41
    sched = _counting_schedule(calls)
    rho0 = 0.5 * (np.eye(2, dtype=complex) + SIGMA_X)
    xi_coefficients(sched, 1.0, BASIS, n_points=n_points)
    adiabatic_propagate_1d(sched, rho0, 1.0, BASIS, n_points=n_points)
    asymptotic_adiabaticity_certificate(sched, rho0, BASIS, n_points=n_points)
    assert len(calls) == n_points + 17
    assert track_liouville_spectrum(sched, n_points, BASIS) is track_liouville_spectrum(sched, n_points, BASIS)
    assert len(calls) == n_points + 17


def test_another_grid_basis_schedule_or_sampler_tracks_again():
    calls = []
    sched = _counting_schedule(calls)
    frame = track_liouville_spectrum(sched, 21, BASIS)
    assert track_liouville_spectrum(sched, 21, BASIS) is frame
    assert len(calls) == 21
    variants = [
        lambda: track_liouville_spectrum(sched, 25, BASIS),
        lambda: track_liouville_spectrum(sched, 21, pauli_basis(1)),
        lambda: track_liouville_spectrum(Schedule(1.0, sched.sampler), 21, BASIS),
    ]
    for n_new, track in zip((25, 21, 21), variants):
        del calls[:]
        assert track() is not frame
        assert len(calls) == n_new
    # the same schedule object with its sampler replaced
    del calls[:]
    sched.sampler = _counting_schedule(calls).sampler
    assert track_liouville_spectrum(sched, 21, BASIS) is not frame
    assert len(calls) == 21


def test_raising_tracking_keeps_nothing_and_raises_again():
    calls = []

    def sampler(s):
        calls.append(s)
        return LindbladGenerator(SIGMA_X, ((np.nan if s >= 0.5 else 0.2, SIGMA_Z),))

    good_calls = []
    good = _counting_schedule(good_calls)
    frame = track_liouville_spectrum(good, 9, BASIS)
    sched = Schedule(1.0, sampler)
    messages = []
    for _ in range(2):
        del calls[:]
        with pytest.raises(ValueError, match="non-finite") as err:
            track_liouville_spectrum(sched, 9, BASIS)
        messages.append(str(err.value))
        assert len(calls) == 9
    assert messages[0] == messages[1]
    # the failed calls left the last good frame in place
    assert track_liouville_spectrum(good, 9, BASIS) is frame
    assert len(good_calls) == 9


def test_tracked_frame_is_read_only():
    frame = track_liouville_spectrum(_counting_schedule([]), 11, BASIS)
    for arr in (frame.grid, frame.eigenvalues, frame.right, frame.left, frame.connection):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_slot_replaced_during_the_key_check_still_returns_its_own_frame():
    """The slot is read once per call, so the key checked and the frame
    returned are one entry's even when the slot is replaced mid-check, as
    another thread may do: here the comparison of n_points tracks another
    schedule."""
    other = _counting_schedule([])

    class Points(int):
        def __eq__(self, value):
            track_liouville_spectrum(other, 11, BASIS)
            return int(self) == int(value)

        __hash__ = int.__hash__

    sched = dephasing_schedule(2 * np.pi * 10.0, 3.0, 1.0)
    frame = track_liouville_spectrum(sched, 11, BASIS)
    assert track_liouville_spectrum(sched, Points(11), BASIS) is frame


def test_kept_frame_equals_a_fresh_tracking():
    sched = _counting_schedule([])
    kept = track_liouville_spectrum(sched, 31, BASIS)
    assert track_liouville_spectrum(sched, 31, BASIS) is kept
    fresh = track_liouville_spectrum(Schedule(1.0, sched.sampler), 31, BASIS)
    assert fresh is not kept
    for name in ("grid", "eigenvalues", "right", "left", "connection"):
        assert getattr(kept, name).tobytes() == getattr(fresh, name).tobytes()


# ---------------------------------------------------------------------------
# block propagation against the exact exponential


def test_adiabatic_propagation_exact_for_constant_generator():
    omega, gamma, tau = 2 * np.pi * 1e3, 150.0, 2e-3
    sched = dephasing_schedule(omega, gamma, tau)
    rho0 = 0.5 * (np.eye(2, dtype=complex) + 0.6 * SIGMA_X + 0.3 * SIGMA_Z)
    sol = adiabatic_propagate_1d(sched, rho0, tau, BASIS, n_points=101)
    assert sol.expansion_residual < 1e-10

    mat = superoperator_at(sched, np.zeros(1), BASIS)[0]
    v0 = to_coherence_vector(rho0, BASIS)
    grid = np.linspace(0.0, 1.0, 101)
    for k in (0, 33, 66, 100):
        t = grid[k] * tau
        want_vec = scipy.linalg.expm(mat * t) @ v0
        want = combine_components(want_vec, BASIS)
        assert np.max(np.abs(sol.states[k] - want)) < 1e-8


def test_propagated_states_equal_per_node_reconstruction():
    basis = pauli_basis(2)
    rng = np.random.default_rng(5)
    h0, h1, jump = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3))
    h0, h1 = h0 + h0.conj().T, h1 + h1.conj().T
    sched = Schedule(2.0, lambda s: LindbladGenerator(np.cos(s) * h0 + s * h1, ((0.5 + s, jump),)))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = a @ a.conj().T
    rho0 = rho0 / np.trace(rho0)
    sol = adiabatic_propagate_1d(sched, rho0, 2.0, basis, n_points=41)
    # the block coefficients r_a(s) = r_a(0) exp(int_0^s (tau lambda_a - c_a) ds'),
    # on the frame the propagation tracks
    frame = track_liouville_spectrum(sched, 41, basis)
    r0, _ = expand_in_blocks(rho0, frame, basis)
    diag_conn = np.einsum("kaa->ka", frame.connection)
    coefficients = r0[None, :] * np.exp(cumtrapz(2.0 * frame.eigenvalues - diag_conn, frame.grid))
    want = np.zeros_like(sol.states)
    for k, (right, c) in enumerate(zip(frame.right, coefficients)):
        # reference: one node at a time, c_n sigma_n added in basis order
        for comp, sig in zip(right @ c, basis.elements):
            want[k] += comp * sig
    assert np.array_equal(sol.states, want / 4)
    last = frame.right[-1] @ coefficients[-1]
    assert np.array_equal(sol.states[-1], combine_components(last, basis))


def test_expansion_residual_guard():
    omega, gamma, tau = 2 * np.pi * 1e3, 150.0, 1e-3
    frame = track_liouville_spectrum(dephasing_schedule(omega, gamma, tau), 11, BASIS)
    rho0 = 0.5 * np.eye(2, dtype=complex)
    coeffs, residual = expand_in_blocks(rho0, frame, BASIS)
    assert residual < 1e-10
    # reconstruction
    back = frame.right[0] @ coeffs
    want = to_coherence_vector(rho0, BASIS)
    assert np.max(np.abs(back - want)) < 1e-10


def test_jordan_block_ode_matches_exponential():
    """Constant block matrix: p(t) = expm((S - G) t) p(0)."""
    g = np.array([[0.2, 0.05], [0.0, 0.3]], dtype=complex)
    p0 = np.array([1.0, 0.5], dtype=complex)
    tau = 2.0
    times, flow = jordan_block_coefficient_ode(lambda s: g, p0, tau, n_steps=400)
    shift = np.eye(2, k=1)
    want = scipy.linalg.expm((shift - g) * tau) @ p0
    assert np.max(np.abs(flow[-1] - want)) < 1e-10
    # size-1 block reduces to a scalar exponential
    _, flow1 = jordan_block_coefficient_ode(lambda s: np.array([[0.4]]), [1.0], tau, 200)
    assert abs(flow1[-1][0] - np.exp(-0.4 * tau)) < 1e-12


def test_jordan_block_ode_shape_guard():
    with pytest.raises(ValueError, match="shape"):
        jordan_block_coefficient_ode(lambda s: np.eye(3), [1.0, 0.0], 1.0, 10)


def test_inverse_identities():
    u = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    ut = np.linalg.inv(u)
    lam = np.diag([0.0, -1.0, -2.0 + 1j, -3.0])
    lmat = u @ lam @ ut
    out = adiabatic_propagator_inverse_identities(u, ut, lmat)
    assert out["inverse_residual"] < 1e-10
    assert out["offdiagonal_residual"] < 1e-10
    # a wrong pairing is flagged by both residuals
    bad = adiabatic_propagator_inverse_identities(u, u.T, lmat)
    assert bad["inverse_residual"] > 1e-3


# ---------------------------------------------------------------------------
# validity coefficients


def test_xi_vanishes_for_constant_generator():
    omega, gamma, tau = 2 * np.pi * 1e3, 150.0, 1e-3
    rep = xi_coefficients(dephasing_schedule(omega, gamma, tau), tau, BASIS, n_points=101)
    assert rep.max_xi1() < 1e-4
    assert rep.max_xi2() < 1e-1  # second kind amplifies FD noise of a zero signal
    assert np.all(np.isnan(np.diagonal(rep.xi1, axis1=1, axis2=2)))


def test_xi_long_time_growth_and_steady_start_suppression():
    """Pairs whose eigenvalue gap has a positive real part make the validity
    coefficient grow with tau: open-system adiabaticity can degrade at long
    times.  Starting in the steady block suppresses every source term."""
    omega = 2 * np.pi * 1e3
    gamma0 = 0.1 * omega

    def make(tau):
        def sampler(s):
            p = 0.25 * np.pi * s
            ham = -0.5 * omega * (np.cos(p) * SIGMA_X - np.sin(p) * SIGMA_Y)
            return LindbladGenerator(ham, ((gamma0, SIGMA_Z),))

        return Schedule(tau, sampler)

    fast = xi_coefficients(make(5.0 / omega), 5.0 / omega, BASIS, n_points=201)
    slow = xi_coefficients(make(50.0 / omega), 50.0 / omega, BASIS, n_points=201)
    assert np.isfinite(fast.max_xi1())
    assert slow.max_xi1() > fast.max_xi1()

    steady = 0.5 * np.eye(2, dtype=complex)
    tau = 50.0 / omega
    pinned = xi_coefficients(make(tau), tau, BASIS, n_points=201, rho0=steady)
    assert pinned.max_xi1() < 1e-6 * slow.max_xi1()


# ---------------------------------------------------------------------------
# function-parity interrogation


def test_deutsch_f_parameter_and_validation(monkeypatch):
    """F = 1 - (-1)^(f(0) + f(1)) is 0 for a constant pair and 2 for a
    balanced one, and the drive turns by phi(1) = pi F / 2 over the run."""
    omega, tau = 2 * np.pi * 1e4, 1e-4
    seen = []
    monkeypatch.setattr(openad, "evolve_lindblad", lambda l, *args: seen.append(l) or evolve_lindblad(l, *args))
    for pair, want in (((0, 0), 0), ((1, 1), 0), ((0, 1), 2), ((1, 0), 2)):
        deutsch_scenario(pair, omega, 0.0, tau, n_steps=120)
        p = np.array([[0.5 * np.pi * want]])[..., None, None]
        assert np.array_equal(seen[-1].sampler(np.ones((1, 1))).hamiltonian,
                              -0.5 * omega * (np.cos(p) * SIGMA_X - np.sin(p) * SIGMA_Y))
    with pytest.raises(ValueError, match="0 or 1"):
        deutsch_scenario((0, 2), omega, 0.0, tau, n_steps=120)


def test_deutsch_balanced_adiabatic_fidelity():
    omega = 2 * np.pi * 1e4
    tau = 100.0 / omega
    res = deutsch_scenario((0, 1), omega, 0.1 * omega, tau, n_steps=2500)
    assert res["f_os"][-1] >= 0.999
    # fully dephased final state against the still-coherent target
    assert res["f_cs"][-1] == pytest.approx(np.sqrt(0.5), abs=5e-3)


def _deutsch_and_trajectory(monkeypatch, *args, **kwargs):
    """deutsch_scenario's result and the sweep trajectory that its
    evolve_lindblad call integrated, one member per duration."""
    trajs = []
    monkeypatch.setattr(openad, "evolve_lindblad", lambda l, *a: trajs.append(evolve_lindblad(l, *a)) or trajs[-1])
    res = deutsch_scenario(*args, **kwargs)
    (traj,) = trajs
    return res, traj


def test_deutsch_constant_pair_keeps_plus_state(monkeypatch):
    """F = 0 leaves the Hamiltonian static along x; no rotation happens."""
    omega = 2 * np.pi * 1e4
    tau = 50.0 / omega
    _, traj = _deutsch_and_trajectory(monkeypatch, (1, 1), omega, 0.0, tau, n_steps=1500)
    rho = traj.member(0).final
    plus = 0.5 * (np.eye(2) + SIGMA_X)
    assert np.max(np.abs(rho - plus)) < 1e-8


def test_deutsch_dephasing_matches_integrated_decay(monkeypatch):
    """With the drive off, pure dephasing at rate gamma is exactly
    exp(-2 gamma t) on the coherence, and the adiabatic reference
    integrates the same rate, so f_os stays 1."""
    tau = 1.0e-4
    gamma0 = 2.0e4
    res, traj = _deutsch_and_trajectory(monkeypatch, (0, 0), 0.0, gamma0, tau, n_steps=1500)
    rho = traj.member(0).final
    coh = 2.0 * abs(rho[0, 1])
    assert coh == pytest.approx(np.exp(-2.0 * gamma0 * tau), rel=1e-9)
    assert np.max(np.abs(res["f_os"] - 1.0)) < 1e-9


def test_deutsch_fidelities_take_one_square_root_of_the_states(monkeypatch):
    """One fidelity call over the two targets, stacked on a leading axis,
    gives both series, bit for bit the two calls it replaced, and takes the
    square root of the state stack once per run."""
    omega = 2 * np.pi * 1e4
    roots, args = [], []
    sqrtm, fidelity = dynamics._sqrtm_psd, openad.fidelity
    monkeypatch.setattr(dynamics, "_sqrtm_psd", lambda rho: roots.append(rho.shape) or sqrtm(rho))
    monkeypatch.setattr(openad, "fidelity", lambda rho1, rho2: args.append((rho1, rho2)) or fidelity(rho1, rho2))
    sweep = deutsch_scenario((0, 1), omega, 0.1 * omega, [20.0 / omega, 35.0 / omega], n_steps=100)
    assert roots == [(101, 2, 2, 2)]
    ((states, targets),) = args
    assert targets.shape == (2, 101, 2, 2, 2)
    for key, target in zip(("f_os", "f_cs"), targets):
        alone = fidelity(states, target)
        for r, res in enumerate(sweep):
            assert np.array_equal(res[key], alone[:, r]) and res[key].tobytes() == alone[:, r].tobytes()


def test_deutsch_duration_sweep_equals_scalar_calls(monkeypatch):
    """A sequence of durations gives one dict per duration, equal to the
    dict of that duration's own call, and integrates each duration as its
    own call does."""
    omega = 2 * np.pi * 1e4
    taus = [20.0 / omega, 35.0 / omega, 80.0 / omega]
    gamma = 0.1 * omega
    sweep, traj = _deutsch_and_trajectory(monkeypatch, (0, 1), omega, gamma, taus, n_steps=150)
    assert len(sweep) == len(taus)
    for r, (got, tau) in enumerate(zip(sweep, taus)):
        want, alone = _deutsch_and_trajectory(monkeypatch, (0, 1), omega, gamma, tau, n_steps=150)
        assert list(got) == list(want) == ["f_os", "f_cs"]
        for key in ("f_os", "f_cs"):
            assert np.array_equal(got[key], want[key])
        member, alone = traj.member(r), alone.member(0)
        assert np.array_equal(member.times, alone.times)
        assert np.array_equal(member.states, alone.states)
        assert member.diagnostics == alone.diagnostics


# (9, 3) node-by-member grid of s; every member's column holds s = 0 and s = 1
SWEEP_GRID = np.stack([np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9) ** 2, np.linspace(1.0, 0.0, 9)], axis=1)


@pytest.mark.parametrize("pair", [(0, 1), (1, 1)], ids=["balanced-float", "constant-float"])
def test_deutsch_sweep_sampler_matches_per_node_closure(monkeypatch, pair):
    """The sweep sampler takes an (m, R) node-by-member array of s; node k
    of its generator, and the sample ``Schedule.at`` takes from a (1, R)
    call, equal the generator that the per-node closure built from the (R,)
    member times of node k: Hamiltonian, rates and jump bit for bit, and
    its action on a stack of member states.  The sampler's rate is the one
    float, where the closure's is one equal float per member."""
    omega, gamma = 2 * np.pi * 1e4, 3.0e3
    seen = []
    monkeypatch.setattr(openad, "evolve_lindblad", lambda l, *args: seen.append(l) or evolve_lindblad(l, *args))
    deutsch_scenario(pair, omega, gamma, [20.0 / omega, 35.0 / omega, 80.0 / omega], n_steps=40)
    (sweep,) = seen
    assert sweep.vectorized
    f_param = 1 - (-1) ** sum(pair)

    def closure(s):
        p = (0.5 * np.pi * f_param * s)[:, None, None]
        ham = -0.5 * omega * (np.cos(p) * SIGMA_X - np.sin(p) * SIGMA_Y)
        return LindbladGenerator(ham, ((np.full(s.shape, gamma), SIGMA_Z),))

    gen = sweep.sampler(SWEEP_GRID)
    rho = np.array([0.5 * (np.eye(2) + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)
                    for v in RNG.uniform(-0.5, 0.5, (3, 3))])
    for k, s in enumerate(SWEEP_GRID):
        want = closure(s)
        for got in (gen[k], sweep.at(s)):
            assert np.array_equal(got.hamiltonian, want.hamiltonian)
            assert np.all(got.jumps[0][0] == want.jumps[0][0]) and len(got.jumps) == 1
            assert np.array_equal(got.jumps[0][1], SIGMA_Z)
            assert np.array_equal(lindblad_action(got, rho), lindblad_action(want, rho))


# ---------------------------------------------------------------------------
# structural certificate


def test_certificate_positive_for_dephasing_scenario():
    omega = 2 * np.pi * 1e3
    sched = dephasing_schedule(omega, 0.1 * omega, 1e-3)
    rho0 = 0.5 * (np.eye(2, dtype=complex) + SIGMA_X)
    out = asymptotic_adiabaticity_certificate(sched, rho0, BASIS, n_points=41)
    assert out["certified"], out["reasons"]
    assert all(out["checks"].values())


def test_certificate_rejects_closed_dynamics():
    # purely Hamiltonian flow has a degenerate zero block, no unique decay
    omega = 2 * np.pi * 1e3
    sched = Schedule(1e-3, lambda s: LindbladGenerator(0.5 * omega * SIGMA_Z, ()))
    rho0 = 0.5 * (np.eye(2, dtype=complex) + SIGMA_X)
    out = asymptotic_adiabaticity_certificate(sched, rho0, BASIS, n_points=21)
    assert not out["certified"]
    assert out["reasons"]
