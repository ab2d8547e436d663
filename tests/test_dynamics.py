import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatic_lab.dynamics import (
    IntegrationError,
    LindbladGenerator,
    Schedule,
    evolve_lindblad,
    evolve_unitary,
    fidelity,
    frame_transform,
    lindblad_action,
    nmr_closed_form_p0,
    nmr_extremal_times,
    pure_state_density,
    recommended_steps,
    relative_purity,
    rk4,
)
from adiabatic_lab.battery import ergotropy
from adiabatic_lab.opalg import SIGMA_X, SIGMA_Y, SIGMA_Z, dagger

RNG = np.random.default_rng(7)


def test_rk4_against_matrix_exponential():
    """Constant-generator flow has the exact solution expm(A t) y0."""
    a = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    a = a / np.linalg.norm(a)
    y0 = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    times = np.linspace(0.0, 2.0, 401)
    got = rk4(lambda t, y: a @ y, y0, times)[-1]
    want = scipy.linalg.expm(2.0 * a) @ y0
    assert np.max(np.abs(got - want)) < 1e-9


def test_rk4_raises_on_blowup():
    times = np.linspace(0.0, 10.0, 11)
    with np.errstate(over="ignore"), pytest.raises(IntegrationError):
        rk4(lambda t, y: np.array([np.exp(y[0].real) ** 2 + 1e300]), np.array([1e300]), times)


def test_evolve_unitary_norm_and_oracle():
    omega = 2 * np.pi * 1.0e3
    tau = 1.0e-3
    sched = Schedule(tau, lambda s: 0.5 * omega * SIGMA_Z)
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
    traj = evolve_unitary(sched, psi0, recommended_steps(omega, tau))
    want = scipy.linalg.expm(-0.5j * omega * tau * SIGMA_Z) @ psi0
    phase = np.vdot(want, traj.final)
    assert abs(abs(phase) - 1.0) < 1e-8
    assert traj.diagnostics["final_norm_deviation"] < 1e-8


def test_evolve_unitary_rejects_unnormalized():
    sched = Schedule(1.0, lambda s: SIGMA_Z)
    with pytest.raises(ValueError, match="normalized"):
        evolve_unitary(sched, np.array([1.0, 1.0]), 16)


def test_schedule_probe_rejects_non_hermitian():
    sched = Schedule(1.0, lambda s: SIGMA_X + 1j * np.eye(2))
    with pytest.raises(ValueError, match="non-Hermitian"):
        evolve_unitary(sched, np.array([1.0, 0.0]), 16)


def test_schedule_probe_rejects_negative_rate():
    sched = Schedule(1.0, lambda s: LindbladGenerator(SIGMA_Z, ((-0.1, SIGMA_Z),)))
    rho0 = 0.5 * np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="negative rate"):
        evolve_lindblad(sched, rho0, 16)


def test_lindblad_dephasing_closed_form():
    """sigma_z dephasing at rate g decays x coherence as exp(-2 g t)."""
    g, tau = 200.0, 1.0e-2
    sched = Schedule(tau, lambda s: LindbladGenerator(np.zeros((2, 2)), ((g, SIGMA_Z),)))
    rho0 = 0.5 * (np.eye(2, dtype=complex) + SIGMA_X)
    traj = evolve_lindblad(sched, rho0, 400)
    coh = np.real(traj.states[:, 0, 1])
    want = 0.5 * np.exp(-2.0 * g * traj.times)
    assert np.max(np.abs(coh - want)) < 1e-10
    assert traj.diagnostics["trace_drift"] < 1e-12


def test_lindblad_trace_drift_error_on_coarse_grid():
    g, tau = 5.0e4, 1.0e-2
    sched = Schedule(tau, lambda s: LindbladGenerator(np.zeros((2, 2)), ((g, np.array([[0, 1], [0, 0]], dtype=complex)),)))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(IntegrationError, match="trace drift"):
        evolve_lindblad(sched, rho0, 10)


def test_lindblad_action_matches_brute_force():
    h = RNG.normal(size=(2, 2))
    h = h + h.T
    j = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    rho = 0.5 * np.eye(2, dtype=complex)
    gen = LindbladGenerator(h, ((0.7, j),))
    jd = dagger(j)
    want = -1j * (h @ rho - rho @ h) + 0.7 * (j @ rho @ jd - 0.5 * (jd @ j @ rho + rho @ jd @ j))
    assert np.max(np.abs(lindblad_action(gen, rho) - want)) < 1e-14


def test_frame_transform_rotating_drive_becomes_static():
    """The z-rotating transverse drive is static in the co-rotating frame."""
    w0, w1, w = 2 * np.pi * 1e4, 2 * np.pi * 4e3, 2 * np.pi * 7e3
    tau = 1e-3

    def sampler(s):
        t = s * tau
        return 0.5 * w0 * SIGMA_Z + 0.5 * w1 * (
            np.cos(w * t) * SIGMA_X + np.sin(w * t) * SIGMA_Y
        )

    def o(s):
        return scipy.linalg.expm(0.5j * w * s * tau * SIGMA_Z)

    def o_dot(s):
        return (0.5j * w * SIGMA_Z) @ o(s)

    transformed = frame_transform(Schedule(tau, sampler), o, o_dot)
    want = 0.5 * (w0 - w) * SIGMA_Z + 0.5 * w1 * SIGMA_X
    for s in (0.0, 0.31, 0.77, 1.0):
        assert np.max(np.abs(np.asarray(transformed.at(s)) - want)) < 1e-6 * w0


def test_frame_transform_finite_difference_fallback():
    w = 2 * np.pi * 3e3
    tau = 1e-3
    sched = Schedule(tau, lambda s: 0.5 * w * SIGMA_Z)

    def o(s):
        return scipy.linalg.expm(0.5j * w * s * tau * SIGMA_Z)

    transformed = frame_transform(sched, o)
    # i O' O^dag = -0.5 w sigma_z, cancelling half the bare splitting... the
    # result must at least be Hermitian and equal the analytic value inside
    # the grid to finite-difference accuracy
    got = np.asarray(transformed.at(0.5))
    assert np.max(np.abs(got - dagger(got))) < 1e-8 * w
    assert np.max(np.abs(got)) < 1e-4 * w


def test_frame_transform_rejects_nonunitary_map():
    sched = Schedule(1.0, lambda s: SIGMA_Z)
    bad = frame_transform(sched, lambda s: (1.0 + s) * np.eye(2))
    with pytest.raises(ValueError, match="unitary"):
        bad.at(0.5)


def test_nmr_closed_form_limits():
    w0, w1 = 2 * np.pi * 1e4, 2 * np.pi * 5e3
    # at t = 0 survival is 1
    assert nmr_closed_form_p0(w0, w1, 0.3 * w0, 0.0) == pytest.approx(1.0)
    # on resonance the dip reaches 1 - 1 = 0 at the rabi half period
    t_max, t_min = nmr_extremal_times(w0, w1, w0)
    assert nmr_closed_form_p0(w0, w1, w0, t_min) == pytest.approx(0.0, abs=1e-12)
    assert nmr_closed_form_p0(w0, w1, w0, t_max) == pytest.approx(1.0, abs=1e-12)


def test_nmr_closed_form_against_integration():
    """Survival of the bare spin-up start under the rotating drive."""
    w0, w1, w = 2 * np.pi * 1e4, 2 * np.pi * 5e3, 2 * np.pi * 8e3
    tau = 4.0e-4

    def sampler(s):
        t = s * tau
        return 0.5 * w0 * SIGMA_Z + 0.5 * w1 * (
            np.cos(w * t) * SIGMA_X + np.sin(w * t) * SIGMA_Y
        )

    traj = evolve_unitary(Schedule(tau, sampler), np.array([1.0, 0.0]), 4000)
    p0 = np.abs(traj.states[:, 0]) ** 2
    want = nmr_closed_form_p0(w0, w1, w, traj.times)
    assert np.max(np.abs(p0 - want)) < 1e-7


def test_fidelity_known_values():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    up = np.array([1.0, 0.0])
    assert fidelity(up, up) == pytest.approx(1.0)
    assert fidelity(up, plus) == pytest.approx(1.0 / np.sqrt(2))
    mixed = 0.5 * np.eye(2)
    # F(rho, 1/2) = sum sqrt(p_i / 2); for pure rho that is 1/sqrt(2)
    assert fidelity(up, mixed) == pytest.approx(1.0 / np.sqrt(2))


def test_fidelity_rejects_indefinite_input():
    with pytest.raises(ValueError):
        fidelity(np.diag([1.5, -0.5]), 0.5 * np.eye(2))


def test_relative_purity_normalization():
    up = pure_state_density(np.array([1.0, 0.0]))
    down = pure_state_density(np.array([0.0, 1.0]))
    assert relative_purity(up, up) == pytest.approx(1.0)
    assert relative_purity(up, down) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fidelity_bounds_and_symmetry(seed):
    rng = np.random.default_rng(seed)

    def rnd_rho():
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ dagger(a)
        return rho / np.trace(rho)

    r1, r2 = rnd_rho(), rnd_rho()
    f12, f21 = fidelity(r1, r2), fidelity(r2, r1)
    assert -1e-10 <= f12 <= 1.0 + 1e-10
    assert abs(f12 - f21) < 1e-9
    assert fidelity(r1, r1) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_unitary_evolution_preserves_overlaps(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = a + dagger(a)
    sched = Schedule(1.0e-2, lambda s: h)
    v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
    t1 = evolve_unitary(sched, v1, 600)
    t2 = evolve_unitary(sched, v2, 600)
    before = np.vdot(v1, v2)
    after = np.vdot(t1.final, t2.final)
    assert abs(before - after) < 1e-7


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2),
)
def test_stacked_inputs_match_per_element_loop(seed, dim, lead):
    """Stacks (..., D, D) give exactly the per-element results, and a
    single pair of matrices still gives a Python float."""
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (dim, dim)

    def rnd():
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def rnd_rho():
        a = rnd()
        rho = a @ dagger(a)
        return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]

    r1, r2, h = rnd_rho(), rnd_rho(), rnd()
    h = h + dagger(h)
    rows = list(zip(*(x.reshape(-1, dim, dim) for x in (r1, r2, h))))
    fids = [fidelity(a, b) for a, b, _ in rows]
    ergs = [ergotropy(a, g) for a, _, g in rows]
    assert all(type(v) is float for v in fids + ergs)
    assert np.array_equal(fidelity(r1, r2), np.reshape(fids, lead))
    assert np.array_equal(ergotropy(r1, h), np.reshape(ergs, lead))
    assert np.array_equal(dagger(h), np.reshape([dagger(g) for _, _, g in rows], shape))

    table = h.reshape(-1, dim, dim)
    sched = Schedule(1.0, lambda s: np.cos(3.0 * s) * table[0] + s * table[-1])
    grid = np.sort(rng.uniform(0.0, 1.0, 7))
    assert np.array_equal(sched.sample(grid), np.array([sched.at(s) for s in grid]))
