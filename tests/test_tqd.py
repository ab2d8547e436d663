import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from adiabatic_lab.dynamics import Schedule, difference_points, evolve_unitary
from adiabatic_lab.opalg import SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z
from adiabatic_lab.spectral import fourth_order_derivative, frame_from_functions
from adiabatic_lab.tqd import (
    _ancilla_cd,
    _ancilla_ham,
    _projector_pair,
    adiabatic_phases,
    compile_pulse_sequence,
    constant_phases,
    controlled_gate_schedule,
    energy_cost_sigma,
    gate_run,
    gate_target_unitary,
    generalized_tqd,
    lz_intensities,
    lz_frame,
    matrix_series_schedule,
    nmr_field_ratio,
    nmr_tqd_field_norms,
    optimal_phases,
    parse_pulse_sequence,
    phase_gate_schedule,
    pulse_sequence_unitary,
    serialize_pulse_sequence,
    standard_tqd,
    variant_sampler,
)

RNG = np.random.default_rng(77)


def _same_bits(a, b):
    """np.array_equal, and the same bytes: array_equal takes -0.0 for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()

DELTA = 2.0 * math.pi * 2000.0
THETA0 = math.pi / 3.0


def linear_sweep(s):
    return THETA0 * s


def bent_sweep(s):
    return THETA0 * math.sin(0.5 * math.pi * s) ** 2


def linear_lz_frame(tau, n_points=801):
    return lz_frame(DELTA, linear_sweep, tau, n_points)


# ---------------------------------------------------------------------------
# driving schedules


@pytest.mark.parametrize("tau", [1.0e-5, 1.0e-4])
def test_random_phase_driving_preserves_populations(tau):
    frame = linear_lz_frame(tau)
    psi0 = frame.vectors[0][:, 0].copy()
    for _ in range(3):
        phases = constant_phases(frame, RNG.uniform(-3.0e4, 3.0e4, size=2))
        sched = generalized_tqd(frame, phases)
        # step size of two grid intervals keeps RK4 midpoints on the nodes
        psi = evolve_unitary(sched, psi0, (len(frame.grid) - 1) // 2).final
        pops = np.abs(frame.vectors[-1].conj().T @ psi) ** 2
        assert abs(pops[0] - 1.0) < 1e-6
        assert pops[1] < 1e-6


def test_standard_tqd_reproduces_adiabatic_relative_phase():
    tau = 1.0e-4
    frame = linear_lz_frame(tau)
    v0 = frame.vectors[0]
    psi0 = (v0[:, 0] + v0[:, 1]) / math.sqrt(2.0)
    psi = evolve_unitary(standard_tqd(frame), psi0, 400).final
    amps = frame.vectors[-1].conj().T @ psi

    theta = adiabatic_phases(frame)
    expected = tau * np.trapezoid(theta, frame.grid, axis=0)
    measured = np.angle(amps[1]) - np.angle(amps[0])
    mismatch = math.remainder(measured - (expected[1] - expected[0]), 2.0 * math.pi)
    assert abs(mismatch) < 1e-4


def test_optimal_phases_vanish_in_parallel_transport_gauge():
    frame = linear_lz_frame(1.0e-4)
    theta = optimal_phases(frame)
    assert np.max(np.abs(theta)) < 1e-6 * np.max(np.abs(frame.energies))
    adiab = adiabatic_phases(frame)
    assert np.max(np.abs(adiab + frame.energies)) < 1e-6 * np.max(np.abs(frame.energies))


def _closed_form_cd(theta_fn, tau, s):
    """The bare correction (d theta/ds / (2 tau)) sigma_y of the avoided-crossing
    sweep at s, d theta/ds a central difference between difference_points."""
    lo, hi = difference_points(s)
    return ((theta_fn(hi) - theta_fn(lo)) / (hi - lo) / (2.0 * tau)) * SIGMA_Y


def test_counter_diabatic_term_matches_closed_form():
    tau = 1.0e-4
    frame = linear_lz_frame(tau)
    cd = generalized_tqd(frame, optimal_phases(frame))
    for s in (0.0, 0.3, 0.75, 1.0):
        want = _closed_form_cd(linear_sweep, tau, s)
        got = np.asarray(cd.at(s))
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


def test_generalized_tqd_rejects_mismatched_phase_grid():
    frame = linear_lz_frame(1.0e-4, n_points=101)
    with pytest.raises(ValueError, match="does not match the frame grid"):
        generalized_tqd(frame, np.zeros((7, 2)))


def _static_frame(n_points, dvector):
    """Frame with fixed levels -1, 1, basis vectors and the given constant
    eigenvector derivative."""
    return frame_from_functions(1.0, n_points, lambda s: (
        np.broadcast_to([-1.0, 1.0], s.shape + (2,)),
        np.broadcast_to(SIGMA_0, s.shape + (2, 2)),
        np.broadcast_to(dvector, s.shape + (2, 2)),
    ))


def test_generalized_tqd_rejects_noisy_frame_derivatives():
    frame = _static_frame(51, np.array([[0.0, 10.0], [0.0, 0.0]]))
    with pytest.raises(AssertionError, match="asymmetry"):
        generalized_tqd(frame, constant_phases(frame, (0.0, 0.0)))


def test_generalized_tqd_asymmetry_names_node_on_its_own_scale():
    # a 1e-4 asymmetry everywhere; only node 20, where the phase rates
    # vanish, has a scale small enough for it to count
    frame = _static_frame(51, np.array([[0.0, 1e-4], [0.0, 0.0]]))
    theta = np.full((51, 2), 1e9)
    theta[20] = 0.0
    with pytest.raises(AssertionError, match="asymmetry 1.00e-04 at node 20;"):
        generalized_tqd(frame, theta)


def test_time_independence_for_linear_sweep():
    frame = linear_lz_frame(1.0e-4)
    report = tqd_report = None
    from adiabatic_lab.tqd import tqd_time_independence

    report = tqd_time_independence(frame, optimal_phases(frame))
    assert report["connection_drift"] < 1e-8
    assert report["field_drift"] < 1e-8

    bent = lz_frame(DELTA, bent_sweep, 1.0e-4, 801)
    report = tqd_time_independence(bent, optimal_phases(bent))
    assert report["field_drift"] > 0.1


def _reference_lz_frame(delta, theta_fn, tau, n_points):
    """The scalar frame closures that lz_frame replaced, evaluated node
    by node on np.float64 grid points as frame_from_functions took them."""

    def tdot(s):
        lo, hi = difference_points(s)
        return (theta_fn(hi) - theta_fn(lo)) / (hi - lo)

    def energy_fn(s):
        e = abs(delta) / abs(math.cos(theta_fn(s)))
        return np.array([-e, e])

    def vector_fn(s):
        half = 0.5 * theta_fn(s)
        return np.array(
            [[-math.sin(half), math.cos(half)], [math.cos(half), math.sin(half)]], dtype=complex
        )

    def dvector_fn(s):
        half = 0.5 * theta_fn(s)
        rate = 0.5 * tdot(s) / tau
        return rate * np.array(
            [[-math.cos(half), -math.sin(half)], [-math.sin(half), math.cos(half)]], dtype=complex
        )

    def per_node(fn, dtype):
        return lambda s: np.array([np.asarray(fn(x), dtype=dtype) for x in s])

    return frame_from_functions(tau, n_points, lambda s: (
        per_node(energy_fn, float)(s), per_node(vector_fn, complex)(s), per_node(dvector_fn, complex)(s),
    ))


@pytest.mark.parametrize("n_points", [101, 301])
@pytest.mark.parametrize(
    "theta_fn", [linear_sweep, bent_sweep, lambda s: THETA0 * (1.0 - s)], ids=["linear", "bent", "falling"]
)
def test_lz_frame_matches_its_scalar_closures(theta_fn, n_points):
    frame = lz_frame(DELTA, theta_fn, 1.0e-4, n_points)
    want = _reference_lz_frame(DELTA, theta_fn, 1.0e-4, n_points)
    for name in ("energies", "vectors", "dvectors"):
        assert _same_bits(getattr(frame, name), getattr(want, name)), name


def test_lz_frame_calls_theta_once_per_node_and_twice_for_its_derivative():
    calls = []
    lz_frame(DELTA, lambda s: calls.append(s) or linear_sweep(s), 1.0e-4, 801)
    assert len(calls) == 3 * 801
    assert all(type(s) is float for s in calls)


def _oracle_grid(n_nodes):
    """Nodes and midpoints of an n-node grid, off-grid points and both ends."""
    nodes = np.linspace(0.0, 1.0, n_nodes)
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    return np.concatenate([nodes, mids, np.random.default_rng(5).uniform(0.0, 1.0, 50), [0.0, 1.0]])


@pytest.mark.parametrize("variant", ["adiabatic", "standard", "optimal"])
def test_phase_gate_sampler_matches_its_scalar_closure(variant):
    nu, tau = 35.0, 1.0e-2
    w = 2.0 * math.pi * nu
    one_z, zz_x = np.kron(SIGMA_0, SIGMA_Z), np.kron(SIGMA_Z, SIGMA_X)
    correction = (0.5 * math.pi / tau) * np.kron(SIGMA_Z, SIGMA_Y)

    def base(s):
        return -w * (math.cos(math.pi * s) * one_z + math.sin(math.pi * s) * zz_x)

    ref = {"adiabatic": base, "standard": lambda s: base(s) + correction, "optimal": lambda s: correction}[variant]
    sched = phase_gate_schedule(nu, tau, variant)
    assert sched.vectorized
    grid = _oracle_grid(4001)
    assert _same_bits(sched.sample(grid), np.array([ref(s) for s in grid.tolist()]))


def _reference_matrix_series(grid, mats):
    """The scalar matrix-series sampler that the vectorized one replaced."""
    m = len(grid)

    def sampler(s):
        x = s * (m - 1)
        k = int(round(x))
        if abs(x - k) < 1e-6:
            return mats[min(max(k, 0), m - 1)]
        lo = min(max(int(math.floor(x)), 0), m - 2)
        w = x - lo
        return (1.0 - w) * mats[lo] + w * mats[lo + 1]

    return sampler


@pytest.mark.parametrize("m", [5, 8, 101])
def test_matrix_series_schedule_matches_its_scalar_closure(m):
    rng = np.random.default_rng(m)
    grid = np.linspace(0.0, 1.0, m)
    mats = rng.normal(size=(m, 2, 2)) + 1j * rng.normal(size=(m, 2, 2))
    sched = matrix_series_schedule(grid, 1.0, mats)
    ref = _reference_matrix_series(grid, mats)
    # nodes, midpoints, points within 1e-6 of a node index (both sides),
    # off-grid points and the ends
    near = grid[1:-1] + np.array([[-0.4e-6], [0.4e-6]]) / (m - 1)
    points = np.concatenate([_oracle_grid(m), near.ravel()])
    assert sched.vectorized
    assert _same_bits(sched.sample(points), np.array([ref(s) for s in points.tolist()]))


def test_matrix_series_schedule_snaps_to_nodes():
    grid = np.linspace(0.0, 1.0, 5)
    mats = np.array([k * np.eye(2) for k in range(5)], dtype=complex)
    sched = matrix_series_schedule(grid, 1.0, mats)
    assert np.allclose(sched.at(0.25), mats[1])
    assert np.allclose(sched.at(0.3), 0.8 * mats[1] + 0.2 * mats[2])


# ---------------------------------------------------------------------------
# field cost


def test_sigma_is_stationary_at_the_gauge_phases():
    frame = linear_lz_frame(1.0e-4)
    base = optimal_phases(frame)
    sigma0 = energy_cost_sigma(generalized_tqd(frame, base))
    eps = 1e-3 * DELTA
    for level in (0, 1):
        up = base.copy()
        up[:, level] += eps
        down = base.copy()
        down[:, level] -= eps
        s_up = energy_cost_sigma(generalized_tqd(frame, up))
        s_down = energy_cost_sigma(generalized_tqd(frame, down))
        assert s_up > sigma0 and s_down > sigma0
        assert abs(s_up - s_down) < 1e-6 * sigma0


def test_sigma_ranks_the_protocols():
    frame = linear_lz_frame(1.0e-4)
    s_opt = energy_cost_sigma(generalized_tqd(frame, optimal_phases(frame)))
    s_std = energy_cost_sigma(standard_tqd(frame))
    assert 0.0 < s_opt < s_std


def _lz_integrals(theta_fn, n_quad, trapezoid=np.trapezoid):
    """int tan^2 theta ds and int |d theta/ds|^2 ds by the quadrature of
    lz_intensities: the trapezoid rule on n_quad points, with a
    fourth-order d theta/ds."""
    grid = np.linspace(0.0, 1.0, n_quad)
    theta = np.array([theta_fn(s) for s in grid])
    dtheta = fourth_order_derivative(theta, grid[1] - grid[0])
    return float(trapezoid(np.tan(theta) ** 2, grid)), float(trapezoid(dtheta**2, grid))


def test_lz_intensities_match_quadrature_closed_forms():
    res = lz_intensities(linear_sweep, DELTA, 1.0, n_quad=2001)
    quad_tan2, quad_dtheta2 = _lz_integrals(linear_sweep, 2001)
    assert res["i_opt"] == quad_dtheta2 / float(4.0 * 1.0**2 * DELTA**2 * quad_tan2)
    int_tan2 = 3.0 * math.sqrt(3.0) / math.pi - 1.0
    assert quad_tan2 == pytest.approx(int_tan2, rel=1e-6)
    assert quad_dtheta2 == pytest.approx(THETA0**2, rel=1e-6)
    assert res["i_std"] == 1.0 + res["i_opt"]

    tau_b_exact = math.sqrt(THETA0**2 / int_tan2) / (2.0 * DELTA)
    assert res["tau_b"] == pytest.approx(tau_b_exact, rel=1e-5)
    assert res["tau_b"] == pytest.approx(5.152336e-5, rel=1e-6)
    # at the break-even duration the correction costs as much as the sweep
    at_b = lz_intensities(linear_sweep, DELTA, res["tau_b"], n_quad=2001)
    assert at_b["i_opt"] == pytest.approx(1.0, rel=1e-12)


def test_field_integrals_keep_scipys_trapezoid_bits():
    frame = linear_lz_frame(1.0e-4)
    h = generalized_tqd(frame, optimal_phases(frame))
    grid = np.linspace(0.0, 1.0, 801)
    hams = h.sample(grid)
    sizes = np.sqrt(np.maximum(np.real(np.trace(hams @ hams, axis1=1, axis2=2)), 0.0))
    assert energy_cost_sigma(h).hex() == float(scipy.integrate.trapezoid(sizes, grid)).hex()

    res = lz_intensities(linear_sweep, DELTA, 1.0, n_quad=2001)
    int_tan2, int_dtheta2 = _lz_integrals(linear_sweep, 2001, scipy.integrate.trapezoid)
    assert res["i_opt"].hex() == (int_dtheta2 / float(4.0 * 1.0**2 * DELTA**2 * int_tan2)).hex()
    assert res["tau_b"].hex() == (math.sqrt(int_dtheta2 / int_tan2) / (2.0 * abs(DELTA))).hex()


def test_lz_intensity_scaling_and_guards():
    slow = lz_intensities(linear_sweep, DELTA, 2.0e-4)
    fast = lz_intensities(linear_sweep, DELTA, 1.0e-4)
    assert fast["i_opt"] / slow["i_opt"] == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError, match="pi/2"):
        lz_intensities(lambda s: 0.5 * math.pi * s, DELTA, 1.0)
    with pytest.raises(ValueError, match="vanishes"):
        lz_intensities(lambda s: 0.0, DELTA, 1.0)


def test_nmr_field_ratio_balanced_drive_is_two():
    w = 2.0 * math.pi * 1.0e4
    assert nmr_field_ratio(w, w, w) == 2.0
    with pytest.warns(RuntimeWarning, match="diverges"):
        assert nmr_field_ratio(w, 0.0, w) == math.inf


def test_nmr_field_norms_standard_always_costs_most():
    for _ in range(10):
        w0, w1, w = RNG.uniform(1.0e3, 1.0e5, size=3)
        res = nmr_tqd_field_norms(w0, w1, w)
        assert res["b0"] == pytest.approx(math.hypot(w0, w1), rel=1e-12)
        assert res["b_std"] > res["b0"]
        assert res["b_std"] > res["b_opt"]
        assert res["b_std"] == pytest.approx(
            math.hypot(res["b0"], res["b_opt"]), rel=1e-12
        )


# ---------------------------------------------------------------------------
# steered gates


@pytest.mark.parametrize("tau", [1.0e-4, 1.0e-3, 1.0e-2])
def test_optimal_gate_flips_plus_to_minus(tau):
    axis = (0.0, 0.0, 1.0)
    sched = controlled_gate_schedule(axis, math.pi, math.pi, 2.0 * math.pi * 35.0, tau, "optimal")
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    res = gate_run(sched, plus, axis, math.pi, n_steps=2000)
    assert res["fidelity"] > 1.0 - 1e-6
    assert res["success_prob"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("phi0", [math.pi / 3.0, math.pi / 2.0, math.pi])
def test_success_probability_tracks_sweep_angle(phi0):
    axis = (0.0, 0.0, 1.0)
    sched = controlled_gate_schedule(axis, math.pi, phi0, 2.0 * math.pi * 35.0, 1.0e-3, "optimal")
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    res = gate_run(sched, plus, axis, math.pi, n_steps=2000)
    assert res["success_prob"] == pytest.approx(math.sin(0.5 * phi0) ** 2, abs=1e-6)


def test_standard_gate_variant_is_exact_at_speed():
    axis = (1.0, 0.0, 0.0)
    phi = 0.5 * math.pi
    sched = controlled_gate_schedule(axis, phi, math.pi, 2.0 * math.pi * 35.0, 1.0e-4, "standard")
    state = np.array([0.8, 0.6j])
    res = gate_run(sched, state, axis, phi, n_steps=3000)
    assert res["fidelity"] > 1.0 - 1e-6


def test_controlled_gate_acts_only_on_the_marked_branch():
    axis = (0.0, 0.0, 1.0)
    sched = controlled_gate_schedule(
        axis, math.pi, math.pi, 2.0 * math.pi * 35.0, 1.0e-3, "optimal", controlled=True
    )
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    register = np.kron(plus, plus)
    res = gate_run(sched, register, axis, math.pi, n_steps=3000, controlled=True)
    assert res["fidelity"] > 1.0 - 1e-6


@pytest.mark.parametrize("controlled", [False, True])
@pytest.mark.parametrize("variant", ["adiabatic", "standard", "optimal"])
def test_controlled_gate_samples_match_np_kron_bit_for_bit(variant, controlled):
    """The sampler's broadcast Kronecker products are np.kron's, signed zeros included."""
    axis, phi, phi0, omega, tau = (0.3, -0.5, 0.8), 0.7, math.pi, 2.0 * math.pi * 35.0, 1.0e-3
    sched = controlled_gate_schedule(axis, phi, phi0, omega, tau, variant, controlled)
    plus = variant_sampler(variant, _ancilla_ham(0.0, omega, phi0), _ancilla_cd(0.0, phi0, tau))
    minus = variant_sampler(variant, _ancilla_ham(phi, omega, phi0), _ancilla_cd(phi, phi0, tau))
    _, _, p_plus, p_minus = _projector_pair(axis)
    for s in (0.0, 0.25, 0.5, 1.0):
        want = np.kron(p_plus, plus(s)) + np.kron(p_minus, minus(s))
        if controlled:
            want = np.kron(np.diag([1.0, 0.0]), np.kron(SIGMA_0, plus(s))) + np.kron(
                np.diag([0.0, 1.0]), want
            )
        got = sched.at(s)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _gate_scalar_sampler(axis, phi, phi0, omega, tau, variant, controlled):
    """The steered-gate sampler as a one-s closure of math-module sweeps and
    np.kron, the form it had before it took arrays of s."""
    def ancilla(xi):
        def ham(s):
            sweep = phi0 * s
            return -omega * (math.cos(sweep) * SIGMA_Z
                             + math.sin(sweep) * (math.cos(xi) * SIGMA_X + math.sin(xi) * SIGMA_Y))
        correction = _ancilla_cd(xi, phi0, tau)
        if variant == "adiabatic":
            return ham
        if variant == "standard":
            return lambda s: ham(s) + correction
        return lambda s: correction

    plus, minus = ancilla(0.0), ancilla(phi)
    _, _, p_plus, p_minus = _projector_pair(axis)

    def sampler(s):
        h = np.kron(p_plus, plus(s)) + np.kron(p_minus, minus(s))
        if controlled:
            return np.kron(np.diag([1.0, 0.0]), np.kron(SIGMA_0, plus(s))) + np.kron(np.diag([0.0, 1.0]), h)
        return h

    return sampler


@pytest.mark.parametrize("controlled", [False, True])
@pytest.mark.parametrize("variant", ["adiabatic", "standard", "optimal"])
def test_gate_array_sampler_matches_scalar_closure(variant, controlled):
    """One array call over s in [0, 1] gives the stack of the one-s
    closure's samples, and a one-node call its sample."""
    args = ((0.3, -0.5, 0.8), 0.7, 2.7, 2.0 * math.pi * 35.0, 1.0e-3)
    sched = controlled_gate_schedule(*args, variant, controlled)
    scalar = _gate_scalar_sampler(*args, variant, controlled)
    grid = np.concatenate([np.linspace(0.0, 1.0, 4001), [1.0 / 3.0, 0.999999]])
    want = np.array([scalar(s) for s in grid.tolist()])
    assert sched.vectorized
    assert np.array_equal(sched.sample(grid), want)
    assert np.array_equal(sched.at(grid[-1]), want[-1])


@pytest.mark.parametrize("controlled", [False, True])
def test_gate_run_on_a_sweep_equals_one_run_per_duration(controlled):
    """A sequence of durations gives one sweep schedule; gate_run runs it in
    one lock-step integration and returns each member's own dict."""
    axis, taus = (0.0, 0.0, 1.0), (1.0e-4, 1.0e-3, 1.0e-2)
    args = (axis, math.pi, math.pi, 2.0 * math.pi * 35.0)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    register = np.kron(plus, plus) if controlled else plus
    sweep = controlled_gate_schedule(*args, taus, "standard", controlled)
    assert sweep.members == 3
    got = gate_run(sweep, register, axis, math.pi, n_steps=300, controlled=controlled)
    assert len(got) == 3
    # the integration gate_run post-selects from: register times ancilla |0>
    psi0 = np.kron(register / np.linalg.norm(register), np.array([1.0, 0.0], dtype=complex))
    members = evolve_unitary(sweep, psi0, 300)
    for r, (res, tau) in enumerate(zip(got, taus)):
        one = controlled_gate_schedule(*args, tau, "standard", controlled)
        want = gate_run(one, register, axis, math.pi, n_steps=300, controlled=controlled)
        assert res["success_prob"] == want["success_prob"] and res["fidelity"] == want["fidelity"]
        assert res["output"].tobytes() == want["output"].tobytes()
        assert members.member(r).states.tobytes() == evolve_unitary(one, psi0, 300).states.tobytes()


def test_gate_run_refuses_empty_branch():
    axis = (0.0, 0.0, 1.0)
    sched = controlled_gate_schedule(axis, math.pi, 0.0, 2.0 * math.pi * 35.0, 1.0e-3, "optimal")
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match="no weight"):
        gate_run(sched, plus, axis, math.pi, n_steps=200)


def test_gate_axis_validation():
    with pytest.raises(ValueError, match="3-vector"):
        gate_target_unitary((1.0, 2.0), math.pi)
    with pytest.raises(ValueError, match="nonzero"):
        gate_target_unitary((0.0, 0.0, 0.0), math.pi)
    u = gate_target_unitary((0.0, 0.0, 1.0), math.pi)
    assert np.allclose(u, np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# pulse compiler


def test_optimal_program_shape_and_unitary():
    seq = compile_pulse_sequence("optimal", 0, 1.0e-2, 35.0, 215.0)
    kinds = [it[0] for it in seq.items]
    assert kinds == ["ROT", "FREE", "ROT", "FREE", "ROT"]
    assert seq.energy_units == 3
    assert sum(it[1] for it in seq.items if it[0] == "FREE") == pytest.approx(1.0e-2, rel=1e-12)

    h_opt = np.asarray(phase_gate_schedule(35.0, 1.0e-2, "optimal").at(0.0))
    want = scipy.linalg.expm(-1j * h_opt * 1.0e-2)
    got = pulse_sequence_unitary(seq)
    overlap = abs(np.trace(want.conj().T @ got)) / 4.0
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_pulse_counts_follow_the_energy_ledger():
    for n in (1, 8, 16):
        adiab = compile_pulse_sequence("adiabatic", n, 1.0e-2, 35.0, 215.0)
        std = compile_pulse_sequence("standard", n, 1.0e-2, 35.0, 215.0)
        assert adiab.energy_units == 2 * (n + 1)
        assert std.energy_units == 5 * n
        assert adiab.n_free == n
        assert std.n_free == n


def test_pulse_unitaries_stay_unitary():
    for variant, n in (("adiabatic", 8), ("standard", 8), ("optimal", 0)):
        seq = compile_pulse_sequence(variant, n, 1.0e-2, 35.0, 215.0)
        u = pulse_sequence_unitary(seq)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_compiled_fidelity_converges_with_block_count():
    nu, j, tau = 35.0, 215.0, 1.0e-2
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    psi0 = np.kron(plus, np.array([1.0, 0.0])).astype(complex)
    frozen = {
        "adiabatic": [0.99993393, 0.99999598, 0.99999975, 0.99999998],
        "standard": [0.97494684, 0.99388727, 0.99848108, 0.99962085],
    }
    for variant, want in frozen.items():
        ref = evolve_unitary(phase_gate_schedule(nu, tau, variant), psi0, 4000).final
        fids = []
        for n in (8, 16, 32, 64):
            seq = compile_pulse_sequence(variant, n, tau, nu, j)
            fids.append(abs(np.vdot(ref, pulse_sequence_unitary(seq) @ psi0)) ** 2)
        assert fids == pytest.approx(want, abs=1e-6)
        assert all(b > a for a, b in zip(fids, fids[1:]))


def test_pulse_program_roundtrip_is_exact():
    seq = compile_pulse_sequence("standard", 5, 3.7e-3, 35.0, 215.0)
    text = serialize_pulse_sequence(seq)
    back = parse_pulse_sequence(text)
    assert back.items == seq.items
    assert (back.variant, back.n_blocks, back.tau) == (seq.variant, seq.n_blocks, seq.tau)
    assert text.splitlines()[0] == "# pulse-program v1"
    with pytest.raises(ValueError, match="unknown program line"):
        parse_pulse_sequence("# pulse-program v1\nWAIT 1.0\n")


def test_compiler_guards():
    with pytest.raises(ValueError, match="at least 1/J"):
        compile_pulse_sequence("optimal", 0, 1.0e-3, 35.0, 215.0)
    with pytest.raises(ValueError, match="positive"):
        compile_pulse_sequence("adiabatic", 4, -1.0, 35.0, 215.0)
    with pytest.raises(ValueError, match="at least 1"):
        compile_pulse_sequence("standard", 0, 1.0e-2, 35.0, 215.0)
    with pytest.raises(ValueError, match="unknown variant"):
        compile_pulse_sequence("hybrid", 4, 1.0e-2, 35.0, 215.0)
    with pytest.raises(ValueError, match="unknown variant"):
        phase_gate_schedule(35.0, 1.0e-2, "hybrid")
