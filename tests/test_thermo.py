import numpy as np
import pytest
import scipy.linalg

from adiabatic_lab import thermo
from adiabatic_lab.dynamics import LindbladGenerator, Schedule, evolve_lindblad, lindblad_action
from adiabatic_lab.opalg import SIGMA_X, SIGMA_Y, SIGMA_Z, OperatorBasis, Superoperator, dagger, pauli_basis
from adiabatic_lab.spectral import cumtrapz, fourth_order_derivative
from adiabatic_lab.thermo import (
    HBAR_EVS,
    build_ledger,
    dephasing_heat_scenario,
    entropy_rate,
    ev_to_rads,
    heat_rate,
    rads_to_ev,
    unitary_conjugate_channel,
    von_neumann_entropy,
    work_rate,
)

BASIS = pauli_basis(1)
RNG = np.random.default_rng(31)

OMEGA = ev_to_rads(82.662e-12)
BETA = 1.0 / ev_to_rads(17.238e-12)
TAU_DEC = 1.0e-3


def random_unitary(rng=RNG):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(a)
    return q


# ---------------------------------------------------------------------------
# rates


def test_heat_and_work_rate_dual_routes():
    gen = LindbladGenerator(0.7 * SIGMA_X + 0.2 * SIGMA_Z, ((0.4, SIGMA_Z),))
    rho = 0.5 * (np.eye(2, dtype=complex) + 0.3 * SIGMA_X - 0.5 * SIGMA_Z)
    h = 1.3 * SIGMA_X
    # passing the basis activates the paired evaluation; disagreement raises
    q = heat_rate(gen, rho, h, BASIS)
    assert q == pytest.approx(heat_rate(gen, rho, h), rel=1e-12)
    w = work_rate(0.9 * SIGMA_Y, rho, BASIS)
    assert w == pytest.approx(work_rate(0.9 * SIGMA_Y, rho), rel=1e-12)


# Element 0 the identity, traceless, Tr(a b^dag) = 2 delta, but not
# Hermitian: the bilinear pairing of its components is not Tr(a b), so the
# two routes disagree wherever an operator has an imaginary off-diagonal
# part, as they would after a convention drift.
_RAISE = np.sqrt(2.0) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
LADDER = OperatorBasis(2, (np.eye(2, dtype=complex), SIGMA_Z, _RAISE, dagger(_RAISE)), ("I", "Z", "S+", "S-"))


def _stack(m):
    grid = np.linspace(0.0, 1.0, m)
    gen = Schedule(1.0, lambda s: LindbladGenerator(0.7 * SIGMA_Z + s * SIGMA_X, ((1.0 + s, SIGMA_Z),))).sample(grid)
    rho = 0.5 * (np.eye(2, dtype=complex) + 0.3 * SIGMA_Y + 0.2 * SIGMA_Z)
    return gen, np.array([rho] * m), np.array([SIGMA_Z] * m)


@pytest.mark.parametrize("m", [3, 5, 7])  # 5 = D^2 + 1, the superoperator probe's stack size
def test_stacked_dual_route_agrees_with_the_per_node_route(m):
    gen, rhos, hams = _stack(m)
    hams[1] = SIGMA_Y
    h_dots = np.array([(0.1 * k) * SIGMA_X + SIGMA_Y for k in range(m)])
    q, w = heat_rate(gen, rhos, hams, BASIS), work_rate(h_dots, rhos, BASIS)
    assert np.array_equal(q, heat_rate(gen, rhos, hams))
    assert np.array_equal(w, work_rate(h_dots, rhos))
    for k in range(m):
        assert heat_rate(gen[k], rhos[k], hams[k], BASIS) == q[k]
        assert work_rate(h_dots[k], rhos[k], BASIS) == w[k]
    # one node of the generator against a stack of states and operators
    assert np.array_equal(heat_rate(gen[0], rhos, SIGMA_X, BASIS), heat_rate(gen[0], rhos, SIGMA_X))
    # the ladder basis passes the per-node route exactly where it passes the
    # stacked one: on nodes whose operators are real
    for k in range(m):
        if k == 1:
            with pytest.raises(AssertionError, match=r"^heat rate: operator-trace route .* 1e-10$"):
                heat_rate(gen[k], rhos[k], hams[k], LADDER)
        else:
            heat_rate(gen[k], rhos[k], hams[k], LADDER)
    with pytest.raises(AssertionError, match=r"^heat rate: operator-trace route .* at node 1$"):
        heat_rate(gen, rhos, hams, LADDER)


@pytest.mark.parametrize("k", [0, 2, 6])
def test_stacked_dual_route_names_the_first_failing_node(k):
    gen, rhos, hams = _stack(7)
    hams[k:] = SIGMA_Y
    with pytest.raises(AssertionError, match=rf"^heat rate: operator-trace route .* at node {k}$"):
        heat_rate(gen, rhos, hams, LADDER)
    h_dots = np.zeros((7, 2, 2), dtype=complex)
    h_dots[k:] = 0.9 * SIGMA_Y
    with pytest.raises(AssertionError, match=rf"^work rate: operator-trace route 0.27 and .* at node {k}$"):
        work_rate(h_dots, rhos, LADDER)


def test_constant_hamiltonian_has_zero_work():
    rho = 0.5 * (np.eye(2, dtype=complex) + 0.4 * SIGMA_X)
    assert work_rate(np.zeros((2, 2)), rho) == 0.0


def test_entropy_rate_guards():
    gen = LindbladGenerator(np.zeros((2, 2)), ((1.0, SIGMA_Z),))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        entropy_rate(gen, np.diag([1.2, -0.2]).astype(complex))
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        entropy_rate(gen, np.diag([1.0, 0.0]).astype(complex))


def test_stacked_entropy_rate_names_first_failing_node_and_warns_once():
    gen = LindbladGenerator(np.zeros((2, 2)), ((1.0, SIGMA_Z),))
    good = 0.5 * np.eye(2, dtype=complex)
    stack = np.array([good, np.diag([1.1, -0.1]), np.diag([1.2, -0.2])]).astype(complex)
    with pytest.raises(ValueError, match=r"negative eigenvalue -1\.000e-01$"):
        entropy_rate(gen, stack)
    deficient = np.array([good, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    with pytest.warns(RuntimeWarning, match="rank deficient") as record:
        entropy_rate(gen, deficient)
    assert len(record) == 1


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(0.5 * np.eye(2)) == pytest.approx(np.log(2.0))
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ledger on the misaligned-bath scenario


def test_ledger_first_law_residual_shrinks_with_the_grid():
    coarse = dephasing_heat_scenario(OMEGA, BETA, 628.0, TAU_DEC, n_steps=1000)
    fine = dephasing_heat_scenario(OMEGA, BETA, 628.0, TAU_DEC, n_steps=4000)
    assert fine["ledger"].first_law_residual < 1e-7 * OMEGA
    # the residual is dominated by trapezoid error in the rate integrals
    ratio = coarse["ledger"].first_law_residual / fine["ledger"].first_law_residual
    assert ratio > 8.0


def test_scenario_heat_matches_closed_form_constant_rate():
    gamma0 = 628.0
    res = dephasing_heat_scenario(OMEGA, BETA, gamma0, TAU_DEC, n_steps=2000)
    want = OMEGA * np.tanh(BETA * OMEGA) * (1.0 - np.exp(-2.0 * gamma0 * TAU_DEC))
    assert res["q_total"] == pytest.approx(want, rel=1e-6)
    assert res["q_closed"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("gamma0", [314.0, 628.0, 1257.0])
def test_scenario_heat_matches_closed_form_ramped_rate(gamma0):
    res = dephasing_heat_scenario(
        OMEGA, BETA, lambda s: gamma0 * (1.0 + s), TAU_DEC, n_steps=2000
    )
    want = OMEGA * np.tanh(BETA * OMEGA) * (1.0 - np.exp(-3.0 * gamma0 * TAU_DEC))
    assert res["q_total"] == pytest.approx(want, rel=1e-6)


def test_heat_saturates_at_asymptote():
    res = dephasing_heat_scenario(OMEGA, BETA, 1.0e4, TAU_DEC, n_steps=4000)
    q_max = OMEGA * np.tanh(BETA * OMEGA)
    assert res["q_asymptote"] == pytest.approx(q_max, rel=1e-12)
    assert res["q_total"] == pytest.approx(q_max, rel=1e-3)


def test_entropy_rate_equals_beta_eff_times_heat_rate():
    """Pointwise dS = beta_eff dQ along the x-axis family of states."""
    res = dephasing_heat_scenario(OMEGA, BETA, 628.0, TAU_DEC, n_steps=1000)
    ledger = res["ledger"]
    traj = res["trajectory"]
    g = np.array([-np.real(np.trace(rho @ SIGMA_X)) for rho in traj.states])
    beta_eff = np.arctanh(g) / OMEGA
    want = beta_eff * ledger.heat_rate
    rel = np.abs(ledger.entropy_rate - want) / np.abs(want)
    assert np.max(rel) < 1e-8


def test_beta_eff_series_starts_at_bath_temperature():
    res = dephasing_heat_scenario(OMEGA, BETA, 314.0, TAU_DEC, n_steps=500)
    assert res["beta_eff"][0] == pytest.approx(BETA, rel=1e-12)
    assert np.all(np.diff(res["beta_eff"]) < 0)  # state heats monotonically


def test_rate_sweep_equals_scalar_calls():
    """A sequence of rates, callables and floats, gives one dict per rate,
    equal to the dict of that rate's own call, ledger included."""
    gammas = [lambda s: 314.0 * (1.0 + s), 628.0, 1.0e4]
    sweep = dephasing_heat_scenario(OMEGA, BETA, gammas, TAU_DEC, n_steps=300)
    assert len(sweep) == len(gammas)
    for got, gamma in zip(sweep, gammas):
        want = dephasing_heat_scenario(OMEGA, BETA, gamma, TAU_DEC, n_steps=300)
        for key in ("q_total", "q_closed", "q_asymptote", "beta_eff", "coherence"):
            assert np.array_equal(got[key], want[key])
        for name, val in vars(got["ledger"]).items():
            assert np.array_equal(val, getattr(want["ledger"], name)), name
        assert np.array_equal(got["trajectory"].states, want["trajectory"].states)
        assert got["trajectory"].diagnostics == want["trajectory"].diagnostics


@pytest.mark.parametrize("gamma", [628.0, lambda s: 314.0 * (1.0 + s * s)], ids=["float", "callable"])
def test_scenario_ledger_samples_once_and_matches_the_scalar_schedule(monkeypatch, gamma):
    """The scenario's sweep and ledger schedules are vectorized: the run
    makes the 5 Schedule.at probe calls, one sweep sample per rk4 block of
    32 steps and one ledger sample, and the ledger equals the one from the
    one-s schedule (a stacked sigma_z jump per node) bit for bit."""
    calls, samples = [], []
    real_at, real_sample = Schedule.at, Schedule.sample
    monkeypatch.setattr(Schedule, "at", lambda self, s: calls.append(s) or real_at(self, s))
    monkeypatch.setattr(Schedule, "sample",
                        lambda self, grid: samples.append(self.members) or real_sample(self, grid))
    res = dephasing_heat_scenario(OMEGA, BETA, gamma, TAU_DEC, n_steps=300)
    assert len(calls) == 5
    assert samples == [1] * -(-300 // 32) + [None]
    monkeypatch.undo()
    rate = gamma if callable(gamma) else (lambda s: gamma)
    ham = OMEGA * SIGMA_X
    scalar = Schedule(TAU_DEC, lambda s: LindbladGenerator(ham, ((rate(s), SIGMA_Z.copy()),)))
    want = build_ledger(scalar, res["trajectory"])
    assert scalar.sample(np.linspace(0.0, 1.0, 3)).jumps[0][1].shape == (3, 2, 2)
    for name, val in vars(res["ledger"]).items():
        assert np.array_equal(val, getattr(want, name)), name


def test_rate_sweep_sampler_matches_per_node_closure(monkeypatch):
    """The rate sweep's sampler takes an (m, R) node-by-member array of s;
    node k of its generator, and the sample ``Schedule.at`` takes from a
    (1, R) call, equal the generator that the per-node closure built from
    the (R,) member times of node k (with the one unstacked Hamiltonian it
    shared): Hamiltonian, rates and jump bit for bit, and its action on a
    stack of member states."""
    gammas = [lambda s: 314.0 * (1.0 + s), 628.0, lambda s: 1.0e4 * s * s]
    seen = []
    monkeypatch.setattr(thermo, "evolve_lindblad", lambda l, *args: seen.append(l) or evolve_lindblad(l, *args))
    dephasing_heat_scenario(OMEGA, BETA, gammas, TAU_DEC, n_steps=40)
    (sweep,) = seen
    assert sweep.vectorized
    fns = [g if callable(g) else (lambda s, _g=float(g): _g) for g in gammas]

    def closure(s):
        return LindbladGenerator(OMEGA * SIGMA_X, ((np.array([f(x) for f, x in zip(fns, s.tolist())]), SIGMA_Z),))

    grid = np.stack([np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9) ** 2, np.linspace(1.0, 0.0, 9)], axis=1)
    gen = sweep.sampler(grid)
    rho = np.array([0.5 * (np.eye(2) + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)
                    for v in RNG.uniform(-0.5, 0.5, (3, 3))])
    for k, s in enumerate(grid):
        want = closure(s)
        for got in (gen[k], sweep.at(s)):
            assert np.array_equal(got.hamiltonian, np.broadcast_to(want.hamiltonian, (3, 2, 2)))
            assert np.array_equal(got.jumps[0][0], want.jumps[0][0]) and len(got.jumps) == 1
            assert np.array_equal(got.jumps[0][1], SIGMA_Z)
            assert np.array_equal(lindblad_action(got, rho), lindblad_action(want, rho))


def test_scenario_input_validation():
    with pytest.raises(ValueError, match="positive"):
        dephasing_heat_scenario(-1.0, BETA, 314.0, TAU_DEC, n_steps=200)
    with pytest.raises(ValueError, match="positive"):
        dephasing_heat_scenario(OMEGA, 0.0, 314.0, TAU_DEC, n_steps=200)


def _ledger_per_node(l, traj):
    """build_ledger as a loop over nodes, one generator sample and one call
    of each rate per node; a bare Hamiltonian sample is a generator without
    jumps."""
    times = traj.times
    gens = [g if isinstance(g, LindbladGenerator) else LindbladGenerator(g) for g in (l.at(t / l.tau) for t in times)]
    hams = np.array([g.hamiltonian for g in gens])
    h_dots = fourth_order_derivative(hams, times[1] - times[0])
    cols = np.array([
        (heat_rate(g, rho, ham), work_rate(h_dot, rho), float(np.real(np.trace(rho @ ham))),
         von_neumann_entropy(rho), entropy_rate(g, rho))
        for g, rho, ham, h_dot in zip(gens, traj.states, hams, h_dots)
    ])
    q_rate, w_rate, u, s, s_rate = cols.T
    heat, work = cumtrapz(q_rate, times), cumtrapz(w_rate, times)
    return (times, u, heat, work, q_rate, w_rate, s, s_rate,
            float(np.max(np.abs(u - u[0] - heat - work))))


def _three_level_ham(s):
    h = np.diag([0.0, 1.0 + s, 2.5 - s]).astype(complex)
    h[0, 1] = h[1, 0] = 0.4 * np.cos(2.0 * s)
    h[1, 2] = 0.3j * s
    h[2, 1] = -0.3j * s
    return h


def _lowering(a, b):
    j = np.zeros((3, 3), dtype=complex)
    j[a, b] = 1.0
    return j


@pytest.mark.parametrize("bare", [False, True], ids=["two-channels", "bare-hamiltonian"])
def test_ledger_equals_per_node_loop(bare):
    def sampler(s):
        if bare:
            return _three_level_ham(s)
        return LindbladGenerator(_three_level_ham(s), (
            (0.3 * (1.0 + s), _lowering(0, 1)),
            (0.2 * s * s, np.cos(s) * _lowering(1, 2) + s * _lowering(0, 2)),
        ))

    sched = Schedule(2.0, sampler)
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho0[0, 1] = rho0[1, 0] = 0.1
    traj = evolve_lindblad(sched, rho0, 200)
    led = build_ledger(sched, traj)
    got = (led.times, led.internal_energy, led.heat, led.work, led.heat_rate, led.work_rate,
           led.entropy, led.entropy_rate, led.first_law_residual)
    for a, b in zip(got, _ledger_per_node(sched, traj)):
        assert np.array_equal(a, b)


def test_ledger_with_basis_runs_the_dual_route_check(monkeypatch):
    res = dephasing_heat_scenario(OMEGA, BETA, 628.0, TAU_DEC, n_steps=64, basis=BASIS)
    real = thermo.superoperator_matrix

    def scaled(generator, basis):
        op = real(generator, basis)
        return Superoperator(1.5 * op.matrix, op.basis, op.trace_preserving)

    monkeypatch.setattr(thermo, "superoperator_matrix", scaled)
    with pytest.raises(AssertionError, match="heat rate: operator-trace route"):
        build_ledger(
            Schedule(TAU_DEC, lambda s: LindbladGenerator(OMEGA * SIGMA_X, ((628.0, SIGMA_Z),))),
            res["trajectory"],
            BASIS,
        )


# ---------------------------------------------------------------------------
# invariances and pairings


def test_heat_invariant_under_unitary_conjugation():
    gamma0 = 628.0
    sched = Schedule(
        TAU_DEC,
        lambda s: LindbladGenerator(OMEGA * SIGMA_X, ((gamma0, SIGMA_Z),)),
    )
    g0 = np.tanh(BETA * OMEGA)
    rho0 = 0.5 * (np.eye(2, dtype=complex) - g0 * SIGMA_X)
    base = build_ledger(sched, evolve_lindblad(sched, rho0, 800))
    for _ in range(5):
        u = random_unitary()
        conj = unitary_conjugate_channel(sched, u)
        traj = evolve_lindblad(conj, u @ rho0 @ dagger(u), 800)
        led = build_ledger(conj, traj)
        assert abs(led.heat[-1] - base.heat[-1]) < 1e-9 * OMEGA
        assert abs(led.entropy[-1] - base.entropy[-1]) < 1e-9


def test_conjugated_schedule_equals_per_node_conjugation():
    """The conjugated schedule is vectorized: one call samples the source
    schedule on the whole grid (node by node through its scalar sampler)
    and conjugates the stacks.  Node k, and the sample ``at`` gives at s_k,
    equal the conjugation of the source's own sample at s_k bit for bit,
    and a jump shared by every node stays one shared matrix."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    sched = Schedule(1.0, lambda s: LindbladGenerator(OMEGA * (SIGMA_X + s * SIGMA_Z), (
        (300.0 * (1.0 + s), SIGMA_Z), (50.0, np.cos(s) * lower + s * SIGMA_X))))
    u = random_unitary()
    ud = dagger(u)
    conj = unitary_conjugate_channel(sched, u)
    grid = np.linspace(0.0, 1.0, 7)
    gen = conj.sample(grid)
    assert conj.vectorized and gen.jumps[0][1].shape == (2, 2) and gen.jumps[1][1].shape == (7, 2, 2)
    rho = np.array([0.5 * (np.eye(2) + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)
                    for v in RNG.uniform(-0.5, 0.5, (7, 3))])
    for k, s in enumerate(grid):
        node = sched.at(s)
        want = LindbladGenerator(u @ node.hamiltonian @ ud, tuple((g, u @ j @ ud) for g, j in node.jumps))
        for got in (gen[k], conj.at(s)):
            assert np.array_equal(got.hamiltonian, want.hamiltonian)
            for (g, j), (g_want, j_want) in zip(got.jumps, want.jumps, strict=True):
                assert g == g_want and np.array_equal(j, j_want)
            assert np.array_equal(lindblad_action(got, rho[k]), lindblad_action(want, rho[k]))


def test_conjugation_rejects_nonunitary():
    sched = Schedule(1.0, lambda s: LindbladGenerator(SIGMA_X, ()))
    with pytest.raises(ValueError, match="unitary"):
        unitary_conjugate_channel(sched, 2.0 * np.eye(2))


def test_ev_conversion_roundtrip_and_scale():
    assert rads_to_ev(ev_to_rads(82.662e-12)) == pytest.approx(82.662e-12, rel=1e-15)
    # 1 eV corresponds to about 1.52e15 rad/s
    assert ev_to_rads(1.0) == pytest.approx(1.0 / HBAR_EVS)
