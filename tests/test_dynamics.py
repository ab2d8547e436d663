import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatic_lab.dynamics import (
    BLOCK,
    IntegrationError,
    LindbladGenerator,
    Schedule,
    difference_points,
    evolve_lindblad,
    evolve_unitary,
    fidelity,
    frame_transform,
    lindblad_action,
    nmr_closed_form_p0,
    pure_state_density,
    rk4,
)
from adiabatic_lab import dynamics
from adiabatic_lab.battery import ergotropy, stable_protocol, stirap_schedule, two_cell_schedule, unstable_protocol
from adiabatic_lab.cli import RAMPS
from adiabatic_lab.opalg import (
    SIGMA_X,
    SIGMA_Z,
    Superoperator,
    dagger,
    pauli_basis,
    stack_2x2,
    superoperator_matrix,
)
from adiabatic_lab.openad import superoperator_at
from adiabatic_lab.thermo import entropy_rate, heat_rate, work_rate
from adiabatic_lab.tqd import controlled_gate_schedule
from oracles import lindblad_action_per_call, nmr_lab_schedule, per_node, rk4_reference, same_bits

RNG = np.random.default_rng(7)


def test_rk4_against_matrix_exponential():
    """Constant-generator flow has the exact solution expm(A t) y0."""
    a = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    a = a / np.linalg.norm(a)
    y0 = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    times = np.linspace(0.0, 2.0, 401)
    got = rk4(lambda ts: np.broadcast_to(a, ts.shape + a.shape), y0, times, np.matmul)[-1]
    want = scipy.linalg.expm(2.0 * a) @ y0
    assert np.max(np.abs(got - want)) < 1e-9


def _switch(onset):
    return per_node(lambda t: np.array([[0.0 if t < onset else 1e200]]))


def test_rk4_raises_on_blowup():
    """A linear generator that switches on at t = 5 overflows on the step
    leaving node 5, so the error names node 6."""
    times = np.linspace(0.0, 10.0, 11)
    with pytest.raises(IntegrationError) as err:
        rk4(_switch(5.0), np.array([1.0]), times, np.matmul)
    assert err.value.step == 6


def test_member_axis_rk4_names_the_node_of_the_member_that_fails_first():
    """Member 1 switches on at t = 3 and overflows on the step leaving node 3;
    member 0 fails at node 8 on its own.  The lock-step run names node 4."""
    times = np.linspace(0.0, 10.0, 11)
    onsets = np.array([7.0, 3.0])

    def sample(ts):
        return np.where(ts < onsets, 0.0, 1e200)[..., None, None]

    for onset, step in zip(onsets, (8, 4)):
        with pytest.raises(IntegrationError) as err:
            rk4(_switch(onset), np.array([1.0]), times, np.matmul)
        assert err.value.step == step
    with pytest.raises(IntegrationError) as err:
        rk4(sample, np.ones((2, 1, 1)), np.stack([times, times], axis=1), np.matmul)
    assert err.value.step == 4


def test_rk4_sampler_error_at_a_later_node_wins_over_an_earlier_blowup():
    """The finiteness check runs once, after the loop, so a sampler that
    raises further along the grid is what the caller sees: in the block of
    the blow-up, or two blocks after it."""
    for n_steps in (10, 2 * BLOCK + 1):
        times = np.linspace(0.0, 10.0, n_steps + 1)
        last = times[n_steps - 1]
        bad = float(last + 0.5 * (times[n_steps] - last))

        def sample(t):
            if t > last:
                raise ValueError(f"no sample at t={float(t)!r}")
            return np.array([[0.0 if t < 2.0 else 1e200]])

        with pytest.raises(ValueError, match=re.escape(f"no sample at t={bad!r}") + "$"):
            rk4(per_node(sample), np.array([1.0]), times, np.matmul)


def _recording(f, blocks):
    """Block sampler that records each call's times and samples f node by node."""
    def sample(ts):
        blocks.append(ts.copy())
        return [f(t) for t in ts]

    return sample


def _assert_blocks(blocks, times, n_steps):
    """One sampler call per block of BLOCK steps, sampling the textbook's
    times in step order: node 0 in the first block, then each step's
    midpoint and end node, 2n + 1 samples on any grid."""
    per_step = []
    for k in range(n_steps):
        t = times[k]
        per_step.append(([t] if k == 0 else []) + [t + 0.5 * (times[k + 1] - t), times[k + 1]])
    assert len(blocks) == -(-n_steps // BLOCK)
    for b, ts in enumerate(blocks):
        assert np.array_equal(ts, np.array(sum(per_step[b * BLOCK:(b + 1) * BLOCK], [])))
    assert sum(map(len, blocks)) == 2 * n_steps + 1


def _drive(rng, dim, t_end, rate):
    a0, a1, a2 = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(3))
    freq = rng.uniform(0.1, 10.0) / t_end
    return lambda t: (rate / dim) * (a0 + np.cos(freq * t) * a1 + (t / t_end) * a2)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    t_end=st.floats(1e-6, 50.0),
    n_steps=st.integers(1, 60),
    uniform=st.booleans(),
)
def test_rk4_matches_four_sample_rk4_bit_for_bit(dim, seed, t_end, n_steps, uniform):
    """Same states as the textbook loop, from 2n + 1 samples, on a linspace
    grid and on a non-uniform one.  On a linspace grid every t + dt is the
    next node's float, so the loop that samples t + dt for k4 agrees too."""
    rng = np.random.default_rng(seed)
    f = _drive(rng, dim, t_end, 3.0 * n_steps / t_end)  # dt * ||A|| stays moderate, so states stay finite
    y0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if uniform:
        times = np.linspace(0.0, t_end, n_steps + 1)
    else:
        times = np.sort(rng.uniform(-t_end, t_end, n_steps + 1) * 10.0 ** rng.uniform(-4, 0, n_steps + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        want = rk4_reference(per_node(f), y0, times, np.matmul)
    if not np.all(np.isfinite(want)):
        return
    blocks = []
    assert np.array_equal(rk4(_recording(f, blocks), y0, times, np.matmul), want)
    _assert_blocks(blocks, times, n_steps)
    if uniform:
        assert np.array_equal(times[:-1] + (times[1:] - times[:-1]), times[1:])


@pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("members", [None, 3])
def test_rk4_block_boundaries_match_four_sample_rk4_bit_for_bit(n_steps, members):
    """Runs that end just before, at and just after a block boundary give the
    textbook loop's states bit for bit, single-run and on a member axis,
    with one sampler call per block and 2n + 1 samples in all."""
    rng = np.random.default_rng(n_steps)
    dim = 3
    if members is None:
        f = _drive(rng, dim, 2.0, 1.0)
        times = np.linspace(0.0, 2.0, n_steps + 1)
        y0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        blocks = []
        got = rk4(_recording(f, blocks), y0, times, np.matmul)
        assert np.array_equal(got, rk4_reference(per_node(f), y0, times, np.matmul))
        _assert_blocks(blocks, times, n_steps)
        return
    taus = rng.uniform(0.5, 2.0, members)
    drives = [_drive(rng, dim, tau, 1.0) for tau in taus]
    times = np.linspace(0.0, taus, n_steps + 1)
    y0 = rng.normal(size=(members, dim)) + 1j * rng.normal(size=(members, dim))
    blocks = []
    stacked = _recording(lambda t: np.array([f(x) for f, x in zip(drives, t.tolist())]), blocks)
    got = rk4(stacked, y0[..., None], times, np.matmul)
    _assert_blocks(blocks, times, n_steps)
    for r, f in enumerate(drives):
        want = rk4_reference(per_node(f), y0[r, :, None], times[:, r], np.matmul)
        assert np.array_equal(got[:, r], want)


@pytest.mark.parametrize("readout", [1, 7, 256])
@pytest.mark.parametrize("block", [1, 5])
def test_stage_loop_keeps_the_scalar_step_bits(readout, block, monkeypatch):
    """The full-shape complex step-size rows, the 0-d 2+0j and the positional
    outputs of rk4's stage loop give the states of the textbook loop that
    multiplies every ``act`` result by ``unit``, byte for byte, signed
    zeros included, for unit 1 and -1j: single vector
    runs at D = 2 and 8, a single matrix run at D = 3 and a 3-member sweep
    at D = 2, from initial states with exact and negative zeros, across
    block and readout-block edges."""
    monkeypatch.setattr(dynamics, "READOUT_BLOCK", readout)
    monkeypatch.setattr(dynamics, "BLOCK", block)
    rng = np.random.default_rng(readout + block)
    n_steps = 23
    for dim, state, members, act in ((2, (), None, np.ndarray.dot), (8, (), None, np.ndarray.dot),
                                     (3, (3,), None, dynamics.commutator), (2, (2,), 3, dynamics.commutator)):
        lead = () if members is None else (members,)
        a0, a1, a2 = (rng.normal(size=lead + (dim, dim)) + 1j * rng.normal(size=lead + (dim, dim))
                      for _ in range(3))

        def sample(ts):
            t = ts[..., None, None]
            return a0 + np.cos(3.0 * t) * a1 + t * a2

        y0 = rng.normal(size=lead + (dim,) + state) + 1j * rng.normal(size=lead + (dim,) + state)
        y0.real.flat[::3], y0.imag.flat[1::3] = 0.0, -0.0
        y0.real.flat[1::4] = -0.0
        times = np.linspace(0.0, 1.5 if members is None else rng.uniform(0.5, 2.0, members), n_steps + 1)
        for unit in (1.0, -1j):
            want = rk4_reference(sample, y0, times, lambda a, y: unit * act(a, y))
            assert rk4(sample, y0, times, act, unit).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    members=st.integers(1, 4),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    n_steps=st.integers(1, 40),
)
def test_member_axis_rk4_matches_separate_runs(members, dim, seed, n_steps):
    """R members advanced in lock step, each on its own linspace grid,
    give every member's own run bit for bit, from 2n + 1 stacked samples."""
    rng = np.random.default_rng(seed)
    taus = rng.uniform(0.1, 5.0, members)
    parts = rng.normal(size=(members, 3, dim, dim)) + 1j * rng.normal(size=(members, 3, dim, dim))
    freqs = rng.uniform(0.1, 3.0, members)

    def member(r):
        rate = n_steps / (taus[r] * dim)  # dt * ||A|| stays near 1, so states stay finite
        a0, a1, a2 = parts[r]
        return lambda t: rate * (a0 + np.cos(freqs[r] * t) * a1 + (t / taus[r]) * a2)

    samplers = [member(r) for r in range(members)]
    blocks = []
    stacked = _recording(lambda t: np.array([f(x) for f, x in zip(samplers, t.tolist())]), blocks)
    y0 = rng.normal(size=(members, dim, dim)) + 1j * rng.normal(size=(members, dim, dim))
    times = np.linspace(0.0, taus, n_steps + 1)
    got = rk4(stacked, y0, times, np.matmul)
    assert got.shape == (n_steps + 1, members, dim, dim)
    _assert_blocks(blocks, times, n_steps)
    for r, f in enumerate(samplers):
        assert np.array_equal(times[:, r], np.linspace(0.0, taus[r], n_steps + 1))
        assert np.array_equal(got[:, r], rk4(per_node(f), y0[r], times[:, r], np.matmul))


def _counting(sampler):
    calls = []

    def counted(s):
        calls.append(s)
        return sampler(s)

    return counted, calls


@pytest.mark.parametrize("tau, n_steps", [(1.0, 64), (1.0e-3, 100)])
def test_evolve_samples_schedule_2n_plus_1_times(tau, n_steps):
    """n steps sample the schedule 2n + 1 times, after the 5 probe samples."""
    closed, closed_calls = _counting(lambda s: (1.0 + s) * SIGMA_X + 0.3 * SIGMA_Z)
    evolve_unitary(Schedule(tau, closed), np.array([1.0, 0.0]), n_steps)
    assert len(closed_calls) == 5 + 2 * n_steps + 1
    ham = 2.0 / tau * SIGMA_X
    open_, open_calls = _counting(lambda s: LindbladGenerator((1.0 + s) * ham, ((0.5 / tau, SIGMA_Z),)))
    evolve_lindblad(Schedule(tau, open_), 0.5 * (np.eye(2, dtype=complex) + SIGMA_Z), n_steps)
    assert len(open_calls) == 5 + 2 * n_steps + 1


@pytest.mark.parametrize("n_steps", [BLOCK, 2 * BLOCK + 1])
def test_evolve_samples_a_vectorized_schedule_once_per_block(n_steps):
    """A vectorized schedule gets the 5 probe samples one node at a time, then
    one call per block of steps, 2n + 1 nodes in all; the states equal those
    of the same schedule sampled node by node, bit for bit."""
    ham = 2.0 * SIGMA_X
    closed_calls, open_calls = [], []

    def closed(s):
        closed_calls.append(len(s))
        return (1.0 + s)[:, None, None] * SIGMA_X + 0.3 * SIGMA_Z

    def open_(s):
        open_calls.append(len(s))
        return LindbladGenerator((1.0 + s)[:, None, None] * ham, ((0.5 * (1.0 + s), SIGMA_Z),))

    psi0, rho0 = np.array([1.0, 0.0]), 0.5 * (np.eye(2, dtype=complex) + SIGMA_Z)
    for sampler, calls, evolve, y0 in ((closed, closed_calls, evolve_unitary, psi0),
                                       (open_, open_calls, evolve_lindblad, rho0)):
        got = evolve(Schedule(1.0, sampler, vectorized=True), y0, n_steps)
        blocks = -(-n_steps // BLOCK)
        last = [2 * (n_steps - (blocks - 1) * BLOCK)] if blocks > 1 else []
        assert calls == [1] * 5 + [2 * BLOCK + 1] + [2 * BLOCK] * (blocks - 2) + last
        assert sum(calls) == 5 + 2 * n_steps + 1
        want = evolve(Schedule(1.0, lambda s: sampler(np.array([s]))[0]), y0, n_steps)
        assert np.array_equal(got.states, want.states)


@pytest.mark.parametrize("n_jumps", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("dim", [2, 3])
def test_lindblad_action_cache_is_bit_identical(n_jumps, dim):
    """The kind-stacked action equals the per-channel loop for scalar,
    per-node and sampled rates (a sampled generator is the stack that
    ``Schedule.sample`` builds from M one-node generators, and keeps a jump
    that is one object at every node shared) and for shared, stacked and
    mixed jumps: on a stack of M nodes, on the superoperator builder's
    (N, 1, D, D) operand stack, and on node k, which acts as its own
    generator does, and so does member r of node k of a sweep's stack.
    The stack is either M nodes or a sweep's (M, R) nodes by members, and
    its Hamiltonian is stacked over every axis, one (D, D) matrix for all,
    or, in a sweep, one per node for every member (a sweep sampler whose
    Hamiltonian has no member axis)."""
    rng = np.random.default_rng(10 * dim + n_jumps)
    m = 5

    def mat(*lead):
        return rng.normal(size=lead + (dim, dim)) + 1j * rng.normal(size=lead + (dim, dim))

    for lead in ((m,), (m, 3)):
        h = mat(*lead)
        h = h + dagger(h)
        rho = mat(*lead)
        for ham in (h, h[(0,) * len(lead)]) + ((h[:, 0],) if len(lead) > 1 else ()):
            for rates in ("scalar", "per-node", "sampled", "mixed"):
                for jumps in ("shared", "stacked", "mixed"):
                    ops = [mat() if jumps == "shared" or (jumps == "mixed" and n % 2) else mat(*lead)
                           for n in range(n_jumps)]
                    gammas = [float(rng.uniform(0.0, 2.0)) if rates == "scalar" or (rates == "mixed" and n % 2)
                              else rng.uniform(0.0, 2.0, lead) for n in range(n_jumps)]

                    def node(k):
                        return LindbladGenerator(ham[k] if ham.ndim > 2 else ham,
                                                 tuple((g[k] if np.ndim(g) else g, j[k] if j.ndim > 2 else j)
                                                       for g, j in zip(gammas, ops)))

                    if rates == "sampled":
                        gen = Schedule(1.0, lambda s: node(int(s))).sample(np.arange(m))
                        assert all(j is op if op.ndim == 2 else j.shape == op.shape
                                   for (_, j), op in zip(gen.jumps, ops))
                    else:
                        gen = LindbladGenerator(ham, tuple(zip(gammas, ops)))
                    whole = gen.hamiltonian.ndim - 2 in (0, len(lead))  # H broadcasts over the stack
                    if whole:
                        assert np.array_equal(lindblad_action(gen, rho), lindblad_action_per_call(gen, rho))
                    if gen.hamiltonian.ndim - 2 == len(lead):  # the superoperator's operands take every node
                        assert np.array_equal(lindblad_action(gen, rho[:, None]),
                                              lindblad_action_per_call(gen, rho[:, None]))
                    for k in (0, m - 1):
                        got = lindblad_action(gen[k], rho[k])
                        assert same_bits(got, lindblad_action_per_call(node(k), rho[k]))
                        assert not whole or np.array_equal(got, lindblad_action(gen, rho)[k])
                        if len(lead) > 1:  # member r of node k builds its own channels
                            assert same_bits(lindblad_action(gen[k][1], rho[k, 1]),
                                             lindblad_action_per_call(node(k)[1], rho[k, 1]))
    single = LindbladGenerator(h[0, 0], tuple((float(rng.uniform(0.0, 2.0)), mat()) for _ in range(n_jumps)))
    assert same_bits(lindblad_action(single, rho[0, 0]), lindblad_action_per_call(single, rho[0, 0]))


@pytest.mark.parametrize("n_jumps", [1, 4])
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_lindblad_action_on_one_state_keeps_the_per_channel_bits(dim, n_jumps):
    """On one state (a 2-D rho) the left products are one 2-D
    ``ndarray.dot`` and an unstacked generator's commutator is two; the
    action is the per-channel matmul loop's byte for byte, signed zeros
    included, on node views of stacks with shared, per-node and mixed
    jumps and scalar or per-node rates, on the whole stacks, and on the
    nodes' own unstacked generators, with complex and with real inputs.
    A whole stack with per-node rates and shared jumps once broadcast its
    rates' node axis against the channel axis of one state's products:
    a ValueError, or, with as many channels as nodes, a wrong action."""
    rng = np.random.default_rng(100 * dim + n_jumps)
    m = 4

    def mat(*lead, real=False):
        x = rng.normal(size=lead + (dim, dim))
        return x + 0.0j if real else x + 1j * rng.normal(size=lead + (dim, dim))

    for real in (False, True):
        h = mat(m, real=real)
        h = h + dagger(h)
        psi = rng.normal(size=dim) + (0.0 if real else 1j) * rng.normal(size=dim)
        states = (mat(real=real), pure_state_density(psi / np.linalg.norm(psi)))
        for jumps in ("shared", "stacked", "mixed"):
            ops = [mat(real=real) if jumps == "shared" or (jumps == "mixed" and n % 2) else mat(m, real=real)
                   for n in range(n_jumps)]
            for rates in ("scalar", "per-node"):
                gammas = [float(rng.uniform(0.0, 2.0)) if rates == "scalar" else rng.uniform(0.0, 2.0, m)
                          for _ in range(n_jumps)]
                gen = LindbladGenerator(h, tuple(zip(gammas, ops)))

                def node(k):
                    return LindbladGenerator(h[k], tuple((g[k] if np.ndim(g) else g, j[k] if j.ndim > 2 else j)
                                                         for g, j in zip(gammas, ops)))

                for rho in states:
                    assert same_bits(lindblad_action(gen, rho), lindblad_action_per_call(gen, rho))
                    for k in range(m):
                        want = lindblad_action_per_call(node(k), rho)
                        assert same_bits(lindblad_action(gen[k], rho), want)
                        assert same_bits(lindblad_action(node(k), rho), want)


@pytest.mark.parametrize("n_jumps", [1, 4])
@pytest.mark.parametrize("dim", [2, 3, 8])
@pytest.mark.parametrize("members", [None, 3])
def test_node_operand_tuples_act_as_node_views(members, dim, n_jumps):
    """``nodes[k]`` acts on a state as the node view ``gen[k]`` does, as node
    k's own generator does through the per-channel loop, and as row k of the
    whole stack's action where the stack has one, byte for byte: single runs
    and sweeps, shared and per-node rates and jumps.  Member r of node k,
    ``gen[k][r]``, builds its own channels and acts as row r of node k's
    tuple does.  The rates are stored complex."""
    rng = np.random.default_rng(1000 * dim + 10 * n_jumps + (members or 0))
    lead = (4,) if members is None else (4, members)

    def mat(*shape):
        return rng.normal(size=shape + (dim, dim)) + 1j * rng.normal(size=shape + (dim, dim))

    h = mat(*lead)
    h = h + dagger(h)
    rho = mat(*lead)
    rho.real.flat[::5] = -0.0
    for rates in ("shared", "per-node"):
        for jumps in ("shared", "per-node"):
            gammas = [float(rng.uniform(0.0, 2.0)) if rates == "shared" else rng.uniform(0.0, 2.0, lead)
                      for _ in range(n_jumps)]
            ops = [mat() if jumps == "shared" else mat(*lead) for _ in range(n_jumps)]
            gen = LindbladGenerator(h, tuple(zip(gammas, ops)))
            assert gen.channels[0].dtype == np.complex128
            whole = lindblad_action(gen, rho)
            assert len(gen.nodes) == lead[0]
            for k, operands in enumerate(gen.nodes):
                got = lindblad_action(operands, rho[k])
                own = LindbladGenerator(h[k], tuple((g[k] if np.ndim(g) else g, j[k] if j.ndim > 2 else j)
                                                    for g, j in zip(gammas, ops)))
                assert same_bits(got, lindblad_action(gen[k], rho[k]))
                assert same_bits(got, lindblad_action_per_call(own, rho[k]))
                assert same_bits(got, whole[k])
                if members:
                    for r in range(members):
                        node = lindblad_action(gen[k][r], rho[k, r])
                        assert same_bits(node, got[r])
                        assert same_bits(node, lindblad_action_per_call(own[r], rho[k, r]))


def _eager(gen):
    """A copy of ``gen`` whose channel stacks are built up front, as the
    constructor once built them for every generator: the complex rates,
    the left operands [J^dag J..., J...] and J^dag, each channel first."""
    new = object.__new__(LindbladGenerator)
    new.hamiltonian, new.jumps = gen.hamiltonian, gen.jumps
    rates = [g for g, _ in gen.jumps]
    ops = [j for _, j in gen.jumps]
    if not ops:
        empty = np.empty((0,) + gen.hamiltonian.shape[-2:], dtype=complex)
        new.channels = (np.empty((0, 1, 1), dtype=complex), empty, empty)
        return new
    j = np.array(np.broadcast_arrays(*ops))
    jd = dagger(j)
    rates = np.array(np.broadcast_arrays(*rates), dtype=complex)[..., None, None]
    new.channels = (rates, np.concatenate([jd @ j, j]), jd)
    return new


@pytest.mark.parametrize("n_jumps", [0, 1, 3])
def test_channels_are_built_on_first_use(n_jumps):
    """Channel stacks are built when an action first needs them, and the
    action is the same bit for bit as with stacks built up front: for a
    generator from a scalar sampler, for node k of a stacked generator
    (taken before and after the stack's own are built), and for the stack.
    The one-node generators that ``Schedule.sample`` restacks never build
    theirs."""
    rng = np.random.default_rng(40 + n_jumps)
    m, dim = 6, 3

    def mat(*lead):
        return rng.normal(size=lead + (dim, dim)) + 1j * rng.normal(size=lead + (dim, dim))

    h = mat(m)
    h = h + dagger(h)
    ops = [mat(m) if n % 2 else mat() for n in range(n_jumps)]
    rates = [rng.uniform(0.0, 2.0, m) for _ in range(n_jumps)]
    rho = mat(m)
    built = []

    def sampler(s):
        k = int(s)
        gen = LindbladGenerator(h[k], tuple((g[k], j[k] if j.ndim > 2 else j) for g, j in zip(rates, ops)))
        built.append(gen)
        return gen

    stacked = Schedule(1.0, sampler).sample(np.arange(m))
    assert len(built) == m and not any("channels" in vars(g) for g in built)
    for k, node in enumerate(built):
        assert np.array_equal(lindblad_action(node, rho[k]), lindblad_action(_eager(node), rho[k]))
    oracle = _eager(stacked)
    for k in (0, m - 1):
        want = lindblad_action(oracle[k], rho[k])
        unused = LindbladGenerator(stacked.hamiltonian, stacked.jumps)
        assert np.array_equal(lindblad_action(unused[k], rho[k]), want)
        assert np.array_equal(lindblad_action(stacked[k], rho[k]), want)
    assert np.array_equal(lindblad_action(stacked, rho), lindblad_action(oracle, rho))
    unused = LindbladGenerator(stacked.hamiltonian, stacked.jumps)
    assert np.array_equal(lindblad_action(unused, rho[:, None]), lindblad_action(oracle, rho[:, None]))


def test_evolve_unitary_norm_and_oracle():
    omega = 2 * np.pi * 1.0e3
    tau = 1.0e-3
    sched = Schedule(tau, lambda s: 0.5 * omega * SIGMA_Z)
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
    traj = evolve_unitary(sched, psi0, 126)  # omega * dt just below 0.05
    want = scipy.linalg.expm(-0.5j * omega * tau * SIGMA_Z) @ psi0
    phase = np.vdot(want, traj.final)
    assert abs(abs(phase) - 1.0) < 1e-8
    assert traj.diagnostics["final_norm_deviation"] < 1e-8


def _random_drive(dim):
    """A scalar schedule of random Hermitian matrices, and a random unit state."""
    rng = np.random.default_rng(dim)
    parts = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    h0, h1, h2 = parts + dagger(parts)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Schedule(2.0, lambda s: h0 + np.cos(3.0 * s) * h1 + s * h2), psi0 / np.linalg.norm(psi0)


def _closed_case(case):
    kind, _, arg = case.partition("-")
    if kind == "cells":  # battery-cells at its defaults: hub excited, intra-cell singlet
        j_rad = 2.0 * np.pi * 100.0
        psi0 = np.kron(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0), np.array([1.0, 0.0]))
        return two_cell_schedule(RAMPS[arg], j_rad, 80.0 / j_rad), psi0
    if kind == "nmr":
        w0 = 2.0 * np.pi * 1.0e3
        return nmr_lab_schedule(w0, 0.3 * w0, 0.8 * w0, 2.0e-3), np.array([1.0, 0.0])
    if kind == "gate":  # the gate scenario's defaults at tau = 1e-3, with the register in |+>
        controlled = arg == "controlled"
        sched = controlled_gate_schedule((0.0, 0.0, 1.0), np.pi, np.pi, 2.0 * np.pi * 35.0, 1.0e-3,
                                         variant="optimal" if controlled else arg, controlled=controlled)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        register = np.kron(plus, plus) if controlled else plus
        return sched, np.kron(register, np.array([1.0, 0.0]))
    return _random_drive(int(arg))


def _folded_and_oracle(case, n_steps):
    """evolve_unitary's states, and the reference loop's with -1j in ``act``."""
    sched, psi0 = _closed_case(case)
    times = np.linspace(0.0, sched.tau, n_steps + 1)
    want = rk4_reference(lambda t: sched.sample(t / sched.tau), psi0, times, lambda a, psi: -1j * (a @ psi))
    return evolve_unitary(sched, psi0, n_steps).states, want


@pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("case", ["cells-linear", "cells-sin2", "cells-smooth", "nmr", "gate-optimal",
                                  "gate-standard", "gate-controlled", "random-2", "random-3", "random-8"])
def test_evolve_unitary_folds_minus_i_into_the_step_sizes_bit_for_bit(case, n_steps):
    """evolve_unitary integrates y' = -i H y with -1j folded into rk4's step
    sizes and every stage formed in reused buffers; its states are those of
    the loop that multiplies each H y by -1j and allocates every stage,
    byte for byte, so the signs of exact zeros agree too (np.array_equal
    would take -0.0 for 0.0)."""
    got, want = _folded_and_oracle(case, n_steps)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", ["C", "F", "broadcast", "strided"])
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_evolve_unitary_single_run_keeps_matmul_bits_for_contiguous_nodes(dim, layout):
    """A single run forms each stage's H psi with ``ndarray.dot``; its states
    are the ``a @ psi`` loop's byte for byte when the sampler's stack is
    C-contiguous, holds Fortran-ordered node matrices, or broadcasts one
    matrix over its nodes.  Nodes that are neither C- nor F-contiguous (the
    nodes of ``np.asfortranarray`` of a stack) go through a copy in ``dot``
    and a strided loop in ``matmul``, so their states agree at rounding
    level only."""
    sched, psi0 = _random_drive(dim)
    h_fixed = sched.at(0.3)
    layouts = {
        "C": sched.sample,
        "F": lambda s: np.swapaxes(np.swapaxes(sched.sample(s), 1, 2).copy(), 1, 2),
        "broadcast": lambda s: np.broadcast_to(h_fixed, s.shape + h_fixed.shape),
        "strided": lambda s: np.asfortranarray(sched.sample(s)),
    }
    vec = Schedule(sched.tau, layouts[layout], vectorized=True)
    node = vec.sample(np.linspace(0.0, 1.0, 5))[2]
    assert node.flags.c_contiguous or node.flags.f_contiguous or layout == "strided"
    assert layout != "F" or not node.flags.c_contiguous
    n_steps = 2 * BLOCK + 1
    times = np.linspace(0.0, vec.tau, n_steps + 1)
    want = rk4_reference(lambda t: vec.sample(t / vec.tau), psi0, times, lambda a, psi: -1j * (a @ psi))
    got = evolve_unitary(vec, psi0, n_steps).states
    if layout == "strided":
        assert np.max(np.abs(got - want)) < 1e-12
    else:
        assert got.tobytes() == want.tobytes()


def test_two_cell_fold_keeps_the_signed_zeros_of_the_parity_subspace():
    """The two-cell sweep conserves z parity, so half of every state's
    amplitudes stay exact zeros, some of them negative; the folded run keeps
    each one, sign included, over the benchmark's 12000 steps."""
    for ramp in RAMPS:
        got, want = _folded_and_oracle(f"cells-{ramp}", 12000)
        parts = want.view(float)
        assert np.any((parts == 0.0) & np.signbit(parts))
        assert got.tobytes() == want.tobytes()


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
    with pytest.raises(ValueError, match="negative or NaN rate"):
        evolve_lindblad(sched, rho0, 16)


def test_schedule_probe_rejects_nan_rate():
    """A NaN rate fails the probe, though NaN < 0 is False; s = 0.5 is a
    probe point."""
    sched = Schedule(1.0, lambda s: LindbladGenerator(SIGMA_Z, ((np.nan if s == 0.5 else 0.1, SIGMA_Z),)))
    rho0 = 0.5 * np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match=r"negative or NaN rate nan at s=0\.5"):
        evolve_lindblad(sched, rho0, 16)


@pytest.mark.parametrize("bad_rate, message", [
    (-0.1, r"negative or NaN rate -0\.1 at s=0\.75$"),
    (np.nan, r"negative or NaN rate nan at s=0\.75$"),
    (None, r"non-Hermitian Hamiltonian sample at s=0\.25$"),
])
def test_schedule_probe_checks_a_vectorized_sweeps_members_in_order(bad_rate, message):
    """The probe of a vectorized sweep takes each sample as a one-node
    generator and checks its members in sweep order: member 1's bad rate at
    s = 0.75 wins over member 2's non-Hermitian Hamiltonian at s = 0.25."""

    def sampler(s):  # (M, R) member times
        ham = np.broadcast_to(SIGMA_X, s.shape + (2, 2)).copy()
        ham[..., 2, :, :][s[..., 2] == 0.25] += 1j * np.eye(2)
        rates = 0.1 + 0.0 * s
        if bad_rate is not None:
            rates[..., 1][s[..., 1] == 0.75] = bad_rate
        return LindbladGenerator(ham, ((rates, SIGMA_Z),))

    sched = Schedule([1.0, 2.0, 3.0], sampler, vectorized=True)
    with pytest.raises(ValueError, match=message):
        evolve_lindblad(sched, 0.5 * np.eye(2, dtype=complex), 16)


def test_shared_operators_with_per_node_rates_step_as_a_scalar_sampler():
    """A vectorized sampler that returns one (D, D) Hamiltonian and jump for
    every node, with only its rates per node, samples to a stack whose node
    operand tuples all share one kinds array; its run equals, byte for byte,
    that of the scalar sampler of the same model, whose stack has a
    Hamiltonian per node."""
    ham = 0.7 * SIGMA_X + 0.2 * SIGMA_Z
    jump = SIGMA_Z + 0.3 * SIGMA_X

    def sampler(s):  # one s, or an (M,) array of them
        return LindbladGenerator(ham, ((0.3 + 0.2 * s, jump),))

    vec = Schedule(2.0, sampler, vectorized=True)
    scalar = Schedule(2.0, sampler)
    stack = vec.generators(np.linspace(0.0, 1.0, 5))
    assert stack.hamiltonian.ndim == 2 and len(stack.nodes) == 5
    assert all(operands[1] is stack.nodes[0][1] for operands in stack.nodes)
    rho0 = pure_state_density(np.array([0.6, 0.8j]))
    got = evolve_lindblad(vec, rho0, 100).states
    assert same_bits(got, evolve_lindblad(scalar, rho0, 100).states)


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


@pytest.mark.filterwarnings("ignore:positivity dip:RuntimeWarning")
@pytest.mark.parametrize("block", [1, 4, 7, 256])
def test_trace_drift_raise_is_the_whole_runs_in_any_readout_block(block, monkeypatch):
    """The trace-drift guard reads the states block by block, yet it names
    what the whole trajectory gives: the first failing member's drift, at
    the first node where that drift peaks.  Here member 1 sits at its peak
    of 1.0 from node 6 on, and member 2 fails too."""
    taus = np.array([1.0e-5, 1.0e-2, 4.0e-3])
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    sched = Schedule(taus, lambda s: LindbladGenerator(np.zeros((2, 2)), ((np.full(taus.shape, 5.0e4), lower),)))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "TRACE_TOL", np.inf)
        states = evolve_lindblad(sched, rho0, 40).states
    deviation = np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0)
    drift = np.max(deviation, axis=0)
    r = np.flatnonzero(drift >= dynamics.TRACE_TOL)[0]
    node = int(np.argmax(deviation[:, r]))
    assert (r, node) == (1, 6) and np.count_nonzero(deviation[:, r] == drift[r]) > 1
    monkeypatch.setattr(dynamics, "READOUT_BLOCK", block)
    with pytest.raises(IntegrationError) as err:
        evolve_lindblad(sched, rho0, 40)
    assert str(err.value) == f"step {node}: trace drift {drift[r]:.3e} exceeds {dynamics.TRACE_TOL:.1e}"


@pytest.mark.parametrize("with_jumps", [True, False], ids=["jumps", "jumpless"])
def test_evolve_lindblad_sweep_matches_member_runs(with_jumps, monkeypatch):
    """A sweep schedule's members, integrated in lock step, equal their own
    runs: times, states and diagnostics.  The sweep sampler takes the (R,)
    member times of one node, or with ``vectorized=True`` an (m, R)
    node-by-member array; both give the same runs.  A one-member sweep
    steps as the single run it is: every stage of the jump route's
    lindblad_action, or of the jumpless route's commutator, sees a 2-D
    state, so a fallback to the stacked route fails here, and its states
    are those of its own run and of member 0 of the larger sweep, byte for
    byte, signed zeros included."""
    taus = np.array([1.0e-3, 2.5e-3, 4.0e-3])
    rates = np.array([50.0, 300.0, 900.0])
    lower = np.array([[0, 1], [0, 0]], dtype=complex)

    def alone(r):
        return lambda s: LindbladGenerator(
            (2e3 * np.cos(3.0 * s)) * SIGMA_X + 1e3 * s * SIGMA_Z,
            ((rates[r] * (1.0 + s), lower), (rates[r], SIGMA_Z)) if with_jumps else (),
        )

    def stacked(rs):
        def sampler(s):
            ham = (2e3 * np.cos(3.0 * s))[..., None, None] * SIGMA_X + (1e3 * s)[..., None, None] * SIGMA_Z
            return LindbladGenerator(ham, ((rs * (1.0 + s), lower), (np.broadcast_to(rs, s.shape), SIGMA_Z))
                                     if with_jumps else ())
        return sampler

    route = "lindblad_action" if with_jumps else "commutator"
    act = getattr(dynamics, route)
    rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    wants = [evolve_lindblad(Schedule(tau, alone(r)), rho0, 200) for r, tau in enumerate(taus)]
    for vectorized in (False, True):
        sweep = evolve_lindblad(Schedule(taus, stacked(rates), vectorized=vectorized), rho0, 200)
        assert sweep.times.shape == (201, 3) and sweep.states.shape == (201, 3, 2, 2)
        for r, want in enumerate(wants):
            got = sweep.member(r)
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.states, want.states)
            assert got.diagnostics == want.diagnostics
            assert all(type(v) is float for v in got.diagnostics.values())
        seen = []
        with monkeypatch.context() as m:
            m.setattr(dynamics, route, lambda gen, rho: seen.append(rho.ndim) or act(gen, rho))
            one = evolve_lindblad(Schedule(taus[:1], stacked(rates[:1]), vectorized=vectorized), rho0, 200)
        assert len(seen) == 4 * 200 and set(seen) == {2}
        assert one.times.shape == (201, 1) and one.states.shape == (201, 1, 2, 2)
        assert all(v.shape == (1,) for v in one.diagnostics.values())
        got = one.member(0)
        assert same_bits(got.times, wants[0].times)
        assert same_bits(got.states, wants[0].states) and same_bits(got.states, sweep.member(0).states)
        assert got.diagnostics == wants[0].diagnostics


def test_lindblad_action_matches_brute_force():
    h = RNG.normal(size=(2, 2))
    h = h + h.T
    j = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    rho = 0.5 * np.eye(2, dtype=complex)
    gen = LindbladGenerator(h, ((0.7, j),))
    jd = dagger(j)
    want = -1j * (h @ rho - rho @ h) + 0.7 * (j @ rho @ jd - 0.5 * (jd @ j @ rho + rho @ jd @ j))
    assert np.max(np.abs(lindblad_action(gen, rho) - want)) < 1e-14


def _z_map(w, tau):
    """The z rotation O(s) = exp(i w t sigma_z / 2) at t = s tau on an array
    of s, and its physical-time derivative."""

    def o(s):
        a = 0.5j * w * s * tau
        return stack_2x2(np.exp(a), 0.0, 0.0, np.exp(-a))

    return o, lambda s: (0.5j * w * SIGMA_Z) @ o(s)


def test_frame_transform_rotating_drive_becomes_static():
    """The z-rotating transverse drive is static in the co-rotating frame."""
    w0, w1, w = 2 * np.pi * 1e4, 2 * np.pi * 4e3, 2 * np.pi * 7e3
    tau = 1e-3
    transformed = frame_transform(nmr_lab_schedule(w0, w1, w, tau), *_z_map(w, tau))
    want = 0.5 * (w0 - w) * SIGMA_Z + 0.5 * w1 * SIGMA_X
    for s in (0.0, 0.31, 0.77, 1.0):
        assert np.max(np.abs(np.asarray(transformed.at(s)) - want)) < 1e-6 * w0
    assert transformed.vectorized
    got = transformed.sample(np.array([0.0, 0.31, 0.77, 1.0]))
    assert np.max(np.abs(got - want)) < 1e-6 * w0


def test_difference_points_are_central_inside_and_one_sided_at_the_ends():
    assert difference_points(0.5) == (0.5 - 1e-6, 0.5 + 1e-6)
    assert difference_points(0.0) == (0.0, 1e-6)
    assert difference_points(1.0) == (1.0 - 1e-6, 1.0)
    lo, hi = difference_points(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(lo, [0.0, 0.5 - 1e-6, 1.0 - 1e-6])
    assert np.array_equal(hi, [1e-6, 0.5 + 1e-6, 1.0])


def test_frame_transform_rejects_nonunitary_map():
    sched = Schedule(1.0, lambda s: SIGMA_Z)
    still = lambda s: np.zeros(s.shape + (2, 2))  # noqa: E731
    bad = frame_transform(sched, lambda s: (1.0 + s)[:, None, None] * np.eye(2), still)
    with pytest.raises(ValueError, match="unitary"):
        bad.at(0.5)
    # the check runs over the stack and names the first failing s
    with pytest.raises(ValueError, match="^frame map is not unitary at s=0.25$"):
        bad.sample(np.array([0.0, 0.25, 0.5]))
    wide = frame_transform(sched, lambda s: np.broadcast_to(np.eye(2, 3), s.shape + (2, 3)), still)
    with pytest.raises(ValueError, match="frame map is not unitary at s=0.5"):
        wide.at(0.5)


def test_frame_transform_names_first_non_hermitian_node():
    sched = Schedule(1.0, lambda s: SIGMA_Z)
    frame = frame_transform(
        sched,
        lambda s: np.broadcast_to(np.eye(2), s.shape + (2, 2)),
        lambda s: (s > 0.5)[:, None, None] * SIGMA_X,
    )
    with pytest.raises(ValueError, match=r"^i\*dO/dt\*O\^dag deviates from Hermitian by 2.00e\+00 at s=0.75; "):
        frame.sample(np.linspace(0.0, 1.0, 5))


def _reference_frame_transform(h, o, o_dot):
    """The per-node sampler that the stacked frame_transform replaced: one
    scalar call of o, o_dot and h.at per s."""

    def sampler(s):
        u = np.asarray(o(s), dtype=complex)
        ham = np.asarray(h.at(s), dtype=complex)
        pot = 1j * (np.asarray(o_dot(s), dtype=complex) @ dagger(u))
        return u @ ham @ dagger(u) + 0.5 * (pot + dagger(pot))

    return sampler


@pytest.mark.parametrize("dim", [2, 3, 4], ids="o_dot-{}".format)
def test_frame_transform_matches_per_node_reference(dim):
    rng = np.random.default_rng(dim)
    a, b, c = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(3))
    gen, h0, h1 = a + dagger(a), b + dagger(b), c + dagger(c)
    tau = 2.5e-3
    w, v = np.linalg.eigh(gen)

    def o_node(s):
        return (v * np.exp(1j * 30.0 * s * tau * w)) @ dagger(v)

    def o_dot_node(s):
        return (1j * 30.0 * gen) @ o_node(s)

    def stacked(f):
        return lambda s: np.array([f(x) for x in s.tolist()])

    h = Schedule(tau, lambda s: h0 + np.cos(4.0 * s) * h1)
    got = frame_transform(h, stacked(o_node), stacked(o_dot_node))
    ref = _reference_frame_transform(h, o_node, o_dot_node)
    grid = np.concatenate([np.linspace(0.0, 1.0, 101), rng.uniform(0.0, 1.0, 20)])
    want = np.array([ref(s) for s in grid.tolist()])
    stack = got.sample(grid)
    assert np.array_equal(stack, want) and stack.tobytes() == want.tobytes()
    assert np.asarray(got.at(0.37)).tobytes() == ref(0.37).tobytes()


def test_nmr_closed_form_limits():
    w0, w1 = 2 * np.pi * 1e4, 2 * np.pi * 5e3
    # at t = 0 survival is 1
    assert nmr_closed_form_p0(w0, w1, 0.3 * w0, 0.0) == pytest.approx(1.0)
    # on resonance the Rabi frequency is w1 and the dip reaches 1 - 1 = 0
    # at its half period
    t_max, t_min = 2 * np.pi / w1, np.pi / w1
    assert nmr_closed_form_p0(w0, w1, w0, t_min) == pytest.approx(0.0, abs=1e-12)
    assert nmr_closed_form_p0(w0, w1, w0, t_max) == pytest.approx(1.0, abs=1e-12)


def test_nmr_closed_form_against_integration():
    """Survival of the bare spin-up start under the rotating drive."""
    w0, w1, w = 2 * np.pi * 1e4, 2 * np.pi * 5e3, 2 * np.pi * 8e3
    tau = 4.0e-4
    traj = evolve_unitary(nmr_lab_schedule(w0, w1, w, tau), np.array([1.0, 0.0]), 4000)
    p0 = np.abs(traj.states[:, 0]) ** 2
    want = nmr_closed_form_p0(w0, w1, w, traj.times)
    assert np.max(np.abs(p0 - want)) < 1e-7


def test_fidelity_known_values():
    plus = pure_state_density(np.array([1.0, 1.0]) / np.sqrt(2))
    up = pure_state_density(np.array([1.0, 0.0]))
    assert fidelity(up, up) == pytest.approx(1.0)
    assert fidelity(up, plus) == pytest.approx(1.0 / np.sqrt(2))
    mixed = 0.5 * np.eye(2)
    # F(rho, 1/2) = sum sqrt(p_i / 2); for pure rho that is 1/sqrt(2)
    assert fidelity(up, mixed) == pytest.approx(1.0 / np.sqrt(2))


def test_fidelity_rejects_indefinite_input():
    with pytest.raises(ValueError):
        fidelity(np.diag([1.5, -0.5]), 0.5 * np.eye(2))


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


def _superoperator_matrix_per_node(generator, basis, linearity_tol=1e-9):
    """Reference superoperator builder for one node: D^2 + 3 generator
    calls and D^4 vdots."""
    dim = basis.dim
    a, b = 0.7 - 0.3j, -1.1 + 0.2j
    s1, s2 = basis.elements[1], basis.elements[min(2, dim**2 - 1)]
    lhs = generator(a * s1 + b * s2)
    rhs = a * generator(s1) + b * generator(s2)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if np.max(np.abs(lhs - rhs)) > linearity_tol * scale:
        raise ValueError("generator failed the linearity probe")

    mat = np.empty((dim**2, dim**2), dtype=complex)
    for i, sig_i in enumerate(basis.elements):
        image = generator(sig_i)
        for k, sig_k in enumerate(basis.elements):
            mat[k, i] = np.vdot(sig_k, image) / dim
    scale = max(1.0, float(np.max(np.abs(mat))))
    tp = bool(np.max(np.abs(mat[0, :])) < 1e-12 * scale)
    return Superoperator(matrix=mat, trace_preserving=tp)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2),
)
def test_stacked_inputs_match_per_element_loop(seed, dim, lead):
    """Stacks (..., D, D) give exactly the per-element results, and a
    single pair of matrices still gives a Python float.  An open schedule
    samples to one stacked generator whose per-node rates and jumps act
    node by node, in lindblad_action, in the thermo rates and in the grid
    superoperators, which equal the one-node builder's bit for bit."""
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

    jump_a, jump_b = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2))
    open_sched = Schedule(1.0, lambda s: LindbladGenerator(
        np.cos(3.0 * s) * table[0] + s * table[-1],
        ((1.0 + s, s * jump_a + jump_b), (s * s, table[0])),
    ))
    grid = np.sort(rng.uniform(0.0, 1.0, len(rows)))
    gen = open_sched.sample(grid)
    nodes = [open_sched.at(s) for s in grid]
    assert np.array_equal(gen.hamiltonian, np.array([g.hamiltonian for g in nodes]))
    for n in range(2):
        assert np.array_equal(gen.jumps[n][0], [g.jumps[n][0] for g in nodes])
        # a one-node grid keeps its one jump object as a shared jump
        per_node = np.broadcast_to(gen.jumps[n][1], (len(grid), dim, dim))
        assert np.array_equal(per_node, np.array([g.jumps[n][1] for g in nodes]))

    rhos, rhos2, hams = (x.reshape(-1, dim, dim) for x in (r1, r2, h))
    mixed = 0.5 * rhos + 0.5 * np.eye(dim) / dim  # full rank, so entropy_rate needs no floor
    per_node = [
        (lindblad_action(g, rho), heat_rate(g, rho, ham), work_rate(ham, rho2), entropy_rate(g, mix))
        for g, rho, rho2, ham, mix in zip(nodes, rhos, rhos2, hams, mixed)
    ]
    actions, heats, works, ents = (list(col) for col in zip(*per_node))
    assert all(type(v) is float for v in heats + works + ents)
    assert np.array_equal(lindblad_action(gen, rhos), np.array(actions))
    assert np.array_equal(heat_rate(gen, rhos, hams), heats)
    assert np.array_equal(work_rate(h, r2), np.reshape(works, lead))
    assert np.array_equal(entropy_rate(gen, mixed), ents)

    for basis in (pauli_basis(1), pauli_basis(2)):
        d = basis.dim
        h0, h1, j0, j1, j2 = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(5))
        h0, h1 = h0 + dagger(h0), h1 + dagger(h1)
        grid = np.sort(rng.uniform(0.0, 1.0, 4))
        for n_jumps in range(3):
            liou = Schedule(1.0, lambda s, n=n_jumps: LindbladGenerator(
                np.cos(3.0 * s) * h0 + s * h1, ((1.0 + s, s * j0 + j1), (s * s, j2))[:n]))
            want = [_superoperator_matrix_per_node(lambda op, g=liou.at(s): lindblad_action(g, op), basis)
                    for s in grid]
            one = superoperator_matrix(lambda ops: lindblad_action(liou.at(grid[0]), ops), basis)
            assert np.array_equal(one.matrix, want[0].matrix)
            assert one.trace_preserving is want[0].trace_preserving
            stacked_gen = liou.sample(grid)
            stack = superoperator_matrix(lambda ops: lindblad_action(stacked_gen, ops[:, None]), basis)
            assert np.array_equal(stack.trace_preserving, [w.trace_preserving for w in want])
            mats = superoperator_at(liou, grid, basis)
            assert np.array_equal(mats, stack.matrix)
            assert np.array_equal(mats, np.array([w.matrix for w in want]))
            one_node = [superoperator_at(liou, grid[k:k + 1], basis)[0] for k in range(len(grid))]
            assert np.array_equal(mats, np.array(one_node))


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_sample_shares_a_jump_that_every_node_returns(dim):
    """A jump that is the same (D, D) object at every node stays one shared
    matrix in the stacked generator, and the stacked generator acts as the
    one with a per-node copy does, bit for bit.  A jump built anew at each
    node, even one equal at every node, is stacked."""
    rng = np.random.default_rng(dim)
    h0, h1, fixed = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(3))
    h0, h1 = h0 + dagger(h0), h1 + dagger(h1)
    grid = np.linspace(0.0, 1.0, 1001)
    sched = Schedule(1.0, lambda s: LindbladGenerator(h0 + s * h1, ((1.0 + s, fixed), (0.5, fixed.T.copy()))))
    gen = sched.sample(grid)
    assert gen.jumps[0][1] is fixed
    assert gen.jumps[1][1].shape == (len(grid), dim, dim)
    copied = LindbladGenerator(gen.hamiltonian, ((gen.jumps[0][0], np.array([fixed] * len(grid))), gen.jumps[1]))
    rho = rng.normal(size=(len(grid), dim, dim)) + 1j * rng.normal(size=(len(grid), dim, dim))
    assert np.array_equal(lindblad_action(gen, rho), lindblad_action(copied, rho))
    for k in (0, 500, len(grid) - 1):
        assert np.array_equal(lindblad_action(gen[k], rho[k]), lindblad_action(copied[k], rho[k]))


def test_vectorized_schedule_samples_a_grid_in_one_call():
    """A vectorized sampler gets the whole grid as one array; ``at`` passes a
    one-node array and takes node 0; ``generators`` gives one stacked
    generator, also for a closed stack and for a scalar schedule, whose
    node k is the sample ``at`` gives at s_k."""
    calls = []

    def sampler(s):
        calls.append(s.shape)
        return (1.0 + s)[:, None, None] * SIGMA_X + 0.3 * SIGMA_Z

    sched = Schedule(2.0, sampler, vectorized=True)
    grid = np.linspace(0.0, 1.0, 7)
    stack = sched.sample(grid)
    assert calls == [(7,)] and stack.dtype == complex
    assert np.array_equal(stack, np.array([(1.0 + s) * SIGMA_X + 0.3 * SIGMA_Z for s in grid]))
    assert np.array_equal(sched.at(0.5), stack[3]) and calls[-1] == (1,)
    gens = sched.generators(grid)
    assert isinstance(gens, LindbladGenerator) and np.array_equal(gens[2].hamiltonian, stack[2])
    scalar = Schedule(2.0, lambda s: (1.0 + s) * SIGMA_X + 0.3 * SIGMA_Z)
    gens = scalar.generators(grid)
    assert isinstance(gens, LindbladGenerator) and gens.jumps == ()
    for k, s in enumerate(grid):
        assert np.array_equal(gens[k].hamiltonian, scalar.at(s))


def _open_sampler(jump_counts):
    """Dephasing generator whose jump count at s is jump_counts(s)."""
    return lambda s: LindbladGenerator(SIGMA_X, ((1.0 + s, SIGMA_Z),) * jump_counts(s))


def test_sample_names_first_change_of_jump_count_or_kind():
    grid = np.linspace(0.0, 1.0, 5)
    sched = Schedule(1.0, _open_sampler(lambda s: 1 if s < 0.5 else 2))
    with pytest.raises(ValueError, match=r"jump count \(1 -> 2\) changes at s=0.5$"):
        sched.sample(grid)
    mixed = Schedule(1.0, lambda s: SIGMA_X if s < 0.7 else LindbladGenerator(SIGMA_X))
    with pytest.raises(ValueError, match=r"sample kind changes at s=0.75$"):
        mixed.sample(grid)
    assert Schedule(1.0, _open_sampler(lambda s: 1)).sample(np.array([])).shape == (0,)


def test_scalar_sample_gives_the_bits_of_the_per_node_at_stack():
    """A scalar schedule samples each node once, on the Python float that
    ``at`` passes, and its stack equals the per-node ``at`` stack bit for
    bit: real and complex matrix samples, and generators with per-node
    rates and jumps beside a jump that every node shares."""
    rng = np.random.default_rng(23)
    h0, h1, j0, fixed = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4))
    grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 40)), [1.0]])
    seen = []
    samplers = [
        lambda s: seen.append(s) or np.cos(3.0 * s) * h0 + s * h1,
        lambda s: seen.append(s) or np.cos(3.0 * s) * SIGMA_X.real + s * SIGMA_Z.real,
        lambda s: seen.append(s) or LindbladGenerator(np.cos(3.0 * s) * h0, ((1.0 + s, s * j0), (0.5 * s, fixed))),
    ]
    for sampler in samplers:
        sched = Schedule(1.0, sampler)
        got = sched.sample(grid)
        assert seen == grid.tolist() and all(type(s) is float for s in seen)
        seen.clear()
        nodes = [sched.at(s) for s in grid]
        seen.clear()
        if isinstance(got, LindbladGenerator):
            assert got.hamiltonian.tobytes() == np.array([g.hamiltonian for g in nodes]).tobytes()
            assert got.jumps[1][1] is fixed
            for n, (rates, ops) in enumerate(got.jumps):
                assert rates.tobytes() == np.array([g.jumps[n][0] for g in nodes]).tobytes()
                want = np.broadcast_to(ops, (len(grid), 3, 3))
                assert np.array_equal(want, [g.jumps[n][1] for g in nodes])
        else:
            want = np.array([np.asarray(g, dtype=complex) for g in nodes])
            assert got.dtype == want.dtype == complex and got.tobytes() == want.tobytes()


def test_scalar_sample_stops_at_the_first_failing_node():
    """A sampler that raises at node k has been called on nodes 0..k only,
    in grid order; a kind or jump-count change is named after every node
    has been sampled once."""
    seen = []

    def sampler(s):
        seen.append(s)
        if s > 0.5:
            raise ValueError(f"no sample at s={s}")
        return s * SIGMA_X

    grid = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError, match=r"^no sample at s=0.625$"):
        Schedule(1.0, sampler).sample(grid)
    assert seen == grid[:6].tolist()
    for counts, message in ((lambda s: 1 if s < 0.5 else 2, r"jump count \(1 -> 2\) changes at s=0.5$"),
                            (lambda s: 0 if s < 0.7 else 1, r"jump count \(0 -> 1\) changes at s=0.75$")):
        seen.clear()
        sched = Schedule(1.0, lambda s, c=counts: seen.append(s) or _open_sampler(c)(s))
        with pytest.raises(ValueError, match=message):
            sched.sample(grid)
        assert seen == grid.tolist()
    seen.clear()
    mixed = Schedule(1.0, lambda s: seen.append(s) or (SIGMA_X if s < 0.7 else LindbladGenerator(SIGMA_X)))
    with pytest.raises(ValueError, match=r"^sample kind changes at s=0.75$"):
        mixed.sample(grid)
    assert seen == grid.tolist()


def test_evolve_lindblad_refuses_a_jump_count_that_changes_along_s():
    """Open samples reach rk4 as one stacked generator per block, so a scalar
    schedule whose jump count changes along s ends in ``Schedule.sample``'s
    named error."""
    sched = Schedule(1.0, _open_sampler(lambda s: 1 if s < 0.5 else 2))
    with pytest.raises(ValueError, match=r"jump count \(1 -> 2\) changes at s=0.5$"):
        evolve_lindblad(sched, 0.5 * np.eye(2, dtype=complex), 16)


def test_evolve_lindblad_refuses_a_jump_count_change_on_a_block_boundary():
    """At 64 steps the count changes between rk4's two sampling blocks, where
    no single ``Schedule.sample`` call sees it; the second block's first s
    is named, one count up and one from no jumps."""
    rho0 = 0.5 * np.eye(2, dtype=complex)
    for before, after in ((1, 2), (0, 1)):
        sched = Schedule(1.0, _open_sampler(lambda s: before if s <= 0.5 else after))
        message = rf"jump count \({before} -> {after}\) changes at s=0.5078125$"
        with pytest.raises(ValueError, match=message):
            evolve_lindblad(sched, rho0, 2 * BLOCK)


def test_jumpless_route_never_drops_jumps_of_a_later_block():
    """Jumps that none of the 5 probe samples carries put the run on the
    jumpless route; the block that first carries them is still refused."""
    def sampler(s):
        jumps = ((0.1, SIGMA_Z),) if np.any((s > 0.5) & (s < 0.7)) else ()
        return LindbladGenerator(s[:, None, None] * SIGMA_X, jumps)

    sched = Schedule(1.0, sampler, vectorized=True)
    assert not any(g.jumps for g in sched.probe())
    with pytest.raises(ValueError, match=r"jump count \(0 -> 1\) changes at s=0.5078125$"):
        evolve_lindblad(sched, 0.5 * np.eye(2, dtype=complex), 2 * BLOCK)


def _stirap(protocol):
    """battery-stirap's noise-free schedule at its CLI defaults."""
    om = 2.0 * np.pi * 1000.0
    envelopes = stable_protocol(om) if protocol == "stable" else unstable_protocol(om)
    return stirap_schedule(*envelopes, 20.0 / om, None, 0.1), np.diag([1.0, 0.0, 0.0]).astype(complex)


@pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 5000])
@pytest.mark.parametrize("protocol", ["stable", "unstable"])
@pytest.mark.filterwarnings("ignore:positivity dip:RuntimeWarning")  # the coarsest grids dip
def test_jumpless_route_equals_lindblad_action_byte_for_byte(protocol, n_steps):
    """A schedule without jumps steps [H, rho] with -1j folded into rk4's step
    sizes; its states are those of rk4 with lindblad_action on the same
    samples, byte for byte, signed zeros included."""
    sched, rho0 = _stirap(protocol)
    times = np.linspace(0.0, sched.tau, n_steps + 1)
    want = rk4(lambda t: sched.generators(t / sched.tau), rho0, times, lindblad_action)
    assert evolve_lindblad(sched, rho0, n_steps).states.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_jumps", [0, 1])
def test_jumpless_route_skips_lindblad_action(n_jumps, monkeypatch):
    """Without jumps, no stage calls lindblad_action; with them, all 4n do,
    through the module's name looked up at call time.  Either route samples
    the schedule 5 + 2n + 1 times."""
    actions = []

    def counted(gen, rho):
        actions.append(1)
        return lindblad_action(gen, rho)

    monkeypatch.setattr(dynamics, "lindblad_action", counted)
    sampler, samples = _counting(_open_sampler(lambda s: n_jumps))
    n_steps = 2 * BLOCK + 3
    evolve_lindblad(Schedule(1.0, sampler), 0.5 * (np.eye(2, dtype=complex) + SIGMA_Z), n_steps)
    assert len(actions) == 4 * n_steps * n_jumps
    assert len(samples) == 5 + 2 * n_steps + 1


def _random_sweep(dim, members=5):
    """Random Hermitian drives, one vectorized schedule per member, and their
    sweep, whose sampler stacks the members' own samples."""
    rng = np.random.default_rng(dim)
    taus = rng.uniform(0.5, 2.0, members)
    parts = rng.normal(size=(members, 3, dim, dim)) + 1j * rng.normal(size=(members, 3, dim, dim))
    parts = parts + dagger(parts)

    def member(r):
        h0, h1, h2 = parts[r]
        return Schedule(taus[r], lambda s: h0 + np.cos(3.0 * s)[:, None, None] * h1 + s[:, None, None] * h2,
                        vectorized=True)

    alone = [member(r) for r in range(members)]
    sweep = Schedule(taus, lambda s: np.stack([m.sampler(s[:, r]) for r, m in enumerate(alone)], axis=1),
                     vectorized=True)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return sweep, alone, psi0 / np.linalg.norm(psi0)


def _gate_sweep(variant, controlled):
    """The gate scenario's sweep over its default durations, and each
    duration's own schedule; the register is |+> (|+>|+> when controlled)."""
    taus = (1.0e-4, 1.0e-3, 1.0e-2)
    args = ((0.0, 0.0, 1.0), np.pi, np.pi, 2.0 * np.pi * 35.0)
    sweep = controlled_gate_schedule(*args, taus, variant, controlled)
    alone = [controlled_gate_schedule(*args, tau, variant, controlled) for tau in taus]
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    register = np.kron(plus, plus) if controlled else plus
    return sweep, alone, np.kron(register, np.array([1.0, 0.0]))


@pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("case", [f"gate-{v}-{c}" for v in ("adiabatic", "standard", "optimal")
                                  for c in ("plain", "controlled")] + ["random-2", "random-3", "random-8"])
def test_evolve_unitary_sweep_members_equal_single_runs_byte_for_byte(case, n_steps):
    """A closed sweep advances its members in lock step with one batched
    matrix-vector product per stage; each member's times, states and norm
    deviation are those of its own run, byte for byte."""
    kind, _, arg = case.partition("-")
    if kind == "gate":
        variant, _, controlled = arg.partition("-")
        sweep, alone, psi0 = _gate_sweep(variant, controlled == "controlled")
    else:
        sweep, alone, psi0 = _random_sweep(int(arg))
    got = evolve_unitary(sweep, psi0, n_steps)
    for r, sched in enumerate(alone):
        want = evolve_unitary(sched, psi0, n_steps)
        member = got.member(r)
        assert member.times.tobytes() == want.times.tobytes()
        assert member.states.tobytes() == want.states.tobytes()
        assert member.diagnostics == want.diagnostics


def test_evolve_unitary_takes_a_sweep_schedule():
    """A closed sweep's trajectory has the member axis of an open one: (n+1, R)
    times, (n+1, R, D) states and an (R,) norm deviation; member(r) is a
    single run's trajectory, with float diagnostics."""
    sweep = Schedule([1.0, 2.0], lambda s: s[:, None, None] * SIGMA_X)
    traj = evolve_unitary(sweep, np.array([1.0, 0.0]), 16)
    assert traj.times.shape == (17, 2) and traj.states.shape == (17, 2, 2)
    assert traj.diagnostics["final_norm_deviation"].shape == (2,)
    for r, tau in enumerate((1.0, 2.0)):
        member = traj.member(r)
        want = evolve_unitary(Schedule(tau, lambda s: s * SIGMA_X), np.array([1.0, 0.0]), 16)
        assert member.times.shape == (17,) and member.states.shape == (17, 2)
        assert member.states.tobytes() == want.states.tobytes()
        assert member.diagnostics == want.diagnostics
        assert type(member.diagnostics["final_norm_deviation"]) is float
