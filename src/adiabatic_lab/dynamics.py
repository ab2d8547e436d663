"""Time-dependent generators, fixed-step integrators, frames, fidelities.

Internal unit system: hbar = 1, Hamiltonian entries in rad/s, time in
seconds.  Integration is classical fixed-step RK4 on a uniform grid; the
step count is a caller decision, and adaptive stepping is deliberately
excluded so rerunning a scenario is reproducible bit for bit.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .opalg import TOL_HERM, TOL_POS, dagger, is_density_matrix, is_hermitian, is_unitary

TRACE_TOL = 1e-9
# Steps per sampling block of rk4.  A block's samples and its sampler's
# temporaries are live at once: with the 8x8 controlled gate, blocks of 256
# steps raise the closed-sweep benchmark's peak RSS from 40.7-40.9 MB to
# 44.3 MB (three runs of each on a 2-vCPU VM).  Blocks of 64 peak at the
# same 40.7-40.9 MB as blocks of 32, so memory no longer separates the two.
# Nor does time, now that each block also builds its node operand list and
# its step-size rows: best in-process passes over 4 alternating processes
# per value read 32 against 64 at 0.145 against 0.145 s (open-sweep), 0.483
# against 0.481 s (long-trajectory), 0.325 against 0.320 s (closed-sweep)
# and 0.151 against 0.150 s (liouville), within the runs' own spread.  32
# stays: a sampler's bits may depend on the length of its calls.
BLOCK = 32
# Nodes per block of every pass over a finished trajectory: rk4's non-finite
# check, the positivity guard of evolve_lindblad, the battery readouts and
# the CLI's CSV writer; also the steps whose sample times and step sizes
# rk4 forms at once, cut into blocks of BLOCK.  Beyond the state array a long run's output then
# costs one block.  Whole-trajectory passes cost 3.4-4.5 times the state
# array (a whole-grid stack of the two-cell power observables alone raised
# the peak RSS by 53 MB at 12001 nodes); 256-node blocks cost a per-node
# loop's memory, not its time.
READOUT_BLOCK = 256
# The constant factors of lindblad_action and rk4 as 0-d complex arrays, made
# from the literals they stand for (-1j keeps its real part, -0.0): numpy
# casts a Python scalar to the same complex value before every multiply, so
# the bits are the same, and each call skips that conversion.
_MINUS_I, _HALF, _TWO = np.array(-1j), np.array(0.5, dtype=complex), np.array(2.0, dtype=complex)


class IntegrationError(RuntimeError):
    """Raised when an integration produces non-finite state entries."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


class LindbladGenerator:
    """Open-system generator: Hamiltonian part plus (rate, jump) channels.

    ``channels`` holds (rates, left, J^dag) for :func:`lindblad_action`,
    each with its operator kind on the leading axis: ``rates`` is one
    complex array of the channel rates (each r + 0j, the value numpy casts a
    float rate to before it multiplies a complex product, so no call casts
    them again), shaped (C, ..., 1, 1) so that ``rates[c]`` scales channel
    c; ``left`` stacks the left operands
    [J^dag J_1..C, J_1..C], (2C, ..., D, D); and J^dag is (C, ..., D, D).
    They are built on first use and kept, so a generator that is only read
    for its parts, as the one-node samples that :meth:`Schedule.sample`
    restacks are, never builds them.  A generator is not to be mutated
    after it is built.

    A generator may also hold a stack of M nodes (or M sweep members): an
    (M, D, D) Hamiltonian and, per jump, (M,) rates with (M, D, D) jumps, or
    one (D, D) jump shared by every node.  Its rates are then (C, M, 1, 1)
    when any rate is per node, and its operator stacks (2C, M, D, D) and
    (C, M, D, D) when any jump is per node, so :func:`lindblad_action` acts
    node by node on an (M, D, D) stack of states.  Node k's operands are
    the tuple ``nodes[k]``, (rates, [H_k, J^dag J..., J...], J^dag): its
    Hamiltonian sits in front of its left operands, and the whole list is
    built in one pass on first use.  :func:`rk4` steps the jump route
    through that list.  ``gen[k]`` is node k as a generator of its own,
    which builds its channels from its own jumps when it needs them.
    """

    def __init__(self, hamiltonian: np.ndarray, jumps: tuple = ()):
        self.hamiltonian = np.asarray(hamiltonian, dtype=complex)
        self.jumps = tuple([(_rate(g), np.asarray(j, dtype=complex)) for g, j in jumps])

    @functools.cached_property
    def channels(self) -> tuple:
        if not self.jumps:  # empty stacks: lindblad_action adds no channel term
            empty = np.empty((0,) + self.hamiltonian.shape[-2:], dtype=complex)
            return (np.empty((0, 1, 1), dtype=complex), empty, empty)
        rates, ops = zip(*self.jumps)
        j = np.array(np.broadcast_arrays(*ops))  # a shared jump beside per-node ones is copied per node
        jd = dagger(j)
        rates = np.array(np.broadcast_arrays(*rates), dtype=complex)
        return (rates[..., None, None], np.concatenate([jd @ j, j]), jd)

    @functools.cached_property
    def nodes(self) -> list:
        """Every node's operand tuple (rates, [H, J^dag J..., J...], J^dag),
        node k's at index k, in one pass over the stack: every node's kinds
        are a slice of one node-first array, and the rates and J^dag are
        views of the stack's with the node's member axes added, as
        :func:`lindblad_action` takes them.  A part that no node has its own
        of is the same view in every tuple, and a stack without a node axis
        has one tuple."""
        h = self.hamiltonian
        rates, left, jd = self.channels
        parts = (h[None], left)  # kind first, then the node axis where there is one
        per_node = [x for x in parts if x.ndim > 3]
        if per_node:
            lead = np.broadcast_shapes(*[x.shape[2:-2] for x in per_node])  # a node's own axes: its members
            kinds = np.empty(per_node[0].shape[1:2] + (len(left) + 1,) + lead + h.shape[-2:], dtype=complex)
            by_kind = np.moveaxis(kinds, 1, 0)
            for dst, x in zip((by_kind[:1], by_kind[1:]), parts):
                dst[...] = _unit_axes(x if x.ndim > 3 else x[:, None], by_kind.ndim, 2)
        else:
            kinds = np.concatenate(parts)[None]
        ndim = kinds.ndim - 1  # the axes of a node's kinds
        parts = [_unit_axes(np.moveaxis(x, 1, 0) if x.ndim > 3 else x[None], ndim + 1, 2) for x in (rates, jd)]
        parts.insert(1, kinds)
        m = max(map(len, parts))
        return list(zip(*(x if len(x) == m else [x[0]] * m for x in parts)))

    def __getitem__(self, k: int) -> "LindbladGenerator":
        """Node (or member) k of a stacked generator, built by the
        constructor from the stack's parts indexed by k where they have a
        node axis; a part that every node shares stays the same object."""
        h = self.hamiltonian
        return LindbladGenerator(h[k] if h.ndim > 2 else h,
                                 tuple([(g[k] if isinstance(g, np.ndarray) else g, op[k] if op.ndim > 2 else op)
                                        for g, op in self.jumps]))


def _rate(g):
    """A channel rate as ``jumps`` stores it: a float, or an (M,) array."""
    if isinstance(g, np.ndarray) and g.ndim > 0:
        return np.asarray(g, dtype=float)
    return float(g)


def _unit_axes(x: np.ndarray, ndim: int, at: int) -> np.ndarray:
    """A view of ``x`` with unit axes inserted at axis ``at`` up to ``ndim`` axes."""
    return x[(slice(None),) * at + (None,) * (ndim - x.ndim)]


def lindblad_action(gen: LindbladGenerator | tuple, rho: np.ndarray) -> np.ndarray:
    """Right-hand side -i[H, rho] + sum_n g_n (J rho J^dag - {J^dag J, rho}/2).

    ``gen`` is a generator, or a node's operand tuple from
    :attr:`LindbladGenerator.nodes`, which is what :func:`evolve_lindblad`
    passes to every stage: node k's tuple acts as node k's own generator,
    ``gen[k]``, does, bit for bit.  A node's products come
    from three batched calls over its kind axis: the left products H rho,
    J^dag J rho and J rho, ``rho @ left[:C+1]`` for rho H and rho J^dag J,
    and (J rho) @ J^dag for the sandwich.  A stacked generator keeps H
    apart, in :func:`commutator`, so jumps that every node shares are
    multiplied into rho once, not once per node.  On one state (a 2-D ``rho``) the left products are one 2-D
    ``ndarray.dot`` of the kinds' stacked rows, which skips the ``matmul``
    gufunc's dispatch; stacked states keep ``matmul``.  Either way each
    slice gets the ``zgemm`` that a call of its own would run, and the
    channel terms are added into the result one at a time, in channel
    order, so the result is the per-channel loop's bit for bit.  The
    factors -1j and 0.5 are the module's 0-d complex constants, the values
    numpy would cast the Python scalars to.
    """
    rates, left, jd = gen if isinstance(gen, tuple) else gen.channels
    c = len(rates)
    if rho.ndim == 2:
        xl = left.reshape(-1, rho.shape[0]).dot(rho).reshape(left.shape)
    else:
        if left.ndim <= rho.ndim:  # operands with fewer lead axes than rho: broadcast them over rho's
            left = _unit_axes(left, rho.ndim + 1, 1)
        xl = left @ rho
    if len(left) > 2 * c:  # a node: its Hamiltonian leads the kinds
        xr = rho @ left[:c + 1]
        out = _MINUS_I * (xl[0] - xr[0])
        xl, xr = xl[1:], xr[1:]
    else:
        out = _MINUS_I * commutator(gen.hamiltonian, rho)
        xr = rho @ left[:c]
        if rates.ndim > xl.ndim:  # per-node rates, shared jumps, one state: the products take the node axes
            xl, xr, jd = (_unit_axes(x, rates.ndim, 1) for x in (xl, xr, jd))
    if jd.ndim < xl.ndim:
        jd = _unit_axes(jd, xl.ndim, 1)
    if rates.ndim < xl.ndim:
        rates = _unit_axes(rates, xl.ndim, 1)
    terms = rates * (xl[c:] @ jd - _HALF * (xl[:c] + xr))
    for n in range(c):
        out += terms[n]
    return out


def commutator(h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """[H, rho] = H rho - rho H, of two matrices or two stacks that broadcast:
    the ``act`` of :func:`evolve_lindblad`'s route without jumps.  Two
    matrices multiply through ``ndarray.dot``, the ``zgemm`` of ``@`` with
    the same bits and without the ``matmul`` gufunc's dispatch."""
    if h.ndim == rho.ndim == 2:
        return h.dot(rho) - rho.dot(h)
    return h @ rho - rho @ h


@dataclass(eq=False)
class Schedule:
    """A generator of operators over normalized time s in [0, 1].

    Parameters
    ----------
    tau : float or sequence of floats
        Total duration in seconds; physical time is t = s * tau.  A
        sequence of R durations makes a sweep schedule: its R members are
        sampled together, one s per member.  A duration that is not
        positive (zero, negative or NaN) is refused with a ValueError, so
        every caller may divide by it.
    sampler : callable
        Maps s to a Hamiltonian matrix (closed case) or to a
        :class:`LindbladGenerator` (open case).  The sampler of a sweep
        schedule maps the (R,) array of member times to a sample stacked
        over the R members.
    vectorized : bool, keyword only
        Declares an array-native sampler: it maps an (M,) array of s (an
        (M, R) node-by-member array for a sweep schedule) to the samples of
        all M nodes at once, an (M, D, D) complex stack or one
        stacked :class:`LindbladGenerator`, each node equal to the sample
        a scalar call would give.  :meth:`sample` then costs one sampler
        call, and :meth:`at` passes a one-node array and takes node 0.

    The sampler must be a pure function of s: the same s gives the same
    sample, however often and in whatever order it is called.  Callers
    rely on that to sample fewer times than a naive loop would: :func:`rk4`
    shares a step's end-node and midpoint samples between its stages, and
    ``openad.track_liouville_spectrum`` keeps the last tracked frame and
    returns it again for the same schedule, sampler, basis and grid.
    """

    tau: float
    sampler: Callable[[float], object]
    vectorized: bool = field(default=False, kw_only=True)
    members: int | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.members = None
        if np.ndim(self.tau):
            self.tau = np.asarray(self.tau, dtype=float)
            if self.tau.ndim != 1 or not self.tau.size:
                raise ValueError("a sweep schedule needs a non-empty 1-d sequence of durations")
            self.members = self.tau.size
        for tau in np.atleast_1d(self.tau).tolist():
            if not tau > 0:
                raise ValueError(f"a schedule's duration must be positive, not {tau}")

    def at(self, s: float):
        """The sample at s; a sweep schedule takes one s per member, or one s for all."""
        if self.members is None:
            s = float(s)
        else:
            s = np.asarray(s, dtype=float)
            s = s if s.shape == self.tau.shape else np.broadcast_to(s, self.tau.shape)
        if self.vectorized:
            return self.sampler(np.array([s]))[0]
        return self.sampler(s)

    def sample(self, grid: np.ndarray):
        """Samples at every s of ``grid``, stacked over the grid's M nodes.

        Matrix samples give an (M, D, D) complex array.  Generator samples
        give one stacked :class:`LindbladGenerator`; every node must then be
        a generator with the same jump count.  A jump operator that is one
        and the same (D, D) matrix at every node stays one shared matrix.
        A vectorized schedule makes one sampler call on the whole grid.  A
        scalar single-run sampler is called once per node, in grid order,
        on the Python float that :meth:`at` would pass, so a sampler error
        comes from the first failing node; matrix samples are then stacked
        in one conversion.  A scalar sweep sampler is reached through
        :meth:`at`, which broadcasts each s over the members.
        """
        if self.vectorized:
            out = self.sampler(np.asarray(grid, dtype=float))
            return out if isinstance(out, LindbladGenerator) else np.asarray(out, dtype=complex)
        if self.members is None:
            samples = list(map(self.sampler, np.asarray(grid, dtype=float).tolist()))
        else:
            samples = [self.at(s) for s in grid]
        counts = [len(g.jumps) if isinstance(g, LindbladGenerator) else None for g in samples]
        for s, n in zip(grid, counts):
            if n != counts[0]:
                what = "sample kind" if None in (n, counts[0]) else f"jump count ({counts[0]} -> {n})"
                raise ValueError(f"{what} changes at s={s}")
        if not samples or counts[0] is None:
            return np.array(samples, dtype=complex)
        jumps = []
        for n in range(counts[0]):
            rates, ops = zip(*(g.jumps[n] for g in samples))
            shared = ops[0].ndim == 2 and all(op is ops[0] for op in ops)
            jumps.append((np.array(rates), ops[0] if shared else np.array(ops)))
        return LindbladGenerator(np.array([g.hamiltonian for g in samples]), tuple(jumps))

    def generators(self, grid: np.ndarray) -> LindbladGenerator:
        """The generators at every s of ``grid`` as one stacked
        :class:`LindbladGenerator`, the one form that :func:`rk4`,
        ``thermo.build_ledger`` and ``openad.superoperator_at`` take open
        samples in: :meth:`sample`, with a bare Hamiltonian stack wrapped
        as a generator without jumps."""
        gen = self.sample(grid)
        return gen if isinstance(gen, LindbladGenerator) else LindbladGenerator(gen)

    def probe(self) -> list:
        """Spot-check sampler invariants on a coarse grid of 5 points.

        Hamiltonian samples must be Hermitian and rates non-negative, which
        a NaN rate is not; the full grid is not checked here because
        integrators already touch every point and NaNs surface immediately.
        A sweep schedule is checked member by member, in sweep order.
        Returns the 5 samples, each as a :class:`LindbladGenerator`, so a
        caller can read their jumps without sampling again.
        """
        grid = np.linspace(0.0, 1.0, 5)
        samples = [g if isinstance(g, LindbladGenerator) else LindbladGenerator(g) for g in map(self.at, grid)]
        members = [samples] if self.members is None else [[g[r] for g in samples] for r in range(self.members)]
        for member in members:
            for s, g in zip(grid, member):
                scale = max(1.0, float(np.max(np.abs(g.hamiltonian))))
                if not is_hermitian(g.hamiltonian, TOL_HERM * scale):
                    raise ValueError(f"non-Hermitian Hamiltonian sample at s={s}")
                for rate, _ in g.jumps:
                    if not rate >= 0:
                        raise ValueError(f"negative or NaN rate {rate} at s={s}")
        return samples


@dataclass(eq=False)
class Trajectory:
    """Uniform-grid time series of states plus integration diagnostics.

    A sweep's trajectory has a member axis: (n+1, R) times, (n+1, R, ...)
    states and (R,) diagnostics; :meth:`member` takes one member out.
    """

    times: np.ndarray
    states: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def member(self, r: int) -> "Trajectory":
        """Member r of a sweep, as its run on its own would return it."""
        return Trajectory(
            times=np.ascontiguousarray(self.times[:, r]),
            states=np.ascontiguousarray(self.states[:, r]),
            diagnostics={key: float(val[r]) for key, val in self.diagnostics.items()},
        )


def rk4(sample: Callable[[np.ndarray], object], y0: np.ndarray, times: np.ndarray,
        act: Callable[[object, np.ndarray], np.ndarray], unit: complex = 1.0) -> np.ndarray:
    """Fixed-step RK4 for a linear flow y' = unit * A(t) y; returns the state at every node.

    ``sample(ts)`` returns the generators A at an array of physical times
    ``ts``, stacked so that ``sample(ts)[i]`` is A(ts[i]): an (m, D, D)
    array, or the list of a stacked :class:`LindbladGenerator`'s node
    operand tuples (:attr:`LindbladGenerator.nodes`), which are sliced once
    per block where the generator's own ``gen[i]`` would build node i
    anew on every read.  ``act(a, y)``
    returns A y as a new array.  ``unit`` is a constant factor of the flow,
    folded into the step sizes once per run: -1j for the Schrodinger
    equation (``act`` a matrix-vector product, ``ndarray.dot`` for one
    run and ``matmul`` batched over a sweep's members) and for a Lindblad
    generator without jumps (``act`` = :func:`commutator`); the Lindblad
    flow with jumps (:func:`lindblad_action`) and the Jordan-block
    coefficient flow keep the default 1.  In a single run the Schrodinger
    ``act``, :func:`commutator` and the left products of
    :func:`lindblad_action` multiply through ``ndarray.dot``: the
    ``zgemv`` or ``zgemm`` that ``matmul`` calls, with its bits and at
    about half its dispatch cost.  k1 and k4 take the samples at the grid
    nodes, and k2 and k3 share the one at the step's midpoint, so n steps
    take 2n + 1 samples instead of the textbook 4n, with its arithmetic.  On a
    ``linspace`` grid the textbook's end time t + dt is the next node's
    float, because t_{k+1} - t_k is exact there (Sterbenz), so the states
    are the textbook loop's bit for bit.  The steps run in blocks of
    :data:`BLOCK`, and each block takes its samples from one ``sample``
    call in step order, [node 0,] midpoint, node, midpoint, node, ...: at
    most 2 * BLOCK + 1 samples.  The sample times and step sizes are
    formed once per :data:`READOUT_BLOCK` steps, elementwise, and each
    block copies its steps' h, h/2 and h/6 into complex arrays of one row
    per step, each row of the state's shape: the values numpy would cast a
    float step, or a sweep's (R, 1, ...) broadcast, to before each
    multiply, so the rows change no bit and no stage converts a scalar or
    broadcasts.  Neither they nor the samples cost more memory than one
    block's worth, however long the run.  ``sample`` must be a pure
    function of t.

    The stage inputs y + (h/2) k, the k-combination and the new state are
    formed into given outputs, passed positionally: one scratch buffer and
    the state's own row of the result, in the textbook's operation order,
    so they allocate nothing per step and change no bit; the 2 of
    2 (k2 + k3) is a 0-d complex 2+0j.  The states equal those of the loop
    that multiplies every ``act`` result by ``unit``, bit for bit (see the
    comment on the step sizes).

    ``times`` may also be (n+1, R), one grid per member of a sweep that
    advances in lock step: ``y0`` then has a leading (R,) member axis,
    ``sample`` gets an (m, R) array of member times and returns samples
    stacked over both axes, and each member's step broadcasts over its own
    state.  Each member's states are the ones its own run would give, bit
    for bit.  With R = 1, ``y0`` may also be the one state without a member
    axis: the (n+1, 1) grid's steps then broadcast over it as a single
    run's.

    Overflow and invalid-value warnings are silenced inside the loop: the
    update is linear, so an inf or NaN never turns finite again, and one
    check of the finished states, :data:`READOUT_BLOCK` nodes at a time,
    reports the first non-finite node as a named
    :class:`IntegrationError`.  The loop runs to the end first, so a
    sampler error at a later node wins over an earlier non-finite step.
    """
    y = np.asarray(y0, dtype=complex)
    times = np.asarray(times, dtype=float)
    n = len(times) - 1
    out = np.empty((n + 1,) + y.shape, dtype=complex)
    out[0] = y
    # The step sizes h, h/2 and h/6 carry ``unit``.  For unit = -1j this is
    # exact: multiplying by -i swaps the real and imaginary parts and flips
    # one sign, without rounding, so it commutes with the real scalings and
    # the additions of the stage formulas, component by component.  Where a
    # product is nonzero, (-i h) w and h (-i w) round to the same bits, with
    # or without FMA, because one of the two partial products of each
    # component is an exact zero; only the sign of an exact zero could
    # differ.  Scaling the samples instead, (-i A) y, would change the
    # rounding of the matrix product.
    buf = np.empty_like(y)
    add, mul = np.add, np.multiply
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(0, n, READOUT_BLOCK):
            e = min(c + READOUT_BLOCK, n)
            grid = times[c:e + 1]
            dt = grid[1:] - grid[:-1]
            # the sample times in call order: node c, then each step's
            # midpoint and end node
            ts = np.empty((2 * (e - c) + 1,) + times.shape[1:])
            ts[0::2] = grid
            ts[1::2] = grid[:-1] + 0.5 * dt
            dt = dt.reshape(dt.shape + (1,) * (y.ndim + 1 - dt.ndim))  # a step's sizes broadcast over its state
            sizes = np.stack([unit * dt, unit * (0.5 * dt), unit * (dt / 6.0)])
            for a in range(c, e, BLOCK):
                b = min(a + BLOCK, e)
                j = int(a == 0)  # where the block's first midpoint sits
                nodes = sample(ts[2 * (a - c) + 1 - j:2 * (b - c) + 1])
                if j:
                    a_end = nodes[0]
                # h, h/2 and h/6 of each step of the block, each a complex row of the state's shape
                steps = np.empty((3, b - a) + y.shape, dtype=complex)
                steps[...] = sizes[:, a - c:b - c]
                for k, h, h_half, h_sixth in zip(range(a + 1, b + 1), *steps):
                    k1 = act(a_end, y)
                    a_mid = nodes[j]
                    k2 = act(a_mid, add(y, mul(h_half, k1, buf), buf))
                    k3 = act(a_mid, add(y, mul(h_half, k2, buf), buf))
                    a_end = nodes[j + 1]
                    j += 2
                    k4 = act(a_end, add(y, mul(h, k3, buf), buf))
                    # y + h/6 (k1 + 2 (k2 + k3) + k4), in that order, straight into row k
                    add(k1, mul(_TWO, add(k2, k3, buf), buf), buf)
                    y = add(y, mul(h_sixth, add(buf, k4, buf), buf), out[k])
    for a in range(1, n + 1, READOUT_BLOCK):
        finite = np.all(np.isfinite(out[a:a + READOUT_BLOCK]), axis=tuple(range(1, out.ndim)))
        if not finite.all():
            raise IntegrationError(a + int(np.argmin(finite)), "non-finite state entries")
    return out


def evolve_unitary(h: Schedule, psi0: np.ndarray, n_steps: int) -> Trajectory:
    """Integrate the Schrödinger equation for a Hamiltonian schedule.

    The flow psi' = -i H psi runs through :func:`rk4` with ``unit`` = -1j,
    so the -i sits in the step sizes and each stage costs one
    matrix-vector product, ``act`` = ``np.ndarray.dot``: the BLAS call of
    ``H @ psi`` with its bits, without the ``matmul`` gufunc's dispatch.
    That holds for node matrices that are C- or Fortran-contiguous; a
    sampler whose node matrices are neither (the nodes of
    ``np.asfortranarray`` of a stack) may move the states at rounding
    level.  The states are those of the loop that multiplies every H psi
    by -1j, bit for bit.  States are not renormalized: the norm drift of
    the raw integrator output is a useful accuracy diagnostic and is
    reported in ``diagnostics["final_norm_deviation"]``.

    A sweep schedule integrates its R members in one lock-step :func:`rk4`
    from the same ``psi0``, each on its own grid, as :func:`evolve_lindblad`
    does: the trajectory has (n+1, R) times, (n+1, R, D) states and an (R,)
    norm deviation, and :meth:`Trajectory.member` gives each member's own
    run bit for bit.  Each stage is then one matrix-vector product per
    member, batched over the member axis by ``matmul``, since ``dot`` has
    other semantics on stacks.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 is not normalized")
    h.probe()
    times = np.linspace(0.0, h.tau, n_steps + 1)
    if h.members is None:
        y0, act = psi0, np.ndarray.dot
    else:  # (R, D, D) samples on (R, D) states, one matrix-vector product per member
        y0, act = np.stack([psi0] * h.members), lambda a, psi: (a @ psi[..., None])[..., 0]

    states = rk4(lambda t: h.sample(t / h.tau), y0, times, act, -1j)
    drift = np.array([abs(np.linalg.norm(psi) - 1.0) for psi in states[-1].reshape(-1, psi0.size)])
    return Trajectory(times=times, states=states,
                      diagnostics={"final_norm_deviation": float(drift[0]) if h.members is None else drift})


def _member_zero(gen: LindbladGenerator) -> LindbladGenerator:
    """A one-member sweep's stacked generator without its member axis: each
    part with a node and a member axis taken at member 0, each part without
    a member axis kept as it is."""
    h = gen.hamiltonian
    return LindbladGenerator(h[:, 0] if h.ndim > 3 else h,
                             tuple([(g[:, 0] if np.ndim(g) > 1 else g, op[:, 0] if op.ndim > 3 else op)
                                    for g, op in gen.jumps]))


def evolve_lindblad(l: Schedule, rho0: np.ndarray, n_steps: int) -> Trajectory:
    """Integrate a Lindblad master equation for an open schedule.

    Trace drift reaching ``TRACE_TOL`` on any grid node is an error (it
    means the step size is too coarse for the generator's fastest rate).  A
    positivity dip beyond ``TOL_POS`` is only flagged with a step-size hint
    since transient negative eigenvalues at the integrator tolerance level
    are expected.  Both guards read the states in one pass, over
    :data:`READOUT_BLOCK` nodes at a time, so they cost one block beyond the
    states; the drift, its first worst node and the minimum eigenvalue of
    (rho + rho^dag) / 2 per member are the whole run's.  Blocks after the
    drift reaches ``TRACE_TOL`` take no eigenvalues, as the run will raise.

    The probe's 5 samples pick the route.  When none of them carries a jump,
    :func:`rk4` steps the Hamiltonian stack alone, with ``act`` = :func:`commutator`
    and ``unit`` = -1j, so the -i sits in the step sizes as in
    :func:`evolve_unitary`; the states are those of :func:`lindblad_action`
    on the same samples, bit for bit, by the argument :func:`rk4` documents.
    Otherwise every stage runs through :func:`lindblad_action`, on the
    operand tuples of each block's stacked generator
    (:attr:`LindbladGenerator.nodes`), which the block builds once, not
    once per stage; ``lindblad_action`` is the module's name as
    ``evolve_lindblad`` finds it when called.  Either
    route takes its samples through :meth:`Schedule.generators`, and each
    block's jump count must be that of the sample at s = 0: a count that
    changes along s, inside a block (:meth:`Schedule.sample`) or from one
    block to the next, ends in a ValueError that names the count and the
    s where the change shows, and a jump in a later block is never dropped.

    A sweep schedule integrates its R members in one lock-step :func:`rk4`
    from the same ``rho0``, each on its own grid, and returns one
    trajectory with a member axis.  The probe, the non-finite check, the
    trace-drift raise and the positivity warning each scan the members in
    sweep order, and the first guard that trips wins, so a sweep with one
    failing member fails as that member fails on its own.  A one-member
    sweep steps as the single run it is: :func:`rk4` steps ``rho0`` as a
    2-D state on the (n+1, 1) grid, and each block's generators, sampled on
    the (m, 1) node-by-member times as for any sweep, drop their member
    axis, so :func:`lindblad_action` and :func:`commutator` take their 2-D
    ``ndarray.dot`` products in place of the stacked ``matmul``; the
    trajectory gets its member axis back.  Its states are those of its own
    single run, byte for byte, as checked at D = 2, 4 and 8 under OpenBLAS's
    SkylakeX and Haswell kernels.  They are also member 0's of a larger
    sweep under SkylakeX, and under Haswell at D = 2; under Haswell the
    stacked and the 2-D products round differently from D = 4 with jumps,
    so there they differ from member 0 at rounding level.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if not is_density_matrix(rho0):
        raise ValueError("rho0 is not a density matrix")
    probed = l.probe()
    count = len(probed[0].jumps)
    jumpless = not any(g.jumps for g in probed)
    times = np.linspace(0.0, l.tau, n_steps + 1)
    one = l.members == 1  # steps on 2-D states, as a single run
    y0 = rho0 if l.members in (None, 1) else np.stack([rho0] * l.members)

    def sample(t: np.ndarray):
        s = t / l.tau
        gen = l.generators(s)
        if len(gen.jumps) != count:
            raise ValueError(f"jump count ({count} -> {len(gen.jumps)}) changes at s={s[0]}")
        if one:
            gen = _member_zero(gen)
        return gen.hamiltonian if jumpless else gen.nodes

    if jumpless:
        states = rk4(sample, y0, times, commutator, -1j)
    else:
        states = rk4(sample, y0, times, lindblad_action)
    if one:
        states = states[:, None]
    per_member = states.reshape((len(times), -1) + rho0.shape)
    drift = np.zeros(per_member.shape[1])
    worst = np.zeros(per_member.shape[1], dtype=int)  # each member's first node of largest drift
    dips = []
    for a in range(0, len(times), READOUT_BLOCK):
        block = per_member[a:a + READOUT_BLOCK]
        deviation = np.abs(np.trace(block, axis1=-2, axis2=-1) - 1.0)
        peak = np.max(deviation, axis=0)
        worst = np.where(peak > drift, a + np.argmax(deviation, axis=0), worst)
        drift = np.maximum(drift, peak)
        if not np.any(drift >= TRACE_TOL):
            dips.append(np.min(np.linalg.eigvalsh(0.5 * (block + dagger(block))), axis=(0, 2)))
    failing = np.flatnonzero(drift >= TRACE_TOL)
    if failing.size:
        r = failing[0]
        raise IntegrationError(int(worst[r]), f"trace drift {drift[r]:.3e} exceeds {TRACE_TOL:.1e}")
    min_eig = np.min(dips, axis=0)
    for dip in min_eig[min_eig < -TOL_POS]:
        warnings.warn(
            f"positivity dip {dip:.3e} beyond tolerance; "
            f"try n_steps={2 * n_steps}",
            RuntimeWarning,
        )
    if l.members is None:
        drift, min_eig = float(drift[0]), float(min_eig[0])
    return Trajectory(times=times, states=states,
                      diagnostics={"trace_drift": drift, "min_eigenvalue": min_eig})


def difference_points(s: float | np.ndarray) -> tuple:
    """The two s-points (lo, hi) of a finite difference at s in [0, 1], or
    at every s of an array: s -+ 1e-6, clipped to the interval, so the
    difference is central inside and one-sided at the ends.  Callers divide
    by their own (hi - lo)."""
    return np.maximum(0.0, s - 1e-6), np.minimum(1.0, s + 1e-6)


def frame_transform(h: Schedule, o: Callable[[np.ndarray], np.ndarray],
                    o_dot: Callable[[np.ndarray], np.ndarray]) -> Schedule:
    """Move a Hamiltonian schedule into the frame defined by O(t).

    Returns the vectorized schedule of H_O = O H O^dag + i (dO/dt) O^dag.
    ``o`` maps an (M,) array of s to the (M, D, D) stack of frame
    unitaries, and ``o_dot`` to the stack of their physical-time
    derivatives.  Every sampled node must be unitary, and the second term
    Hermitian: it is symmetrized when the asymmetry is at rounding level
    and rejected otherwise.  Both checks run over the sampled stack and
    name the first failing s.
    """

    def sampler(s: np.ndarray) -> np.ndarray:
        u = np.asarray(o(s), dtype=complex)
        unitary = is_unitary(u)
        if not np.all(unitary):
            raise ValueError(f"frame map is not unitary at s={float(s[np.argmin(unitary)])}")
        ham = h.sample(s)
        pot = 1j * (np.asarray(o_dot(s), dtype=complex) @ dagger(u))
        scale = np.maximum(1.0, np.maximum(np.max(np.abs(pot), axis=(1, 2)), np.max(np.abs(ham), axis=(1, 2))))
        asym = np.max(np.abs(pot - dagger(pot)), axis=(1, 2))
        bad = np.flatnonzero(asym > 1e-6 * scale)
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"i*dO/dt*O^dag deviates from Hermitian by {asym[k]:.2e} at s={float(s[k])}; "
                "check the supplied o_dot"
            )
        return u @ ham @ dagger(u) + 0.5 * (pot + dagger(pot))

    return Schedule(tau=h.tau, sampler=sampler, vectorized=True)


def nmr_closed_form_p0(omega0: float, omega1: float, omega: float, t) -> np.ndarray:
    """Survival probability of the rotating-field model's initial eigenstate.

    Parameters are angular frequencies in rad/s; ``t`` may be an array.
    With r = omega/omega0 and tan(theta) = omega1/omega0 the probability is

        p0(t) = 1 - [tan^2(theta) / ((1-r)^2 + tan^2(theta))]
                    * sin^2(Omega t / 2),
        Omega = omega0 * sqrt((1-r)^2 + tan^2(theta)).
    """
    if omega0 == 0:
        raise ValueError("omega0 must be nonzero")
    r = omega / omega0
    tan_theta = omega1 / omega0
    denom = (1.0 - r) ** 2 + tan_theta**2
    rabi = omega0 * np.sqrt(denom)
    t = np.asarray(t, dtype=float)
    return 1.0 - (tan_theta**2 / denom) * np.sin(0.5 * rabi * t) ** 2


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ dagger(vecs)


def fidelity(rho1: np.ndarray, rho2: np.ndarray):
    """Uhlmann fidelity Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) of two density
    matrices.

    Stacks of density matrices (..., D, D) broadcast against each other
    and give an array of fidelities; two single states give a float.
    """
    for rho in (rho1, rho2):
        if np.linalg.eigvalsh(0.5 * (rho + dagger(rho))).min() < -TOL_POS:
            raise ValueError("input is not positive semidefinite within tolerance")
    s1 = _sqrtm_psd(rho1)
    inner = s1 @ rho2 @ s1
    vals = np.clip(np.linalg.eigvalsh(0.5 * (inner + dagger(inner))), 0.0, None)
    out = np.sum(np.sqrt(vals), axis=-1)
    return float(out) if out.ndim == 0 else out


def pure_state_density(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| of a normalized amplitude vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, np.conj(psi))
