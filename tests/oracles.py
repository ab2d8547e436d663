"""Reference implementations that the tests compare the package against.

One definition per oracle: a reference that two or more test modules use,
or a second form of an algorithm that the tests check against, lives here
and nowhere else.  A helper that only one module uses, and that is not a
second form of a shared algorithm, stays in that module.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from adiabatic_lab.dynamics import Schedule
from adiabatic_lab.opalg import SIGMA_X, SIGMA_Y, SIGMA_Z, OperatorBasis, dagger
from adiabatic_lab.spectral import frame_from_functions


def same_bits(a, b):
    """np.array_equal, and the same bytes: array_equal takes -0.0 for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def per_node(fn, dtype=None):
    """A sampler of an array of points from ``fn`` of one point: ``fn`` at
    each point in order, as ``dtype``, stacked."""
    return lambda s: np.array([np.asarray(fn(x), dtype=dtype) for x in s])


def rk4_reference(sample, y0, times, act):
    """Textbook RK4 for y' = A(t) y: A at each step's start node, twice at
    its midpoint and at its end node, and a fresh array for every stage and
    state.  ``sample(ts)`` stacks A over an array of times.  ``times`` may
    be a sweep's (n+1, R) member grids, ``y0`` then carrying the member
    axis, and each member's step broadcasts over its own state."""
    y = np.asarray(y0, dtype=complex)
    dt = times[1:] - times[:-1]
    ts = np.empty((2 * len(dt) + 1,) + times.shape[1:])
    ts[0::2], ts[1::2] = times, times[:-1] + 0.5 * dt
    nodes = sample(ts)
    if times.ndim > 1:
        dt = dt.reshape(dt.shape + (1,) * (y.ndim - 1))
    out = [y]
    for k, h in enumerate(dt):
        k1 = act(nodes[2 * k], y)
        k2 = act(nodes[2 * k + 1], y + 0.5 * h * k1)
        k3 = act(nodes[2 * k + 1], y + 0.5 * h * k2)
        k4 = act(nodes[2 * k + 2], y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(y)
    return np.array(out)


def lindblad_action_per_call(gen, rho):
    """Reference lindblad_action: a loop over the channels that forms
    J^dag and J^dag J on every call."""
    h = gen.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for rate, jump in gen.jumps:
        jd = dagger(jump)
        jdj = jd @ jump
        scale = rate[..., None, None] if np.ndim(rate) else rate
        out += scale * (jump @ rho @ jd - 0.5 * (jdj @ rho + rho @ jdj))
    return out


def nmr_lab_schedule(w0, w1, w, tau):
    """The scalar lab-frame NMR drive: splitting w0 along z and a transverse
    field w1 rotating at w, all in rad/s, over a duration tau."""

    def sampler(s):
        t = s * tau
        return 0.5 * w0 * SIGMA_Z + 0.5 * w1 * (np.cos(w * t) * SIGMA_X + np.sin(w * t) * SIGMA_Y)

    return Schedule(tau, sampler)


def gell_mann_basis():
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


def track_eigenvectors_per_node(vals, vecs, first, costs):
    """The per-node eigenvector tracker: every node's assignment solved on
    the cost from the previous node's gauge-fixed columns, then each column
    phase-fixed against its predecessor.  Appends each node's cost to
    ``costs``."""
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
        row, col = linear_sum_assignment(cost)
        order[k, row] = col
        v = vecs[k][:, order[k]]
        ov = np.einsum("ia,ia->a", np.conj(prev), v)
        ov[np.abs(ov) < 1e-12] = 1.0
        out[k] = v / (ov / np.abs(ov))[None, :]
    return order, out


def frame_per_node(tau, n_points, energy_fn, vector_fn, dvector_fn=None):
    """frame_from_functions on scalar closures of s, evaluated node by node
    on the np.float64 grid points, as the array-native frames replaced."""
    return frame_from_functions(tau, n_points, lambda s: (
        per_node(energy_fn, float)(s),
        per_node(vector_fn, complex)(s),
        None if dvector_fn is None else per_node(dvector_fn, complex)(s),
    ))
