"""Operator algebra: Pauli string bases, coherence vectors, superoperator matrices.

States and generators are represented in a traceless operator basis whose
first element is the identity.  A density matrix expands as

    rho = (1/D) * sum_n  c_n sigma_n,     c_n = Tr(rho sigma_n^dag),

so the identity component of any valid state is exactly 1.  Linear maps on
operators become D^2 x D^2 matrices acting on the component vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL_HERM = 1e-10
TOL_TR = 1e-10
TOL_POS = 1e-9
TOL_ORTH = 1e-12
# dense-basis guard: the largest Pauli basis that pauli_basis builds
MAX_QUBITS = 4

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULI_BY_LETTER = {"I": SIGMA_0, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack (..., D, D)."""
    return np.conj(a).swapaxes(-1, -2)


def stack_2x2(a, b, c, d) -> np.ndarray:
    """The matrices [[a, b], [c, d]] of broadcastable entries, as a
    (..., 2, 2) stack over the entries' broadcast shape."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.stack((np.stack((a, b), axis=-1), np.stack((c, d), axis=-1)), axis=-2)


def is_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> bool:
    """Max-entry Hermiticity test; an empty matrix passes."""
    a = np.asarray(a)
    return bool(np.max(np.abs(a - dagger(a)), initial=0.0) < tol)


def is_unitary(u: np.ndarray):
    """Max-entry unitarity test against u u^dag = 1; a non-square matrix is
    never unitary, even when its rows are orthonormal, and the 0x0 matrix
    is.  A bool for one matrix, one verdict per matrix for a stack
    (..., D, D)."""
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        ok = np.zeros(u.shape[:-2], dtype=bool)
    else:
        ok = np.max(np.abs(u @ dagger(u) - np.eye(u.shape[-1])), axis=(-2, -1), initial=0.0) < 1e-10
    return bool(ok) if ok.ndim == 0 else ok


def is_density_matrix(rho: np.ndarray) -> bool:
    """Check Hermiticity, unit trace and positivity within tolerances.

    The positivity tolerance is looser than the others on purpose: states
    coming out of a fixed-step integrator accumulate a small negative
    eigenvalue drift that is diagnosed, not rejected.  The 0x0 matrix has
    trace 0, so it is not a state.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if not is_hermitian(rho):
        return False
    if abs(np.trace(rho) - 1.0) >= TOL_TR:
        return False
    evals = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    return bool(evals.min() >= -TOL_POS)


@dataclass(eq=False)
class OperatorBasis:
    """Traceless operator basis with the identity as element zero.

    Parameters
    ----------
    dim : int
        Hilbert-space dimension D.
    elements : tuple of ndarray
        D^2 basis operators, identity first, each D x D.
    labels : tuple of str
        Human-readable names, aligned with ``elements``.

    Notes
    -----
    Elements obey Tr(sigma_n sigma_m^dag) = D delta_nm; construction checks
    the size, the identity element and tracelessness.
    """

    dim: int
    elements: tuple
    labels: tuple

    def __post_init__(self) -> None:
        if len(self.elements) != self.dim**2:
            raise ValueError(
                f"need {self.dim ** 2} elements for dim {self.dim}, "
                f"got {len(self.elements)}"
            )
        if np.max(np.abs(self.elements[0] - np.eye(self.dim))) > TOL_ORTH:
            raise ValueError("element 0 must be the identity")
        for n in range(1, len(self.elements)):
            if abs(np.trace(self.elements[n])) > TOL_ORTH:
                raise ValueError(f"element {n} ({self.labels[n]}) is not traceless")


def pauli_basis(n_qubits: int) -> OperatorBasis:
    """Tensor-product Pauli-string basis for ``n_qubits`` qubits.

    Strings are ordered lexicographically in (I, X, Y, Z) per site, so the
    all-identity string comes first.  Dimension guard rejects more than
    ``MAX_QUBITS`` qubits.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if n_qubits > MAX_QUBITS:
        raise ValueError(
            f"n_qubits={n_qubits} exceeds the dense-basis guard MAX_QUBITS={MAX_QUBITS}"
        )
    labels = ["".join(t) for t in itertools.product("IXYZ", repeat=n_qubits)]
    elements = []
    for lab in labels:
        op = np.eye(1, dtype=complex)
        for letter in lab:
            op = np.kron(op, _PAULI_BY_LETTER[letter])
        elements.append(op)
    return OperatorBasis(dim=2**n_qubits, elements=tuple(elements), labels=tuple(labels))


@dataclass(eq=False)
class CoherenceVector:
    """Component vector of an operator in an :class:`OperatorBasis`, or a
    stack (..., D^2) of them, one per node."""

    components: np.ndarray
    basis: OperatorBasis

    def __post_init__(self) -> None:
        self.components = np.asarray(self.components, dtype=complex)
        if self.components.shape[-1:] != (self.basis.dim**2,):
            raise ValueError(
                f"expected {self.basis.dim ** 2} components, "
                f"got shape {self.components.shape}"
            )


def to_coherence_vector(rho: np.ndarray, basis: OperatorBasis) -> CoherenceVector:
    """Expand an operator over the basis, components c_n = Tr(rho sigma_n^dag).

    A stack of operators (..., D, D) gives a stack of component vectors
    (..., D^2).  Each component is one batched 1 x D^2 by D^2 x 1 product,
    the same BLAS dot that ``np.vdot`` runs, as in
    :func:`superoperator_matrix`.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (basis.dim, basis.dim):
        raise ValueError(f"operator shape {rho.shape} does not match dim {basis.dim}")
    d2 = basis.dim**2
    sig = np.conj(np.array(basis.elements).reshape(d2, 1, d2))
    comps = (sig @ rho.reshape(rho.shape[:-2] + (1, d2, 1)))[..., 0, 0]
    return CoherenceVector(components=comps, basis=basis)


def from_coherence_vector(v: CoherenceVector) -> np.ndarray:
    """Reconstruct the state (1/D) sum_n c_n sigma_n, or a stack of them.

    The identity coefficient is pinned to 1, the value any density matrix
    must carry in this convention; :func:`combine_components` rebuilds
    general (traceless or non-state) operators such as generator outputs.
    """
    comps = v.components.copy()
    comps[..., 0] = 1.0
    return combine_components(comps, v.basis)


def combine_components(comps: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """(1/D) sum_n c_n sigma_n for components (..., D^2), summed in basis
    order; a stack of component vectors gives a stack (..., D, D)."""
    comps = np.asarray(comps)
    out = np.zeros(comps.shape[:-1] + (basis.dim, basis.dim), dtype=complex)
    for n, sig in enumerate(basis.elements):
        out += comps[..., n, None, None] * sig
    return out / basis.dim


@dataclass(eq=False)
class Superoperator:
    """Matrix representation of a linear operator map in a fixed basis.

    ``matrix`` may be a stack (..., D^2, D^2) of such maps, one per node;
    ``trace_preserving`` is then an array of per-node flags.
    """

    matrix: np.ndarray
    trace_preserving: bool | np.ndarray


class LinearityError(ValueError):
    """A generator failed the linearity probe of :func:`superoperator_matrix`;
    ``node`` is the index of the first failing node of a stack (None for one)."""

    def __init__(self, node: int | None):
        where = "" if node is None else f" at node {node}"
        super().__init__(f"generator failed the linearity probe{where}")
        self.node = node


def superoperator_matrix(
    generator: Callable[[np.ndarray], np.ndarray],
    basis: OperatorBasis,
) -> Superoperator:
    """Build the matrix of a linear map L on operators.

    Parameters
    ----------
    generator : callable
        Maps a stack of operators (N, D, D) to their images, called once
        on the N = D^2 + 1 stack of the basis elements followed by a
        superposition of two of them, which probes linearity and rejects
        non-linear maps.  It returns (N, D, D) for one map, or
        (N, ..., D, D) for a stack of maps, one per node of the middle
        axes.
    basis : OperatorBasis
        Expansion basis.

    Returns
    -------
    Superoperator
        Matrix with entries M[k, i] = (1/D) Tr(sigma_k^dag L[sigma_i]),
        stacked (..., D^2, D^2) over the nodes of a stacked map.  Applying
        it to a component vector reproduces the components of L[rho].
        The trace-preserving flag is set when the identity row vanishes,
        which is the matrix-level statement of d/dt Tr(rho) = 0; the probe
        and the flag are per node, and a probe failure raises
        :class:`LinearityError` naming the first failing node.
    """
    dim, d2 = basis.dim, basis.dim**2
    elements = np.array(basis.elements)
    # linearity probe with fixed, reproducible coefficients
    a, b = 0.7 - 0.3j, -1.1 + 0.2j
    i1, i2 = 1, min(2, d2 - 1)
    images = np.asarray(generator(np.concatenate([elements, [a * elements[i1] + b * elements[i2]]])))
    lead = images.shape[1:-2]
    lhs = images[d2]
    rhs = a * images[i1] + b * images[i2]
    scale = np.maximum(1.0, np.max(np.abs(rhs), axis=(-2, -1)))
    bad = np.ravel(np.max(np.abs(lhs - rhs), axis=(-2, -1)) > 1e-9 * scale)
    if bad.any():
        raise LinearityError(int(np.argmax(bad)) if lead else None)

    # Gram entries Tr(sigma_k^dag L[sigma_i]), each the same BLAS dot np.vdot runs
    flat = np.moveaxis(images[:d2], 0, -3).reshape(lead + (d2, d2))
    gram = (np.conj(elements.reshape(d2, d2))[:, None, None, :] @ flat[..., None, :, :, None])
    mat = gram[..., 0, 0] / dim
    # relative to the matrix scale, so rad/s-sized generators don't lose
    # the flag to float roundoff
    scale = np.maximum(1.0, np.max(np.abs(mat), axis=(-2, -1)))
    tp = np.max(np.abs(mat[..., 0, :]), axis=-1) < 1e-12 * scale
    return Superoperator(matrix=mat, trace_preserving=tp if lead else bool(tp))

