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
from typing import Callable, Sequence

import numpy as np

TOL_HERM = 1e-10
TOL_TR = 1e-10
TOL_POS = 1e-9
TOL_ORTH = 1e-12

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULI_BY_LETTER = {"I": SIGMA_0, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack (..., D, D)."""
    return np.swapaxes(np.conj(np.asarray(a)), -1, -2)


def is_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> bool:
    """Max-entry Hermiticity test."""
    a = np.asarray(a)
    return bool(np.max(np.abs(a - dagger(a))) < tol)


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    """Max-entry unitarity test against u u^dag = 1."""
    u = np.asarray(u)
    return bool(np.max(np.abs(u @ dagger(u) - np.eye(u.shape[0]))) < tol)


def is_density_matrix(
    rho: np.ndarray,
    tol_herm: float = TOL_HERM,
    tol_tr: float = TOL_TR,
    tol_pos: float = TOL_POS,
) -> bool:
    """Check Hermiticity, unit trace and positivity within tolerances.

    The positivity tolerance is looser than the others on purpose: states
    coming out of a fixed-step integrator accumulate a small negative
    eigenvalue drift that is diagnosed, not rejected.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if not is_hermitian(rho, tol_herm):
        return False
    if abs(np.trace(rho) - 1.0) >= tol_tr:
        return False
    evals = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    return bool(evals.min() >= -tol_pos)


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
    Elements obey Tr(sigma_n sigma_m^dag) = D delta_nm; the cheap structural
    checks run at construction, the full pairwise orthogonality check is in
    :meth:`validate_orthogonality` because it is quadratic in basis size.
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

    def validate_orthogonality(self, tol: float = TOL_ORTH) -> None:
        """Exhaustive pairwise check of Tr(sigma_n sigma_m^dag) = D delta_nm."""
        for n, a in enumerate(self.elements):
            for m, b in enumerate(self.elements):
                got = np.vdot(b, a)  # Tr(b^dag a) = Tr(a b^dag)
                want = self.dim if n == m else 0.0
                if abs(got - want) > tol:
                    raise ValueError(
                        f"orthogonality failure at ({n},{m}): {got} != {want}"
                    )

    def same_as(self, other: "OperatorBasis") -> bool:
        return self is other or (self.dim == other.dim and self.labels == other.labels)


def pauli_basis(n_qubits: int, max_qubits: int = 4) -> OperatorBasis:
    """Tensor-product Pauli-string basis for ``n_qubits`` qubits.

    Strings are ordered lexicographically in (I, X, Y, Z) per site, so the
    all-identity string comes first.  Dimension guard rejects more than
    ``max_qubits`` qubits; raise the cap explicitly if you really want a
    bigger dense basis.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if n_qubits > max_qubits:
        raise ValueError(
            f"n_qubits={n_qubits} exceeds the dense-basis guard max_qubits={max_qubits}"
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
    """Component vector of an operator in an :class:`OperatorBasis`."""

    components: np.ndarray
    basis: OperatorBasis

    def __post_init__(self) -> None:
        self.components = np.asarray(self.components, dtype=complex)
        if self.components.shape != (self.basis.dim**2,):
            raise ValueError(
                f"expected {self.basis.dim ** 2} components, "
                f"got shape {self.components.shape}"
            )


def to_coherence_vector(rho: np.ndarray, basis: OperatorBasis) -> CoherenceVector:
    """Expand an operator over the basis, components c_n = Tr(rho sigma_n^dag)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (basis.dim, basis.dim):
        raise ValueError(f"operator shape {rho.shape} does not match dim {basis.dim}")
    comps = np.array([np.vdot(sig, rho) for sig in basis.elements])
    return CoherenceVector(components=comps, basis=basis)


def from_coherence_vector(
    v: CoherenceVector, normalize_trace: bool = True
) -> np.ndarray:
    """Reconstruct the operator (1/D) sum_n c_n sigma_n.

    With ``normalize_trace`` the identity coefficient is pinned to 1, the
    value any density matrix must carry in this convention.  Pass ``False``
    to rebuild general (traceless or non-state) operators such as generator
    outputs.
    """
    comps = v.components.copy()
    if normalize_trace:
        comps[0] = 1.0
    dim = v.basis.dim
    out = np.zeros((dim, dim), dtype=complex)
    for c, sig in zip(comps, v.basis.elements):
        out += c * sig
    return out / dim


@dataclass(eq=False)
class Superoperator:
    """Matrix representation of a linear operator map in a fixed basis."""

    matrix: np.ndarray
    basis: OperatorBasis
    trace_preserving: bool

    def apply(self, v: CoherenceVector) -> CoherenceVector:
        if not self.basis.same_as(v.basis):
            raise ValueError("basis mismatch between superoperator and vector")
        return CoherenceVector(self.matrix @ v.components, self.basis)


def superoperator_matrix(
    generator: Callable[[np.ndarray], np.ndarray],
    basis: OperatorBasis,
    linearity_tol: float = 1e-9,
) -> Superoperator:
    """Build the matrix of a linear map L on operators.

    Parameters
    ----------
    generator : callable
        Maps a D x D operator to a D x D operator.  Must be linear; a
        superposition probe on two basis elements rejects non-linear maps.
    basis : OperatorBasis
        Expansion basis.

    Returns
    -------
    Superoperator
        Matrix with entries M[k, i] = (1/D) Tr(sigma_k^dag L[sigma_i]).
        Applying it to a component vector reproduces the components of
        L[rho].  The trace-preserving flag is set when the identity row
        vanishes, which is the matrix-level statement of d/dt Tr(rho) = 0.
    """
    dim = basis.dim
    # linearity probe with fixed, reproducible coefficients
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
    # relative to the matrix scale, so rad/s-sized generators don't lose
    # the flag to float roundoff
    scale = max(1.0, float(np.max(np.abs(mat))))
    tp = bool(np.max(np.abs(mat[0, :])) < 1e-12 * scale)
    return Superoperator(matrix=mat, basis=basis, trace_preserving=tp)


def hs_inner(a: CoherenceVector, b: CoherenceVector) -> complex:
    """Hilbert-Schmidt inner product Tr(xi_a^dag xi_b) from components.

    Componentwise this is (1/D) sum_n conj(a_n) b_n; for a state paired
    with itself it returns the purity (1 for pure states, 1/D for the
    maximally mixed state).
    """
    if not a.basis.same_as(b.basis):
        raise ValueError("coherence vectors use different bases")
    return complex(np.vdot(a.components, b.components) / a.basis.dim)
