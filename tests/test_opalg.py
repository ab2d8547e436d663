import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatic_lab.dynamics import LindbladGenerator, Schedule, evolve_lindblad
from adiabatic_lab.opalg import (
    LinearityError,
    OperatorBasis,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    combine_components,
    dagger,
    from_coherence_vector,
    is_density_matrix,
    is_hermitian,
    is_unitary,
    pauli_basis,
    superoperator_matrix,
    to_coherence_vector,
)

RNG = np.random.default_rng(20260815)


def random_density(dim: int, rng=RNG) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ dagger(a)
    return rho / np.trace(rho)


def test_pauli_basis_orthogonality_one_and_two_qubits():
    for n in (1, 2):
        basis = pauli_basis(n)
        els = np.array(basis.elements)
        gram = np.array([[np.vdot(b, a) for b in els] for a in els])  # Tr(a b^dag)
        assert np.max(np.abs(gram - basis.dim * np.eye(len(els)))) < 1e-12
        assert basis.labels[0] == "I" * n
        assert len(basis.elements) == 4**n


def test_pauli_basis_guard():
    with pytest.raises(ValueError):
        pauli_basis(0)
    with pytest.raises(ValueError, match="MAX_QUBITS=4"):
        pauli_basis(5)


def test_basis_rejects_non_identity_first():
    with pytest.raises(ValueError):
        OperatorBasis(dim=2, elements=(SIGMA_X, SIGMA_Y, SIGMA_Z, np.eye(2)),
                      labels=("X", "Y", "Z", "I"))


def test_coherence_roundtrip_identity_component():
    basis = pauli_basis(1)
    rho = random_density(2)
    vec = to_coherence_vector(rho, basis)
    assert abs(vec[0] - 1.0) < 1e-12
    back = from_coherence_vector(vec, basis)
    assert np.max(np.abs(back - rho)) < 1e-12


def test_coherence_roundtrip_general_operator():
    basis = pauli_basis(2)
    op = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    vec = to_coherence_vector(op, basis)
    back = combine_components(vec, basis)
    assert np.max(np.abs(back - op)) < 1e-12


def test_superoperator_commutator_matrix_and_trace_row():
    basis = pauli_basis(1)
    h = 0.3 * SIGMA_Z + 0.7 * SIGMA_X

    sup = superoperator_matrix(lambda op: -1j * (h @ op - op @ h), basis)
    assert sup.trace_preserving
    # -i[H, .] with H = a Z + b X in the (I,X,Y,Z) component basis
    want = np.zeros((4, 4))
    want[1, 2], want[2, 1] = -2 * 0.3, 2 * 0.3  # Z part rotates x <-> y
    want[2, 3], want[3, 2] = -2 * 0.7, 2 * 0.7  # X part rotates y <-> z
    assert np.max(np.abs(sup.matrix - want)) < 1e-12


def test_superoperator_application_matches_direct_action():
    basis = pauli_basis(1)
    h = 0.4 * SIGMA_Y + 1.1 * SIGMA_Z

    def gen(op):
        return -1j * (h @ op - op @ h) + 0.2 * (SIGMA_Z @ op @ SIGMA_Z - op)

    sup = superoperator_matrix(gen, basis)
    rho = random_density(2)
    back = combine_components(sup.matrix @ to_coherence_vector(rho, basis), basis)
    assert np.max(np.abs(back - gen(rho))) < 1e-10


def test_superoperator_rejects_nonlinear_map():
    basis = pauli_basis(1)
    with pytest.raises(ValueError, match="linearity"):
        superoperator_matrix(lambda op: op @ op, basis)
    # a stack of maps, linear (zero) on nodes 0 and 1 only
    weights = np.array([0.0, 0.0, 1.0, 1.0])[:, None, None]
    with pytest.raises(LinearityError, match="probe at node 2$") as err:
        superoperator_matrix(lambda ops: weights * (ops @ ops)[:, None], basis)
    assert err.value.node == 2


def test_density_matrix_detector():
    assert is_density_matrix(random_density(3))
    assert not is_density_matrix(np.eye(2))  # trace 2
    assert not is_density_matrix(np.array([[1.5, 0], [0, -0.5]]))  # negative
    assert not is_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # non-Hermitian


def test_unitary_and_hermitian_detectors():
    assert is_hermitian(SIGMA_Y)
    assert not is_hermitian(SIGMA_X + 1j * np.eye(2))
    assert is_unitary(SIGMA_X)
    assert not is_unitary(2.0 * np.eye(2))
    assert not is_unitary(np.eye(2, 3))  # orthonormal rows, not square
    # one verdict per matrix of a stack
    verdicts = is_unitary(np.array([SIGMA_X, 2.0 * np.eye(2), SIGMA_Y]))
    assert verdicts.dtype == bool and verdicts.tolist() == [True, False, True]
    assert is_unitary(np.zeros((4, 2, 3))).tolist() == [False] * 4


def test_empty_matrix_gets_a_verdict():
    """The 0x0 matrix is Hermitian and unitary but, with trace 0, not a
    state, so an open run from it fails on its named rho0 check."""
    empty = np.zeros((0, 0))
    assert is_hermitian(empty)
    assert is_unitary(empty)
    assert not is_density_matrix(empty)
    sched = Schedule(1.0, lambda s: LindbladGenerator(empty))
    with pytest.raises(ValueError, match="^rho0 is not a density matrix$"):
        evolve_lindblad(sched, empty, 4)


def test_vector_shape_validation():
    basis = pauli_basis(1)
    with pytest.raises(ValueError):
        from_coherence_vector(np.zeros(3), basis)
    with pytest.raises(ValueError):
        to_coherence_vector(np.eye(3), basis)
    with pytest.raises(ValueError):
        to_coherence_vector(np.zeros((5, 2, 3)), basis)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_stacked_coherence_vectors_match_np_vdot(n_qubits):
    """A stack expands node by node, each component the bits of np.vdot."""
    basis = pauli_basis(n_qubits)
    dim = basis.dim
    ops = RNG.normal(size=(3, 7, dim, dim)) + 1j * RNG.normal(size=(3, 7, dim, dim))
    got = to_coherence_vector(ops, basis)
    want = np.array([[[np.vdot(sig, op) for sig in basis.elements] for op in row] for row in ops])
    assert got.shape == (3, 7, dim**2) and got.tobytes() == want.tobytes()
    assert to_coherence_vector(ops[1, 2], basis).tobytes() == want[1, 2].tobytes()
    vecs = to_coherence_vector(ops, basis)
    for rebuild in (from_coherence_vector, combine_components):
        back = rebuild(vecs, basis)
        each = [rebuild(to_coherence_vector(op, basis), basis) for op in ops[2]]
        assert np.array_equal(back[2], each)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    basis = pauli_basis(1)
    rho = random_density(2, rng)
    back = from_coherence_vector(to_coherence_vector(rho, basis), basis)
    assert np.max(np.abs(back - rho)) < 1e-12
    assert is_density_matrix(back)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_lindblad_superoperator_trace_row_property(seed):
    """Any (H, single jump) generator must produce a vanishing identity row."""
    rng = np.random.default_rng(seed)
    basis = pauli_basis(1)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.5 * (a + dagger(a))
    j = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

    def gen(op):
        jd = dagger(j)
        return -1j * (h @ op - op @ h) + j @ op @ jd - 0.5 * (jd @ j @ op + op @ jd @ j)

    assert superoperator_matrix(gen, basis).trace_preserving
