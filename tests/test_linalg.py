import numpy as np
import pytest

from sqkd import linalg


def test_tensor_identity():
    assert np.allclose(linalg.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_basis_bookkeeping():
    # |0> (x) |1> is basis vector 1 of the 4-dim joint space (qubit-major)
    v = linalg.tensor(linalg.basis_state(2, 0), linalg.basis_state(2, 1))
    assert np.allclose(v, linalg.basis_state(4, 1))


def test_tensor_projector_eigenvector():
    plus_proj = linalg.projector(linalg.ket_plus())
    state = linalg.tensor(linalg.ket_plus(), linalg.basis_state(2, 0))
    assert np.allclose(linalg.tensor(plus_proj, np.eye(2)) @ state, state)


def test_tensor_associative_and_bilinear():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        left = linalg.tensor(linalg.tensor(a, b), c)
        right = linalg.tensor(a, linalg.tensor(b, c))
        assert np.max(np.abs(left - right)) <= 1e-12
        s, t = rng.standard_normal(2)
        lin = linalg.tensor(s * a + t * b, c)
        split = s * linalg.tensor(a, c) + t * linalg.tensor(b, c)
        assert np.max(np.abs(lin - split)) <= 1e-12


def test_partial_trace_product_state():
    rho_k = linalg.random_density(3, 5)
    joint = linalg.tensor(linalg.projector(linalg.basis_state(2, 0)), rho_k)
    assert np.allclose(linalg.partial_trace_qubit(joint), rho_k)


def test_partial_trace_bell_state():
    bell = (linalg.basis_state(4, 0) + linalg.basis_state(4, 3)) / np.sqrt(2)
    assert np.allclose(linalg.partial_trace_qubit(linalg.projector(bell)), np.eye(2) / 2)


def test_partial_trace_against_direct_summation():
    # independent oracle: explicit index summation over the qubit
    rng = np.random.default_rng(42)
    for d in (2, 3, 4):
        rho = linalg.random_density(2 * d, rng)
        expected = np.zeros((d, d), dtype=complex)
        for k in range(d):
            for l in range(d):
                for q in range(2):
                    expected[k, l] += rho[q * d + k, q * d + l]
        got = linalg.partial_trace_qubit(rho)
        assert np.max(np.abs(got - expected)) <= 1e-14
        assert abs(np.trace(got) - np.trace(rho)) <= 1e-12


def test_partial_trace_tensor_factorization():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        got = linalg.partial_trace_qubit(linalg.tensor(a, b))
        assert np.max(np.abs(got - np.trace(a) * b)) <= 1e-12


def test_partial_trace_odd_dimension_rejected():
    with pytest.raises(ValueError, match="not 2"):
        linalg.partial_trace_qubit(np.eye(3))


@pytest.mark.parametrize(
    "matrix,expected",
    [
        (np.eye(5), 1.0),
        (np.outer(linalg.basis_state(2, 0), linalg.basis_state(2, 1)), 1.0),
        (np.diag([0.3, -2.0]), 2.0),
    ],
)
def test_operator_norm_values(matrix, expected):
    assert abs(linalg.operator_norm(matrix) - expected) <= 1e-12


def test_operator_norm_submultiplicative_and_unitarily_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        na, nb, nab = linalg.operator_norm(a), linalg.operator_norm(b), linalg.operator_norm(a @ b)
        assert nab <= na * nb * (1 + 1e-9)
        u = linalg.haar_unitary(4, rng)
        assert abs(linalg.operator_norm(u @ a) - na) <= 1e-9 * na
        assert abs(linalg.operator_norm(a @ u) - na) <= 1e-9 * na


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 6, 8):
        u = linalg.haar_unitary(dim, rng)
        assert linalg.unitary_deviation(u) <= 1e-10


def test_haar_unitary_dim_one_is_a_phase():
    u = linalg.haar_unitary(1, 19)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_unitary_seed_determinism():
    assert np.array_equal(linalg.haar_unitary(4, 123), linalg.haar_unitary(4, 123))


def test_haar_unitary_first_moment():
    # E|U_00|^2 = 1/dim for the Haar measure; Monte-Carlo at dim 2
    u = linalg.haar_from_ginibre(linalg.ginibre(np.random.default_rng(2024), 100_000, 2))
    rng = np.random.default_rng(2024)  # the same draws, one unitary at a time
    assert all(np.array_equal(linalg.haar_unitary(2, rng), u[k]) for k in range(1000))
    assert abs(np.mean(np.abs(u[:, 0, 0]) ** 2) - 0.5) <= 0.01


def test_validity_checks():
    assert linalg.is_positive(np.diag([0.0, 1.0]))
    assert not linalg.is_positive(np.diag([-0.1, 1.0]))
    with pytest.raises(ValueError, match="deviation"):
        linalg.check_unitary(np.eye(2) * 1.1)


def test_clamp_probability():
    assert linalg.clamp_probability(-1e-13) == 0.0
    assert linalg.clamp_probability(1.0 + 1e-13) == 1.0
    with pytest.raises(ValueError):
        linalg.clamp_probability(1.1)


def test_checks_reject_nan():
    with pytest.raises(ValueError, match="nan"):
        linalg.check_unitary(np.full((2, 2), np.nan), name="V")
    with pytest.raises(ValueError, match="nan"):
        linalg.check_normalized(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="not a probability"):
        linalg.clamp_probability(float("nan"))
