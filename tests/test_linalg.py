import numpy as np
import pytest

import sqkd
from sqkd import linalg


def test_every_exported_name_is_defined():
    # a name left in __all__ after its definition is gone breaks `from sqkd import *`
    assert [name for name in sqkd.__all__ if not hasattr(sqkd, name)] == []


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


@pytest.mark.parametrize("call, message", [
    (lambda: linalg.basis_state(2, 2), "basis index 2 out of range for dim 2"),
    (lambda: linalg.operator_norm(np.zeros((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
    (lambda: linalg.haar_unitary(0, 0), "dim must be >= 1, got 0"),
], ids=["basis-index", "non-square-norm", "haar-dim-0"])
def test_out_of_range_arguments_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_checks_reject_nan():
    with pytest.raises(ValueError, match="nan"):
        linalg.check_unitary(np.full((2, 2), np.nan), name="V")
    with pytest.raises(ValueError, match="nan"):
        linalg.check_normalized(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="not a probability"):
        linalg.clamp_probability(float("nan"))
