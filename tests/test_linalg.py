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


def positive_reference(m) -> bool:
    """Hermitian within 1e-10 with smallest eigenvalue >= -1e-10, decided
    by the eigenvalues of the one matrix."""
    if not np.max(np.abs(m - m.conj().T)) <= 1e-10:
        return False
    return bool(np.linalg.eigvalsh(m)[0] >= -1e-10)


def with_lowest_eigenvalue(d, lowest, rng):
    """A Hermitian d x d matrix with eigenvalues lowest and the rest in [0.2, 1]."""
    u = linalg.haar_unitary(d, rng)
    m = (u * np.concatenate([[lowest], np.linspace(0.2, 1.0, d - 1)])) @ u.conj().T
    return (m + m.conj().T) / 2


def count_eigvalsh(monkeypatch) -> list:
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: calls.append(1) or eigvalsh(a, *args, **kw))
    return calls


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_is_positive_at_the_tolerance_and_its_half(d, monkeypatch):
    # the Cholesky certificate holds a margin of TOL / 2: at -TOL/2 (1 - 1%) it
    # certifies, below -TOL/2 the eigenvalues decide, and both agree with them
    rng = np.random.default_rng(d)
    calls = count_eigvalsh(monkeypatch)
    for scale, certified in ((0.99, False), (1.01, False), (0.495, True), (0.505, False)):
        m = with_lowest_eigenvalue(d, -scale * linalg.TOL_POSITIVE, rng)
        expected = positive_reference(m)
        assert expected == (scale < 1.0)
        calls.clear()
        assert linalg.is_positive(m) is expected
        assert not calls if certified else len(calls) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_is_positive_matches_the_eigenvalues_on_edge_cases(d, monkeypatch):
    rng = np.random.default_rng(10 + d)
    v = linalg.haar_unitary(d, rng)[:, 0]
    nan = np.eye(d, dtype=complex) / 2
    nan[d - 1, 0] = np.nan
    cases = [np.zeros((d, d)), np.zeros((d, d), dtype=complex), np.outer(v, v.conj()), np.eye(d), nan]
    for deviation in (0.99e-10, 1.01e-10):
        m = np.eye(d, dtype=complex) / 2
        if d == 1:
            m[0, 0] += 0.5j * deviation
        else:
            m[0, d - 1] += deviation
        cases.append(m)
    cases.append(with_lowest_eigenvalue(d, -0.2, rng))
    expected = [positive_reference(m) for m in cases]
    assert expected == [True, True, True, True, False, True, False, False]
    calls = count_eigvalsh(monkeypatch)
    decided = []
    for m, flag in zip(cases, expected):
        calls.clear()
        assert linalg.is_positive(m) is flag  # a 2-D input gives a bool
        decided.append(len(calls))
    # the eigenvalues decide only what the Cholesky certificate does not pass
    assert decided == [0, 0, 0, 0, 1, 0, 1, 1]
    assert np.array_equal(linalg.is_positive(np.stack(cases)), expected)


def test_is_positive_leaves_large_matrices_to_the_eigenvalues():
    # at norm 1e6 the Cholesky backward error exceeds the TOL / 2 margin and the
    # factorization passes matrices whose eigenvalues fail
    u = linalg.haar_from_ginibre(linalg.ginibre(np.random.default_rng(6), 300, 2))
    mats = (u * np.array([-0.6e-10, 1e6])) @ linalg.dagger(u)
    mats = (mats + linalg.dagger(mats)) / 2
    shifted = mats + linalg.TOL_POSITIVE / 2 * np.eye(2)

    def factors(m):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return False
        return True

    expected = [positive_reference(m) for m in mats]
    assert any(factors(m) and not flag for m, flag in zip(shifted, expected))
    assert [linalg.is_positive(m) for m in mats] == expected


def test_a_long_stack_flags_only_its_bad_matrix(monkeypatch):
    rng = np.random.default_rng(1000)
    v = linalg.haar_from_ginibre(linalg.ginibre(rng, 1000, 3))
    stack = v * rng.uniform(0.0, 1.0, (1000, 1, 3)) @ linalg.dagger(v)
    stack = (stack + linalg.dagger(stack)) / 2
    stack[-1] = with_lowest_eigenvalue(3, -1.01e-10, rng)
    calls = count_eigvalsh(monkeypatch)
    flags = linalg.is_positive(stack)
    assert calls == [1]
    assert flags.shape == (1000,) and np.array_equal(np.nonzero(~flags)[0], [999])
    assert np.array_equal(flags, [positive_reference(m) for m in stack])


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
