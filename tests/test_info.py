import numpy as np
import pytest

from sqkd import info
from sqkd.info import mutual_information, validate_joint
from sqkd.tradeoff import fidelity_information_bound

# frozen with a 40-digit evaluation of the binary entropy formula
H_ONE_FIFTH = 0.7219280948873623


# the Shannon entropy is info._entropy_bits, which every entropy in the program goes through
def test_shannon_entropy_deterministic():
    assert info._entropy_bits(np.array([1.0, 0.0])) == 0.0


def test_shannon_entropy_uniform_bit():
    assert abs(info._entropy_bits(np.array([0.5, 0.5])) - 1.0) <= 1e-15


def test_shannon_entropy_binary():
    assert abs(info._entropy_bits(np.array([0.2, 0.8])) - H_ONE_FIFTH) <= 1e-15


def test_shannon_entropy_rejects_bad_input():
    # a validated entropy, as eavesdropper._holevo takes it of each spectrum and of p_a
    def entropy(p):
        return info._entropy_bits(info._clean_probabilities(np.asarray(p), "probability vector"))

    with pytest.raises(ValueError, match="negative"):
        entropy([0.5, 0.5, -1e-6])
    with pytest.raises(ValueError, match="sums to"):
        entropy([0.5, 0.4])
    # entries within the clamp window are fine
    assert entropy([1.0, -1e-13]) == 0.0


def test_entropy_and_information_reject_nan():
    with pytest.raises(ValueError, match="sums to nan"):
        validate_joint([[np.nan, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="sums to nan"):
        mutual_information([[np.nan, 0.5], [0.25, 0.25]])


def test_mutual_information_validates_the_table_once(monkeypatch):
    calls = []
    clean = info._clean_probabilities
    monkeypatch.setattr(info, "_clean_probabilities", lambda *a: calls.append(1) or clean(*a))
    assert abs(mutual_information([[0.4, 0.1], [0.1, 0.4]]) - (1.0 - H_ONE_FIFTH)) <= 1e-15
    assert len(calls) == 1


def test_mutual_information_independent():
    assert mutual_information([[0.25, 0.25], [0.25, 0.25]]) == 0.0


def test_mutual_information_perfectly_correlated():
    assert abs(mutual_information([[0.5, 0.0], [0.0, 0.5]]) - 1.0) <= 1e-15


def test_mutual_information_binary_symmetric():
    # 1 - h(0.2)
    got = mutual_information([[0.4, 0.1], [0.1, 0.4]])
    assert abs(got - (1.0 - H_ONE_FIFTH)) <= 1e-15


@pytest.mark.parametrize("table", [
    # total 1 + 9.9e-11: the cleaned table once gave -1.443e-10 bits and raised
    [[-5e-13, 2e-15, 3e-16, 3e-16], [0.0504871341, 0.949512866, -5e-13, 2e-15]],
    # near-independent, total 1 + 1e-10
    [[0.25 + 2.5e-11, 0.25 + 2.5e-11], [0.25 + 2.5e-11, 0.25 + 2.5e-11]],
])
def test_mutual_information_accepts_tables_off_by_rounding(table):
    mi = mutual_information(table)
    assert 0.0 <= mi <= 1e-12


def test_mutual_information_bounds_on_random_joints():
    rng = np.random.default_rng(99)
    by_width = {m: [] for m in range(2, 7)}
    for _ in range(100_000):
        m = int(rng.integers(2, 7))
        t = rng.random((2, m))
        t /= t.sum()
        by_width[m].append(t)
    for tables in by_width.values():  # a stack gives the per-table values bit for bit
        t = np.stack(tables)
        mi = mutual_information(t)
        assert mi[0] == mutual_information(tables[0]) and mi[-1] == mutual_information(tables[-1])
        hx = info._entropy_bits(t.sum(axis=2), -1)
        hy = info._entropy_bits(t.sum(axis=1), -1)
        assert (mi >= 0.0).all()
        assert (mi <= np.minimum(hx, hy) + 1e-12).all()


def test_validate_joint_clamps_and_rejects():
    t = validate_joint([[0.5, -1e-13], [0.25, 0.25]])
    assert t[0, 1] == 0.0
    # entries within the clamp window [-1e-12, 0) are fine
    assert mutual_information([[1.0, -1e-13], [0.0, 0.0]]) == 0.0
    with pytest.raises(ValueError, match="negative entry"):
        validate_joint([[0.5, 0.5], [-1e-6, 0.0]])
    with pytest.raises(ValueError, match="negative entry"):
        mutual_information([[0.5, 0.5], [-1e-6, 0.0]])
    with pytest.raises(ValueError, match="sums to"):
        validate_joint([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="sums to"):
        mutual_information([[0.5, 0.4], [0.0, 0.0]])
    with pytest.raises(ValueError):
        validate_joint([0.5, 0.5])


def stacked_tables(m):
    """60 joint tables (2, m) with exact zeros and entries below 1e-15."""
    rng = np.random.default_rng(m)
    tables = rng.random((60, 2, m))
    tables[rng.random(tables.shape) < 0.3] = 0.0
    tables[:, 0, 0] += 0.1
    tables /= tables.sum(axis=(1, 2), keepdims=True)
    tables[(tables == 0.0) & (rng.random(tables.shape) < 0.5)] = 3e-16
    return tables


@pytest.mark.parametrize("m", range(1, 17))
def test_table_functions_on_a_stack_equal_the_per_table_calls(m):
    tables = stacked_tables(m)
    assert np.array_equal(validate_joint(tables), np.stack([validate_joint(t) for t in tables]))
    for fn in (mutual_information, fidelity_information_bound):
        per_table = [fn(t) for t in tables]
        assert all(type(v) is float for v in per_table)
        stacked = fn(tables)
        assert stacked.shape == (len(tables),)
        assert stacked.tolist() == per_table


def test_one_bad_table_in_a_stack_raises():
    tables = stacked_tables(3)
    good = tables[17].copy()
    tables[17] = 0.5
    for fn in (validate_joint, mutual_information, fidelity_information_bound):
        with pytest.raises(ValueError, match=r"sums to 3\.0,"):
            fn(tables)
    tables[17] = good
    tables[23, 1, 2] = -1e-6
    with pytest.raises(ValueError, match="negative entry"):
        mutual_information(tables)
