"""The stacked evaluation kernel on edge cases, and against stacks of one.

Every kernel call on a stack of N same-shape instances must give, for each
instance, exactly what the public scalar functions give for it alone.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkd import linalg
from sqkd.attacks import random_attack
from sqkd.povm import DegeneracyError, Povm, basis_povm, check_elements, elements_from_factors, random_povm
from sqkd.protocol import AttackModel, _evaluate, _evaluate_attack, joint_distribution, sift_branch
from sqkd.tradeoff import SLACK_TOL, _assess, _proof_chain, proof_chain, verify_tradeoff

SEEDS = st.integers(0, 2**32 - 1)


def stack(attacks):
    return tuple(np.stack([getattr(a, f) for a in attacks]) for f in ("omega", "v", "u"))


def degenerate_attack(d, rng):
    """V = H (x) 1 sends |+> to |0>, so Alice's z=1 branch never fires."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return AttackModel(d, linalg.basis_state(d, 0), np.kron(h, np.eye(d)), linalg.haar_unitary(2 * d, rng))


def run_kernel(attacks, elements):
    ev = _evaluate(*stack(attacks))
    joint, info, rhs = _assess(ev, elements)
    return ev, joint, info, rhs, _proof_chain(ev, elements, joint, info, rhs)


def assert_sound(ev, joint, info, trace):
    for values in (ev.p_ctrl, ev.p_a, ev.rho_eve, ev.p_b_given_a, ev.p_sift, joint, info,
                   trace.p0, *trace.step_slacks.values()):
        assert np.all(np.isfinite(values))
    assert np.max(np.abs(joint.sum(axis=2) - ev.p_a)) <= 1e-12
    for name, slack in trace.step_slacks.items():
        if name.startswith("s1"):
            assert np.max(np.abs(slack)) <= 1e-12, name
        else:
            assert np.min(slack) >= SLACK_TOL, name


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, d=st.integers(1, 4), n=st.integers(2, 6), slot=st.integers(0, 5), m=st.integers(1, 5))
def test_stack_mixing_a_degenerate_branch(seed, d, n, slot, m):
    rng = np.random.default_rng(seed)
    attacks = [random_attack(d, rng) for _ in range(n)]
    slot %= n
    attacks[slot] = degenerate_attack(d, rng)
    elements = np.stack([random_povm(d, m, rng).elements for _ in range(n)])
    with np.errstate(all="raise"):
        ev, joint, info, _, trace = run_kernel(attacks, elements)
    assert ev.degenerate[slot].tolist() == [False, True]
    assert np.all(ev.rho_eve[slot, 1] == 0.0)
    assert np.all(ev.p_b_given_a[slot, 1] == 0.0)
    assert not np.delete(ev.degenerate, slot, axis=0).any()
    assert_sound(ev, joint, info, trace)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 6), m=st.integers(1, 4))
def test_ancilla_dimension_one(seed, n, m):
    rng = np.random.default_rng(seed)
    attacks = [random_attack(1, rng) for _ in range(n)]
    elements = np.stack([random_povm(1, m, rng).elements for _ in range(n)])
    with np.errstate(all="raise"):
        ev, joint, info, _, trace = run_kernel(attacks, elements)
    # a one-dimensional ancilla holds nothing about Alice's bit
    assert np.max(info) <= 1e-12
    assert np.allclose(ev.rho_eve[~ev.degenerate], 1.0, atol=1e-12)
    assert_sound(ev, joint, info, trace)


def test_povm_with_a_zero_element():
    eve = Povm((np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 1.0])))
    rng = np.random.default_rng(3)
    attacks = [random_attack(2, rng) for _ in range(4)] + [degenerate_attack(2, rng)]
    with np.errstate(all="raise"):
        ev, joint, info, _, trace = run_kernel(attacks, np.stack([eve.elements] * len(attacks)))
        report = verify_tradeoff(attacks[0], eve)
    assert np.all(joint[:, :, 1] == 0.0)
    assert np.all(report.joint[:, 1] == 0.0)
    assert_sound(ev, joint, info, trace)


def test_singular_factor_set_inside_a_stack_raises():
    rng = np.random.default_rng(8)
    factors = linalg.ginibre(rng, 5 * 3, 2).reshape(5, 3, 2, 2)
    elements_from_factors(factors)
    factors[2] = [np.diag([1.0, 0.0]), np.diag([2.0, 0.0]), np.diag([0.5j, 0.0])]
    with pytest.raises(DegeneracyError, match="singular"):
        elements_from_factors(factors)


def test_one_element_factor_povms_are_complete_however_ill_conditioned():
    # a one-element POVM is exactly the identity; its factor's condition must not show
    assert np.max(np.abs(random_povm(4, 1, 403385).elements[0] - np.eye(4))) <= 1e-12
    check_elements(elements_from_factors(linalg.ginibre(np.random.default_rng(7), 200_000, 4)[:, None]))


def test_povm_messages_name_the_offending_element():
    with pytest.raises(ValueError, match="^POVM element 2 is not positive"):
        Povm((np.diag([1.0, 0.5]), np.diag([0.0, 0.7]), np.diag([0.0, -0.2])))
    with pytest.raises(ValueError, match="^POVM element 1 is not positive"):
        Povm((np.eye(2) / 2, np.array([[0.5, 0.1], [0.0, 0.5]])))
    with pytest.raises(ValueError, match="^POVM element 1 has shape"):
        Povm((np.eye(2), np.eye(3)))
    good = random_povm(2, 3, 0).elements
    bad = good.copy()
    bad[1] = np.diag([1.0, -0.5])
    with pytest.raises(ValueError, match="^POVM element 1 is not positive"):
        check_elements(np.stack([good, good, bad, good]))


def test_valid_povms_are_certified_without_eigenvalues(monkeypatch):
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: calls.append(1) or eigvalsh(a, *args, **kw))
    rng = np.random.default_rng(31)
    # the factor stacks of theorem (d 2-4, m 2-d^2) and lemma2 (d 1-4, m 1-6) groups
    shapes = {(d, m) for d in (2, 3, 4) for m in range(2, d * d + 1)} | {(d, m) for d in (1, 2, 3, 4) for m in range(1, 7)}
    for d, m in sorted(shapes):
        for n in (1, 12):
            check_elements(elements_from_factors(linalg.ginibre(rng, n * m, d).reshape(n, m, d, d)))
    for d in (1, 2, 3, 4, 6):
        for basis in ("z", "x"):
            basis_povm(d, basis)
        for m in (1, 3, d * d):
            random_povm(d, m, rng)
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, d=st.integers(1, 4), n=st.integers(1, 7), m=st.integers(1, 6))
def test_stack_matches_stacks_of_one(seed, d, n, m):
    rng = np.random.default_rng(seed)
    attacks = [random_attack(d, rng) for _ in range(n)]
    povms = [random_povm(d, m, rng) for _ in range(n)]
    ev, joint, info, rhs, trace = run_kernel(attacks, np.stack([p.elements for p in povms]))
    for k, (attack, eve) in enumerate(zip(attacks, povms)):
        one = _evaluate_attack(attack)
        for field in ("u_psi", "branches", "p_ctrl", "p_a", "rho_eve", "p_b_given_a", "p_sift"):
            assert np.array_equal(getattr(ev, field)[k], getattr(one, field)[0]), field
        assert np.array_equal(joint[k], joint_distribution(attack, eve))
        report = verify_tradeoff(attack, eve)
        assert (report.info, report.rhs) == (info[k], rhs[k])
        assert proof_chain(attack, eve).step_slacks == trace.instance(k).step_slacks
        assert sift_branch(attack).p_sift == ev.p_sift[k]


def assert_same_evaluation(got, want):
    for field in dataclasses.fields(want):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_one_stack_of_n_attacks_is_n_stacks_of_one(d):
    rng = np.random.default_rng(40 + d)
    attacks = [random_attack(d, rng) for _ in range(9)]
    attacks[4] = degenerate_attack(d, rng)
    ev = _evaluate(*stack(attacks))
    for k, attack in enumerate(attacks):
        assert_same_evaluation(ev.rows([k]), _evaluate(*stack([attack])))
    assert ev.degenerate[4].tolist() == [False, True]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_a_row_selection_is_the_evaluation_of_those_rows_alone(d):
    rng = np.random.default_rng(50 + d)
    attacks = [random_attack(d, rng) for _ in range(12)]
    ev = _evaluate(*stack(attacks))
    for rows in ([0], [11, 3, 7], [2, 2, 5], list(range(0, 12, 2)), list(range(12))):
        assert_same_evaluation(ev.rows(rows), _evaluate(*stack([attacks[k] for k in rows])))
