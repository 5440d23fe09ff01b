import dataclasses

import numpy as np
import pytest

from sqkd import linalg, protocol
from sqkd.attacks import named_attack, random_attack
from sqkd.povm import basis_povm, random_povm
from sqkd.protocol import (
    AttackModel,
    ctrl_error,
    eve_information,
    forward_state,
    joint_distribution,
    sift_branch,
    sift_error_operator,
)


def hadamard_forward_attack(d=2):
    """V = H (x) 1 sends |+> to |0>, so Alice's z=1 branch never fires."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return AttackModel(d, linalg.basis_state(d, 0), linalg.tensor(h, np.eye(d)), np.eye(2 * d, dtype=complex))


def test_forward_state_identity():
    psi = forward_state(named_attack("identity"))
    assert np.allclose(psi, linalg.tensor(linalg.ket_plus(), linalg.basis_state(2, 0)))


def test_forward_state_forward_cnot():
    # CNOT on |+>|0> gives the Bell state (|00> + |11>)/sqrt(2)
    psi = forward_state(named_attack("forward-cnot"))
    bell = (linalg.basis_state(4, 0) + linalg.basis_state(4, 3)) / np.sqrt(2)
    assert np.allclose(psi, bell)


def test_forward_state_stays_normalized():
    for seed in range(10):
        psi = forward_state(random_attack(3, seed))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_forward_state_runs_no_evaluation(monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("forward_state ran an evaluation")

    monkeypatch.setattr(protocol, "_evaluate", no_evaluation)
    for seed in range(5):
        attack = random_attack(3, seed)
        psi = forward_state(attack)
        assert np.allclose(psi, attack.v @ linalg.tensor(linalg.ket_plus(), attack.omega), atol=1e-14)


def test_forward_state_rejects_invalid_attack():
    with pytest.raises(ValueError, match="unitary"):
        forward_state(AttackModel(2, linalg.basis_state(2, 0), 1.1 * np.eye(4), np.eye(4)))


@pytest.mark.parametrize("field,name", [("omega", "omega"), ("v", "V"), ("u", "U")])
def test_attack_rejects_nan_on_construction(field, name):
    parts = {"omega": np.array([1.0, 0.0]), "v": np.eye(4), "u": np.eye(4)}
    parts[field] = parts[field].astype(complex)
    parts[field].flat[0] = np.nan
    with pytest.raises(ValueError, match=f"^{name} is not"):
        AttackModel(2, **parts)


@pytest.mark.parametrize(
    "name,expected",
    [("identity", 0.0), ("forward-cnot", 0.5), ("return-cz", 0.5)],
)
def test_ctrl_error_fixtures(name, expected):
    assert abs(ctrl_error(named_attack(name)) - expected) <= 1e-12


def test_sift_identity():
    out = sift_branch(named_attack("identity"))
    assert np.allclose(out.p_a, [0.5, 0.5])
    assert out.p_sift == 0.0
    for z in (0, 1):
        assert np.allclose(out.rho_eve[z], np.diag([1.0, 0.0]))


def test_sift_forward_cnot():
    out = sift_branch(named_attack("forward-cnot"))
    assert np.allclose(out.p_a, [0.5, 0.5])
    assert abs(out.p_sift) <= 1e-12
    for z in (0, 1):
        expected = np.zeros((2, 2))
        expected[z, z] = 1.0
        assert np.allclose(out.rho_eve[z], expected)
    # Bob's check agrees with Alice when U = 1
    assert np.allclose(out.p_b_given_a, np.eye(2))


def test_sift_return_cz():
    out = sift_branch(named_attack("return-cz"))
    assert abs(out.p_sift) <= 1e-12
    plus, minus = linalg.ket_plus(), linalg.ket_minus()
    assert np.allclose(out.rho_eve[0], linalg.projector(plus))
    assert np.allclose(out.rho_eve[1], linalg.projector(minus))


def test_sift_degenerate_branch():
    attack = hadamard_forward_attack()
    out = sift_branch(attack)
    assert abs(out.p_a[0] - 1.0) <= 1e-12
    assert out.p_a[1] <= 1e-12
    assert out.degenerate == (False, True)
    # the empty branch's post-measurement state carries no weight to Eve
    assert np.all(joint_distribution(attack, basis_povm(2, "z"))[1] == 0.0)
    assert np.all(out.rho_eve[1] == 0.0)
    assert np.all(out.p_b_given_a[1] == 0.0)


def test_sift_conditional_rows_normalized():
    for seed in range(20):
        out = sift_branch(random_attack(2, seed))
        for z in (0, 1):
            if not out.degenerate[z]:
                assert abs(out.p_b_given_a[z].sum() - 1.0) <= 1e-9
        recombined = out.p_b_given_a[0, 1] * out.p_a[0] + out.p_b_given_a[1, 0] * out.p_a[1]
        assert abs(out.p_sift - recombined) <= 1e-12


def test_sift_operator_cross_check_random():
    rng = np.random.default_rng(17)
    for _ in range(300):
        d = int(rng.choice([2, 3, 4]))
        attack = random_attack(d, rng)
        assert abs(sift_branch(attack).p_sift - sift_error_operator(attack)) <= 1e-12


def test_probability_ranges_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        attack = random_attack(int(rng.choice([1, 2, 3])), rng)
        assert 0.0 <= ctrl_error(attack) <= 1.0
        out = sift_branch(attack)
        assert 0.0 <= out.p_sift <= 1.0
        assert abs(out.p_a.sum() - 1.0) <= 1e-12


def test_trivial_v_gives_uniform_alice_bit():
    rng = np.random.default_rng(31)
    for d in (2, 4):
        u = linalg.haar_unitary(2 * d, rng)
        attack = AttackModel(d, linalg.random_state(d, rng), np.eye(2 * d, dtype=complex), u)
        out = sift_branch(attack)
        assert abs(out.p_a[0] - 0.5) <= 1e-12
        assert abs(out.p_a[1] - 0.5) <= 1e-12


def test_joint_identity_attack_is_product():
    attack = named_attack("identity")
    eve = random_povm(2, 3, 5)
    table = joint_distribution(attack, eve)
    ground = np.diag([1.0, 0.0])  # Eve holds |0><0| in both branches
    for z in (0, 1):
        for e, element in enumerate(eve.elements):
            assert abs(table[z, e] - 0.5 * np.trace(ground @ element).real) <= 1e-12
    assert eve_information(attack, eve) <= 1e-12


def test_joint_forward_cnot_z_basis():
    table = joint_distribution(named_attack("forward-cnot"), basis_povm(2, "z"))
    assert np.allclose(table, np.diag([0.5, 0.5]), atol=1e-12)
    assert abs(eve_information(named_attack("forward-cnot"), basis_povm(2, "z")) - 1.0) <= 1e-12


def test_joint_return_cz_x_basis():
    table = joint_distribution(named_attack("return-cz"), basis_povm(2, "x"))
    assert np.allclose(table, np.diag([0.5, 0.5]), atol=1e-12)
    assert abs(eve_information(named_attack("return-cz"), basis_povm(2, "x")) - 1.0) <= 1e-12


def test_joint_row_sums_match_alice_marginal():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.choice([2, 3]))
        attack = random_attack(d, rng)
        eve = random_povm(d, int(rng.integers(2, d * d + 1)), rng)
        table = joint_distribution(attack, eve)
        out = sift_branch(attack)
        assert np.max(np.abs(table.sum(axis=1) - out.p_a)) <= 1e-12
        assert abs(table.sum() - 1.0) <= 1e-9


def test_joint_povm_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        joint_distribution(named_attack("identity"), random_povm(3, 4, 0))


def test_eve_information_bounded_by_alice_entropy():
    rng = np.random.default_rng(12)
    for _ in range(50):
        attack = random_attack(2, rng)
        eve = random_povm(2, 4, rng)
        out = sift_branch(attack)
        h_a = -sum(p * np.log2(p) for p in out.p_a if p > 1e-15)
        assert eve_information(attack, eve) <= h_a + 1e-9


def test_joint_raises_when_conditional_route_disagrees(monkeypatch):
    evaluate = protocol._evaluate

    def perturbed(*stacks):
        ev = evaluate(*stacks)
        return dataclasses.replace(ev, rho_eve=ev.rho_eve + 1e-9 * np.eye(ev.rho_eve.shape[-1]))

    monkeypatch.setattr(protocol, "_evaluate", perturbed)
    with pytest.raises(ArithmeticError, match="joint-distribution routes disagree"):
        joint_distribution(named_attack("forward-cnot"), basis_povm(2, "z"))
