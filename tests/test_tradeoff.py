import numpy as np
import pytest

from sqkd import linalg, protocol
from sqkd.attacks import named_attack, random_attack
from sqkd.povm import Povm, basis_povm, random_povm
from sqkd.suites import sample_theorem_instance
from sqkd.tradeoff import (
    fidelity_information_bound,
    povm_overlap_slack,
    proof_chain,
    tradeoff_bound,
    verify_tradeoff,
)


def test_tradeoff_bound_values():
    assert tradeoff_bound(0.0, 0.0) == 0.0
    assert abs(tradeoff_bound(0.5, 0.0) - np.sqrt(2.0)) <= 1e-15
    assert abs(tradeoff_bound(0.0, 1.0) - 2.0 * np.sqrt(6.0)) <= 1e-15


def test_tradeoff_bound_rejects_out_of_range():
    with pytest.raises(ValueError):
        tradeoff_bound(-0.1, 0.0)
    with pytest.raises(ValueError):
        tradeoff_bound(0.0, 1.1)


def test_tradeoff_bound_monotone():
    grid = np.linspace(0.0, 1.0, 100)
    values = np.array([[tradeoff_bound(pc, ps) for ps in grid] for pc in grid])
    assert np.all(np.diff(values, axis=0) >= -1e-15)
    assert np.all(np.diff(values, axis=1) >= -1e-15)


def test_fidelity_bound_independent_uniform():
    table = np.full((2, 2), 0.25)
    assert fidelity_information_bound(table) == 0.0


def test_fidelity_bound_perfect_correlation():
    table = np.diag([0.5, 0.5])
    assert fidelity_information_bound(table) == 1.0


def test_fidelity_bound_binary_symmetric():
    table = np.array([[0.4, 0.1], [0.1, 0.4]])
    assert abs(fidelity_information_bound(table) - 0.6) <= 1e-12
    assert fidelity_information_bound(table) >= 1.0 - 0.7219280948873623


def test_fidelity_bound_rejects_non_binary():
    with pytest.raises(ValueError, match="binary"):
        fidelity_information_bound(np.full((3, 2), 1.0 / 6.0))


def test_fidelity_bound_dominates_mutual_information():
    rng = np.random.default_rng(2)
    from sqkd.info import mutual_information

    for _ in range(2000):
        t = rng.random((2, int(rng.integers(1, 8))))
        t /= t.sum()
        assert mutual_information(t) <= fidelity_information_bound(t) + 1e-9


def test_overlap_slack_saturates_for_equal_vectors():
    phi = linalg.haar_unitary(4, 3)[:, 0]
    trivial = Povm((np.eye(2),))
    slack = povm_overlap_slack(phi, phi, np.eye(2), trivial)
    assert abs(slack) <= 1e-12


def test_overlap_slack_orthogonal_vectors():
    d = 2
    phi0 = np.kron(linalg.basis_state(2, 0), linalg.basis_state(d, 0))
    phi1 = np.kron(linalg.basis_state(2, 1), linalg.basis_state(d, 1))
    trivial = Povm((np.eye(d),))
    slack = povm_overlap_slack(phi0, phi1, np.eye(2), trivial)
    # LHS vanishes; slack equals the (nonnegative) right-hand side
    assert slack >= 0.0
    assert abs(slack - 1.0) <= 1e-12


def test_overlap_slack_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        phi0 = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
        phi1 = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert povm_overlap_slack(phi0, phi1, x, random_povm(d, m, rng)) >= -1e-9


def test_overlap_slack_dimension_mismatch():
    with pytest.raises(ValueError):
        povm_overlap_slack(np.ones(4), np.ones(6), np.eye(2), Povm((np.eye(2),)))
    with pytest.raises(ValueError):
        povm_overlap_slack(np.ones(4), np.ones(4), np.eye(3), Povm((np.eye(2),)))


def test_proof_chain_identity_attack():
    attack = named_attack("identity")
    trace = proof_chain(attack, basis_povm(2, "z"))
    p_sift = protocol.sift_branch(attack).p_sift
    for z in (0, 1):
        # s1_z is ||C_z psi||^2 - P_SIFT, so this says ||C_z psi|| <= 1e-12
        assert abs(trace.step_slacks[f"s1_z{z}"] + p_sift) <= 1e-24
        assert abs(trace.step_slacks[f"s1_z{z}"]) <= 1e-12
    assert abs(trace.lhs_overlap - 0.5) <= 1e-12
    assert abs(trace.step_slacks["s3"]) <= 1e-12  # equality at zero disturbance
    assert all(v >= -1e-12 for v in trace.step_slacks.values())


def test_proof_chain_forward_cnot():
    trace = proof_chain(named_attack("forward-cnot"), basis_povm(2, "z"))
    assert abs(trace.fidelity_sum) <= 1e-12
    # 1/2 - P_CTRL - 0 = 0 <= fidelity_sum = 0: equality
    assert abs(trace.step_slacks["s5"]) <= 1e-12
    assert abs(trace.step_slacks["s1_z0"]) <= 1e-12


def test_proof_chain_random_instances():
    root = np.random.SeedSequence(1234)
    for child in root.spawn(300):
        attack, eve = sample_theorem_instance(child)
        trace = proof_chain(attack, eve)
        for key, value in trace.step_slacks.items():
            if key.startswith("s1"):
                assert abs(value) <= 1e-12, key
            else:
                assert value >= -1e-9, key
        assert np.max(np.abs(trace.p0_marginal - trace.p0.sum(axis=1))) <= 1e-15


def test_verify_tradeoff_identity():
    report = verify_tradeoff(named_attack("identity"), basis_povm(2, "z"))
    assert report.info <= 1e-12
    assert report.rhs == 0.0
    assert report.holds
    assert abs(report.gap) <= 1e-12


def test_verify_tradeoff_forward_cnot():
    report = verify_tradeoff(named_attack("forward-cnot"), basis_povm(2, "z"))
    assert abs(report.info - 1.0) <= 1e-9
    assert abs(report.rhs - np.sqrt(2.0)) <= 1e-12
    assert abs(report.gap - (np.sqrt(2.0) - 1.0)) <= 1e-9
    assert report.holds


def test_verify_tradeoff_return_cz():
    report = verify_tradeoff(named_attack("return-cz"), basis_povm(2, "x"))
    assert abs(report.info - 1.0) <= 1e-9
    assert abs(report.rhs - np.sqrt(2.0)) <= 1e-12
    assert report.holds


def test_bound_holds_for_random_attacks_with_basis_povm():
    rng = np.random.default_rng(55)
    from sqkd.attacks import random_attack
    from sqkd.protocol import ctrl_error, eve_information, sift_branch

    z_basis = basis_povm(2, "z")
    for _ in range(1000):
        attack = random_attack(2, rng)
        info = eve_information(attack, z_basis)
        rhs = tradeoff_bound(ctrl_error(attack), sift_branch(attack).p_sift)
        assert info <= rhs + 1e-9


def test_bound_chain_on_random_instances():
    # info <= fidelity bound <= full bound whenever the latter is nonvacuous
    root = np.random.SeedSequence(77)
    for child in root.spawn(200):
        attack, eve = sample_theorem_instance(child)
        report = verify_tradeoff(attack, eve)
        from sqkd.protocol import joint_distribution

        fid = fidelity_information_bound(joint_distribution(attack, eve))
        assert report.info <= fid + 1e-9
        if report.rhs <= 1.0:
            assert fid <= report.rhs + 1e-9
        assert report.info <= report.rhs + 1e-9
        assert report.holds


def test_verify_tradeoff_evaluates_the_attack_once(monkeypatch):
    eve = random_povm(3, 5, 12)
    calls = {"validate": 0, "sift_error_operator": 0}
    validate, operator_route = protocol.AttackModel.validate, protocol._sift_error_operator

    def counted_validate(self):
        calls["validate"] += 1
        validate(self)

    def counted_operator_route(psi, u):
        calls["sift_error_operator"] += 1
        return operator_route(psi, u)

    monkeypatch.setattr(protocol.AttackModel, "validate", counted_validate)
    monkeypatch.setattr(protocol, "_sift_error_operator", counted_operator_route)
    verify_tradeoff(random_attack(3, 11), eve)
    assert calls == {"validate": 1, "sift_error_operator": 1}


def test_verify_tradeoff_raises_when_sift_routes_disagree(monkeypatch):
    operator_route = protocol._sift_error_operator
    monkeypatch.setattr(protocol, "_sift_error_operator", lambda psi, u: operator_route(psi, u) + 1e-9)
    with pytest.raises(ArithmeticError, match="P_SIFT routes disagree"):
        verify_tradeoff(random_attack(2, 3), basis_povm(2, "z"))


def bit_flip_attack(seed):
    """Any forward unitary, then U = X: Eve flips Alice's bit on the way back,
    so the SIFT error is 1 and its defining sum can land above it."""
    return protocol.AttackModel(1, [1.0], linalg.haar_unitary(2, seed), np.array([[0, 1], [1, 0]]))


def test_bit_flip_attacks_verify_with_p_sift_clamped():
    raw_above_one = 0
    for seed in range(200):
        attack = bit_flip_attack(seed)
        report = verify_tradeoff(attack, basis_povm(1, "z"))
        assert report.p_sift <= 1.0 and report.holds
        sift = protocol.sift_branch(attack)
        raw = sift.p_b_given_a[0, 1] * sift.p_a[0] + sift.p_b_given_a[1, 0] * sift.p_a[1]
        raw_above_one += raw > 1.0
    assert raw_above_one >= 1  # the clamp is exercised, not only the pass-through


def test_proof_chain_matches_lifted_projector_route():
    # reference: every qubit and ancilla operator lifted to H (x) K with kron
    root = np.random.SeedSequence(4321)
    for child in root.spawn(100):
        attack, eve = sample_theorem_instance(child)
        d, u = attack.ancilla_dim, attack.u
        psi = protocol.forward_state(attack)
        z_ops = [np.kron(np.diag(np.eye(2)[z]), np.eye(d)) for z in (0, 1)]
        lifted = [np.kron(np.eye(2), e) for e in eve.elements]
        trace = proof_chain(attack, eve)
        p_sift = protocol.sift_branch(attack).p_sift
        for z in (0, 1):
            c = z_ops[1 - z] @ u @ z_ops[z] - z_ops[z] @ u @ z_ops[1 - z]
            # s1_z is ||C_z psi||^2 - P_SIFT with C_z psi taken from qubit blocks
            assert abs(trace.step_slacks[f"s1_z{z}"] + p_sift - np.vdot(c @ psi, c @ psi).real) <= 1e-12
            w = z_ops[z] @ u @ psi
            p0 = [max(np.vdot(w, e @ w).real, 0.0) for e in lifted]
            assert np.max(np.abs(trace.p0[z] - p0)) <= 1e-12
        flip = np.kron(np.array([[0, 1], [0, 0]]), np.eye(d))
        assert abs(trace.lhs_overlap - abs(np.vdot(u @ psi, flip @ u @ psi))) <= 1e-12

        phi0, phi1 = u @ psi, psi
        x = linalg.haar_unitary(2, child)
        lhs = abs(np.vdot(phi0, np.kron(x, np.eye(d)) @ phi1))
        rhs = sum(np.sqrt(max(np.vdot(phi0, e @ phi0).real, 0.0) * max(np.vdot(phi1, e @ phi1).real, 0.0))
                  for e in lifted)
        assert abs(povm_overlap_slack(phi0, phi1, x, eve) - (rhs - lhs)) <= 1e-12
