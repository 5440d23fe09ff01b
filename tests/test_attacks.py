import numpy as np
import pytest

import sqkd
from sqkd import linalg
from sqkd.attacks import FAMILIES, family_stack, named_attack, random_attack
from sqkd.protocol import ctrl_error, sift_branch


def test_named_identity():
    attack = named_attack("identity")
    assert ctrl_error(attack) == 0.0
    assert sift_branch(attack).p_sift == 0.0


def test_named_forward_cnot():
    assert abs(ctrl_error(named_attack("forward-cnot")) - 0.5) <= 1e-12


def test_named_unknown():
    with pytest.raises(ValueError, match="unknown attack"):
        named_attack("sideways-swap")


def test_partial_theta_zero_matches_identity():
    for family in ("partial-forward-cnot", "partial-return-cz"):
        attack = named_attack(family, 0.0)
        assert np.max(np.abs(attack.v - np.eye(4))) <= 1e-10
        assert np.max(np.abs(attack.u - np.eye(4))) <= 1e-10
        assert ctrl_error(attack) <= 1e-12
        assert sift_branch(attack).p_sift <= 1e-12


def test_partial_theta_full_matches_named_gates():
    full = named_attack("partial-forward-cnot", np.pi / 2)
    assert np.max(np.abs(full.v - named_attack("forward-cnot").v)) <= 1e-10
    full = named_attack("partial-return-cz", np.pi / 2)
    assert np.max(np.abs(full.u - named_attack("return-cz").u)) <= 1e-10


def test_partial_theta_inline_name():
    inline = named_attack("partial-return-cz(0.3)")
    explicit = named_attack("partial-return-cz", 0.3)
    assert np.array_equal(inline.u, explicit.u)
    with pytest.raises(ValueError, match="inline"):
        named_attack("partial-return-cz(0.3)", 0.3)


@pytest.mark.parametrize("args", [("partial-return-cz(abc)",), ("partial-return-cz", "abc")])
def test_non_numeric_theta_names_the_attack(args):
    with pytest.raises(ValueError, match=r"^attack 'partial-return-cz' needs a numeric theta, got 'abc'$"):
        named_attack(*args)


def test_partial_theta_out_of_range():
    with pytest.raises(ValueError, match="theta"):
        named_attack("partial-forward-cnot", 2.0)


def test_family_builders_are_continuous():
    delta = 1e-6
    slope_bound = 10.0
    for name in FAMILIES:
        for theta in np.linspace(0.0, np.pi / 2 - delta, 7):
            a = named_attack(name, theta)
            b = named_attack(name, theta + delta)
            for m_a, m_b in ((a.v, b.v), (a.u, b.u)):
                assert np.max(np.abs(m_a - m_b)) <= slope_bound * delta


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_named_attack_is_a_slice_of_the_family_stack(family):
    thetas = np.concatenate([np.linspace(0.0, np.pi / 2, 9), np.random.default_rng(2).uniform(0.0, np.pi / 2, 7)])
    omega, v, u = family_stack(family, thetas)
    assert (omega.shape, v.shape, u.shape) == ((16, 2), (16, 4, 4), (16, 4, 4))
    for k, theta in enumerate(thetas):
        attack = named_attack(family, theta)
        one = FAMILIES[family](theta)
        for got, one_theta, stacked in zip((attack.omega, attack.v, attack.u), one, (omega, v, u)):
            assert np.array_equal(got, stacked[k]) and np.array_equal(one_theta, stacked[k])


def test_family_stack_names_the_first_theta_outside_the_range():
    with pytest.raises(ValueError, match=r"^theta nan outside"):
        family_stack("partial-return-cz", [0.1, np.nan, 3.0])
    with pytest.raises(ValueError, match=r"^theta 3\.0 outside"):
        family_stack("partial-return-cz", [0.1, 3.0, -1.0])


def test_family_rejects_out_of_bounds():
    with pytest.raises(ValueError, match="outside"):
        named_attack("partial-forward-cnot", 3.2)


def test_range_errors_print_plain_floats():
    with pytest.raises(ValueError, match=r"^theta 1\.6 outside") as info:
        named_attack("partial-return-cz", np.float64(1.6))
    assert "np.float64" not in str(info.value)


def test_family_attacks_need_theta():
    with pytest.raises(ValueError, match="^attack 'partial-return-cz' needs a theta parameter$"):
        named_attack("partial-return-cz")


def test_fixed_attacks_reject_theta():
    for name in ("identity", "forward-cnot", "return-cz"):
        with pytest.raises(ValueError, match="takes no theta"):
            named_attack(f"{name}(0.3)")
        with pytest.raises(ValueError, match="takes no theta"):
            named_attack(name, 0.3)


def test_random_attack_determinism_and_validity():
    a = random_attack(3, 77)
    b = random_attack(3, 77)
    assert np.array_equal(a.v, b.v) and np.array_equal(a.u, b.u)
    a.validate()
    assert linalg.unitary_deviation(a.v) <= 1e-10


def test_random_attack_dim_limits():
    with pytest.raises(ValueError):
        random_attack(0, 1)
    with pytest.raises(ValueError):
        random_attack(7, 1)


def test_random_attack_d1_probability_ranges():
    # a 1-dim ancilla leaves U as a plain qubit unitary; the disturbance
    # observables stay meaningful even though Eve's record is trivial
    for seed in range(25):
        attack = random_attack(1, seed)
        assert 0.0 <= ctrl_error(attack) <= 1.0
        assert 0.0 <= sift_branch(attack).p_sift <= 1.0


def test_the_generator_parameterization_is_gone():
    # the attack space is no longer searched through Hermitian generators
    assert "parameterized_attack" not in sqkd.__all__  # test_linalg checks that every exported name exists
    assert not hasattr(sqkd.attacks, "hermitian_from_params")
    assert not hasattr(linalg, "exp_i_hermitian")
