import dataclasses

import numpy as np
import pytest

from sqkd import eavesdropper, linalg
from sqkd.attacks import family_stack, named_attack, random_attack
from sqkd.cli import main
from sqkd.eavesdropper import (
    OptimizerConfig,
    _accessible_information,
    _ascend,
    _holevo,
    _objective,
    _starts,
    accessible_information,
    holevo_bound,
)
from sqkd.info import mutual_information
from sqkd.povm import DegeneracyError, Povm, basis_povm, povm_from_factors
from sqkd.protocol import AttackModel, _evaluate, _evaluate_attack, _gram, ctrl_error, eve_information, sift_branch

HOLEVO_ZERO_PLUS = 0.6008760366928561  # {|0>, |+>} equiprobable, frozen analytic value
# info the earlier Nelder-Mead search reached on random_attack(d, s), 8 restarts, seed 0
NELDER_MEAD_INFO = {(3, 1): 0.188, (3, 5): 0.180, (4, 1): 0.184, (4, 5): 0.049}
STOP_REASONS = {"flat", "step", "iterations"}
# best info of the earlier double/halve eps rule at 8 restarts, seed 0, on the
# instances the benchmark solves; on (3, 1), (4, 1) and (4, 5) some of its
# starts stopped on iterations
DOUBLE_HALVE_INFO = {
    "identity": 4.440892098500626e-16,
    "forward-cnot": 1.0,
    "partial-return-cz(0.7)": 0.3245581185433657,
    "partial-forward-cnot(0.4)": 0.11233746758197105,
    (2, 1): 0.1494953597802562,
    (2, 5): 0.24307536018986386,
    (3, 1): 0.451900419571,
    (3, 5): 0.2951450356343921,
    (4, 1): 0.674700616030,
    (4, 5): 0.588042000934,
}


def crafted_zero_plus_attack():
    """Controlled-Hadamard on return: Eve ends up with |0> or |+> equiprobably."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = np.eye(2)
    u[2:, 2:] = h
    return AttackModel(2, linalg.basis_state(2, 0), np.eye(4, dtype=complex), u)


def test_povm_from_single_identity_factor():
    result = povm_from_factors([np.eye(2)])
    assert result.outcome_count == 1
    assert np.allclose(result.elements[0], np.eye(2))


def test_povm_from_projector_factors_is_unchanged():
    factors = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    result = povm_from_factors(factors)
    for got, expected in zip(result.elements, factors):
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_povm_from_random_factors_is_complete():
    rng = np.random.default_rng(14)
    for _ in range(50):
        d, m = int(rng.integers(2, 5)), int(rng.integers(1, 7))
        factors = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(m)]
        result = povm_from_factors(factors)
        total = sum(result.elements)
        assert np.max(np.abs(total - np.eye(d))) <= 1e-9


def test_povm_from_singular_factors_rejected():
    with pytest.raises(DegeneracyError):
        povm_from_factors([np.diag([1.0, 0.0])])


def test_povm_validation_rejects_incomplete_set():
    with pytest.raises(ValueError, match="sum to identity"):
        Povm((np.diag([1.0, 0.0]),))
    with pytest.raises(ValueError, match="positive"):
        Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))


@pytest.mark.parametrize("make, message", [
    (lambda: Povm(np.eye(2)), r"shape \(2, 2\), expected \(m, d, d\)"),
    (lambda: Povm(np.zeros((2, 2, 3))), r"shape \(2, 2, 3\), expected \(m, d, d\)"),
    (lambda: Povm(np.empty((0, 2, 2))), "needs at least one element"),
    (lambda: povm_from_factors([]), "at least one factor"),
], ids=["one-matrix", "non-square", "no-elements", "no-factors"])
def test_povm_construction_rejects_malformed_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_basis_povms():
    z = basis_povm(2, "z")
    assert np.allclose(z.elements[0], np.diag([1.0, 0.0]))
    x = basis_povm(2, "x")
    assert np.allclose(x.elements[0], np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        basis_povm(2, "y")


def test_accessible_information_identity_attack():
    result = accessible_information(named_attack("identity"))
    assert result.info <= 1e-9
    result.povm.validate()


def test_accessible_information_forward_cnot():
    # Eve's conditional states are orthogonal; the basis PVM restart is optimal
    result = accessible_information(named_attack("forward-cnot"), OptimizerConfig(restarts=2))
    assert result.info >= 1.0 - 1e-6


def test_accessible_information_zero_plus_ensemble():
    result = accessible_information(crafted_zero_plus_attack(), OptimizerConfig(restarts=12, seed=1))
    assert 0.394 <= result.info <= HOLEVO_ZERO_PLUS + 1e-6


def test_accessible_information_never_below_basis_baseline():
    rng = np.random.default_rng(20)
    for seed in range(5):
        attack = random_attack(2, rng)
        baseline = eve_information(attack, basis_povm(2, "z"))
        result = accessible_information(attack, OptimizerConfig(restarts=3, seed=seed))
        assert result.info >= baseline - 1e-9


def test_accessible_information_below_holevo():
    rng = np.random.default_rng(21)
    for seed in range(5):
        attack = random_attack(2, rng)
        chi = holevo_bound(attack)
        result = accessible_information(attack, OptimizerConfig(restarts=3, seed=seed))
        assert result.info <= chi + 1e-9


def test_accessible_information_reproducible_and_reported_value_matches_povm():
    attack = crafted_zero_plus_attack()
    cfg = OptimizerConfig(restarts=4, seed=9)
    a = accessible_information(attack, cfg)
    b = accessible_information(attack, cfg)
    assert a.info == b.info
    assert a.restart_values == b.restart_values
    assert abs(a.info - eve_information(attack, a.povm)) <= 1e-12


def test_zero_disturbance_attack_yields_zero_information():
    # V and U act on the ancilla alone: nothing Eve does shows up in
    # either branch, and her record is uncorrelated with Alice's bit
    rng = np.random.default_rng(33)
    w_v, w_u = linalg.haar_unitary(3, rng), linalg.haar_unitary(3, rng)
    attack = AttackModel(
        3,
        linalg.basis_state(3, 0),
        np.kron(np.eye(2), w_v),
        np.kron(np.eye(2), w_u),
    )
    from sqkd.protocol import ctrl_error

    assert ctrl_error(attack) <= 1e-12
    assert sift_branch(attack).p_sift <= 1e-12
    result = accessible_information(attack, OptimizerConfig(restarts=6, seed=2))
    assert result.info <= 1e-6


def helstrom_information(attack) -> float:
    """I(A:E) of the projectors onto the positive and non-positive parts of
    p_a(0) rho_0 - p_a(1) rho_1."""
    out = sift_branch(attack)
    tau = [out.p_a[z] * out.rho_eve[z] for z in (0, 1)]
    w, vecs = np.linalg.eigh(tau[0] - tau[1])
    pos = vecs[:, w > 0]
    proj = pos @ pos.conj().T
    elements = (proj, np.eye(len(w)) - proj)
    return mutual_information([[np.trace(t @ e).real for e in elements] for t in tau])


@pytest.mark.parametrize(
    "case",
    [(d, s) for d in (2, 3, 4) for s in (1, 5)] + ["partial-return-cz(0.7)", "partial-forward-cnot(0.4)"],
    ids=str,
)
def test_accessible_information_between_helstrom_and_holevo(case):
    # case: (d, seed) of a random attack, or a named attack
    attack = named_attack(case) if isinstance(case, str) else random_attack(*case)
    result = accessible_information(attack, OptimizerConfig(restarts=8, seed=0))
    chi = holevo_bound(attack)
    assert result.info >= helstrom_information(attack) - 1e-9
    assert result.info <= chi + 1e-9
    assert result.info >= NELDER_MEAD_INFO.get(case, 0.0)
    assert len(result.stop_reasons) == len(result.restart_values) == 8
    assert set(result.stop_reasons) <= STOP_REASONS


def test_accessible_information_never_drops_along_a_start(monkeypatch):
    # the run capped at k steps is the first k steps of every longer run; on
    # random_attack(4, 1) the caps span rejected extrapolations (momentum restarts)
    def capped(attack, k):
        monkeypatch.setattr(eavesdropper, "MAX_ITERATIONS", k)
        return accessible_information(attack, OptimizerConfig(restarts=3, seed=4)).restart_values

    for case, caps in (((3, 5), range(40)), ((4, 1), range(0, 300, 10))):
        attack = random_attack(*case)
        trajectories = np.array([capped(attack, k) for k in caps])
        assert np.all(np.diff(trajectories, axis=0) >= 0.0)
        assert np.all(trajectories[-1] > trajectories[0])


@pytest.mark.parametrize("case", list(DOUBLE_HALVE_INFO), ids=str)
def test_every_start_converges_on_the_search_instances(case):
    attack = named_attack(case) if isinstance(case, str) else random_attack(*case)
    result = accessible_information(attack, OptimizerConfig(restarts=8, seed=0))
    assert result.info >= DOUBLE_HALVE_INFO[case] - 1e-12
    if case == "identity":
        # no start gets above rounding, so a start may run its eps down instead
        assert "iterations" not in result.stop_reasons
        assert max(result.restart_values) <= 1e-12
    else:
        assert result.stop_reasons == ["flat"] * 8


def test_accessible_information_stop_reasons(monkeypatch):
    # orthogonal conditional states: every start is at 1 bit after its first step
    flat = accessible_information(named_attack("forward-cnot"), OptimizerConfig(restarts=3))
    assert flat.stop_reasons == ["flat"] * 3
    monkeypatch.setattr(eavesdropper, "MAX_ITERATIONS", 1)
    capped = accessible_information(random_attack(3, 5), OptimizerConfig(restarts=4))
    assert capped.stop_reasons == ["iterations"] * 4


def degenerate_sift_attack():
    """A Hadamard on the qubit before Alice: she always reads 0, so p_a(1) = 0."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    u = linalg.haar_unitary(4, 5)
    return AttackModel(2, linalg.basis_state(2, 0), np.kron(h, np.eye(2)), u)


@pytest.mark.parametrize("attack", [random_attack(1, 3), degenerate_sift_attack()], ids=["d=1", "p_a(1)=0"])
def test_accessible_information_edge_cases(attack):
    with np.errstate(all="raise"):
        result = accessible_information(attack, OptimizerConfig(restarts=4, seed=1))
    assert result.info <= 1e-9
    result.povm.validate()
    assert result.povm.outcome_count == max(2, attack.ancilla_dim ** 2)


def test_degenerate_sift_attack_has_an_empty_branch():
    assert sift_branch(degenerate_sift_attack()).degenerate == (False, True)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0).validate()
    for fields, name in (({"restarts": 2.5}, "restarts"), ({"restarts": True}, "restarts"),
                         ({"seed": -1}, "seed"), ({"seed": 1.0}, "seed")):
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**fields)
    cfg = OptimizerConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.restarts = 0
    assert OptimizerConfig(restarts=np.int64(3), seed=np.int64(0)).restarts == 3


def test_optimizer_config_validates_on_construction():
    with pytest.raises(ValueError, match="restarts"):
        OptimizerConfig(restarts=0)


def eve_ensemble(attack) -> np.ndarray:
    out = sift_branch(attack)
    return np.stack([out.p_a[z] * out.rho_eve[z] for z in (0, 1)])


@pytest.mark.parametrize("attack", [random_attack(d, s) for d in (1, 2, 3, 4) for s in (1, 2)]
                         + [degenerate_sift_attack(), crafted_zero_plus_attack()])
def test_objective_is_the_mutual_information_of_its_table(monkeypatch, attack):
    monkeypatch.setattr(eavesdropper, "MAX_ITERATIONS", 25)
    tau = eve_ensemble(attack)
    m = max(2, attack.ancilla_dim ** 2)
    for v0 in _starts(tau[None], m, OptimizerConfig(restarts=4, seed=3))[0]:
        for v in (v0, _ascend(tau[None], v0[None])[0][0]):
            table = np.einsum("ie,zij,je->ze", v.conj(), tau, v).real
            assert abs(_objective(tau[None], v[None])[0][0] - mutual_information(table)) <= 1e-12


# reference: the ascent run one start at a time, with the step rules of the
# module docstring written out per start
def per_start_objective(tau, v):
    tv = tau @ v
    table = np.clip(np.einsum("ie,zie->ze", v.conj(), tv).real, 0.0, None)
    marginals = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True)
    ratio = np.ones_like(table)
    np.divide(table, marginals, out=ratio, where=table >= 1e-15)
    log_ratio = np.log(ratio)
    return float((table * log_ratio).sum() / np.log(2.0)), np.einsum("ze,zie->ie", log_ratio, tv)


def per_start_completed(w):
    lam, q = np.linalg.eigh(w @ w.conj().T)
    if lam[0] <= eavesdropper.SINGULAR_TOL * lam[-1]:
        return None
    return (q / np.sqrt(lam)) @ (q.conj().T @ w)


def per_start_ascend(tau, v, max_iterations):
    """The last kept vectors, their information, the stop reason and the steps tried."""
    info, grad = per_start_objective(tau, v)
    v_prev, eps, beta, run = v, 1.0, 0.0, 0
    for step in range(1, max_iterations + 1):
        trial = per_start_completed(v + eps * grad + beta * (v - v_prev))
        if trial is not None:
            trial_info, trial_grad = per_start_objective(tau, trial)
            if trial_info >= info:
                gain = trial_info - info
                v_prev, v, info, grad = v, trial, trial_info, trial_grad
                if gain < 1e-12:
                    return v, info, "flat", step
                run += 1
                beta = min(0.99, (run - 1) / (run + 2))
                continue
        run = 0
        if beta > 0.0:
            # a rejected extrapolation is retried as a plain step at the same eps
            beta = 0.0
            continue
        eps /= 2.0
        if eps < 1e-12:
            return v, info, "step", step
    return v, info, "iterations", max_iterations


def per_start_solve(attack, cfg):
    """(restart_values, stop_reasons, steps, best POVM elements) of the per-start loop."""
    tau = eve_ensemble(attack)
    m = max(2, attack.ancilla_dim ** 2)
    runs = [per_start_ascend(tau, v0, eavesdropper.MAX_ITERATIONS) for v0 in _starts(tau[None], m, cfg)[0]]
    best = max(range(len(runs)), key=lambda k: (runs[k][1], -k))
    elements = np.stack([np.outer(v, v.conj()) for v in runs[best][0].T])
    return [r[1] for r in runs], [r[2] for r in runs], [r[3] for r in runs], elements


def assert_matches_per_start(attack, cfg):
    result = accessible_information(attack, cfg)
    values, reasons, steps, elements = per_start_solve(attack, cfg)
    assert result.restart_values == values
    assert result.stop_reasons == reasons
    assert result.steps == steps
    assert np.array_equal(result.povm.elements, elements)


@pytest.mark.parametrize(
    "case",
    ["identity", "forward-cnot", "partial-return-cz(0.7)", "partial-forward-cnot(0.4)"]
    + [(d, s) for d in (2, 3, 4) for s in (1, 5)],
    ids=str,
)
def test_stacked_ascent_equals_the_per_start_loop(case):
    attack = named_attack(case) if isinstance(case, str) else random_attack(*case)
    assert_matches_per_start(attack, OptimizerConfig(restarts=8, seed=0))


@pytest.mark.parametrize("attack", [random_attack(1, 3), degenerate_sift_attack()], ids=["d=1", "p_a(1)=0"])
def test_stacked_ascent_equals_the_per_start_loop_on_edge_cases(attack):
    with np.errstate(all="raise"):
        assert_matches_per_start(attack, OptimizerConfig(restarts=8, seed=0))


@pytest.mark.parametrize("restarts", [1, 2, 3])
def test_stacked_ascent_equals_the_per_start_loop_with_few_starts(restarts):
    # restarts 1 and 2 have no random start, 3 has one
    assert_matches_per_start(random_attack(3, 5), OptimizerConfig(restarts=restarts, seed=0))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_random_starts_are_rows_of_haar_unitaries_from_the_seed_children(d):
    cfg = OptimizerConfig(restarts=8, seed=6)
    m = max(2, d * d)
    tau = np.stack([eve_ensemble(random_attack(d, s)) for s in (1, 2)])
    starts = _starts(tau, m, cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    for r in range(2, cfg.restarts):
        expected = linalg.haar_unitary(m, children[r])[:d]
        for k in range(len(tau)):
            assert np.array_equal(starts[k, r], expected)


def test_ascend_leaves_its_arguments_unchanged():
    tau = np.repeat(eve_ensemble(random_attack(3, 1))[None], 4, axis=0)
    v = _starts(tau[:1], 9, OptimizerConfig(restarts=4, seed=0))[0]
    tau_copy, v_copy = tau.copy(), v.copy()
    out_v = _ascend(tau, v)[0]
    assert np.array_equal(tau, tau_copy)
    assert np.array_equal(v, v_copy)
    assert not np.array_equal(out_v, v)


def test_stacked_ascent_rejects_a_near_singular_step_while_others_go_on(monkeypatch):
    # a loose tolerance makes some early large steps near-singular
    monkeypatch.setattr(eavesdropper, "SINGULAR_TOL", 0.8)
    masks, objectives = [], []
    completed, objective = eavesdropper._completed, eavesdropper._objective

    def recording(w):
        trial, ok = completed(w)
        masks.append(ok)
        return trial, ok

    monkeypatch.setattr(eavesdropper, "_completed", recording)
    monkeypatch.setattr(eavesdropper, "_objective", lambda tau, v: objectives.append(len(v)) or objective(tau, v))
    with np.errstate(all="raise"):
        assert_matches_per_start(random_attack(3, 5), OptimizerConfig(restarts=8, seed=0))
    assert any(not ok.all() and ok.any() for ok in masks)
    # one step path: after the starts' evaluation, every step evaluates the
    # whole stack it completed, its near-singular rows included
    assert objectives[1:] == [len(ok) for ok in masks]


def test_all_starts_share_one_completion_per_step(monkeypatch):
    calls, objectives = [], []
    completed, objective = eavesdropper._completed, eavesdropper._objective

    def counting(w):
        calls.append(len(w))
        return completed(w)

    monkeypatch.setattr(eavesdropper, "_completed", counting)
    monkeypatch.setattr(eavesdropper, "_objective", lambda tau, v: objectives.append(len(v)) or objective(tau, v))
    cfg = OptimizerConfig(restarts=8, seed=0)
    steps = np.array(accessible_information(random_attack(4, 1), cfg).steps)
    assert len(calls) <= eavesdropper.MAX_ITERATIONS + 1
    assert calls[0] == 8  # every start is in the first stack
    # a stopped start leaves the stack: step t (from 1) completes exactly
    # the starts that had not stopped by step t - 1, and no other
    assert np.all(np.diff(calls) <= 0)
    assert calls == [int((steps > t - 1).sum()) for t in range(1, len(calls) + 1)]
    assert len(calls) == steps.max()
    assert len(objectives) == steps.max() + 1  # the starts, then one evaluation per step


@pytest.mark.parametrize("max_iterations", [0, 1, 40, 2000, 5000])
def test_steps_reach_the_cap_exactly_when_a_start_stops_on_iterations(monkeypatch, max_iterations):
    monkeypatch.setattr(eavesdropper, "MAX_ITERATIONS", max_iterations)
    result = accessible_information(random_attack(4, 1), OptimizerConfig(restarts=8, seed=0))
    assert len(result.steps) == len(result.stop_reasons) == 8
    for reason, steps in zip(result.stop_reasons, result.steps):
        assert (reason == "iterations") == (steps == max_iterations)
        assert 0 <= steps <= max_iterations


def test_a_run_of_kept_steps_may_outgrow_the_default_cap(monkeypatch):
    # with no kept step counted as flat, forward-cnot's first two starts keep
    # every step at 1 bit, so their runs of kept steps pass the default cap
    monkeypatch.setattr(eavesdropper, "FLAT_GAIN", 0.0)
    monkeypatch.setattr(eavesdropper, "MAX_ITERATIONS", 5000)
    result = accessible_information(named_attack("forward-cnot"), OptimizerConfig(restarts=2, seed=0))
    assert result.stop_reasons == ["iterations"] * 2
    assert result.steps == [5000] * 2
    assert min(result.restart_values) >= 1.0 - 1e-12


def stacked_solve_matches_each_instance(attacks, stack, cfg):
    """_accessible_information on the evaluated stack, instance k against attack k solved alone."""
    results = _accessible_information(_evaluate(*stack), cfg)
    assert len(results) == len(attacks)
    for attack, result in zip(attacks, results):
        alone = accessible_information(attack, cfg)
        assert result.info == alone.info
        assert result.restart_values == alone.restart_values
        assert result.stop_reasons == alone.stop_reasons
        assert result.steps == alone.steps
        assert np.array_equal(result.povm.elements, alone.povm.elements)


def attack_stack(attacks) -> tuple:
    return tuple(np.stack([getattr(a, k) for a in attacks]) for k in ("omega", "v", "u"))


@pytest.mark.parametrize(
    "attacks",
    [[random_attack(3, s) for s in range(6)], [random_attack(1, s) for s in (1, 2, 3)]],
    ids=["d=3", "d=1"],
)
def test_stacked_solve_equals_per_instance_solves(attacks):
    stacked_solve_matches_each_instance(attacks, attack_stack(attacks), OptimizerConfig(restarts=4, seed=2))


def test_stacked_solve_equals_per_instance_solves_on_a_family_grid():
    thetas = np.linspace(0.0, 1.5707963, 9)
    attacks = [named_attack("partial-return-cz", float(t)) for t in thetas]
    stacked_solve_matches_each_instance(attacks, family_stack("partial-return-cz", thetas),
                                        OptimizerConfig(restarts=3, seed=0))


def test_stacked_solve_equals_per_instance_solves_with_an_empty_branch():
    attacks = [random_attack(2, 1), degenerate_sift_attack(), random_attack(2, 5)]
    with np.errstate(all="raise"):
        stacked_solve_matches_each_instance(attacks, attack_stack(attacks), OptimizerConfig(restarts=4, seed=1))
        chi = _holevo(_evaluate(*attack_stack(attacks)))
        assert chi.tolist() == [holevo_bound(a) for a in attacks]


def von_neumann_bits(rho) -> float:
    """S(rho) in bits from the d x d eigenvalues, 0 log 0 = 0."""
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > 1e-15]
    return float(-(eigs * np.log2(eigs)).sum())


def per_state_holevo(rho0, rho1, p) -> float:
    """chi = S(p0 rho0 + p1 rho1) - sum_z p_z S(rho_z), skipping states of weight <= 1e-12."""
    chi = von_neumann_bits(p[0] * rho0 + p[1] * rho1)
    for weight, rho in zip(p, (rho0, rho1)):
        if weight > 1e-12:
            chi -= weight * von_neumann_bits(rho)
    return max(chi, 0.0)


@pytest.mark.parametrize("attack", [random_attack(d, s) for d in (1, 2, 3, 4) for s in range(5)]
                         + [degenerate_sift_attack(), crafted_zero_plus_attack()]
                         + [random_attack(d, s) for d in (5, 6) for s in range(5)])
def test_holevo_matches_the_per_state_formula(attack):
    out = sift_branch(attack)
    expected = per_state_holevo(*out.rho_eve, out.p_a)
    assert abs(holevo_bound(attack) - expected) <= 1e-12


GRAM_ATTACKS = ([random_attack(d, s) for d in range(1, 7) for s in range(3)]
                + [named_attack(f, t) for f in ("partial-forward-cnot", "partial-return-cz") for t in (0.3, 1.2)]
                + [degenerate_sift_attack()])


@pytest.mark.parametrize("attack", GRAM_ATTACKS)
def test_gram_matrix_gives_the_kernel_figures(attack):
    # the (z, q) order of Gamma: U psi has qubit-q block b_{0,q} + b_{1,q}, so the
    # CTRL amplitude (U psi)_0 - (U psi)_1 is sum_i c_i b_i with c below
    ev = _evaluate_attack(attack)
    gram = _gram(ev.branches)[0]
    c = np.array([1.0, -1.0, 1.0, -1.0]) / np.sqrt(2.0)
    assert abs((c @ gram @ c).real - ev.p_ctrl[0]) <= 1e-14
    assert abs(gram[1, 1].real + gram[2, 2].real - ev.p_sift[0]) <= 1e-14
    assert np.abs(np.einsum("zqzq->z", gram.reshape(2, 2, 2, 2)).real - ev.p_a[0]).max() <= 1e-14
    assert np.abs(gram - gram.conj().T).max() <= 1e-14
    assert np.linalg.eigvalsh(gram).min() >= -1e-14
    assert abs(np.trace(gram) - 1.0) <= 1e-14


@pytest.mark.parametrize("seed", range(8))
def test_holevo_is_concave_in_the_gram_matrix(seed):
    # the blocks sqrt(lam) b_1 and sqrt(1 - lam) b_2 side by side on a d_1 + d_2 ancilla
    # have the Gram matrix lam Gamma_1 + (1 - lam) Gamma_2: Eve runs one of two attacks
    # and flags which in her ancilla
    rng = np.random.default_rng(seed)
    for _ in range(25):
        first, second = (_evaluate_attack(random_attack(int(rng.integers(1, 5)), rng)) for _ in range(2))
        lam = rng.random()
        branches = np.concatenate([np.sqrt(lam) * first.branches, np.sqrt(1.0 - lam) * second.branches], axis=-1)
        mixed = dataclasses.replace(first, branches=branches, p_a=lam * first.p_a + (1.0 - lam) * second.p_a)
        gram = lam * _gram(first.branches) + (1.0 - lam) * _gram(second.branches)
        assert np.abs(_gram(branches) - gram).max() <= 1e-15
        assert _holevo(mixed)[0] >= lam * _holevo(first)[0] + (1.0 - lam) * _holevo(second)[0] - 1e-12


def test_holevo_identical_states():
    # the identity attack leaves Eve's ancilla in omega whatever Alice reads
    assert holevo_bound(named_attack("identity")) <= 1e-12


def test_holevo_orthogonal_pure_states():
    # forward-cnot copies Alice's bit into the ancilla: |0> or |1>
    assert abs(holevo_bound(named_attack("forward-cnot")) - 1.0) <= 1e-12


def test_holevo_zero_plus_ensemble():
    assert abs(holevo_bound(crafted_zero_plus_attack()) - HOLEVO_ZERO_PLUS) <= 1e-12


def binary_entropy(p):
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def two_pure_state_figures(theta):
    """Both named families leave SIFT alone and give Eve two equiprobable pure
    states with overlap cos(theta): P_CTRL = sin^2(theta) / 2,
    chi = h((1 - cos theta) / 2) and, by Levitin's formula for two pure
    states, I_acc = 1 - h((1 - sin theta) / 2)."""
    p_ctrl = np.sin(theta) ** 2 / 2.0
    chi = binary_entropy(np.sin(theta / 2.0) ** 2)
    info = 1.0 - binary_entropy(np.sin(np.pi / 4.0 - theta / 2.0) ** 2)
    return p_ctrl, chi, info


ORACLE_THETAS = [1e-3, 0.01, 0.107, 0.3, 0.7, 1.0, 1.5, np.pi / 2 - 1e-3]


@pytest.mark.parametrize("family", ["partial-forward-cnot", "partial-return-cz"])
@pytest.mark.parametrize("theta", ORACLE_THETAS)
def test_families_match_the_two_pure_state_closed_forms(family, theta):
    attack = named_attack(family, theta)
    p_ctrl, chi, info = two_pure_state_figures(theta)
    sift = sift_branch(attack)
    assert sift.p_sift <= 1e-12
    assert abs(ctrl_error(attack) - p_ctrl) <= 1e-12
    assert abs(holevo_bound(attack) - chi) <= 1e-12
    assert abs(accessible_information(attack, OptimizerConfig(restarts=4)).info - info) <= 1e-12


@pytest.mark.parametrize("family", ["partial-forward-cnot", "partial-return-cz"])
def test_sweep_optimize_matches_the_two_pure_state_closed_forms(capsys, family):
    assert main(["sweep", "--family", family, "--param", "theta=0.01:1.5:8", "--povm", "optimize"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    thetas = np.linspace(0.01, 1.5, 8)
    assert len(rows) == len(thetas)
    for theta, row in zip(thetas, rows):
        p_ctrl, _, info = two_pure_state_figures(theta)
        assert abs(float(row["p_ctrl"]) - p_ctrl) <= 1e-10
        assert abs(float(row["p_sift"])) <= 1e-10
        assert abs(float(row["info_lower"]) - info) <= 1e-10
