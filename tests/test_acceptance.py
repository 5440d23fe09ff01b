"""End-to-end acceptance checks.

Each test prints one [acceptance] PASS/FAIL line; run with -s to see
them all.  Random checks are seeded and sized to certify the bound and
every derivation step at scale.
"""

import json
import time

import numpy as np

from sqkd import linalg
from sqkd.attacks import named_attack, random_attack
from sqkd.cli import main
from sqkd.eavesdropper import OptimizerConfig, accessible_information, holevo_bound
from sqkd.info import mutual_information
from sqkd.povm import basis_povm
from sqkd.protocol import AttackModel, _evaluate, _prepared_states, _sift_error_operator, ctrl_error, sift_branch
from sqkd.suites import run_suite
from sqkd.tradeoff import fidelity_information_bound, verify_tradeoff

HOLEVO_ZERO_PLUS = 0.6008760366928561


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_robustness_limit():
    started = time.monotonic()
    attack = named_attack("identity")
    p_ctrl = ctrl_error(attack)
    p_sift = sift_branch(attack).p_sift
    found = accessible_information(attack)
    elapsed = time.monotonic() - started
    ok = p_ctrl == 0.0 and p_sift == 0.0 and found.info <= 1e-6 and elapsed < 5.0
    assert report(
        "robustness-limit", ok,
        f"p_ctrl={p_ctrl} p_sift={p_sift} optimized_info={found.info:.3e} t={elapsed:.2f}s",
    )


def _fixture_numbers(attack_name: str, basis: str):
    attack = named_attack(attack_name)
    rep = verify_tradeoff(attack, basis_povm(2, basis))
    ok = (
        abs(rep.p_ctrl - 0.5) <= 1e-9
        and abs(rep.p_sift) <= 1e-12
        and abs(rep.info - 1.0) <= 1e-9
        and abs(rep.rhs - np.sqrt(2.0)) <= 1e-12
        and rep.holds
        and abs(rep.gap - (np.sqrt(2.0) - 1.0)) <= 1e-9
    )
    detail = (
        f"p_ctrl={rep.p_ctrl:.12f} p_sift={rep.p_sift:.3e} info={rep.info:.12f} "
        f"rhs={rep.rhs:.12f} gap={rep.gap:.4f} holds={rep.holds}"
    )
    return ok, detail


def test_forward_cnot_fixture():
    ok, detail = _fixture_numbers("forward-cnot", "z")
    assert report("forward-cnot-fixture", ok, detail)


def test_return_cz_fixture():
    ok, detail = _fixture_numbers("return-cz", "x")
    assert report("return-cz-fixture", ok, detail)


def test_theorem_suite_10k():
    started = time.monotonic()
    result = run_suite("theorem", 10_000, seed=1)
    elapsed = time.monotonic() - started
    ok = result.violations == 0 and result.min_slack >= -1e-9 and elapsed < 600.0
    assert report(
        "bound-suite-10k", ok,
        f"violations={result.violations} min_slack={result.min_slack:.3e} "
        f"max_info_ratio={result.max_info_ratio:.4f} t={elapsed:.1f}s",
    )


def test_fidelity_info_bound_suite_100k():
    result = run_suite("lemma1", 100_000, seed=7)
    independent = np.full((2, 2), 0.25)
    correlated = np.diag([0.5, 0.5])
    eq_ok = (
        abs(fidelity_information_bound(independent)) <= 1e-12
        and abs(mutual_information(independent)) <= 1e-12
        and abs(fidelity_information_bound(correlated) - 1.0) <= 1e-12
        and abs(mutual_information(correlated) - 1.0) <= 1e-12
    )
    ok = result.violations == 0 and eq_ok
    assert report(
        "fidelity-info-bound-suite-100k", ok,
        f"violations={result.violations} min_slack={result.min_slack:.3e} equalities={eq_ok}",
    )


def test_overlap_bound_suite_10k():
    result = run_suite("lemma2", 10_000, seed=3)
    phi = linalg.haar_unitary(6, 0)[:, 0]
    from sqkd.povm import Povm
    from sqkd.tradeoff import povm_overlap_slack

    saturation = abs(povm_overlap_slack(phi, phi, np.eye(2), Povm((np.eye(3),))))
    ok = result.violations == 0 and saturation <= 1e-12
    assert report(
        "overlap-bound-suite-10k", ok,
        f"violations={result.violations} min_slack={result.min_slack:.3e} "
        f"saturation_slack={saturation:.3e}",
    )


def test_derivation_chain_suite_10k():
    result = run_suite("proof-chain", 10_000, seed=5)
    ok = (
        result.violations == 0
        and result.min_slack >= -1e-9
        and result.max_equality_residual <= 1e-12
    )
    assert report(
        "derivation-chain-suite-10k", ok,
        f"violations={result.violations} min_slack={result.min_slack:.3e} "
        f"max_equality_residual={result.max_equality_residual:.3e}",
    )


def test_sift_error_cross_check_10k():
    groups = {}
    root = np.random.SeedSequence(17)
    for child in root.spawn(10_000):
        rng = np.random.default_rng(child)
        attack = random_attack(int(rng.choice([2, 3, 4])), child)
        groups.setdefault(attack.ancilla_dim, []).append(attack)
    worst = 0.0
    for attacks in groups.values():  # each ancilla dimension as one stack
        omega, v, u = (np.stack([getattr(a, f) for a in attacks]) for f in ("omega", "v", "u"))
        operator_form = _sift_error_operator(_prepared_states(omega, v), u)
        worst = max(worst, float(np.abs(_evaluate(omega, v, u).p_sift - operator_form).max()))
    ok = worst <= 1e-12
    assert report("sift-error-cross-check-10k", ok, f"max_route_difference={worst:.3e}")


def _zero_plus_attack() -> AttackModel:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = np.eye(2)
    u[2:, 2:] = h
    return AttackModel(2, linalg.basis_state(2, 0), np.eye(4, dtype=complex), u)


def _projective_grid_oracle(p_a, rho_eve, angles: int) -> float:
    """Exhaustive scan of real-plane projective measurements on one qubit,
    with an inline mutual-information evaluation."""

    def entropy(v):
        nz = v[v > 1e-15]
        return -(nz * np.log2(nz)).sum()

    best = 0.0
    for theta in np.linspace(0.0, np.pi, angles, endpoint=False):
        direction = np.array([np.cos(theta), np.sin(theta)])
        proj = np.outer(direction, direction)
        table = np.empty((2, 2))
        for z in (0, 1):
            hit = float(np.trace(rho_eve[z] @ proj).real)
            table[z] = [p_a[z] * hit, p_a[z] * (1.0 - hit)]
        np.clip(table, 0.0, None, out=table)
        value = entropy(table.sum(1)) + entropy(table.sum(0)) - entropy(table.ravel())
        best = max(best, value)
    return best


def test_accessible_information_oracle():
    attack = _zero_plus_attack()
    out = sift_branch(attack)
    oracle = _projective_grid_oracle(out.p_a, out.rho_eve, 10_000)
    chi = holevo_bound(attack)
    found = accessible_information(attack, OptimizerConfig(restarts=12, seed=2))
    ok = (
        0.394 <= found.info <= HOLEVO_ZERO_PLUS + 1e-6
        and found.info >= oracle - 5e-3
        and abs(chi - HOLEVO_ZERO_PLUS) <= 1e-6
    )
    assert report(
        "accessible-info-oracle", ok,
        f"optimizer={found.info:.6f} grid_oracle={oracle:.6f} holevo={chi:.6f}",
    )


def test_partial_cnot_sweep_monotone(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--family", "partial-forward-cnot",
        "--param", f"theta=0:{np.pi / 2}:100", "--povm", "z", "--out", str(out_path),
    ])
    capsys.readouterr()
    rows = [line.split(",") for line in out_path.read_text().strip().split("\n")[1:]]
    p_ctrl = [float(r[2]) for r in rows]
    p_sift = [float(r[3]) for r in rows]
    holds = [r[7] == "true" for r in rows]
    ok = (
        code == 0
        and len(rows) == 100
        and abs(p_ctrl[0]) <= 1e-12
        and abs(p_ctrl[-1] - 0.5) <= 1e-9
        and all(b - a >= -1e-9 for a, b in zip(p_ctrl, p_ctrl[1:]))
        and all(abs(v) <= 1e-12 for v in p_sift)
        and all(holds)
    )
    assert report(
        "partial-cnot-sweep", ok,
        f"points={len(rows)} p_ctrl: {p_ctrl[0]:.1e} -> {p_ctrl[-1]:.6f} "
        f"max_p_sift={max(map(abs, p_sift)):.1e} all_hold={all(holds)}",
    )


def test_verify_command_determinism(tmp_path, capsys):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    outputs = []
    for path in paths:
        main(["verify", "--suite", "theorem", "--trials", "300", "--seed", "9",
              "--out", str(path)])
        outputs.append(capsys.readouterr().out)
    same_stdout = outputs[0] == outputs[1]
    same_files = paths[0].read_bytes() == paths[1].read_bytes()
    summary = json.loads(paths[0].read_text())
    ok = same_stdout and same_files and summary["violations"] == 0
    assert report(
        "verify-determinism", ok,
        f"stdout_identical={same_stdout} files_identical={same_files} "
        f"violations={summary['violations']}",
    )
