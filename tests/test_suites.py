import json

import numpy as np
import pytest

from sqkd import suites
from sqkd.cli import main
from sqkd.info import mutual_information
from sqkd.povm import povm_from_factors
from sqkd.protocol import ctrl_error, eve_information, sift_branch
from sqkd.suites import (
    _ONE_SIDED,
    SUITE_NAMES,
    SUITES,
    _draw_lemma2,
    _draw_theorem,
    _lemma2_figures,
    _random_joint,
    _suite_figures,
    _theorem_stack,
    run_suite,
    sample_theorem_instance,
)
from sqkd.tradeoff import SLACK_TOL, fidelity_information_bound, povm_overlap_slack, proof_chain, tradeoff_bound


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suites_pass_at_small_scale(suite):
    result = run_suite(suite, 100, seed=13)
    assert result.passed
    assert result.violations == 0
    assert result.trials == 100
    assert 0 <= result.worst_trial < 100


def test_suite_results_are_deterministic():
    a = run_suite("theorem", 50, seed=4)
    b = run_suite("theorem", 50, seed=4)
    assert a == b


def test_theorem_suite_matches_public_functions():
    result = run_suite("theorem", 40, seed=9)
    slacks = []
    for child in np.random.SeedSequence(9).spawn(40):
        attack, eve_povm = sample_theorem_instance(child)
        rhs = tradeoff_bound(ctrl_error(attack), sift_branch(attack).p_sift)
        slacks.append(rhs - eve_information(attack, eve_povm))
    assert result.worst_trial == int(np.argmin(slacks))
    assert result.min_slack == min(slacks)


def test_proof_chain_tracks_equality_residual():
    result = run_suite("proof-chain", 50, seed=21)
    assert result.max_equality_residual is not None
    assert result.max_equality_residual <= 1e-12


def test_theorem_tracks_info_ratio():
    result = run_suite("theorem", 50, seed=22)
    assert result.max_info_ratio is not None
    assert 0.0 <= result.max_info_ratio <= 1.0


def test_run_suite_rejects_bad_args():
    with pytest.raises(ValueError):
        run_suite("nope", 10, 0)
    with pytest.raises(ValueError):
        run_suite("lemma1", 0, 0)


def reference_figures(suite: str, child) -> dict:
    """A trial's figures from its seeded draws and the public scalar functions."""
    if suite == "lemma1":
        table = _random_joint(np.random.default_rng(child))
        return {"slack": fidelity_information_bound(table) - mutual_information(table)}
    if suite == "lemma2":
        rng = np.random.default_rng(child)
        d, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        phi0 = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
        phi1 = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return {"slack": povm_overlap_slack(phi0, phi1, x, povm_from_factors(per_matrix_factors(rng, m, d)))}
    attack, eve_povm = sample_theorem_instance(child)
    rhs = tradeoff_bound(ctrl_error(attack), sift_branch(attack).p_sift)
    if suite == "theorem":
        info = eve_information(attack, eve_povm)
        return {"slack": rhs - info, "max_info_ratio": info / rhs if rhs > 1e-15 else 0.0, "rhs": rhs}
    slacks = proof_chain(attack, eve_povm).step_slacks
    step = min((v, k) for k, v in reversed(slacks.items()) if not k.startswith("s1"))[1]
    return {"slack": slacks[step], "rhs": rhs, "step": step,
            "max_equality_residual": max(abs(slacks["s1_z0"]), abs(slacks["s1_z1"]))}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_batched_suite_matches_public_functions(suite, tmp_path, capsys):
    trials, seed = 500, 1
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", suite, "--trials", str(trials), "--seed", str(seed), "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    figures = _suite_figures(suite, trials, seed)
    reference = [reference_figures(suite, child) for child in np.random.SeedSequence(seed).spawn(trials)]
    for name in reference[0]:
        want = [r[name] for r in reference]
        if name == "step":
            assert [_ONE_SIDED[i] for i in figures["step"]] == want
        else:
            assert np.max(np.abs(figures[name] - np.array(want))) <= 1e-12, name
    slacks = np.array([r["slack"] for r in reference])
    _, _, max_field, max_limit = SUITES[suite]
    violations = int((slacks < SLACK_TOL).sum())
    if max_field is not None:
        extra = np.array([r[max_field] for r in reference])
        violations += int((extra > max_limit).sum())
        assert doc[max_field] == extra.max()
    worst = int(np.argmin(slacks))
    assert (doc["worst_trial"], doc["violations"], doc["min_slack"]) == (worst, violations, slacks[worst])
    if suite in ("theorem", "proof-chain"):
        assert doc["non_vacuous"] == sum(r["rhs"] <= 1.0 for r in reference)
    if suite == "proof-chain":
        assert doc["worst_step"] == reference[worst]["step"]


def per_matrix_factors(rng, m, d):
    return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(m)]


def parent_haar_unitary(dim, rng):
    """Haar unitary drawn as the per-instance sampler always drew it."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def test_batched_sampler_draws_the_instances_of_sample_theorem_instance():
    children = np.random.SeedSequence(1).spawn(500)
    draws = [_draw_theorem(child) for child in children]
    groups = {}
    for i, (key, _) in enumerate(draws):
        groups.setdefault(key, []).append(i)
    assert len(groups) > 10
    for key, members in groups.items():
        omega, v, u, elements = _theorem_stack(key, [draws[i][1] for i in members])
        for k, i in enumerate(members):
            attack, eve_povm = sample_theorem_instance(children[i])
            for got, want in ((omega, attack.omega), (v, attack.v), (u, attack.u), (elements, eve_povm.elements)):
                assert np.array_equal(got[k], want)
            # the trial's numbers drawn one matrix at a time from its own generator
            rng = np.random.default_rng(children[i])
            d = int(rng.integers(2, 5))
            m = int(rng.integers(2, d * d + 1))
            assert (d, m) == key
            assert np.array_equal(v[k], parent_haar_unitary(2 * d, rng))
            assert np.array_equal(u[k], parent_haar_unitary(2 * d, rng))
            assert np.array_equal(elements[k], povm_from_factors(per_matrix_factors(rng, m, d)).elements)
            assert omega[k].tolist() == [1.0] + [0.0] * (d - 1)


def test_lemma2_groups_slice_the_arrays_each_trial_draws(monkeypatch):
    children = np.random.SeedSequence(3).spawn(300)
    draws = [_draw_lemma2(child) for child in children]
    groups = {}
    for i, (key, _) in enumerate(draws):
        groups.setdefault(key, []).append(i)
    assert len(groups) == 24
    for key, members in groups.items():
        seen = []
        monkeypatch.setattr(suites, "_overlap_slack", lambda *arrays: seen.append(arrays) or np.zeros(len(members)))
        _lemma2_figures(key, [draws[i][1] for i in members])
        phi0, phi1, x, elements = seen[0]
        for k, i in enumerate(members):
            # the trial's numbers drawn one array at a time from its own generator
            rng = np.random.default_rng(children[i])
            d, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            assert (d, m) == key
            for got in (phi0[k], phi1[k]):
                assert np.array_equal(got, rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d))
            assert np.array_equal(x[k], rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            assert np.array_equal(elements[k], povm_from_factors(per_matrix_factors(rng, m, d)).elements)


def test_a_trial_draws_the_same_instance_every_time():
    def child():
        return np.random.SeedSequence(4).spawn(3)[2]

    reused = child()
    key, draw = _draw_theorem(reused)
    instances = [sample_theorem_instance(reused), sample_theorem_instance(reused), sample_theorem_instance(child())]
    again = _draw_theorem(reused)
    assert again[0] == key and np.array_equal(again[1], draw)
    for attack, eve_povm in instances:
        assert (attack.ancilla_dim, eve_povm.outcome_count) == key
        for field in ("omega", "v", "u"):
            assert np.array_equal(getattr(attack, field), getattr(instances[-1][0], field))
        assert np.array_equal(eve_povm.elements, instances[-1][1].elements)
    lemma2 = [_draw_lemma2(reused), _draw_lemma2(reused), _draw_lemma2(child())]
    for key, g in lemma2:
        assert key == lemma2[-1][0]
        assert np.array_equal(g, lemma2[-1][1])


def test_chunks_do_not_change_results():
    # 600 trials span three chunks; the first 256 are one whole chunk on their own
    for suite in ("theorem", "proof-chain", "lemma2"):
        long_run = _suite_figures(suite, 600, 2)
        short_run = _suite_figures(suite, 256, 2)
        for name, values in short_run.items():
            assert np.array_equal(long_run[name][:256], values), (suite, name)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_failed_group_names_its_first_failing_trial(suite, monkeypatch, capsys):
    draw, *rest = SUITES[suite]
    children = np.random.SeedSequence(3).spawn(400)
    # trial 300 and a later trial of its group draw NaN
    later = next(k for k in range(301, 400) if draw(children[k])[0] == draw(children[300])[0])

    def poisoned(child):
        key, g = draw(child)
        return key, (np.full_like(g, np.nan) if child.spawn_key[-1] in (300, later) else g)

    monkeypatch.setitem(SUITES, suite, (poisoned, *rest))
    with pytest.raises(ValueError, match=f"^{suite} trial 300: "):
        run_suite(suite, 400, 3)
    assert main(["verify", "--suite", suite, "--trials", "400", "--seed", "3"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {suite} trial 300: ")
