import json
import tracemalloc

import numpy as np
import pytest

from sqkd import suites
from sqkd.cli import main
from sqkd.info import mutual_information
from sqkd.povm import povm_from_factors
from sqkd.protocol import ctrl_error, eve_information, sift_branch
from sqkd.suites import (
    SUITE_NAMES,
    SUITES,
    _Child,
    _child_states,
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


@pytest.mark.parametrize("seed", [-1, 1.5, True, "5", None])
def test_run_suite_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="^seed must be"):
        run_suite("lemma2", 5, seed)


@pytest.mark.parametrize("trials", [-3, 1.5, True, np.float64(4.0)])
def test_run_suite_rejects_a_trial_count_that_is_not_a_positive_integer(trials):
    with pytest.raises(ValueError, match="^trials must be"):
        run_suite("lemma2", trials, 5)


def test_run_suite_takes_numpy_integers_as_python_ints():
    for suite in ("lemma2", "theorem"):
        want = run_suite(suite, 30, 5)
        got = run_suite(suite, np.int32(30), np.int64(5))
        assert got == want
        assert type(got.seed) is int and type(got.trials) is int


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7])
def test_child_states_are_numpys_child_seed_words(seed):
    # 2**130 + 7 has five entropy words, one beyond the pool; k crosses 1023/1024 and 2047/2048
    want = np.array([np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)
                     for k in range(2101)])
    assert np.array_equal(_child_states(seed, 0, 2101), want)
    windows = [_child_states(seed, start, min(start + 1024, 2101)) for start in (0, 1024, 2048)]
    assert np.array_equal(np.concatenate(windows), want)
    assert np.array_equal(_child_states(seed, 1023, 1025), want[1023:1025])
    rng = np.random.default_rng(_Child(2047, windows[1][-1]))
    assert np.array_equal(rng.standard_normal(8),
                          np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2047,))).standard_normal(8))
    with pytest.raises(ValueError, match="^child 2047 holds 4 uint64 words"):
        _Child(2047, windows[1][-1]).generate_state(4)


def test_a_corrupted_child_seed_word_fails_its_window_check(monkeypatch):
    derive = _child_states

    def corrupted(seed, start, stop):
        states = derive(seed, start, stop)
        if start == 1024:  # the second window's first child
            states[0, 2] ^= np.uint64(1 << 40)
        return states

    monkeypatch.setattr(suites, "_child_states", corrupted)
    with pytest.raises(ArithmeticError, match="^child seed routes disagree at trial 1024: "):
        run_suite("lemma2", 1100, 0)


def test_lemma2_across_three_windows_matches_the_per_child_route():
    trials, seed = 2100, 6
    result = run_suite("lemma2", trials, seed)
    slacks = np.array([reference_figures("lemma2", child)["slack"]
                       for child in np.random.SeedSequence(seed).spawn(trials)])
    worst = int(np.argmin(slacks))
    assert (result.worst_trial, result.min_slack) == (worst, slacks[worst])
    assert result.violations == int((slacks < SLACK_TOL).sum())


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
            assert figures["step"].tolist() == want
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


def test_windows_do_not_change_results(monkeypatch):
    # 1100 trials end in a partial window whatever its size
    want = {suite: _suite_figures(suite, 1100, 2) for suite in ("theorem", "proof-chain", "lemma2")}
    for window in (256, 64, 4):
        monkeypatch.setattr(suites, "_WINDOW", window)
        for suite, figures in want.items():
            got = _suite_figures(suite, 1100, 2)
            assert got.keys() == figures.keys()
            for name, values in figures.items():
                assert np.array_equal(got[name], values), (suite, window, name)


def test_each_shape_group_of_a_window_is_one_evaluation(monkeypatch):
    calls = []

    def evaluate(key, draws):
        calls.append(len(draws))
        return {"slack": np.ones(len(draws))}

    monkeypatch.setitem(SUITES, "stub", (lambda child: ("one", None), evaluate, None, None))
    _suite_figures("stub", 1100, 0)
    assert calls == [1024, 76]


@pytest.mark.parametrize("suite", ["theorem", "proof-chain"])
def test_each_ancilla_dimension_of_a_window_is_one_attack_evaluation(suite, monkeypatch):
    calls = []

    def counted(omega, v, u):
        calls.append(omega.shape)
        return evaluate(omega, v, u)

    evaluate = suites._evaluate
    monkeypatch.setattr(suites, "_evaluate", counted)
    figures = _suite_figures(suite, 1100, 4)
    # every (window, d) pair of the 1100 draws, d in {2, 3, 4}: at most 6 evaluations
    children = np.random.SeedSequence(4).spawn(1100)
    dims = [_draw_theorem(child)[0][0] for child in children]
    want = []
    for window in (dims[:1024], dims[1024:]):
        want += [(window.count(d), d) for d in dict.fromkeys(window)]
    assert calls == want and len(calls) <= 6
    assert len(figures["slack"]) == 1100


def test_suite_memory_is_bounded_by_the_window():
    # the draws held at once are one window's, whatever the number of trials:
    # a second window adds none beside the first's, and more windows add only the figures
    for suite in ("lemma2", "theorem"):
        peaks = []
        for trials in (1024, 2048, 10_000):
            tracemalloc.start()
            try:
                run_suite(suite, trials, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.15 * peaks[0], (suite, peaks)
        assert peaks[2] <= 1.25 * peaks[1], (suite, peaks)


def test_a_group_that_fails_only_as_a_group_raises_its_own_error(monkeypatch):
    draw, evaluate, *rest = SUITES["lemma2"]
    error = ValueError("fails only with other trials")

    def together(key, draws):
        if len(draws) > 1:
            raise error
        return evaluate(key, draws)

    monkeypatch.setitem(SUITES, "lemma2", (draw, together, *rest))
    with pytest.raises(ValueError) as raised:
        run_suite("lemma2", 200, 3)
    assert raised.value is error


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_failed_group_names_its_first_failing_trial(suite, monkeypatch, capsys):
    draw, *rest = SUITES[suite]
    # trial 300, or trial 1050 in the second window, and a later trial of its group draw NaN
    for trials, first in ((400, 300), (1100, 1050)):
        children = np.random.SeedSequence(3).spawn(trials)
        later = next(k for k in range(first + 1, trials) if draw(children[k])[0] == draw(children[first])[0])

        def poisoned(child):
            key, g = draw(child)
            return key, (np.full_like(g, np.nan) if child.spawn_key[-1] in (first, later) else g)

        monkeypatch.setitem(SUITES, suite, (poisoned, *rest))
        with pytest.raises(ValueError, match=f"^{suite} trial {first}: "):
            run_suite(suite, trials, 3)
        assert main(["verify", "--suite", suite, "--trials", str(trials), "--seed", "3"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {suite} trial {first}: ")
