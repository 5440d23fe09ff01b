import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from sqkd import suites
from sqkd.cli import main
from sqkd.info import mutual_information
from sqkd.linalg import basis_state
from sqkd.povm import povm_from_factors
from sqkd.protocol import AttackModel, _evaluate_attack, ctrl_error, eve_information, sift_branch
from sqkd.suites import (
    SUITE_NAMES,
    SUITES,
    _suite_figures,
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


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7]  # 2**130 + 7 has five 32-bit entropy words


# The reference routes: the draw contract written out with plain numpy calls,
# one trial at a time, and each trial's figures from the public scalar functions.

@functools.cache
def reference_window(suite: str, seed: int, w: int) -> tuple:
    """The shapes and blocks of all 1024 rows of window w, drawn from child w of SeedSequence(seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(w + 1)[w])
    if suite == "lemma1":
        m = rng.integers(1, 9, size=1024)
        shapes, sizes, stream = [(int(x),) for x in m], 2 * m, rng.random
    elif suite == "lemma2":
        d = rng.integers(1, 5, size=1024)
        m = rng.integers(1, 7, size=1024)
        shapes, sizes, stream = list(zip(d.tolist(), m.tolist())), 8 * d + 8 + 2 * m * d * d, rng.standard_normal
    else:
        d = rng.integers(2, 5, size=1024)
        m = rng.integers(2, d * d + 1)
        shapes, sizes, stream = list(zip(d.tolist(), m.tolist())), 16 * d * d + 2 * m * d * d, rng.standard_normal
    return shapes, np.split(stream(int(sizes.sum())), np.cumsum(sizes)[:-1])


def reference_trial(suite: str, seed: int, k: int) -> tuple:
    """Trial k's shape and a reader of its block: take(*shape) returns its next numbers."""
    shapes, blocks = reference_window(suite, seed, k // 1024)
    block, at = blocks[k % 1024], 0

    def take(*shape):
        nonlocal at
        at += math.prod(shape)
        assert at <= len(block)
        return block[at - math.prod(shape):at].reshape(shape)

    return shapes[k % 1024], take


def complex_normals(take, *shape):
    return take(*shape) + 1j * take(*shape)


def parent_haar_unitary(g):
    """Haar unitary from one Ginibre matrix, as the per-instance sampler always drew it."""
    q, r = np.linalg.qr(g / np.sqrt(2.0))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def reference_instance(seed: int, k: int) -> tuple:
    (d, m), take = reference_trial("theorem", seed, k)
    v = parent_haar_unitary(complex_normals(take, 2 * d, 2 * d))
    u = parent_haar_unitary(complex_normals(take, 2 * d, 2 * d))
    eve_povm = povm_from_factors([complex_normals(take, d, d) for _ in range(m)])
    return AttackModel(d, basis_state(d, 0), v, u), eve_povm


def reference_figures(suite: str, seed: int, k: int) -> dict:
    """Trial k's figures from its reference draws and the public scalar functions."""
    if suite == "lemma1":
        (m,), take = reference_trial(suite, seed, k)
        table = take(2, m)
        table = table / table.sum()
        return {"slack": fidelity_information_bound(table) - mutual_information(table)}
    if suite == "lemma2":
        (d, m), take = reference_trial(suite, seed, k)
        phi0, phi1 = complex_normals(take, 2 * d), complex_normals(take, 2 * d)
        x = complex_normals(take, 2, 2)
        return {"slack": povm_overlap_slack(phi0, phi1, x, povm_from_factors([complex_normals(take, d, d)
                                                                             for _ in range(m)]))}
    attack, eve_povm = reference_instance(seed, k)
    rhs = tradeoff_bound(ctrl_error(attack), sift_branch(attack).p_sift)
    if suite == "theorem":
        info = eve_information(attack, eve_povm)
        return {"slack": rhs - info, "max_info_ratio": info / rhs if rhs > 1e-15 else 0.0, "rhs": rhs}
    slacks = proof_chain(attack, eve_povm).step_slacks
    step = min((v, k) for k, v in reversed(slacks.items()) if not k.startswith("s1"))[1]
    return {"slack": slacks[step], "rhs": rhs, "step": step,
            "max_equality_residual": max(abs(slacks["s1_z0"]), abs(slacks["s1_z1"]))}


def test_the_stream_a_window_slices_is_a_prefix_of_any_longer_one():
    # so a window that draws the blocks of its first n rows draws what a full window would
    for draw in ("standard_normal", "random"):
        for seed in (0, 5, 2**64 + 3):
            short, full = (getattr(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,))), draw)(n)
                           for n in (777, 5000))
            assert np.array_equal(short, full[:777])


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_theorem_instance_is_the_suites_row_k(seed):
    trials = 1100
    children = np.random.SeedSequence(seed).spawn(trials)
    figures = {suite: _suite_figures(suite, trials, seed) for suite in ("theorem", "proof-chain")}
    for k in (0, 1023, 1024, trials - 1):
        attack, eve_povm = sample_theorem_instance(children[k])
        want_attack, want_povm = reference_instance(seed, k)
        for field in ("omega", "v", "u"):
            assert np.array_equal(getattr(attack, field), getattr(want_attack, field)), (k, field)
        assert np.array_equal(eve_povm.elements, want_povm.elements), k
        # the suite's figures of row k are those of this instance evaluated alone, bit for bit
        ev = _evaluate_attack(attack)
        rhs = tradeoff_bound(ev.p_ctrl, ev.p_sift)
        for suite, figure in (("theorem", suites._theorem_figures), ("proof-chain", suites._proof_chain_figures)):
            for name, values in figure(ev, eve_povm.elements[None], rhs).items():
                assert values[0] == figures[suite][name][k], (suite, k, name)


@pytest.mark.parametrize("seed", [np.random.SeedSequence(7), np.random.SeedSequence(7).spawn(3)[2].spawn(2)[1]],
                         ids=["root", "grandchild"])
def test_sample_theorem_instance_rejects_a_seed_that_is_not_a_child(seed):
    with pytest.raises(ValueError, match=r"^sample_theorem_instance takes child k of SeedSequence\(seed\)\.spawn, "
                                         r"whose spawn_key is \(k,\); got spawn_key \((|2, 1)\)$"):
        sample_theorem_instance(seed)


def test_lemma2_across_three_windows_matches_the_per_child_route():
    trials, seed = 2100, 6
    result = run_suite("lemma2", trials, seed)
    slacks = np.array([reference_figures("lemma2", seed, k)["slack"] for k in range(trials)])
    worst = int(np.argmin(slacks))
    assert (result.worst_trial, result.min_slack) == (worst, slacks[worst])
    assert result.violations == int((slacks < SLACK_TOL).sum())


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_batched_suite_matches_public_functions(suite, tmp_path, capsys):
    trials, seed = 500, 1
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", suite, "--trials", str(trials), "--seed", str(seed), "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    figures = _suite_figures(suite, trials, seed)
    reference = [reference_figures(suite, seed, k) for k in range(trials)]
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


def test_batched_sampler_draws_the_instances_of_sample_theorem_instance(monkeypatch):
    # every V, U and POVM a theorem window builds is the one its trial draws alone
    seed, trials = 1, 1100
    children = np.random.SeedSequence(seed).spawn(trials)
    built = []
    for name in ("_attack_stack", "_povm_stack"):
        helper = getattr(suites, name)
        monkeypatch.setattr(suites, name, lambda *args, helper=helper: built.append(helper(*args)) or built[-1])
    window, groups = suites._window, []

    def recorded(draw, seed, w, n):
        keys, cum, stream = window(draw, seed, w, n)
        groups.extend((w, int(d), 1024 * w + rows) for (d,), rows in suites._groups(keys))
        return keys, cum, stream

    monkeypatch.setattr(suites, "_window", recorded)
    _suite_figures("theorem", trials, seed)
    monkeypatch.undo()
    built = iter(built)
    assert len(groups) == 6
    for w, d, rows in groups:
        omega, v, u = next(built)
        instances = [sample_theorem_instance(children[k]) for k in rows]
        for i, (attack, _) in enumerate(instances):
            assert attack.ancilla_dim == d
            for got, want in ((omega, attack.omega), (v, attack.v), (u, attack.u)):
                assert np.array_equal(got[i], want)
        # the POVM half runs per outcome count m, rows in trial order
        for m in sorted({p.outcome_count for _, p in instances}):
            elements = next(built)
            want = [p.elements for _, p in instances if p.outcome_count == m]
            assert np.array_equal(elements, np.stack(want))
    assert next(built, None) is None


def test_lemma2_groups_slice_the_arrays_each_trial_draws(monkeypatch):
    seed, trials = 3, 300
    keys, _, _ = suites._window(SUITES["lemma2"][0], seed, 0, trials)
    groups = list(suites._groups(keys))
    assert len(groups) == 24
    for key, rows in groups:
        seen = []
        monkeypatch.setattr(suites, "_overlap_slack", lambda *arrays: seen.append(arrays) or np.zeros(len(rows)))
        _, cum, stream = suites._window(SUITES["lemma2"][0], seed, 0, trials)
        suites._lemma2_figures(key, stream, cum, rows)
        phi0, phi1, x, elements = seen[0]
        for i, k in enumerate(rows):
            # the trial's numbers read one array at a time from its block
            shape, take = reference_trial("lemma2", seed, k)
            assert shape == key
            d, m = key
            for got in (phi0[i], phi1[i]):
                assert np.array_equal(got, complex_normals(take, 2 * d))
            assert np.array_equal(x[i], complex_normals(take, 2, 2))
            assert np.array_equal(elements[i],
                                  povm_from_factors([complex_normals(take, d, d) for _ in range(m)]).elements)


def test_a_trial_draws_the_same_instance_every_time():
    def child():
        return np.random.SeedSequence(4).spawn(3)[2]

    reused = child()
    instances = [sample_theorem_instance(reused), sample_theorem_instance(reused), sample_theorem_instance(child())]
    assert reused.n_children_spawned == 0
    for attack, eve_povm in instances:
        for field in ("omega", "v", "u"):
            assert np.array_equal(getattr(attack, field), getattr(instances[-1][0], field))
        assert np.array_equal(eve_povm.elements, instances[-1][1].elements)
    for draw, _, _, _ in SUITES.values():
        first, again = suites._window(draw, 4, 0, 3), suites._window(draw, 4, 0, 3)
        for a, b in zip(first, again):
            assert np.array_equal(a, b)


def test_windows_do_not_change_results():
    # trial k's figures are the same whatever the number of trials, so
    # whether its window is whole or partial: 200 and 1100 trials end in
    # a partial window, 3000 in a partial third one
    for suite in SUITE_NAMES:
        want = _suite_figures(suite, 3000, 2)
        for trials in (200, 1100):
            got = _suite_figures(suite, trials, 2)
            assert got.keys() == want.keys()
            for name, values in want.items():
                assert np.array_equal(got[name], values[:trials]), (suite, trials, name)


def test_each_shape_group_of_a_window_is_one_evaluation(monkeypatch):
    calls = []

    def evaluate(key, stream, cum, rows):
        calls.append(len(rows))
        return {"slack": np.ones(len(rows))}

    def draw(rng, n):
        return np.zeros((n, 1), dtype=int), np.arange(n + 1), np.zeros(n)

    monkeypatch.setitem(SUITES, "stub", (draw, evaluate, None, None))
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
    # every (window, d) pair of the 1100 draws, d in {2, 3, 4} in order: at most 6 evaluations
    dims = [reference_trial("theorem", 4, k)[0][0] for k in range(1100)]
    want = []
    for window in (dims[:1024], dims[1024:]):
        want += [(window.count(d), d) for d in sorted(set(window))]
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

    def together(key, stream, cum, rows):
        if len(rows) > 1:
            raise error
        return evaluate(key, stream, cum, rows)

    monkeypatch.setitem(SUITES, "lemma2", (draw, together, *rest))
    with pytest.raises(ValueError) as raised:
        run_suite("lemma2", 200, 3)
    assert raised.value is error


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_failed_group_names_its_first_failing_trial(suite, monkeypatch, capsys):
    draw = SUITES[suite][0]
    window = suites._window
    # trial 300, or trial 1050 in the second window, and a later trial of its group draw NaN
    for trials, first in ((400, 300), (1100, 1050)):
        w, n = first // 1024, min(1024, trials - first // 1024 * 1024)
        keys = window(draw, 3, w, n)[0]
        row = first % 1024
        later = 1024 * w + next(r for r in range(row + 1, n) if (keys[r] == keys[row]).all())

        def poisoned(draw, seed, w, n):
            keys, cum, stream = window(draw, seed, w, n)
            for k in (first, later):
                if k // 1024 == w:
                    stream[cum[k % 1024]:cum[k % 1024 + 1]] = np.nan
            return keys, cum, stream

        monkeypatch.setattr(suites, "_window", poisoned)
        with pytest.raises(ValueError, match=f"^{suite} trial {first}: "):
            run_suite(suite, trials, 3)
        assert main(["verify", "--suite", suite, "--trials", str(trials), "--seed", "3"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {suite} trial {first}: ")
