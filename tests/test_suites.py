import numpy as np
import pytest

from sqkd.protocol import ctrl_error, eve_information, sift_branch
from sqkd.suites import SUITE_NAMES, run_suite, sample_theorem_instance
from sqkd.tradeoff import tradeoff_bound


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
