"""The package's public names, and the program names the benchmark harness
(bench/workloads.py, bench/run.py) calls directly: dropping one fails here
instead of crashing a benchmark run."""

import numpy as np

import sqkd
import sqkd.cli  # noqa: F401  the two modules sqkd does not import itself, imported as bench/run.py does
import sqkd.serialize  # noqa: F401
from sqkd.tradeoff import _EQUALITIES, STEPS

PUBLIC_NAMES = {
    "AccessibleInfoResult",
    "AttackModel",
    "DegeneracyError",
    "FAMILIES",
    "OptimizerConfig",
    "Povm",
    "ProofTrace",
    "SiftOutcome",
    "SuiteResult",
    "TradeoffReport",
    "accessible_information",
    "basis_povm",
    "ctrl_error",
    "eve_information",
    "fidelity_information_bound",
    "forward_state",
    "haar_unitary",
    "holevo_bound",
    "joint_distribution",
    "mutual_information",
    "named_attack",
    "operator_norm",
    "povm_from_factors",
    "povm_overlap_slack",
    "proof_chain",
    "random_attack",
    "random_povm",
    "run_suite",
    "sift_branch",
    "sift_error_operator",
    "tradeoff_bound",
    "verify_tradeoff",
}
# the modules the harness traces, read as attributes of the package
TRACED_MODULES = ("linalg", "info", "protocol", "attacks", "povm", "eavesdropper",
                  "tradeoff", "suites", "serialize", "cli")


def test_public_names_are_pinned():
    assert sorted(sqkd.__all__) == sorted(PUBLIC_NAMES)
    assert all(hasattr(sqkd, name) for name in sqkd.__all__)


def test_names_the_benchmark_harness_calls():
    assert all(hasattr(sqkd, name) for name in TRACED_MODULES)
    attack, povm = sqkd.suites.sample_theorem_instance(np.random.SeedSequence(7).spawn(3)[2])
    assert isinstance(sqkd.proof_chain(attack, povm).step_slacks, dict)
    assert 0.0 <= sqkd.ctrl_error(attack) <= 1.0
    assert 0.0 <= sqkd.sift_branch(attack).p_sift <= 1.0
    assert sqkd.joint_distribution(attack, povm).shape == (2, len(povm.elements))
    drawn = sqkd.random_attack(2, 3)
    assert (drawn.ancilla_dim, drawn.omega.shape, drawn.v.shape, drawn.u.shape) == (2, (2,), (4, 4), (4, 4))


def test_the_step_table_the_benchmark_reads():
    # bench/workloads.py regenerates a proof-chain run's min_slack from its worst
    # trial as the least step slack whose name does not start with "s1"
    trials, seed = 300, 5
    result = sqkd.run_suite("proof-chain", trials, seed)
    child = np.random.SeedSequence(seed).spawn(trials)[result.worst_trial]
    slacks = sqkd.proof_chain(*sqkd.suites.sample_theorem_instance(child)).step_slacks
    assert tuple(slacks) == STEPS
    assert STEPS[:_EQUALITIES] == tuple(k for k in STEPS if k.startswith("s1"))
    one_sided = [k for k in slacks if not k.startswith("s1")]
    assert abs(min(slacks[k] for k in one_sided) - result.min_slack) <= 1e-12
    assert min(one_sided, key=slacks.get) == result.worst_step
    at = 0
    for step in STEPS:  # listed in order by proof_chain's docstring
        at = sqkd.proof_chain.__doc__.index(step, at) + len(step)
