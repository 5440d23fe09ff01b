"""The package's public names, and the program names the benchmark harness
(bench/workloads.py, bench/run.py) calls directly: dropping one fails here
instead of crashing a benchmark run."""

import numpy as np

import sqkd

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
