"""Simulator and numerical verifier for the one-qubit semiquantum
key-distribution protocol with classical Alice."""

__version__ = "0.1.0"

from .attacks import FAMILIES, named_attack, random_attack
from .eavesdropper import (
    AccessibleInfoResult,
    OptimizerConfig,
    accessible_information,
    holevo_bound,
)
from .info import mutual_information
from .linalg import haar_unitary, operator_norm
from .povm import DegeneracyError, Povm, basis_povm, povm_from_factors, random_povm
from .protocol import (
    AttackModel,
    SiftOutcome,
    ctrl_error,
    eve_information,
    forward_state,
    joint_distribution,
    sift_branch,
    sift_error_operator,
)
from .suites import SuiteResult, run_suite
from .tradeoff import (
    ProofTrace,
    TradeoffReport,
    fidelity_information_bound,
    povm_overlap_slack,
    proof_chain,
    tradeoff_bound,
    verify_tradeoff,
)

__all__ = [
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
]
