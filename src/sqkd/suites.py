"""Seeded randomized verification suites.

Each suite draws its instances from per-trial children of one root
SeedSequence, so a (suite, trials, seed) triple is fully reproducible
and any worst instance can be regenerated from its trial index.
"""

from dataclasses import dataclass

import numpy as np

from .attacks import random_attack
from .info import mutual_information
from .povm import Povm, random_povm
from .protocol import CROSS_CHECK_TOL, AttackModel, _evaluate, _joint_table
from .tradeoff import SLACK_TOL, fidelity_information_bound, povm_overlap_slack, proof_chain, tradeoff_bound

SUITE_NAMES = ("lemma1", "lemma2", "theorem", "proof-chain")


@dataclass
class SuiteResult:
    suite: str
    trials: int
    seed: int
    violations: int
    min_slack: float
    worst_trial: int
    max_equality_residual: float | None = None
    max_info_ratio: float | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_joint(rng) -> np.ndarray:
    m = int(rng.integers(1, 9))
    table = rng.random((2, m))
    return table / table.sum()


def sample_theorem_instance(child: np.random.SeedSequence) -> tuple[AttackModel, Povm]:
    """Random attack (d in {2,3,4}) paired with a random POVM (m <= d^2)."""
    attack_seed, povm_seed, pick_seed = child.spawn(3)
    rng = np.random.default_rng(pick_seed)
    d = int(rng.choice([2, 3, 4]))
    m = int(rng.integers(2, d * d + 1))
    return random_attack(d, attack_seed), random_povm(d, m, povm_seed)


def _lemma1_trial(child) -> float:
    rng = np.random.default_rng(child)
    table = _random_joint(rng)
    return fidelity_information_bound(table) - mutual_information(table)


def _lemma2_trial(child) -> float:
    vec_seed, povm_seed = child.spawn(2)
    rng = np.random.default_rng(vec_seed)
    d = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    phi0 = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
    phi1 = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return povm_overlap_slack(phi0, phi1, x, random_povm(d, m, povm_seed))


def _theorem_trial(child) -> tuple[float, float]:
    attack, eve_povm = sample_theorem_instance(child)
    ev = _evaluate(attack)
    info = mutual_information(_joint_table(ev, eve_povm))
    rhs = tradeoff_bound(ev.p_ctrl, ev.sift.p_sift)
    ratio = info / rhs if rhs > 1e-15 else 0.0
    return rhs - info, ratio


def _proof_chain_trial(child) -> tuple[float, float]:
    attack, eve_povm = sample_theorem_instance(child)
    trace = proof_chain(attack, eve_povm)
    residual = max(abs(trace.step_slacks["s1_z0"]), abs(trace.step_slacks["s1_z1"]))
    one_sided = [v for k, v in trace.step_slacks.items() if not k.startswith("s1")]
    return min(one_sided), residual


def run_suite(suite: str, trials: int, seed: int) -> SuiteResult:
    """Run one named suite and aggregate violations deterministically."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    children = np.random.SeedSequence(seed).spawn(trials)

    if suite == "lemma1":
        slacks = [_lemma1_trial(child) for child in children]
        extra = {}
    elif suite == "lemma2":
        slacks = [_lemma2_trial(child) for child in children]
        extra = {}
    elif suite == "theorem":
        pairs = [_theorem_trial(child) for child in children]
        slacks = [p[0] for p in pairs]
        extra = {"max_info_ratio": float(max(p[1] for p in pairs))}
    else:
        pairs = [_proof_chain_trial(child) for child in children]
        slacks = [p[0] for p in pairs]
        residuals = [p[1] for p in pairs]
        extra = {"max_equality_residual": float(max(residuals))}

    slacks = np.asarray(slacks, dtype=float)
    worst = int(np.argmin(slacks))
    violations = int((slacks < SLACK_TOL).sum())
    if suite == "proof-chain":
        violations += int((np.asarray(residuals) > CROSS_CHECK_TOL).sum())
    return SuiteResult(
        suite=suite,
        trials=trials,
        seed=seed,
        violations=violations,
        min_slack=float(slacks[worst]),
        worst_trial=worst,
        **extra,
    )
