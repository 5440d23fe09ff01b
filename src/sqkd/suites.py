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


def _lemma1_trial(child) -> tuple[float]:
    rng = np.random.default_rng(child)
    table = _random_joint(rng)
    return (fidelity_information_bound(table) - mutual_information(table),)


def _lemma2_trial(child) -> tuple[float]:
    vec_seed, povm_seed = child.spawn(2)
    rng = np.random.default_rng(vec_seed)
    d = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    phi0 = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
    phi1 = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return (povm_overlap_slack(phi0, phi1, x, random_povm(d, m, povm_seed)),)


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


# suite name -> (trial, the SuiteResult field that reports the maximum of the
# trial's second figure, the largest that figure may be without a violation);
# every trial returns its slack first
SUITES = {
    "lemma1": (_lemma1_trial, None, None),
    "lemma2": (_lemma2_trial, None, None),
    "theorem": (_theorem_trial, "max_info_ratio", np.inf),
    "proof-chain": (_proof_chain_trial, "max_equality_residual", CROSS_CHECK_TOL),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(suite: str, trials: int, seed: int) -> SuiteResult:
    """Run one named suite and aggregate violations deterministically."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    trial, max_field, max_limit = SUITES[suite]
    figures = np.array([trial(child) for child in np.random.SeedSequence(seed).spawn(trials)], dtype=float)
    slacks = figures[:, 0]
    worst = int(np.argmin(slacks))
    violations = int((slacks < SLACK_TOL).sum())
    extra = {}
    if max_field is not None:
        violations += int((figures[:, 1] > max_limit).sum())
        extra[max_field] = float(figures[:, 1].max())
    return SuiteResult(
        suite=suite,
        trials=trials,
        seed=seed,
        violations=violations,
        min_slack=float(slacks[worst]),
        worst_trial=worst,
        **extra,
    )
