"""Seeded randomized verification suites.

Each suite draws its instances from per-trial children of one root
SeedSequence, so a (suite, trials, seed) triple is fully reproducible
and any worst instance can be regenerated from its trial index.

Trials are drawn in chunks of 256.  Within a chunk the trials are
grouped by shape (ancilla dimension d and outcome count m), and each
group is built, validated and evaluated in one call of the stacked
kernel that the scalar functions of `protocol` and `tradeoff` run on
stacks of one.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .info import mutual_information
from .povm import Povm, check_elements, elements_from_factors
from .protocol import _CHUNK, CROSS_CHECK_TOL, AttackModel, _evaluate, check_attacks
from .tradeoff import SLACK_TOL, STEPS, _assess, _overlap_slack, _proof_chain, fidelity_information_bound

_ONE_SIDED = tuple(s for s in STEPS if not s.startswith("s1"))


@dataclass
class SuiteResult:
    """Aggregate of one suite run.  non_vacuous counts the trials whose
    bound is at most 1 (the only ones where it says anything, as
    I(A:E) <= 1), and worst_step names the derivation step that reached
    min_slack."""

    suite: str
    trials: int
    seed: int
    violations: int
    min_slack: float
    worst_trial: int
    max_equality_residual: float | None = None
    max_info_ratio: float | None = None
    non_vacuous: int | None = None
    worst_step: str | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_joint(rng) -> np.ndarray:
    m = int(rng.integers(1, 9))
    table = rng.random((2, m))
    return table / table.sum()


def _spawned(child: np.random.SeedSequence, n: int) -> list:
    """The children a first child.spawn(n) returns, derived without advancing child: redraws repeat."""
    return [np.random.SeedSequence(child.entropy, spawn_key=(*child.spawn_key, k), pool_size=child.pool_size)
            for k in range(n)]


def _draw_theorem(child) -> tuple:
    """The seeded draws of a theorem-style trial, keyed by (d, m): d in
    {2,3,4}, m in [2, d^2], Ginibre matrices for V and U and m factors."""
    attack_seed, povm_seed, pick_seed = _spawned(child, 3)
    rng = np.random.default_rng(pick_seed)
    d = int(rng.choice([2, 3, 4]))
    m = int(rng.integers(2, d * d + 1))
    ginibre_vu = linalg.ginibre(np.random.default_rng(attack_seed), 2, 2 * d)
    return (d, m), (ginibre_vu, linalg.ginibre(np.random.default_rng(povm_seed), m, d))


def _theorem_stack(d: int, draws: list) -> tuple:
    """Validated omega, V, U and POVM elements of a group of theorem draws:
    Haar V and U from the Ginibre pairs (omega = |0>), POVMs from the factors."""
    vu = linalg.haar_from_ginibre(np.stack([g for g, _ in draws]))
    omega = np.zeros((len(draws), d), dtype=complex)
    omega[:, 0] = 1.0
    v, u = vu[:, 0], vu[:, 1]
    check_attacks(d, omega, v, u)
    elements = elements_from_factors(np.stack([f for _, f in draws]))
    check_elements(elements)
    return omega, v, u, elements


def sample_theorem_instance(child: np.random.SeedSequence) -> tuple[AttackModel, Povm]:
    """Random attack (d in {2,3,4}) paired with a random POVM (m <= d^2):
    the instance of the theorem and proof-chain suites drawn from `child`."""
    (d, _), draw = _draw_theorem(child)
    omega, v, u, elements = _theorem_stack(d, [draw])
    return AttackModel(d, omega[0], v[0], u[0]), Povm(elements[0])


def _theorem_batch(key, draws) -> tuple:
    omega, v, u, elements = _theorem_stack(key[0], draws)
    ev = _evaluate(omega, v, u)
    return (ev, elements, *_assess(ev, elements))


def _theorem_figures(key, draws) -> dict:
    _, _, _, info, rhs = _theorem_batch(key, draws)
    ratio = np.zeros_like(rhs)
    np.divide(info, rhs, out=ratio, where=rhs > 1e-15)
    return {"slack": rhs - info, "max_info_ratio": ratio, "rhs": rhs}


def _proof_chain_figures(key, draws) -> dict:
    ev, elements, joint, info, rhs = _theorem_batch(key, draws)
    slacks = _proof_chain(ev, elements, joint, info, rhs).step_slacks
    one_sided = np.stack([slacks[s] for s in _ONE_SIDED], axis=1)
    return {
        "slack": one_sided.min(axis=1),
        "max_equality_residual": np.maximum(np.abs(slacks["s1_z0"]), np.abs(slacks["s1_z1"])),
        "rhs": rhs,
        "step": one_sided.argmin(axis=1),
    }


def _draw_lemma1(child) -> tuple:
    table = _random_joint(np.random.default_rng(child))
    return table.shape, table


def _lemma1_figures(key, tables) -> dict:
    tables = np.stack(tables)
    return {"slack": fidelity_information_bound(tables) - mutual_information(tables)}


def _draw_lemma2(child) -> tuple:
    vec_seed, povm_seed = _spawned(child, 2)
    rng = np.random.default_rng(vec_seed)
    d = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    phi0 = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
    phi1 = rng.standard_normal(2 * d) + 1j * rng.standard_normal(2 * d)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return (d, m), (phi0, phi1, x, linalg.ginibre(np.random.default_rng(povm_seed), m, d))


def _lemma2_figures(key, draws) -> dict:
    phi0, phi1, x, factors = (np.stack(arrays) for arrays in zip(*draws))
    elements = elements_from_factors(factors)
    check_elements(elements)
    return {"slack": _overlap_slack(phi0, phi1, x, elements)}


# suite name -> (per-trial draw returning (shape key, draws), evaluation of a
# group of same-key draws returning named per-trial figures, the figure and
# SuiteResult field reporting its maximum, the largest it may be without a
# violation); every evaluation returns the trial's "slack"
SUITES = {
    "lemma1": (_draw_lemma1, _lemma1_figures, None, None),
    "lemma2": (_draw_lemma2, _lemma2_figures, None, None),
    "theorem": (_draw_theorem, _theorem_figures, "max_info_ratio", np.inf),
    "proof-chain": (_draw_theorem, _proof_chain_figures, "max_equality_residual", CROSS_CHECK_TOL),
}
SUITE_NAMES = tuple(SUITES)


def _suite_figures(suite: str, trials: int, seed: int) -> dict:
    """Every named per-trial figure of a suite run, each an array over the trials."""
    draw, evaluate, _, _ = SUITES[suite]
    children = np.random.SeedSequence(seed).spawn(trials)
    figures = {}
    for start in range(0, trials, _CHUNK):
        draws = [draw(child) for child in children[start:start + _CHUNK]]
        groups = {}
        for i, (key, _) in enumerate(draws):
            groups.setdefault(key, []).append(i)
        for key, members in groups.items():
            rows = start + np.array(members)
            for name, values in evaluate(key, [draws[i][1] for i in members]).items():
                figures.setdefault(name, np.empty(trials, dtype=values.dtype))[rows] = values
    return figures


def run_suite(suite: str, trials: int, seed: int) -> SuiteResult:
    """Run one named suite and aggregate violations deterministically."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _, _, max_field, max_limit = SUITES[suite]
    figures = _suite_figures(suite, trials, seed)
    slacks = figures["slack"]
    worst = int(np.argmin(slacks))
    violations = int((slacks < SLACK_TOL).sum())
    extra = {}
    if max_field is not None:
        violations += int((figures[max_field] > max_limit).sum())
        extra[max_field] = float(figures[max_field].max())
    if "rhs" in figures:
        extra["non_vacuous"] = int((figures["rhs"] <= 1.0).sum())
    if "step" in figures:
        extra["worst_step"] = _ONE_SIDED[int(figures["step"][worst])]
    return SuiteResult(
        suite=suite,
        trials=trials,
        seed=seed,
        violations=violations,
        min_slack=float(slacks[worst]),
        worst_trial=worst,
        **extra,
    )
