"""Seeded randomized verification suites.

Trial k of a suite draws its instance from the generator that the child
seed SeedSequence(seed, spawn_key=(k,)) would seed, the k-th child that
SeedSequence(seed).spawn would give, so a (suite, trials, seed) triple is
fully reproducible and any worst instance can be regenerated from its
trial index: sample_theorem_instance still takes that SeedSequence.  A
trial seeds one generator from its child, draws its shape from it and
then every other number of the trial in one block of standard normals.

Trials are drawn one window of _WINDOW (1024) at a time.  A window
derives the PCG64 seed words of all its children in one vectorized pass
of SeedSequence's own hash (_child_states), checks its first child's
words against numpy's SeedSequence, and hands each trial a stand-in
child that returns its words.  Trials are grouped as they are drawn,
and each group of a window is built, validated and evaluated in one call
of the stacked kernel, the kernel that the scalar functions of `protocol`
and `tradeoff` run on stacks of one.  The complex arrays are sliced out
of a group's stacked normal blocks, not built per trial.

lemma1 and lemma2 group their trials by shape.  theorem and proof-chain
group theirs by ancilla dimension d alone and evaluate a group in two
halves.  The attack half runs once per (window, d): V and U from the
Ginibre heads of the draws, their checks, the protocol evaluation and
the trade-off bounds.  The POVM half runs per outcome count m within
that d: the elements and their checks, then the joint tables, I(A:E)
and, for proof-chain, the derivation chain, on that (d, m)'s rows of
the evaluation.  sample_theorem_instance builds its instance from the
same two halves' helpers.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import linalg
from .info import _mutual_information, mutual_information
from .povm import Povm, check_elements, elements_from_factors
from .protocol import CROSS_CHECK_TOL, AttackModel, _evaluate, _joint_table, check_attacks
from .tradeoff import (
    SLACK_TOL,
    _overlap_slack,
    _proof_chain,
    _worst_step,
    fidelity_information_bound,
    tradeoff_bound,
)

_WINDOW = 1024  # trials drawn and grouped together; bounds the draws held at once and the stacks

# the constants of SeedSequence's hash (numpy/random/bit_generator.pyx), which _child_states replays
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in uint32 words


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


def _child_states(seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words (stop - start, 4) of the children start..stop-1 of
    SeedSequence(seed): row i is what SeedSequence(seed, spawn_key=(start + i,))
    .generate_state(4, np.uint64) gives, for k < 2**32.  The hash runs on the
    seed's words as Python ints masked to 32 bits, then on uint32 arrays over k."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    # a spawned SeedSequence pads its run entropy with zeros to the pool size
    entropy = [*words, *[0] * (_POOL - len(words)), np.arange(start, stop, dtype=np.uint32)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        x = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:  # the words beyond the pool, k last
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): 8 uint32 words cycled from the pool, paired little-endian
    const, state = _INIT_B, np.empty((stop - start, 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state[:, i] = value ^ value >> 16
    return state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << 32


class _Child(ISeedSequence):
    """Child k of a suite's root seed where a trial seeds its generator: it
    stands in for SeedSequence(seed, spawn_key=(k,)) by returning the PCG64
    seed words that _child_states derived for it."""

    def __init__(self, k: int, state: np.ndarray):
        self.spawn_key = (k,)
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:  # the one request PCG64 makes
            raise ValueError(f"child {self.spawn_key[0]} holds 4 uint64 words, not {n_words} {dtype}")
        return self._state


def _random_joint(rng) -> np.ndarray:
    m = int(rng.integers(1, 9))
    table = rng.random((2, m))
    return table / table.sum()


def _unpack(g: np.ndarray, *shapes) -> list:
    """Complex arrays sliced in order from stacked normal blocks g (N, L).
    Shape (count, *dims) gives an (N, count, *dims) array; each of its
    count arrays takes its real and then its imaginary part, as
    `linalg.ginibre` draws them."""
    arrays, start = [], 0
    for count, *dims in shapes:
        size = 2 * count * math.prod(dims)
        block = g[:, start:start + size].reshape(len(g), count, 2, *dims)
        arrays.append(block[:, :, 0] + 1j * block[:, :, 1])
        start += size
    return arrays


def _draw_theorem(child) -> tuple:
    """The seeded draws of a theorem-style trial, keyed by (d, m): d in
    {2,3,4}, m in [2, d^2], then one block of 16 d^2 + 2 m d^2 normals for
    the Ginibre matrices of V and U and the m factors."""
    rng = np.random.default_rng(child)
    d = int(rng.integers(2, 5))
    m = int(rng.integers(2, d * d + 1))
    return (d, m), rng.standard_normal(16 * d * d + 2 * m * d * d)


def _haar(block: np.ndarray, dim: int) -> np.ndarray:
    """Haar unitaries (N, dim, dim) from the Ginibre normals (N, 2 dim^2) of a stack of draws."""
    g, = _unpack(block, (1, dim, dim))
    return linalg.haar_from_ginibre(g[:, 0])


def _attack_stack(d: int, heads: np.ndarray) -> tuple:
    """Validated omega (= |0>), V and U of theorem draws from the Ginibre
    heads (N, 16 d^2) of their blocks: Haar V, then U, one stack at a time,
    so that V's QR temporaries are gone before U's are made."""
    half = 8 * d * d
    v, u = _haar(heads[:, :half], 2 * d), _haar(heads[:, half:], 2 * d)
    omega = np.zeros((len(heads), d), dtype=complex)
    omega[:, 0] = 1.0
    check_attacks(d, omega, v, u)
    return omega, v, u


def _povm_stack(d: int, m: int, tails: np.ndarray) -> np.ndarray:
    """Validated POVM elements (N, m, d, d) of theorem draws from the
    factor normals (N, 2 m d^2) that follow their heads."""
    factors, = _unpack(tails, (m, d, d))
    elements = elements_from_factors(factors)
    check_elements(elements)
    return elements


def _theorem_stack(key, draws: list) -> tuple:
    """Validated omega, V, U and POVM elements of a group of theorem draws
    of one shape (d, m), through the two helpers the suites use."""
    d, m = key
    g = np.stack(draws)
    head = 16 * d * d
    return (*_attack_stack(d, g[:, :head]), _povm_stack(d, m, g[:, head:]))


def sample_theorem_instance(child: np.random.SeedSequence) -> tuple[AttackModel, Povm]:
    """Random attack (d in {2,3,4}) paired with a random POVM (m <= d^2):
    the instance of the theorem and proof-chain suites drawn from `child`."""
    key, draw = _draw_theorem(child)
    omega, v, u, elements = _theorem_stack(key, [draw])
    return AttackModel(key[0], omega[0], v[0], u[0]), Povm(elements[0])


def _draw_by_dimension(child) -> tuple:
    """_draw_theorem's draws keyed by the ancilla dimension d alone, so that
    a window evaluates the attacks of each d together."""
    (d, _), g = _draw_theorem(child)
    return d, g


def _by_dimension(figures, d: int, draws: list) -> dict:
    """Named per-trial figures of a group of theorem draws of one ancilla
    dimension d.  The attack half runs once on the whole group: V and U
    from the Ginibre heads of the draws, their evaluation and trade-off
    bounds.  The POVM half runs once per outcome count m: the elements of
    that m's draws and figures(ev, elements, rhs) on its rows alone."""
    head = 16 * d * d
    ev = _evaluate(*_attack_stack(d, np.stack([g[:head] for g in draws])))
    rhs = tradeoff_bound(ev.p_ctrl, ev.p_sift)
    subgroups = {}  # by block length 16 d^2 + 2 m d^2, which gives m
    for i, g in enumerate(draws):
        subgroups.setdefault(len(g), []).append(i)
    results = {}
    for size, rows in subgroups.items():
        elements = _povm_stack(d, (size - head) // (2 * d * d), np.stack([draws[i][head:] for i in rows]))
        for name, values in figures(ev.rows(rows), elements, rhs[rows]).items():
            results.setdefault(name, np.empty(len(draws), dtype=values.dtype))[rows] = values
    return results


def _theorem_figures(ev, elements, rhs) -> dict:
    info = _mutual_information(_joint_table(ev, elements))
    ratio = np.zeros_like(rhs)
    np.divide(info, rhs, out=ratio, where=rhs > 1e-15)
    return {"slack": rhs - info, "max_info_ratio": ratio, "rhs": rhs}


def _proof_chain_figures(ev, elements, rhs) -> dict:
    joint = _joint_table(ev, elements)
    info = _mutual_information(joint)
    slack, step, residual = _worst_step(_proof_chain(ev, elements, joint, info, rhs).step_slacks)
    return {"slack": slack, "max_equality_residual": residual, "rhs": rhs, "step": step}


def _draw_lemma1(child) -> tuple:
    table = _random_joint(np.random.default_rng(child))
    return table.shape, table


def _lemma1_figures(key, tables) -> dict:
    tables = np.stack(tables)
    return {"slack": fidelity_information_bound(tables) - mutual_information(tables)}


def _draw_lemma2(child) -> tuple:
    """The seeded draws of a lemma2 trial, keyed by (d, m): d in [1, 4],
    m in [1, 6], then one block of 8 d + 8 + 2 m d^2 normals for phi0 and
    phi1, x and the m factors."""
    rng = np.random.default_rng(child)
    d = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    return (d, m), rng.standard_normal(8 * d + 8 + 2 * m * d * d)


def _lemma2_figures(key, draws) -> dict:
    d, m = key
    phi, x, factors = _unpack(np.stack(draws), (2, 2 * d), (1, 2, 2), (m, d, d))
    elements = elements_from_factors(factors)
    check_elements(elements)
    return {"slack": _overlap_slack(phi[:, 0], phi[:, 1], x[:, 0], elements)}


# suite name -> (per-trial draw returning (group key, draws), evaluation of a
# group of same-key draws returning named per-trial figures, the figure and
# SuiteResult field reporting its maximum, the largest it may be without a
# violation); every evaluation returns the trial's "slack"
SUITES = {
    "lemma1": (_draw_lemma1, _lemma1_figures, None, None),
    "lemma2": (_draw_lemma2, _lemma2_figures, None, None),
    "theorem": (_draw_by_dimension, functools.partial(_by_dimension, _theorem_figures), "max_info_ratio", np.inf),
    "proof-chain": (_draw_by_dimension, functools.partial(_by_dimension, _proof_chain_figures),
                    "max_equality_residual", CROSS_CHECK_TOL),
}
SUITE_NAMES = tuple(SUITES)


def _suite_figures(suite: str, trials: int, seed: int) -> dict:
    """Every named per-trial figure of a suite run, each an array over the trials."""
    draw, evaluate, _, _ = SUITES[suite]
    figures = {}
    for start in range(0, trials, _WINDOW):
        stop = min(start + _WINDOW, trials)
        states = _child_states(seed, start, stop)
        want = np.random.SeedSequence(seed, spawn_key=(start,)).generate_state(4, np.uint64)
        if not np.array_equal(states[0], want):
            raise ArithmeticError(
                f"child seed routes disagree at trial {start}: {states[0].tolist()} vs numpy's {want.tolist()}"
            )
        groups = {}  # a fresh dict, so that the last window's draws go before this one's are made
        for k, state in zip(range(start, stop), states):
            key, g = draw(_Child(k, state))
            rows, group = groups.setdefault(key, ([], []))
            rows.append(k)
            group.append(g)
        for key, (rows, group) in groups.items():
            try:
                results = evaluate(key, group)
            except ValueError as exc:
                raise _first_failure(suite, evaluate, key, group, rows) or exc
            for name, values in results.items():
                figures.setdefault(name, np.empty(trials, dtype=values.dtype))[rows] = values
    return figures


def _first_failure(suite: str, evaluate, key, group: list, rows) -> ValueError | None:
    """The error of the first trial of a failed group that fails on its own,
    named by its index so that it can be regenerated."""
    for row, draw in zip(rows, group):
        try:
            evaluate(key, [draw])
        except ValueError as exc:
            return ValueError(f"{suite} trial {row}: {exc}")
    return None


def _integer(name: str, value, least: int) -> int:
    """value as an int, if it is an integer (a numpy one too, not a bool) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def run_suite(suite: str, trials: int, seed: int) -> SuiteResult:
    """Run one named suite and aggregate violations deterministically."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    trials = _integer("trials", trials, 1)
    seed = _integer("seed", seed, 0)
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
        extra["worst_step"] = figures["step"][worst]
    return SuiteResult(
        suite=suite,
        trials=trials,
        seed=seed,
        violations=violations,
        min_slack=float(slacks[worst]),
        worst_trial=worst,
        **extra,
    )
