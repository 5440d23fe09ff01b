"""Seeded randomized verification suites.

A suite draws its trials one window of _WINDOW (1024) at a time, and
window w draws from one generator, seeded by child w of SeedSequence(seed),
SeedSequence(seed, spawn_key=(w,)).  The generator first draws the shapes
of all 1024 rows of the window, as whole-array `integers` calls, then one
stream of standard normals (uniforms for lemma1) in row order; row r takes
its block [cum[r], cum[r + 1]) of that stream, cum being the running sum
of the rows' block lengths.  Trial k is row k % 1024 of window k // 1024.
The shapes are drawn for all 1024 rows whatever the number of trials, and
a stream of n numbers is the first n of a longer one, so trial k's
instance does not depend on `trials`, and a (suite, trials, seed) triple
is fully reproducible.  sample_theorem_instance regenerates trial k from
SeedSequence(seed).spawn(trials)[k] by redrawing its window up to row k.

The rows of a window are grouped by shape, and each group's blocks are
gathered from the stream with one fancy index, then built, validated and
evaluated in one call of the stacked kernel, the kernel that the scalar
functions of `protocol` and `tradeoff` run on stacks of one.

lemma1 and lemma2 group their rows by shape.  theorem and proof-chain
group theirs by ancilla dimension d alone and evaluate a group in two
halves.  The attack half runs once per (window, d): V and U from the
Ginibre heads of the blocks, their checks, the protocol evaluation and
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

_WINDOW = 1024  # rows drawn from one generator; part of the draw contract, and it bounds the stacks


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


def _window(draw, seed, w: int, n: int) -> tuple:
    """draw's first n rows of window w of a suite run on `seed`, from the
    generator that child w of SeedSequence(seed) seeds."""
    return draw(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(w,))), n)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """cum (len(sizes) + 1,): row r's block is [cum[r], cum[r + 1]) of the stream."""
    cum = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=cum[1:])
    return cum


def _blocks(stream: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """The blocks (N, length) of the stream that begin at starts (N,), in one fancy index."""
    return stream[starts[:, None] + np.arange(length)]


def _groups(keys: np.ndarray):
    """(key, rows) of each distinct row of keys (n, j), small non-negative
    ints, in key order: key a tuple of ints and rows its row numbers, ascending."""
    code = np.ravel_multi_index(keys.T, keys.max(axis=0) + 1)
    order = np.argsort(code, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(code[order])) + 1):
        yield tuple(keys[rows[0]].tolist()), rows


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


def _draw_theorem(rng, n: int) -> tuple:
    """The draws of a theorem-style window: d in {2,3,4} and m in [2, d^2]
    for all rows, then for the first n rows blocks of 16 d^2 + 2 m d^2
    normals, the Ginibre matrices of V and U and the m factors.  Rows are
    keyed by d alone, so that a window evaluates the attacks of each d together."""
    d = rng.integers(2, 5, size=_WINDOW)
    m = rng.integers(2, d * d + 1)
    cum = _offsets(16 * d * d + 2 * m * d * d)
    return d[:n, None], cum, rng.standard_normal(cum[n])


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


def sample_theorem_instance(child: np.random.SeedSequence) -> tuple[AttackModel, Povm]:
    """Random attack (d in {2,3,4}) paired with a random POVM (m <= d^2):
    trial k of the theorem and proof-chain suites on `seed`, for the child
    SeedSequence(seed).spawn(trials)[k] (any trials > k).  It reads seed
    and k from the child and redraws window k // 1024 up to row k, so a
    trial late in its window costs most of a window's draws."""
    if len(child.spawn_key) != 1:
        raise ValueError("sample_theorem_instance takes child k of SeedSequence(seed).spawn, "
                         f"whose spawn_key is (k,); got spawn_key {child.spawn_key}")
    w, row = divmod(child.spawn_key[0], _WINDOW)
    keys, cum, stream = _window(_draw_theorem, child.entropy, w, row + 1)
    d = int(keys[row, 0])
    head, start = 16 * d * d, cum[row:row + 1]
    omega, v, u = _attack_stack(d, _blocks(stream, start, head))
    m = int(cum[row + 1] - cum[row] - head) // (2 * d * d)
    elements = _povm_stack(d, m, _blocks(stream, start + head, 2 * m * d * d))
    return AttackModel(d, omega[0], v[0], u[0]), Povm(elements[0])


def _by_dimension(figures, key, stream, cum, rows) -> dict:
    """Named per-row figures of a window's theorem rows of one ancilla
    dimension d.  The attack half runs once on the whole group: V and U
    from the Ginibre heads of the blocks, their evaluation and trade-off
    bounds.  The POVM half runs once per outcome count m: the elements of
    that m's rows and figures(ev, elements, rhs) on those rows alone."""
    d, = key
    head, starts = 16 * d * d, cum[rows]
    ev = _evaluate(*_attack_stack(d, _blocks(stream, starts, head)))
    rhs = tradeoff_bound(ev.p_ctrl, ev.p_sift)
    counts = (cum[rows + 1] - starts - head) // (2 * d * d)  # each row's m, from its block length
    results = {}
    for (m,), sub in _groups(counts[:, None]):
        elements = _povm_stack(d, m, _blocks(stream, starts[sub] + head, 2 * m * d * d))
        for name, values in figures(ev.rows(sub), elements, rhs[sub]).items():
            results.setdefault(name, np.empty(len(rows), dtype=values.dtype))[sub] = values
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


def _draw_lemma1(rng, n: int) -> tuple:
    """The draws of a lemma1 window: m in [1, 8] for all rows, then for the
    first n rows blocks of 2 m uniforms, a (2, m) table to normalize."""
    m = rng.integers(1, 9, size=_WINDOW)
    cum = _offsets(2 * m)
    return m[:n, None], cum, rng.random(cum[n])


def _lemma1_figures(key, stream, cum, rows) -> dict:
    m, = key
    tables = _blocks(stream, cum[rows], 2 * m).reshape(len(rows), 2, m)
    tables /= tables.sum(axis=(1, 2), keepdims=True)
    return {"slack": fidelity_information_bound(tables) - mutual_information(tables)}


def _draw_lemma2(rng, n: int) -> tuple:
    """The draws of a lemma2 window: d in [1, 4], then m in [1, 6], for all
    rows, then for the first n rows blocks of 8 d + 8 + 2 m d^2 normals
    for phi0 and phi1, x and the m factors."""
    d = rng.integers(1, 5, size=_WINDOW)
    m = rng.integers(1, 7, size=_WINDOW)
    cum = _offsets(8 * d + 8 + 2 * m * d * d)
    return np.stack([d[:n], m[:n]], axis=1), cum, rng.standard_normal(cum[n])


def _lemma2_figures(key, stream, cum, rows) -> dict:
    d, m = key
    blocks = _blocks(stream, cum[rows], 8 * d + 8 + 2 * m * d * d)
    phi, x, factors = _unpack(blocks, (2, 2 * d), (1, 2, 2), (m, d, d))
    elements = elements_from_factors(factors)
    check_elements(elements)
    return {"slack": _overlap_slack(phi[:, 0], phi[:, 1], x[:, 0], elements)}


# suite name -> (draw(rng, n) of a window's first n rows, returning their
# group keys (n, j), block offsets cum and stream; evaluation
# (key, stream, cum, rows) of a group of rows returning named per-row
# figures; the figure and SuiteResult field reporting its maximum; the
# largest it may be without a violation); every evaluation returns "slack"
SUITES = {
    "lemma1": (_draw_lemma1, _lemma1_figures, None, None),
    "lemma2": (_draw_lemma2, _lemma2_figures, None, None),
    "theorem": (_draw_theorem, functools.partial(_by_dimension, _theorem_figures), "max_info_ratio", np.inf),
    "proof-chain": (_draw_theorem, functools.partial(_by_dimension, _proof_chain_figures),
                    "max_equality_residual", CROSS_CHECK_TOL),
}
SUITE_NAMES = tuple(SUITES)


def _suite_figures(suite: str, trials: int, seed: int) -> dict:
    """Every named per-trial figure of a suite run, each an array over the trials."""
    draw, evaluate, _, _ = SUITES[suite]
    figures = {}
    for w, start in enumerate(range(0, trials, _WINDOW)):
        keys, cum, stream = _window(draw, seed, w, min(_WINDOW, trials - start))
        for key, rows in _groups(keys):
            try:
                results = evaluate(key, stream, cum, rows)
            except ValueError as exc:
                raise _first_failure(suite, evaluate, key, stream, cum, start + rows) or exc
            for name, values in results.items():
                figures.setdefault(name, np.empty(trials, dtype=values.dtype))[start + rows] = values
        del keys, cum, stream  # so that this window's draws go before the next one's are made
    return figures


def _first_failure(suite: str, evaluate, key, stream, cum, trials) -> ValueError | None:
    """The error of the first trial of a failed group that fails on its own,
    named by its index so that it can be regenerated."""
    for k in trials:
        try:
            evaluate(key, stream, cum, np.array([k % _WINDOW]))
        except ValueError as exc:
            return ValueError(f"{suite} trial {k}: {exc}")
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
