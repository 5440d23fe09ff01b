"""Eve's accessible information and the Holevo ceiling above it.

The accessible information, the largest I(A:E) over measurements on
Eve's ancilla, is searched by the monotone fixed-point ascent of Rehacek,
Englert and Kaszlikowski (Phys. Rev. A 71, 054303, 2005) over rank-one
POVMs, which suffice for accessible information (Davies, IEEE Trans. Inf.
Theory 24, 596, 1978).
The POVM is m = max(2, d^2) vectors v_e on the ancilla, E_e = |v_e><v_e|,
and Eve's ensemble is tau_z = p_a(z) rho_z, so p(z, e) = <v_e|tau_z|v_e>.
The objective and its gradient operator share one log-ratio:

    I(A:E) = sum_{z,e} p(z, e) log(p(z, e) / (p(z) p(e))) / ln 2,
    G_e = sum_z tau_z log(p(z, e) / (p(z) p(e))).

One step moves every vector along G_e, extrapolates along the last kept
move with momentum beta, and restores completeness:

    w_e = v_e + eps G_e v_e + beta (v_e - v_e'),
    v_e <- Lambda^{-1/2} w_e,    Lambda = sum_e |w_e><w_e|,

where v' are the vectors before the last kept step.  A step is kept only
if the information does not drop and Lambda is not near-singular.  After
j kept steps in a row beta = min(0.99, (j - 1)/(j + 2)) (Nesterov), read
from a table indexed by the run length j; eps stays as it is.  A rejected
step resets the run (adaptive restart, O'Donoghue and Candes, Found.
Comput. Math. 15, 715, 2015): if it was extrapolated, beta drops to 0 and
the same eps is tried as a plain step; if it was plain, eps halves.  eps
starts at 1 and never grows, and every kept step is a POVM that does not
lower the information.  The R starts
of every ensemble of an evaluated stack of N attacks advance together as
one stack of N R vector sets (N R, d, m), each on its own ensemble and
with its own eps, beta, run and stop rule.  The state of the live starts
is held packed and updated in place, so each step works on whole arrays;
a start that stops leaves the stack and costs nothing after.  Start 0 is
the eigenbasis of tau_0 - tau_1, which refines the Helstrom measurement,
so the result never falls below the Helstrom information.  Start 1 is the
computational basis, the others are seeded random POVMs, the same for
every ensemble.  Every iterate is a valid POVM, so the reported
information is achieved: a lower bound on the accessible information,
with the Holevo quantity chi as the ceiling above it.  tau_0 + tau_1 and
tau_z share their nonzero spectra with the 4 x 4 Gram matrix Gamma of the
qubit blocks of U Z_z psi and its block Gamma_zz, so
chi = S(Gamma) + H(p_a) - S(Gamma_00 (+) Gamma_11) costs the same for any d.
"""

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import linalg
from .info import PROB_SUM_TOL, ZERO_PROB, _clean_probabilities, _entropy_bits, _mutual_information
from .povm import Povm, rank_one_elements
from .protocol import AttackModel, _accepted_mass_deviation, _evaluate_attack, _Evaluation, _gram, _joint_table

FLAT_GAIN = 1e-12  # bits: a kept step that gains less ends the start
MIN_STEP = 1e-12  # eps below this ends the start
SINGULAR_TOL = 1e-6  # Lambda is near-singular below this eigenvalue ratio
MAX_ITERATIONS = 2000  # steps tried from each start, kept or not
_STOP_REASONS = ("iterations", "flat", "step")
_LN2 = np.log(2.0)
# beta after a run of j kept steps: 0 for j <= 1, then min(0.99, (j - 1)/(j + 2)),
# which is 0.99 for every j >= 298, so a longer run reads the last entry
_BETA = np.minimum(0.99, np.maximum(np.arange(300) - 1, 0) / (np.arange(300) + 2))


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the POVM search.

    restarts counts the starts (the eigenbasis start, the computational
    basis, then random POVMs seeded from `seed`); each start runs the
    momentum ascent of the module docstring for at most MAX_ITERATIONS
    steps, kept or not.  The POVM has
    m = max(2, d^2) rank-one outcomes, enough for the accessible
    information of an ensemble in dimension d.
    """

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name, low in (("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class AccessibleInfoResult:
    """The best POVM found for one attack and its I(A:E), from the full dual-route evaluation.

    restart_values[k] is the information start k ended at and
    stop_reasons[k] why it ended: "flat" (a kept step gained less than
    1e-12 bits), "step" (eps fell below 1e-12) or "iterations"
    (MAX_ITERATIONS steps tried); steps[k] counts the steps it tried.
    """

    info: float
    povm: Povm
    stop_reasons: list = field(default_factory=list)
    restart_values: list = field(default_factory=list)
    steps: list = field(default_factory=list)


def _objective(tau: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I(A:E) in bits of each POVM of the stack v (R, d, m; vectors as columns)
    on its own ensemble tau (R, 2, d, d), and G_e v_e (columns) for each."""
    r, _, d, _ = tau.shape
    tv = np.matmul(tau.reshape(r, 2 * d, d), v).reshape(r, 2, d, -1)  # tau_z v_e, (R, 2, d, m)
    table = np.maximum(np.einsum("rie,rzie->rze", v.conj(), tv).real, 0.0)
    marginals = table.sum(axis=-1, keepdims=True) * table.sum(axis=-2, keepdims=True)
    # where p(z, e) vanishes so does tau_z v_e (tau_z >= 0), and its term with it
    ratio = np.ones_like(table)
    np.divide(table, marginals, out=ratio, where=table >= ZERO_PROB)
    log_ratio = np.log(ratio)
    info = (table * log_ratio).sum(axis=(-2, -1)) / _LN2
    return info, np.einsum("rze,rzie->rie", log_ratio, tv)


def _completed(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lambda^{-1/2} w with Lambda = w w^dag for every w of the stack, and the
    mask of the w whose Lambda is not near-singular.  Where it is, the row
    comes back as w itself (finite, not complete) for the caller to reject."""
    lam, q = np.linalg.eigh(w @ w.conj().swapaxes(-1, -2))
    ok = lam[:, 0] > SINGULAR_TOL * lam[:, -1]
    lam = np.where(ok[:, None], lam, 1.0)
    return (q / np.sqrt(lam)[:, None, :]) @ (q.conj().swapaxes(-1, -2) @ w), ok


def _ascend(tau: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, list, np.ndarray]:
    """Monotone ascent with adaptive-restart momentum from every start of the
    stack v (R, d, m) at once, start r on the ensemble tau[r] (R, 2, d, d),
    for at most the module constant MAX_ITERATIONS steps, read at each call.

    Each start keeps its own eps, run of kept steps and stop rule; its
    momentum beta is read from the run length.  The state of the live starts
    is held packed, in stack order, with `ids` their places in the input,
    and each step updates it in place (the arguments are never written); a
    start that stops writes its result out once and leaves every packed
    array.  Each step completes and evaluates the whole live stack once; a
    near-singular Lambda is rejected by its mask.  Returns the last kept
    vectors, their information, the stop reasons and the steps each start
    tried."""
    v = np.array(v, dtype=complex)
    out_v, out_info = np.empty_like(v), np.empty(len(v))
    stop = np.zeros(len(v), dtype=int)  # index into _STOP_REASONS; 0 until a start stops
    steps = np.full(len(v), MAX_ITERATIONS)  # a start that never stops tries every step
    ids = np.arange(len(v))
    info, grad = _objective(tau, v)
    v_prev = v.copy()
    eps = np.ones(len(v))
    run = np.zeros(len(v), dtype=int)  # consecutive kept steps
    for step in range(1, MAX_ITERATIONS + 1):
        if not ids.size:
            break
        beta = np.take(_BETA, run, mode="clip")[:, None, None]
        w = eps[:, None, None] * grad
        w += v  # eps G + v: the same bits as v + eps G
        w += beta * (v - v_prev)
        trial, ok = _completed(w)
        trial_info, trial_grad = _objective(tau, trial)
        kept = ok & (trial_info >= info)
        flat = kept & (trial_info - info < FLAT_GAIN)
        plain = ~kept & (run <= 1)  # beta was 0; a rejected extrapolation retries as a plain step
        run += 1
        run *= kept
        np.divide(eps, 2.0, out=eps, where=plain)
        k = kept[:, None, None]
        np.copyto(v_prev, v, where=k)
        np.copyto(v, trial, where=k)
        np.copyto(grad, trial_grad, where=k)
        np.copyto(info, trial_info, where=kept)
        done = flat | (plain & (eps < MIN_STEP))
        if done.any():
            gone = ids[done]
            out_v[gone], out_info[gone], steps[gone] = v[done], info[done], step
            stop[gone] = np.where(flat[done], 1, 2)
            live = ~done
            ids, tau, v, v_prev, grad, info, eps, run = (
                a[live] for a in (ids, tau, v, v_prev, grad, info, eps, run))
    out_v[ids], out_info[ids] = v, info
    return out_v, out_info, [_STOP_REASONS[k] for k in stop], steps


def _starts(tau: np.ndarray, m: int, cfg: OptimizerConfig) -> np.ndarray:
    """Start vectors (N, R, d, m; columns v_e) for each ensemble tau (N, 2, d, d):
    the eigenbasis of tau_0 - tau_1 and the computational basis, each padded
    with zero vectors, then random POVMs drawn once and shared by all N.
    Random start r is the first d rows of linalg.haar_unitary(m, child r of
    SeedSequence(seed)), all of them completed in one batch."""
    n, _, d, _ = tau.shape
    starts = np.zeros((n, cfg.restarts, d, m), dtype=complex)
    starts[:, 0, :, :d] = np.linalg.eigh(tau[:, 0] - tau[:, 1])[1]
    starts[:, 1:2, :, :d] = np.eye(d)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)[2:]
    if children:
        # d rows of a Haar unitary on C^m: a uniformly random rank-one POVM
        g = np.concatenate([linalg.ginibre(np.random.default_rng(child), 1, m) for child in children])
        starts[:, 2:] = linalg.haar_from_ginibre(g)[:, :d]
    return starts


def _accessible_information(ev: _Evaluation, cfg: OptimizerConfig | None = None) -> list[AccessibleInfoResult]:
    """accessible_information of every instance of an evaluated stack, all
    starts of all instances advancing as one stack of N R starts."""
    cfg = cfg or OptimizerConfig()
    n, r, d = len(ev.p_a), cfg.restarts, ev.rho_eve.shape[-1]
    tau = ev.p_a[..., None, None] * ev.rho_eve
    starts = _starts(tau, max(2, d * d), cfg).reshape(n * r, d, -1)
    v, info, stop_reasons, steps = _ascend(np.repeat(tau, r, axis=0), starts)
    info, steps = info.reshape(n, r), steps.reshape(n, r)
    # argmax takes the lower start on ties
    elements = rank_one_elements(v.reshape(n, r, d, -1)[np.arange(n), np.argmax(info, axis=1)])
    # the reported value always comes from the full dual-route evaluation
    achieved = _mutual_information(_joint_table(ev, elements))
    return [AccessibleInfoResult(float(achieved[k]), Povm(elements[k]), stop_reasons[k * r:(k + 1) * r],
                                 info[k].tolist(), steps[k].tolist()) for k in range(n)]


def accessible_information(attack: AttackModel, cfg: OptimizerConfig | None = None) -> AccessibleInfoResult:
    """Best I(A:E) found over POVMs on the ancilla, with the POVM achieving it.

    Runs the ascent from `cfg.restarts` starts (see the module docstring)
    and keeps the best, ties broken by lower start index.  Each start's
    stop reason is reported in `stop_reasons`, never raised.
    """
    return _accessible_information(_evaluate_attack(attack), cfg)[0]


def _holevo(ev: _Evaluation) -> np.ndarray:
    """chi (N,) of every instance of an evaluated stack; each spectrum and p_a is validated."""
    gram = _gram(ev.branches)
    blocks = np.moveaxis(gram.reshape(-1, 2, 2, 2, 2).diagonal(axis1=1, axis2=3), -1, 1)  # Gamma_00, Gamma_11
    spectra = ((np.linalg.eigvalsh(gram), "spectrum of Gamma"), (ev.p_a, "p_a"),
               (np.linalg.eigvalsh(blocks).reshape(-1, 4), "spectra of Gamma_00 and Gamma_11"))
    try:
        cleaned = [_clean_probabilities(p, name, -1) for p, name in spectra]
    except ValueError:  # the totals are ||U psi||^2 and ||psi||^2, which an accepted attack moves
        sum_tol = PROB_SUM_TOL + _accepted_mass_deviation(ev.branches.shape[-1])
        cleaned = [_clean_probabilities(p, name, -1, sum_tol) for p, name in spectra]
    s_all, h_a, s_blocks = (_entropy_bits(p, -1) for p in cleaned)
    return np.maximum(s_all + h_a - s_blocks, 0.0)


def holevo_bound(attack: AttackModel) -> float:
    """Holevo quantity chi = S(tau_0 + tau_1) - sum_z p_a(z) S(rho_z), the ceiling on
    Eve's accessible information, as S(Gamma) + H(p_a) - S(Gamma_00 (+) Gamma_11) from
    the 4 x 4 Gram matrix Gamma (module docstring), at a cost independent of d."""
    return float(_holevo(_evaluate_attack(attack))[0])
