"""The information-disturbance bound and its step-by-step certificate.

For any attack and any ancilla POVM the protocol satisfies

    I(A:E) <= 2 * sqrt(P_CTRL + 6 * P_SIFT^(1/4))

`verify_tradeoff` evaluates both sides on a concrete instance and
certifies every intermediate inequality the bound is derived through,
one signed slack per step; `proof_chain` returns that certificate alone.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .info import mutual_information, validate_joint
from .povm import Povm
from .protocol import (
    AttackModel,
    SiftOutcome,
    _evaluate_attack,
    _Evaluation,
    _joint_table,
    _lifted_expectations,
    _sq_norms,
)

SLACK_TOL = -1e-9
STEPS = ("s1_z0", "s1_z1", "s2", "s3", "s4", "s5", "s6_info_fidelity", "s6_fidelity_bound")
"""The derivation steps of proof_chain, in order; the s1 steps are equalities."""


@dataclass(frozen=True)
class ProofTrace:
    """Intermediate quantities and per-step slacks of the bound derivation.

    step_slacks maps step names to signed slacks (RHS - LHS of the
    step's inequality); the s1 entries are equality residuals expected
    to vanish within 1e-12.  Inside the kernel every field carries the
    instance as its first axis.
    """

    p0: np.ndarray
    p0_marginal: np.ndarray
    lhs_overlap: float
    fidelity_sum: float
    step_slacks: dict

    def instance(self, n: int) -> "ProofTrace":
        """The trace of instance n of a stacked trace."""
        return ProofTrace(
            p0=self.p0[n],
            p0_marginal=self.p0_marginal[n],
            lhs_overlap=float(self.lhs_overlap[n]),
            fidelity_sum=float(self.fidelity_sum[n]),
            step_slacks={k: float(v[n]) for k, v in self.step_slacks.items()},
        )


@dataclass(frozen=True)
class TradeoffReport:
    """Both sides of the bound, its certificate, and their SIFT branch and joint table."""

    p_ctrl: float
    p_sift: float
    info: float
    rhs: float
    gap: float
    holds: bool
    trace: ProofTrace
    sift: SiftOutcome
    joint: np.ndarray


def tradeoff_bound(p_ctrl, p_sift):
    """Upper bound 2 sqrt(P_CTRL + 6 P_SIFT^(1/4)) on Eve's information,
    elementwise on arrays; a float for scalars."""
    p_ctrl, p_sift = np.asarray(p_ctrl, dtype=float), np.asarray(p_sift, dtype=float)
    for name, value in (("p_ctrl", p_ctrl), ("p_sift", p_sift)):
        if not np.all((0.0 <= value) & (value <= 1.0)):
            raise ValueError(f"{name} must lie in [0, 1], got {value.tolist()!r}")
    rhs = 2.0 * np.sqrt(p_ctrl + 6.0 * p_sift ** 0.25)
    return float(rhs) if rhs.ndim == 0 else rhs


def _fidelity_bound(f):
    """sqrt(1 - 4 F^2), with 1 - 4 F^2 clamped at 0 (F exceeds 1/2 only
    through numerical noise)."""
    return np.sqrt(np.maximum(1.0 - 4.0 * f * f, 0.0))


def fidelity_information_bound(table):
    """Bound on I(X:Y) for a binary X from the row-overlap of the joint:

        I(X:Y) <= sqrt(1 - 4 F^2),  F = sum_y sqrt(p(0,y) p(1,y)).

    A float for one table, an array for a stack of them.  F can exceed
    1/2 only through numerical noise, so 1 - 4F^2 is clamped at 0 before
    the square root.
    """
    t = validate_joint(table)
    if t.shape[-2] != 2:
        raise ValueError(f"the x-alphabet must be binary, got {t.shape[-2]} symbols")
    bound = _fidelity_bound(np.sqrt(t[..., 0, :] * t[..., 1, :]).sum(axis=-1))
    return float(bound) if bound.ndim == 0 else bound


def _assess(ev: _Evaluation, elements: np.ndarray) -> tuple:
    """Joint tables (N, 2, m), I(A:E) (N,) and trade-off bounds (N,) of a
    stack of evaluated attacks and their POVM elements (N, m, d, d)."""
    joint = _joint_table(ev, elements)
    return joint, mutual_information(joint), tradeoff_bound(ev.p_ctrl, ev.p_sift)


def _overlap_slack(phi0: np.ndarray, phi1: np.ndarray, x: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """povm_overlap_slack for stacks phi0, phi1 (N, 2d), x (N, 2, 2) and
    elements (N, m, d, d)."""
    n, d = len(phi0), elements.shape[-1]
    a, b = phi0.reshape(n, 2, d), phi1.reshape(n, 2, d)
    # x (x) 1_K acts on the qubit-major layout as x on the rows of the (2, d) reshape
    lhs = np.abs((a.conj() * (x @ b)).reshape(n, -1).sum(axis=-1))
    rhs = np.sqrt(_lifted_expectations(a, elements) * _lifted_expectations(b, elements)).sum(axis=-1)
    return rhs * linalg.operator_norm(x) - lhs


def povm_overlap_slack(phi0: np.ndarray, phi1: np.ndarray, x: np.ndarray, eve_povm: Povm) -> float:
    """Signed slack of the overlap bound

        |<phi0| (x (x) 1_K) |phi1>|
            <= ||x|| * sum_e <phi0|E_e|phi0>^(1/2) <phi1|E_e|phi1>^(1/2)

    for vectors on H (x) K (possibly unnormalized), an operator x on the
    qubit alone, and a POVM acting on the ancilla alone.
    """
    phi0 = np.asarray(phi0, dtype=complex)
    phi1 = np.asarray(phi1, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if x.shape != (2, 2):
        raise ValueError(f"x must be a 2x2 qubit operator, got shape {x.shape}")
    d = eve_povm.dim
    if phi0.shape != (2 * d,) or phi1.shape != (2 * d,):
        raise ValueError(
            f"vectors must live on the joint space of dim {2 * d}, "
            f"got shapes {phi0.shape} and {phi1.shape}"
        )
    return float(_overlap_slack(phi0[None], phi1[None], x[None], eve_povm.elements[None])[0])


def proof_chain(attack: AttackModel, eve_povm: Povm) -> ProofTrace:
    """Certify every step the trade-off bound is derived through.

    Steps recorded in step_slacks:
      s1_z0, s1_z1   <Psi|C_z^dag C_z|Psi> = P_SIFT (equality residuals)
      s2             sqrt-perturbation bound relating p_AE and p0,
                     minimum slack over all (z, e)
      s3             |<phi0|X|phi1>| >= 1/2 - P_CTRL
      s4             sum_e sqrt(p0(0,e) p0(1,e)) <= fidelity_sum
                     + 6 P_SIFT^(1/4)
      s5             1/2 - P_CTRL - 6 P_SIFT^(1/4) <= fidelity_sum
      s6_info_fidelity    I(A:E) <= sqrt(1 - 4 fidelity_sum^2)
      s6_fidelity_bound   that bound <= tradeoff_bound when the latter
                          is nonvacuous (<= 1), else I(A:E) <= bound
                          directly

    The s6 bound comparison in the nonvacuous case is certified on the
    squared values (bound^2 - max(1 - 4 F^2, 0)): the value form has an
    infinite slope at zero disturbance, where it would amplify 1e-16
    table noise past any reasonable tolerance.  The sign is the same
    either way.
    """
    return verify_tradeoff(attack, eve_povm).trace


def _proof_chain(ev: _Evaluation, elements: np.ndarray, joint: np.ndarray, info: np.ndarray,
                 rhs: np.ndarray) -> ProofTrace:
    """proof_chain for a stack of evaluated attacks, their POVM elements
    (N, m, d, d), joint tables, I(A:E) and trade-off bounds, computed on
    the qubit blocks of U psi and of the branch pair U Z_z psi."""
    p_ctrl, p_sift, w = ev.p_ctrl, ev.p_sift, ev.u_psi

    # C_0 psi = Z_1 U Z_0 psi - Z_0 U Z_1 psi is (-block 0 of U Z_1 psi,
    # block 1 of U Z_0 psi), and C_1 = -C_0, so both steps share its blocks
    c_psi = np.stack([-ev.branches[:, 1, 0], ev.branches[:, 0, 1]], axis=1)
    residual = _sq_norms(c_psi).sum(axis=-1) - p_sift

    p0 = _lifted_expectations(w[:, :, None], elements)  # block z of U psi alone, (N, 2, m)
    disturb = _lifted_expectations(c_psi, elements)[:, None, :]
    s2 = np.sqrt(2.0 * np.sqrt(p0) * np.sqrt(disturb) + disturb) - np.abs(np.sqrt(joint) - np.sqrt(p0))

    # <U psi| (|0><1| (x) 1_K) |U psi> pairs block 0 with block 1
    lhs_overlap = np.abs((w[:, 0].conj() * w[:, 1]).sum(axis=-1))
    slack_term = 6.0 * p_sift ** 0.25
    fidelity_sum = np.sqrt(joint[:, 0] * joint[:, 1]).sum(axis=-1)
    p0_overlap = np.sqrt(p0[:, 0] * p0[:, 1]).sum(axis=-1)
    fid_bound = _fidelity_bound(fidelity_sum)

    slacks = {
        "s1_z0": residual,
        "s1_z1": residual,
        "s2": s2.min(axis=(1, 2)),
        "s3": lhs_overlap - (0.5 - p_ctrl),
        "s4": fidelity_sum + slack_term - p0_overlap,
        "s5": fidelity_sum - (0.5 - p_ctrl - slack_term),
        "s6_info_fidelity": fid_bound - info,
        "s6_fidelity_bound": np.where(rhs <= 1.0, rhs ** 2 - fid_bound ** 2, rhs - info),
    }
    return ProofTrace(p0, p0.sum(axis=-1), lhs_overlap, fidelity_sum, slacks)


def verify_tradeoff(attack: AttackModel, eve_povm: Povm) -> TradeoffReport:
    """Evaluate both sides of the trade-off bound for a concrete attack
    and POVM, with the full derivation certificate attached."""
    return _report(_evaluate_attack(attack), eve_povm)


def _report(ev: _Evaluation, eve_povm: Povm) -> TradeoffReport:
    """verify_tradeoff of an evaluated attack (a stack of one)."""
    elements = eve_povm.elements[None]
    joint, info, rhs = _assess(ev, elements)
    gap = float(rhs[0] - info[0])
    return TradeoffReport(
        p_ctrl=float(ev.p_ctrl[0]),
        p_sift=float(ev.p_sift[0]),
        info=float(info[0]),
        rhs=float(rhs[0]),
        gap=gap,
        holds=bool(gap >= SLACK_TOL),
        trace=_proof_chain(ev, elements, joint, info, rhs).instance(0),
        sift=ev.sift(0),
        joint=joint[0],
    )
