"""The information-disturbance bound and its step-by-step certificate.

For any attack and any ancilla POVM the protocol satisfies

    I(A:E) <= 2 * sqrt(P_CTRL + 6 * P_SIFT^(1/4))

`verify_tradeoff` evaluates both sides on a concrete instance, and
`proof_chain` additionally certifies every intermediate inequality the
bound is derived through, reporting one signed slack per step.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .info import mutual_information, validate_joint
from .povm import Povm
from .protocol import (
    AttackModel,
    SiftOutcome,
    _evaluate,
    _Evaluation,
    _joint_table,
    _lifted_expectation,
    _qubit_blocks,
)

SLACK_TOL = -1e-9


@dataclass(frozen=True)
class ProofTrace:
    """Intermediate quantities and per-step slacks of the bound derivation.

    step_slacks maps step names to signed slacks (RHS - LHS of the
    step's inequality); the s1 entries are equality residuals expected
    to vanish within 1e-12.
    """

    c: tuple
    p0: np.ndarray
    p0_marginal: np.ndarray
    lhs_overlap: float
    fidelity_sum: float
    step_slacks: dict


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


def tradeoff_bound(p_ctrl: float, p_sift: float) -> float:
    """Upper bound 2 sqrt(P_CTRL + 6 P_SIFT^(1/4)) on Eve's information."""
    for name, value in (("p_ctrl", p_ctrl), ("p_sift", p_sift)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(2.0 * np.sqrt(p_ctrl + 6.0 * p_sift ** 0.25))


def fidelity_information_bound(table) -> float:
    """Bound on I(X:Y) for a binary X from the row-overlap of the joint:

        I(X:Y) <= sqrt(1 - 4 F^2),  F = sum_y sqrt(p(0,y) p(1,y)).

    F can exceed 1/2 only through numerical noise, so 1 - 4F^2 is
    clamped at 0 before the square root.
    """
    t = validate_joint(table)
    if t.shape[0] != 2:
        raise ValueError(f"the x-alphabet must be binary, got {t.shape[0]} symbols")
    f = float(np.sqrt(t[0] * t[1]).sum())
    return float(np.sqrt(max(1.0 - 4.0 * f * f, 0.0)))


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
    # x (x) 1_K acts on the qubit-major layout as x on the rows of the (2, d) reshape
    lhs = abs(np.vdot(phi0, (x @ phi1.reshape(2, d)).ravel()))
    blocks0, blocks1 = _qubit_blocks(phi0, d), _qubit_blocks(phi1, d)
    rhs = 0.0
    for element in eve_povm.elements:
        rhs += np.sqrt(_lifted_expectation(blocks0, element) * _lifted_expectation(blocks1, element))
    rhs *= linalg.operator_norm(x)
    return float(rhs - lhs)


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
    ev = _evaluate(attack)
    joint = _joint_table(ev, eve_povm)
    return _proof_chain(ev, eve_povm, joint, mutual_information(joint))


def _proof_chain(ev: _Evaluation, eve_povm: Povm, joint: np.ndarray, info: float) -> ProofTrace:
    """proof_chain for an evaluated attack, its joint table and I(A:E),
    computed on the qubit blocks of psi, U and U psi."""
    d = ev.attack.ancilla_dim
    u = ev.attack.u
    p_ctrl, p_sift = ev.p_ctrl, ev.sift.p_sift
    psi = _qubit_blocks(ev.psi, d)
    w = _qubit_blocks(ev.u_psi, d)

    # C_0 = Z_1 U Z_0 - Z_0 U Z_1 keeps the off-diagonal blocks of U, one
    # negated, and C_1 = -C_0, so both steps share C_0 psi and its blocks
    c0 = np.zeros_like(u)
    c0[d:, :d] = u[d:, :d]
    c0[:d, d:] = -u[:d, d:]
    c_psi = (c0[:d, d:] @ psi[1], c0[d:, :d] @ psi[0])

    residual = float(sum(np.vdot(b, b).real for b in c_psi)) - p_sift
    slacks = {"s1_z0": residual, "s1_z1": residual}

    p0 = np.array([[_lifted_expectation((w[z],), e) for e in eve_povm.elements] for z in (0, 1)])
    p0_marginal = p0.sum(axis=1)

    s2 = np.inf
    for e, element in enumerate(eve_povm.elements):
        disturb = _lifted_expectation(c_psi, element)
        for z in (0, 1):
            lhs = abs(np.sqrt(joint[z, e]) - np.sqrt(p0[z, e]))
            rhs = np.sqrt(2.0 * np.sqrt(p0[z, e]) * np.sqrt(disturb) + disturb)
            s2 = min(s2, float(rhs - lhs))
    slacks["s2"] = s2

    # <U psi| (|0><1| (x) 1_K) |U psi> pairs block 0 with block 1
    lhs_overlap = float(abs(np.vdot(w[0], w[1])))
    slacks["s3"] = lhs_overlap - (0.5 - p_ctrl)

    slack_term = 6.0 * p_sift ** 0.25
    fidelity_sum = float(np.sqrt(joint[0] * joint[1]).sum())
    p0_overlap = float(np.sqrt(p0[0] * p0[1]).sum())
    slacks["s4"] = fidelity_sum + slack_term - p0_overlap
    slacks["s5"] = fidelity_sum - (0.5 - p_ctrl - slack_term)

    fid_bound = fidelity_information_bound(joint)
    rhs_bound = tradeoff_bound(p_ctrl, p_sift)
    slacks["s6_info_fidelity"] = fid_bound - info
    if rhs_bound <= 1.0:
        slacks["s6_fidelity_bound"] = rhs_bound ** 2 - fid_bound ** 2
    else:
        slacks["s6_fidelity_bound"] = rhs_bound - info

    return ProofTrace(
        c=(c0, -c0),
        p0=p0,
        p0_marginal=p0_marginal,
        lhs_overlap=lhs_overlap,
        fidelity_sum=fidelity_sum,
        step_slacks=slacks,
    )


def verify_tradeoff(attack: AttackModel, eve_povm: Povm) -> TradeoffReport:
    """Evaluate both sides of the trade-off bound for a concrete attack
    and POVM, with the full derivation certificate attached."""
    ev = _evaluate(attack)
    joint = _joint_table(ev, eve_povm)
    info = mutual_information(joint)
    rhs = tradeoff_bound(ev.p_ctrl, ev.sift.p_sift)
    gap = rhs - info
    return TradeoffReport(
        p_ctrl=ev.p_ctrl,
        p_sift=ev.sift.p_sift,
        info=info,
        rhs=rhs,
        gap=gap,
        holds=bool(gap >= SLACK_TOL),
        trace=_proof_chain(ev, eve_povm, joint, info),
        sift=ev.sift,
        joint=joint,
    )
