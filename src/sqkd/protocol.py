"""Exact evaluation of the toy one-qubit protocol under a two-interaction attack.

Bob sends |+>; Eve couples an ancilla on the way to Alice (unitary V on
H (x) K) and again on the way back (unitary U).  The CTRL branch checks
that the returning qubit is still |+>; the SIFT branch has Alice measure
and resend in the computational basis, after which Eve measures a POVM
on her ancilla.  All probabilities are exact inner products, never
sampled.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .info import mutual_information, validate_joint
from .povm import Povm

DEGENERATE_BRANCH_TOL = 1e-12
CROSS_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class AttackModel:
    """Eve's attack: ancilla dimension, initial ancilla state, and the
    forward (V) and return (U) unitaries on the joint space.  Validated
    on construction."""

    ancilla_dim: int
    omega: np.ndarray
    v: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=complex))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=complex))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=complex))
        self.validate()

    def validate(self) -> None:
        d = self.ancilla_dim
        if d < 1:
            raise ValueError(f"ancilla_dim must be >= 1, got {d}")
        if self.omega.shape != (d,):
            raise ValueError(f"omega has shape {self.omega.shape}, expected ({d},)")
        linalg.check_normalized(self.omega, name="omega")
        for name, m in (("V", self.v), ("U", self.u)):
            if m.shape != (2 * d, 2 * d):
                raise ValueError(f"{name} has shape {m.shape}, expected {(2 * d, 2 * d)}")
            linalg.check_unitary(m, name=name)


@dataclass(frozen=True)
class SiftOutcome:
    """Everything the SIFT branch produces for a fixed attack.

    p_a[z] is Alice's outcome distribution, sigma[z] the post-measurement
    joint states, rho_eve[z] Eve's conditional states after the return
    interaction, p_b_given_a the conditional table for Bob's check, and
    p_sift the SIFT error probability.  Branches with p_a[z] below
    1e-12 are flagged degenerate and carry zero operators.
    """

    p_a: np.ndarray
    sigma: tuple
    rho_eve: tuple
    p_b_given_a: np.ndarray
    p_sift: float
    degenerate: tuple


def _qubit_blocks(vec: np.ndarray, d: int):
    return vec[:d], vec[d:]


def _lifted_expectation(blocks, element: np.ndarray) -> float:
    """<v| 1_H (x) E |v>, clamped at 0, from the nonzero qubit blocks of v."""
    return max(float(np.real(sum(np.vdot(b, element @ b) for b in blocks))), 0.0)


def _prepared_state(attack: AttackModel) -> np.ndarray:
    return attack.v @ linalg.tensor(linalg.ket_plus(), attack.omega)


@dataclass(frozen=True)
class _Evaluation:
    """What the protocol derives from one attack alone: psi = V |+> (x) |omega>,
    u_psi = U psi, and branches[z] = U Z_z psi (unnormalized)."""

    attack: AttackModel
    psi: np.ndarray
    u_psi: np.ndarray
    branches: tuple
    p_ctrl: float
    sift: SiftOutcome


def _evaluate(attack: AttackModel) -> _Evaluation:
    """Evaluate the CTRL and SIFT branches of a (validated) attack once."""
    d = attack.ancilla_dim
    u = attack.u
    psi = _prepared_state(attack)
    u_psi = u @ psi
    w0, w1 = _qubit_blocks(u_psi, d)
    # |-><-| (x) 1 acting on blocks: amplitude (w0 - w1)/sqrt(2)
    p_ctrl = linalg.clamp_probability(float(np.linalg.norm(w0 - w1) ** 2 / 2.0))

    p_a = np.empty(2)
    sigma = []
    rho_eve = []
    p_b_given_a = np.zeros((2, 2))
    degenerate = []

    projected = []  # Z_z |Psi>, unnormalized
    for z in (0, 1):
        cut = psi.copy()
        cut[(1 - z) * d:(2 - z) * d] = 0.0
        projected.append(cut)
        p_a[z] = linalg.clamp_probability(float(np.linalg.norm(cut) ** 2))

    for z in (0, 1):
        if p_a[z] <= DEGENERATE_BRANCH_TOL:
            degenerate.append(True)
            sigma.append(np.zeros((2 * d, 2 * d), dtype=complex))
            rho_eve.append(np.zeros((d, d), dtype=complex))
            continue
        degenerate.append(False)
        sigma.append(np.outer(projected[z], projected[z].conj()) / p_a[z])
        returned = u @ sigma[z] @ linalg.dagger(u)
        rho_eve.append(linalg.partial_trace_qubit(returned))
        for z_bob in (0, 1):
            block = returned[z_bob * d:(z_bob + 1) * d, z_bob * d:(z_bob + 1) * d]
            p_b_given_a[z, z_bob] = linalg.clamp_probability(float(np.trace(block).real))

    p_sift = float(p_b_given_a[0, 1] * p_a[0] + p_b_given_a[1, 0] * p_a[1])
    p_sift_op = sift_error_operator(attack)
    if abs(p_sift - p_sift_op) > CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"P_SIFT routes disagree: defining sum {p_sift!r} vs operator form {p_sift_op!r}"
        )

    sift = SiftOutcome(
        p_a=p_a,
        sigma=tuple(sigma),
        rho_eve=tuple(rho_eve),
        p_b_given_a=p_b_given_a,
        p_sift=p_sift,
        degenerate=tuple(degenerate),
    )
    return _Evaluation(attack, psi, u_psi, tuple(u @ cut for cut in projected), p_ctrl, sift)


def _joint_table(ev: _Evaluation, eve_povm: Povm) -> np.ndarray:
    """Joint table p(z, e) of an evaluated attack; see joint_distribution."""
    d = ev.attack.ancilla_dim
    if eve_povm.dim != d:
        raise ValueError(f"POVM dimension {eve_povm.dim} does not match ancilla dimension {d}")
    table = np.empty((2, eve_povm.outcome_count))
    for z in (0, 1):
        blocks = _qubit_blocks(ev.branches[z], d)
        for e, element in enumerate(eve_povm.elements):
            table[z, e] = _lifted_expectation(blocks, element)
            conditional = ev.sift.p_a[z] * float(np.trace(ev.sift.rho_eve[z] @ element).real)
            if abs(table[z, e] - conditional) > CROSS_CHECK_TOL:
                raise ArithmeticError(
                    f"joint-distribution routes disagree at (z={z}, e={e}): "
                    f"{table[z, e]!r} vs {conditional!r}"
                )
    return validate_joint(table)


def forward_state(attack: AttackModel) -> np.ndarray:
    """The joint state V |+> (x) |omega> after Eve's forward interaction."""
    return _evaluate(attack).psi


def ctrl_error(attack: AttackModel) -> float:
    """Probability that Bob sees |-> in the CTRL branch.

    <Psi| U^dag (|-><-| (x) 1_K) U |Psi>, clamped into [0, 1].
    """
    return _evaluate(attack).p_ctrl


def sift_error_operator(attack: AttackModel) -> float:
    """P_SIFT via the operator identity
    <Psi| Z_0 U^dag Z_1 U Z_0 |Psi> + <Psi| Z_1 U^dag Z_0 U Z_1 |Psi>,
    evaluated with explicit projector matrices (independent of the
    branch bookkeeping in sift_branch)."""
    d = attack.ancilla_dim
    psi = _prepared_state(attack)
    eye_k = np.eye(d, dtype=complex)
    z = [linalg.tensor(linalg.projector(linalg.basis_state(2, zz)), eye_k) for zz in (0, 1)]
    u = attack.u
    udag = linalg.dagger(u)
    total = 0.0
    for zz in (0, 1):
        m = z[zz] @ udag @ z[1 - zz] @ u @ z[zz]
        total += float(np.real(np.vdot(psi, m @ psi)))
    return linalg.clamp_probability(total)


def sift_branch(attack: AttackModel) -> SiftOutcome:
    """Evaluate the SIFT branch: Lueders update, return interaction,
    Eve's conditional states, Bob's conditional check table, and P_SIFT.

    P_SIFT is computed from the defining sum
    p(1|0) p_a(0) + p(0|1) p_a(1) and cross-checked against the operator
    expression within 1e-12.
    """
    return _evaluate(attack).sift


def joint_distribution(attack: AttackModel, eve_povm: Povm) -> np.ndarray:
    """Joint table p(z, e) = <Psi| Z_z U^dag (1 (x) E_e) U Z_z |Psi>.

    Cross-checked against the conditional route
    p_a(z) * tr(rho_z E_e) within 1e-12 before returning.
    """
    return _joint_table(_evaluate(attack), eve_povm)


def eve_information(attack: AttackModel, eve_povm: Povm) -> float:
    """Mutual information I(A:E) between Alice's bit and Eve's outcome."""
    return mutual_information(joint_distribution(attack, eve_povm))
