"""Exact evaluation of the toy one-qubit protocol under a two-interaction attack.

Bob sends |+>; Eve couples an ancilla on the way to Alice (unitary V on
H (x) K) and again on the way back (unitary U).  The CTRL branch checks
that the returning qubit is still |+>; the SIFT branch has Alice measure
and resend in the computational basis, after which Eve measures a POVM
on her ancilla.  All probabilities are exact inner products, never
sampled.

One numeric kernel does the work: `_evaluate` takes a stack of N attacks
of one ancilla dimension d, shaped (N, d) and (N, 2d, 2d), and
`_joint_table` a stack of POVM elements (N, m, d, d); every product is a
stacked matmul or an einsum.  Of the kernel, only `_evaluate` sees V, U
and psi: it hands on the qubit blocks of U psi and of the branch pair
U Z_z psi, and the proof chain reads C_0 psi and U psi from those.
A sweep evaluates each chunk of its grid (the chunk size is `cli`'s) in
one stack, a suite the attacks of each ancilla dimension d of a window of
draws, and every public function here is the kernel on a stack of one.
A suite then reads the rows of each POVM shape out of that one evaluation
(_Evaluation.rows).
"""

import dataclasses
import functools
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
        check_attacks(self.ancilla_dim, self.omega[None], self.v[None], self.u[None])


@dataclass(frozen=True)
class SiftOutcome:
    """Everything the SIFT branch produces for a fixed attack.

    p_a[z] is Alice's outcome distribution, rho_eve[z] (a (2, d, d)
    array) Eve's conditional states after the return interaction,
    p_b_given_a the conditional table for Bob's check, and p_sift the
    SIFT error probability.  Branches with p_a[z] below 1e-12 are
    flagged degenerate and carry a zero state and table row.
    """

    p_a: np.ndarray
    rho_eve: np.ndarray
    p_b_given_a: np.ndarray
    p_sift: float
    degenerate: tuple


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norms along the last axis."""
    return (x.real ** 2 + x.imag ** 2).sum(axis=-1)


def _prepared_states(omega: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V |+> (x) |omega> for stacks omega (N, d) and v (N, 2d, 2d)."""
    plus_omega = (linalg.ket_plus()[:, None] * omega[:, None, :]).reshape(len(omega), -1)
    return (v @ plus_omega[..., None])[..., 0]


def check_attacks(d: int, omega: np.ndarray, v: np.ndarray, u: np.ndarray) -> None:
    """Validate a stack of attacks: omega (N, d), v and u (N, 2d, 2d)."""
    if d < 1:
        raise ValueError(f"ancilla_dim must be >= 1, got {d}")
    if omega.shape[1:] != (d,):
        raise ValueError(f"omega has shape {omega.shape[1:]}, expected ({d},)")
    linalg.check_normalized(omega, name="omega")
    for name, m in (("V", v), ("U", u)):
        if m.shape[1:] != (2 * d, 2 * d):
            raise ValueError(f"{name} has shape {m.shape[1:]}, expected {(2 * d, 2 * d)}")
        linalg.check_unitary(m, name=name)


@dataclass(frozen=True)
class _Evaluation:
    """What the protocol derives from a stack of N attacks of one ancilla
    dimension d, each field with the instance as its first axis: u_psi[n, q]
    and branches[n, z, q] the qubit-q blocks of U psi (N, 2, d) and of
    U Z_z psi (N, 2, 2, d, unnormalized), psi = V |+> (x) |omega>; p_ctrl
    and p_sift (N,); p_a and degenerate (N, 2); rho_eve (N, 2, d, d);
    p_b_given_a (N, 2, 2).  Only _evaluate sees V, U and psi.  u_psi stays
    although it is branches[:, 0] + branches[:, 1] in exact arithmetic:
    that sum rounds differently from U psi in the last bits."""

    u_psi: np.ndarray
    branches: np.ndarray
    p_ctrl: np.ndarray
    p_a: np.ndarray
    rho_eve: np.ndarray
    p_b_given_a: np.ndarray
    p_sift: np.ndarray
    degenerate: np.ndarray

    def rows(self, index) -> "_Evaluation":
        """The evaluation of the instances `index` (positions in the stack) alone."""
        return _Evaluation(*(getattr(self, f.name)[index] for f in dataclasses.fields(self)))

    def sift(self, n: int) -> SiftOutcome:
        """The SIFT branch of instance n."""
        return SiftOutcome(
            p_a=self.p_a[n],
            rho_eve=self.rho_eve[n],
            p_b_given_a=self.p_b_given_a[n],
            p_sift=float(self.p_sift[n]),
            degenerate=tuple(bool(b) for b in self.degenerate[n]),
        )


def _evaluate(omega: np.ndarray, v: np.ndarray, u: np.ndarray) -> _Evaluation:
    """Evaluate the CTRL and SIFT branches of a stack of validated attacks once.

    Eve's states and Bob's table come from the qubit blocks b_q of
    U Z_z psi: rho_eve[z] = sum_q b_q b_q^dag / p_a(z) and
    p(z_B | z) = ||b_{z_B}||^2 / p_a(z).  A probability that fails its
    clamp (a V or U accepted as unitary can still push one past 1 + 1e-12)
    raises naming it and the largest deviation of V^dag V and U^dag U from 1.
    """
    n, d = omega.shape
    psi = _prepared_states(omega, v)
    w = (u @ psi[..., None])[..., 0].reshape(n, 2, d)
    halves = psi.reshape(n, 2, d)
    # U Z_z psi = U restricted to the columns of qubit block z, applied to block z of psi
    branches = np.stack(
        [(u[:, :, z * d:(z + 1) * d] @ halves[:, z, :, None])[..., 0] for z in (0, 1)], axis=1
    ).reshape(n, 2, 2, d)
    try:
        # |-><-| (x) 1 acting on blocks: amplitude (w0 - w1)/sqrt(2)
        p_ctrl = linalg.clamp_probability(_sq_norms(w[:, 0] - w[:, 1]) / 2.0, "P_CTRL")
        p_a = linalg.clamp_probability(_sq_norms(halves), "p_a(z)")
        degenerate = p_a <= DEGENERATE_BRANCH_TOL
        scale = np.zeros_like(p_a)
        np.divide(1.0, p_a, out=scale, where=~degenerate)
        p_b_given_a = linalg.clamp_probability(_sq_norms(branches) * scale[..., None], "P(z_B|z)")
        p_sift = linalg.clamp_probability(p_b_given_a[:, 0, 1] * p_a[:, 0] + p_b_given_a[:, 1, 0] * p_a[:, 1],
                                          "P_SIFT")
        p_sift_op = _sift_error_operator(psi, u)
    except ValueError as exc:  # the deviations are computed only here, never on the path that passes
        raise ValueError(f"{exc}; the attack's max deviation of M^dag M from 1 is "
                         f"{linalg.unitary_deviation(v):.3e} for V and {linalg.unitary_deviation(u):.3e} "
                         f"for U (each accepted up to {linalg.TOL_UNITARY})") from None
    rho_eve = (np.swapaxes(branches, -1, -2) @ branches.conj()) * scale[..., None, None]
    off = np.abs(p_sift - p_sift_op) > CROSS_CHECK_TOL
    if off.any():
        k = int(np.argmax(off))
        raise ArithmeticError(
            f"P_SIFT routes disagree: defining sum {float(p_sift[k])!r} vs operator form {float(p_sift_op[k])!r}"
        )
    return _Evaluation(w, branches, p_ctrl, p_a, rho_eve, p_b_given_a, p_sift, degenerate)


def _evaluate_attack(attack: AttackModel) -> _Evaluation:
    """_evaluate on a stack of one attack."""
    return _evaluate(attack.omega[None], attack.v[None], attack.u[None])


def _gram(branches: np.ndarray) -> np.ndarray:
    """Gram matrices (N, 4, 4) of the qubit blocks b_{z,q} of branches (N, 2, 2, d),
    in (z, q) order: Gamma[(z, q), (z', q')] = <b_{z,q}|b_{z',q'}>."""
    b = branches.reshape(len(branches), 4, -1)
    return b.conj() @ b.swapaxes(-1, -2)


def _lifted_expectations(vecs: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """<v| 1_H (x) E_e |v>, clamped at 0, for joint vectors given by their
    qubit blocks vecs (N, ..., 2, d) and elements (N, m, d, d); shape (N, ..., m)."""
    return np.maximum(np.einsum("n...qi,neij,n...qj->n...e", vecs.conj(), elements, vecs).real, 0.0)


def _joint_table(ev: _Evaluation, elements: np.ndarray) -> np.ndarray:
    """Joint tables p(z, e), shape (N, 2, m), of evaluated attacks and
    POVM elements (N, m, d, d); see joint_distribution."""
    d = ev.rho_eve.shape[-1]
    if elements.shape[-1] != d:
        raise ValueError(f"POVM dimension {elements.shape[-1]} does not match ancilla dimension {d}")
    table = _lifted_expectations(ev.branches, elements)
    conditional = ev.p_a[..., None] * np.einsum("nzij,neji->nze", ev.rho_eve, elements).real
    off = np.abs(table - conditional) > CROSS_CHECK_TOL
    if off.any():
        k, z, e = (int(i) for i in np.argwhere(off)[0])
        raise ArithmeticError(
            f"joint-distribution routes disagree at (z={z}, e={e}): "
            f"{float(table[k, z, e])!r} vs {float(conditional[k, z, e])!r}"
        )
    return validate_joint(table)


def forward_state(attack: AttackModel) -> np.ndarray:
    """The joint state V |+> (x) |omega> after Eve's forward interaction."""
    return _prepared_states(attack.omega[None], attack.v[None])[0]


def ctrl_error(attack: AttackModel) -> float:
    """Probability that Bob sees |-> in the CTRL branch.

    <Psi| U^dag (|-><-| (x) 1_K) U |Psi>, clamped into [0, 1].
    """
    return float(_evaluate_attack(attack).p_ctrl[0])


@functools.cache
def _z_projectors(d: int) -> np.ndarray:
    """Z_0 and Z_1 = |z><z| (x) 1_K as explicit 2d x 2d matrices, built once per d (read-only)."""
    z = np.stack([np.diag(np.repeat([1.0 - zz, zz], d)).astype(complex) for zz in (0, 1)])
    z.flags.writeable = False
    return z


def _sift_error_operator(psi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sift_error_operator for stacks psi (N, 2d) and u (N, 2d, 2d): the
    explicit projector matrices and U^dag are applied to psi right to left,
    one matrix-vector product at a time."""
    z = _z_projectors(psi.shape[-1] // 2)
    udag = linalg.dagger(u)
    ket = psi[..., None]
    total = 0.0
    for zz in (0, 1):
        image = z[zz] @ (udag @ (z[1 - zz] @ (u @ (z[zz] @ ket))))
        total = total + (psi.conj()[:, None, :] @ image)[:, 0, 0].real
    return linalg.clamp_probability(total, "P_SIFT (operator form)")


def sift_error_operator(attack: AttackModel) -> float:
    """P_SIFT via the operator identity
    <Psi| Z_0 U^dag Z_1 U Z_0 |Psi> + <Psi| Z_1 U^dag Z_0 U Z_1 |Psi>,
    evaluated with explicit projector matrices and an explicit U^dag,
    applied to |Psi> right to left (independent of the branch
    bookkeeping in sift_branch)."""
    psi = _prepared_states(attack.omega[None], attack.v[None])
    return float(_sift_error_operator(psi, attack.u[None])[0])


def sift_branch(attack: AttackModel) -> SiftOutcome:
    """Evaluate the SIFT branch: Lueders update, return interaction,
    Eve's conditional states, Bob's conditional check table, and P_SIFT.

    P_SIFT is computed from the defining sum
    p(1|0) p_a(0) + p(0|1) p_a(1) and cross-checked against the operator
    expression within 1e-12.
    """
    return _evaluate_attack(attack).sift(0)


def joint_distribution(attack: AttackModel, eve_povm: Povm) -> np.ndarray:
    """Joint table p(z, e) = <Psi| Z_z U^dag (1 (x) E_e) U Z_z |Psi>.

    Cross-checked against the conditional route
    p_a(z) * tr(rho_z E_e) within 1e-12 before returning.
    """
    return _joint_table(_evaluate_attack(attack), eve_povm.elements[None])[0]


def eve_information(attack: AttackModel, eve_povm: Povm) -> float:
    """Mutual information I(A:E) between Alice's bit and Eve's outcome."""
    return mutual_information(joint_distribution(attack, eve_povm))
