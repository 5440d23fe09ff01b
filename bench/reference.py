"""Reference computations the benchmark checks the program against.

Nothing here calls `sqkd.linalg` or `sqkd.protocol`.  Observables are
evaluated from explicitly built 2d x 2d density matrices (qubit-major
order, as the program documents), entropies come from this module's own
eigendecompositions, and the partial-gate families have closed forms.
"""

from dataclasses import dataclass

import numpy as np

ZERO_PROB = 1e-15


@dataclass(frozen=True)
class Observables:
    p_ctrl: float
    p_sift: float
    p_a: np.ndarray  # Alice's outcome distribution in the SIFT branch
    joint: np.ndarray  # p(z, e)
    tau: tuple  # Eve's unnormalized conditional states p_a(z) rho_z


def complex_array(pairs) -> np.ndarray:
    """Array of [re, im] pairs (any nesting) as a complex array."""
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def to_pairs(arr) -> list:
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def fractional_gate(gate: np.ndarray, t: float) -> np.ndarray:
    """G^t for a Hermitian unitary G, via its own eigendecomposition."""
    w, vecs = np.linalg.eigh(gate)
    return (vecs * np.exp(1j * np.pi * t * (w < 0))) @ vecs.conj().T


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
KET0 = np.array([1, 0], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2.0)


def named_attack(name: str, theta: float | None = None) -> tuple:
    """(V, U, omega) of the program's named fixtures, built from their definitions."""
    eye4 = np.eye(4, dtype=complex)
    if name == "identity":
        return eye4, eye4, KET0
    if name == "forward-cnot":
        return CNOT, eye4, KET0
    t = theta / (np.pi / 2)
    if name == "partial-forward-cnot":
        return fractional_gate(CNOT, t), eye4, KET0
    if name == "partial-return-cz":
        return eye4, fractional_gate(CZ, t), KET_PLUS
    raise ValueError(f"no reference for attack {name!r}")


def z_basis(d: int) -> list:
    """Projectors onto the ancilla's computational basis."""
    return [np.outer(v, v) for v in np.eye(d, dtype=complex)]


def observables(v, u, omega, elements) -> Observables:
    """P_CTRL, P_SIFT, p_a, p(z, e) and Eve's states from density matrices."""
    v, u, omega = (np.asarray(x, dtype=complex) for x in (v, u, omega))
    d = omega.shape[0]
    eye_k = np.eye(d)
    rho_in = np.kron(np.outer(KET_PLUS, KET_PLUS.conj()), np.outer(omega, omega.conj()))
    rho_fwd = v @ rho_in @ v.conj().T

    minus = np.array([1, -1], dtype=complex) / np.sqrt(2.0)
    ctrl = u @ rho_fwd @ u.conj().T
    p_ctrl = np.trace(np.kron(np.outer(minus, minus.conj()), eye_k) @ ctrl).real

    z_ops = [np.kron(np.diag([1.0 - z, float(z)]), eye_k) for z in (0, 1)]
    returned = [u @ z_ops[z] @ rho_fwd @ z_ops[z] @ u.conj().T for z in (0, 1)]
    p_sift = sum(np.trace(z_ops[1 - z] @ returned[z]).real for z in (0, 1))
    lifted = [np.kron(np.eye(2), e) for e in elements]
    joint = np.array([[np.trace(e @ r).real for e in lifted] for r in returned])
    tau = tuple(np.einsum("aiaj->ij", r.reshape(2, d, 2, d)) for r in returned)
    p_a = np.array([np.trace(t).real for t in tau])
    return Observables(float(p_ctrl), float(p_sift), p_a, joint, tau)


def entropy_bits(p) -> float:
    p = np.ravel(np.asarray(p, dtype=float))
    p = p[p > ZERO_PROB]
    return float(-(p * np.log2(p)).sum())


def binary_entropy(p: float) -> float:
    return entropy_bits([p, 1.0 - p])


def mutual_information(joint) -> float:
    t = np.clip(np.asarray(joint, dtype=float), 0.0, None)
    return entropy_bits(t.sum(axis=1)) + entropy_bits(t.sum(axis=0)) - entropy_bits(t)


def von_neumann_bits(rho) -> float:
    return entropy_bits(np.linalg.eigvalsh(rho))


def holevo_chi(tau) -> float:
    """chi = S(tau_0 + tau_1) - sum_z p_z S(tau_z / p_z)."""
    chi = von_neumann_bits(tau[0] + tau[1])
    for t in tau:
        p = np.trace(t).real
        if p > 1e-12:
            chi -= p * von_neumann_bits(t / p)
    return chi


def helstrom_information(tau) -> float:
    """Information of the Helstrom measurement: projectors onto the
    positive and non-positive parts of p_a(0) rho_0 - p_a(1) rho_1."""
    w, vecs = np.linalg.eigh(tau[0] - tau[1])
    pos = vecs[:, w > 0]
    proj = pos @ pos.conj().T
    elements = (proj, np.eye(len(w)) - proj)
    return mutual_information([[np.trace(t @ e).real for e in elements] for t in tau])


def povm_defect(elements) -> float:
    """Largest violation of positivity or completeness of a POVM."""
    d = elements[0].shape[0]
    neg = max(max(-np.linalg.eigvalsh((e + e.conj().T) / 2)[0], 0.0) for e in elements)
    herm = max(np.abs(e - e.conj().T).max() for e in elements)
    complete = np.abs(sum(elements) - np.eye(d)).max()
    return float(max(neg, herm, complete))


def tradeoff_rhs(p_ctrl: float, p_sift: float) -> float:
    return float(2.0 * np.sqrt(p_ctrl + 6.0 * max(p_sift, 0.0) ** 0.25))


def family_closed_form(theta: float) -> dict:
    """Both partial families, with s = sin^2 theta (z POVM for the forward
    CNOT, x POVM for the return CZ)."""
    s = np.sin(theta) ** 2
    return {
        "p_ctrl": s / 2.0,
        "p_sift": 0.0,
        "info": binary_entropy(s / 2.0) - binary_entropy(s) / 2.0,
        "rhs": float(np.sqrt(2.0 * s)),
    }
