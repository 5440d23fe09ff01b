"""Named attacks, parameterized attack families, and random attack sampling."""

import re

import numpy as np

from . import linalg
from .protocol import AttackModel

MAX_RANDOM_ANCILLA_DIM = 6

_NAME_WITH_ARG = re.compile(r"^([a-z-]+)\(([^)]+)\)$")


def _cnot() -> np.ndarray:
    """Qubit-controlled NOT on a 2-dim ancilla: |q, k> -> |q, k xor q>."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = 1.0  # qubit 0: ancilla untouched
    m[2, 3] = m[3, 2] = 1.0  # qubit 1: ancilla flipped
    return m


def _cz() -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def _involutory_power(gate: np.ndarray, t) -> np.ndarray:
    """Fractional power G^t of a Hermitian unitary gate, for one t or a stack of them.

    G^t = exp(i pi t P) with P the projector onto G's -1 eigenspace,
    which interpolates smoothly from the identity (t=0) to G (t=1).
    """
    p = (np.eye(gate.shape[0]) - gate) / 2.0
    return np.eye(gate.shape[0], dtype=complex) + (np.exp(1j * np.pi * t) - 1.0)[..., None, None] * p


def _forward(v: np.ndarray) -> tuple:
    """Eve acts on the way to Alice only, with omega = |0>: (omega, V, U), stacked like V."""
    omega = np.broadcast_to(linalg.basis_state(2, 0), v.shape[:-2] + (2,))
    return omega, v, np.broadcast_to(np.eye(4, dtype=complex), v.shape)


def _returning(u: np.ndarray) -> tuple:
    """Eve acts on the way back only, with omega = |+>: (omega, V, U), stacked like U."""
    omega = np.broadcast_to(linalg.ket_plus(), u.shape[:-2] + (2,))
    return omega, np.broadcast_to(np.eye(4, dtype=complex), u.shape), u


_FIXED = {
    "identity": lambda: _forward(np.eye(4, dtype=complex)),
    "forward-cnot": lambda: _forward(_cnot()),
    "return-cz": lambda: _returning(_cz()),
}

FAMILIES = {
    "partial-forward-cnot": lambda theta: _forward(_involutory_power(_cnot(), theta / (np.pi / 2))),
    "partial-return-cz": lambda theta: _returning(_involutory_power(_cz(), theta / (np.pi / 2))),
}
"""Family name -> theta-builder of (omega, V, U), stacked for an array of thetas: 0 is no attack, pi/2 the full gate."""

NAMES = (*_FIXED, *FAMILIES)


def _check_thetas(thetas) -> np.ndarray:
    """thetas as a float array, checked against [0, pi/2]; the error names the first bad one."""
    thetas = np.asarray(thetas, dtype=float)
    bad = ~((0.0 <= thetas) & (thetas <= np.pi / 2 + 1e-12))  # NaN is bad too
    if bad.any():
        raise ValueError(f"theta {float(thetas[np.argmax(bad)])!r} outside [0, pi/2]")
    return thetas


def family_stack(name: str, thetas) -> tuple:
    """(omega, V, U) stacks of family `name` at each theta of a 1-d array, checked against [0, pi/2]."""
    return FAMILIES[name](_check_thetas(thetas))


def named_attack(name: str, theta: float | None = None) -> AttackModel:
    """Build an attack by name: one of NAMES.

    The fixed attacks (identity, forward-cnot, return-cz) take no theta;
    the FAMILIES take theta in [0, pi/2], embedded in the name
    ("partial-return-cz(0.3)") or passed separately, through family_stack.
    """
    m = _NAME_WITH_ARG.match(name.strip())
    if m:
        if theta is not None:
            raise ValueError("theta given both inline and as an argument")
        name, theta = m.group(1), m.group(2)
    if name in _FIXED:
        if theta is not None:
            raise ValueError(f"attack {name!r} takes no theta")
        return AttackModel(2, *_FIXED[name]())
    if name not in FAMILIES:
        raise ValueError(f"unknown attack name {name!r}; known: {list(NAMES)}")
    if theta is None:
        raise ValueError(f"attack {name!r} needs a theta parameter")
    try:
        theta = float(theta)
    except ValueError:
        raise ValueError(f"attack {name!r} needs a numeric theta, got {theta!r}") from None
    return AttackModel(2, *(x[0] for x in family_stack(name, [theta])))


def random_attack(d: int, seed) -> AttackModel:
    """Attack with independent Haar-random V and U and omega = |0>."""
    if not 1 <= d <= MAX_RANDOM_ANCILLA_DIM:
        raise ValueError(f"ancilla dimension {d} outside [1, {MAX_RANDOM_ANCILLA_DIM}]")
    rng = np.random.default_rng(seed)
    v = linalg.haar_unitary(2 * d, rng)
    u = linalg.haar_unitary(2 * d, rng)
    return AttackModel(d, linalg.basis_state(d, 0), v, u)

