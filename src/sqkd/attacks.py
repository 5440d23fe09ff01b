"""Named attacks, parameterized attack families, and random attack sampling."""

import re
from dataclasses import dataclass

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


def _involutory_power(gate: np.ndarray, t: float) -> np.ndarray:
    """Fractional power G^t of a Hermitian unitary gate.

    G^t = exp(i pi t P) with P the projector onto G's -1 eigenspace,
    which interpolates smoothly from the identity (t=0) to G (t=1).
    """
    p = (np.eye(gate.shape[0]) - gate) / 2.0
    return np.eye(gate.shape[0], dtype=complex) + (np.exp(1j * np.pi * t) - 1.0) * p


def named_attack(name: str, theta: float | None = None) -> AttackModel:
    """Look up an attack fixture by name.

    Accepted names: identity, forward-cnot, return-cz,
    partial-forward-cnot(theta), partial-return-cz(theta).  The partial
    families take theta in [0, pi/2]; theta may be embedded in the name
    ("partial-return-cz(0.3)") or passed separately.
    """
    m = _NAME_WITH_ARG.match(name.strip())
    if m:
        if theta is not None:
            raise ValueError("theta given both inline and as an argument")
        name, theta = m.group(1), float(m.group(2))

    eye4 = np.eye(4, dtype=complex)
    e0 = linalg.basis_state(2, 0)
    if name == "identity":
        return AttackModel(2, e0, eye4, eye4)
    if name == "forward-cnot":
        return AttackModel(2, e0, _cnot(), eye4)
    if name == "return-cz":
        return AttackModel(2, linalg.ket_plus(), eye4, _cz())
    if name in ("partial-forward-cnot", "partial-return-cz"):
        if theta is None:
            raise ValueError(f"attack {name!r} needs a theta parameter")
        if not 0.0 <= theta <= np.pi / 2 + 1e-12:
            raise ValueError(f"theta {theta!r} outside [0, pi/2]")
        t = theta / (np.pi / 2)
        if name == "partial-forward-cnot":
            return AttackModel(2, e0, _involutory_power(_cnot(), t), eye4)
        return AttackModel(2, linalg.ket_plus(), eye4, _involutory_power(_cz(), t))
    raise ValueError(f"unknown attack name {name!r}")


def random_attack(d: int, seed) -> AttackModel:
    """Attack with independent Haar-random V and U and omega = |0>."""
    if not 1 <= d <= MAX_RANDOM_ANCILLA_DIM:
        raise ValueError(f"ancilla dimension {d} outside [1, {MAX_RANDOM_ANCILLA_DIM}]")
    rng = np.random.default_rng(seed)
    v = linalg.haar_unitary(2 * d, rng)
    u = linalg.haar_unitary(2 * d, rng)
    return AttackModel(d, linalg.basis_state(d, 0), v, u)


def hermitian_from_params(params: np.ndarray, n: int) -> np.ndarray:
    """Assemble an n x n Hermitian matrix from n*n real parameters:
    n diagonal entries followed by (re, im) pairs filling the upper
    triangle row-major."""
    params = np.asarray(params, dtype=float)
    if params.shape != (n * n,):
        raise ValueError(f"expected {n * n} parameters, got {params.shape}")
    h = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(h, params[:n])
    idx = n
    for i in range(n):
        for j in range(i + 1, n):
            h[i, j] = params[idx] + 1j * params[idx + 1]
            h[j, i] = params[idx] - 1j * params[idx + 1]
            idx += 2
    return h


def parameterized_attack(params, d: int) -> AttackModel:
    """Attack from a flat real vector: V = exp(i H_V), U = exp(i H_U).

    The vector has length 2*(2d)^2, one Hermitian generator per unitary;
    omega is fixed to |0> (V absorbs any ancilla preparation).
    """
    params = np.asarray(params, dtype=float)
    n = 2 * d
    if params.shape != (2 * n * n,):
        raise ValueError(f"expected {2 * n * n} parameters for d={d}, got shape {params.shape}")
    h_v = hermitian_from_params(params[: n * n], n)
    h_u = hermitian_from_params(params[n * n:], n)
    return AttackModel(d, linalg.basis_state(d, 0), linalg.exp_i_hermitian(h_v), linalg.exp_i_hermitian(h_u))


@dataclass(frozen=True)
class AttackFamily:
    """A smooth map from a bounded real parameter vector to attacks."""

    name: str
    param_count: int
    builder: object
    param_bounds: tuple

    def build(self, params) -> AttackModel:
        params = np.atleast_1d(np.asarray(params, dtype=float))
        if params.shape != (self.param_count,):
            raise ValueError(f"family {self.name} takes {self.param_count} parameters")
        for value, (lo, hi) in zip(params, self.param_bounds):
            if not lo <= value <= hi:
                raise ValueError(f"parameter {value!r} outside [{lo}, {hi}] for family {self.name}")
        return self.builder(*params)


FAMILIES = {
    "partial-forward-cnot": AttackFamily(
        name="partial-forward-cnot",
        param_count=1,
        builder=lambda theta: named_attack("partial-forward-cnot", theta),
        param_bounds=((0.0, np.pi / 2),),
    ),
    "partial-return-cz": AttackFamily(
        name="partial-return-cz",
        param_count=1,
        builder=lambda theta: named_attack("partial-return-cz", theta),
        param_bounds=((0.0, np.pi / 2),),
    ),
}
