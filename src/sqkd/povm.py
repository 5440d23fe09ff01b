"""POVMs on the ancilla space K and their construction from factors."""

from dataclasses import dataclass

import numpy as np

from . import linalg

COMPLETENESS_TOL = 1e-9
FACTOR_SINGULAR_TOL = 1e-12


class DegeneracyError(ValueError):
    """Raised when a factor set cannot be normalized into a POVM."""


@dataclass(frozen=True)
class Povm:
    """A finite POVM {E_e} on the ancilla: positive operators summing to 1_K.

    Each element acts on K only.  On the joint space it acts as
    1_H (x) E_e: the protocol code applies E_e to each qubit block of a
    joint vector.
    """

    elements: tuple

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        object.__setattr__(self, "elements", elems)
        self.validate()

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def outcome_count(self) -> int:
        return len(self.elements)

    def validate(self) -> None:
        if not self.elements:
            raise ValueError("a POVM needs at least one element")
        d = self.elements[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, e in enumerate(self.elements):
            if e.shape != (d, d):
                raise ValueError(f"POVM element {i} has shape {e.shape}, expected {(d, d)}")
            if not linalg.is_positive(e):
                raise ValueError(f"POVM element {i} is not positive within {linalg.TOL_POSITIVE}")
            total += e
        dev = float(np.max(np.abs(total - np.eye(d))))
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"POVM elements sum to identity only within {dev:.3e} (> {COMPLETENESS_TOL})")


def povm_from_factors(factors) -> Povm:
    """Build a POVM from arbitrary factor matrices A_e on K.

    With S = sum_e A_e^dag A_e, the elements E_e = S^{-1/2} A_e^dag A_e S^{-1/2}
    are positive and complete by construction.  S must be nonsingular
    (smallest eigenvalue > 1e-12), otherwise DegeneracyError is raised.
    """
    mats = [np.asarray(a, dtype=complex) for a in factors]
    if not mats:
        raise ValueError("need at least one factor")
    d = mats[0].shape[0]
    grams = [linalg.dagger(a) @ a for a in mats]
    s = np.zeros((d, d), dtype=complex)
    for g in grams:
        s += g
    eigvals, eigvecs = np.linalg.eigh(s)
    if eigvals[0] <= FACTOR_SINGULAR_TOL:
        raise DegeneracyError(f"factor normalizer is singular (min eigenvalue {eigvals[0]:.3e})")
    s_inv_sqrt = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ linalg.dagger(eigvecs)
    elements = []
    for g in grams:
        e = s_inv_sqrt @ g @ s_inv_sqrt
        elements.append((e + linalg.dagger(e)) / 2.0)
    return Povm(tuple(elements))


def basis_povm(dim: int, basis: str = "z") -> Povm:
    """Projective measurement onto a named ancilla basis.

    "z" is the computational basis; "x" is the discrete-Fourier basis,
    which for dim 2 is {|+>, |->}.
    """
    if basis == "z":
        vecs = [linalg.basis_state(dim, k) for k in range(dim)]
    elif basis == "x":
        omega = np.exp(2j * np.pi / dim)
        vecs = [
            np.array([omega ** (j * k) for j in range(dim)], dtype=complex) / np.sqrt(dim)
            for k in range(dim)
        ]
    else:
        raise ValueError(f"unknown basis {basis!r}; expected 'z' or 'x'")
    return Povm(tuple(linalg.projector(v) for v in vecs))


def random_povm(dim: int, outcomes: int, seed) -> Povm:
    """Random POVM from Ginibre factors."""
    rng = np.random.default_rng(seed)
    factors = [
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(outcomes)
    ]
    return povm_from_factors(factors)
