"""POVMs on the ancilla space K and their construction from factors.

A POVM's elements are one (m, d, d) array.  The construction and the
checks also take stacks of same-shape factor sets, (N, m, d, d), so a
suite builds and validates all its POVMs of one shape in one call.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg

COMPLETENESS_TOL = 1e-9
FACTOR_SINGULAR_TOL = 1e-12


class DegeneracyError(ValueError):
    """Raised when a factor set cannot be normalized into a POVM."""


def check_elements(elements: np.ndarray) -> None:
    """Positivity of every element and completeness, for elements shaped
    (m, d, d) or a stack of them (N, m, d, d); messages name the element."""
    d = elements.shape[-1]
    bad = ~np.asarray(linalg.is_positive(elements)).reshape(-1, elements.shape[-3])
    if bad.any():
        i = int(np.nonzero(bad.any(axis=0))[0][0])
        raise ValueError(f"POVM element {i} is not positive within {linalg.TOL_POSITIVE}")
    dev = float(np.max(np.abs(elements.sum(axis=-3) - np.eye(d))))
    if not dev <= COMPLETENESS_TOL:  # NaN fails too
        raise ValueError(f"POVM elements sum to identity only within {dev:.3e} (> {COMPLETENESS_TOL})")


@dataclass(frozen=True)
class Povm:
    """A finite POVM {E_e} on the ancilla: positive operators summing to 1_K.

    `elements` is one (m, d, d) complex array.  Each element acts on K
    only; on the joint space it acts as 1_H (x) E_e, which the protocol
    code applies to each qubit block of a joint vector.
    """

    elements: np.ndarray

    def __post_init__(self):
        elems = self.elements
        if not isinstance(elems, np.ndarray):
            elems = [np.asarray(e, dtype=complex) for e in elems]
            for i, e in enumerate(elems):
                if e.shape != elems[0].shape:
                    raise ValueError(f"POVM element {i} has shape {e.shape}, expected {elems[0].shape}")
        object.__setattr__(self, "elements", np.asarray(elems, dtype=complex))
        self.validate()

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    @property
    def outcome_count(self) -> int:
        return len(self.elements)

    def validate(self) -> None:
        e = self.elements
        if e.size == 0:
            raise ValueError("a POVM needs at least one element")
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise ValueError(f"POVM elements have shape {e.shape}, expected (m, d, d)")
        check_elements(e)


def elements_from_factors(factors: np.ndarray) -> np.ndarray:
    """POVM elements from factor matrices A_e shaped (m, d, d), or a stack
    of factor sets (N, m, d, d); see povm_from_factors.

    The factors stacked into one (m d, d) matrix A = W Sigma Vh give the
    polar isometry B = W Vh = A S^{-1/2}, so E_e = B_e^dag B_e.  B is
    orthonormal to rounding however ill-conditioned S is, so the elements
    are complete to rounding too.
    """
    *stack, m, d, _ = factors.shape
    w, sigma, vh = np.linalg.svd(factors.reshape(*stack, m * d, d), full_matrices=False)
    lowest = float(np.min(sigma[..., -1])) ** 2
    if not lowest > FACTOR_SINGULAR_TOL:
        raise DegeneracyError(f"factor normalizer is singular (min eigenvalue {lowest:.3e})")
    b = (w @ vh).reshape(*stack, m, d, d)
    e = linalg.dagger(b) @ b
    return (e + linalg.dagger(e)) / 2.0


def povm_from_factors(factors) -> Povm:
    """Build a POVM from arbitrary factor matrices A_e on K.

    With S = sum_e A_e^dag A_e, the elements E_e = S^{-1/2} A_e^dag A_e S^{-1/2}
    are positive and complete by construction.  S must be nonsingular
    (smallest eigenvalue > 1e-12), otherwise DegeneracyError is raised.
    """
    mats = np.asarray(factors, dtype=complex)
    if len(mats) == 0:
        raise ValueError("need at least one factor")
    return Povm(elements_from_factors(mats))


def basis_povm(dim: int, basis: str = "z") -> Povm:
    """Projective measurement onto a named ancilla basis.

    "z" is the computational basis; "x" is the discrete-Fourier basis,
    which for dim 2 is {|+>, |->}.
    """
    if basis == "z":
        columns = np.eye(dim, dtype=complex)
    elif basis == "x":
        omega = np.exp(2j * np.pi / dim)
        columns = np.array([[omega ** (j * k) for k in range(dim)] for j in range(dim)], dtype=complex) / np.sqrt(dim)
    else:
        raise ValueError(f"unknown basis {basis!r}; expected 'z' or 'x'")
    return Povm(rank_one_elements(columns))


def rank_one_elements(columns: np.ndarray) -> np.ndarray:
    """Elements E_e = v_e v_e^dag (m, d, d) of the columns v_e of a (d, m)
    matrix, or of each matrix of a stack (N, d, m)."""
    v = np.swapaxes(columns, -1, -2)
    return v[..., :, None] * v.conj()[..., None, :]


def random_povm(dim: int, outcomes: int, seed) -> Povm:
    """Random POVM from Ginibre factors."""
    return povm_from_factors(linalg.ginibre(np.random.default_rng(seed), outcomes, dim))
