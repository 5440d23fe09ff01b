"""Dense complex linear algebra for small qubit-ancilla Hilbert spaces.

The joint space is H (x) K with H the qubit (dim 2) and K the ancilla
(dim d).  Index order is qubit-major throughout: the amplitude of
|q> (x) |k> sits at position q*d + k, so the |0> and |1> qubit blocks are
the contiguous halves of any joint vector or matrix.

The matrix functions act on the last two axes, so they also take stacks
of same-shape matrices; the checks then cover every matrix of the stack.
"""

import numpy as np

from .info import NEG_PROB_TOL

TOL_UNITARY = 1e-10
TOL_NORM = 1e-10
TOL_POSITIVE = 1e-10


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in the given dimension."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def ket_plus() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(np.asarray(m).conj(), -1, -2)


def operator_norm(m: np.ndarray):
    """Largest singular value, via the eigenvalues of m^dag m (one per matrix of a stack)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    norm = np.sqrt(np.maximum(np.linalg.eigvalsh(dagger(m) @ m)[..., -1], 0.0))
    return float(norm) if norm.ndim == 0 else norm


def ginibre(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """`count` complex Gaussian dim x dim matrices, shape (count, dim, dim).

    Each matrix takes its real and then its imaginary part from `rng`, so
    one call draws the same numbers as `count` successive draws of one.
    """
    g = rng.standard_normal((count, 2, dim, dim))
    return g[:, 0] + 1j * g[:, 1]


def haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from Ginibre matrices (one per matrix of a stack).

    QR factorization of g / sqrt(2), then the phases of R's diagonal are
    absorbed into Q; this correction makes the distribution exactly Haar
    rather than merely unitary.
    """
    q, r = np.linalg.qr(g / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed random unitary of the given dimension.

    `seed` is anything accepted by `numpy.random.default_rng` (an
    existing Generator is used as is).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return haar_from_ginibre(ginibre(np.random.default_rng(seed), 1, dim))[0]


def unitary_deviation(m: np.ndarray) -> float:
    """Max-entry deviation of m^dag m from the identity, over a whole stack."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(dagger(m) @ m - np.eye(m.shape[-1]))))


def check_unitary(m: np.ndarray, name: str = "matrix") -> None:
    dev = unitary_deviation(m)
    if not dev <= TOL_UNITARY:  # NaN fails too
        raise ValueError(f"{name} is not unitary: max deviation of M^dag M from 1 is {dev:.3e}")


def check_normalized(vec: np.ndarray, name: str = "state") -> None:
    """Unit norm of a vector, or of each vector (last axis) of a stack."""
    vec = np.asarray(vec, dtype=complex)
    dev = float(np.max(np.abs((vec.real ** 2 + vec.imag ** 2).sum(axis=-1) - 1.0)))
    if not dev <= TOL_NORM:  # NaN fails too
        raise ValueError(f"{name} is not normalized: squared norm deviates by {dev:.3e}")


def _flags(ok: np.ndarray):
    return bool(ok) if ok.ndim == 0 else ok


def is_hermitian(m: np.ndarray):
    """Hermitian within 1e-10; one flag per matrix of a stack."""
    m = np.asarray(m)
    return _flags(np.max(np.abs(m - dagger(m)), axis=(-2, -1)) <= TOL_POSITIVE)


def is_positive(m: np.ndarray):
    """Positive-semidefinite check: Hermitian with eigenvalues >= -1e-10;
    one flag per matrix of a stack."""
    m = np.asarray(m)
    hermitian = np.asarray(is_hermitian(m))
    # a matrix that is not Hermitian is never diagonalized
    lowest = np.linalg.eigvalsh(np.where(hermitian[..., None, None], m, 0.0))[..., 0]
    return _flags(hermitian & (lowest >= -TOL_POSITIVE))


def clamp_probability(x, name: str = "value"):
    """Clamp a numerically noisy probability, or an array of them, into [0, 1].

    Values within 1e-12 outside the interval are snapped to the boundary;
    anything further out, and NaN, raises, naming the value as `name`.
    A scalar comes back as a float.
    """
    p = np.asarray(x, dtype=float)
    if not (p.min() >= -NEG_PROB_TOL and p.max() <= 1.0 + NEG_PROB_TOL):  # NaN fails too
        bad = p[~((p >= -NEG_PROB_TOL) & (p <= 1.0 + NEG_PROB_TOL))]
        raise ValueError(f"{name} {float(bad[0])!r} is not a probability up to tolerance {NEG_PROB_TOL}")
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    return float(p) if p.ndim == 0 else p
