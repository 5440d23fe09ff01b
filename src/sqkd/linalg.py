"""Dense complex linear algebra for small qubit-ancilla Hilbert spaces.

The joint space is H (x) K with H the qubit (dim 2) and K the ancilla
(dim d).  Index order is qubit-major throughout: the amplitude of
|q> (x) |k> sits at position q*d + k, so the |0> and |1> qubit blocks are
the contiguous halves of any joint vector or matrix.
"""

import numpy as np

TOL_UNITARY = 1e-10
TOL_NORM = 1e-10
TOL_POSITIVE = 1e-10
EIG_CLAMP = 1e-12


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in the given dimension."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def ket_plus() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def ket_minus() -> np.ndarray:
    return np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-one projector |vec><vec| (vec need not be normalized)."""
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the qubit-major index convention.

    Works for two vectors or two square matrices; the first factor is
    the major (slow) index.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace_qubit(m: np.ndarray) -> np.ndarray:
    """Trace out the qubit from an operator on H (x) K.

    With the qubit-major layout the result is the sum of the two
    diagonal d x d blocks; the total trace is preserved.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] % 2 != 0:
        raise ValueError(f"dimension {m.shape[0]} is not 2*d; cannot trace out the qubit")
    d = m.shape[0] // 2
    return m[:d, :d] + m[d:, d:]


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value, via the eigenvalues of m^dag m."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    eigs = np.linalg.eigvalsh(dagger(m) @ m)
    return float(np.sqrt(max(eigs[-1], 0.0)))


def exp_i_hermitian(h: np.ndarray) -> np.ndarray:
    """The unitary exp(i h) of a Hermitian h, from its eigendecomposition."""
    w, q = np.linalg.eigh(h)
    return (q * np.exp(1j * w)) @ dagger(q)


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed random unitary of the given dimension.

    Ginibre matrix, QR factorization, then the phases of R's diagonal
    are absorbed into Q; this correction makes the distribution exactly
    Haar rather than merely unitary.  `seed` is anything accepted by
    `numpy.random.default_rng` (an existing Generator is used as is).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_state(dim: int, seed) -> np.ndarray:
    """Normalized random complex vector (Gaussian amplitudes)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, seed) -> np.ndarray:
    """Random density matrix G G^dag / tr, G a Ginibre matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def unitary_deviation(m: np.ndarray) -> float:
    """Max-entry deviation of m^dag m from the identity."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(dagger(m) @ m - np.eye(m.shape[0]))))


def check_unitary(m: np.ndarray, name: str = "matrix") -> None:
    dev = unitary_deviation(m)
    if not dev <= TOL_UNITARY:  # NaN fails too
        raise ValueError(f"{name} is not unitary: max deviation of M^dag M from 1 is {dev:.3e}")


def check_normalized(vec: np.ndarray, name: str = "state") -> None:
    dev = abs(float(np.real(np.vdot(vec, vec))) - 1.0)
    if not dev <= TOL_NORM:  # NaN fails too
        raise ValueError(f"{name} is not normalized: squared norm deviates by {dev:.3e}")


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - dagger(m))) <= TOL_POSITIVE)


def is_positive(m: np.ndarray) -> bool:
    """Positive-semidefinite check: Hermitian with eigenvalues >= -1e-10."""
    if not is_hermitian(m):
        return False
    return bool(np.linalg.eigvalsh(m)[0] >= -TOL_POSITIVE)


def clamp_probability(x: float) -> float:
    """Clamp a numerically noisy probability into [0, 1].

    Values within 1e-12 outside the interval are snapped to the boundary;
    anything further out, and NaN, raises.
    """
    if not -EIG_CLAMP <= x <= 1.0 + EIG_CLAMP:
        raise ValueError(f"value {x!r} is not a probability up to tolerance {EIG_CLAMP}")
    return min(max(x, 0.0), 1.0)
