"""Classical entropy and information functionals (all logs base 2)."""

import numpy as np

PROB_SUM_TOL = 1e-9
NEG_PROB_TOL = 1e-12
ZERO_PROB = 1e-15


def _clean_probabilities(p: np.ndarray, name: str) -> np.ndarray:
    """Clamp tiny negatives to 0 and enforce the probability preconditions."""
    p = np.asarray(p, dtype=float)
    if p.size and p.min() < -NEG_PROB_TOL:
        raise ValueError(f"{name} has a negative entry: {p.min():.3e}")
    p = np.where(p < ZERO_PROB, 0.0, p)
    total = float(p.sum())
    if not abs(total - 1.0) <= PROB_SUM_TOL:  # a NaN entry makes the total NaN and fails
        raise ValueError(f"{name} sums to {total!r}, expected 1 within {PROB_SUM_TOL}")
    return p


def _entropy_bits(p: np.ndarray) -> float:
    """-sum p log2 p over the entries of p that are at least 1e-15, unvalidated."""
    nz = p[p >= ZERO_PROB]
    return float(-(nz * np.log2(nz)).sum())


def shannon_entropy(p) -> float:
    """Shannon entropy -sum p log2 p in bits, with 0 log 0 = 0.

    Entries below 1e-15 are treated as exact zeros; entries below
    -1e-12 raise, anything in between is clamped to 0.
    """
    return _entropy_bits(_clean_probabilities(np.ravel(p), "probability vector"))


def validate_joint(table, name: str = "joint distribution") -> np.ndarray:
    """Validate and clean a joint probability table p(x, y).

    Entries in [-1e-12, 0) are clamped to 0; the total must be 1 within
    1e-9.  Returns the cleaned table as a float array.
    """
    t = np.asarray(table, dtype=float)
    if t.ndim != 2:
        raise ValueError(f"{name} must be a 2-D table, got shape {t.shape}")
    return _clean_probabilities(t, name)


def mutual_information(table) -> float:
    """Mutual information I(X:Y) = H(X) + H(Y) - H(X,Y) of a joint table.

    The cleaned table is divided by its own total (within 1e-9 of 1)
    first, so the three entropies come from one exact distribution.  The
    result is clamped to [0, inf); a value below -1e-12 indicates an
    invalid table and raises.
    """
    t = validate_joint(table)
    t = t / t.sum()
    # the marginals of a validated table are valid distributions already
    mi = _entropy_bits(t.sum(axis=1)) + _entropy_bits(t.sum(axis=0)) - _entropy_bits(t)
    if mi < -NEG_PROB_TOL:
        raise ValueError(f"mutual information came out significantly negative ({mi:.3e})")
    return max(mi, 0.0)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits; eigenvalues in [-1e-12, 0) are clamped."""
    eigs = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    return shannon_entropy(eigs)
