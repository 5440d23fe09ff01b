"""Classical entropy and information functionals (all logs base 2); the table
functions take one joint table (X, Y) or a stack of them (N, X, Y)."""

import numpy as np

PROB_SUM_TOL = 1e-9
NEG_PROB_TOL = 1e-12
ZERO_PROB = 1e-15


def _clean_probabilities(p: np.ndarray, name: str, axis=None, sum_tol=PROB_SUM_TOL) -> np.ndarray:
    """Clamp tiny negatives to 0 and check that each total over `axis` is 1
    within sum_tol (PROB_SUM_TOL unless a caller widens it by a known input error)."""
    p = np.asarray(p, dtype=float)
    if p.size and p.min() < -NEG_PROB_TOL:
        raise ValueError(f"{name} has a negative entry: {p.min():.3e}")
    p = np.where(p < ZERO_PROB, 0.0, p)
    total = np.asarray(p.sum(axis=axis))
    bad = ~(np.abs(total - 1.0) <= sum_tol)  # a NaN entry makes its total NaN and fails
    if bad.any():
        tol = float(np.broadcast_to(sum_tol, bad.shape)[bad][0])
        raise ValueError(f"{name} sums to {float(total[bad][0])!r}, expected 1 within {tol:.6g}")
    return p


def _entropy_bits(p: np.ndarray, axis=None):
    """-sum p log2 p over `axis`, entries below 1e-15 counting as 0; unvalidated."""
    q = np.where(p >= ZERO_PROB, p, 1.0)  # 1 log 1 = 0 stands in for 0 log 0
    return -(q * np.log2(q)).sum(axis=axis)


def validate_joint(table, sum_tol=PROB_SUM_TOL) -> np.ndarray:
    """Validate and clean a joint probability table p(x, y) or a stack of them.

    Entries in [-1e-12, 0) are clamped to 0; the total of each table
    must be 1 within 1e-9 (or within sum_tol, per table of a stack).
    Returns the cleaned tables as a float array.
    """
    t = np.asarray(table, dtype=float)
    if t.ndim not in (2, 3):
        raise ValueError(f"joint distribution must be a 2-D table or a stack of them, got shape {t.shape}")
    return _clean_probabilities(t, "joint distribution", (-2, -1), sum_tol)


def mutual_information(table):
    """Mutual information I(X:Y) = H(X) + H(Y) - H(X,Y) of a joint table.

    A float for one table, an array for a stack.  The cleaned table is
    divided by its own total (within 1e-9 of 1) first, so the three
    entropies come from one exact distribution.  The result is clamped to
    [0, inf); a value below -1e-12 indicates an invalid table and raises.
    """
    mi = _mutual_information(validate_joint(table))
    return float(mi) if mi.ndim == 0 else mi


def _mutual_information(t: np.ndarray) -> np.ndarray:
    """mutual_information of tables that validate_joint has already cleaned, as an array."""
    t = t / t.sum(axis=(-2, -1), keepdims=True)
    # the marginals of a validated table are valid distributions already
    mi = _entropy_bits(t.sum(axis=-1), -1) + _entropy_bits(t.sum(axis=-2), -1) - _entropy_bits(t, (-2, -1))
    if np.any(mi < -NEG_PROB_TOL):
        raise ValueError(f"mutual information came out significantly negative ({np.min(mi):.3e})")
    return np.maximum(mi, 0.0)

