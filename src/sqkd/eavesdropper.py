"""Optimization of Eve's POVM and entropy reference bounds.

The accessible-information search is a derivative-free simplex descent
over POVM factor parameters, restarted from the ancilla computational
basis (restart 0) and from seeded random factor sets.  Whatever it
returns is a valid POVM, so the achieved information is always a lower
bound on the true accessible information.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .info import mutual_information, shannon_entropy, von_neumann_entropy
from .povm import FACTOR_SINGULAR_TOL, Povm, povm_from_factors
from .protocol import AttackModel, _evaluate, _joint_table


@dataclass
class OptimizerConfig:
    """Knobs for the POVM search.

    outcome_count defaults to d^2 (enough outcomes for the accessible
    information of an ensemble in dimension d).  A restart is stopped
    early once stall_evals objective evaluations pass without improving
    the restart's best value by more than fatol.
    """

    outcome_count: int | None = None
    restarts: int = 32
    max_iterations: int = 2000
    xatol: float = 1e-6
    fatol: float = 1e-10
    stall_evals: int = 400
    seed: int = 0

    def validate(self) -> None:
        if self.outcome_count is not None and self.outcome_count < 2:
            raise ValueError(f"outcome_count must be >= 2, got {self.outcome_count}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass
class AccessibleInfoResult:
    info: float
    povm: Povm
    converged: bool
    restart_values: list = field(default_factory=list)


class _Stagnation(Exception):
    """Internal signal that a restart stopped improving."""


def _factors_from_vector(x: np.ndarray, d: int, m: int) -> list:
    block = 2 * d * d
    factors = []
    for e in range(m):
        chunk = x[e * block:(e + 1) * block]
        factors.append((chunk[: d * d] + 1j * chunk[d * d:]).reshape(d, d))
    return factors


def _basis_start(d: int, m: int) -> np.ndarray:
    """Factor vector whose POVM is the ancilla computational-basis PVM
    (outcomes beyond d are zero elements)."""
    x = np.zeros(m * 2 * d * d)
    for e in range(min(d, m)):
        x[e * 2 * d * d + e * d + e] = 1.0
    return x


def _entropy_bits(v: np.ndarray) -> float:
    nz = v[v > 1e-15]
    return float(-(nz * np.log2(nz)).sum())


def _fast_mutual_information(table: np.ndarray) -> float:
    return _entropy_bits(table.sum(axis=1)) + _entropy_bits(table.sum(axis=0)) - _entropy_bits(table.ravel())


def accessible_information(attack: AttackModel, cfg: OptimizerConfig | None = None) -> AccessibleInfoResult:
    """Best I(A:E) found over POVMs on the ancilla, with the POVM achieving it.

    Nelder-Mead over factor parameters, `cfg.restarts` independent
    restarts (restart 0 starts at the computational-basis PVM), ties
    broken by lower restart index.  Non-convergence is reported through
    the `converged` flag, never raised.
    """
    cfg = cfg or OptimizerConfig()
    cfg.validate()
    ev = _evaluate(attack)
    d = attack.ancilla_dim
    m = cfg.outcome_count or max(2, d * d)
    block = 2 * d * d

    # weighted conditional states: tr(w_z E_e) = p_a(z) tr(rho_z E_e)
    weighted_t = np.stack([(ev.sift.p_a[z] * ev.sift.rho_eve[z]).T for z in (0, 1)])

    def negated_info(x: np.ndarray) -> float:
        factors = np.stack(_factors_from_vector(x, d, m))
        grams = factors.conj().transpose(0, 2, 1) @ factors
        eigvals, eigvecs = np.linalg.eigh(grams.sum(axis=0))
        if eigvals[0] <= FACTOR_SINGULAR_TOL:
            return 0.0  # degenerate factor set: worst possible value
        s_inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.conj().T
        elements = s_inv_sqrt @ grams @ s_inv_sqrt
        table = np.einsum("zij,eij->ze", weighted_t, elements).real
        np.clip(table, 0.0, None, out=table)
        return -_fast_mutual_information(table)

    def run_restart(x0: np.ndarray) -> tuple[np.ndarray, float, bool]:
        state = {"x": x0.copy(), "f": negated_info(x0), "stall": 0}

        def tracked(x):
            f = negated_info(x)
            if f < state["f"] - cfg.fatol:
                state["x"], state["f"], state["stall"] = x.copy(), f, 0
            else:
                state["stall"] += 1
                if state["stall"] >= cfg.stall_evals:
                    raise _Stagnation
            return f

        try:
            res = minimize(
                tracked,
                x0,
                method="Nelder-Mead",
                options={
                    "maxiter": cfg.max_iterations,
                    "xatol": cfg.xatol,
                    "fatol": cfg.fatol,
                    "adaptive": True,
                },
            )
            converged = bool(res.success)
        except _Stagnation:
            converged = True  # stopped by the stagnation criterion
        if state["f"] == 0.0:
            # never saw a nondegenerate POVM along the way; fall back to
            # the basis PVM, which is always valid
            return _basis_start(d, m), 0.0, converged
        return state["x"], state["f"], converged

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    starts = [_basis_start(d, m)]
    for child in seeds[1:]:
        rng = np.random.default_rng(child)
        starts.append(rng.standard_normal(m * block))

    best_x, best_value, best_success = None, np.inf, False
    restart_values = []
    for x0 in starts:
        x, value, converged = run_restart(x0)
        restart_values.append(-value)
        if value < best_value:
            best_x, best_value, best_success = x, value, converged

    best_povm = povm_from_factors(_factors_from_vector(best_x, d, m))
    # the reported value always comes from the full dual-route evaluation
    achieved = mutual_information(_joint_table(ev, best_povm))
    return AccessibleInfoResult(
        info=achieved,
        povm=best_povm,
        converged=best_success,
        restart_values=restart_values,
    )


def holevo_bound(rho0: np.ndarray, rho1: np.ndarray, p) -> float:
    """Holevo quantity chi = S(p0 rho0 + p1 rho1) - p0 S(rho0) - p1 S(rho1).

    A state whose weight is below 1e-12 contributes nothing (its flagged
    zero operator from a degenerate branch is never diagonalized).
    """
    p = np.asarray(p, dtype=float)
    shannon_entropy(p)  # validates p as a probability pair
    states = [np.asarray(rho0, dtype=complex), np.asarray(rho1, dtype=complex)]
    avg = p[0] * states[0] + p[1] * states[1]
    chi = von_neumann_entropy(avg)
    for weight, rho in zip(p, states):
        if weight > 1e-12:
            chi -= weight * von_neumann_entropy(rho)
    return max(chi, 0.0)
