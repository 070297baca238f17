"""Iteration-complexity predictors and the constants they are built from:
block smoothness scalars, expected embedded inverses, and the per-class
K(epsilon) formulas for each selection rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import (
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationTooLargeError,
    check_symmetric,
    chunk_rows,
    eig_extremes,
    gather_blocks,
    subset_count,
    subset_index_chunks,
)


#: Working memory of one chunk in `expected_inverse_matrix`: the stacked
#: tau x tau blocks, their inverses, and the row and column indices that
#: scatter them back (four arrays of 8-byte entries per subset).
INVERSE_CHUNK_BYTES = 4 * 2**20

#: Past the enumeration budget `expected_inverse_matrix` averages this many
#: sets drawn from `default_rng(INVERSE_MC_SEED)`.
INVERSE_MC_SAMPLES = 20_000
INVERSE_MC_SEED = 0

#: Stacked tau x tau blocks per `eigvalsh` call in `L_tau`.
EIGVALSH_CHUNK_BYTES = 2**20


class NoGuaranteeError(ValueError):
    """The requested rule/class pair carries no published complexity bound."""


class NoParameterError(ValueError):
    pass


@dataclass
class FunctionClass:
    kind: str  # strongly_pl | weakly_pl | gradient_dominated | general_nonconvex
    mu: Optional[float] = None
    rho: Optional[float] = None
    c: Optional[float] = None
    p: Optional[float] = None

    def __post_init__(self):
        if self.kind == "strongly_pl" and (self.mu is None or self.mu <= 0):
            raise NoParameterError("strongly_pl needs mu > 0")
        if self.kind == "weakly_pl" and (self.rho is None or self.rho <= 0):
            raise NoParameterError("weakly_pl needs rho > 0")
        if self.kind == "gradient_dominated" and (
            self.c is None or self.c <= 0 or self.p is None or self.p <= 0
        ):
            raise NoParameterError("gradient_dominated needs modulus c, p > 0")
        if self.kind not in (
            "strongly_pl", "weakly_pl", "gradient_dominated", "general_nonconvex"
        ):
            raise ValueError(f"unknown function class {self.kind!r}")


@dataclass
class RateBound:
    rule_name: str
    class_kind: str
    K: Callable[[float], int]
    constant: float  # the rule's proportion-function lower bound
    provenance: dict = field(default_factory=dict)


def L_tau_is_exact(n: int, tau: int,
                   budget: int = DEFAULT_ENUMERATION_BUDGET) -> bool:
    """Whether `L_tau` of an n x n matrix is the exact maximum (True) or the
    trace upper bound it falls back to (False)."""
    return tau in (1, n) or subset_count(n, tau) <= budget


def L_tau(M: np.ndarray, tau: int,
          budget: int = DEFAULT_ENUMERATION_BUDGET) -> float:
    """Largest eigenvalue over all cardinality-tau principal submatrices.

    The submatrices are gathered and their eigenvalues computed a chunk at a
    time (EIGVALSH_CHUNK_BYTES).  Falls back to the trace upper bound (sum of
    the tau largest diagonal entries) with a warning when enumeration is
    infeasible.  Callers with an objective read it through
    `Objective.block_smoothness`, which caches it.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if not 1 <= tau <= n:
        raise ValueError(f"need 1 <= tau <= n, got tau={tau}")
    if tau == 1:
        return float(np.diag(M).max())
    if tau == n:
        return eig_extremes(M)[1]
    if L_tau_is_exact(n, tau, budget):
        check_symmetric(M)
        rows = chunk_rows(tau, EIGVALSH_CHUNK_BYTES)
        return float(max(
            np.linalg.eigvalsh(gather_blocks(M, chunk))[:, -1].max()
            for chunk in subset_index_chunks(n, tau, budget, rows)
        ))
    bound = float(np.sort(np.diag(M))[-tau:].sum())
    warnings.warn(
        f"C({n},{tau}) exceeds the enumeration budget; using the trace "
        f"upper bound {bound} for L_tau"
    )
    return bound


def rule_L(problem, rule):
    """The scalar L of the prox steps under `rule` with its provenance: L_tau
    at the rule's largest block size (`BlockSmoothness`, cached on the
    objective), or (None, None) on the matrix-curvature smooth path."""
    if problem.smooth_path:
        return None, None
    return problem.objective.block_smoothness(rule.max_block_size, rule.budget)


def _accumulate_inverses(out: np.ndarray, M: np.ndarray, subsets: np.ndarray) -> None:
    """out[S, S] += inv(M[S, S]) for each row S of `subsets`, in row order
    (np.add.at adds repeated entries in index order)."""
    inv = np.linalg.inv(gather_blocks(M, subsets))
    rows = np.broadcast_to(subsets[:, :, None], inv.shape).ravel()
    cols = np.broadcast_to(subsets[:, None, :], inv.shape).ravel()
    np.add.at(out, (rows, cols), inv.ravel())


def expected_inverse_matrix(M: np.ndarray, tau: int,
                            budget: int = DEFAULT_ENUMERATION_BUDGET) -> np.ndarray:
    """Average over all cardinality-tau sets S of the inverse block of M
    embedded back at the rows/columns of S.

    Blocks are inverted a chunk at a time (INVERSE_CHUNK_BYTES) and summed
    in enumeration (or draw) order.  Callers with an objective read it
    through `Objective.expected_inverse`, which caches it.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    out = np.zeros_like(M)
    chunk = chunk_rows(tau, INVERSE_CHUNK_BYTES, 4)
    try:
        chunks = subset_index_chunks(n, tau, budget, chunk)
    except EnumerationTooLargeError:
        warnings.warn(
            f"C({n},{tau}) exceeds the enumeration budget; Monte-Carlo "
            f"estimate over {INVERSE_MC_SAMPLES} samples"
        )
        rng = np.random.default_rng(INVERSE_MC_SEED)
        done = 0
        while done < INVERSE_MC_SAMPLES:
            size = min(chunk, INVERSE_MC_SAMPLES - done)
            # the tau smallest of n iid uniforms index a uniform tau-subset
            _accumulate_inverses(out, M, np.sort(
                rng.random((size, n)).argpartition(tau - 1, axis=1)[:, :tau], axis=1))
            done += size
        return out / INVERSE_MC_SAMPLES
    for block in chunks:
        _accumulate_inverses(out, M, block)
    return out / subset_count(n, tau)


def eso_v(A: np.ndarray, tau: int) -> np.ndarray:
    """Per-coordinate curvature bounds from the factorization M = A'A.

    v_i = sum_j [1 + (nnz(A_j:) - 1)(tau - 1)/(n - 1)] A_ji^2; the derived
    bound lambda_min(E[M_[S]^-1]) >= 1/(n max_i v_i) is cheap to evaluate.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if n < 2:
        raise ValueError("the ESO vector is undefined for n = 1")
    if not 1 <= tau <= n:
        raise ValueError(f"need 1 <= tau <= n, got tau={tau}")
    row_nnz = (A != 0).sum(axis=1)
    weights = 1.0 + (row_nnz - 1) * (tau - 1) / (n - 1)
    return (weights[:, None] * A * A).sum(axis=0)


def rule_constant(rule, problem):
    """The published lower bound on (the expectation of) the proportion
    function for a selection rule, with provenance.  Enumerated constants
    read the rule's own budget, as its steps do (`rule_L`)."""
    M = problem.objective.smoothness
    n = M.shape[0]
    smooth = problem.smooth_path
    kind = rule.kind
    if kind == "cyclic_coord":
        raise NoGuaranteeError("cyclic selection carries no complexity bound")
    if kind == "full_batch":
        lam_max = eig_extremes(M)[1]
        return 1.0 / lam_max, {"lambda_max(M)": lam_max}
    if kind in ("uniform_coord",) or (not smooth and kind == "greedy_coord"):
        top = float(np.diag(M).max())
        return 1.0 / (n * top), {"n*max_diag(M)": n * top}
    if kind in ("importance_coord", "greedy_coord"):
        if not smooth:
            raise NoGuaranteeError(
                "no nonsmooth bound published for importance sampling")
        trace = float(np.diag(M).sum())
        return 1.0 / trace, {"trace(M)": trace}
    # minibatch kinds
    if smooth:
        E = problem.objective.expected_inverse(rule.tau, rule.budget)
        lam_min = eig_extremes(E)[0]
        return lam_min, {"lambda_min(E[inv])": lam_min}
    lt = problem.objective.block_smoothness(rule.tau, rule.budget).value
    return rule.tau / (n * lt), {"L_tau": lt, "n*L_tau/tau": n * lt / rule.tau}


def predict_K(rule, fclass: FunctionClass, problem, epsilon: float,
              xi0: float) -> RateBound:
    """K(epsilon) guaranteeing the target gap for a (rule, class) pair."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # refuse before computing the rule's constant, which may be costly
    if fclass.kind == "gradient_dominated" and rule.kind != "full_batch":
        raise NoGuaranteeError(
            "gradient-dominated bounds are published for batch descent only")
    c, provenance = rule_constant(rule, problem)

    if fclass.kind == "strongly_pl":
        def K(eps):
            if eps >= xi0:
                return 0
            return math.ceil(math.log(xi0 / eps) / (c * fclass.mu))
    elif fclass.kind == "weakly_pl":
        def K(eps):
            if eps >= xi0:
                return 0
            return math.ceil(1.0 / (fclass.rho * c * eps))
    elif fclass.kind == "general_nonconvex":
        def K(eps):
            if eps >= xi0:
                return 0
            return math.ceil((xi0 / (c * eps)) * math.log(xi0 / eps))
    else:  # gradient_dominated: only the batch-descent bound is published
        L = eig_extremes(problem.objective.smoothness)[1]

        def K(eps):
            return gradient_dominated_K(fclass.c, fclass.p, L, xi0, eps)

    return RateBound(rule_name=rule.name, class_kind=fclass.kind, K=K,
                     constant=c, provenance=provenance)


def general_nonconvex_epsilon(xi0: float, c: float, ks) -> list:
    """epsilon(k) = xi0 W(ck) / (ck), the bound on min(xi, min lambda) after
    k steps: the exact inverse of the general_nonconvex K of `predict_K`,
    since u = xi0/epsilon solves u log u = ck (W: Lambert's W, principal
    branch).  xi0 where k < 1 or xi0 <= 0."""
    # deferred like scipy.sparse in `block_inverse_forms`: the import costs
    # tens of milliseconds and a few MB, and only the 1-D series reads it
    from scipy.special import lambertw

    ks = np.asarray(ks, dtype=float)
    out = np.full(ks.shape, float(xi0))
    live = (ks >= 1) & (xi0 > 0)
    ck = c * ks[live]
    out[live] = xi0 * lambertw(ck).real / ck
    return out.tolist()


def strongly_convex_mu(problem, L: float) -> float:
    """Forcing-function lower bound for strongly convex composites:
    min{L/2, L lambda_F / (lambda_F - lambda_f + L)}."""
    lam_f = problem.objective.strong_convexity_f
    lam_F = lam_f + problem.regularizer.strong_convexity_F
    if lam_F <= 0:
        raise NoParameterError("strong convexity parameter of F not declared")
    return min(L / 2.0, L * lam_F / (lam_F - lam_f + L))


def level_set_radius(problem, x0: np.ndarray, x_star: Optional[np.ndarray] = None,
                     n_dirs: int = 10_000, seed: int = 0,
                     t_cap: float = 1e8) -> float:
    """Sampled estimate of max ||x - x*|| over the F-level set of x0: the
    largest radius found by bisection along seeded random directions,
    inflated by 10 percent.  Not a bound: the sampled directions can miss
    the far ones, more so as the dimension grows (with 500 directions, 0.75
    of the true radius on a 10-dimensional quadratic of condition 10)."""
    if x_star is None:
        x_star = problem.objective.known_minimizer
    if x_star is None:
        raise NoParameterError("level-set radius needs a minimizer")
    x_star = np.asarray(x_star, dtype=float)
    level = problem.F(np.asarray(x0, dtype=float))
    rng = np.random.default_rng(seed)
    n = problem.dim
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        t = 1.0
        while problem.F(x_star + t * d) <= level:
            t *= 2.0
            if t > t_cap:
                raise NoParameterError("level set appears unbounded")
        lo, hi = t / 2.0, t
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if problem.F(x_star + mid * d) <= level:
                lo = mid
            else:
                hi = mid
        worst = max(worst, lo)
    return 1.1 * worst


def quadratic_level_radius(M: np.ndarray, xi0: float) -> float:
    """Exact level-set radius for xi = (x-x*)'M(x-x*)/2 <= xi0."""
    lam_min = eig_extremes(M)[0]
    return math.sqrt(2.0 * xi0 / lam_min)


def weakly_convex_rho(problem, x0: np.ndarray, L: float,
                      R: Optional[float] = None, **radius_kwargs) -> float:
    """rho(x0) = min{L/(2 xi(x0)), 1/(2 R^2)} for convex composites.

    Without R, a lambda_F-strongly convex F (lambda_F > 0) takes the
    certified level-set radius sqrt(2 xi0 / lambda_F), from
    F - F* >= lambda_F ||x - x*||^2 / 2; otherwise the sampled
    `level_set_radius` estimate.
    """
    xi0 = problem.xi(np.asarray(x0, dtype=float))
    if xi0 <= 0:
        raise NoParameterError("initial point is already optimal")
    if R is None:
        lam_F = (problem.objective.strong_convexity_f
                 + problem.regularizer.strong_convexity_F)
        R = (math.sqrt(2.0 * xi0 / lam_F) if lam_F > 0
             else level_set_radius(problem, x0, **radius_kwargs))
    return min(L / (2.0 * xi0), 1.0 / (2.0 * R * R))


def gradient_dominated_K(c: float, p: float, L: float, xi0: float,
                         epsilon: float) -> int:
    """Smallest k with k >= (2 L xi0 / eps) log(xi0 / phi(eps)) for the
    modulus phi(t) = c t^p; guarantees min over the first k gaps <= phi(eps)."""
    if epsilon <= 0 or xi0 < 0:
        raise ValueError("epsilon must be positive and xi0 nonnegative")
    phi = c * epsilon ** p
    if phi >= xi0:
        return 0
    return math.ceil(2.0 * L * xi0 / epsilon * math.log(xi0 / phi))
