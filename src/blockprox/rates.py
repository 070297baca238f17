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


#: Past the enumeration budget `expected_inverse_matrix` averages this many
#: sets drawn from `default_rng(INVERSE_MC_SEED)`.
INVERSE_MC_SAMPLES = 20_000
INVERSE_MC_SEED = 0


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
    time (the blocks within SUBSET_CHUNK_BYTES).  Falls back to the trace
    upper bound (sum of the tau largest diagonal entries) with a warning
    when enumeration is infeasible.  Callers with an objective read it through
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
        return float(max(
            np.linalg.eigvalsh(gather_blocks(M, chunk))[:, -1].max()
            for chunk in subset_index_chunks(n, tau, budget, chunk_rows(tau))
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

    Blocks are inverted a chunk at a time (the blocks, their inverses and
    their row and column indices, and for drawn sets each draw's n uniforms
    and their argpartition indices, within SUBSET_CHUNK_BYTES) and summed in
    enumeration (or draw) order, so the result does not depend on the chunk
    size: each block is inverted on its own, and the Monte-Carlo sets are
    consecutive rows of one random stream.  Callers with an objective read it
    through `Objective.expected_inverse`, which caches it.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    out = np.zeros_like(M)
    try:
        chunks = subset_index_chunks(n, tau, budget, chunk_rows(tau, 4))
    except EnumerationTooLargeError:
        warnings.warn(
            f"C({n},{tau}) exceeds the enumeration budget; Monte-Carlo "
            f"estimate over {INVERSE_MC_SAMPLES} samples"
        )
        rng = np.random.default_rng(INVERSE_MC_SEED)
        chunk = chunk_rows(tau, 4, extra=2 * n)
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
        lam_max = problem.objective.lambda_max
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
    if not epsilon > 0:
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
        L = problem.objective.lambda_max

        def K(eps):
            return gradient_dominated_K(fclass.c, fclass.p, L, xi0, eps)

    return RateBound(K=K, constant=c, provenance=provenance)


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


def weakly_convex_rho(problem, x0: np.ndarray, L: float,
                      R: Optional[float] = None) -> float:
    """rho(x0) = min{L/(2 xi(x0)), 1/(2 R^2)} for convex composites, with R
    a radius of the level set {F <= F(x0)} about the minimizer.

    Without R, a lambda_F-strongly convex F (lambda_F > 0) takes the
    certified radius sqrt(2 xi0 / lambda_F), from
    F - F* >= lambda_F ||x - x*||^2 / 2.  With neither, no certified radius
    exists and NoParameterError is raised.
    """
    xi0 = problem.xi(np.asarray(x0, dtype=float))
    if xi0 <= 0:
        raise NoParameterError("initial point is already optimal")
    if R is None:
        lam_F = (problem.objective.strong_convexity_f
                 + problem.regularizer.strong_convexity_F)
        if not lam_F > 0:
            raise NoParameterError(
                "level-set radius needs lambda_F > 0 or a given R")
        R = math.sqrt(2.0 * xi0 / lam_F)
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
