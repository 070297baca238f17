"""Iteration-complexity predictors and the constants they are built from:
block smoothness scalars, the expected embedded inverse (the mean of the
greedy-minibatch forms), each selection rule's function classes, and the
per-class K(epsilon) formulas (a ValueError where float arithmetic leaves
K(epsilon) infinite).
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import (
    DEFAULT_ENUMERATION_BUDGET,
    BlockInverseForms,
    check_symmetric,
    chunk_rows,
    gather_blocks,
    subset_count,
    subset_index_chunks,
)


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


#: Blocks of largest Gershgorin bound per chunk that `L_tau` solves first,
#: to raise the running maximum the chunk's other blocks are pruned against.
_L_TAU_FIRST = 64


def L_tau(M: np.ndarray, tau: int,
          budget: int = DEFAULT_ENUMERATION_BUDGET) -> float:
    """Largest eigenvalue over all cardinality-tau principal submatrices.

    Within the budget the blocks are enumerated a chunk at a time (within
    SUBSET_CHUNK_BYTES), and `eigvalsh` runs only on those that can reach
    the maximum (`_largest_block_eigenvalue`), with the bits of running it
    on all of them.  Past the budget it falls back to the trace upper bound (sum of
    the tau largest diagonal entries) with a warning.  Callers with an objective
    read it through `Objective.block_smoothness`, cached with its provenance.
    """
    M = np.ascontiguousarray(M, dtype=float)
    n = M.shape[0]
    if not 1 <= tau <= n:
        raise ValueError(f"need 1 <= tau <= n, got tau={tau}")
    if tau == 1:
        return float(np.diag(M).max())
    if subset_count(n, tau) <= budget:
        check_symmetric(M)
        return _largest_block_eigenvalue(M, tau, budget)
    bound = float(np.sort(np.diag(M))[-tau:].sum())
    warnings.warn(f"C({n},{tau}) exceeds the enumeration budget; using the trace "
                  f"upper bound {bound} for L_tau")
    return bound


def _largest_block_eigenvalue(M: np.ndarray, tau: int, budget: int) -> float:
    """max over cardinality-tau sets S of eigvalsh(M[S, S])[-1], solving
    only the blocks that can reach it.

    A block's Gershgorin bound G_S = max_{i in S} sum_{j in S} |M_ij| is at
    least its largest eigenvalue and its norm ||M[S, S]||_2, and eigvalsh
    returns an eigenvalue within a few eps ||M[S, S]||_2 of the true one.
    So a block with G_S (1 + 1e-8) below an eigenvalue already computed
    cannot give the maximum, and skipping it leaves the result's bits as
    they are: eigvalsh solves each block of a stack on its own.  In each
    chunk the _L_TAU_FIRST blocks of largest bound are solved first, then
    every block whose bound the running maximum does not rule out.  M is
    finite (`L_tau` checks it).
    """
    magnitudes = np.abs(M)
    best = -math.inf

    def larger(best, blocks):
        return max(best, float(np.linalg.eigvalsh(gather_blocks(M, blocks))[:, -1].max()))

    for chunk in subset_index_chunks(M.shape[0], tau, budget, chunk_rows(tau, arrays=3)):
        # each block's Gershgorin bound, widened past eigvalsh's error
        bound = gather_blocks(magnitudes, chunk).sum(axis=2).max(axis=1) * (1.0 + 1e-8)
        first = np.arange(len(chunk))
        if len(chunk) > _L_TAU_FIRST:
            first = np.argpartition(bound, -_L_TAU_FIRST)[-_L_TAU_FIRST:]
        first = first[~(bound[first] < best)]
        if len(first):
            best = larger(best, chunk[first])
        rest = ~(bound < best)
        rest[first] = False
        if rest.any():
            best = larger(best, chunk[rest])
    return best


def rule_L(problem, rule):
    """The scalar L of the prox steps under `rule` with its provenance: L_tau
    at the rule's largest block size (`BlockSmoothness`, cached on the
    objective), or (None, None) on the matrix-curvature smooth path."""
    if problem.smooth_path:
        return None, None
    return problem.objective.block_smoothness(rule.max_block_size, rule.budget)


def expected_inverse_matrix(forms: BlockInverseForms) -> np.ndarray:
    """Average over all cardinality-tau sets S of the inverse block of M
    embedded back at the rows/columns of S, read off M's greedy-minibatch
    forms (`linalg.block_inverse_forms`), which hold each block's inverse:
    inv_aa at column S_a n + S_a and 2 inv_ab at S_a n + S_b, a < b.

    The weights' column sums, added in set order by one sparse product
    without a temporary as large as the table, are W (each off-diagonal
    pair in W's upper triangle), and E = (W + W') / (2 C(n, tau)) is
    exactly symmetric.  Callers with an objective read it through
    `Objective.expected_inverse`, which caches it beside the forms.
    """
    count, columns = forms.weights.shape
    W = forms.weights.sum(axis=0).reshape(math.isqrt(columns), -1)
    return (W + W.T) / (2 * count)


def rule_constant(rule, problem):
    """The published lower bound on (the expectation of) the proportion
    function for a selection rule, with provenance, from its row's shape and
    the problem's path.  The constants of M are the objective's, each
    computed once: lambda_max(M), and at the rule's own budget, as its steps
    read it (`rule_L`), L_tau and the smooth minibatch floor."""
    rule.refuse_off_path(problem, NoGuaranteeError,
                         "no nonsmooth bound published for {} sampling")
    objective = problem.objective
    diagonal, n = objective.diagonal, objective.dim
    smooth = problem.smooth_path
    row = rule.row
    if row.shape == "full":
        lam_max = objective.lambda_max
        return 1.0 / lam_max, {"lambda_max(M)": lam_max}
    if row.shape == "minibatch":
        tau = rule.tau
        if not smooth:
            lt = objective.block_smoothness(tau, rule.budget).value
            return tau / (n * lt), {"L_tau": lt, "n*L_tau/tau": n * lt / tau}
        if row.greedy and objective.expected_inverse(tau, rule.budget) is None:
            # past the budget `select` runs the forward-greedy heuristic: its
            # first pick maximises g_i^2 / M_ii >= ||g||^2 / trace(M), and
            # g_S' inv(M_S) g_S only grows with S
            trace = float(diagonal.sum())
            return 1.0 / trace, {"trace(M), forward-greedy heuristic": trace}
        floor, name = objective.minibatch_floor(tau, rule.budget)
        return floor, {name: floor}
    if not (row.randomized or row.greedy):
        raise NoGuaranteeError(f"{row.name} selection carries no complexity bound")
    if smooth and (row.greedy or not row.prox):
        # the smooth-only draw p_i = M_ii / trace(M), and the greedy pick,
        # which does at least as well; the uniform draw and every serial
        # rule on the prox path take n * max M_ii below
        trace = float(diagonal.sum())
        return 1.0 / trace, {"trace(M)": trace}
    top = float(diagonal.max())
    return 1.0 / (n * top), {"n*max_diag(M)": n * top}


def predict_K(rule, fclass: FunctionClass, problem, epsilon: float,
              xi0: float) -> RateBound:
    """K(epsilon) guaranteeing the target gap for a (rule, class) pair."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    # refuse before computing the rule's constant, which may be costly
    if fclass.kind == "gradient_dominated" and rule.row.shape != "full":
        raise NoGuaranteeError(
            "gradient-dominated bounds are published for batch descent only")
    c, provenance = rule_constant(rule, problem)
    if fclass.kind == "gradient_dominated":  # only the batch-descent bound
        L = problem.objective.lambda_max
        return RateBound(K=lambda eps: gradient_dominated_K(fclass.c, fclass.p, L, xi0, eps),
                         constant=c, provenance=provenance)
    steps = {
        "strongly_pl": lambda eps: math.log(xi0 / eps) / (c * fclass.mu),
        "weakly_pl": lambda eps: 1.0 / (fclass.rho * c * eps),
        "general_nonconvex": lambda eps: (xi0 / (c * eps)) * math.log(xi0 / eps),
    }[fclass.kind]
    return RateBound(K=lambda eps: 0 if eps >= xi0 else _ceil_finite(steps, eps),
                     constant=c, provenance=provenance)


def _ceil_finite(steps, epsilon: float) -> int:
    """ceil(steps(epsilon)), or a ValueError naming epsilon where that is not finite."""
    try:
        return math.ceil(steps(epsilon))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"epsilon {epsilon!r} is too small: K(epsilon) is not finite") from None


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


def function_classes(rule, problem, x0: np.ndarray) -> list:
    """The classes `predict_K` prices `rule` in: general nonconvex and, where
    lambda_f > 0, strongly PL and (given a certified radius) weakly PL, with
    mu and rho taken on the prox path at the rule's own L (`rule_L`)."""
    classes = [FunctionClass("general_nonconvex")]
    lam_f = problem.objective.strong_convexity_f
    if lam_f > 0:
        L = rule_L(problem, rule)[0] or problem.L_scalar  # rule_L: None when smooth
        mu = lam_f if problem.smooth_path else strongly_convex_mu(problem, L)
        classes.append(FunctionClass("strongly_pl", mu=mu))
        with contextlib.suppress(NoParameterError):  # x0 already optimal
            classes.append(FunctionClass("weakly_pl", rho=weakly_convex_rho(problem, x0, L)))
    return classes


def gradient_dominated_K(c: float, p: float, L: float, xi0: float,
                         epsilon: float) -> int:
    """Smallest k with k >= (2 L xi0 / eps) log(xi0 / phi(eps)) for the
    modulus phi(t) = c t^p; guarantees min over the first k gaps <= phi(eps)."""
    if epsilon <= 0 or xi0 < 0:
        raise ValueError("epsilon must be positive and xi0 nonnegative")
    phi = c * epsilon ** p
    if phi >= xi0:
        return 0
    return _ceil_finite(lambda eps: 2.0 * L * xi0 / eps * math.log(xi0 / phi), epsilon)
