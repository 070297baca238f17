"""Per-coordinate certificates, the forcing function, block subproblem
minimizers, and the proportion function.

All quantities are computed from their definitions; the closed-form
per-rule bounds live in the test suite as independent oracles.  Functions
that need grad f(x) take it as an optional `grad` argument, so that a
caller holding it already (the descent loop) does not recompute it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .linalg import CoordSet, mask_vector
from .objectives import CompositeProblem


class AtOptimumError(ValueError):
    """The iterate is already at (numerical) optimality; no forcing value."""


@dataclass
class Certificate:
    """Value and per-coordinate split of the full-space prox model optimum."""

    lambda_total: float
    lambda_per_coord: np.ndarray
    L_used: float


@dataclass
class BlockStep:
    S: CoordSet
    u_S: np.ndarray
    decrease: float  # -min_u U_S(x, u), always >= 0


def _L_used(problem: CompositeProblem, L) -> float:
    return problem.L_scalar if L is None else float(L)


def lambda_i(problem: CompositeProblem, x: np.ndarray, i: int, L=None) -> float:
    """-L * min_v { grad_i f(x) v + L v^2 / 2 + g_i(x_i + v) - g_i(x_i) }."""
    L = _L_used(problem, L)
    gi = float(problem.grad_f(x)[i])
    return _lambda_scalar(problem, float(x[i]), gi, i, L)


def _lambda_scalar(problem, xi_val, grad_i, i, L) -> float:
    reg = problem.regularizer
    v = reg.prox(xi_val - grad_i / L, L, i) - xi_val
    model = grad_i * v + 0.5 * L * v * v + reg.value_i(i, xi_val + v) - reg.value_i(i, xi_val)
    return max(-L * model, 0.0)


def _gradient(problem: CompositeProblem, x: np.ndarray, grad) -> np.ndarray:
    return problem.grad_f(x) if grad is None else grad


def certificate(problem: CompositeProblem, x: np.ndarray, L=None,
                grad=None) -> Certificate:
    L = _L_used(problem, L)
    grad = _gradient(problem, x, grad)
    if problem.smooth_path:
        per = 0.5 * grad * grad
    else:
        per = np.array(
            [
                _lambda_scalar(problem, float(x[i]), float(grad[i]), i, L)
                for i in range(problem.dim)
            ]
        )
    return Certificate(lambda_total=float(per.sum()), lambda_per_coord=per, L_used=L)


def forcing(problem: CompositeProblem, x: np.ndarray, L=None, gap_tol=None) -> float:
    """lambda(x) / xi(x); raises AtOptimumError when the gap is below tolerance."""
    xi = problem.xi(x)
    if gap_tol is None:
        ref = problem.opt_value if problem.opt_value is not None else 0.0
        gap_tol = 1e-14 * max(1.0, abs(ref))
    if xi <= gap_tol:
        raise AtOptimumError(f"optimality gap {xi} below tolerance {gap_tol}")
    return certificate(problem, x, L).lambda_total / xi


def _cho_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve without its input checks (same LAPACK call)."""
    c, lower = factor
    sol, info = dpotrs(c, rhs, lower=int(lower))
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return sol


def block_step(problem: CompositeProblem, x: np.ndarray, S: CoordSet, L=None,
               grad=None) -> BlockStep:
    """Minimizer of the block model U_S at x and its model decrease."""
    grad = _gradient(problem, x, grad)
    if problem.smooth_path:
        g_S = mask_vector(grad, S)
        u_S = -_cho_solve(problem.objective.factor_for(S.indices), g_S)
        decrease = -0.5 * float(g_S @ u_S)
    else:
        L = _L_used(problem, L)
        reg = problem.regularizer
        u = np.empty(len(S))
        decrease = 0.0
        for j, i in enumerate(S):
            xi_val, gi = float(x[i]), float(grad[i])
            u[j] = reg.prox(xi_val - gi / L, L, i) - xi_val
            decrease += _lambda_scalar(problem, xi_val, gi, i, L) / L
        u_S = u
    return BlockStep(S=S, u_S=u_S, decrease=max(decrease, 0.0))


def evaluate_block_model(problem, x, S, u_S, L=None) -> float:
    """Direct evaluation of U_S(x, u); oracle for block_step.decrease."""
    grad = problem.grad_f(x)
    g_S = mask_vector(grad, S)
    if problem.smooth_path:
        idx = S.array
        M_S = problem.objective.smoothness[np.ix_(idx, idx)]
        quad = 0.5 * float(u_S @ (M_S @ u_S))
        reg_term = 0.0
    else:
        L = _L_used(problem, L)
        quad = 0.5 * L * float(u_S @ u_S)
        reg = problem.regularizer
        reg_term = sum(
            reg.value_i(i, float(x[i]) + float(u_S[j])) - reg.value_i(i, float(x[i]))
            for j, i in enumerate(S)
        )
    return float(g_S @ u_S) + quad + reg_term


def proportion(
    problem: CompositeProblem,
    x: np.ndarray,
    S: CoordSet,
    L=None,
    cert: Certificate | None = None,
    grad=None,
) -> float:
    """theta(S, x): block model decrease over the full-space model decrease.

    Zero by definition when the certificate vanishes.
    """
    if cert is None:
        grad = _gradient(problem, x, grad)
        cert = certificate(problem, x, L, grad=grad)
    if cert.lambda_total <= 0.0:
        return 0.0
    step = block_step(problem, x, S, L=cert.L_used, grad=grad)
    # In the scalar-L path the block decrease is sum_{i in S} lambda_i / L and
    # the certificate is sum_j lambda_j, so the ratio carries the 1/L factor
    # the theory expects (theta of the full set equals 1/L there).
    return step.decrease / cert.lambda_total
