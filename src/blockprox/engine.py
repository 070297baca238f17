"""Per-coordinate certificates, the forcing function, block subproblem
minimizers, and the proportion function.

All quantities are computed from their definitions; the closed-form
per-rule bounds live in the test suite as independent oracles.  Functions
that need grad f(x) take it as an optional `grad` argument, so that a
caller holding it already (the descent loop) does not recompute it.  On the
scalar-L prox path the certificate and the block step are numpy expressions
over the L1 regularizer's array maps, one entry per coordinate of the block.
A one-coordinate block step is computed on Python floats instead, through
the regularizer's scalar `prox` and `value_i`, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .linalg import CoordSet, InvalidSetError, mask_vector
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


def _prox_model(reg, x, grad, L: float):
    """The prox step v and the certificate entries lambda, given x and
    grad f(x) at the same coordinates (all, or a block's):

        v_i   = prox(x_i - grad_i / L, L) - x_i
        lam_i = max(-L (grad_i v_i + L v_i^2 / 2 + g(x_i + v_i) - g(x_i)), 0)
    """
    v = reg.prox_array(x - grad / L, L) - x
    model = (grad * v + 0.5 * L * v * v + reg.value_array(x + v)
             - reg.value_array(x))
    lam = -L * model
    # max(lam, 0.0) entrywise, keeping lam when it is not below 0.0 (-0.0, nan)
    return v, np.where(0.0 > lam, 0.0, lam)


def _gradient(problem: CompositeProblem, x: np.ndarray, grad) -> np.ndarray:
    return problem.grad_f(x) if grad is None else grad


def certificate(problem: CompositeProblem, x: np.ndarray, L=None,
                grad=None) -> Certificate:
    L = _L_used(problem, L)
    grad = _gradient(problem, x, grad)
    if problem.smooth_path:
        per = 0.5 * grad * grad
    else:
        _, per = _prox_model(problem.regularizer, np.asarray(x, dtype=float), grad, L)
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


def _coordinate_step(problem: CompositeProblem, x: np.ndarray, i: int, L,
                     grad: np.ndarray) -> tuple[float, float]:
    """block_step at S = {i} on Python floats: the step u_i and the model
    decrease, bit-identical to the array path.

    Smooth path: dpotrs on the 1 x 1 factor sqrt(M_ii) multiplies twice by
    its reciprocal r_i, and a length-1 dot is 0.0 + g_i u_i.  Scalar-L path:
    `_prox_model` in the same operation order, through the regularizer's
    scalar `prox` and `value_i`.
    """
    g_i = float(grad[i])
    if problem.smooth_path:
        r_i = problem.objective.inverse_sqrt_diagonal[i]
        u = -((g_i * r_i) * r_i)
        return u, max(-0.5 * (0.0 + g_i * u), 0.0)
    L = _L_used(problem, L)
    reg, x_i = problem.regularizer, float(x[i])
    u = reg.prox(x_i - g_i / L, L, i) - x_i
    # max(lam, 0.0) keeps lam unless 0.0 > lam, as np.where(0.0 > lam, 0.0, lam)
    lam = max(-L * (g_i * u + 0.5 * L * u * u + reg.value_i(i, x_i + u)
                    - reg.value_i(i, x_i)), 0.0)
    return u, max(0.0 + lam / L, 0.0)


def block_step(problem: CompositeProblem, x: np.ndarray, S: CoordSet, L=None,
               grad=None) -> BlockStep:
    """Minimizer of the block model U_S at x and its model decrease.

    A one-coordinate block is stepped on Python floats (`_coordinate_step`)
    and the full set on grad and x themselves, without a gather, with the
    same result as the array path."""
    grad = _gradient(problem, x, grad)
    serial = len(S) == 1
    full = not serial and S.is_full()
    if (serial or full) and len(grad) != S.ambient_dim:
        raise InvalidSetError(f"gradient of length {len(grad)} does not match "
                              f"ambient dim {S.ambient_dim}")
    if serial:
        u, decrease = _coordinate_step(problem, x, S.indices[0], L, grad)
        return BlockStep(S=S, u_S=np.array([u]), decrease=decrease)
    if problem.smooth_path:
        g_S = grad if full else mask_vector(grad, S)
        u_S = -_cho_solve(problem.objective.factor_for(S.indices), g_S)
        decrease = -0.5 * float(g_S @ u_S)
    else:
        L = _L_used(problem, L)
        x = np.asarray(x, dtype=float)
        if full:
            u_S, lam_S = _prox_model(problem.regularizer, x, grad, L)
        else:
            idx = S.array
            u_S, lam_S = _prox_model(problem.regularizer, x[idx], grad[idx], L)
        # sum_{i in S} lam_i / L accumulated in index order, not pairwise;
        # adding it to 0.0 turns an all-zero -0.0 sum into 0.0
        decrease = 0.0 + float(np.add.accumulate(lam_S / L)[-1])
    return BlockStep(S=S, u_S=u_S, decrease=max(decrease, 0.0))


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
    # In the scalar-L path the block decrease is sum_{i in S} lam_i / L and
    # the certificate is sum_j lambda_j, so the ratio carries the 1/L factor
    # the theory expects (theta of the full set equals 1/L there).
    return step.decrease / cert.lambda_total
