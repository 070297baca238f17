"""Per-coordinate certificates, the forcing function, block subproblem
minimizers, and the proportion function.

All quantities are computed from their definitions; the closed-form
per-rule bounds live in the test suite as independent oracles.  Functions
that need grad f(x) take it as an optional `grad` argument, so that a
caller holding it already (the descent loop) does not recompute it.  On the
scalar-L prox path the certificate is a numpy expression over the L1
regularizer's array maps, one entry per coordinate.  There the block model
U_S is the full-space separable model restricted to S, so a block step
reads its step and decrease off the model's entries at S, whatever the
block: given the certificate at the same (x, grad f(x), L), the model is
evaluated once per iterate.  Without a certificate a block of two or more
coordinates evaluates the model over all n coordinates, and a
one-coordinate step is taken on Python floats, through the regularizer's
scalar `prox` and `value_i`, with the same bits.
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
    """Value and per-coordinate split of the full-space prox model optimum.

    On the prox path `step_per_coord` is the model's minimizer v (the prox
    step from x), from which every block step at (x, grad f(x), L_used)
    is read; on the smooth path it is None.
    """

    lambda_total: float
    lambda_per_coord: np.ndarray
    L_used: float
    step_per_coord: np.ndarray | None


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
        v, per = None, 0.5 * grad * grad
    else:
        v, per = _prox_model(problem.regularizer, np.asarray(x, dtype=float), grad, L)
    # np.add.reduce is the reduction per.sum() makes, without its wrapper
    return Certificate(lambda_total=float(np.add.reduce(per)), lambda_per_coord=per,
                       L_used=L, step_per_coord=v)


def forcing(problem: CompositeProblem, x: np.ndarray, L=None) -> float:
    """lambda(x) / xi(x); raises AtOptimumError when the gap is at most
    1e-14 max(1, |F*|)."""
    xi = problem.xi(x)  # raises without a known or empirical F*
    gap_tol = 1e-14 * max(1.0, abs(problem.opt_value))
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
    its reciprocal r_i, and a length-1 dot is 0.0 + g_i u_i.  Scalar-L path,
    taken only without a certificate: `_prox_model` in the same operation
    order, through the regularizer's scalar `prox` and `value_i`.
    """
    g_i = float(grad[i])
    if problem.smooth_path:
        r_i = problem.objective.inverse_sqrt_diagonal[i]
        u = -((g_i * r_i) * r_i)
        return u, max(-0.5 * (0.0 + g_i * u), 0.0)
    reg, x_i = problem.regularizer, float(x[i])
    u = reg.prox(x_i - g_i / L, L) - x_i
    # max(lam, 0.0) keeps lam unless 0.0 > lam, as np.where(0.0 > lam, 0.0, lam)
    lam = max(-L * (g_i * u + 0.5 * L * u * u + reg.value_i(x_i + u)
                    - reg.value_i(x_i)), 0.0)
    return u, max(0.0 + lam / L, 0.0)


def _check_length(name: str, vec: np.ndarray, S: CoordSet) -> None:
    if len(vec) != S.ambient_dim:
        raise InvalidSetError(f"{name} of length {len(vec)} does not match "
                              f"ambient dim {S.ambient_dim}")


def _prox_step(problem: CompositeProblem, x: np.ndarray, S: CoordSet, L: float,
               grad, cert: Certificate | None) -> BlockStep:
    """block_step on the prox path: u_S = v[S] and lam_S = lam[S], read off
    the full-space model (v, lam) at (x, grad f(x), L), which gives the bits
    of the model evaluated on the block's gather.  (v, lam) is the
    certificate's, or is evaluated here; without a certificate a
    one-coordinate step is `_coordinate_step` instead.  u_S may be a view
    of v."""
    if cert is None:
        grad = _gradient(problem, x, grad)
        _check_length("gradient", grad, S)
        if len(S) == 1:
            u, decrease = _coordinate_step(problem, x, S.indices[0], L, grad)
            return BlockStep(S=S, u_S=np.array([u]), decrease=decrease)
        v, lam = _prox_model(problem.regularizer, np.asarray(x, dtype=float), grad, L)
    elif cert.L_used != L:
        raise ValueError(f"certificate computed at L={cert.L_used}, "
                         f"step asked at L={L}")
    else:
        v, lam = cert.step_per_coord, cert.lambda_per_coord
        _check_length("certificate", v, S)
    if len(S) == 1:
        i = S.indices[0]
        return BlockStep(S=S, u_S=v[i:i + 1], decrease=max(0.0 + lam.item(i) / L, 0.0))
    if S.is_full():
        u_S, lam_S = v, lam
    else:
        u_S, lam_S = v[S.array], lam[S.array]
    # sum_{i in S} lam_i / L accumulated in index order, not pairwise;
    # adding it to 0.0 turns an all-zero -0.0 sum into 0.0
    decrease = 0.0 + float(np.add.accumulate(lam_S / L)[-1])
    return BlockStep(S=S, u_S=u_S, decrease=max(decrease, 0.0))


def block_step(problem: CompositeProblem, x: np.ndarray, S: CoordSet, L=None,
               grad=None, cert: Certificate | None = None) -> BlockStep:
    """Minimizer of the block model U_S at x and its model decrease.

    On the prox path the step is read off the full-space model's entries at
    S (`_prox_step`): those of `cert`, the certificate at the same x, grad
    and L (one at another L is refused), or of the model evaluated here.
    The smooth path ignores `cert`: a one-coordinate block is stepped on
    Python floats (`_coordinate_step`) and the full set on grad itself,
    without a gather.  Each gives the bits of the model solved on the
    block's gather."""
    if not problem.smooth_path:
        return _prox_step(problem, x, S, _L_used(problem, L), grad, cert)
    grad = _gradient(problem, x, grad)
    serial = len(S) == 1
    full = not serial and S.is_full()
    if serial or full:
        _check_length("gradient", grad, S)
    if serial:
        u, decrease = _coordinate_step(problem, x, S.indices[0], None, grad)
        return BlockStep(S=S, u_S=np.array([u]), decrease=decrease)
    g_S = grad if full else mask_vector(grad, S)
    u_S = -_cho_solve(problem.objective.factor_for(S.indices), g_S)
    decrease = -0.5 * float(g_S @ u_S)
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
    step = block_step(problem, x, S, L=cert.L_used, grad=grad, cert=cert)
    # In the scalar-L path the block decrease is sum_{i in S} lam_i / L and
    # the certificate is sum_j lambda_j, so the ratio carries the 1/L factor
    # the theory expects (theta of the full set equals 1/L there).
    return step.decrease / cert.lambda_total
