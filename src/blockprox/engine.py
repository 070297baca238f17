"""Per-coordinate certificates, the forcing function, block subproblem
minimizers, and the proportion function.

All quantities are computed from their definitions; the closed-form
per-rule bounds live in the test suite as independent oracles.  Functions
that need grad f(x) take it as an optional `grad` argument, so that a
caller holding it already (the descent loop) does not recompute it.  On the
scalar-L prox path the certificate is a numpy expression over the L1
regularizer's array maps, one entry per coordinate, evaluated into its two
output arrays and one scratch array.  There the block model
U_S is the full-space separable model restricted to S, so a block step
reads its step and decrease off the model's entries at S, whatever the
block: given the certificate at the same (x, grad f(x), L), the model is
evaluated once per iterate.  Without a certificate a block of two or more
coordinates computes only its prox step, on the gather x[S], grad[S], and
no decrease (`certificate_totals` takes a diagnostics run's block
decreases beside the certificates), and a one-coordinate step is taken on
Python floats, through the regularizer's scalar `prox` and `value_i`; each
has the bits of the model's entries at S.

A step function is built once per block size and path (`stepper`): the
descent loop builds its rule's once per run, and `block_step` checks its
inputs and calls a freshly built one.  A one-coordinate step reads the one
gradient entry g_i, a Python float, and returns u_i as a Python float, so
the loop need not form the gradient vector for it; a smooth block short of
the full set also returns the rows of M it gathered, which the iterate
state's M x update reads instead of gathering them again.  On the smooth
path the certificate's entries are grad_i^2 / 2.  `certificate_totals`
takes the lambda totals of a chunk of iterates in one pass of the same
per-entry expression over their rows laid end to end, with the bits of one
certificate per row, and, given the rows' blocks, their block decreases
with the bits of `block_step`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import CoordSet, InvalidSetError, factor_solve, spd_solve
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


def _prox_step(reg, x, grad, L: float):
    """The prox step v_i = prox(x_i - grad_i / L, L) - x_i, given x and
    grad f(x) at the same coordinates, as a fresh array, and the fresh
    scratch array that held c = x - grad / L.  Each operation is
    elementwise, so v at a gather of coordinates is the gather of v."""
    scratch = np.divide(grad, L)
    np.subtract(x, scratch, out=scratch)  # c = x - grad / L
    v = reg.prox_array(scratch, L)
    np.subtract(v, x, out=v)
    return v, scratch


def _prox_model(reg, x, grad, L: float):
    """The prox step v and the certificate entries lambda, given x and
    grad f(x) at the same coordinates (all, or a block's):

        v_i   = prox(x_i - grad_i / L, L) - x_i
        lam_i = max(-L (grad_i v_i + L v_i^2 / 2 + g(x_i + v_i) - g(x_i)), 0)

    as fresh arrays v and lam, each operation of the two expressions, in
    their order, written into them or into the scratch array of
    `_prox_step`.
    """
    v, scratch = _prox_step(reg, x, grad, L)
    # ((grad v + (L / 2) v v) + g(x + v)) - g(x), accumulated in lam
    lam = np.multiply(grad, v)
    np.multiply(v, 0.5 * L, out=scratch)
    np.multiply(scratch, v, out=scratch)
    np.add(lam, scratch, out=lam)
    np.add(x, v, out=scratch)
    np.add(lam, reg.value_array(scratch, out=scratch), out=lam)
    np.subtract(lam, reg.value_array(x, out=scratch), out=lam)
    np.multiply(lam, -L, out=lam)
    # max(lam, 0.0) entrywise, keeping lam when it is not below 0.0 (-0.0, nan)
    np.copyto(lam, 0.0, where=lam < 0.0)
    return v, lam


def _gradient(problem: CompositeProblem, x: np.ndarray, grad) -> np.ndarray:
    return problem.grad_f(x) if grad is None else grad


def _certificate_entries(reg, x, grad, L: float):
    """The prox step v (None on the smooth path) and the certificate entries
    lambda_i, entry by entry: `_prox_model` on the prox path, 0.5 grad_i^2
    on the smooth path, where x is not read.  The arrays are 1-D, one
    iterate's or a chunk's rows laid end to end."""
    if reg.is_zero:
        # 0.5 * grad * grad, its second product taken in place
        per = 0.5 * grad
        per *= grad
        return None, per
    return _prox_model(reg, x, grad, L)


def certificate(problem: CompositeProblem, x: np.ndarray, L=None,
                grad=None) -> Certificate:
    # `_gradient` written out: the descent loop calls this once per iteration
    L = problem.L_scalar if L is None else float(L)
    if grad is None:
        grad = problem.grad_f(x)
    v, per = _certificate_entries(problem.regularizer, np.asarray(x, dtype=float),
                                  grad, L)
    # np.add.reduce is the reduction per.sum() makes, without its wrapper
    return Certificate(float(np.add.reduce(per)), per, L, v)


def certificate_totals(problem: CompositeProblem, xs: np.ndarray | None,
                       grads: np.ndarray, L: float, blocks=None):
    """lambda_total at each row of a chunk, and, given the rows' `blocks`,
    each row's block decrease: the certificates at the iterates xs[j] (None
    on the smooth path, which does not read x) with gradients grads[j] and
    L, C-contiguous (rows, n) arrays, in one pass.  Returns the pair
    (totals, decreases), decreases None without `blocks`.

    Entry j of the totals has the bits of
    `certificate(problem, xs[j], L, grads[j]).lambda_total`: the entries are
    the same expression over the rows laid end to end (the regularizer's
    maps take 1-D arrays), and np.add.reduce along the last axis of a
    C-contiguous array sums each row as it sums a 1-D array.  The blocks,
    one prox-path set of two or more coordinates per row, all of one size,
    gather each row's entries (all of them for the full set); the
    decreases are then `np.add.accumulate(lam_S / L)` along the rows, the
    last entry, added to 0.0 and clamped at 0.0 as `max(d, 0.0)` clamps:
    entry j has the bits of `block_step(problem, xs[j], blocks[j], L,
    grad=grads[j]).decrease`, the sequential sum of a row being that of a
    1-D array."""
    flat = None if xs is None else xs.reshape(-1)
    _, per = _certificate_entries(problem.regularizer, flat, grads.reshape(-1), L)
    per = per.reshape(grads.shape)
    totals = np.add.reduce(per, axis=-1)
    if blocks is None:
        return totals, None
    if len(blocks[0].indices) < per.shape[1]:
        per = np.take_along_axis(per, np.array([S.array for S in blocks]), axis=1)
    decreases = np.add.accumulate(np.divide(per, L, out=per), axis=1)[:, -1]
    # 0.0 + d turns an all-zero -0.0 sum into 0.0; max(d, 0.0) keeps d unless
    # 0.0 > d
    decreases = np.add(0.0, decreases)
    np.copyto(decreases, 0.0, where=decreases < 0.0)
    return totals, decreases


def forcing(problem: CompositeProblem, x: np.ndarray, L=None) -> float:
    """lambda(x) / xi(x); raises AtOptimumError when the gap is at most
    1e-14 max(1, |F*|)."""
    xi = problem.xi(x)  # raises without a known or empirical F*
    gap_tol = 1e-14 * max(1.0, abs(problem.opt_value))
    if xi <= gap_tol:
        raise AtOptimumError(f"optimality gap {xi} below tolerance {gap_tol}")
    return certificate(problem, x, L).lambda_total / xi


def _check_length(name: str, vec: np.ndarray, S: CoordSet) -> None:
    if len(vec) != S.ambient_dim:
        raise InvalidSetError(f"{name} of length {len(vec)} does not match "
                              f"ambient dim {S.ambient_dim}")


def stepper(problem: CompositeProblem, size: int, L):
    """The step function of blocks of `size` coordinates on `problem`'s path
    at L (or L_scalar for None on the prox path; the smooth path does not
    read it), given x, the gradient grad f(x) (of a one-coordinate step, its
    entry g_i = grad f(x)_i as a Python float) and, on the prox path, the
    certificate at the same (x, grad, L) or None (the smooth path ignores
    it):

        size 1:  step(x, i, g_i, cert) -> (u_i, decrease) on Python floats
        else:    step(x, S, grad, cert) -> (u_S, decrease, rows)

    with `rows` the rows S of M when the step gathered them (else None), to
    be handed to the iterate state's M x update.  A prox-path block step
    without a certificate computes only u_S, and its decrease is None.  Each
    gives the bits of the block model solved on the block's gather."""
    n = problem.dim
    if problem.regularizer.is_zero:
        objective = problem.objective
        if size == 1:
            return _smooth_coordinate_kernel(objective)
        if size == n:
            return _smooth_full_kernel(objective)
        return _smooth_block_kernel(objective)
    L = problem.L_scalar if L is None else float(L)
    if size == 1:
        return _prox_coordinate_kernel(problem.regularizer, L)
    return _prox_block_kernel(problem.regularizer, L, size == n)


def _smooth_coordinate_kernel(objective):
    """-g_i / M_ii on Python floats: dpotrs on the 1 x 1 factor sqrt(M_ii)
    multiplies twice by its reciprocal r_i, and a length-1 dot is
    0.0 + g_i u_i."""
    r = objective.inverse_sqrt_diagonal

    def step(x, i, g_i, cert):
        r_i = r[i]
        u = -((g_i * r_i) * r_i)
        return u, max(-0.5 * (0.0 + g_i * u), 0.0)

    return step


def _smooth_full_kernel(objective):
    """The full set, stepped on grad itself by M's factor, read once."""
    factor = objective.factor_for(tuple(range(objective.dim)))

    def step(x, S, grad, cert):
        u_S = -factor_solve(factor, grad)
        return u_S, max(-0.5 * float(grad @ u_S), 0.0), None

    return step


def _smooth_block_kernel(objective):
    """M[S, S] u_S = -g_S by one `spd_solve` of the gather, whose rows S of
    M the step hands on."""
    M = objective.smoothness

    def step(x, S, grad, cert):
        idx = S.array
        g_S = grad[idx]
        rows = M.take(idx, 0)
        u_S = -spd_solve(rows.take(idx, 1), g_S)
        return u_S, max(-0.5 * float(g_S @ u_S), 0.0), rows

    return step


def _prox_coordinate_kernel(reg, L: float):
    """S = {i} on the prox path: v_i and lam_i / L read off the certificate,
    or, without one, the same bits on Python floats through the
    regularizer's scalar `prox` and `value_i`, in `_prox_model`'s operation
    order."""
    prox, value_i = reg.prox, reg.value_i

    def step(x, i, g_i, cert):
        if cert is not None:
            return (cert.step_per_coord.item(i),
                    max(0.0 + cert.lambda_per_coord.item(i) / L, 0.0))
        x_i = x.item(i)
        u = prox(x_i - g_i / L, L) - x_i
        # max(lam, 0.0) keeps lam unless 0.0 > lam, as np.where(0.0 > lam, 0.0, lam)
        lam = max(-L * (g_i * u + 0.5 * L * u * u + value_i(x_i + u)
                        - value_i(x_i)), 0.0)
        return u, max(0.0 + lam / L, 0.0)

    return step


def _prox_block_kernel(reg, L: float, full: bool):
    """Given the certificate, u_S = v[S] and the decrease from lam[S], read
    off the full-space model (v, lam); the full set's u_S is v itself.
    Without one, only the prox step of `_prox_step`, on x[S] and grad[S]
    (on x and grad for the full set), with the bits of v[S], and no
    decrease (None): a diagnostics run takes it from the chunk's
    certificate pass (`certificate_totals`)."""

    def step(x, S, grad, cert):
        if cert is None:
            if not full:
                idx = S.array
                x, grad = x[idx], grad[idx]
            return _prox_step(reg, x, grad, L)[0], None, None
        v, lam = cert.step_per_coord, cert.lambda_per_coord
        if full:
            u_S, lam_S = v, lam
        else:
            idx = S.array
            u_S, lam_S = v[idx], lam[idx]
        # sum_{i in S} lam_i / L accumulated in index order, not pairwise;
        # adding it to 0.0 turns an all-zero -0.0 sum into 0.0
        decrease = 0.0 + float(np.add.accumulate(lam_S / L)[-1])
        return u_S, max(decrease, 0.0), None

    return step


def block_step(problem: CompositeProblem, x: np.ndarray, S: CoordSet, L=None,
               grad=None, cert: Certificate | None = None) -> BlockStep:
    """Minimizer of the block model U_S at x and its model decrease: one call
    of the step function `stepper` builds for |S| coordinates, as the
    descent loop builds it once per run, after checking the inputs.

    On the prox path a step of two or more coordinates is read off the
    full-space model's entries at S: those of `cert`, the certificate at
    the same x, grad and L (one at another L is refused), or of the
    certificate taken here at L (L_scalar for None); a one-coordinate step
    without a certificate is taken on Python floats.  The smooth path
    ignores `cert`: a one-coordinate block {i} is stepped on Python floats
    and the full set on grad itself, without a gather.  Each gives the bits
    of the model solved on the block's gather."""
    size = len(S.indices)
    prox = not problem.regularizer.is_zero
    if prox:
        L = problem.L_scalar if L is None else float(L)
        x = np.asarray(x, dtype=float)
        if cert is not None and cert.L_used != L:
            raise ValueError(f"certificate computed at L={cert.L_used}, "
                             f"step asked at L={L}")
    else:
        cert = None
    if cert is None:
        grad = _gradient(problem, x, grad)
        _check_length("gradient", grad, S)
        if prox and size > 1:
            # the step function's decrease is read off the certificate
            cert = certificate(problem, x, L, grad=grad)
    else:
        _check_length("certificate", cert.step_per_coord, S)
    step = stepper(problem, size, L)
    if size == 1:
        i = S.indices[0]
        u, decrease = step(x, i, None if grad is None else grad.item(i), cert)
        return BlockStep(S, np.array([u]), decrease)
    u_S, decrease, _ = step(x, S, grad, cert)
    return BlockStep(S, u_S, decrease)


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
