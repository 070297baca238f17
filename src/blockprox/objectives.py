"""Concrete objectives, the L1 regularizer, and instance generation.

An Objective bundles f (value, gradient) with a positive definite curvature
matrix M such that f(x+h) <= f(x) + <grad f(x), h> + h'Mh/2 for all admissible
x, h, and owns M's constants, each computed once; `rates` and `selection`
only read them.  At construction it checks M (finite, square, symmetric to
within tolerance), factors it (the positive definiteness check, and every
full step's factor) and takes lambda_min(M) and lambda_max(M) from one
eigenvalue call.  On first use it keeps 1/sqrt(M_ii), and per block size tau
and enumeration budget: L_tau (the held lambda_max at tau = n), the smooth
tau-nice floor on lambda_min(E[inv(M[S, S])]), the greedy-minibatch forms
(once a rule reads them, or when they fit in one chunk of their walk), and
E[inv(M[S, S])], the forms' mean.  One test, C(n, tau) <= budget,
decides them: past it a table is None, and L_tau and the floor are
certified bounds.  An L1Regularizer, lam ||x||_1 with lam = 0 for the
smooth problem, is the nonsmooth half of F = f + g, read through array maps
over many coordinates.

The descent loop reads f and its gradient through an iterate state
(`Objective.state_at`): the value, the gradient vector, one gradient entry
(`grad_entry`), a chunk of iterates' gradients (`gradient_chunk`), a `move`
by a block step and a `move_coordinate` by a one-coordinate step's Python
float.  A closure objective recomputes f after a move, and the gradient when
it is read.  The least-squares-plus-cosine objective keeps M x current in
O(n |S|); a one-coordinate move updates f in O(1) beside it, and a gradient
entry costs O(1).  A serial step that reads one entry then forms no
gradient vector: its O(n) work is the copy of x, the row of M added to M x
and the dot <c, x>.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import linalg, rates
from .linalg import (
    DEFAULT_ENUMERATION_BUDGET,
    BlockInverseForms,
    CoordSet,
    EnumerationTooLargeError,
    NotPositiveDefiniteError,
    block_inverse_forms,
    check_symmetric,
    eig_extremes,
    spd_factor,
    subset_count,
)

#: The least-squares-plus-cosine state recomputes M x from scratch once the
#: moves since the last recomputation have updated this many multiples of n
#: coordinates: every n iterations of a serial rule, every iteration of full
#: batch.  Bounds the drift of the incremental updates at O(n) extra work per
#: updated coordinate.
MX_REFRESH_SWEEPS = 1


class BlockSmoothness(NamedTuple):
    """L_tau of an objective's M and how it was obtained: "exact" (the
    maximum over all cardinality-tau principal submatrices) or "trace_bound"
    (the enumeration budget was exceeded)."""

    value: float
    source: str


@dataclass
class Objective:
    """f with its curvature matrix M and what it keeps of M (module docstring)."""

    dim: int
    eval_f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    smoothness: np.ndarray
    strong_convexity_f: float = 0.0
    known_opt_value: Optional[float] = None
    known_minimizer: Optional[np.ndarray] = None
    # constants over the cardinality-tau principal submatrices of M, keyed
    # by (quantity, tau, enumeration budget)
    _subset_cache: dict = field(default_factory=dict, repr=False, compare=False)
    # `spd_factor` of M, whose success is the positive definiteness check
    smoothness_factor: tuple = field(init=False, repr=False, compare=False)
    # lambda_min(M) and lambda_max(M), from the eigenvalue call that checks
    # strong_convexity_f
    lambda_min: float = field(init=False, repr=False, compare=False)
    lambda_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        self.smoothness = check_symmetric(self.smoothness)
        if self.smoothness.shape != (self.dim, self.dim):
            raise ValueError("smoothness matrix shape does not match dim")
        try:
            self.smoothness_factor = spd_factor(self.smoothness)
        except NotPositiveDefiniteError:
            raise ValueError("smoothness matrix must be positive definite") from None
        w = np.linalg.eigvalsh(self.smoothness)
        self.lambda_min, self.lambda_max = float(w[0]), float(w[-1])
        if self.strong_convexity_f > self.lambda_min + 1e-10:
            raise ValueError("strong convexity parameter exceeds lambda_min(M)")
        if self.known_minimizer is not None:
            self.known_minimizer = np.asarray(self.known_minimizer, dtype=float)

    def factor_for(self, indices: tuple):
        """M's factor `smoothness_factor`, for `indices` the full set: a step
        on any other block solves its gather without a factor."""
        return self.smoothness_factor

    def _subset_constant(self, quantity: str, tau: int, budget: int, build):
        """`build(fits)` once per (quantity, tau, budget), where `fits` is the
        objective's one test of the enumeration budget, C(n, tau) <= budget."""
        key = (quantity, tau, budget)
        if key not in self._subset_cache:
            try:
                self._subset_cache[key] = build(subset_count(self.dim, tau) <= budget)
            except MemoryError:  # a table past the memory, not past the budget
                raise EnumerationTooLargeError(
                    f"{quantity}: C({self.dim},{tau}) subsets do not fit in memory") from None
        return self._subset_cache[key]

    def block_smoothness(self, tau: int,
                         budget: int = DEFAULT_ENUMERATION_BUDGET) -> BlockSmoothness:
        """L_tau of M with its provenance, computed once per (tau, budget):
        the held lambda_max at tau = n, else `rates.L_tau`, exact at tau = 1
        and within the budget, its trace bound (warned about once) past it."""
        def build(fits):
            if tau == self.dim:
                return BlockSmoothness(self.lambda_max, "exact")
            return BlockSmoothness(rates.L_tau(self.smoothness, tau, budget),
                                   "exact" if fits or tau == 1 else "trace_bound")
        return self._subset_constant("L_tau", tau, budget, build)

    def expected_inverse(self, tau: int,
                         budget: int = DEFAULT_ENUMERATION_BUDGET) -> Optional[np.ndarray]:
        """E[inv(M[S, S])] over tau-nice sets S, `rates.expected_inverse_matrix`
        of the greedy-minibatch forms; computed once per (tau, budget) and
        read-only; None past the budget.  It reads the forms `inverse_forms`
        holds when a rule has built them.  Otherwise it builds them and keeps
        them as `inverse_forms` only when they take no more than
        `linalg.SUBSET_CHUNK_BYTES`, the working memory of one chunk of their
        walk: a larger table, megabytes that an objective pricing a rule
        would hold for nothing, is dropped once E is taken."""
        def build(fits):
            if not fits:
                return None
            key = ("inverse_forms", tau, budget)
            forms = self._subset_cache.get(key)
            if forms is None:
                forms = block_inverse_forms(self.smoothness, tau, budget)
                if forms.nbytes <= linalg.SUBSET_CHUNK_BYTES:
                    self._subset_cache[key] = forms
            E = rates.expected_inverse_matrix(forms)
            E.setflags(write=False)
            return E
        return self._subset_constant("expected_inverse", tau, budget, build)

    def inverse_forms(self, tau: int,
                      budget: int = DEFAULT_ENUMERATION_BUDGET) -> Optional[BlockInverseForms]:
        """`linalg.block_inverse_forms` of M, the exact greedy-minibatch
        tables, computed once per (tau, budget) and shared by every rule on
        this objective; None past the budget."""
        return self._subset_constant(
            "inverse_forms", tau, budget,
            lambda fits: block_inverse_forms(self.smoothness, tau, budget) if fits else None)

    def minibatch_floor(self, tau: int,
                        budget: int = DEFAULT_ENUMERATION_BUDGET) -> tuple[float, str]:
        """lambda_min(E[inv(M_S)]) over tau-nice sets S within the budget, and
        past it the floor (tau/n)/lambda_max(B), B = (1 - beta) Diag(M) +
        beta M, beta = (tau - 1)/(n - 1), with its provenance name, computed
        once per (tau, budget).  As h' inv(M_S) h = max_y (2 y' I_S h -
        y' I_S M I_S y), I_S the projection onto S, and an expected max is at
        least the max of the expectation, E[inv(M_S)] >= D_p inv(P o M) D_p
        with p_i = P(i in S) and P_ij = P(i, j in S): (tau/n) inv(B) for
        tau-nice sets, exact at tau = 1 and at tau = n."""
        def build(fits):
            if fits:
                return eig_extremes(self.expected_inverse(tau, budget))[0], "lambda_min(E[inv])"
            B = (tau - 1) / max(self.dim - 1, 1) * self.smoothness
            np.fill_diagonal(B, self.diagonal)
            return tau / (self.dim * eig_extremes(B)[1]), "(tau/n)/lambda_max(B)"
        return self._subset_constant("minibatch_floor", tau, budget, build)

    @functools.cached_property
    def diagonal(self) -> np.ndarray:
        """The diagonal of M, a read-only copy."""
        d = np.diag(self.smoothness).copy()
        d.setflags(write=False)
        return d

    @functools.cached_property
    def importance_cdf(self) -> list[float]:
        """CDF of drawing coordinate i with probability M_ii / trace(M),
        normalised as numpy's `Generator.choice` does, as Python floats, so
        that a `bisect_right` of one uniform draw gives the same stream as
        `searchsorted(side="right")`."""
        d = self.diagonal
        cdf = (d / d.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf.tolist()

    @functools.cached_property
    def inverse_sqrt_diagonal(self) -> list[float]:
        """1 / sqrt(M_ii) per coordinate as Python floats: the reciprocal of
        each 1 x 1 Cholesky factor, by which a one-coordinate step scales."""
        return (1.0 / np.sqrt(self.diagonal)).tolist()

    def state_at(self, x: np.ndarray) -> "IterateState":
        """f and its gradient at x, kept current by `IterateState.move`."""
        return IterateState(self, x)


class IterateState:
    """f(x) and grad f(x) at the current iterate x of a descent run.

    `f` is the value, `grad` the gradient vector, `grad_entry(i)` its entry i
    as a Python float with the bits of `grad.item(i)`, and
    `gradient_chunk(rows)` keeps the gradients of up to `rows` iterates.  This
    base state recomputes: one `eval_f` per position and one `grad_f` per
    position whose gradient, or any entry of it, is read.
    """

    def __init__(self, objective: Objective, x: np.ndarray):
        self.objective = objective
        self.x = x
        self.f = float(objective.eval_f(x))
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.asarray(self.objective.grad_f(self.x), dtype=float)
        return self._grad

    def grad_entry(self, i: int) -> float:
        return self.grad.item(i)

    def gradient_chunk(self, rows: int) -> "GradientChunk":
        return GradientChunk(self, rows)

    def move(self, S: CoordSet, u_S: np.ndarray, rows: Optional[np.ndarray] = None) -> None:
        """x <- x + u_S embedded at S, into a new array: a one-coordinate
        block is `move_coordinate` by u_S's entry.  `rows`, when given, are
        the rows S of M, gathered already by the step."""
        if len(S.indices) == 1:
            self.move_coordinate(S.indices[0], u_S.item(0))
            return
        if S.is_full():
            x = self.x + u_S
        else:
            x = self.x.copy()
            x[S.array] += u_S
        self.x = x
        self._grad = None
        self._update(S, u_S, rows)

    def move_coordinate(self, i: int, u: float) -> None:
        """x_i <- x_i + u, the Python float u added on Python floats (the
        bits of the array addition), into a new array."""
        x = self.x.copy()
        x[i] = x.item(i) + u
        self.x = x
        self._grad = None
        self._update_coordinate(i, u)

    def _update(self, S: CoordSet, u_S: np.ndarray, rows=None) -> None:
        self.f = float(self.objective.eval_f(self.x))

    def _update_coordinate(self, i: int, u: float) -> None:
        self.f = float(self.objective.eval_f(self.x))


class GradientChunk:
    """The gradients of up to `rows` iterates of one state: `keep(row)` keeps
    the current iterate's as row `row`, and `gradients(count)` gives rows
    0..count-1 as a C-contiguous (count, n) array, each with the bits of
    the state's `grad` at the iterate kept there.  This base copies the
    gradient vector."""

    def __init__(self, state: IterateState, rows: int):
        self._state = state
        self._grads = np.empty((rows, state.objective.dim))

    def keep(self, row: int) -> None:
        self._grads[row] = self._state.grad

    def gradients(self, count: int) -> np.ndarray:
        return self._grads[:count]


class L1Regularizer:
    """g(x) = lam ||x||_1, the nonsmooth half of F = f + g; lam = 0 is the
    smooth problem (`is_zero`).  The prox of g_i(v) = lam |v| is
    soft-thresholding at lam / ell:

        prox(c, ell) = argmin_v { (ell/2) (v - c)^2 + lam |v| }

    The certificate and block steps read g through array maps over all
    coordinates, `value_array(v)` (the entries lam |v_j|) and
    `prox_array(c, ell)`, each written into `out` when it is given (an array
    of their result's shape that is not their argument); a one-coordinate
    step without a certificate reads their scalar twins `value_i(v)` and
    `prox(c, ell)`.
    """

    strong_convexity_F: float = 0.0

    def __init__(self, lam: float):
        if not 0 <= lam < math.inf:
            raise ValueError(f"l1 weight must be finite and nonnegative, got {lam}")
        self.lam = float(lam)
        self.is_zero = lam == 0.0

    def value_i(self, v):
        return self.lam * abs(v)

    def prox(self, c, ell):
        t = self.lam / ell
        return math.copysign(max(abs(c) - t, 0.0), c)

    def value_array(self, v, out=None):
        out = np.abs(v, out=out)
        return np.multiply(out, self.lam, out=out)

    def prox_array(self, c, ell, out=None):
        out = np.abs(c, out=out)
        np.subtract(out, self.lam / ell, out=out)
        np.maximum(out, 0.0, out=out)
        return np.copysign(out, c, out=out)

    def value(self, x):
        return self.lam * float(np.abs(x).sum()) if self.lam else 0.0


def make_l1(lam: float) -> L1Regularizer:
    return L1Regularizer(lam)


@dataclass
class CompositeProblem:
    """F = f + g with a scalar smoothness constant for the prox path.

    With L1 weight zero (the default regularizer) the solver takes the
    matrix-curvature path; a positive weight forces the scalar L*I path.
    The scalar constant `L_scalar` is the objective's lambda_max(M)
    (positive, as M is SPD); a step or certificate that wants another L
    takes it as an argument.
    """

    objective: Objective
    regularizer: L1Regularizer = field(default_factory=lambda: L1Regularizer(0.0))
    opt_value: Optional[float] = None
    # set when opt_value comes from a descent run rather than a known optimum
    opt_value_is_empirical: bool = False

    def __post_init__(self):
        if self.opt_value is None and self.regularizer.is_zero:
            self.opt_value = self.objective.known_opt_value

    @property
    def L_scalar(self) -> float:
        return self.objective.lambda_max

    @property
    def dim(self) -> int:
        return self.objective.dim

    @property
    def smooth_path(self) -> bool:
        return self.regularizer.is_zero

    def F(self, x: np.ndarray) -> float:
        return float(self.objective.eval_f(x)) + self.regularizer.value(x)

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.objective.grad_f(x), dtype=float)

    def xi(self, x: np.ndarray) -> float:
        if self.opt_value is None:
            raise ValueError("optimality gap requires a known or empirical optimum")
        return self.F(x) - self.opt_value


def _lsq_cos_value(A, b, c, x):
    m = A.shape[0]
    r = A @ x - b
    return 0.5 / m * float(r @ r) + math.cos(float(c @ x)) / m


def _lsq_cos_gradient(A, b, c, x):
    r = A @ x - b
    return (A.T @ r - math.sin(float(c @ x)) * c) / A.shape[0]


class LsqCosObjective(Objective):
    """f(x) = ||Ax - b||^2 / (2m) + cos(<c, x>) / m, holding A, b, c as data.

    Curvature bound M = (A'A + cc') / m dominates the Hessian
    (A'A - cos(<c,x>) cc') / m uniformly since |cos| <= 1.  A is kept
    C-contiguous, so A'A is numpy's symmetric rank-k product of A with itself
    and M is exactly symmetric: row i of M is column i.  With
    A'A/m = M - cc'/m, an iterate state keeps M x current, beside a few
    scalars (`LsqCosState`):

        grad f = M x - c <c,x>/m - A'b/m - sin(<c,x>) c / m
        f      = x'Mx/2 - <c,x>^2/(2m) - <A'b/m, x> + ||b||^2/(2m) + cos(<c,x>)/m

    `eval_f` and `grad_f` evaluate directly in O(m n).  They are bound to the
    arrays, not to the objective, so that dropping an objective frees it at
    once rather than at the next cyclic garbage collection.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray,
                 seed: Optional[int] = None):
        A = np.ascontiguousarray(np.atleast_2d(np.asarray(A, dtype=float)))
        b = np.asarray(b, dtype=float).ravel()
        c = np.asarray(c, dtype=float).ravel()
        m, n = A.shape
        if b.shape != (m,) or c.shape != (n,):
            raise ValueError(f"dimension mismatch: A is {m}x{n}, b {b.shape}, c {c.shape}")
        self.A, self.b, self.c, self.seed = A, b, c, seed
        self.m = m
        self.Atb_m = A.T @ b / m
        self.bb_2m = 0.5 * float(b @ b) / m
        super().__init__(dim=n,
                         eval_f=functools.partial(_lsq_cos_value, A, b, c),
                         grad_f=functools.partial(_lsq_cos_gradient, A, b, c),
                         smoothness=(A.T @ A + np.outer(c, c)) / m)

    def state_at(self, x: np.ndarray) -> "LsqCosState":
        return LsqCosState(self, x)

    @functools.cached_property
    def coordinate_floats(self) -> tuple[list[float], list[float], list[float]]:
        """c, A'b/m and the diagonal of M as lists of Python floats, which a
        one-coordinate move and a gradient entry index."""
        return self.c.tolist(), self.Atb_m.tolist(), self.diagonal.tolist()


class LsqCosState(IterateState):
    """Iterate state of a least-squares-plus-cosine objective.

    A move by u_S updates M x by M[:, S] u_S (column i times u_i when
    S = {i}), read as the contiguous rows S of the exactly symmetric M.  The
    state keeps q = x'Mx/2, a = <A'b/m, x> and s = (<c,x> + sin<c,x>)/m as
    Python floats, so that

        f     = q - <c,x>^2/(2m) - a + ||b||^2/(2m) + cos(<c,x>)/m
        grad  = M x - s c - A'b/m

    A one-coordinate move by u updates q by u (Mx)_i + u^2 M_ii/2 (M x before
    the move) and a by (A'b/m)_i u, in O(1); a block move, and the rebuild
    of M x from x every MX_REFRESH_SWEEPS * n moved coordinates, take q and
    a from x again.  <c, x> is one BLAS dot per move, so every gradient
    entry keeps the bits it would have with f recomputed.  `grad_entry(i)`
    is (Mx)_i - s c_i - (A'b/m)_i on Python floats, the bits of entry i of
    `grad`, which is formed only when read."""

    def __init__(self, objective: LsqCosObjective, x: np.ndarray):
        self.objective = objective
        self.x = x
        self._c, self._Atb_m, self._diagonal = objective.coordinate_floats
        self._refresh()
        self._update_f()

    def _refresh(self) -> None:
        """M x from x, and q and a from both."""
        self._Mx = self.objective.smoothness @ self.x
        self._moved = 0
        self._sync()

    def _sync(self) -> None:
        # ndarray.dot is the BLAS dot that @ calls, with less overhead
        x = self.x
        self._q = 0.5 * float(x.dot(self._Mx))
        self._a = float(self.objective.Atb_m.dot(x))

    def _update(self, S: CoordSet, u_S: np.ndarray, rows=None) -> None:
        """M x <- M x + M[:, S] u_S, rebuilt from x instead once
        MX_REFRESH_SWEEPS * n coordinates have moved since the last rebuild;
        then q and a from x.  u_S' times the rows S of M = M' (the step's
        `rows`, or gathered here) is the transposed dgemv that M[:, S] @ u_S
        makes on its F-ordered gather: the same bits, without the strided
        copy."""
        self._moved += len(S.indices)
        if self._moved >= MX_REFRESH_SWEEPS * self.objective.dim:
            self._refresh()
        else:
            self._Mx += u_S @ (self.objective.smoothness.take(S.array, 0)
                               if rows is None else rows)
            self._sync()
        self._update_f()

    def _update_coordinate(self, i: int, u: float) -> None:
        """q and a gain their one-coordinate terms, and M x <- M x + u
        column i, scaled by the Python float u: the length-1 matvec's
        products, except that a zero product may be -0.0 where the matvec
        gives +0.0; adding either leaves M x the same, as M x never holds
        -0.0.  Rebuilt from x as `_update` is."""
        self._moved += 1
        if self._moved >= MX_REFRESH_SWEEPS * self.objective.dim:
            self._refresh()
        else:
            Mx = self._Mx
            self._q += u * (Mx.item(i) + 0.5 * u * self._diagonal[i])
            self._a += self._Atb_m[i] * u
            Mx += self.objective.smoothness[i] * u
        self._update_f()

    def _update_f(self) -> None:
        """f and s from q, a and <c, x>: every move ends here."""
        obj = self.objective
        m = obj.m
        cx = float(obj.c.dot(self.x))
        self._s = (cx + math.sin(cx)) / m
        self.f = (self._q - 0.5 * cx * cx / m - self._a + obj.bb_2m
                  + math.cos(cx) / m)
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            obj = self.objective
            self._grad = self._Mx - self._s * obj.c - obj.Atb_m
        return self._grad

    def grad_entry(self, i: int) -> float:
        return self._Mx.item(i) - self._s * self._c[i] - self._Atb_m[i]

    def gradient_chunk(self, rows: int) -> "LsqCosGradientChunk":
        return LsqCosGradientChunk(self, rows)


class LsqCosGradientChunk:
    """A `GradientChunk` that keeps what forms each gradient, M x and s, and
    forms the chunk's rows in one broadcast, M x - s c - A'b/m: per entry
    the operations of `LsqCosState.grad`, so the same bits."""

    def __init__(self, state: LsqCosState, rows: int):
        self._state = state
        self._Mx = np.empty((rows, state.objective.dim))
        self._s = np.empty(rows)

    def keep(self, row: int) -> None:
        state = self._state
        self._Mx[row] = state._Mx
        self._s[row] = state._s

    def gradients(self, count: int) -> np.ndarray:
        obj = self._state.objective
        return self._Mx[:count] - self._s[:count, None] * obj.c - obj.Atb_m


def make_lsq_cos(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> LsqCosObjective:
    """f(x) = ||Ax - b||^2 / (2m) + cos(<c, x>) / m (see LsqCosObjective)."""
    return LsqCosObjective(A, b, c)


def make_quadratic(Q: np.ndarray, smoothness: Optional[np.ndarray] = None) -> Objective:
    """f(x) = x'Qx / 2 with SPD Q; optionally a looser smoothness matrix.

    Its strong convexity is lambda_min(Q).  With M = Q the objective checks,
    factors and takes the spectrum of Q once; a looser M leaves Q's spectrum,
    which checks Q, to be taken here."""
    Q = np.asarray(Q, dtype=float)
    lambda_min_Q = 0.0
    if smoothness is not None:
        lambda_min_Q = eig_extremes(Q)[0]
        if not lambda_min_Q > 0:
            raise ValueError("quadratic matrix must be positive definite")
    objective = Objective(
        dim=len(Q),
        eval_f=lambda x: 0.5 * float(x @ (Q @ x)),
        grad_f=lambda x: Q @ x,
        smoothness=Q if smoothness is None else smoothness,  # checked by Objective
        strong_convexity_f=lambda_min_Q,
        known_opt_value=0.0,
        known_minimizer=np.zeros(len(Q)),
    )
    if smoothness is None:
        # M = Q: lambda_min(Q) is the lambda_min(M) the constructor just took
        # from its one eigvalsh, so its check strong_convexity_f <= lambda_min
        # holds with equality and need not run again
        objective.strong_convexity_f = objective.lambda_min
    return objective


def random_spd(n: int, cond: float, seed: int) -> np.ndarray:
    """Q diag(linspace(1, cond, n)) Q' with Q a seeded random orthogonal
    matrix (QR of a Gaussian matrix, signs fixed by R's diagonal).  `cond` is
    the condition number of linspace(1, cond, n), so it must be finite and
    at least 1, and n must be at least 1.  The QR runs on one BLAS thread
    (`linalg.one_blas_thread`): Q does not depend on the caller's thread
    count; the product Q diag Q' is taken on the caller's threads."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 1.0 <= cond < math.inf:
        raise ValueError(f"cond must be finite and at least 1, got {cond!r}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    with linalg.one_blas_thread():
        Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))
    return (Q * np.linspace(1.0, cond, n)) @ Q.T


def _box_product(h, dh, scale: float) -> Objective:
    """f(x1, x2) = h(x1) h(x2), with h >= 0 vanishing only at 0, so that f
    is minimized (value 0) on both axes; `scale` I bounds its Hessian on the
    box of the caller.  h and its derivative dh take the entries of x as
    they are."""

    def f(x):
        return float(h(x[0]) * h(x[1]))

    def grad(x):
        x1, x2 = x[0], x[1]
        return np.array([dh(x1) * h(x2), h(x1) * dh(x2)])

    return Objective(
        dim=2,
        eval_f=f,
        grad_f=grad,
        smoothness=scale * np.eye(2),
        known_opt_value=0.0,
        known_minimizer=np.zeros(2),
    )


def make_product_square(box: float = 2.0) -> Objective:
    """f(x1, x2) = x1^2 x2^2; minimized (value 0) on both axes.

    No global quadratic majorant exists (quartic growth), so the curvature
    matrix is a Gershgorin bound on the Hessian over [-box, box]^2.
    """
    if box <= 0:
        raise ValueError("box must be positive")
    # |f_11| + |f_12| <= 2 box^2 + 4 box^2 on the box
    return _box_product(lambda t: t ** 2, lambda t: 2.0 * t, 6.0 * box * box)


def _huber(z: float) -> float:
    return z * z if abs(z) < 1 else 2.0 * abs(z) - 1.0


def _huber_d(z: float) -> float:
    return 2.0 * z if abs(z) < 1 else 2.0 * math.copysign(1.0, z)


def make_huber_product(box: float = 2.0) -> Objective:
    """f(x1, x2) = H(x1) H(x2) with H the Huber loss; minimum 0 on the axes."""
    if box < 1:
        raise ValueError("box must cover the quadratic region, need box >= 1")
    # On the box: |H''| <= 2, H <= 2 box - 1, |H'| <= 2.
    return _box_product(_huber, _huber_d, 2.0 * (2.0 * box - 1.0) + 4.0)


def flat_inflection_coefficient() -> float:
    """Coefficient c for which x -> (x - pi/c)^2/2 + cos(cx) has a point with
    f' = f'' = 0 (a flat inflection).

    There cos(cx) = 1/c^2 and cx - pi = c^2 sin(cx) with cx in (2 pi, 5 pi/2),
    so s = c^2 is the root of sqrt(s^2 - 1) = pi + arccos(1/s).  The left
    side minus the right increases in s; [2, 10] brackets the root, which is
    bisected to adjacent floats; c is the square root of the lower one.
    """
    lo, hi = 2.0, 10.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.sqrt(lo)
        if math.sqrt(mid * mid - 1.0) < math.pi + math.acos(1.0 / mid):
            lo = mid
        else:
            hi = mid


def make_plateau_1d(c: float) -> Objective:
    """1-D f(x) = (x - pi/c)^2 / 2 + cos(cx), nonconvex for c > 1.

    Both terms attain their minima at x = pi/c, so that is the minimizer and
    F* = -1.
    """
    if c <= 0:
        raise ValueError("coefficient must be positive")
    obj = make_lsq_cos(np.array([[1.0]]), np.array([math.pi / c]), np.array([c]))
    obj.known_opt_value = -1.0
    obj.known_minimizer = np.array([math.pi / c])
    return obj


def gen_instance(m: int, n: int, seed: int, lam: float = 0.0) -> CompositeProblem:
    """Random least-squares-plus-cosine instance with prescribed spectrum.

    A = U diag(sigma) V' with orthonormal factors from QR of seeded Gaussian
    matrices, sigma linearly spaced in [1/m, 1]; b = A y with unit-norm
    Gaussian y; unit-norm Gaussian c.  Deterministic for a fixed seed.  A is
    formed as (U sigma) V', U's columns scaled, as `random_spd` forms its
    matrix: the bits of U diag(sigma) V' without the n x n diag(sigma).

    Both QRs run on one BLAS thread (`linalg.one_blas_thread`), the draws
    and products on the caller's: at m=1000, n=100 that halves the QR, and
    A, b and c have the same bytes whatever the caller's thread count.  M =
    (A'A + cc')/m, taken by the objective on the caller's threads, still
    depends on it (report.json's `versions.blas` names the count).
    """
    if not m >= n >= 1:
        raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
    rng = np.random.default_rng(seed)

    def ortho(rows, cols):
        G = rng.standard_normal((rows, cols))
        with linalg.one_blas_thread():
            Q, R = np.linalg.qr(G)
        return Q * np.sign(np.diag(R))  # fix the sign ambiguity of QR

    U = ortho(m, n)
    V = ortho(n, n)
    sigma = np.linspace(1.0 / m, 1.0, n)
    A = (U * sigma) @ V.T
    y = rng.standard_normal(n)
    y /= np.linalg.norm(y)
    b = A @ y
    c = rng.standard_normal(n)
    c /= np.linalg.norm(c)
    obj = LsqCosObjective(A, b, c, seed=seed)
    return CompositeProblem(objective=obj, regularizer=make_l1(lam))


def quadratic_instance(n: int, cond: float, seed: int, lam: float = 0.0) -> CompositeProblem:
    """x'Qx/2 + lam ||x||_1 with Q = random_spd(n, cond, seed)."""
    return CompositeProblem(make_quadratic(random_spd(n, cond, seed)), make_l1(lam))


def save_instance(problem: CompositeProblem, path) -> None:
    """Serialize a generated or loaded instance (A row-major, b, c, lambda,
    seed)."""
    obj = problem.objective
    m, n = obj.A.shape
    payload = {
        "m": m,
        "n": n,
        "seed": obj.seed,
        "lambda": problem.regularizer.lam,
        "A": obj.A.ravel().tolist(),
        "b": obj.b.tolist(),
        "c": obj.c.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_instance(path) -> CompositeProblem:
    with open(path) as fh:
        payload = json.load(fh)
    m, n = payload["m"], payload["n"]
    A = np.array(payload["A"], dtype=float).reshape(m, n)
    b = np.array(payload["b"], dtype=float)
    c = np.array(payload["c"], dtype=float)
    obj = LsqCosObjective(A, b, c, seed=payload.get("seed"))
    return CompositeProblem(objective=obj, regularizer=make_l1(payload.get("lambda", 0.0)))
