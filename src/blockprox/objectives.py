"""Concrete objectives, the L1 regularizer, and instance generation.

An Objective bundles f (value, gradient) with a positive definite curvature
matrix M such that f(x+h) <= f(x) + <grad f(x), h> + h'Mh/2 for all admissible
x, h, and caches what is derived from M: lambda_min(M) and lambda_max(M)
(from one eigenvalue call), Cholesky factors
of principal submatrices (and 1/sqrt(M_ii), by which a one-coordinate step
scales), and per block size tau the block smoothness scalar L_tau, the
expected inverse E[inv(M[S, S])] and the exact greedy-minibatch tables.  An L1Regularizer, lam ||x||_1 with lam = 0 for
the smooth problem, is the nonsmooth half of F = f + g; it is read through
array maps (values lam |v_i| and the prox of many coordinates at once with
one scalar ell), so the certificate and the prox step are numpy expressions
over a block.

The descent loop reads f and its gradient through an iterate state
(`Objective.state_at`): the value and gradient at the current iterate, and a
`move` by a block step.  A closure objective recomputes both after a move;
the least-squares-plus-cosine objective keeps them current in O(n |S|).
"""

from __future__ import annotations

import functools
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import rates
from .linalg import (
    DEFAULT_ENUMERATION_BUDGET,
    FACTOR_CACHE_BYTES,
    BlockInverseForms,
    CoordSet,
    block_inverse_forms,
    check_symmetric,
    eig_extremes,
    is_spd,
    spd_factor,
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
    dim: int
    eval_f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    smoothness: np.ndarray
    strong_convexity_f: float = 0.0
    known_opt_value: Optional[float] = None
    known_minimizer: Optional[np.ndarray] = None
    # Cholesky factors of principal submatrices, keyed by index tuple, in
    # the order they were computed, and the bytes of their arrays
    _factor_cache: OrderedDict = field(default_factory=OrderedDict, repr=False,
                                       compare=False)
    _factor_bytes: int = field(default=0, repr=False, compare=False)
    # constants over the cardinality-tau principal submatrices of M, keyed
    # by (quantity, tau, enumeration budget)
    _subset_cache: dict = field(default_factory=dict, repr=False, compare=False)
    # lambda_min(M) and lambda_max(M), from the eigenvalue call that checks
    # strong_convexity_f
    lambda_min: float = field(init=False, repr=False, compare=False)
    lambda_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.smoothness = check_symmetric(self.smoothness)
        if self.smoothness.shape != (self.dim, self.dim):
            raise ValueError("smoothness matrix shape does not match dim")
        if not is_spd(self.smoothness):
            raise ValueError("smoothness matrix must be positive definite")
        self.lambda_min, self.lambda_max = eig_extremes(self.smoothness)
        if self.strong_convexity_f > self.lambda_min + 1e-10:
            raise ValueError("strong convexity parameter exceeds lambda_min(M)")
        if self.known_minimizer is not None:
            self.known_minimizer = np.asarray(self.known_minimizer, dtype=float)

    def factor_for(self, indices: tuple):
        """Cached SPD factorization of the principal submatrix M[indices].

        The cache holds at most FACTOR_CACHE_BYTES of factors: a new factor
        evicts the oldest until it fits, and one larger than the whole
        budget is the only one kept."""
        cache = self._factor_cache
        fac = cache.get(indices)
        if fac is None:
            idx = np.array(indices, dtype=np.intp)
            fac = spd_factor(self.smoothness.take(idx, 0).take(idx, 1))
            size = fac[0].nbytes
            while cache and self._factor_bytes + size > FACTOR_CACHE_BYTES:
                self._factor_bytes -= cache.popitem(last=False)[1][0].nbytes
            cache[indices] = fac
            self._factor_bytes += size
        return fac

    def _subset_constant(self, quantity: str, tau: int, budget: int, build):
        key = (quantity, tau, budget)
        hit = self._subset_cache.get(key)
        if hit is None:
            hit = self._subset_cache[key] = build()
        return hit

    def block_smoothness(self, tau: int,
                         budget: int = DEFAULT_ENUMERATION_BUDGET) -> BlockSmoothness:
        """`rates.L_tau` of M with its provenance, computed once per
        (tau, budget); so its trace-bound warning fires once as well."""
        def build():
            value = rates.L_tau(self.smoothness, tau, budget)
            source = "exact" if rates.L_tau_is_exact(self.dim, tau, budget) else "trace_bound"
            return BlockSmoothness(value, source)
        return self._subset_constant("L_tau", tau, budget, build)

    def expected_inverse(self, tau: int,
                         budget: int = DEFAULT_ENUMERATION_BUDGET) -> np.ndarray:
        """`rates.expected_inverse_matrix` of M, computed once per
        (tau, budget) and read-only.  Raises EnumerationTooLargeError over
        the budget."""
        def build():
            E = rates.expected_inverse_matrix(self.smoothness, tau, budget)
            E.setflags(write=False)
            return E
        return self._subset_constant("expected_inverse", tau, budget, build)

    def inverse_forms(self, tau: int,
                      budget: int = DEFAULT_ENUMERATION_BUDGET) -> BlockInverseForms:
        """`linalg.block_inverse_forms` of M, the exact greedy-minibatch
        tables, computed once per (tau, budget) and shared by every rule on
        this objective.  Raises EnumerationTooLargeError over the budget."""
        return self._subset_constant(
            "inverse_forms", tau, budget,
            lambda: block_inverse_forms(self.smoothness, tau, budget))

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

    This base state recomputes: one `eval_f` per position and one `grad_f`
    per position whose gradient is read.
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

    def move(self, S: CoordSet, u_S: np.ndarray) -> None:
        """x <- x + u_S embedded at S."""
        if len(S) == 1:
            x = self.x.copy()
            x[S.indices[0]] += u_S[0]
        elif S.is_full():
            x = self.x + u_S
        else:
            x = self.x.copy()
            x[S.array] += u_S
        self.x = x
        self._grad = None
        self._update(S, u_S)

    def _update(self, S: CoordSet, u_S: np.ndarray) -> None:
        self.f = float(self.objective.eval_f(self.x))


class L1Regularizer:
    """g(x) = lam ||x||_1, the nonsmooth half of F = f + g; lam = 0 is the
    smooth problem (`is_zero`).  The prox of g_i(v) = lam |v| is
    soft-thresholding at lam / ell:

        prox(c, ell) = argmin_v { (ell/2) (v - c)^2 + lam |v| }

    The certificate and block steps read g through array maps over all
    coordinates, `value_array(v)` (the entries lam |v_j|) and
    `prox_array(c, ell)`; a one-coordinate step without a certificate reads
    their scalar twins `value_i(v)` and `prox(c, ell)`.
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

    def value_array(self, v):
        return self.lam * np.abs(v)

    def prox_array(self, c, ell):
        return np.copysign(np.maximum(np.abs(c) - self.lam / ell, 0.0), c)

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
    L_scalar: float = field(init=False)

    def __post_init__(self):
        self.L_scalar = self.objective.lambda_max
        if self.opt_value is None and self.regularizer.is_zero:
            self.opt_value = self.objective.known_opt_value

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
    (A'A - cos(<c,x>) cc') / m uniformly since |cos| <= 1.  With
    A'A/m = M - cc'/m, an iterate state keeps only M x current:

        grad f = M x - c <c,x>/m - A'b/m - sin(<c,x>) c / m
        f      = x'Mx/2 - <c,x>^2/(2m) - <A'b/m, x> + ||b||^2/(2m) + cos(<c,x>)/m

    `eval_f` and `grad_f` evaluate directly in O(m n).  They are bound to the
    arrays, not to the objective, so that dropping an objective frees it at
    once rather than at the next cyclic garbage collection.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray,
                 seed: Optional[int] = None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
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
    def smoothness_columns(self) -> np.ndarray:
        """Row i is column i of M, contiguous: M itself when it is exactly
        symmetric, otherwise a copy of M'."""
        M = self.smoothness
        return M if np.array_equal(M, M.T) else np.ascontiguousarray(M.T)


class LsqCosState(IterateState):
    """Iterate state of a least-squares-plus-cosine objective: a move by u_S
    updates M x by M[:, S] u_S (column i times u_i when S = {i}), read as
    contiguous rows of `smoothness_columns`, and f and the gradient follow
    in O(n)."""

    def __init__(self, objective: LsqCosObjective, x: np.ndarray):
        self.objective = objective
        self.x = x
        self._refresh()
        self._update_f()

    def _refresh(self) -> None:
        self._Mx = self.objective.smoothness @ self.x
        self._moved = 0

    def _update(self, S: CoordSet, u_S: np.ndarray) -> None:
        self._moved += len(S)
        if self._moved >= MX_REFRESH_SWEEPS * self.objective.dim:
            self._refresh()
        elif len(S) == 1:
            # u_i times column i: the length-1 matvec's products, except that
            # a zero product may be -0.0 where the matvec gives +0.0; adding
            # either leaves M x the same, as M x never holds -0.0
            self._Mx += self.objective.smoothness_columns[S.indices[0]] * u_S
        else:
            # u_S' times the rows S of M' is the transposed dgemv that
            # M[:, S] @ u_S makes on its F-ordered gather: the same bits,
            # without the strided copy
            self._Mx += u_S @ self.objective.smoothness_columns.take(S.array, 0)
        self._update_f()

    def _update_f(self) -> None:
        obj, x = self.objective, self.x
        m = obj.m
        # ndarray.dot is the BLAS dot that @ calls, with less overhead
        self._cx = float(obj.c.dot(x))
        self.f = (0.5 * float(x.dot(self._Mx)) - 0.5 * self._cx * self._cx / m
                  - float(obj.Atb_m.dot(x)) + obj.bb_2m + math.cos(self._cx) / m)
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            obj, m = self.objective, self.objective.m
            self._grad = (self._Mx - (self._cx + math.sin(self._cx)) / m * obj.c
                          - obj.Atb_m)
        return self._grad


def make_lsq_cos(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> LsqCosObjective:
    """f(x) = ||Ax - b||^2 / (2m) + cos(<c, x>) / m (see LsqCosObjective)."""
    return LsqCosObjective(A, b, c)


def make_quadratic(Q: np.ndarray, smoothness: Optional[np.ndarray] = None) -> Objective:
    """f(x) = x'Qx / 2 with SPD Q; optionally a looser smoothness matrix.

    Its strong convexity is lambda_min(Q): with M = Q, the objective's own
    lambda_min, so Q's spectrum is computed once."""
    Q = check_symmetric(Q)
    if not is_spd(Q):
        raise ValueError("quadratic matrix must be positive definite")
    n = Q.shape[0]
    M = Q if smoothness is None else check_symmetric(smoothness)
    objective = Objective(
        dim=n,
        eval_f=lambda x: 0.5 * float(x @ (Q @ x)),
        grad_f=lambda x: Q @ x,
        smoothness=M,
        strong_convexity_f=0.0 if smoothness is None else eig_extremes(Q)[0],
        known_opt_value=0.0,
        known_minimizer=np.zeros(n),
    )
    if smoothness is None:
        # M = Q: lambda_min(Q) is the lambda_min(M) the constructor just took
        # from its one eigvalsh, so its check strong_convexity_f <= lambda_min
        # holds with equality and need not run again
        objective.strong_convexity_f = objective.lambda_min
    return objective


def random_spd(n: int, cond: float, seed: int) -> np.ndarray:
    """Q diag(linspace(1, cond, n)) Q' with Q a seeded random orthogonal
    matrix (QR of a Gaussian matrix, signs fixed by R's diagonal)."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
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
    Gaussian y; unit-norm Gaussian c.  Deterministic for a fixed seed.
    """
    if not m >= n >= 1:
        raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
    rng = np.random.default_rng(seed)

    def ortho(rows, cols):
        Q, R = np.linalg.qr(rng.standard_normal((rows, cols)))
        return Q * np.sign(np.diag(R))  # fix the sign ambiguity of QR

    U = ortho(m, n)
    V = ortho(n, n)
    sigma = np.linspace(1.0 / m, 1.0, n)
    A = U @ np.diag(sigma) @ V.T
    y = rng.standard_normal(n)
    y /= np.linalg.norm(y)
    b = A @ y
    c = rng.standard_normal(n)
    c /= np.linalg.norm(c)
    obj = LsqCosObjective(A, b, c, seed=seed)
    return CompositeProblem(objective=obj, regularizer=make_l1(lam))


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
