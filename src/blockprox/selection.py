"""Block selection procedures: deterministic, randomized, and greedy,
serial and minibatch.

What a selection kind is lives in its row of `KINDS`.  Config grammar:
``full | uniform | importance | greedy | cyclic | nice:<tau> |
greedymb:<tau>`` optionally followed by ``seed=<u64>``.

`picker(rule, problem)` resolves a rule's kind and the problem's path once
and returns the function that selects; the descent loop builds it once per
run, and `select` is one call of a freshly built one.
"""

from __future__ import annotations

import bisect
import functools
from typing import NamedTuple, Optional

import numpy as np

from . import engine
from .linalg import (
    DEFAULT_ENUMERATION_BUDGET,
    CoordSet,
    EnumerationTooLargeError,
)
from .objectives import CompositeProblem


class RuleRow(NamedTuple):
    name: str         # config name
    shape: str        # block size: "full" (n), "serial" (1), "minibatch" (tau)
    randomized: bool  # draws its block from the rule's own generator
    prox: bool        # offered on the prox (scalar-L) path
    greedy: bool      # reads the gradient, or the certificate on the prox path


#: One row per selection kind, in the order campaigns list them.
KINDS = {
    "full_batch": RuleRow("full", "full", False, True, False),
    "uniform_coord": RuleRow("uniform", "serial", True, True, False),
    "importance_coord": RuleRow("importance", "serial", True, False, False),
    "greedy_coord": RuleRow("greedy", "serial", False, True, True),
    "cyclic_coord": RuleRow("cyclic", "serial", False, True, False),
    "tau_nice": RuleRow("nice", "minibatch", True, True, False),
    "greedy_minibatch": RuleRow("greedymb", "minibatch", False, True, True),
}


class BlockRule:
    def __init__(self, kind: str, n: int, tau: Optional[int] = None, seed: int = 0,
                 budget: int = DEFAULT_ENUMERATION_BUDGET):
        row = KINDS.get(kind)
        if row is None:
            raise ValueError(f"unknown selection kind {kind!r}")
        if row.shape == "minibatch":
            if tau is None or not 1 <= tau <= n:
                raise ValueError(f"minibatch rule needs tau in [1, {n}], got {tau}")
        elif tau is not None:
            raise ValueError(f"rule {row.name!r} takes no block size, got {tau}")
        self.kind = kind
        self.row = row
        self.name = row.name if tau is None else f"{row.name}:{tau}"
        self.max_block_size = {"full": n, "serial": 1}.get(row.shape, tau)
        self.n = n
        self.tau = tau
        self.seed = seed
        self.budget = budget
        self._rng = np.random.default_rng(seed)
        self.last_was_heuristic = False

    @property
    def rng(self) -> np.random.Generator:
        """The rule's own generator, read-only: `_draws` points into its
        memory, so the rule keeps this generator for as long as it lives."""
        return self._rng

    @functools.cached_property
    def _draws(self):
        """The C entry points of the rule's generator (numpy's public
        `BitGenerator.ctypes`: `next_uint32`, `next_double` and the `state`
        pointer they take), built on the first draw."""
        return self._rng.bit_generator.ctypes

    @functools.cached_property
    def singletons(self) -> tuple[CoordSet, ...]:
        """The n one-coordinate sets, built and validated once per rule."""
        return tuple(CoordSet((i,), self.n) for i in range(self.n))

    @functools.cached_property
    def full_set(self) -> CoordSet:
        return CoordSet.full(self.n)

    def refuse_off_path(self, problem, error=ValueError,
                        text="{} sampling is not offered on nonsmooth problems"):
        """Raise `error(text)`, formatted with the rule's name, when the
        problem is on the prox path and the rule's row does not offer it."""
        if not (self.row.prox or problem.smooth_path):
            raise error(text.format(self.name))

    def __repr__(self):
        return f"BlockRule({self.name!r}, n={self.n}, seed={self.seed})"


def parse_rule(text: str, n: int, default_seed: int = 0,
               budget: int = DEFAULT_ENUMERATION_BUDGET) -> BlockRule:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty rule specification")
    head, seed = parts[0], default_seed
    for extra in parts[1:]:
        if extra.startswith("seed="):
            seed = int(extra[5:])
        else:
            raise ValueError(f"unrecognized rule option {extra!r}")
    tau = None
    if ":" in head:
        head, tau_text = head.split(":", 1)
        tau = int(tau_text)
    for kind, row in KINDS.items():
        if row.name == head:
            return BlockRule(kind, n, tau=tau, seed=seed, budget=budget)
    raise ValueError(f"unknown rule {head!r}")


_UINT32_SPAN = 1 << 32


def _bounded_draw(next_uint32, state, r: int) -> int:
    """`Generator.integers(r)` drawn through the generator's C entry point
    `next_uint32(state)`: the same value, and the same generator state after
    it, for 1 <= r < 2**32.

    numpy draws such a bound by Lemire's multiply-shift on 32-bit words:
    r = 1 returns 0 and consumes nothing; otherwise m = word * r, and while
    the low 32 bits of m fall below (2**32 - r) mod r, a new word is drawn
    (that threshold is below r, so a low word of r or more is kept at once).
    The value is m >> 32.
    """
    if not 1 <= r < _UINT32_SPAN:
        raise ValueError(f"bounded draw needs 1 <= r < 2**32, got {r}")
    if r == 1:
        return 0
    m = next_uint32(state) * r
    low = m & 0xFFFFFFFF
    if low < r:
        threshold = (_UINT32_SPAN - r) % r
        while low < threshold:
            m = next_uint32(state) * r
            low = m & 0xFFFFFFFF
    return m >> 32


def _tau_nice_draw(rule: BlockRule) -> CoordSet:
    """Fisher-Yates partial shuffle of range(n), exactly uniform over
    cardinality-tau sets, with one `_bounded_draw(n - j)` per position j:
    the stream of `rng.integers(n - j)`.  A dict holds the positions a swap
    has moved, so a draw costs O(tau), whatever n."""
    n, tau = rule.n, rule.tau
    draws = rule._draws
    next_uint32, state = draws.next_uint32, draws.state
    moved = {}
    chosen = []
    for j in range(tau):
        swap = j + _bounded_draw(next_uint32, state, n - j)
        chosen.append(moved.get(swap, swap))
        moved[swap] = moved.get(j, j)
    return _sorted_set(chosen, n)


def _sorted_set(chosen: list[int], n: int) -> CoordSet:
    """The set of `chosen`, distinct Python ints in [0, n) in any order,
    sorted in place, built without the public constructor's checks."""
    chosen.sort()
    return CoordSet._trusted(tuple(chosen), n, np.array(chosen, dtype=np.intp))


def _forward_greedy(M: np.ndarray, grad: np.ndarray, tau: int) -> list[int]:
    """Grow a block one coordinate at a time, each time adding the i that
    most increases the model decrease g_S' inv(M[S, S]) g_S.

    For the chosen set C that increase is r_i^2 / d_i (Das and Kempe,
    "Submodular meets spectral", ICML 2011), with r and d the Schur
    complements of C in g and diag(M):

        r_i = g_i  - M[i, C] inv(M[C, C]) g_C
        d_i = M_ii - M[i, C] inv(M[C, C]) M[C, i]

    Each addition updates both by one rank-one step of a pivoted Cholesky
    factorization.  Chosen coordinates are never picked again; a coordinate
    with d_i <= 0 (a direction M[C, C] already spans) only when nothing else
    is left.  Ties go to the lowest index.
    """
    n = len(grad)
    r = np.array(grad, dtype=float)
    d = np.diag(M).copy()
    V = np.zeros((n, tau))  # Cholesky columns of the chosen pivots
    gain = np.empty(n)
    chosen = []
    for k in range(tau):
        gain.fill(-1.0)
        np.divide(r * r, d, out=gain, where=d > 0)
        gain[chosen] = -np.inf
        p = int(gain.argmax())
        chosen.append(p)
        if d[p] > 0 and k + 1 < tau:
            root = np.sqrt(d[p])
            v = (M[:, p] - V[:, :k] @ V[p, :k]) / root
            r -= v * (r[p] / root)
            d -= v * v
            V[:, k] = v
    return chosen


def picker(rule: BlockRule, problem: CompositeProblem):
    """The selection function of `rule` on `problem`, resolved once: the
    rule's kind and the problem's path are read here, so a call
    `pick(k, grad, lambda_per_coord)` does only its kind's work.  It returns
    the active coordinate set of iteration k, from what the rule reads of
    the current iterate: the counter k (cyclic), the gradient grad f(x)
    (smooth greedy rules) or the per-coordinate certificate (greedy rules on
    the prox path, which raise ValueError without it).  The random rules
    draw from their own generator.  No path evaluates a gradient.  A rule
    the prox path does not offer raises ValueError here, and the smooth
    greedy minibatch reads its forms (or finds them past the budget) here.

    `rule.last_was_heuristic` is cleared here, and only the smooth greedy
    minibatch sets it, on each call."""
    rule.refuse_off_path(problem)
    rule.last_was_heuristic = False
    n, kind = rule.n, rule.kind
    singletons = rule.singletons
    if kind == "full_batch":
        full = rule.full_set
        return lambda k, grad, lambda_per_coord: full
    if kind == "cyclic_coord":
        return lambda k, grad, lambda_per_coord: singletons[k % n]
    if kind == "uniform_coord":
        draws = rule._draws
        next_uint32, state = draws.next_uint32, draws.state
        return lambda k, grad, lambda_per_coord: singletons[
            _bounded_draw(next_uint32, state, n)]
    if kind == "importance_coord":
        # the draw rng.choice(n, p=diag(M) / trace(M)) makes, without
        # re-validating p on every call: one rng.random(), located in the
        # CDF as searchsorted(side="right") would
        draws, cdf = rule._draws, problem.objective.importance_cdf
        next_double, state = draws.next_double, draws.state
        return lambda k, grad, lambda_per_coord: singletons[
            bisect.bisect_right(cdf, next_double(state))]
    if kind == "tau_nice":
        return lambda k, grad, lambda_per_coord: _tau_nice_draw(rule)
    if not problem.smooth_path:
        return _certificate_greedy(rule)
    if kind == "greedy_coord":
        diagonal = problem.objective.diagonal
        return lambda k, grad, lambda_per_coord: singletons[
            (grad * grad / diagonal).argmax()]
    return _forms_greedy(rule, problem.objective)


def _certificate_greedy(rule: BlockRule):
    """The greedy pick on the prox path: the largest lambda_i, or the tau
    largest with ties to the lowest index."""
    n, tau, serial = rule.n, rule.tau, rule.kind == "greedy_coord"
    singletons = rule.singletons

    def pick(k, grad, lambda_per_coord):
        if lambda_per_coord is None:
            raise ValueError("greedy selection on a nonsmooth problem needs "
                             "per-coordinate certificates")
        if serial:
            return singletons[lambda_per_coord.argmax()]
        order = np.argsort(-lambda_per_coord, kind="stable")  # ties resolve to lowest index
        picked = np.sort(order[:tau])
        return CoordSet._trusted(tuple(picked.tolist()), n, picked)

    return pick


def _forms_greedy(rule: BlockRule, objective):
    """The smooth greedy minibatch: the set of the largest form g_S' inv(M_S)
    g_S over the objective's forms, the first of equal ones; past the budget
    the flagged forward-greedy heuristic."""
    n, tau = rule.n, rule.tau
    forms = objective.inverse_forms(tau, rule.budget)
    if forms is None:
        M = objective.smoothness

        def heuristic(k, grad, lambda_per_coord):
            rule.last_was_heuristic = True
            return _sorted_set(_forward_greedy(M, grad, tau), n)

        return heuristic
    values, subsets = forms.values, forms.subsets

    def pick(k, grad, lambda_per_coord):
        row = subsets[int(values(grad).argmax())]  # first max: lexicographic tie-break
        return CoordSet._trusted(tuple(row.tolist()), n, row.astype(np.intp))

    return pick


def select(rule: BlockRule, problem: CompositeProblem, k: int, grad: np.ndarray,
           lambda_per_coord: Optional[np.ndarray] = None) -> CoordSet:
    """The active coordinate set of iteration k: `picker(rule, problem)`
    called once, the function the descent loop builds once per run."""
    return picker(rule, problem)(k, grad, lambda_per_coord)


def exact_expected_theta(rule: BlockRule, problem: CompositeProblem,
                         grad: np.ndarray, cert: engine.Certificate) -> float:
    """E[theta(S, x) | x] over a randomized rule's sampling distribution, in
    closed form, from what the caller holds at x: the gradient
    grad = grad f(x) and the certificate `cert` at the same x, whose scalar
    `L_used` is the rule's on the prox path.  With g = grad, theta(S, x) is
    g_S' inv(M_S) g_S / ||g||^2 on the smooth path and
    sum_{i in S} lam_i / (L lambda_total) on the scalar-L path, so

        rule        smooth path                       scalar-L path
        uniform     mean_i(g_i^2 / M_ii) / ||g||^2    1 / (n L)
        importance  1 / trace(M)                      (not offered)
        nice:tau    g' E[inv(M_S)] g / ||g||^2        tau / (n L)

    and zero where the certificate vanishes.  E[inv(M_S)] is
    `Objective.expected_inverse`; past the rule's enumeration budget it
    raises EnumerationTooLargeError.  No gradient or certificate is
    evaluated here; a deterministic rule's theta is `engine.proportion` of
    the set it selects.
    """
    if not rule.row.randomized:
        raise ValueError(
            f"no expectation defined for deterministic rule {rule.name!r}")
    rule.refuse_off_path(problem)
    if cert.lambda_total <= 0.0:
        return 0.0
    if not problem.smooth_path:
        return rule.max_block_size / (problem.dim * cert.L_used)
    diagonal = problem.objective.diagonal
    if rule.kind == "importance_coord":
        return 1.0 / float(diagonal.sum())
    g2 = float(grad @ grad)
    if rule.kind == "uniform_coord":
        return float(np.mean(grad * grad / diagonal)) / g2
    E = problem.objective.expected_inverse(rule.tau, rule.budget)
    if E is None:
        raise EnumerationTooLargeError(f"C({rule.n},{rule.tau}) exceeds budget {rule.budget}")
    return float(grad @ E @ grad) / g2
