"""Block selection procedures: deterministic, randomized, and greedy,
serial and minibatch.

What a selection kind is lives in its row of `KINDS`.  Config grammar:
``full | uniform | importance | greedy | cyclic | nice:<tau> |
greedymb:<tau>`` optionally followed by ``seed=<u64>``.
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
    subset_count,
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
        self.is_randomized = row.randomized
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
    return CoordSet(tuple(sorted(chosen)), n)


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


def _greedy_minibatch_smooth(rule: BlockRule, problem, grad: np.ndarray) -> CoordSet:
    objective = problem.objective
    if subset_count(rule.n, rule.tau) <= rule.budget:
        forms = objective.inverse_forms(rule.tau, rule.budget)
        best = int(forms.values(grad).argmax())  # first max: lexicographic tie-break
        return CoordSet(tuple(forms.subsets[best].tolist()), rule.n)
    rule.last_was_heuristic = True
    chosen = _forward_greedy(objective.smoothness, grad, rule.tau)
    return CoordSet(tuple(sorted(chosen)), rule.n)


def select(rule: BlockRule, problem: CompositeProblem, k: int, grad: np.ndarray,
           lambda_per_coord: Optional[np.ndarray] = None) -> CoordSet:
    """The active coordinate set of iteration k, from what the rule reads of
    the current iterate: the counter k (cyclic), the gradient grad f(x)
    (smooth greedy rules) or the per-coordinate certificate (greedy rules on
    the prox path, which raise ValueError without it).  The random rules
    draw from their own generator.  No path evaluates a gradient.  A rule
    the prox path does not offer raises ValueError there."""
    rule.last_was_heuristic = False
    rule.refuse_off_path(problem)
    n = rule.n
    kind = rule.kind
    if kind == "full_batch":
        return rule.full_set
    if kind == "uniform_coord":
        draws = rule._draws
        return rule.singletons[_bounded_draw(draws.next_uint32, draws.state, n)]
    if kind == "cyclic_coord":
        return rule.singletons[k % n]
    if kind == "importance_coord":
        # the draw rng.choice(n, p=diag(M) / trace(M)) makes, without
        # re-validating p on every call: one rng.random(), located in the
        # CDF as searchsorted(side="right") would
        draws = rule._draws
        u = draws.next_double(draws.state)
        return rule.singletons[bisect.bisect_right(problem.objective.importance_cdf, u)]
    if kind == "tau_nice":
        return _tau_nice_draw(rule)

    if problem.smooth_path:
        if kind == "greedy_coord":
            scores = grad * grad / problem.objective.diagonal
            return rule.singletons[scores.argmax()]
        return _greedy_minibatch_smooth(rule, problem, grad)
    if lambda_per_coord is None:
        raise ValueError("greedy selection on a nonsmooth problem needs "
                         "per-coordinate certificates")
    if kind == "greedy_coord":
        return rule.singletons[np.argmax(lambda_per_coord)]
    order = np.argsort(-lambda_per_coord, kind="stable")  # ties resolve to lowest index
    return CoordSet(tuple(sorted(int(i) for i in order[: rule.tau])), n)


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
    `Objective.expected_inverse`, which raises EnumerationTooLargeError
    past the rule's enumeration budget.  No gradient or certificate is
    evaluated here; a deterministic rule's theta is `engine.proportion` of
    the set it selects.
    """
    if not rule.is_randomized:
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
    return float(grad @ E @ grad) / g2
