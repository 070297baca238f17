"""Block selection procedures: deterministic, randomized, and greedy,
serial and minibatch.

Config grammar: ``full | uniform | importance | greedy | cyclic |
nice:<tau> | greedymb:<tau>`` optionally followed by ``seed=<u64>``.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from . import engine
from .linalg import (
    DEFAULT_ENUMERATION_BUDGET,
    CoordSet,
    subset_count,
)
from .objectives import CompositeProblem

SERIAL_KINDS = ("uniform_coord", "importance_coord", "greedy_coord", "cyclic_coord")
MINIBATCH_KINDS = ("tau_nice", "greedy_minibatch")
ALL_KINDS = ("full_batch",) + SERIAL_KINDS + MINIBATCH_KINDS

RANDOMIZED_KINDS = ("uniform_coord", "importance_coord", "tau_nice")

# config name -> kind; minibatch names take ":<tau>"
RULE_KINDS = {
    "full": "full_batch",
    "uniform": "uniform_coord",
    "importance": "importance_coord",
    "greedy": "greedy_coord",
    "cyclic": "cyclic_coord",
    "nice": "tau_nice",
    "greedymb": "greedy_minibatch",
}
RULE_NAMES = {kind: name for name, kind in RULE_KINDS.items()}


class BlockRule:
    def __init__(self, kind: str, n: int, tau: Optional[int] = None, seed: int = 0,
                 budget: int = DEFAULT_ENUMERATION_BUDGET):
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown selection kind {kind!r}")
        if kind in MINIBATCH_KINDS:
            if tau is None or not 1 <= tau <= n:
                raise ValueError(f"minibatch rule needs tau in [1, {n}], got {tau}")
        else:
            tau = None
        self.kind = kind
        self.n = n
        self.tau = tau
        self.seed = seed
        self.budget = budget
        self.rng = np.random.default_rng(seed)
        self.last_was_heuristic = False

    @functools.cached_property
    def singletons(self) -> tuple[CoordSet, ...]:
        """The n one-coordinate sets, built and validated once per rule."""
        return tuple(CoordSet((i,), self.n) for i in range(self.n))

    @functools.cached_property
    def full_set(self) -> CoordSet:
        return CoordSet.full(self.n)

    @property
    def max_block_size(self) -> int:
        if self.kind == "full_batch":
            return self.n
        if self.kind in SERIAL_KINDS:
            return 1
        return self.tau

    @property
    def is_randomized(self) -> bool:
        return self.kind in RANDOMIZED_KINDS

    @property
    def name(self) -> str:
        name = RULE_NAMES[self.kind]
        return f"{name}:{self.tau}" if self.kind in MINIBATCH_KINDS else name

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
    kind = RULE_KINDS.get(head)
    if kind is None:
        raise ValueError(f"unknown rule {head!r}")
    return BlockRule(kind, n, tau=tau, seed=seed, budget=budget)


def _tau_nice_draw(rule: BlockRule) -> CoordSet:
    """Fisher-Yates partial shuffle of a Python list: exactly uniform over
    cardinality-tau sets, one scalar `rng.integers(n - j)` draw per position
    (cheaper than one vector draw of the same stream while tau is small)."""
    n, tau, integers = rule.n, rule.tau, rule.rng.integers
    arr = list(range(n))
    for j in range(tau):
        swap = j + int(integers(n - j))
        arr[j], arr[swap] = arr[swap], arr[j]
    return CoordSet(tuple(sorted(arr[:tau])), n)


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
    draw from their own generator.  No path evaluates a gradient."""
    rule.last_was_heuristic = False
    n = rule.n
    kind = rule.kind
    if kind == "full_batch":
        return rule.full_set
    if kind == "uniform_coord":
        return rule.singletons[rule.rng.integers(n)]
    if kind == "cyclic_coord":
        return rule.singletons[k % n]
    if kind == "importance_coord":
        if not problem.smooth_path:
            raise ValueError("importance sampling has no scalar-L guarantee; "
                             "not offered for nonsmooth problems")
        # the draw rng.choice(n, p=diag(M) / trace(M)) makes, without
        # re-validating p on every call
        cdf = problem.objective.importance_cdf
        return rule.singletons[cdf.searchsorted(rule.rng.random(), side="right")]
    if kind == "tau_nice":
        return _tau_nice_draw(rule)

    if problem.smooth_path:
        if kind == "greedy_coord":
            scores = grad * grad / np.diag(problem.objective.smoothness)
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
    `Objective.expected_inverse`; its Monte-Carlo estimate past the
    enumeration budget, flagged by a warning, is the only sampled path.
    No gradient or certificate is evaluated here; a deterministic rule's
    theta is `engine.proportion` of the set it selects.
    """
    if not rule.is_randomized:
        raise ValueError(
            f"no expectation defined for deterministic rule {rule.name!r}")
    if rule.kind == "importance_coord" and not problem.smooth_path:
        raise ValueError("importance sampling is smooth-only")
    if cert.lambda_total <= 0.0:
        return 0.0
    if not problem.smooth_path:
        return rule.max_block_size / (problem.dim * cert.L_used)
    M = problem.objective.smoothness
    if rule.kind == "importance_coord":
        return 1.0 / float(np.diag(M).sum())
    g2 = float(grad @ grad)
    if rule.kind == "uniform_coord":
        return float(np.mean(grad * grad / np.diag(M))) / g2
    E = problem.objective.expected_inverse(rule.tau, rule.budget)
    return float(grad @ E @ grad) / g2
