"""Block selection procedures: deterministic, randomized, and greedy,
serial and minibatch.

Config grammar: ``full | uniform | importance | greedy | cyclic |
nice:<tau> | greedymb:<tau>`` optionally followed by ``seed=<u64>``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .linalg import (
    DEFAULT_ENUMERATION_BUDGET,
    CoordSet,
    EnumerationTooLargeError,
    enumerate_subsets,
    subset_count,
)
from .objectives import CompositeProblem

SERIAL_KINDS = ("uniform_coord", "importance_coord", "greedy_coord", "cyclic_coord")
MINIBATCH_KINDS = ("tau_nice", "greedy_minibatch")
ALL_KINDS = ("full_batch",) + SERIAL_KINDS + MINIBATCH_KINDS

RANDOMIZED_KINDS = ("uniform_coord", "importance_coord", "tau_nice")


@dataclass
class SelectionContext:
    """Per-iteration state a rule may consult."""

    x: np.ndarray
    grad: Optional[np.ndarray] = None
    lambda_per_coord: Optional[np.ndarray] = None
    k: int = 0


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
        self._exact_cache = None  # (matrix id, subsets, inverse blocks)

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
        if self.kind == "tau_nice":
            return f"nice:{self.tau}"
        if self.kind == "greedy_minibatch":
            return f"greedymb:{self.tau}"
        return {
            "full_batch": "full",
            "uniform_coord": "uniform",
            "importance_coord": "importance",
            "greedy_coord": "greedy",
            "cyclic_coord": "cyclic",
        }[self.kind]

    def clone(self, seed: Optional[int] = None) -> "BlockRule":
        return BlockRule(self.kind, self.n, tau=self.tau,
                         seed=self.seed if seed is None else seed,
                         budget=self.budget)

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
    kind = {
        "full": "full_batch",
        "uniform": "uniform_coord",
        "importance": "importance_coord",
        "greedy": "greedy_coord",
        "cyclic": "cyclic_coord",
        "nice": "tau_nice",
        "greedymb": "greedy_minibatch",
    }.get(head)
    if kind is None:
        raise ValueError(f"unknown rule {head!r}")
    return BlockRule(kind, n, tau=tau, seed=seed, budget=budget)


def importance_probabilities(problem: CompositeProblem) -> np.ndarray:
    d = np.diag(problem.objective.smoothness)
    return d / d.sum()


def _tau_nice_draw(rule: BlockRule) -> CoordSet:
    # Fisher-Yates partial shuffle: exactly uniform over cardinality-tau sets
    arr = np.arange(rule.n)
    for j in range(rule.tau):
        swap = j + int(rule.rng.integers(rule.n - j))
        arr[j], arr[swap] = arr[swap], arr[j]
    return CoordSet(tuple(sorted(int(i) for i in arr[: rule.tau])), rule.n)


def _greedy_exact_tables(rule: BlockRule, M: np.ndarray):
    key = id(M)
    if rule._exact_cache is None or rule._exact_cache[0] != key:
        subsets = np.array(
            [s.indices for s in enumerate_subsets(rule.n, rule.tau, rule.budget)],
            dtype=np.intp,
        )
        blocks = M[subsets[:, :, None], subsets[:, None, :]]
        rule._exact_cache = (key, subsets, np.linalg.inv(blocks))
    return rule._exact_cache[1], rule._exact_cache[2]


def _greedy_minibatch_smooth(rule: BlockRule, problem, grad: np.ndarray) -> CoordSet:
    M = problem.objective.smoothness
    if subset_count(rule.n, rule.tau) <= rule.budget:
        subsets, inv = _greedy_exact_tables(rule, M)
        g = grad[subsets]
        dec = np.einsum("ni,nij,nj->n", g, inv, g)
        best = int(dec.argmax())  # first max: lexicographic tie-break
        return CoordSet(tuple(int(i) for i in subsets[best]), rule.n)
    # Forward-greedy heuristic: grow the block one coordinate at a time,
    # maximizing the block model decrease at each round.
    rule.last_was_heuristic = True
    chosen: list[int] = []
    for _ in range(rule.tau):
        best_i, best_val = -1, -np.inf
        for i in range(rule.n):
            if i in chosen:
                continue
            trial = sorted(chosen + [i])
            idx = np.asarray(trial, dtype=np.intp)
            g_S = grad[idx]
            val = float(g_S @ np.linalg.solve(M[np.ix_(idx, idx)], g_S))
            if val > best_val:  # strict: ties keep the lowest index
                best_i, best_val = i, val
        chosen.append(best_i)
    return CoordSet(tuple(sorted(chosen)), rule.n)


def select(rule: BlockRule, problem: CompositeProblem, ctx: SelectionContext) -> CoordSet:
    """Produce the active coordinate set for one iteration."""
    rule.last_was_heuristic = False
    n = rule.n
    kind = rule.kind
    if kind == "full_batch":
        return CoordSet.full(n)
    if kind == "uniform_coord":
        return CoordSet((int(rule.rng.integers(n)),), n)
    if kind == "cyclic_coord":
        return CoordSet((ctx.k % n,), n)
    if kind == "importance_coord":
        if not problem.smooth_path:
            raise ValueError("importance sampling has no scalar-L guarantee; "
                             "not offered for nonsmooth problems")
        # the draw rng.choice(n, p=importance_probabilities(problem)) makes,
        # without re-validating p on every call
        cdf = problem.objective.importance_cdf
        return CoordSet((int(cdf.searchsorted(rule.rng.random(), side="right")),), n)
    if kind == "tau_nice":
        return _tau_nice_draw(rule)

    # Greedy kinds need gradient (smooth) or per-coordinate certificates.
    if problem.smooth_path:
        grad = ctx.grad if ctx.grad is not None else problem.grad_f(ctx.x)
        if kind == "greedy_coord":
            scores = grad * grad / np.diag(problem.objective.smoothness)
            return CoordSet((int(scores.argmax()),), n)
        return _greedy_minibatch_smooth(rule, problem, grad)
    lam = ctx.lambda_per_coord
    if lam is None:
        raise ValueError("greedy selection on a nonsmooth problem needs "
                         "per-coordinate certificates in the context")
    if kind == "greedy_coord":
        return CoordSet((int(np.argmax(lam)),), n)
    order = np.argsort(-lam, kind="stable")  # ties resolve to lowest index
    return CoordSet(tuple(sorted(int(i) for i in order[: rule.tau])), n)


def exact_expected_theta(
    rule: BlockRule,
    problem: CompositeProblem,
    x: np.ndarray,
    L=None,
    mc_samples: int = 100_000,
) -> float:
    """E[theta(S, x) | x] with exact probabilities over the rule's support.

    Falls back to Monte-Carlo (with a warning carrying the standard error)
    when the tau-nice support exceeds the enumeration budget.
    """
    grad = problem.grad_f(x)
    cert = engine.certificate(problem, x, L, grad=grad)
    n = problem.dim

    def theta(S):
        return engine.proportion(problem, x, S, cert=cert, grad=grad)

    if rule.kind == "full_batch":
        return theta(CoordSet.full(n))
    if rule.kind == "uniform_coord":
        return float(np.mean([theta(CoordSet((i,), n)) for i in range(n)]))
    if rule.kind == "importance_coord":
        if not problem.smooth_path:
            raise ValueError("importance sampling is smooth-only")
        p = importance_probabilities(problem)
        return float(sum(p[i] * theta(CoordSet((i,), n)) for i in range(n)))
    if rule.kind == "tau_nice":
        try:
            vals = [theta(S) for S in enumerate_subsets(n, rule.tau, rule.budget)]
        except EnumerationTooLargeError:
            draws = rule.clone(seed=rule.seed)
            samples = np.array(
                [theta(_tau_nice_draw(draws)) for _ in range(mc_samples)]
            )
            stderr = samples.std(ddof=1) / np.sqrt(mc_samples)
            warnings.warn(
                f"tau-nice support too large to enumerate; Monte-Carlo estimate "
                f"over {mc_samples} draws, standard error {stderr:.3e}"
            )
            return float(samples.mean())
        return float(np.mean(vals))
    raise ValueError(f"no expectation defined for deterministic rule {rule.name!r}")
