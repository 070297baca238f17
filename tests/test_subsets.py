"""Batched subset computations against per-subset oracles: index-array
enumeration, L_tau, the exact greedy-minibatch scores and the forward-greedy
fallback, and the caches on the objective that hold them."""

import warnings

import numpy as np
import pytest

from blockprox import linalg, objectives, rates, selection
from blockprox.descent import RunConfig, empirical_optimum, run
from blockprox.linalg import (
    EnumerationTooLargeError,
    InvalidSetError,
    eig_extremes,
    enumerate_subsets,
    subset_count,
    subset_index_chunks,
)
from blockprox.objectives import CompositeProblem, gen_instance, make_quadratic
from blockprox.selection import SelectionContext, parse_rule, select


def _random_spd(n, cond, seed):
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    return (Q * np.linspace(1.0, cond, n)) @ Q.T


# -- per-subset oracles -----------------------------------------------------

def _L_tau_loop(M, tau):
    """One principal submatrix at a time, as L_tau was first written."""
    n = M.shape[0]
    return max(eig_extremes(M[np.ix_(S.array, S.array)])[1]
               for S in enumerate_subsets(n, tau))


class _EinsumForms:
    """Exact greedy-minibatch tables as first written: every subset's full
    inverse block, scored by one three-operand einsum."""

    def __init__(self, M, tau):
        n = M.shape[0]
        self.subsets = np.array([S.indices for S in enumerate_subsets(n, tau)],
                                dtype=np.intp)
        self.inv = np.linalg.inv(M[self.subsets[:, :, None], self.subsets[:, None, :]])

    def values(self, g):
        gs = g[self.subsets]
        return np.einsum("ni,nij,nj->n", gs, self.inv, gs)


def _forward_greedy_loop(M, grad, tau):
    """Forward greedy as first written: every candidate block solved anew."""
    chosen = []
    for _ in range(tau):
        best_i, best_val = -1, -np.inf
        for i in range(len(grad)):
            if i in chosen:
                continue
            idx = np.asarray(sorted(chosen + [i]), dtype=np.intp)
            g_S = grad[idx]
            val = float(g_S @ np.linalg.solve(M[np.ix_(idx, idx)], g_S))
            if val > best_val:  # strict: ties keep the lowest index
                best_i, best_val = i, val
        chosen.append(best_i)
    return chosen


# -- enumeration ------------------------------------------------------------

@pytest.mark.parametrize("n,tau,rows", [(5, 3, 1), (7, 3, 4), (9, 4, 1000), (6, 6, 2)])
def test_subset_index_chunks_lexicographic_rows(n, tau, rows):
    chunks = list(subset_index_chunks(n, tau, rows=rows))
    assert all(c.dtype == np.intp and c.shape[1] == tau and 1 <= len(c) <= rows
               for c in chunks)
    stacked = np.concatenate(chunks)
    assert [tuple(r) for r in stacked.tolist()] == [
        S.indices for S in enumerate_subsets(n, tau)]
    assert len(stacked) == subset_count(n, tau)


def test_subset_index_chunks_raise_before_yielding():
    # raised by the call itself, before a chunk is requested or built
    with pytest.raises(EnumerationTooLargeError):
        subset_index_chunks(40, 20, budget=1000)
    with pytest.raises(InvalidSetError):
        subset_index_chunks(4, 0)
    with pytest.raises(InvalidSetError):
        subset_index_chunks(4, 5)
    assert sum(len(c) for c in subset_index_chunks(6, 3, budget=20, rows=3)) == 20


# -- L_tau --------------------------------------------------------------------

@pytest.mark.parametrize("n,tau", [(6, 2), (9, 3), (12, 5), (32, 4)])
def test_L_tau_batched_bit_identical_to_loop(n, tau, monkeypatch):
    M = (gen_instance(200, 32, seed=1).objective.smoothness if n == 32
         else _random_spd(n, 8.0, n + tau))
    oracle = _L_tau_loop(M, tau)
    assert rates.L_tau(M, tau) == oracle
    # across chunk boundaries, the last chunk partial
    monkeypatch.setattr(rates, "EIGVALSH_CHUNK_BYTES", 13 * 8 * tau * tau)
    assert subset_count(n, tau) % 13
    assert rates.L_tau(M, tau) == oracle


# -- exact greedy-minibatch scores ---------------------------------------------

def test_inverse_forms_match_einsum_oracle_on_200_gradients():
    problem = gen_instance(200, 32, seed=1)
    M = problem.objective.smoothness
    oracle = _EinsumForms(M, 4)
    forms = problem.objective.inverse_forms(4)
    assert np.array_equal(forms.subsets, oracle.subsets)
    rule = parse_rule("greedymb:4", 32)
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = rng.standard_normal(32)
        ref = oracle.values(g)
        got = forms.values(g)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        S = select(rule, problem, SelectionContext(x=np.zeros(32), grad=g))
        assert not rule.last_was_heuristic
        assert S.indices == tuple(oracle.subsets[ref.argmax()].tolist())


def test_inverse_forms_small_chunks_and_tau_one(monkeypatch):
    M = _random_spd(8, 5.0, 3)
    g = np.random.default_rng(1).standard_normal(8)
    whole = linalg.block_inverse_forms(M, 3)
    monkeypatch.setattr(linalg, "FORMS_CHUNK_BYTES", 2 * 8 * 9 * 5)  # five sets a chunk
    chunked = linalg.block_inverse_forms(M, 3)
    assert np.array_equal(chunked.values(g), whole.values(g))
    assert np.allclose(whole.values(g), _EinsumForms(M, 3).values(g), rtol=1e-12)
    single = linalg.block_inverse_forms(M, 1)
    assert np.allclose(single.values(g), g * g / np.diag(M), rtol=1e-14)
    with pytest.raises(EnumerationTooLargeError):
        linalg.block_inverse_forms(M, 4, budget=10)


# -- forward greedy -------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(200, 32), (1000, 100)])
def test_forward_greedy_matches_nested_loop(m, n):
    M = gen_instance(m, n, seed=2).objective.smoothness
    rng = np.random.default_rng(n)
    for _ in range(20):
        g = rng.standard_normal(n)
        assert selection._forward_greedy(M, g, 8) == _forward_greedy_loop(M, g, 8)


def test_forward_greedy_masks_singular_directions():
    # column 1 repeats column 0, so once 0 is chosen d_1 = 0: adding 1 would
    # make the block singular and its Schur gain r_1^2 / d_1 infinite
    M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    g = np.array([2.0, 1.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert selection._forward_greedy(M, g, 2) == [0, 2]
        # with nothing else left, the spanned direction comes last
        assert selection._forward_greedy(M, g, 3) == [0, 2, 1]


def test_heuristic_fallback_uses_forward_greedy():
    problem = gen_instance(200, 32, seed=5)
    rule = parse_rule("greedymb:8", 32)
    assert subset_count(32, 8) > rule.budget
    g = np.random.default_rng(3).standard_normal(32)
    S = select(rule, problem, SelectionContext(x=np.zeros(32), grad=g))
    assert rule.last_was_heuristic
    assert S.indices == tuple(sorted(
        _forward_greedy_loop(problem.objective.smoothness, g, 8)))


# -- caches on the objective ------------------------------------------------------

def test_greedy_tables_built_once_per_objective_and_tau(monkeypatch):
    built = []
    original = objectives.block_inverse_forms

    def counted(M, tau, budget):
        built.append(tau)
        return original(M, tau, budget)

    monkeypatch.setattr(objectives, "block_inverse_forms", counted)
    a = gen_instance(60, 10, seed=1)
    b = gen_instance(60, 10, seed=2)
    g = np.random.default_rng(4).standard_normal(10)
    ctx = SelectionContext(x=np.zeros(10), grad=g)
    first, second = parse_rule("greedymb:3", 10), parse_rule("greedymb:3 seed=9", 10)
    assert select(first, a, ctx) == select(second, a, ctx)
    assert built == [3]
    forms = a.objective.inverse_forms(3)
    assert forms is a.objective.inverse_forms(3)
    with pytest.raises(ValueError):
        forms.subsets[0, 0] = 9  # shared, so read-only
    with pytest.raises(ValueError):
        forms.weights.data[0] = 0.0
    select(parse_rule("greedymb:2", 10), a, ctx)
    assert built == [3, 2]
    # another objective gets its own tables, and picks by its own M
    S_b = select(first, b, ctx)
    assert built == [3, 2, 3]
    oracle = _EinsumForms(b.objective.smoothness, 3)
    assert S_b.indices == tuple(oracle.subsets[oracle.values(g).argmax()].tolist())
    assert not hasattr(first, "_exact_cache")


def test_expected_inverse_cached_on_objective(monkeypatch):
    calls = []
    original = rates.expected_inverse_matrix

    def counted(M, tau, budget=linalg.DEFAULT_ENUMERATION_BUDGET, **kwargs):
        calls.append(tau)
        return original(M, tau, budget, **kwargs)

    monkeypatch.setattr(rates, "expected_inverse_matrix", counted)
    problem = CompositeProblem(make_quadratic(_random_spd(7, 6.0, 2)))
    rule = parse_rule("nice:3", 7)
    fclass = rates.FunctionClass("general_nonconvex")
    for _ in range(3):
        bound = rates.predict_K(rule, fclass, problem, 1e-6, 1.0)
    assert calls == [3]
    E = problem.objective.expected_inverse(3)
    assert np.array_equal(E, original(problem.objective.smoothness, 3))
    assert bound.constant == eig_extremes(E)[0]
    with pytest.raises(ValueError):
        E[0, 0] = 0.0  # shared, so read-only
    rates.rule_constant(parse_rule("greedymb:3", 7), problem)
    problem.objective.expected_inverse(2)
    assert calls == [3, 2]


# -- twin runs against the per-subset code ------------------------------------------

def _trace_rows(result):
    return [(r.block, r.F, r.xi, r.lam, r.theta) for r in result.trace]


@pytest.mark.parametrize("seed", [1, 5])
def test_twin_runs_match_per_subset_code(seed, monkeypatch):
    """greedymb:4 (exact tables), greedymb:8 (forward greedy) on the smooth
    instance and nice:4 (L_tau) on the L1 one, 40 iterations each, against a
    twin run on the per-subset oracles above.  Blocks and L_used must be
    identical; F, xi, lambda and theta agree to 1e-12 relative, since the
    exact score sums its terms in a different order."""
    smooth = gen_instance(200, 32, seed=seed)
    lam = 0.2 * float(np.abs(smooth.grad_f(np.zeros(32))).max())

    def campaign():
        sm = gen_instance(200, 32, seed=seed)
        l1 = gen_instance(200, 32, seed=seed, lam=lam)
        empirical_optimum(sm)
        empirical_optimum(l1)
        out = {}
        for j, (problem, spec) in enumerate(
                ((sm, "greedymb:4"), (sm, "greedymb:8"), (l1, "nice:4"))):
            rule = parse_rule(spec, 32, default_seed=seed + j)
            out[spec] = run(problem, rule, RunConfig(max_iters=40,
                                                     record_diagnostics=True))
        return out

    batched = campaign()
    with monkeypatch.context() as patch:
        patch.setattr(objectives, "block_inverse_forms",
                      lambda M, tau, budget: _EinsumForms(M, tau))
        patch.setattr(selection, "_forward_greedy", _forward_greedy_loop)
        patch.setattr(rates, "L_tau", lambda M, tau, budget: _L_tau_loop(M, tau))
        oracle = campaign()

    assert batched["greedymb:8"].trace[0].heuristic
    assert not batched["greedymb:4"].trace[0].heuristic
    for spec, result in batched.items():
        twin = oracle[spec]
        assert (result.L_used, result.L_used_source) == (twin.L_used, twin.L_used_source)
        rows, twin_rows = _trace_rows(result), _trace_rows(twin)
        assert len(rows) == len(twin_rows) == 40
        for row, ref in zip(rows, twin_rows):
            assert row[0] == ref[0]
            for got, want in zip(row[1:], ref[1:]):
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
