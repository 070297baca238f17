"""Batched subset computations against per-subset oracles: index-array
enumeration, L_tau, the exact greedy-minibatch scores and the forward-greedy
fallback, and the caches on the objective that hold them."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockprox import linalg, objectives, rates, selection
from blockprox.descent import RunConfig, empirical_optimum, run
from blockprox.linalg import (
    EnumerationTooLargeError,
    InvalidSetError,
    eig_extremes,
    subset_count,
    subset_index_chunks,
)
from blockprox.objectives import (
    CompositeProblem,
    gen_instance,
    make_quadratic,
    random_spd,
)
from blockprox.selection import parse_rule, select


# -- per-subset oracles -----------------------------------------------------

def _L_tau_loop(M, tau):
    """One principal submatrix at a time, as L_tau was first written."""
    n = M.shape[0]
    return max(eig_extremes(M[np.ix_(S, S)])[1]
               for S in map(list, itertools.combinations(range(n), tau)))


class _EinsumForms:
    """Exact greedy-minibatch tables as first written: every subset's full
    inverse block, scored by one three-operand einsum."""

    def __init__(self, M, tau):
        n = M.shape[0]
        self.subsets = np.array(list(itertools.combinations(range(n), tau)),
                                dtype=np.intp).reshape(-1, tau)
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
    assert [tuple(r) for r in stacked.tolist()] == list(
        itertools.combinations(range(n), tau))
    assert len(stacked) == subset_count(n, tau)


def _itertools_chunks(n, tau, budget=linalg.DEFAULT_ENUMERATION_BUDGET, rows=2**16):
    """The walk as first written: rows of itertools.combinations, `rows` at a time."""
    if subset_count(n, tau) > budget:
        raise EnumerationTooLargeError(f"C({n},{tau}) exceeds {budget}")
    combos = itertools.combinations(range(n), tau)
    row = np.dtype((np.intp, tau))
    while len(chunk := np.fromiter(itertools.islice(combos, rows), dtype=row)):
        yield chunk


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 14).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.one_of(st.integers(1, 40), st.integers(3500, 4000)))))
# n = 1, tau = 1, tau = n, rows = 1 and rows > C(n, tau) (C(14, 7) = 3432) always
@example((1, 1, 1))
@example((5, 1, 1))
@example((5, 5, 1))
@example((6, 3, 10**6))
@example((14, 7, 1))
def test_subset_index_chunks_equal_itertools_chunks(case):
    n, tau, rows = case
    chunks = list(subset_index_chunks(n, tau, rows=rows))
    oracle = list(_itertools_chunks(n, tau, rows=rows))
    assert len(chunks) == len(oracle)
    for got, want in zip(chunks, oracle):
        assert got.dtype == want.dtype == np.intp and np.array_equal(got, want)


def test_subset_index_chunks_raise_before_yielding():
    # raised by the call itself, before a chunk is requested or built
    with pytest.raises(EnumerationTooLargeError):
        subset_index_chunks(40, 20, budget=1000)
    with pytest.raises(InvalidSetError):
        subset_index_chunks(4, 0)
    with pytest.raises(InvalidSetError):
        subset_index_chunks(4, 5)
    assert sum(len(c) for c in subset_index_chunks(6, 3, budget=20, rows=3)) == 20


def test_subset_index_chunks_refuse_ranks_past_int64_whatever_the_budget():
    # C(100, 50) ~ 1.0e29 ranks do not fit in int64: refused by the call
    with pytest.raises(EnumerationTooLargeError, match="int64"):
        subset_index_chunks(100, 50, budget=10**40)
    # the largest C(n, n // 2) below 2**63 - 1 walks from its first row
    assert subset_count(66, 33) < 2**63 <= subset_count(67, 33)
    first = next(subset_index_chunks(66, 33, budget=10**40, rows=2))
    assert first.tolist() == [list(range(33)), list(range(32)) + [33]]
    with pytest.raises(EnumerationTooLargeError, match="int64"):
        subset_index_chunks(67, 33, budget=10**40)


@pytest.mark.parametrize("chunk_bytes", [None, 2808])
def test_tables_bit_identical_to_an_itertools_walk(chunk_bytes, monkeypatch):
    """The greedy-minibatch tables and E[inv(M_S)] read off them, on the
    unranked walk against the same code on itertools rows, byte for byte;
    at the patched size a chunk of the forms' five 3x3 arrays holds 7 sets
    (5 * 8 * 9 * 7 = 2,520 <= 2,808 bytes), so the last chunk of
    C(12, 3) = 220 and of C(32, 3) = 4,960 sets is partial."""
    if chunk_bytes is not None:
        monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", chunk_bytes)
        assert linalg.chunk_rows(3, arrays=5) == 7
        assert all(count % 7 for count in (220, 4960))
    for M in (random_spd(12, 8.0, 3), gen_instance(200, 32, seed=2).objective.smoothness):
        got = linalg.block_inverse_forms(M, 3)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "subset_index_chunks", _itertools_chunks)
            want = linalg.block_inverse_forms(M, 3)
        got_E, want_E = map(rates.expected_inverse_matrix, (got, want))
        assert got_E.tobytes() == want_E.tobytes()
        assert got.subsets.dtype == want.subsets.dtype
        assert got.subsets.tobytes() == want.subsets.tobytes()
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got.weights, part), getattr(want.weights, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- L_tau --------------------------------------------------------------------

@pytest.mark.parametrize("n,tau", [(6, 2), (9, 3), (12, 5), (32, 4)])
def test_L_tau_batched_bit_identical_to_loop(n, tau, monkeypatch):
    M = (gen_instance(200, 32, seed=1).objective.smoothness if n == 32
         else random_spd(n, 8.0, n + tau))
    oracle = _L_tau_loop(M, tau)
    assert rates.L_tau(M, tau) == oracle
    # across chunk boundaries, the last chunk partial
    monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", 3 * 13 * 8 * tau * tau)
    assert subset_count(n, tau) % 13
    assert rates.L_tau(M, tau) == oracle


def _count_eigvalsh_blocks(monkeypatch):
    """Patch np.linalg.eigvalsh to count the matrices it is handed."""
    seen = {"blocks": 0}
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen["blocks"] += len(a) if np.ndim(a) == 3 else 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return seen


def test_L_tau_solves_at_most_five_percent_of_the_blocks(monkeypatch):
    # its bits are the loop's: test_L_tau_batched_bit_identical_to_loop[32-4]
    M = gen_instance(200, 32, seed=1).objective.smoothness
    seen = _count_eigvalsh_blocks(monkeypatch)
    rates.L_tau(M, 4)
    assert 0 < seen["blocks"] <= 0.05 * subset_count(32, 4)


def _two_equal_blocks():
    B = random_spd(4, 6.0, 7)
    M = np.zeros((8, 8))
    M[:4, :4] = M[4:, 4:] = B
    return M


@pytest.mark.parametrize("M, tau", [
    (np.eye(9), 3),                        # every block ties at 1
    (_two_equal_blocks(), 4),              # the maximum is reached twice
    (_two_equal_blocks(), 3),
    (random_spd(10, 8.0, 4) - 3.0 * np.eye(10), 4),   # indefinite
    (-random_spd(10, 8.0, 5), 3),          # every eigenvalue negative
])
def test_L_tau_pruned_walk_matches_loop_on_ties_and_indefinite_matrices(M, tau, monkeypatch):
    oracle = _L_tau_loop(M, tau)
    assert rates.L_tau(M, tau) == oracle
    monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", 3 * 7 * 8 * tau * tau)
    assert rates.L_tau(M, tau) == oracle


def test_L_tau_rejects_a_matrix_with_a_non_finite_entry():
    for bad in (np.nan, np.inf):
        M = np.eye(6)
        M[2, 3] = M[3, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning on the way
            with pytest.raises(ValueError):
                rates.L_tau(M, 3)


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
        S = select(rule, problem, 0, g)
        assert not rule.last_was_heuristic
        assert S.indices == tuple(oracle.subsets[ref.argmax()].tolist())


def test_inverse_forms_small_chunks_and_tau_one(monkeypatch):
    M = random_spd(8, 5.0, 3)
    g = np.random.default_rng(1).standard_normal(8)
    whole = linalg.block_inverse_forms(M, 3)
    monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", 5 * 8 * 9 * 5)  # five sets a chunk
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
    S = select(rule, problem, 0, g)
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
    first, second = parse_rule("greedymb:3", 10), parse_rule("greedymb:3 seed=9", 10)
    assert select(first, a, 0, g) == select(second, a, 0, g)
    assert built == [3]
    forms = a.objective.inverse_forms(3)
    assert forms is a.objective.inverse_forms(3)
    with pytest.raises(ValueError):
        forms.subsets[0, 0] = 9  # shared, so read-only
    with pytest.raises(ValueError):
        forms.weights.data[0] = 0.0
    select(parse_rule("greedymb:2", 10), a, 0, g)
    assert built == [3, 2]
    # another objective gets its own tables, and picks by its own M
    S_b = select(first, b, 0, g)
    assert built == [3, 2, 3]
    oracle = _EinsumForms(b.objective.smoothness, 3)
    assert S_b.indices == tuple(oracle.subsets[oracle.values(g).argmax()].tolist())
    assert not hasattr(first, "_exact_cache")


def test_expected_inverse_cached_on_objective(monkeypatch):
    calls = []
    original = rates.expected_inverse_matrix

    def counted(forms):
        calls.append(forms.subsets.shape[1])
        return original(forms)

    monkeypatch.setattr(rates, "expected_inverse_matrix", counted)
    problem = CompositeProblem(make_quadratic(random_spd(7, 6.0, 2)))
    rule = parse_rule("nice:3", 7)
    fclass = rates.FunctionClass("general_nonconvex")
    for _ in range(3):
        bound = rates.predict_K(rule, fclass, problem, 1e-6, 1.0)
    assert calls == [3]
    E = problem.objective.expected_inverse(3)
    forms = linalg.block_inverse_forms(problem.objective.smoothness, 3)
    assert np.array_equal(E, original(forms))
    assert bound.constant == eig_extremes(E)[0]
    with pytest.raises(ValueError):
        E[0, 0] = 0.0  # shared, so read-only
    rates.rule_constant(parse_rule("greedymb:3", 7), problem)
    problem.objective.expected_inverse(2)
    assert calls == [3, 2]


def test_expected_inverse_alone_keeps_no_large_forms_table(monkeypatch):
    """E priced on its own at C(48, 4) = 194,580 blocks leaves E allocated,
    not the 25 MB forms table it was read off, with the bits of E read off
    a kept table; once a greedymb rule has built the forms, E is read off
    them with no second walk."""
    import scipy.sparse  # noqa: F401 - imported once, outside the measurement

    built = []
    original = objectives.block_inverse_forms

    def counted(M, tau, budget):
        built.append(tau)
        return original(M, tau, budget)

    monkeypatch.setattr(objectives, "block_inverse_forms", counted)
    objective = gen_instance(200, 48, 0).objective
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        E = objective.expected_inverse(4)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    forms = objective.inverse_forms(4)
    assert forms.nbytes > 20 * 2**20 and built == [4, 4]
    assert retained < 2**18, retained
    assert E.tobytes() == rates.expected_inverse_matrix(forms).tobytes()

    other = gen_instance(200, 48, 0).objective
    assert other.inverse_forms(4) is other.inverse_forms(4)
    assert other.expected_inverse(4).tobytes() == E.tobytes()
    assert built == [4, 4, 4]


def test_pricing_and_running_greedymb_invert_each_block_once(monkeypatch):
    """Smooth nice:3 and greedymb:3 priced, then greedymb:3 run, on one
    objective: C(n, 3) blocks inverted in all, as E is the forms' mean."""
    problem = gen_instance(60, 10, seed=3)
    inverted = []
    spd_inverses = linalg.spd_inverses

    def counting(blocks):
        inverted.append(blocks.shape[2])
        return spd_inverses(blocks)

    monkeypatch.setattr(linalg, "spd_inverses", counting)
    nice, greedy = parse_rule("nice:3", 10), parse_rule("greedymb:3", 10)
    for rule in (nice, greedy):
        rates.rule_constant(rule, problem)
    rng = np.random.default_rng(11)
    select(greedy, problem, 0, rng.standard_normal(10))
    assert not greedy.last_was_heuristic
    assert sum(inverted) == subset_count(10, 3)
    forms = problem.objective.inverse_forms(3)
    E = problem.objective.expected_inverse(3)
    for _ in range(200):
        g = rng.standard_normal(10)
        assert forms.values(g).mean() == pytest.approx(g @ E @ g, rel=1e-12)


def test_forms_E_and_a_greedymb_run_call_no_lapack_inverse(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refused)
    problem = gen_instance(60, 10, seed=4)
    forms = problem.objective.inverse_forms(3)
    E = problem.objective.expected_inverse(3)
    assert forms.weights.shape == (subset_count(10, 3), 100) and E.shape == (10, 10)
    result = run(problem, parse_rule("greedymb:3", 10), RunConfig(max_iters=20))
    assert len(result.trace) == 20 and not result.trace[0].heuristic


# -- the batched SPD inverse and its failures -----------------------------------------

def _stack(*blocks):
    """Blocks stacked sets last, the layout `spd_inverses` takes."""
    return np.ascontiguousarray(np.stack(blocks, axis=2))


def test_spd_inverses_match_lapack_and_are_exactly_symmetric():
    rng = np.random.default_rng(6)
    for tau in (1, 2, 3, 5, 8):
        blocks = np.stack([random_spd(tau, 1.0 + 50.0 * rng.random(), int(s))
                           for s in rng.integers(0, 2**31, 40)])
        got = linalg.spd_inverses(_stack(*blocks)).transpose(2, 0, 1)
        want = np.linalg.inv(blocks)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(got, got.transpose(0, 2, 1))
    assert linalg.spd_inverses(np.empty((3, 3, 0))).shape == (3, 3, 0)


def test_spd_inverses_name_the_first_set_that_is_not_positive_definite():
    """Block 1 fails only at its third pivot, after block 3 has failed at
    its first: the first failing set in stack order is named, and no
    RuntimeWarning is emitted on the way (no square root of a negative)."""
    good = np.eye(3)
    late = np.diag([1.0, 2.0, -1.0])
    early = -np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stack, first in (((good, late, good, early), 1), ((early, late), 0),
                             ((good, good, late), 2), ((good, np.zeros((3, 3))), 1)):
            with pytest.raises(linalg.NotPositiveDefiniteError) as caught:
                linalg.spd_inverses(_stack(*stack))
            assert caught.value.block == first
            assert f"block {first} " in str(caught.value)


@pytest.mark.parametrize("chunk_bytes", [None, 5 * 8 * 9 * 4])
def test_indefinite_M_names_its_first_bad_block(chunk_bytes, monkeypatch):
    """An indefinite M whose 3x3 blocks are PD up to lexicographic set
    (1, 2, 8) (0-based (0, 1, 7)): the forms raise, naming it 1-based."""
    if chunk_bytes is not None:
        monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", chunk_bytes)  # four sets a chunk
    M = np.eye(9)
    M[1, 7] = M[7, 1] = M[0, 7] = M[7, 0] = 0.8  # det M[{0,1,7}] = 1 - 2 (0.64) < 0
    bad = [S for S in itertools.combinations(range(9), 3)
           if np.linalg.eigvalsh(M[np.ix_(S, S)])[0] <= 0]
    assert bad[0] == (0, 1, 7)
    assert list(itertools.combinations(range(9), 3)).index((0, 1, 7)) == 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(linalg.NotPositiveDefiniteError, match=r"S = \[1 2 8\]"):
            linalg.block_inverse_forms(M, 3)


# -- accuracy against the LAPACK oracle ---------------------------------------------

@pytest.mark.parametrize("tau", [1, 2, 3, 4, 5, 8])
def test_forms_and_E_match_the_lapack_oracle_across_chunk_edges(tau, monkeypatch):
    """forms.values, E and lambda_min(E) against `_EinsumForms` (one
    np.linalg.inv per block), within 1e-13 of the largest value, with
    chunks of 7 sets so that chunk edges and a partial last chunk fall in
    every table (C(12, tau) is not a multiple of 7 for these tau)."""
    monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", 5 * 8 * tau * tau * 7)
    assert linalg.chunk_rows(tau, arrays=5) == 7 and subset_count(12, tau) % 7
    tol = 1e-13
    rng = np.random.default_rng(tau)
    for M in (random_spd(12, 30.0, tau), gen_instance(40, 12, seed=tau).objective.smoothness):
        oracle = _EinsumForms(M, tau)
        forms = linalg.block_inverse_forms(M, tau)
        assert np.array_equal(forms.subsets, oracle.subsets)
        for _ in range(5):
            g = rng.standard_normal(12)
            want = oracle.values(g)
            assert np.abs(forms.values(g) - want).max() <= tol * np.abs(want).max()
        E = rates.expected_inverse_matrix(forms)
        want_E = np.zeros_like(M)
        for S, inv in zip(oracle.subsets, oracle.inv):
            want_E[np.ix_(S, S)] += inv
        want_E /= len(oracle.subsets)
        assert np.array_equal(E, E.T)
        assert np.abs(E - want_E).max() <= tol * np.abs(want_E).max()
        lam, want_lam = eig_extremes(E)[0], eig_extremes((want_E + want_E.T) / 2)[0]
        assert abs(lam - want_lam) <= tol * eig_extremes(want_E)[1]


@pytest.mark.parametrize("n, tau", [(32, 4), (16, 8), (20, 3)])
def test_forms_build_stays_within_the_chunk_bytes(n, tau):
    """One build's traced peak above the tables it returns stays within
    SUBSET_CHUNK_BYTES plus 64 KiB of slack: the chunk's index rows, the
    walk's rank rows and the pair-weight copy are sized by rows, not by
    the table."""
    M = random_spd(n, 8.0, 1)
    linalg.block_inverse_forms(M, tau)  # the lazy scipy.sparse import, untraced
    tracemalloc.start()
    try:
        forms = linalg.block_inverse_forms(M, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    w = forms.weights
    tables = forms.subsets.nbytes + w.data.nbytes + w.indices.nbytes + w.indptr.nbytes
    assert peak - tables <= linalg.SUBSET_CHUNK_BYTES + 2**16


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
    _assert_twins(batched, oracle, 40)


def _assert_twins(batched, oracle, iters):
    """Same blocks and L_used; F, xi, lambda and theta within 1e-12 relative."""
    for spec, result in batched.items():
        twin = oracle[spec]
        assert (result.L_used, result.L_used_source) == (twin.L_used, twin.L_used_source)
        rows, twin_rows = _trace_rows(result), _trace_rows(twin)
        assert len(rows) == len(twin_rows) == iters
        for row, ref in zip(rows, twin_rows):
            assert row[0] == ref[0]
            for got, want in zip(row[1:], ref[1:]):
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("seed", [2, 7])
def test_exact_greedymb_twin_runs_on_a_small_instance(seed, monkeypatch):
    """Exact greedymb:3 and greedymb:5 on gen_instance(48, 16), 40
    iterations each with diagnostics, against twins scored by
    `_EinsumForms` (one np.linalg.inv per block): the same blocks."""
    def campaign():
        problem = gen_instance(48, 16, seed=seed)
        empirical_optimum(problem)
        return {spec: run(problem, parse_rule(spec, 16, default_seed=seed),
                          RunConfig(max_iters=40, record_diagnostics=True))
                for spec in ("greedymb:3", "greedymb:5")}

    batched = campaign()
    with monkeypatch.context() as patch:
        patch.setattr(objectives, "block_inverse_forms",
                      lambda M, tau, budget: _EinsumForms(M, tau))
        oracle = campaign()
    assert not any(r.trace[0].heuristic for r in batched.values())
    _assert_twins(batched, oracle, 40)
