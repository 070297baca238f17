"""The block path: a step on a block of two or more coordinates solves
M[S, S] u = -g_S by one LAPACK `dposv` on a `take` gather (a full step by M's
own factor, made and kept at construction), draws a tau-nice set by a
Fisher-Yates shuffle over a dict of moved positions with one bounded draw
through the generator's C entry point per position, reads the set's cached
index array, moves M x by u_S' times the contiguous rows S of the exactly
symmetric M, and steps the full set on grad and x without a gather.  Each
gives the same bits as the generic operations it replaces:
`scipy.linalg.cho_factor` and `cho_solve` behind `np.ix_`, the Fisher-Yates
draw on a numpy array with `rng.integers`, the column gather
M[:, S] @ u_S, `mask_vector`, and a scatter of u_S into a copy of x.  On the L1 path every step reads its
entries at S off the iteration's certificate, with the bits of the prox
model evaluated on the block's gather.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from blockprox import engine, linalg, objectives, rates
from blockprox.descent import RunConfig, empirical_optimum, run
from blockprox.linalg import (
    CoordSet,
    InvalidSetError,
    NotPositiveDefiniteError,
    spd_factor,
    spd_solve,
)
from blockprox.objectives import (
    MX_REFRESH_SWEEPS,
    CompositeProblem,
    gen_instance,
    make_quadratic,
    random_spd,
)
from blockprox.selection import (
    BlockRule,
    _tau_nice_draw,
    parse_rule,
    select,
)


def _bits(value) -> str | None:
    """float.hex tells -0.0 from 0.0 and matches nan to nan; None stays None."""
    return None if value is None else float.hex(float(value))


def mask_vector(x, S: CoordSet) -> np.ndarray:
    """Entries of x with indices in S, as a dense |S|-vector: the gather
    oracle of the block path."""
    x = np.asarray(x, dtype=float)
    if x.shape != (S.ambient_dim,):
        raise InvalidSetError(
            f"vector of dim {x.shape} does not match ambient dim {S.ambient_dim}"
        )
    return x[S.array]


def test_mask_and_embed_are_adjoint():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(7)
    S = CoordSet((1, 3, 6), 7)
    u = mask_vector(x, S)
    assert u.tolist() == [x[1], x[3], x[6]]
    e = np.zeros(7)
    e[S.array] = u  # the scatter onto S, zeros elsewhere
    assert e[1] == x[1] and e[0] == 0.0 and e[5] == 0.0
    # <embed(u), y> == <u, mask(y)>
    y = rng.standard_normal(7)
    assert math.isclose(float(e @ y), float(u @ mask_vector(y, S)))


def test_mask_embed_shape_errors():
    S = CoordSet((0, 1), 3)
    with pytest.raises(InvalidSetError):
        mask_vector(np.zeros(4), S)


def _arange_draw(rng, n, tau):
    """The tau-nice draw as a Fisher-Yates partial shuffle of np.arange(n)."""
    arr = np.arange(n)
    for j in range(tau):
        swap = j + int(rng.integers(n - j))
        arr[j], arr[swap] = arr[swap], arr[j]
    return tuple(sorted(int(i) for i in arr[:tau]))


@pytest.mark.parametrize("n, tau", [(100, 8), (12, 3), (32, 4), (5, 5)])
def test_tau_nice_draw_matches_arange_shuffle(n, tau):
    for seed in range(60):
        rule = BlockRule("tau_nice", n, tau=tau, seed=seed)
        oracle = np.random.default_rng(seed)
        for _ in range(30):
            S = _tau_nice_draw(rule)
            assert S.indices == _arange_draw(oracle, n, tau), seed
            assert S.ambient_dim == n
        assert rule.rng.bit_generator.state == oracle.bit_generator.state


def _same_set(S, n):
    """S equals the set the public constructor checks and builds from its
    indices: indices, array bytes and flags, block text, ==, hash."""
    ref = CoordSet(S.indices, n)
    assert all(type(i) is int for i in S.indices)
    assert S.indices == ref.indices and S.ambient_dim == ref.ambient_dim == n
    assert S.array.dtype == np.intp and S.array.tobytes() == ref.array.tobytes()
    assert not S.array.flags.writeable
    assert S.block_text == ref.block_text
    assert S == ref and hash(S) == hash(ref)


@pytest.mark.parametrize("tau", [1, 2, 8, 100])
def test_tau_nice_draws_equal_checked_sets(tau):
    rule = BlockRule("tau_nice", 100, tau=tau, seed=tau)
    for _ in range(1000):
        _same_set(_tau_nice_draw(rule), 100)


def test_greedy_minibatch_picks_equal_checked_sets():
    smooth = gen_instance(60, 12, 1)
    l1 = CompositeProblem(smooth.objective, objectives.make_l1(0.01))
    rng = np.random.default_rng(0)
    # exact tables (C(12, 3)), the forward-greedy heuristic past a budget of
    # 100 subsets, and the certificate order on the L1 path
    rules = [(smooth, BlockRule("greedy_minibatch", 12, tau=3)),
             (smooth, BlockRule("greedy_minibatch", 12, tau=5, budget=100)),
             (l1, BlockRule("greedy_minibatch", 12, tau=4))]
    for problem, rule in rules:
        for k in range(50):
            grad = rng.standard_normal(12)
            S = select(rule, problem, k, grad, 0.5 * grad * grad)
            assert len(S) == rule.tau
            _same_set(S, 12)


def test_public_constructor_still_checks_what_draws_skip():
    for bad in [(), (3, 1), (2, 2), (-1, 4), (0, 12)]:
        with pytest.raises(InvalidSetError):
            CoordSet(bad, 12)


def _principal_blocks():
    """Principal submatrices of a least-squares-plus-cosine M and of a
    conditioned SPD matrix, of sizes 1 to 40, at seeded random index sets."""
    rng = np.random.default_rng(3)
    for M in (gen_instance(300, 60, 1).objective.smoothness, random_spd(60, 1e6, 2)):
        for size in (1, 2, 3, 5, 8, 13, 40, 60):
            for _ in range(5):
                idx = np.sort(rng.choice(60, size, replace=False))
                yield M[np.ix_(idx, idx)]


def test_spd_factor_bytes_match_cho_factor():
    """`spd_factor` gives the factor `cho_factor` does, and `spd_solve` the
    solution of `cho_solve` with it."""
    rng = np.random.default_rng(4)
    for block in _principal_blocks():
        c, lower = spd_factor(block)
        c_ref, lower_ref = scipy.linalg.cho_factor(block, lower=True)
        assert lower is lower_ref is True
        assert c.tobytes() == c_ref.tobytes()
        assert c.flags.f_contiguous == c_ref.flags.f_contiguous
        assert c.shape == c_ref.shape and c.dtype == c_ref.dtype
        rhs = rng.standard_normal(len(block))
        want = scipy.linalg.cho_solve((c_ref, lower_ref), rhs)
        assert spd_solve(block, rhs).tobytes() == want.tobytes()


def test_spd_factor_of_huge_entries_matches_cho_factor():
    M = np.diag([1.5e308, 1.7e308, 4.0])
    assert spd_factor(M)[0].tobytes() == scipy.linalg.cho_factor(M, lower=True)[0].tobytes()


def test_spd_factor_errors():
    with pytest.raises(NotPositiveDefiniteError):
        spd_factor(np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(NotPositiveDefiniteError):
        spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    upper_nan = np.eye(3)
    upper_nan[0, 2] = np.nan  # dpotrf(lower=1) never reads it
    for bad in (np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0]), upper_nan):
        with pytest.raises(ValueError) as info:
            spd_factor(bad)
        assert not isinstance(info.value, NotPositiveDefiniteError)
    with pytest.raises(ValueError):
        spd_factor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        spd_factor(np.ones(3))
    with pytest.raises(NotPositiveDefiniteError):
        spd_solve(np.diag([1.0, -1.0, 2.0]), np.ones(3))
    with pytest.raises(ValueError) as info:
        spd_solve(np.ones((2, 3)), np.ones(2))
    assert not isinstance(info.value, NotPositiveDefiniteError)


def test_coord_set_array_is_cached_and_read_only():
    for S in (CoordSet((0, 3, 4), 6), CoordSet.full(50), CoordSet((2,), 3)):
        arr = S.array
        assert arr is S.array
        assert arr.dtype == np.intp and tuple(arr.tolist()) == S.indices
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    # the cached array is not a field: equal sets stay equal and hash alike
    a, b = CoordSet((1, 2), 4), CoordSet((1, 2), 4)
    a.array
    assert a == b and hash(a) == hash(b)


def _arrays(value):
    """Every ndarray in value, looking into tuples, lists and dict values."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


def _count_factors_and_symmetry_checks(monkeypatch):
    """Patches linalg's `dpotrf` and every module's `check_symmetric` to
    record the shapes they see: (factored, checked)."""
    factored, checked = [], []
    check_symmetric = linalg.check_symmetric

    def dpotrf(a, *args, **kwargs):
        factored.append(a.shape)
        return scipy.linalg.lapack.dpotrf(a, *args, **kwargs)

    def counting_check(M):
        checked.append(np.shape(M))
        return check_symmetric(M)

    monkeypatch.setattr(linalg, "dpotrf", dpotrf)
    for module in (linalg, objectives, rates):
        monkeypatch.setattr(module, "check_symmetric", counting_check)
    return factored, checked


def test_one_factor_and_one_symmetry_check_per_objective(monkeypatch):
    """Construction checks M and factors it once; `empirical_optimum` and
    every full step read that factor, block steps solve their gathers by
    `spd_solve` and keep no factor, and nothing checks M again."""
    factored, checked = _count_factors_and_symmetry_checks(monkeypatch)
    problem = gen_instance(1000, 100, 1)
    obj = problem.objective
    assert factored == checked == [(100, 100)]
    empirical_optimum(problem)
    for spec, iters in (("full", 50), ("nice:40", 5000)):
        result = run(problem, parse_rule(spec, 100, default_seed=1),
                     RunConfig(max_iters=iters))
        assert len(result.trace) == iters
    assert factored == checked == [(100, 100)]
    assert obj.factor_for(tuple(range(100))) is obj.smoothness_factor
    assert not any(a.shape == (40, 40) for a in _arrays(vars(obj)))
    factored.clear()
    checked.clear()
    quadratic = make_quadratic(random_spd(30, 50.0, 2))
    assert factored == checked == [(30, 30)]
    assert quadratic.strong_convexity_f == quadratic.lambda_min
    run(CompositeProblem(quadratic), parse_rule("full", 30), RunConfig(max_iters=20))
    assert factored == checked == [(30, 30)]
    # a looser M is checked and factored; Q is checked by its eigenvalue call
    factored.clear()
    checked.clear()
    make_quadratic(random_spd(30, 50.0, 2), smoothness=2.0 * random_spd(30, 50.0, 2))
    assert factored == [(30, 30)] and checked == [(30, 30), (30, 30)]


class _ColumnGatherState(objectives.LsqCosState):
    """The iterate state with the block move M x += M[:, S] @ u_S, after
    which x'Mx/2 and <A'b/m, x> are taken from x again (`_sync`)."""

    def _update(self, S, u_S, rows=None):
        self._moved += len(S)
        if self._moved >= MX_REFRESH_SWEEPS * self.objective.dim:
            self._refresh()
        else:
            self._Mx += self.objective.smoothness[:, S.array] @ u_S
            self._sync()
        self._update_f()


def _state_bits(state):
    return state._Mx.tobytes(), _bits(state.f), state.grad.tobytes()


def _strided_objective():
    """A least-squares-plus-cosine objective built from a strided view of A,
    whose M numpy's general matrix product would leave asymmetric."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2000, 200))[::2, ::2]
    return objectives.LsqCosObjective(A, rng.standard_normal(1000),
                                      rng.standard_normal(100))


def test_lsq_cos_smoothness_is_exactly_symmetric():
    rng = np.random.default_rng(6)
    for m, n in ((40, 12), (300, 60), (1000, 100)):
        A = rng.standard_normal((2 * m, 2 * n))[::2, ::2]
        b, c = rng.standard_normal(m), rng.standard_normal(n)
        for layout in (np.ascontiguousarray(A), np.asfortranarray(A), A):
            M = objectives.LsqCosObjective(layout, b, c).smoothness
            assert np.array_equal(M, M.T), (m, n, layout.flags)


@pytest.mark.parametrize("tau", [2, 3, 8, 16, 40])
def test_block_moves_match_the_column_gather(tau):
    """k block moves from a random x at paper scale: M x, f and grad f in
    the bits of the column gather, refreshes included, on a generated
    instance and on one built from a strided A."""
    for obj in (gen_instance(1000, 100, 17).objective, _strided_objective()):
        rng = np.random.default_rng(tau)
        x = rng.standard_normal(100)
        state, oracle = obj.state_at(x), _ColumnGatherState(obj, x)
        for _ in range(3 * MX_REFRESH_SWEEPS * 100 // tau + 5):
            S = CoordSet(tuple(np.sort(rng.choice(100, tau, replace=False)).tolist()), 100)
            u_S = rng.standard_normal(tau) * 10.0 ** rng.uniform(-8, 1)
            state.move(S, u_S)
            oracle.move(S, u_S)
            assert _state_bits(state) == _state_bits(oracle)
            assert state.x.tobytes() == oracle.x.tobytes()


@pytest.mark.filterwarnings("ignore:C\\(100,8\\) exceeds the enumeration budget")
@pytest.mark.parametrize("kind", ["smooth", "l1"])
def test_block_runs_match_the_column_gather(monkeypatch, kind):
    problem = _instance(kind, 1000, 100, 17)
    specs = ("full", "nice:8", "greedymb:8")
    want = [run(problem, parse_rule(spec, 100, default_seed=5), RunConfig(max_iters=300))
            for spec in specs]
    monkeypatch.setattr(objectives.LsqCosObjective, "state_at",
                        lambda obj, x: _ColumnGatherState(obj, x))
    for spec, result in zip(specs, want):
        oracle = run(problem, parse_rule(spec, 100, default_seed=5), RunConfig(max_iters=300))
        assert ([(r.block.indices, _bits(r.F), _bits(r.step_norm)) for r in result.trace]
                == [(r.block.indices, _bits(r.F), _bits(r.step_norm)) for r in oracle.trace])
        assert result.x.tobytes() == oracle.x.tobytes(), spec


def _reference_run(problem, spec, seed, iters, stop_on_certificate=False):
    """`descent.run` with diagnostics from x = 0, every block step through
    the generic operations: a fresh `cho_factor` of M[np.ix_(S, S)] and
    `cho_solve`, or the prox model on `mask_vector` gathers; x updated by a
    scatter of u_S into a copy, and M x by M[:, S] u_S (from scratch every n
    coordinates).  With `stop_on_certificate` it stops as `empirical_optimum`
    does: at a certificate below 1e-24 or after a step that left F in place."""
    obj, reg = problem.objective, problem.regularizer
    n, m, M = problem.dim, obj.m, obj.smoothness
    rule = parse_rule(spec, n, default_seed=seed)
    L, _ = rates.rule_L(problem, rule)

    def f_and_grad(x, Mx):
        cx = float(obj.c @ x)
        f = (0.5 * float(x @ Mx) - 0.5 * cx * cx / m - float(obj.Atb_m @ x)
             + obj.bb_2m + math.cos(cx) / m)
        return f, Mx - (cx + math.sin(cx)) / m * obj.c - obj.Atb_m

    x = np.zeros(n)
    Mx, moved = M @ x, 0
    f, grad = f_and_grad(x, Mx)
    F = f + reg.value(x)
    gap_floor = 1e-14 * max(1.0, abs(F))
    rows, stagnant = [], False
    for k in range(iters):
        cert = engine.certificate(problem, x, L, grad=grad)
        lam = cert.lambda_total
        if stop_on_certificate and (lam < 1e-24 or stagnant):
            break
        xi = None if problem.opt_value is None else F - problem.opt_value
        S = select(rule, problem, k, grad, cert.lambda_per_coord)
        idx = np.asarray(S.indices, dtype=np.intp)
        g_S = mask_vector(grad, S)
        if problem.smooth_path:
            factor = scipy.linalg.cho_factor(M[np.ix_(idx, idx)], lower=True)
            u_S = -scipy.linalg.cho_solve(factor, g_S)
            decrease = max(-0.5 * float(g_S @ u_S), 0.0)
        else:
            u_S, lam_S = engine._prox_model(reg, mask_vector(x, S), g_S, L)
            decrease = max(0.0 + float(np.add.accumulate(lam_S / L)[-1]), 0.0)
        if xi is None:
            mu = theta = None
        elif xi > gap_floor:
            mu, theta = lam / xi, (decrease / lam if lam > 0 else 0.0)
        else:
            mu, theta = 0.0, 0.0
        x = x.copy()
        x[idx] += u_S
        moved += len(idx)
        if moved >= MX_REFRESH_SWEEPS * n:
            Mx, moved = M @ x, 0
        else:
            Mx = Mx + M[:, idx] @ u_S
        f, grad = f_and_grad(x, Mx)
        rows.append((S.indices, F, xi, lam, mu, theta, float(np.linalg.norm(u_S)),
                     rule.last_was_heuristic))
        F_next = f + reg.value(x)
        stagnant = F - F_next < 1e-16 * (1.0 + abs(F))
        F = F_next
    return rows, x, F


BLOCK_RULES = {"smooth": ("full", "nice:3", "nice:8", "greedymb:3", "greedymb:8"),
               "l1": ("full", "nice:2", "nice:3", "nice:8", "greedymb:2", "greedymb:3",
                      "greedymb:8")}
# gen_instance(m, n, seed); the (200, 50) pair keeps the bare seed as its id
INSTANCES = [pytest.param(200, 50, 1, id="1"), pytest.param(200, 50, 17, id="17"),
             pytest.param(1000, 100, 17, id="1000-100-17"),
             *(pytest.param(40, 12, s, id=f"40-12-{s}") for s in range(4))]
L1_INSTANCES = INSTANCES[2:]


def _instance(kind, m, n, seed):
    """gen_instance, smooth or with the L1 weight 0.2 ||grad f(0)||_inf."""
    problem = gen_instance(m, n, seed)
    if kind == "l1":
        lam = 0.2 * float(np.abs(problem.grad_f(np.zeros(n))).max())
        problem = gen_instance(m, n, seed, lam=lam)
    return problem


@pytest.mark.filterwarnings("ignore:C\\(\\d+,8\\) exceeds the enumeration budget")
@pytest.mark.parametrize("m, n, seed", INSTANCES)
@pytest.mark.parametrize("kind", ["smooth", "l1"])
def test_block_runs_bit_identical_to_generic_operations(kind, m, n, seed):
    """Runs with diagnostics on and off against one reference loop.  Without
    diagnostics a row keeps lambda only where the rule selects by it (greedy
    on L1), and has no mu or theta."""
    problem = _instance(kind, m, n, seed)
    empirical_optimum(problem)
    iters = 150
    for spec in BLOCK_RULES[kind]:
        rows, x, F = _reference_run(problem, spec, seed, iters)
        for diagnostics in (True, False):
            result = run(problem, parse_rule(spec, n, default_seed=seed),
                         RunConfig(max_iters=iters, record_diagnostics=diagnostics))
            keeps_lam = diagnostics or (kind == "l1" and spec.startswith("greedy"))
            got = [(r.block.indices, r.heuristic)
                   + tuple(map(_bits, (r.F, r.xi, r.lam, r.mu, r.theta, r.step_norm)))
                   for r in result.trace]
            want = [(S, heuristic)
                    + tuple(map(_bits, (F_k, xi, lam if keeps_lam else None,
                                        *((mu, theta) if diagnostics else (None, None)),
                                        norm)))
                    for S, F_k, xi, lam, mu, theta, norm, heuristic in rows]
            assert got == want, (spec, diagnostics)
            assert result.x.tobytes() == x.tobytes(), (spec, diagnostics)
            assert _bits(result.final_F) == _bits(F), (spec, diagnostics)


@pytest.mark.parametrize("m, n, seed", L1_INSTANCES)
def test_l1_empirical_optimum_bit_identical_to_a_reference_loop(m, n, seed):
    problem = _instance("l1", m, n, seed)
    F_star = empirical_optimum(problem)
    rows, _, F = _reference_run(problem, "full", 0, 200_000, stop_on_certificate=True)
    assert 0 < len(rows) < 200_000
    assert _bits(F_star) == _bits(min(F, rows[-1][1]))


def test_prox_model_is_evaluated_once_per_iterate(monkeypatch):
    """Each iterate's prox model is evaluated at most once.  A k-step L1 run
    that holds certificates (a greedy rule) evaluates it k + 1 times, each
    over all n coordinates (the last after the final step), and reads its
    block steps off them.  Any other diagnostics run (`uniform`, `cyclic`,
    `full`, `nice:tau`) evaluates the k iterates' models in chunks,
    ceil(k / rows) calls over rows x n entries laid end to end, and the last
    iterate's once more for `final_lambda`.  Without diagnostics it is not
    evaluated at all: a serial step takes the scalar path, and a block step
    computes only its prox step."""
    problem = _instance("l1", 40, 12, 1)
    empirical_optimum(problem)
    sizes = []
    prox_model = engine._prox_model

    def counting(reg, x, grad, L):
        sizes.append(len(x))
        return prox_model(reg, x, grad, L)

    monkeypatch.setattr(engine, "_prox_model", counting)
    monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", 10 * 16 * 12)  # ten rows
    k = 25
    for spec in ("uniform", "greedy", "cyclic") + BLOCK_RULES["l1"]:
        for diagnostics in (True, False):
            if spec.startswith("greedy"):
                want = [12] * (k + 1)
            elif diagnostics:
                want = [10 * 12, 10 * 12, 5 * 12, 12]
            else:
                want = []
            sizes.clear()
            result = run(problem, parse_rule(spec, 12, default_seed=3),
                         RunConfig(max_iters=k, record_diagnostics=diagnostics))
            assert len(result.trace) == k and sizes == want, (spec, diagnostics)


def _doubling_chunks(count, rows):
    """Chunks of 1, 2, 4, ... rows, at most `rows` each, over `count` rows."""
    sizes, limit = [], 1
    while count:
        sizes.append(min(limit, count))
        count -= sizes[-1]
        limit = min(2 * limit, rows)
    return sizes


def test_a_certificate_stopped_full_run_evaluates_the_prox_model_per_chunk(monkeypatch):
    """A certificate-stopped L1 `full` run evaluates the prox model at x0,
    then once per chunk pass, over chunks of 2, 4, 8, ... rows up to the
    row count (ten here), and once more at the iterate it ends on when it
    stagnates or exhausts max_iters; a run that stops at a vanished
    certificate takes that certificate from its chunk, or at x0 inline.
    Every other certificate-stopped rule still evaluates it once per
    iterate and at the end (none on the smooth path)."""
    sizes = []
    prox_model = engine._prox_model

    def counting(reg, x, grad, L):
        sizes.append(len(x))
        return prox_model(reg, x, grad, L)

    monkeypatch.setattr(engine, "_prox_model", counting)
    monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", 10 * 16 * 12)  # ten rows
    full = BlockRule("full_batch", 12)
    problem = _instance("l1", 40, 12, 1)
    empirical_optimum(problem)
    sizes.clear()
    result = run(problem, full, RunConfig(max_iters=200_000, epsilon=1e-24,
                                          stop_on="certificate"))
    k = len(result.trace)
    assert result.termination == "stagnated" and k > 1000
    assert sizes == [12 * rows for rows in _doubling_chunks(k, 10)] + [12]
    # from x = 1, lambda is 0 exactly at iterate 11, in the chunk of rows 7
    # to 14, and the step from it leaves F in place: the rows kept are
    # flushed at the next iterate
    quadratic = objectives.quadratic_instance(12, 10.0, 4, 0.3)
    sizes.clear()
    result = run(quadratic, full, RunConfig(max_iters=1000, epsilon=1e-24, x0=np.ones(12),
                                            stop_on="certificate"))
    assert (result.termination, len(result.trace), result.final_lambda) == (
        "reached_certificate", 11, 0.0)
    assert sizes == [12, 24, 48, 60]
    # 0 is the minimizer: the run from it takes no step
    sizes.clear()
    assert empirical_optimum(objectives.quadratic_instance(8, 6.0, 0, 0.2)) == 0.0
    assert sizes == [8]
    for spec, want in (("full", [12, 24, 48, 96, 120, 12]), ("greedy", [12] * 26),
                       ("greedymb:3", [12] * 26), ("uniform", [12] * 26),
                       ("nice:3", [12] * 26)):
        for diagnostics in (True, False):
            sizes.clear()
            result = run(problem, parse_rule(spec, 12, default_seed=3),
                         RunConfig(max_iters=25, epsilon=1e-24, stop_on="certificate",
                                   record_diagnostics=diagnostics))
            assert result.termination == "exhausted_iters" and sizes == want, (spec,
                                                                              diagnostics)
    smooth = _instance("smooth", 40, 12, 1)
    sizes.clear()
    for spec in ("full", "greedy", "nice:3"):
        run(smooth, parse_rule(spec, 12, default_seed=3),
            RunConfig(max_iters=25, epsilon=1e-24, stop_on="certificate"))
    empirical_optimum(smooth)
    assert sizes == []


def _raise(*args, **kwargs):
    raise AssertionError("the block path called a checked wrapper")


@pytest.mark.filterwarnings("ignore:C\\(30,8\\) exceeds the enumeration budget")
@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_block_runs_use_no_checked_wrappers(monkeypatch, lam):
    """Guards the block path's cost without a clock: a smooth or L1 block
    step neither factors through `scipy.linalg.cho_factor` nor gathers
    through `np.ix_`."""
    problem = gen_instance(200, 30, 4, lam=lam)
    monkeypatch.setattr(scipy.linalg, "cho_factor", _raise)
    monkeypatch.setattr(np, "ix_", _raise)
    for spec in ("nice:8", "full"):
        result = run(problem, parse_rule(spec, 30, default_seed=2),
                     RunConfig(max_iters=50))
        assert len(result.trace) == 50 and math.isfinite(result.final_F)


def test_full_set_step_rejects_a_gradient_of_another_dimension():
    for lam in (0.0, 0.2):
        problem = CompositeProblem(make_quadratic(random_spd(4, 5.0, 3)),
                                   objectives.make_l1(lam))
        with pytest.raises(InvalidSetError):
            engine.block_step(problem, np.zeros(4), CoordSet.full(4), 1.0,
                              grad=np.ones(5))
