import math

import numpy as np
import pytest

from blockprox import linalg, rates
from blockprox.linalg import enumerate_subsets, eig_extremes
from blockprox.descent import empirical_optimum
from blockprox.objectives import (
    CompositeProblem,
    gen_instance,
    make_l1,
    make_quadratic,
    random_spd,
)
from blockprox.rates import (
    FunctionClass,
    NoGuaranteeError,
    NoParameterError,
    L_tau,
    expected_inverse_matrix,
    general_nonconvex_epsilon,
    gradient_dominated_K,
    predict_K,
    rule_constant,
    strongly_convex_mu,
    weakly_convex_rho,
)
from blockprox.selection import parse_rule


def test_L_tau_endpoints():
    M = random_spd(7, 9.0, 0)
    assert L_tau(M, 1) == pytest.approx(float(np.diag(M).max()))
    assert L_tau(M, 7) == pytest.approx(eig_extremes(M)[1])


def test_L_tau_brute_force_and_interlacing():
    M = random_spd(6, 5.0, 1)
    vals = []
    for tau in range(1, 7):
        brute = max(eig_extremes(M[np.ix_(S.array, S.array)])[1]
                    for S in enumerate_subsets(6, tau))
        assert L_tau(M, tau) == pytest.approx(brute)
        vals.append(brute)
    # monotone in the block size by eigenvalue interlacing
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_L_tau_budget_fallback_trace_bound():
    M = random_spd(16, 4.0, 2)
    with pytest.warns(UserWarning, match="trace"):
        bound = L_tau(M, 8, budget=100)
    # C(16,8) = 12,870 subsets: the default budget enumerates them exactly
    assert rates.L_tau_is_exact(16, 8)
    assert bound >= L_tau(M, 8) - 1e-12  # honest over-estimate
    assert bound == pytest.approx(float(np.sort(np.diag(M))[-8:].sum()))


def test_L_tau_validation():
    with pytest.raises(ValueError):
        L_tau(np.eye(3), 0)
    with pytest.raises(ValueError):
        L_tau(np.eye(3), 4)


def test_expected_inverse_identity():
    # for M = I each embedded inverse block is the identity on S, so the
    # average is (tau/n) I
    E = expected_inverse_matrix(np.eye(5), 2)
    np.testing.assert_allclose(E, (2 / 5) * np.eye(5), atol=1e-12)


def test_expected_inverse_brute_force():
    M = random_spd(5, 4.0, 3)
    E = expected_inverse_matrix(M, 2)
    acc = np.zeros((5, 5))
    sets = list(enumerate_subsets(5, 2))
    for S in sets:
        idx = S.array
        acc[np.ix_(idx, idx)] += np.linalg.inv(M[np.ix_(idx, idx)])
    np.testing.assert_allclose(E, acc / len(sets), rtol=1e-12)


def test_expected_inverse_mc_fallback(monkeypatch):
    monkeypatch.setattr(rates, "INVERSE_MC_SAMPLES", 3000)
    M = np.eye(10)
    with pytest.warns(UserWarning, match="Monte-Carlo"):
        E = expected_inverse_matrix(M, 4, budget=5)
    np.testing.assert_allclose(E, 0.4 * np.eye(10), atol=0.05)


def test_rule_constants_smooth():
    M = random_spd(6, 5.0, 5)
    problem = CompositeProblem(make_quadratic(M))
    lam_max = eig_extremes(M)[1]
    c, _ = rule_constant(parse_rule("full", 6), problem)
    assert c == pytest.approx(1.0 / lam_max)
    c, _ = rule_constant(parse_rule("uniform", 6), problem)
    assert c == pytest.approx(1.0 / (6 * float(np.diag(M).max())))
    for text in ("importance", "greedy"):
        c, _ = rule_constant(parse_rule(text, 6), problem)
        assert c == pytest.approx(1.0 / float(np.diag(M).sum()))
    c, _ = rule_constant(parse_rule("nice:2", 6), problem)
    assert c == pytest.approx(eig_extremes(expected_inverse_matrix(M, 2))[0])


def test_rule_constants_nonsmooth():
    M = random_spd(6, 5.0, 6)
    problem = CompositeProblem(make_quadratic(M), make_l1(0.1))
    c, _ = rule_constant(parse_rule("full", 6), problem)
    assert c == pytest.approx(1.0 / eig_extremes(M)[1])
    for text in ("uniform", "greedy"):
        c, _ = rule_constant(parse_rule(text, 6), problem)
        assert c == pytest.approx(1.0 / (6 * float(np.diag(M).max())))
    c, _ = rule_constant(parse_rule("nice:2", 6), problem)
    assert c == pytest.approx(2.0 / (6 * L_tau(M, 2)))
    with pytest.raises(NoGuaranteeError):
        rule_constant(parse_rule("importance", 6), problem)


def test_cyclic_refused():
    problem = CompositeProblem(make_quadratic(np.eye(4)))
    with pytest.raises(NoGuaranteeError):
        predict_K(parse_rule("cyclic", 4), FunctionClass("strongly_pl", mu=1.0),
                  problem, 1e-6, 1.0)


def test_predict_K_strongly_pl_closed_form():
    M = np.diag([1.0, 4.0])
    problem = CompositeProblem(make_quadratic(M))
    bound = predict_K(parse_rule("full", 2), FunctionClass("strongly_pl", mu=1.0),
                      problem, 1e-6, 10.0)
    assert bound.K(1e-6) == math.ceil(4.0 * math.log(10.0 / 1e-6))
    assert bound.K(100.0) == 0  # epsilon above the initial gap


def test_predict_K_weakly_pl_and_nonconvex():
    problem = CompositeProblem(make_quadratic(np.eye(3)))
    xi0 = 2.0
    wk = predict_K(parse_rule("full", 3), FunctionClass("weakly_pl", rho=0.5),
                   problem, 1e-3, xi0)
    assert wk.K(1e-3) == math.ceil(1.0 / (0.5 * 1.0 * 1e-3))
    nc = predict_K(parse_rule("full", 3), FunctionClass("general_nonconvex"),
                   problem, 1e-3, xi0)
    assert nc.K(1e-3) == math.ceil((xi0 / 1e-3) * math.log(xi0 / 1e-3))


def test_predict_K_monotone():
    M = random_spd(5, 7.0, 7)
    problem = CompositeProblem(make_quadratic(M))
    for cls in (FunctionClass("strongly_pl", mu=0.7),
                FunctionClass("weakly_pl", rho=0.3),
                FunctionClass("general_nonconvex")):
        bound = predict_K(parse_rule("uniform", 5), cls, problem, 1e-6, 5.0)
        eps = np.logspace(-9, 0.5, 40)
        Ks = [bound.K(float(e)) for e in eps]
        assert all(a >= b for a, b in zip(Ks, Ks[1:]))


def test_function_class_validation():
    with pytest.raises(NoParameterError):
        FunctionClass("strongly_pl")
    with pytest.raises(NoParameterError):
        FunctionClass("weakly_pl", rho=-1.0)
    with pytest.raises(NoParameterError):
        FunctionClass("gradient_dominated", c=1.0)
    with pytest.raises(ValueError):
        FunctionClass("mystery")


def test_strongly_convex_mu_substitutions():
    # lam_F = lam_f = mu0: min{L/2, L mu0 / L} = min{L/2, mu0}
    problem = CompositeProblem(make_quadratic(np.diag([0.5, 2.0])))
    L = 4.0
    assert strongly_convex_mu(problem, L) == pytest.approx(min(L / 2, 0.5))
    # lam_F = L, lam_f = 0 gives L/2 exactly: emulate with a regularizer
    class StrongReg(make_l1(0.0).__class__):
        strong_convexity_F = 4.0
    obj = make_quadratic(np.diag([1.0, 1.0]))
    object.__setattr__(obj, "strong_convexity_f", 0.0)
    p2 = CompositeProblem(obj, StrongReg(0.0))
    assert strongly_convex_mu(p2, 4.0) == pytest.approx(2.0)


def test_strongly_convex_mu_small_lam_limit():
    # lam_f = 0, lam_F -> 0+: bound ~ lam_F
    class TinyReg(make_l1(0.0).__class__):
        strong_convexity_F = 1e-8
    obj = make_quadratic(np.eye(2))
    object.__setattr__(obj, "strong_convexity_f", 0.0)
    p = CompositeProblem(obj, TinyReg(0.0))
    assert strongly_convex_mu(p, 1.0) == pytest.approx(1e-8, rel=1e-6)


def test_strongly_convex_mu_requires_parameter():
    obj = make_quadratic(np.eye(2))
    object.__setattr__(obj, "strong_convexity_f", 0.0)
    p = CompositeProblem(obj, make_l1(0.1))
    with pytest.raises(NoParameterError):
        strongly_convex_mu(p, 1.0)


def quadratic_level_radius(M, xi0):
    """Oracle: the exact level-set radius for xi = (x-x*)'M(x-x*)/2 <= xi0."""
    return math.sqrt(2.0 * xi0 / eig_extremes(M)[0])


def test_quadratic_level_radius_closed_form():
    M = np.diag([1.0, 4.0])
    # level xi0: max ||x|| on {x'Mx/2 <= xi0} is sqrt(2 xi0 / lam_min)
    assert quadratic_level_radius(M, 2.0) == pytest.approx(2.0)


def test_weakly_convex_rho():
    M = np.diag([1.0, 2.0])
    problem = CompositeProblem(make_quadratic(M))
    x0 = np.array([2.0, 0.0])
    xi0 = problem.xi(x0)
    L = problem.L_scalar
    R = quadratic_level_radius(M, xi0)
    rho = weakly_convex_rho(problem, x0, L, R=R)
    assert rho == pytest.approx(min(L / (2 * xi0), 1.0 / (2 * R * R)))
    # smooth case with xi0 <= (L/2) R^2 lands on the 1/(2R^2) branch
    assert xi0 <= 0.5 * L * R * R + 1e-12
    assert rho == pytest.approx(1.0 / (2 * R * R))
    with pytest.raises(NoParameterError):
        weakly_convex_rho(problem, np.zeros(2), L)  # x0 already optimal


def test_weakly_convex_rho_refuses_without_a_radius():
    # lambda_F = 0 and no R: no certified radius, so no rho; a given R is used
    obj = make_quadratic(np.eye(2))
    object.__setattr__(obj, "strong_convexity_f", 0.0)
    problem = CompositeProblem(obj, make_l1(0.1))
    empirical_optimum(problem)
    x0 = np.array([1.0, -1.0])
    with pytest.raises(NoParameterError):
        weakly_convex_rho(problem, x0, 1.0)
    xi0 = problem.xi(x0)
    assert weakly_convex_rho(problem, x0, 1.0, R=2.0) == min(1.0 / (2 * xi0), 1 / 8)


def test_weakly_convex_rho_takes_the_certified_radius():
    # lambda_F > 0: the radius is sqrt(2 xi0 / lambda_F), the exact level-set
    # radius of a quadratic, not a sampled estimate
    M = random_spd(10, 10.0, 0)
    problem = CompositeProblem(make_quadratic(M))
    x0 = np.random.default_rng(0).standard_normal(10)
    xi0 = problem.xi(x0)
    L = problem.L_scalar
    R = quadratic_level_radius(M, xi0)
    assert weakly_convex_rho(problem, x0, L) == pytest.approx(
        min(L / (2 * xi0), 1.0 / (2 * R * R)), rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, cond, lam", [(6, 4.0, 0.1), (6, 5.0, 0.15),
                                          (8, 6.0, 0.2)])
def test_certified_radius_bounds_the_level_set(seed, n, cond, lam):
    # the quadratic-plus-L1 problems of the check suite: F is convex with
    # minimizer 0, so F >= F(x0) just past R along a direction puts the whole
    # ray beyond R outside the level set of x0
    problem = CompositeProblem(make_quadratic(random_spd(n, cond, seed)),
                               make_l1(lam))
    empirical_optimum(problem)
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    xi0 = problem.xi(x0)
    L = problem.L_scalar
    R = math.sqrt(2.0 * xi0 / problem.objective.strong_convexity_f)
    assert weakly_convex_rho(problem, x0, L) == min(L / (2 * xi0), 1 / (2 * R * R))
    level = problem.F(x0)
    dirs = np.random.default_rng(seed).standard_normal((200, n))
    for d in dirs / np.linalg.norm(dirs, axis=1, keepdims=True):
        assert problem.F((1 + 1e-9) * R * d) >= level


def _nonconvex_epsilon_by_bisection(xi0, c, ks):
    """The former rate curve: k = (xi0/(c eps)) log(xi0/eps) inverted by 200
    geometric bisection steps per k."""

    def needed(eps):
        return (xi0 / (c * eps)) * math.log(xi0 / eps)

    out = []
    for k in ks:
        if k < 1 or xi0 <= 0:
            out.append(xi0)
            continue
        lo, hi = xi0 * 1e-18, xi0 * (1 - 1e-12)
        if needed(hi) > k:
            out.append(xi0)
            continue
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if needed(mid) > k:
                lo = mid
            else:
                hi = mid
        out.append(hi)
    return out


@pytest.mark.parametrize("xi0, c", [(3.0720049865290417, 0.1784650236211894),
                                    (1.0, 0.1), (50.0, 2.5)])
def test_general_nonconvex_epsilon_matches_bisection(xi0, c):
    ks = list(range(1, 2001))
    eps = general_nonconvex_epsilon(xi0, c, ks)
    assert all(type(e) is float for e in eps)
    np.testing.assert_allclose(eps, _nonconvex_epsilon_by_bisection(xi0, c, ks),
                               rtol=1e-15, atol=0)
    # epsilon(k) inverts predict_K's general_nonconvex K
    for k, e in zip(ks[::97], eps[::97]):
        assert (xi0 / (c * e)) * math.log(xi0 / e) == pytest.approx(k, rel=1e-12)


def test_general_nonconvex_epsilon_edges():
    # xi0 where k < 1 or xi0 <= 0
    ks = [0, 0.5, 1, 2]
    for xi0 in (0.0, -1.0):
        assert general_nonconvex_epsilon(xi0, 0.3, ks) == [xi0] * 4
    assert general_nonconvex_epsilon(2.0, 0.3, ks)[:2] == [2.0, 2.0]
    assert general_nonconvex_epsilon(2.0, 0.3, []) == []


def test_expected_inverse_monte_carlo_accuracy():
    # past the budget: within 5% of the exact average entrywise (relative to
    # its largest entry) and 3% in lambda_min
    for seed in range(4):
        M = gen_instance(40, 12, seed).objective.smoothness
        for tau in (2, 3, 4):
            exact = expected_inverse_matrix(M, tau)
            with pytest.warns(UserWarning, match="Monte-Carlo"):
                est = expected_inverse_matrix(M, tau, budget=10)
            assert np.abs(est - exact).max() <= 0.05 * np.abs(exact).max()
            lam = eig_extremes(exact)[0]
            assert abs(eig_extremes(est)[0] - lam) <= 0.03 * lam


def test_gradient_dominated_K():
    # phi(eps) >= xi0 -> 0
    assert gradient_dominated_K(1.0, 2.0, 3.0, xi0=1.0, epsilon=1.0) == 0
    K = gradient_dominated_K(1.0, 2.0, 3.0, xi0=10.0, epsilon=1e-3)
    assert K == math.ceil(2 * 3.0 * 10.0 / 1e-3 * math.log(10.0 / 1e-6))
    # doubling epsilon at least halves the leading factor
    K2 = gradient_dominated_K(1.0, 2.0, 3.0, xi0=10.0, epsilon=2e-3)
    assert K2 <= K / 2 + 1
    with pytest.raises(ValueError):
        gradient_dominated_K(1.0, 2.0, 3.0, xi0=1.0, epsilon=0.0)


def test_gradient_dominated_class_batch_only():
    problem = CompositeProblem(make_quadratic(np.eye(3)))
    cls = FunctionClass("gradient_dominated", c=1.0, p=2.0)
    bound = predict_K(parse_rule("full", 3), cls, problem, 1e-3, 5.0)
    assert bound.K(1e-3) == gradient_dominated_K(1.0, 2.0, 1.0, 5.0, 1e-3)
    with pytest.raises(NoGuaranteeError):
        predict_K(parse_rule("uniform", 3), cls, problem, 1e-3, 5.0)


def test_predict_K_rejects_bad_epsilon():
    problem = CompositeProblem(make_quadratic(np.eye(2)))
    with pytest.raises(ValueError):
        predict_K(parse_rule("full", 2), FunctionClass("general_nonconvex"),
                  problem, 0.0, 1.0)


def test_refused_pair_never_computes_rule_constant(monkeypatch):
    from blockprox.objectives import gen_instance

    problem = gen_instance(m=40, n=10, seed=0)

    def fail(*args, **kwargs):
        raise AssertionError("expected_inverse_matrix called for a refused pair")

    monkeypatch.setattr(rates, "expected_inverse_matrix", fail)
    fclass = FunctionClass("gradient_dominated", c=1.0, p=1.0)
    for spec in ("nice:3", "greedymb:3", "uniform", "importance", "greedy"):
        with pytest.raises(NoGuaranteeError):
            predict_K(parse_rule(spec, 10), fclass, problem, 1e-6, 1.0)


def _expected_inverse_loop(M, tau, subsets):
    """Per-subset oracle: invert each block and add it in the given order."""
    out = np.zeros_like(M)
    for idx in subsets:
        out[np.ix_(idx, idx)] += np.linalg.inv(M[np.ix_(idx, idx)])
    return out / len(subsets)


@pytest.mark.parametrize("chunk_bytes", [None, 4 * 8 * 9 * 7])
def test_expected_inverse_chunked_equals_loop_exactly(chunk_bytes, monkeypatch):
    if chunk_bytes is not None:  # seven 3x3 subsets per chunk
        monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", chunk_bytes)
    M = random_spd(9, 7.0, 4)
    subsets = [S.array for S in enumerate_subsets(9, 3)]
    assert np.array_equal(expected_inverse_matrix(M, 3),
                          _expected_inverse_loop(M, 3, subsets))

    # the Monte-Carlo branch draws the same sets as one draw of all samples
    rng = np.random.default_rng(5)
    draws = np.sort(rng.random((500, 9)).argpartition(2, axis=1)[:, :3], axis=1)
    monkeypatch.setattr(rates, "INVERSE_MC_SAMPLES", 500)
    monkeypatch.setattr(rates, "INVERSE_MC_SEED", 5)
    with pytest.warns(UserWarning, match="Monte-Carlo"):
        E = expected_inverse_matrix(M, 3, budget=10)
    assert np.array_equal(E, _expected_inverse_loop(M, 3, draws))


@pytest.mark.parametrize("tau, budget", [(2, 10), (4, linalg.DEFAULT_ENUMERATION_BUDGET)])
def test_expected_inverse_monte_carlo_stays_within_chunk_budget(tau, budget):
    import tracemalloc

    M = random_spd(100, 4.0, 0)
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="Monte-Carlo"):
            expected_inverse_matrix(M, tau, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one batch of draws, plus the n x n sum and the average returned
    assert peak <= linalg.SUBSET_CHUNK_BYTES + 2 * M.nbytes
