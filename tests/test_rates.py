import math

import numpy as np
import pytest

from blockprox import rates
from blockprox.linalg import enumerate_subsets, eig_extremes
from blockprox.objectives import CompositeProblem, make_l1, make_quadratic, random_spd
from blockprox.rates import (
    FunctionClass,
    NoGuaranteeError,
    NoParameterError,
    L_tau,
    eso_v,
    expected_inverse_matrix,
    gradient_dominated_K,
    level_set_radius,
    predict_K,
    quadratic_level_radius,
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
    M = random_spd(24, 4.0, 2)
    with pytest.warns(UserWarning, match="trace"):
        bound = L_tau(M, 12, budget=100)
    assert bound >= L_tau(M, 12) - 1e-12  # honest over-estimate
    assert bound == pytest.approx(float(np.sort(np.diag(M))[-12:].sum()))


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


def test_expected_inverse_mc_fallback():
    M = np.eye(10)
    with pytest.warns(UserWarning, match="Monte-Carlo"):
        E = expected_inverse_matrix(M, 4, budget=5, mc_samples=3000)
    np.testing.assert_allclose(E, 0.4 * np.eye(10), atol=0.05)


def test_eso_vector_hand_case():
    # dense 2x3 A: every row has 3 nonzeros, weight 1 + 2(tau-1)/2 = tau
    A = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 1.0]])
    # row nnz: 3 and 2; tau=2, n=3 -> weights (1 + 2*1/2, 1 + 1*1/2) = (2, 1.5)
    v = eso_v(A, 2)
    expect = np.array([2 * 1, 2 * 4 + 1.5 * 1, 2 * 0.25 + 1.5 * 1])
    np.testing.assert_allclose(v, expect)


def test_eso_bound_dominated_by_expected_inverse():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((8, 6))
    M = A.T @ A + 0.1 * np.eye(6)  # keep PD; ESO needs M = A'A so build A2
    # use a PD Gram matrix directly: augment A with sqrt(0.1) I rows
    A2 = np.vstack([A, math.sqrt(0.1) * np.eye(6)])
    M = A2.T @ A2
    for tau in (2, 3, 4):
        v = eso_v(A2, tau)
        eso_bound = 1.0 / (6 * float(v.max()))
        lam_min = eig_extremes(expected_inverse_matrix(M, tau))[0]
        assert lam_min >= eso_bound - 1e-12
        assert lam_min > 0


def test_eso_rejects_single_column():
    with pytest.raises(ValueError):
        eso_v(np.ones((3, 1)), 1)


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


def test_quadratic_level_radius_closed_form():
    M = np.diag([1.0, 4.0])
    # level xi0: max ||x|| on {x'Mx/2 <= xi0} is sqrt(2 xi0 / lam_min)
    assert quadratic_level_radius(M, 2.0) == pytest.approx(2.0)


def test_level_set_radius_overestimates_quadratic():
    M = np.diag([1.0, 4.0])
    problem = CompositeProblem(make_quadratic(M))
    x0 = np.array([1.0, 1.0])
    xi0 = problem.xi(x0)
    exact = quadratic_level_radius(M, xi0)
    est = level_set_radius(problem, x0, n_dirs=400, seed=0)
    assert exact * 0.99 <= est <= exact * 1.2  # within the x1.1 inflation


def test_level_set_radius_ellipsoid_upper_bound():
    # classic ellipsoid geometry: R <= ||x0 - x*|| sqrt(lam_max/lam_min)
    M = random_spd(2, 9.0, 8)
    problem = CompositeProblem(make_quadratic(M))
    rng = np.random.default_rng(9)
    for _ in range(5):
        x0 = rng.standard_normal(2)
        est = level_set_radius(problem, x0, n_dirs=200, seed=0)
        lam_min, lam_max = eig_extremes(M)
        assert est <= 1.1 * np.linalg.norm(x0) * math.sqrt(lam_max / lam_min) + 1e-9


def test_level_set_radius_unbounded_detection():
    from blockprox.objectives import Objective
    obj = Objective(dim=1, eval_f=lambda x: 0.0,
                    grad_f=lambda x: np.zeros(1), smoothness=np.eye(1),
                    known_opt_value=0.0, known_minimizer=np.zeros(1))
    problem = CompositeProblem(obj)
    with pytest.raises(NoParameterError):
        level_set_radius(problem, np.ones(1), n_dirs=3, seed=0)


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
        monkeypatch.setattr(rates, "INVERSE_CHUNK_BYTES", chunk_bytes)
    M = random_spd(9, 7.0, 4)
    subsets = [S.array for S in enumerate_subsets(9, 3)]
    assert np.array_equal(expected_inverse_matrix(M, 3),
                          _expected_inverse_loop(M, 3, subsets))

    # the Monte-Carlo branch draws the same sets as a per-sample loop
    rng = np.random.default_rng(5)
    draws = [np.sort(rng.choice(9, size=3, replace=False)) for _ in range(500)]
    with pytest.warns(UserWarning, match="Monte-Carlo"):
        E = expected_inverse_matrix(M, 3, budget=10, mc_samples=500, mc_seed=5)
    assert np.array_equal(E, _expected_inverse_loop(M, 3, draws))
