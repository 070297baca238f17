"""The verification suite behind `blockprox check`: the library's invariants
executed as numeric assertions at reduced scale, one `descent.TraceCheck`
per check. Library calls go through module attributes (`descent.run`,
`engine.proportion`, ...), so code that wraps those attributes sees them.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import descent, engine, objectives, rates, selection
from .descent import TraceCheck
from .linalg import eig_extremes, is_spd
from .objectives import CompositeProblem, make_l1
from .selection import BlockRule, parse_rule

EXIT_OK = 0
EXIT_VERIFY = 3  # some check failed


def _small_instances(seed):
    smooth = objectives.gen_instance(m=40, n=12, seed=seed)
    nonsmooth = objectives.gen_instance(m=40, n=12, seed=seed, lam=0.05)
    return smooth, nonsmooth


def _campaign_rules(n, tau, seed, smooth):
    names = ["full", "uniform", "greedy", "cyclic", f"nice:{tau}",
             f"greedymb:{tau}"]
    if smooth:
        names.insert(2, "importance")
    return [parse_rule(t, n, default_seed=seed + j) for j, t in enumerate(names)]


def check_spd(problem):
    lam_min = eig_extremes(problem.objective.smoothness)[0]
    return TraceCheck("smoothness_spd",
                      is_spd(problem.objective.smoothness), lam_min)


def check_descent_inequalities(problem, seed=0, iters=150, tau=3):
    if problem.opt_value is None:
        descent.empirical_optimum(problem)
    worst = np.inf
    ok, detail = True, ""
    for rule in _campaign_rules(problem.dim, tau, seed, problem.smooth_path):
        result = descent.run(problem, rule, descent.RunConfig(
            max_iters=iters, record_diagnostics=True))
        report = descent.verify_trace(result)
        for c in report.checks:
            worst = min(worst, c.worst_margin)
            if not c.passed:
                ok = False
                detail = f"{rule.name}: {c.name} {c.detail}"
    tag = "smooth" if problem.smooth_path else "nonsmooth"
    return TraceCheck(f"descent_inequalities_{tag}", ok, worst, detail)


def check_theta_bounds(problem, seed=0, tau=3, n_points=50):
    """Each rule's theta at n_points random x against the published bound
    that `rates` predicts with (on the conditional expectation for a
    randomized rule); greedy minibatch must also reach the tau-nice
    expectation.  One gradient per point, one certificate per distinct
    `rates.rule_L`."""
    rng = np.random.default_rng(seed)
    n = problem.dim
    worst = np.inf
    ok, detail = True, ""
    names = ["full", "uniform"] + (
        ["importance", "greedy", f"nice:{tau}"] if problem.smooth_path
        else ["greedy", f"nice:{tau}", f"greedymb:{tau}"])
    rules = [parse_rule(name, n, default_seed=seed) for name in names]
    bounds = {rule.name: rates.rule_constant(rule, problem)[0] for rule in rules}
    nice, gmb = f"nice:{tau}", f"greedymb:{tau}"
    if gmb not in bounds:
        rules.append(parse_rule(gmb, n, default_seed=seed))
    Ls = [rates.rule_L(problem, rule)[0] for rule in rules]
    for _ in range(n_points):
        x = rng.standard_normal(n)
        grad = problem.grad_f(x)
        certs = {L: engine.certificate(problem, x, L, grad=grad) for L in set(Ls)}
        vals = {}
        for rule, L in zip(rules, Ls):
            cert = certs[L]
            if rule.is_randomized:
                vals[rule.name] = selection.exact_expected_theta(
                    rule, problem, grad, cert)
            else:
                S = selection.select(rule, problem, 0, grad, cert.lambda_per_coord)
                vals[rule.name] = engine.proportion(problem, x, S, cert=cert,
                                                    grad=grad)
        bounds_here = dict(bounds)
        bounds_here[gmb] = max(bounds_here.get(gmb, 0.0), vals[nice])
        for name, lo in bounds_here.items():
            margin = vals[name] - lo * (1 - 1e-9)
            worst = min(worst, margin)
            if margin < 0:
                ok = False
                detail = f"{name} below its bound"
    tag = "smooth" if problem.smooth_path else "nonsmooth"
    return TraceCheck(f"theta_bounds_{tag}", ok, worst, detail)


def convex_grid_min(model, grid):
    """min(model(grid)) for a strictly convex `model` evaluated elementwise:
    the argmin of every 100th point, then the points within 200 steps of it.
    The window holds the grid's minimizer, and each value is computed as on
    the whole grid, so the minimum is the same float."""
    j = int(model(grid[::100]).argmin())
    return float(model(grid[max(0, (j - 2) * 100):(j + 2) * 100 + 1]).min())


def check_certificate_oracle(seed=0, n_points=20):
    """Per-coordinate certificates vs a scalar grid search over [-3, 3] in
    steps of 1e-4; the scalar prox models are strictly convex (L > 0), so
    `convex_grid_min` reads each one's grid minimum."""
    rng = np.random.default_rng(seed)
    M = objectives.random_spd(10, 8.0, seed)
    problem = CompositeProblem(objectives.make_quadratic(M), make_l1(0.1))
    L = problem.L_scalar
    grid = np.arange(-3.0, 3.0 + 1e-12, 1e-4)
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(-1.0, 1.0, 10)
        grad = problem.grad_f(x)
        cert = engine.certificate(problem, x, grad=grad)
        lam_grid = 0.0
        for g, x_i in zip(grad, x):
            def model(t):
                return g * t + 0.5 * L * t * t + 0.1 * (np.abs(x_i + t) - abs(x_i))
            lam_grid += max(-L * convex_grid_min(model, grid), 0.0)
        rel = abs(cert.lambda_total - lam_grid) / max(lam_grid, 1e-30)
        worst = max(worst, rel)
    return TraceCheck("certificate_grid_oracle", worst <= 1e-3, 1e-3 - worst)


def check_strong_convexity_forcing(seed=0, n_points=50):
    M = objectives.random_spd(8, 6.0, seed)
    problem = CompositeProblem(objectives.make_quadratic(M), make_l1(0.2))
    descent.empirical_optimum(problem)
    mu_bound = rates.strongly_convex_mu(problem, problem.L_scalar)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(n_points):
        x = rng.uniform(-2.0, 2.0, 8)
        try:
            mu = engine.forcing(problem, x)
        except engine.AtOptimumError:
            continue
        worst = min(worst, mu - mu_bound + 1e-8)
    return TraceCheck("strongly_convex_forcing", worst >= 0, worst)


def check_weak_convexity_forcing(seed=0, n_points=50):
    M = objectives.random_spd(6, 4.0, seed)
    problem = CompositeProblem(objectives.make_quadratic(M), make_l1(0.1))
    descent.empirical_optimum(problem)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, 6)
    rho = rates.weakly_convex_rho(problem, x0, problem.L_scalar)
    level = problem.F(x0)
    worst = np.inf
    kept = 0
    while kept < n_points:
        x = rng.uniform(-2.0, 2.0, 6)
        if problem.F(x) > level:
            continue
        kept += 1
        try:
            mu = engine.forcing(problem, x)
        except engine.AtOptimumError:
            continue
        worst = min(worst, mu - rho * problem.xi(x) + 1e-10)
    return TraceCheck("weakly_convex_forcing", worst >= 0, worst)


def check_convex_certificate_lower_bound(seed=0, n_points=50):
    """lambda/L >= min{xi/2, (xi + lam_F d^2/2)^2 / (2 (lam_F - lam_f + L) d^2)}
    on a strongly convex composite with d = ||x - x*||."""
    M = objectives.random_spd(6, 5.0, seed)
    problem = CompositeProblem(objectives.make_quadratic(M), make_l1(0.15))
    descent.empirical_optimum(problem)
    # 0 minimizes both x'Mx/2 and lam*||x||_1
    x_star = problem.objective.known_minimizer
    lam_f = problem.objective.strong_convexity_f
    lam_F = lam_f
    L = problem.L_scalar
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(n_points):
        x = rng.uniform(-2.0, 2.0, 6)
        d2 = float(np.sum((x - x_star) ** 2))
        xi = problem.xi(x)
        if d2 < 1e-16 or xi < 1e-12:
            continue
        lam = engine.certificate(problem, x).lambda_total
        rhs = min(0.5 * xi,
                  (xi + 0.5 * lam_F * d2) ** 2 / (2.0 * (lam_F - lam_f + L) * d2))
        worst = min(worst, lam / L - rhs + 1e-8)
    return TraceCheck("convex_certificate_lower_bound", worst >= 0, worst)


def check_wpl_product(seed=0, n_points=2000):
    obj = objectives.make_product_square()
    problem = CompositeProblem(obj)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, (n_points, 2))
    worst = np.inf
    for x in pts:
        g = problem.grad_f(x)
        # what np.linalg.norm computes for a 1-D array
        lhs = math.sqrt(float(g.dot(g))) * math.sqrt(float(x.dot(x)))
        worst = min(worst, lhs - problem.xi(x) + 1e-10)
    return TraceCheck("weak_pl_product_square", worst >= 0, worst)


def check_plateau_disjunction(seed=0, epsilon=1e-6):
    c = objectives.flat_inflection_coefficient()
    problem = CompositeProblem(objectives.make_plateau_1d(c))
    rule = BlockRule("full_batch", 1)
    xi0 = problem.xi(np.zeros(1))
    bound = rates.predict_K(rule, rates.FunctionClass("general_nonconvex"),
                            problem, epsilon, xi0)
    K = bound.K(epsilon)
    result = descent.run(problem, rule, descent.RunConfig(
        max_iters=min(K, 100_000) if K else 1, epsilon=epsilon,
        record_diagnostics=True, stop_on="certificate"))
    min_lam = min((r.lam for r in result.trace),
                  default=result.final_lambda)
    if result.final_lambda is not None:
        min_lam = min(min_lam, result.final_lambda)
    disjunct = (result.final_xi <= epsilon) or (min_lam <= epsilon)
    used = len(result.trace)
    margin = float(K - used)
    return TraceCheck("plateau_rate_disjunction", disjunct and used <= K,
                      margin, f"K={K}, used={used}")


def check_sequence_bound(seed=0, n_seqs=20):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(n_seqs):
        a = [float(rng.uniform(0.5, 2.0))]
        betas = []
        for _ in range(30):
            b = float(rng.uniform(0.01, 0.9 / a[-1]))
            betas.append(b)
            a.append((1.0 - a[-1] * b) * a[-1])
        ok = ok and descent.sequence_bound_check(a, betas)
    return TraceCheck("sequence_recursion_bound", ok, 0.0)


def check_rate_monotonicity(seed=0):
    M = objectives.random_spd(8, 6.0, seed)
    problem = CompositeProblem(objectives.make_quadratic(M))
    rule = BlockRule("full_batch", 8)
    xi0 = 10.0
    fclass = rates.FunctionClass("strongly_pl", mu=problem.objective.lambda_min)
    bound = rates.predict_K(rule, fclass, problem, 1e-8, xi0)
    eps = np.logspace(-10, 0, 30)
    Ks = [bound.K(e) for e in eps]
    ok = all(k1 >= k2 for k1, k2 in zip(Ks, Ks[1:]))
    return TraceCheck("predicted_K_monotone_in_epsilon", ok, 0.0)


def check_polyak_rate(seed=0):
    M = objectives.random_spd(10, 12.0, seed)
    problem = CompositeProblem(objectives.make_quadratic(M))
    lam_min, lam_max = problem.objective.lambda_min, problem.objective.lambda_max
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(10)
    eps = 1e-8
    xi0 = problem.xi(x0)
    K = math.ceil((lam_max / lam_min) * math.log(xi0 / eps))
    result = descent.run(problem, BlockRule("full_batch", 10),
                         descent.RunConfig(max_iters=K, epsilon=eps,
                                           stop_on="gap"))
    margin = float(K - len(result.trace))
    return TraceCheck("batch_linear_rate", result.final_xi <= eps, margin)


def run_check_suite(cfg, stream=None):
    """Run and print every check from `cfg.seed`; return (results, exit code)."""
    stream = sys.stdout if stream is None else stream
    seed = cfg.seed
    smooth, nonsmooth = _small_instances(seed)
    results = [
        check_spd(smooth),
        check_descent_inequalities(smooth, seed=seed),
        check_descent_inequalities(nonsmooth, seed=seed),
        check_theta_bounds(smooth, seed=seed),
        check_theta_bounds(nonsmooth, seed=seed),
        check_certificate_oracle(seed=seed),
        check_strong_convexity_forcing(seed=seed),
        check_weak_convexity_forcing(seed=seed),
        check_convex_certificate_lower_bound(seed=seed),
        check_wpl_product(seed=seed),
        check_plateau_disjunction(seed=seed),
        check_sequence_bound(seed=seed),
        check_rate_monotonicity(seed=seed),
        check_polyak_rate(seed=seed),
    ]
    for c in results:
        status = "PASS" if c.passed else "FAIL"
        extra = f"  ({c.detail})" if c.detail else ""
        stream.write(f"{status}  {c.name:<36} worst_margin={c.worst_margin:.3e}{extra}\n")
    all_ok = all(c.passed for c in results)
    return results, EXIT_OK if all_ok else EXIT_VERIFY
