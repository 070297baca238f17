"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (bypassing capture so the lines always
appear in the run log) and asserts the same condition, at the tolerance the
criterion states.
"""

import csv
import math
import time

import numpy as np
import pytest

from blockprox import checks, cli, descent, engine, rates
from blockprox.descent import RunConfig, empirical_optimum, run, verify_trace
from blockprox.linalg import eig_extremes
from blockprox.objectives import (
    CompositeProblem,
    flat_inflection_coefficient,
    gen_instance,
    make_l1,
    make_plateau_1d,
    make_product_square,
    make_quadratic,
)
from blockprox.selection import BlockRule, parse_rule


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, emitted outside pytest's capture."""

    def _report(num, label, passed):
        status = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"ACCEPTANCE {num:02d} {status}  {label}", flush=True)
        assert passed, f"criterion {num}: {label}"

    return _report


def _random_spd(n, cond, seed):
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    return (Q * np.linspace(1.0, cond, n)) @ Q.T


SMOOTH_RULES = ("full", "uniform", "importance", "greedy", "cyclic",
                "nice:4", "greedymb:4")


@pytest.fixture(scope="module")
def desk_campaign():
    """Shared diagnostics-enabled campaign: m=200, n=50, seed 0, 500 iters."""
    t0 = time.perf_counter()
    problem = gen_instance(200, 50, seed=0)
    empirical_optimum(problem)
    results = {}
    for j, text in enumerate(SMOOTH_RULES):
        rule = parse_rule(text, 50, default_seed=j)
        results[text] = run(problem, rule, RunConfig(
            max_iters=500, record_diagnostics=True, x0=np.ones(50)))
    return problem, results, time.perf_counter() - t0


def test_criterion_01_per_step_descent(desk_campaign, report):
    problem, results, elapsed = desk_campaign
    ok = True
    for text, result in results.items():
        rep = verify_trace(result, rel_tol=1e-9)
        one_step = [c for c in rep.checks if c.name == "one_step_descent"][0]
        ok = ok and one_step.passed
    ok = ok and elapsed < 30.0
    report(1, f"per-step descent inequality, all rules, {elapsed:.1f}s", ok)


def test_criterion_02_monotonicity(desk_campaign, report):
    _, results, _ = desk_campaign
    ok = True
    for result in results.values():
        Fs = [r.F for r in result.trace] + [result.final_F]
        for a, b in zip(Fs, Fs[1:]):
            ok = ok and b <= a + 1e-12 * (1.0 + abs(a))
    # a nonsmooth campaign as well
    nons = gen_instance(200, 50, seed=0, lam=1.0 / 400)
    for j, text in enumerate(("full", "uniform", "greedy", "nice:4")):
        result = run(nons, parse_rule(text, 50, default_seed=j),
                     RunConfig(max_iters=300, x0=np.ones(50)))
        Fs = [r.F for r in result.trace] + [result.final_F]
        for a, b in zip(Fs, Fs[1:]):
            ok = ok and b <= a + 1e-12 * (1.0 + abs(a))
    report(2, "objective monotone across campaigns", ok)


def test_criterion_03_theta_bounds(report):
    smooth = gen_instance(40, 12, seed=0)
    nonsmooth = gen_instance(40, 12, seed=0, lam=0.05)
    res_s = checks.check_theta_bounds(smooth, seed=0, tau=4, n_points=50)
    res_n = checks.check_theta_bounds(nonsmooth, seed=0, tau=4, n_points=50)
    ok = res_s.passed and res_n.passed
    report(3, "theta lower bounds, 50 points, closed forms", ok)


def test_criterion_04_batch_linear_rate(report):
    ok = True
    for name, M in (("scaled identity", 3.0 * np.eye(10)),
                    ("random spd", _random_spd(10, 12.0, 0))):
        lam_min, lam_max = eig_extremes(M)
        for smoothness in (None, lam_max * np.eye(10)):
            obj = make_quadratic(M, smoothness=smoothness)
            problem = CompositeProblem(obj)
            rng = np.random.default_rng(1)
            x0 = rng.standard_normal(10)
            eps = 1e-10
            xi0 = problem.xi(x0)
            K = math.ceil((lam_max / lam_min) * math.log(xi0 / eps))
            result = run(problem, BlockRule("full_batch", 10),
                         RunConfig(max_iters=K, epsilon=eps, stop_on="gap",
                                   record_diagnostics=True, x0=x0))
            xis = [r.xi for r in result.trace] + [result.final_xi]
            for a, b in zip(xis, xis[1:]):
                if a > 1e-13 * xi0:
                    ok = ok and (b / a) <= 1.0 - lam_min / lam_max + 1e-9
            ok = ok and result.final_xi <= eps and len(result.trace) <= K
    report(4, "batch linear rate within the predicted contraction", ok)


def test_criterion_05_strong_convexity_forcing(report):
    ok = True
    for inst in range(20):
        M = _random_spd(6, 3.0 + inst, seed=100 + inst)
        problem = CompositeProblem(make_quadratic(M),
                                   make_l1(0.05 + 0.01 * inst))
        empirical_optimum(problem)
        L = problem.L_scalar
        lam_f = lam_F = problem.objective.strong_convexity_f  # L1 adds none
        bound = min(L / 2.0, L * lam_F / (lam_F - lam_f + L))
        assert bound == pytest.approx(rates.strongly_convex_mu(problem, L))
        rng = np.random.default_rng(inst)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, 6)
            try:
                mu = engine.forcing(problem, x)
            except engine.AtOptimumError:
                continue
            ok = ok and mu >= bound - 1e-8
    report(5, "forcing >= strongly convex bound on 20 instances", ok)


def test_criterion_06_weak_convexity_forcing(report):
    ok = True
    for inst in range(5):
        M = _random_spd(6, 4.0 + inst, seed=200 + inst)
        problem = CompositeProblem(make_quadratic(M), make_l1(0.1))
        empirical_optimum(problem)
        rng = np.random.default_rng(inst)
        x0 = rng.uniform(-1.5, 1.5, 6)
        rho = rates.weakly_convex_rho(problem, x0, problem.L_scalar)
        level = problem.F(x0)
        kept = 0
        while kept < 40:
            x = rng.uniform(-2.0, 2.0, 6)
            if problem.F(x) > level:
                continue
            kept += 1
            try:
                mu = engine.forcing(problem, x)
            except engine.AtOptimumError:
                continue
            ok = ok and mu >= rho * problem.xi(x) - 1e-10
    report(6, "forcing >= rho * gap on convex level sets", ok)


def test_criterion_07_weak_pl_membership(report):
    problem = CompositeProblem(make_product_square())
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, (10_000, 2))
    x1, x2 = pts[:, 0], pts[:, 1]
    xi = x1 ** 2 * x2 ** 2
    grad_norm = np.sqrt((2 * x1 * x2 ** 2) ** 2 + (2 * x1 ** 2 * x2) ** 2)
    norms = np.sqrt(x1 ** 2 + x2 ** 2)
    violations = int(np.sum(grad_norm * norms < xi - 1e-10))
    # spot-check the vectorized form against the objective's own oracles
    for x in pts[:20]:
        assert problem.F(x) == pytest.approx(float(x[0] ** 2 * x[1] ** 2))
        assert np.linalg.norm(problem.grad_f(x)) == pytest.approx(
            float(np.sqrt((2 * x[0] * x[1] ** 2) ** 2
                          + (2 * x[0] ** 2 * x[1]) ** 2)))
    report(7, f"product-square weak PL membership, {violations} violations",
           violations == 0)


def test_criterion_08_plateau_rate_disjunction(report):
    t0 = time.perf_counter()
    c = flat_inflection_coefficient()
    problem = CompositeProblem(make_plateau_1d(c))
    rule = BlockRule("full_batch", 1)
    eps = 1e-6
    xi0 = problem.xi(np.zeros(1))
    K = rates.predict_K(rule, rates.FunctionClass("general_nonconvex"),
                        problem, eps, xi0).K(eps)
    result = run(problem, rule, RunConfig(
        max_iters=min(K, 100_000), epsilon=eps, record_diagnostics=True,
        stop_on="certificate"))
    lams = [r.lam for r in result.trace]
    if result.final_lambda is not None:
        lams.append(result.final_lambda)
    disjunct = result.final_xi <= eps or min(lams) <= eps
    used = len(result.trace)
    elapsed = time.perf_counter() - t0
    ok = disjunct and used <= K and elapsed < 5.0
    report(8, f"plateau disjunction at K={K} (used {used}, {elapsed:.1f}s)", ok)


def _trace_monotone(path):
    with open(path) as fh:
        Fs = [float(row["F"]) for row in csv.DictReader(fh)]
    return all(b <= a + 1e-12 * (1.0 + abs(a)) for a, b in zip(Fs, Fs[1:]))


# the nonsmooth campaign's minibatch rules take the trace bound for L_8
@pytest.mark.filterwarnings("ignore:C\\(100,8\\) exceeds the enumeration budget")
def test_criterion_09_paper_scale_campaigns(tmp_path, report):
    t0 = time.perf_counter()
    ok = True
    for lam, rules in ((0.0, "full, uniform, importance, greedy, nice:8, greedymb:8"),
                       (1.0 / 2000, "full, uniform, greedy, nice:8, greedymb:8")):
        tag = "smooth" if lam == 0.0 else "nonsmooth"
        cfg_path = tmp_path / f"{tag}.ini"
        cfg_path.write_text(f"""
[problem]
kind = generated
m = 1000
n = 100
seed = 0
lambda = {lam}

[rules]
rules = {rules}

[run]
max_iters = 1000
seed = 0

[output]
dir = {tmp_path / tag}
""")
        rep, code = cli.cmd_run(cli.load_config(str(cfg_path)))
        ok = ok and code == cli.EXIT_OK
        ok = ok and all(_trace_monotone(e["trace"]) for e in rep["runs"])
        ok = ok and rep["greedy_ge_uniform_decrease"]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    report(9, f"m=1000 n=100 campaigns complete in {elapsed:.0f}s, "
              "greedy >= uniform", ok)


def test_criterion_10_certificate_grid_oracle(report):
    M = _random_spd(10, 6.0, 10)
    problem = CompositeProblem(make_quadratic(M), make_l1(0.2))
    L = problem.L_scalar
    grid = np.arange(-3.0, 3.0 + 1e-12, 1e-5)
    abs_grid = np.abs(grid)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 10)
        grad = problem.grad_f(x)
        lam_grid = 0.0
        for i in range(10):
            vals = (grad[i] * grid + 0.5 * L * grid * grid
                    + 0.2 * (np.abs(x[i] + grid) - abs(x[i])))
            lam_grid += max(-L * float(vals.min()), 0.0)
        lam = engine.certificate(problem, x).lambda_total
        worst = max(worst, abs(lam - lam_grid) / max(lam_grid, 1e-30))
    report(10, f"certificate matches grid oracle, worst rel err {worst:.2e}",
           worst <= 1e-4)


def test_criterion_11_sequence_bound(report):
    rng = np.random.default_rng(12)
    ok = True
    for _ in range(100):
        a = [float(rng.uniform(0.1, 3.0))]
        betas = []
        for _ in range(int(rng.integers(10, 60))):
            b = float(rng.uniform(0.005, 0.9 / a[-1]))
            betas.append(b)
            a.append((1.0 - a[-1] * b) * a[-1])
        ok = ok and descent.sequence_bound_check(a, betas)
    report(11, "recursion sequences obey the closed-form bound", ok)
