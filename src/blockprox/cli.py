"""Config-driven experiment harness.

Config files are INI text with four sections::

    [problem]
    kind = generated | quadratic | plateau | product_square | huber_product
    # generated/quadratic: m, n, seed, lambda (l1 weight); quadratic: cond
    # plateau: c (defaults to the flat-inflection coefficient)
    # product_square / huber_product: box
    # instance = path.json  (load a previously generated instance instead)

    [rules]
    rules = full, uniform, importance, greedy, nice:4, greedymb:4
    # each entry follows the grammar  full | uniform | importance | greedy |
    # cyclic | nice:<tau> | greedymb:<tau>  with optional  seed=<u64>

    [run]
    max_iters = 500
    epsilon = 1e-8
    diagnostics = true | false
    stop_on = iters | gap | certificate
    seed = 0            # global seed; --seed on the command line overrides

    [output]
    dir = out

Subcommands: gen, run, rates, check, slice.  Exit codes: 0 success,
1 config error, 2 numeric failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import descent, engine, objectives, rates, selection
from .linalg import CoordSet, eig_extremes, is_spd
from .objectives import CompositeProblem, gen_instance, load_instance, make_l1
from .selection import BlockRule, parse_rule

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    problem: dict
    rule_specs: list
    max_iters: int = 500
    epsilon: float = 1e-8
    diagnostics: bool = False
    stop_on: str = "iters"
    seed: int = 0
    out_dir: str = "out"
    budget: int = None
    extras: dict = field(default_factory=dict)


def load_config(path, seed_override=None) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    problem = dict(parser["problem"]) if parser.has_section("problem") else {}
    rule_text = parser.get("rules", "rules", fallback="")
    rule_specs = [tok.strip() for tok in rule_text.replace("\n", ",").split(",")
                  if tok.strip()]
    run_sec = parser["run"] if parser.has_section("run") else {}
    out_sec = parser["output"] if parser.has_section("output") else {}

    try:
        cfg = ExperimentConfig(
            problem=problem,
            rule_specs=rule_specs,
            max_iters=int(run_sec.get("max_iters", 500)),
            epsilon=float(run_sec.get("epsilon", 1e-8)),
            diagnostics=str(run_sec.get("diagnostics", "false")).lower()
            in ("1", "true", "yes", "on"),
            stop_on=str(run_sec.get("stop_on", "iters")),
            seed=int(run_sec.get("seed", 0)),
            out_dir=str(out_sec.get("dir", "out")),
            budget=int(run_sec["budget"]) if "budget" in run_sec else None,
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad run/output settings: {exc}") from exc
    if seed_override is not None:
        cfg.seed = seed_override
    if cfg.stop_on not in descent.STOP_MODES:
        raise ConfigError(f"stop_on must be one of {descent.STOP_MODES}")
    return cfg


def _random_spd(n: int, cond: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    w = np.linspace(1.0, cond, n)
    return (Q * w) @ Q.T


def build_problem(cfg: ExperimentConfig) -> CompositeProblem:
    p = cfg.problem
    if "instance" in p:
        try:
            return load_instance(p["instance"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"cannot load instance {p['instance']!r}: {exc!r}") from exc
    kind = p.get("kind", "generated")
    try:
        if kind == "generated":
            return gen_instance(
                m=int(p.get("m", 200)), n=int(p.get("n", 50)),
                seed=int(p.get("seed", cfg.seed)),
                lam=float(p.get("lambda", 0.0)),
            )
        if kind == "quadratic":
            n = int(p.get("n", 10))
            M = _random_spd(n, float(p.get("cond", 10.0)),
                            int(p.get("seed", cfg.seed)))
            obj = objectives.make_quadratic(M)
            return CompositeProblem(obj, make_l1(float(p.get("lambda", 0.0))))
        if kind == "plateau":
            c = (float(p["c"]) if "c" in p
                 else objectives.flat_inflection_coefficient())
            return CompositeProblem(objectives.make_plateau_1d(c))
        if kind == "product_square":
            return CompositeProblem(
                objectives.make_product_square(float(p.get("box", 2.0))))
        if kind == "huber_product":
            return CompositeProblem(
                objectives.make_huber_product(float(p.get("box", 2.0))))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad problem section: {exc}") from exc
    raise ConfigError(f"unknown problem kind {kind!r}")


def build_rules(cfg: ExperimentConfig, n: int) -> list:
    if not cfg.rule_specs:
        raise ConfigError("at least one selection rule is required")
    rules = []
    for j, spec in enumerate(cfg.rule_specs):
        kwargs = {} if cfg.budget is None else {"budget": cfg.budget}
        try:
            # isolated per-rule streams: derive each default seed from the
            # global seed and the rule's position
            rules.append(parse_rule(spec, n, default_seed=cfg.seed + j, **kwargs))
        except ValueError as exc:
            raise ConfigError(f"bad rule {spec!r}: {exc}") from exc
    names = [rule.name for rule in rules]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        # report entries and trace files are keyed by rule name
        raise ConfigError(f"rule listed more than once: {', '.join(duplicates)}")
    return rules


def _safe_name(rule_name: str) -> str:
    return rule_name.replace(":", "_")


def cmd_gen(cfg: ExperimentConfig, out_path=None) -> str:
    p = cfg.problem
    if p.get("kind", "generated") != "generated":
        raise ConfigError("gen only serializes generated instances")
    problem = build_problem(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = out_path or os.path.join(cfg.out_dir, "instance.json")
    try:
        objectives.save_instance(problem, path)
    except OSError as exc:
        raise ConfigError(f"cannot write instance to {path!r}: {exc}") from exc
    return path


def _theorem10_rate_curve(xi0: float, c: float, ks) -> list:
    """epsilon(k): the guaranteed bound on min(xi, min lambda) after k steps,
    from inverting k = (xi0/(c eps)) log(xi0/eps) by bisection."""

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


def _run_one(problem, rule, cfg):
    run_cfg = descent.RunConfig(
        max_iters=cfg.max_iters, epsilon=cfg.epsilon,
        record_diagnostics=cfg.diagnostics, stop_on=cfg.stop_on,
    )
    return descent.run(problem, rule, run_cfg)


def cmd_run(cfg: ExperimentConfig):
    problem = build_problem(cfg)
    rules = build_rules(cfg, problem.dim)
    if not problem.smooth_path:
        for rule in rules:
            if rule.kind == "importance_coord":
                raise ConfigError(
                    "importance sampling is not offered on nonsmooth problems")
    if cfg.diagnostics and problem.opt_value is None:
        descent.empirical_optimum(problem)
    os.makedirs(cfg.out_dir, exist_ok=True)

    entries = {}
    results = []
    for rule in rules:
        try:
            results.append((rule.name, _run_one(problem, rule, cfg), None))
        except descent.NumericFailureError as exc:
            results.append((rule.name, None, str(exc)))

    any_numeric_failure = False
    all_verified = True
    for name, result, error in results:
        if error is not None:
            any_numeric_failure = True
            entries[name] = {"rule": name, "error": error}
            continue
        trace_path = os.path.join(cfg.out_dir, f"trace_{_safe_name(name)}.csv")
        descent.write_trace_csv(result, trace_path)
        first_F = result.trace[0].F if result.trace else result.final_F
        entry = {
            "rule": name,
            "trace": trace_path,
            "termination": result.termination,
            "iterations": len(result.trace),
            "final_F": result.final_F,
            "final_xi": result.final_xi,
            "cumulative_decrease": first_F - result.final_F,
            "heuristic_selection_used": any(r.heuristic for r in result.trace),
        }
        if cfg.diagnostics:
            report = descent.verify_trace(result)
            entry["verified"] = report.all_passed
            entry["verification"] = [
                {"check": c.name, "passed": c.passed,
                 "worst_margin": c.worst_margin, "detail": c.detail}
                for c in report.checks
            ]
            all_verified = all_verified and report.all_passed
        entries[name] = entry

    report = {
        "problem": dict(cfg.problem),
        "seed": cfg.seed,
        "max_iters": cfg.max_iters,
        "opt_value": problem.opt_value,
        "opt_value_is_empirical": problem.opt_value_is_empirical,
        "runs": [entries[r.name] for r in rules],
    }
    if "greedy" in entries and "uniform" in entries and \
            "error" not in entries["greedy"] and "error" not in entries["uniform"]:
        report["greedy_ge_uniform_decrease"] = bool(
            entries["greedy"]["cumulative_decrease"]
            >= entries["uniform"]["cumulative_decrease"]
        )

    # 1-D problems get the suboptimality / certificate / predicted-rate series
    if problem.dim == 1 and cfg.diagnostics:
        full = [r for name, r, err in results if name == "full" and err is None]
        if full and full[0].trace:
            result = full[0]
            xi0 = result.trace[0].xi
            c = 1.0 / eig_extremes(problem.objective.smoothness)[1]
            ks = [row.k for row in result.trace]
            rate = _theorem10_rate_curve(xi0, c, [k + 1 for k in ks])
            series_path = os.path.join(cfg.out_dir, "plateau_series.csv")
            with open(series_path, "w") as fh:
                fh.write("k,fx,dfx,rate\n")
                for row, r_k in zip(result.trace, rate):
                    fh.write(f"{row.k},{row.xi!r},{row.lam!r},{r_k!r}\n")
            report["plateau_series"] = series_path

    report_path = os.path.join(cfg.out_dir, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)

    if any_numeric_failure:
        return report, EXIT_NUMERIC
    if cfg.diagnostics and not all_verified:
        return report, EXIT_VERIFY
    return report, EXIT_OK


def cmd_rates(cfg: ExperimentConfig, epsilon=None, fmt="text", stream=None):
    stream = sys.stdout if stream is None else stream
    problem = build_problem(cfg)
    rules = build_rules(cfg, problem.dim)
    eps = cfg.epsilon if epsilon is None else epsilon
    if problem.opt_value is None:
        descent.empirical_optimum(problem)
    # seeded random start: a fixed canonical point risks sitting at the optimum
    x0 = np.random.default_rng(cfg.seed).standard_normal(problem.dim)
    xi0 = problem.xi(x0)

    classes = [rates.FunctionClass("general_nonconvex")]
    lam_f = problem.objective.strong_convexity_f
    if lam_f > 0:
        if problem.smooth_path:
            mu = lam_f
        else:
            mu = rates.strongly_convex_mu(problem, problem.L_scalar)
        classes.append(rates.FunctionClass("strongly_pl", mu=mu))
        try:
            x_star = problem.objective.known_minimizer
            rho = rates.weakly_convex_rho(problem, x0, problem.L_scalar,
                                          x_star=x_star, n_dirs=500,
                                          seed=cfg.seed)
            classes.append(rates.FunctionClass("weakly_pl", rho=rho))
        except rates.NoParameterError:
            pass

    rows = []
    for rule in rules:
        for fclass in classes:
            try:
                bound = rates.predict_K(rule, fclass, problem, eps, xi0)
                rows.append((rule.name, fclass.kind, bound.constant,
                             bound.K(eps)))
            except rates.NoGuaranteeError as exc:
                rows.append((rule.name, fclass.kind, None, str(exc)))

    if fmt == "csv":
        stream.write("rule,class,constant,K\n")
        for name, kind, c, K in rows:
            c_txt = "" if c is None else repr(c)
            stream.write(f"{name},{kind},{c_txt},{K}\n")
    else:
        stream.write(f"{'rule':<14}{'class':<20}{'constant':<16}K\n")
        for name, kind, c, K in rows:
            c_txt = "-" if c is None else f"{c:.6g}"
            stream.write(f"{name:<14}{kind:<20}{c_txt:<16}{K}\n")
    return rows


def cmd_slice(cfg: ExperimentConfig, direction, radius: float, points: int,
              out_path=None):
    problem = build_problem(cfg)
    n = problem.dim
    if isinstance(direction, str):
        if direction == "random":
            d = np.random.default_rng(cfg.seed).standard_normal(n)
        elif direction.startswith("e"):
            i = int(direction[1:])
            if not 1 <= i <= n:
                raise ConfigError(f"unit direction e{i} out of range 1..{n}")
            d = np.zeros(n)
            d[i - 1] = 1.0
        else:
            d = np.array([float(t) for t in direction.split(",")])
    else:
        d = np.asarray(direction, dtype=float)
    if d.shape != (n,):
        raise ConfigError(f"direction has shape {d.shape}, expected ({n},)")
    norm = np.linalg.norm(d)
    if norm == 0:
        raise ConfigError("direction must be nonzero")
    d = d / norm
    if radius <= 0 or points < 2:
        raise ConfigError("need radius > 0 and at least 2 sample points")

    x_ref = problem.objective.known_minimizer
    if x_ref is None:
        rule = BlockRule("full_batch", n)
        run_cfg = descent.RunConfig(max_iters=2000)
        x_ref = descent.run(problem, rule, run_cfg).x
    x_ref = np.asarray(x_ref, dtype=float)

    os.makedirs(cfg.out_dir, exist_ok=True)
    path = out_path or os.path.join(cfg.out_dir, "slice.csv")
    ts = np.linspace(-radius, radius, points)
    with open(path, "w") as fh:
        fh.write("t,F\n")
        for t in ts:
            fh.write(f"{float(t)!r},{problem.F(x_ref + t * d)!r}\n")
    return path


# ---------------------------------------------------------------------------
# Verification suite (`check` subcommand): the module invariants executed as
# numeric assertions at reduced scale.

@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    detail: str = ""


def _small_instances(seed):
    smooth = gen_instance(m=40, n=12, seed=seed)
    nonsmooth = gen_instance(m=40, n=12, seed=seed, lam=0.05)
    return smooth, nonsmooth


def _campaign_rules(n, tau, seed, smooth):
    names = ["full", "uniform", "greedy", "cyclic", f"nice:{tau}",
             f"greedymb:{tau}"]
    if smooth:
        names.insert(2, "importance")
    return [parse_rule(t, n, default_seed=seed + j) for j, t in enumerate(names)]


def check_spd(problem, **_):
    lam_min = eig_extremes(problem.objective.smoothness)[0]
    return CheckResult("smoothness_spd",
                       is_spd(problem.objective.smoothness), lam_min)


def check_descent_inequalities(problem, seed=0, iters=150, tau=3, **_):
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
    return CheckResult(f"descent_inequalities_{tag}", ok, worst, detail)


def _rule_L(problem, rule):
    """Smoothness scalar matched to the rule's block size (nonsmooth path)."""
    if problem.smooth_path:
        return None
    return rates.L_tau(problem.objective.smoothness, rule.max_block_size)


def theta_for_rule(problem, rule, x, cert_cache=None):
    """theta(S, x) for deterministic rules, the exact conditional expectation
    for randomized ones; certificates use the block-size-matched scalar."""
    L = _rule_L(problem, rule)
    if rule.is_randomized:
        return selection.exact_expected_theta(rule, problem, x, L=L)
    grad = problem.grad_f(x)
    key = rule.max_block_size
    if cert_cache is not None and key in cert_cache:
        cert = cert_cache[key]
    else:
        cert = engine.certificate(problem, x, L, grad=grad)
        if cert_cache is not None:
            cert_cache[key] = cert
    ctx = selection.SelectionContext(
        x=x, grad=grad, lambda_per_coord=cert.lambda_per_coord)
    S = selection.select(rule, problem, ctx)
    return engine.proportion(problem, x, S, L=L, cert=cert, grad=grad)


def check_theta_bounds(problem, seed=0, tau=3, n_points=50, **_):
    rng = np.random.default_rng(seed)
    n = problem.dim
    M = problem.objective.smoothness
    worst = np.inf
    ok, detail = True, ""
    smooth = problem.smooth_path
    if smooth:
        trace_sum = float(np.diag(M).sum())
        nice_lo = eig_extremes(rates.expected_inverse_matrix(M, tau))[0]
        bounds = {
            "full": 1.0 / eig_extremes(M)[1],
            "uniform": 1.0 / (n * float(np.diag(M).max())),
            "importance": 1.0 / trace_sum,
            "greedy": 1.0 / trace_sum,
            f"nice:{tau}": nice_lo,
        }
    else:
        lt = rates.L_tau(M, tau)
        bounds = {
            "full": 1.0 / eig_extremes(M)[1],
            "uniform": 1.0 / (n * float(np.diag(M).max())),
            "greedy": 1.0 / (n * float(np.diag(M).max())),
            f"nice:{tau}": tau / (n * lt),
            f"greedymb:{tau}": tau / (n * lt),
        }
    rules = {name: parse_rule(name, n, default_seed=seed) for name in bounds}
    nice = parse_rule(f"nice:{tau}", n, default_seed=seed)
    gmb = parse_rule(f"greedymb:{tau}", n, default_seed=seed)
    for _ in range(n_points):
        x = rng.standard_normal(n)
        cert_cache = {}
        vals = {name: theta_for_rule(problem, rule, x, cert_cache)
                for name, rule in rules.items()}
        # greedy minibatch also dominates the tau-nice expectation
        vals[gmb.name] = theta_for_rule(problem, gmb, x, cert_cache)
        bounds_here = dict(bounds)
        bounds_here[gmb.name] = max(
            bounds_here.get(gmb.name, 0.0),
            theta_for_rule(problem, nice, x, cert_cache))
        for name, lo in bounds_here.items():
            margin = vals[name] - lo * (1 - 1e-9)
            worst = min(worst, margin)
            if margin < 0:
                ok = False
                detail = f"{name} below its bound"
    tag = "smooth" if problem.smooth_path else "nonsmooth"
    return CheckResult(f"theta_bounds_{tag}", ok, worst, detail)


def check_certificate_oracle(seed=0, n_points=20, **_):
    """Per-coordinate certificates vs a scalar grid search over [-3, 3]."""
    rng = np.random.default_rng(seed)
    M = _random_spd(10, 8.0, seed)
    problem = CompositeProblem(objectives.make_quadratic(M), make_l1(0.1))
    L = problem.L_scalar
    grid = np.arange(-3.0, 3.0 + 1e-12, 1e-4)
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(-1.0, 1.0, 10)
        grad = problem.grad_f(x)
        cert = engine.certificate(problem, x)
        lam_grid = 0.0
        for i in range(10):
            vals = (grad[i] * grid + 0.5 * L * grid * grid
                    + 0.1 * (np.abs(x[i] + grid) - abs(x[i])))
            lam_grid += max(-L * float(vals.min()), 0.0)
        rel = abs(cert.lambda_total - lam_grid) / max(lam_grid, 1e-30)
        worst = max(worst, rel)
    return CheckResult("certificate_grid_oracle", worst <= 1e-3, 1e-3 - worst)


def check_strong_convexity_forcing(seed=0, n_points=50, **_):
    M = _random_spd(8, 6.0, seed)
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
    return CheckResult("strongly_convex_forcing", worst >= 0, worst)


def check_weak_convexity_forcing(seed=0, n_points=50, **_):
    M = _random_spd(6, 4.0, seed)
    problem = CompositeProblem(objectives.make_quadratic(M), make_l1(0.1))
    descent.empirical_optimum(problem)
    x_star = _nonsmooth_minimizer(problem)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, 6)
    rho = rates.weakly_convex_rho(problem, x0, problem.L_scalar,
                                  x_star=x_star, n_dirs=200, seed=seed)
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
    return CheckResult("weakly_convex_forcing", worst >= 0, worst)


def _nonsmooth_minimizer(problem, iters=50_000):
    rule = BlockRule("full_batch", problem.dim)
    result = descent.run(problem, rule, descent.RunConfig(max_iters=iters))
    return result.x


def check_convex_certificate_lower_bound(seed=0, n_points=50, **_):
    """lambda/L >= min{xi/2, (xi + lam_F d^2/2)^2 / (2 (lam_F - lam_f + L) d^2)}
    on a strongly convex composite with d = ||x - x*||."""
    M = _random_spd(6, 5.0, seed)
    problem = CompositeProblem(objectives.make_quadratic(M), make_l1(0.15))
    descent.empirical_optimum(problem)
    x_star = _nonsmooth_minimizer(problem)
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
    return CheckResult("convex_certificate_lower_bound", worst >= 0, worst)


def check_wpl_product(seed=0, n_points=2000, **_):
    obj = objectives.make_product_square()
    problem = CompositeProblem(obj)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, (n_points, 2))
    worst = np.inf
    for x in pts:
        lhs = np.linalg.norm(problem.grad_f(x)) * np.linalg.norm(x)
        worst = min(worst, lhs - problem.xi(x) + 1e-10)
    return CheckResult("weak_pl_product_square", worst >= 0, worst)


def check_plateau_disjunction(seed=0, epsilon=1e-6, **_):
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
    return CheckResult("plateau_rate_disjunction", disjunct and used <= K,
                       margin, f"K={K}, used={used}")


def check_sequence_bound(seed=0, n_seqs=20, **_):
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
    return CheckResult("sequence_recursion_bound", ok, 0.0)


def check_rate_monotonicity(seed=0, **_):
    M = _random_spd(8, 6.0, seed)
    problem = CompositeProblem(objectives.make_quadratic(M))
    rule = BlockRule("full_batch", 8)
    xi0 = 10.0
    fclass = rates.FunctionClass("strongly_pl", mu=eig_extremes(M)[0])
    bound = rates.predict_K(rule, fclass, problem, 1e-8, xi0)
    eps = np.logspace(-10, 0, 30)
    Ks = [bound.K(e) for e in eps]
    ok = all(k1 >= k2 for k1, k2 in zip(Ks, Ks[1:]))
    return CheckResult("predicted_K_monotone_in_epsilon", ok, 0.0)


def check_polyak_rate(seed=0, **_):
    M = _random_spd(10, 12.0, seed)
    problem = CompositeProblem(objectives.make_quadratic(M))
    lam_min, lam_max = eig_extremes(M)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(10)
    eps = 1e-8
    xi0 = problem.xi(x0)
    K = math.ceil((lam_max / lam_min) * math.log(xi0 / eps))
    result = descent.run(problem, BlockRule("full_batch", 10),
                         descent.RunConfig(max_iters=K, epsilon=eps,
                                           stop_on="gap"))
    margin = float(K - len(result.trace))
    return CheckResult("batch_linear_rate", result.final_xi <= eps, margin)


def run_check_suite(cfg: ExperimentConfig, stream=None):
    stream = sys.stdout if stream is None else stream
    seed = cfg.seed
    smooth, nonsmooth = _small_instances(seed)
    checks = [
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
    all_ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        extra = f"  ({c.detail})" if c.detail else ""
        stream.write(f"{status}  {c.name:<36} worst_margin={c.worst_margin:.3e}{extra}\n")
        all_ok = all_ok and c.passed
    return checks, EXIT_OK if all_ok else EXIT_VERIFY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blockprox",
        description="Proximal block descent experiment harness")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config file's global seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate and serialize an instance")
    p_gen.add_argument("config")
    p_gen.add_argument("--out", default=None)

    p_run = sub.add_parser("run", help="run a selection-rule campaign")
    p_run.add_argument("config")

    p_rates = sub.add_parser("rates", help="predicted K(epsilon) per rule/class")
    p_rates.add_argument("config")
    p_rates.add_argument("--epsilon", type=float, default=None)
    p_rates.add_argument("--format", choices=("text", "csv"), default="text")

    p_check = sub.add_parser("check", help="run the verification suite")
    p_check.add_argument("config")

    p_slice = sub.add_parser("slice", help="1-D slice of F around a reference point")
    p_slice.add_argument("config")
    p_slice.add_argument("--direction", default="e1",
                         help="'e<i>' (1-based axis), 'random', or comma floats")
    p_slice.add_argument("--radius", type=float, default=1.0)
    p_slice.add_argument("--points", type=int, default=201)
    p_slice.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        if args.command == "gen":
            path = cmd_gen(cfg, out_path=args.out)
            print(path)
            return EXIT_OK
        if args.command == "run":
            _, code = cmd_run(cfg)
            return code
        if args.command == "rates":
            cmd_rates(cfg, epsilon=args.epsilon, fmt=args.format)
            return EXIT_OK
        if args.command == "check":
            _, code = run_check_suite(cfg)
            return code
        if args.command == "slice":
            path = cmd_slice(cfg, args.direction, args.radius, args.points,
                             out_path=args.out)
            print(path)
            return EXIT_OK
    except (ConfigError, configparser.Error, rates.NoGuaranteeError,
            rates.NoParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except descent.NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
