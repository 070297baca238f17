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
1 config error, 2 numeric failure, 3 verification failure.  The
verification suite behind `check` lives in `blockprox.checks`.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import descent, objectives, rates
from .checks import EXIT_OK, EXIT_VERIFY, run_check_suite
from .objectives import CompositeProblem, gen_instance, load_instance, make_l1
from .selection import BlockRule, parse_rule

EXIT_CONFIG = 1
EXIT_NUMERIC = 2


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

    def run_config(self) -> descent.RunConfig:
        """The descent settings of every run; raises ValueError on bad ones."""
        return descent.RunConfig(
            max_iters=self.max_iters, epsilon=self.epsilon,
            record_diagnostics=self.diagnostics, stop_on=self.stop_on,
        )


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
        cfg.run_config()
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad run/output settings: {exc}") from exc
    if seed_override is not None:
        cfg.seed = seed_override
    if cfg.seed < 0:
        # numpy's generators take nonnegative seeds only
        raise ConfigError(f"global seed must be nonnegative, got {cfg.seed}")
    return cfg


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
            M = objectives.random_spd(n, float(p.get("cond", 10.0)),
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


@contextlib.contextmanager
def _writing(path):
    """Report an OSError from creating or writing `path` (an output
    directory or file) as a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def _output_file(cfg: ExperimentConfig, name: str) -> str:
    """The path of `name` in the output directory, which is created."""
    with _writing(cfg.out_dir):
        os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def cmd_gen(cfg: ExperimentConfig, out_path=None) -> str:
    p = cfg.problem
    if p.get("kind", "generated") != "generated":
        raise ConfigError("gen only serializes generated instances")
    problem = build_problem(cfg)
    path = out_path or _output_file(cfg, "instance.json")
    with _writing(path):
        objectives.save_instance(problem, path)
    return path


def cmd_run(cfg: ExperimentConfig):
    problem = build_problem(cfg)
    rules = build_rules(cfg, problem.dim)
    if not problem.smooth_path:
        for rule in rules:
            if rule.kind == "importance_coord":
                raise ConfigError(
                    "importance sampling is not offered on nonsmooth problems")
    # the gap, in the diagnostics and as a stopping rule, needs the optimum
    if (cfg.diagnostics or cfg.stop_on == "gap") and problem.opt_value is None:
        descent.empirical_optimum(problem)
    report_path = _output_file(cfg, "report.json")

    run_cfg = cfg.run_config()
    entries = {}
    full_result = None
    any_numeric_failure = False
    all_verified = True
    for rule in rules:
        name = rule.name
        try:
            result = descent.run(problem, rule, run_cfg)
        except descent.NumericFailureError as exc:
            any_numeric_failure = True
            entries[name] = {"rule": name, "error": str(exc)}
            continue
        if name == "full":
            full_result = result
        trace_path = os.path.join(cfg.out_dir, f"trace_{_safe_name(name)}.csv")
        with _writing(trace_path):
            descent.write_trace_csv(result, trace_path)
        first_F = result.trace[0].F if result.trace else result.final_F
        entry = {
            "rule": name,
            "trace": trace_path,
            "termination": result.termination,
            "iterations": len(result.trace),
            "final_F": result.final_F,
            "final_xi": result.final_xi,
            "L_used": result.L_used,
            "L_used_source": result.L_used_source,
            "cumulative_decrease": first_F - result.final_F,
            "heuristic_selection_used": any(r.heuristic for r in result.trace),
            "heuristic_selections": sum(r.heuristic for r in result.trace),
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
    if problem.dim == 1 and cfg.diagnostics and full_result is not None \
            and full_result.trace:
        trace = full_result.trace
        c = 1.0 / problem.objective.lambda_max
        rate = rates.general_nonconvex_epsilon(
            trace[0].xi, c, [row.k + 1 for row in trace])
        series_path = os.path.join(cfg.out_dir, "plateau_series.csv")
        with _writing(series_path), open(series_path, "w") as fh:
            fh.write("k,fx,dfx,rate\n")
            for row, r_k in zip(trace, rate):
                fh.write(f"{row.k},{row.xi!r},{row.lam!r},{r_k!r}\n")
        report["plateau_series"] = series_path

    with _writing(report_path), open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)

    if any_numeric_failure:
        return report, EXIT_NUMERIC
    if cfg.diagnostics and not all_verified:
        return report, EXIT_VERIFY
    return report, EXIT_OK


def cmd_rates(cfg: ExperimentConfig, epsilon=None, fmt="text", stream=None):
    stream = sys.stdout if stream is None else stream
    eps = cfg.epsilon if epsilon is None else epsilon
    if not eps > 0:
        raise ConfigError(f"epsilon must be positive, got {eps}")
    problem = build_problem(cfg)
    rules = build_rules(cfg, problem.dim)
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
            rho = rates.weakly_convex_rho(problem, x0, problem.L_scalar)
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
            try:
                i = int(direction[1:])
            except ValueError:
                raise ConfigError(f"bad unit direction {direction!r}") from None
            if not 1 <= i <= n:
                raise ConfigError(f"unit direction e{i} out of range 1..{n}")
            d = np.zeros(n)
            d[i - 1] = 1.0
        else:
            try:
                d = np.array([float(t) for t in direction.split(",")])
            except ValueError:
                raise ConfigError(f"bad direction {direction!r}") from None
    else:
        d = np.asarray(direction, dtype=float)
    if d.shape != (n,):
        raise ConfigError(f"direction has shape {d.shape}, expected ({n},)")
    norm = np.linalg.norm(d)
    if not 0 < norm < math.inf:
        raise ConfigError("direction must be finite and nonzero")
    d = d / norm
    if not 0 < radius < math.inf or points < 2:
        raise ConfigError("need a finite radius > 0 and at least 2 sample points")

    x_ref = problem.objective.known_minimizer
    if x_ref is None:
        rule = BlockRule("full_batch", n)
        run_cfg = descent.RunConfig(max_iters=2000)
        x_ref = descent.run(problem, rule, run_cfg).x
    x_ref = np.asarray(x_ref, dtype=float)

    path = out_path or _output_file(cfg, "slice.csv")
    ts = np.linspace(-radius, radius, points)
    with _writing(path), open(path, "w") as fh:
        fh.write("t,F\n")
        for t in ts:
            fh.write(f"{float(t)!r},{problem.F(x_ref + t * d)!r}\n")
    return path


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
