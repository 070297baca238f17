"""Config-driven experiment harness.

Config files are INI text with four sections::

    [problem]
    kind = generated | quadratic | plateau | product_square | huber_product
    # generated: m, n, seed, lambda
    # quadratic: n, cond, seed, lambda
    # plateau: c
    # product_square: box
    # huber_product: box
    # lambda is the l1 weight and cond the condition number of M (finite,
    # >= 1); seed defaults to the global seed and c to the flat-inflection
    # coefficient
    # instance = path.json  (load a previously generated instance instead;
    # it takes no other key, and kind = generated only)

    [rules]
    rules = full, uniform, importance, greedy, nice:4, greedymb:4
    # each entry follows the grammar  full | uniform | importance | greedy |
    # cyclic | nice:<tau> | greedymb:<tau>  with optional  seed=<u64>

    [run]
    max_iters = 500
    epsilon = 1e-8
    diagnostics = true | false    # any configparser boolean
    stop_on = iters | gap | certificate
    seed = 0            # global seed; --seed on the command line overrides
    budget = 2000000    # subsets a rule may enumerate (>= 0)

    [output]
    dir = out

A section or key not listed here is a config error, and so is a
[problem] key not listed for its kind.  One schema states each key's parser
and default (`RUN_KEYS`, `PROBLEM_KINDS`); the key check, `load_config`,
`build_problem` and report.json's `problem` all read it.

Subcommands: gen, run, rates, check, slice.  Exit codes: 0 success,
1 config error, 2 numeric failure, 3 verification failure.  The module
builds problems and rules, calls the library and prints: `rates` takes each
rule's function classes, constant and K(epsilon) from `blockprox.rates`,
and the verification suite behind `check` lives in `blockprox.checks`.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from . import descent, linalg, objectives, rates
from .checks import EXIT_OK, EXIT_VERIFY, run_check_suite
from .objectives import CompositeProblem
from .selection import BlockRule, parse_rule

EXIT_CONFIG = 1
EXIT_NUMERIC = 2


class ConfigError(ValueError):
    pass


def _boolean(text: str) -> bool:
    """configparser's booleans, with `getboolean`'s message for any other."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


#: [run] keys: (parser, default), in the order they are parsed.  Each is the
#: `ExperimentConfig` field of its name.
RUN_KEYS = {"max_iters": (int, 500), "epsilon": (float, 1e-8),
            "diagnostics": (_boolean, False), "stop_on": (str, "iters"), "seed": (int, 0),
            "budget": (int, linalg.DEFAULT_ENUMERATION_BUDGET)}

#: The keys of each section but [problem], whose keys are its kind's.
SECTION_KEYS = {"rules": ("rules",), "run": RUN_KEYS, "output": ("dir",)}

#: Problem kinds: (builder, {key: (parser, default)}), the keys in the
#: builder's argument order.  A callable default is called with the config:
#: the seed defaults to the global seed.  The builders look the library up
#: when called, so that they call whatever `objectives` holds then.
_SEED, _LAMBDA, _BOX = (int, lambda cfg: cfg.seed), (float, 0.0), {"box": (float, 2.0)}
PROBLEM_KINDS = {
    "generated": (lambda *args: objectives.gen_instance(*args),
                  {"m": (int, 200), "n": (int, 50), "seed": _SEED, "lambda": _LAMBDA}),
    "quadratic": (lambda *args: objectives.quadratic_instance(*args),
                  {"n": (int, 10), "cond": (float, 10.0), "seed": _SEED, "lambda": _LAMBDA}),
    "plateau": (lambda c: CompositeProblem(objectives.make_plateau_1d(c)),
                {"c": (float, lambda cfg: objectives.flat_inflection_coefficient())}),
    "product_square": (lambda box: CompositeProblem(objectives.make_product_square(box)), _BOX),
    "huber_product": (lambda box: CompositeProblem(objectives.make_huber_product(box)), _BOX),
}


@dataclass
class ExperimentConfig:
    problem: dict  # [problem] as strings, parsed by `problem_arguments`
    rule_specs: list
    out_dir: str
    max_iters: int
    epsilon: float
    diagnostics: bool
    stop_on: str
    seed: int
    budget: int

    def run_config(self) -> descent.RunConfig:
        """The descent settings of every run; raises ValueError on bad ones."""
        return descent.RunConfig(
            max_iters=self.max_iters, epsilon=self.epsilon,
            record_diagnostics=self.diagnostics, stop_on=self.stop_on,
        )


def _kind(problem) -> str:
    """The kind of [problem], read off its section or its strings."""
    return problem.get("kind", "generated")


def _problem_keys(section):
    """The keys [problem] takes: `kind` and its kind's keys, or `kind` and
    `instance` for an instance; None for a kind with no builder, which
    `problem_arguments` refuses."""
    kind = _kind(section)
    if "instance" in section:
        if kind != "generated":
            raise ConfigError(f"an instance is a generated problem, not kind = {kind}")
        return ("kind", "instance")
    return ("kind", *PROBLEM_KINDS[kind][1]) if kind in PROBLEM_KINDS else None


def load_config(path, seed_override=None) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    for name in parser.sections():
        if name == "problem":
            accepted = _problem_keys(parser[name])
        elif name in SECTION_KEYS:
            accepted = SECTION_KEYS[name]
        else:
            raise ConfigError(f"unknown section [{name}]")
        for key in parser.options(name):
            if accepted is not None and key not in accepted:
                raise ConfigError(f"unknown key {key!r} in [{name}]")

    problem = dict(parser["problem"]) if parser.has_section("problem") else {}
    rule_text = parser.get("rules", "rules", fallback="")
    rule_specs = [tok.strip() for tok in rule_text.replace("\n", ",").split(",")
                  if tok.strip()]
    run_sec = parser["run"] if parser.has_section("run") else {}
    try:
        run = {key: parse(run_sec[key]) if key in run_sec else default
               for key, (parse, default) in RUN_KEYS.items()}
        cfg = ExperimentConfig(problem=problem, rule_specs=rule_specs,
                               out_dir=parser.get("output", "dir", fallback="out"),
                               **run)
        cfg.run_config()
    except ValueError as exc:
        raise ConfigError(f"bad run/output settings: {exc}") from exc
    if seed_override is not None:
        cfg.seed = seed_override
    if cfg.seed < 0:
        # numpy's generators take nonnegative seeds only
        raise ConfigError(f"global seed must be nonnegative, got {cfg.seed}")
    if cfg.budget < 0:
        raise ConfigError(f"budget must be nonnegative, got {cfg.budget}")
    return cfg


def problem_arguments(cfg: ExperimentConfig) -> dict:
    """What `build_problem` builds: {"instance": path}, or the kind and its
    keys' parsed values or defaults, in the builder's argument order."""
    p = cfg.problem
    if "instance" in p:
        return {"instance": p["instance"]}
    kind = _kind(p)
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    args = {"kind": kind}
    try:
        for key, (parse, default) in PROBLEM_KINDS[kind][1].items():
            args[key] = (parse(p[key]) if key in p
                         else default(cfg) if callable(default) else default)
    except ValueError as exc:
        raise ConfigError(f"bad problem section: {exc}") from exc
    return args


def build_problem(cfg: ExperimentConfig) -> CompositeProblem:
    args = problem_arguments(cfg)
    if "instance" in args:
        path = args["instance"]
        try:
            return objectives.load_instance(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load instance {path!r}: {exc!r}") from exc
    kind, *values = args.values()
    try:
        return PROBLEM_KINDS[kind][0](*values)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad problem section: {exc}") from exc
    except MemoryError:  # a problem past the memory, say an m x n matrix
        p = cfg.problem
        sizes = ", ".join(f"{key} = {p[key]}" for key in ("m", "n") if key in p)
        raise ConfigError(f"{kind} problem ({sizes}) does not fit in memory") from None


def build_rules(cfg: ExperimentConfig, n: int) -> list:
    if not cfg.rule_specs:
        raise ConfigError("at least one selection rule is required")
    rules = []
    for j, spec in enumerate(cfg.rule_specs):
        try:
            # isolated per-rule streams: derive each default seed from the
            # global seed and the rule's position
            rules.append(parse_rule(spec, n, default_seed=cfg.seed + j, budget=cfg.budget))
        except ValueError as exc:
            raise ConfigError(f"bad rule {spec!r}: {exc}") from exc
    names = [rule.name for rule in rules]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        # report entries and trace files are keyed by rule name
        raise ConfigError(f"rule listed more than once: {', '.join(duplicates)}")
    return rules


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
    if _kind(cfg.problem) != "generated":
        raise ConfigError("gen only serializes generated instances")
    problem = build_problem(cfg)
    path = out_path or _output_file(cfg, "instance.json")
    with _writing(path):
        objectives.save_instance(problem, path)
    return path


def library_versions() -> dict:
    """The Python, numpy and scipy versions, and per BLAS that numpy and
    scipy each ship: the name and version it was built with, and the core
    and thread count it runs with (`linalg.blas_runtime`, None where it
    cannot be asked), on which M's bytes depend."""
    def blas(package):
        info = package.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return {key: info.get(key) for key in ("name", "version")} | linalg.blas_runtime(package)

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"numpy": blas(np), "scipy": blas(scipy)}}


def cmd_run(cfg: ExperimentConfig):
    problem = build_problem(cfg)
    rules = build_rules(cfg, problem.dim)
    for rule in rules:
        rule.refuse_off_path(problem, ConfigError)
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
        start = time.perf_counter()
        try:
            result = descent.run(problem, rule, run_cfg)
        except descent.NumericFailureError as exc:
            any_numeric_failure = True
            entries[name] = {"rule": name, "error": str(exc),
                             "wall_s": time.perf_counter() - start}
            continue
        wall_s = time.perf_counter() - start
        if name == "full":
            full_rule, full_result = rule, result
        trace_path = os.path.join(cfg.out_dir, f"trace_{name.replace(':', '_')}.csv")
        with _writing(trace_path):
            descent.write_trace_csv(result, trace_path)
        trace = result.trace
        first_F = trace.F.item(0) if trace else result.final_F
        entry = {
            "rule": name,
            "trace": trace_path,
            "termination": result.termination,
            "iterations": len(trace),
            "final_F": result.final_F,
            "final_xi": result.final_xi,
            # below 0 where the run went under the (empirical) optimum
            "min_xi": (None if result.final_xi is None
                       else float(trace.xi.min(initial=result.final_xi))),
            "L_used": result.L_used,
            "L_used_source": result.L_used_source,
            "cumulative_decrease": first_F - result.final_F,
            "heuristic_selection_used": bool(trace.heuristic.any()),
            "heuristic_selections": int(trace.heuristic.sum()),
            # the run's set-up (its L, selection and step functions) and steps
            "wall_s": wall_s,
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
        "problem": problem_arguments(cfg),
        "seed": cfg.seed,
        "max_iters": cfg.max_iters,
        "enumeration_budget": cfg.budget,
        "opt_value": problem.opt_value,
        "opt_value_is_empirical": problem.opt_value_is_empirical,
        "versions": library_versions(),
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
        c = rates.rule_constant(full_rule, problem)[0]
        rate = rates.general_nonconvex_epsilon(
            trace.xi.item(0), c, range(1, len(trace) + 1))
        series_path = os.path.join(cfg.out_dir, "plateau_series.csv")
        with _writing(series_path), open(series_path, "w") as fh:
            fh.write("k,fx,dfx,rate\n")
            for k, (xi, lam, r_k) in enumerate(zip(trace.xi.tolist(), trace.lam.tolist(),
                                                   rate)):
                fh.write(f"{k},{xi!r},{lam!r},{r_k!r}\n")
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

    rows = []
    for rule in rules:
        for fclass in rates.function_classes(rule, problem, x0):
            try:
                bound = rates.predict_K(rule, fclass, problem, eps, xi0)
            except rates.NoGuaranteeError as exc:
                rows.append((rule.name, fclass.kind, None, str(exc)))
                continue
            try:
                rows.append((rule.name, fclass.kind, bound.constant, bound.K(eps)))
            except ValueError as exc:
                raise ConfigError(f"{exc} ({rule.name}, {fclass.kind})") from None

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
    step = 2.0 * radius / (points - 1)  # np.linspace's points, one at a time
    with _writing(path), open(path, "w") as fh:
        fh.write("t,F\n")
        for j in range(points):
            t = j * step - radius if j < points - 1 else float(radius)
            fh.write(f"{t!r},{problem.F(x_ref + t * d)!r}\n")
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
    except (ConfigError, configparser.Error, linalg.EnumerationTooLargeError,
            rates.NoGuaranteeError, rates.NoParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (descent.NumericFailureError, linalg.NotPositiveDefiniteError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
