import ast
import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from blockprox import checks, cli, linalg, objectives
from blockprox.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    build_problem,
    build_rules,
    cmd_gen,
    cmd_rates,
    cmd_run,
    cmd_slice,
    load_config,
    main,
)
from blockprox.objectives import gen_instance, save_instance


def write_cfg(tmp_path, body, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


SMOOTH_CFG = """
[problem]
kind = generated
m = 30
n = 8
seed = 0

[rules]
rules = full, uniform, importance, greedy, cyclic, nice:3, greedymb:3

[run]
max_iters = 60
diagnostics = true
seed = 0

[output]
dir = {out}
"""


def test_load_config_and_seed_override(tmp_path):
    path = write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "out"))
    cfg = load_config(path)
    assert cfg.seed == 0 and cfg.max_iters == 60 and cfg.diagnostics
    assert len(cfg.rule_specs) == 7
    cfg2 = load_config(path, seed_override=9)
    assert cfg2.seed == 9


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.ini"))


def test_build_rules_empty_is_config_error(tmp_path):
    path = write_cfg(tmp_path, "[problem]\nkind = generated\n[rules]\nrules =\n")
    cfg = load_config(path)
    with pytest.raises(ConfigError):
        build_rules(cfg, 8)


def test_build_rules_per_rule_seeds(tmp_path):
    path = write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "o"))
    cfg = load_config(path, seed_override=100)
    rules = build_rules(cfg, 8)
    assert [r.seed for r in rules] == [100 + j for j in range(7)]


def test_build_problem_kinds(tmp_path):
    for kind, n in (("product_square", 2), ("huber_product", 2),
                    ("plateau", 1)):
        path = write_cfg(tmp_path, f"[problem]\nkind = {kind}\n"
                                   f"[rules]\nrules = full\n", f"{kind}.ini")
        assert build_problem(load_config(path)).dim == n
    path = write_cfg(tmp_path, "[problem]\nkind = mystery\n"
                               "[rules]\nrules = full\n", "bad.ini")
    with pytest.raises(ConfigError):
        build_problem(load_config(path))


def test_cmd_gen_idempotent(tmp_path):
    path = write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "out"))
    cfg = load_config(path)
    p1 = cmd_gen(cfg, out_path=str(tmp_path / "a.json"))
    p2 = cmd_gen(cfg, out_path=str(tmp_path / "b.json"))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    payload = json.loads((tmp_path / "a.json").read_text())
    sv = np.linalg.svd(np.array(payload["A"]).reshape(30, 8),
                       compute_uv=False)
    np.testing.assert_allclose(np.sort(sv), np.linspace(1 / 30, 1, 8),
                               rtol=1e-10)


def test_cmd_run_smooth_campaign(tmp_path):
    path = write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "out"))
    report, code = cmd_run(load_config(path))
    assert code == EXIT_OK
    assert len(report["runs"]) == 7
    for entry in report["runs"]:
        assert entry["verified"]
        assert (tmp_path / "out" / f"trace_{entry['rule'].replace(':', '_')}.csv").exists()
    assert "greedy_ge_uniform_decrease" in report
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    assert saved["runs"][0]["rule"] == "full"


def test_cmd_run_nonsmooth_campaign(tmp_path):
    body = SMOOTH_CFG.format(out=tmp_path / "out").replace(
        "seed = 0\n\n[rules]", "seed = 0\nlambda = 0.02\n\n[rules]").replace(
        "importance, ", "")
    path = write_cfg(tmp_path, body)
    report, code = cmd_run(load_config(path))
    assert code == EXIT_OK
    assert report["opt_value_is_empirical"]
    assert all(e["verified"] for e in report["runs"])


def test_cmd_run_instance_roundtrip(tmp_path):
    gen_path = write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "out"))
    inst = cmd_gen(load_config(gen_path), out_path=str(tmp_path / "i.json"))
    body = SMOOTH_CFG.format(out=tmp_path / "out2").replace(
        "kind = generated\nm = 30\nn = 8\nseed = 0", f"instance = {inst}")
    report, code = cmd_run(load_config(write_cfg(tmp_path, body, "c2.ini")))
    assert code == EXIT_OK


def test_cmd_rates_table(tmp_path):
    body = """
[problem]
kind = quadratic
n = 6
cond = 8
seed = 1

[rules]
rules = full, uniform, greedy, cyclic, nice:2

[run]
seed = 0
"""
    cfg = load_config(write_cfg(tmp_path, body))
    buf = io.StringIO()
    rows = cmd_rates(cfg, epsilon=1e-6, fmt="csv", stream=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "rule,class,constant,K"
    by_rule = {}
    for name, kind, c, K in rows:
        by_rule.setdefault(name, {})[kind] = (c, K)
    # strongly convex quadratic: all three classes certified for guaranteed rules
    assert set(by_rule["full"]) == {"general_nonconvex", "strongly_pl",
                                    "weakly_pl"}
    assert isinstance(by_rule["full"]["strongly_pl"][1], int)
    # cyclic rows carry the refusal, not a number
    assert by_rule["cyclic"]["strongly_pl"][0] is None
    # batch constant dominates serial ones
    assert by_rule["full"]["strongly_pl"][1] <= by_rule["uniform"]["strongly_pl"][1]


def test_cmd_slice_quadratic_parabola(tmp_path):
    body = """
[problem]
kind = quadratic
n = 4
seed = 2

[rules]
rules = full

[run]
seed = 0

[output]
dir = {out}
""".format(out=tmp_path / "out")
    cfg = load_config(write_cfg(tmp_path, body))
    path = cmd_slice(cfg, "e1", radius=2.0, points=5)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "F"]
    vals = [(float(t), float(F)) for t, F in rows[1:]]
    assert len(vals) == 5
    # symmetric parabola about the vertex at t = 0
    assert vals[0][1] == pytest.approx(vals[-1][1], rel=1e-12)
    assert vals[2][1] == pytest.approx(0.0, abs=1e-12)


def test_cmd_slice_lsq_cos_nonconvexity(tmp_path):
    path = write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "out"))
    cfg = load_config(path)
    # slice along the flattest direction of A, where the cosine term's
    # negative curvature can dominate the least-squares part
    problem = build_problem(cfg)
    _, _, Vt = np.linalg.svd(problem.objective.A)
    d = ",".join(repr(float(v)) for v in Vt[-1])
    out = cmd_slice(cfg, d, radius=8.0, points=801)
    with open(out) as fh:
        F = [float(r[1]) for r in list(csv.reader(fh))[1:]]
    second = np.diff(F, 2)
    assert second.min() < 0  # a slice of the cosine-perturbed objective dips


def test_cmd_slice_errors(tmp_path, capsys):
    path = write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "o"))
    cfg = load_config(path)
    with pytest.raises(ConfigError):
        cmd_slice(cfg, ",".join(["0"] * 8), radius=1.0, points=5)
    with pytest.raises(ConfigError):
        cmd_slice(cfg, "e1", radius=0.0, points=5)
    with pytest.raises(ConfigError):
        cmd_slice(cfg, "e1", radius=1.0, points=1)
    with pytest.raises(ConfigError):
        cmd_slice(cfg, "e99", radius=1.0, points=5)
    # malformed or non-finite input ends in a config error, not a traceback
    for extra in (["--direction", "a,b"], ["--direction", "e"],
                  ["--direction", "ex"], ["--direction", ",".join(["nan"] * 8)],
                  ["--radius", "nan"], ["--radius", "inf"]):
        assert main(["slice", path] + extra) == EXIT_CONFIG, extra
        assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "slice.csv").exists()


QUADRATIC_SLICE_CFG = """
[problem]
kind = quadratic
n = 4
seed = 2

[rules]
rules = full

[run]
seed = 0

[output]
dir = {out}
"""


@pytest.mark.parametrize("radius", [2.0, 0.3])
def test_cmd_slice_streams_the_linspace_points(tmp_path, monkeypatch, radius):
    """slice.csv holds the bytes of the np.linspace points, computed one at a
    time: it is written with np.linspace over [-radius, radius] unavailable."""
    cfg = load_config(write_cfg(tmp_path, QUADRATIC_SLICE_CFG.format(out=tmp_path / "out")))
    problem = build_problem(cfg)
    d = np.zeros(4)
    d[1] = 1.0
    expected = {}
    for points in (2, 3, 7, 201, 1000):
        rows = [f"{float(t)!r},{problem.F(t * d)!r}\n"  # the minimizer is 0
                for t in np.linspace(-radius, radius, points)]
        expected[points] = "t,F\n" + "".join(rows)

    original = np.linspace

    def guarded(start, stop, *args, **kwargs):
        if (start, stop) == (-radius, radius):
            raise MemoryError("the slice is to stream its points")
        return original(start, stop, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)
    for points, text in expected.items():
        path = cmd_slice(cfg, "e2", radius=radius, points=points)
        assert Path(path).read_bytes() == text.encode(), points


def test_main_exit_codes(tmp_path, capsys):
    good = write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "out"))
    assert main(["run", good]) == EXIT_OK
    empty = write_cfg(tmp_path, "[problem]\nkind = generated\nm = 10\nn = 4\n"
                                "[rules]\nrules =\n", "empty.ini")
    assert main(["run", empty]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "missing.ini")]) == EXIT_CONFIG
    # nonsmooth importance request is a config error end to end
    nim = write_cfg(tmp_path, """
[problem]
kind = quadratic
n = 4
lambda = 0.1
seed = 0

[rules]
rules = importance

[run]
max_iters = 10
seed = 0

[output]
dir = {out}
""".format(out=tmp_path / "outn"), "nim.ini")
    # run refuses the rule before any run and before writing a report
    assert main(["run", nim]) == EXIT_CONFIG
    assert not (tmp_path / "outn" / "report.json").exists()


def test_main_seed_override_changes_outputs(tmp_path):
    body = SMOOTH_CFG.format(out=tmp_path / "o1")
    p = write_cfg(tmp_path, body)
    assert main(["--seed", "5", "run", p]) == EXIT_OK
    r = json.loads((tmp_path / "o1" / "report.json").read_text())
    assert r["seed"] == 5


def test_plateau_series_columns(tmp_path):
    body = """
[problem]
kind = plateau

[rules]
rules = full

[run]
max_iters = 100
diagnostics = true
stop_on = certificate
epsilon = 1e-10
seed = 0

[output]
dir = {out}
""".format(out=tmp_path / "out")
    cfg = load_config(write_cfg(tmp_path, body))
    report, code = cmd_run(cfg)
    assert code == EXIT_OK
    series = report["plateau_series"]
    with open(series) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "fx", "dfx", "rate"]
    fx = [float(r[1]) for r in rows[1:]]
    rate = [float(r[3]) for r in rows[1:]]
    assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(rate, rate[1:]))
    assert fx[0] > 0 and rate[0] <= fx[0]
    # the rate is the general nonconvex bound at the full rule's 1/lambda_max
    from blockprox import rates

    c = 1.0 / build_problem(cfg).objective.lambda_max
    assert rate == rates.general_nonconvex_epsilon(fx[0], c, [int(r[0]) + 1 for r in rows[1:]])


def test_check_suite_negative_control():
    # a corrupted (non-PD) curvature matrix must fail the SPD check
    import blockprox.objectives as objectives

    class FakeObjective:
        smoothness = np.diag([1.0, -1.0])

    class FakeProblem:
        objective = FakeObjective()

    res = checks.check_spd(FakeProblem())
    assert not res.passed


@pytest.mark.parametrize("seed", range(4))
def test_check_suite_passes(tmp_path, capsys, seed):
    """`check` prints its 14 checks, one line each, all passing."""
    cfg = load_config(write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "o")),
                      seed_override=seed)
    checks, code = cli.run_check_suite(cfg)
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert len(checks) == len(lines) == 14
    assert all(c.passed for c in checks)
    assert all(line.startswith("PASS  ") and "worst_margin=" in line for line in lines)


@pytest.mark.parametrize("content", [None, "{not json", '{"m": 2, "n": 2}',
                                     '{"m": 2, "n": 2, "A": [1, 2, 3], "b": [0, 0], '
                                     '"c": [1, 0]}'])
def test_bad_instance_file_is_config_error(tmp_path, capsys, content):
    inst = tmp_path / "inst.json"
    if content is not None:
        inst.write_text(content)
    body = SMOOTH_CFG.format(out=tmp_path / "out").replace(
        "kind = generated\nm = 30\nn = 8\nseed = 0", f"instance = {inst}")
    assert main(["run", write_cfg(tmp_path, body)]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "rates"])
@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_non_finite_l1_weight_is_config_error(tmp_path, capsys, command, lam):
    body = SMOOTH_CFG.format(out=tmp_path / "out").replace(
        "kind = generated", f"kind = generated\nlambda = {lam}").replace(
        "importance, ", "")  # a weight != 0 refuses importance otherwise
    assert main([command, write_cfg(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "l1 weight" in err


def test_nan_l1_weight_in_instance_file_is_config_error(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    save_instance(gen_instance(10, 3, seed=0), inst)
    payload = json.loads(inst.read_text())
    payload["lambda"] = float("nan")
    inst.write_text(json.dumps(payload))  # written as the JSON token NaN
    body = SMOOTH_CFG.format(out=tmp_path / "out").replace(
        "kind = generated\nm = 30\nn = 8\nseed = 0", f"instance = {inst}").replace(
        "importance, ", "")
    assert main(["run", write_cfg(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "l1 weight" in err


def test_run_that_stops_before_its_first_step_verifies(tmp_path, capsys):
    """x0 = 0 is the quadratic's optimum, so gap stopping ends every run
    before its first step: an empty trace, nothing to audit, exit 0."""
    body = f"""
[problem]
kind = quadratic
n = 4

[rules]
rules = full, uniform, greedy

[run]
max_iters = 10
diagnostics = true
stop_on = gap

[output]
dir = {tmp_path / "out"}
"""
    assert main(["run", write_cfg(tmp_path, body)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for entry in report["runs"]:
        assert entry["termination"] == "reached_gap"
        assert entry["iterations"] == 0
        assert entry["verified"] is True and entry["verification"] == []


def test_duplicate_rule_names_are_config_error(tmp_path, capsys):
    body = SMOOTH_CFG.format(out=tmp_path / "out").replace(
        "rules = full, uniform, importance, greedy, cyclic, nice:3, greedymb:3",
        "rules = uniform seed=1, uniform seed=2")
    assert main(["run", write_cfg(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "uniform" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_cmd_run_report_matches_direct_runs_in_rule_order(tmp_path):
    from blockprox import descent

    cfg = load_config(write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "out")))
    report, code = cmd_run(cfg)
    assert code == EXIT_OK
    problem = build_problem(cfg)
    descent.empirical_optimum(problem)
    rules = build_rules(cfg, problem.dim)
    assert [e["rule"] for e in report["runs"]] == [r.name for r in rules]
    for entry, rule in zip(report["runs"], rules):
        result = descent.run(problem, rule, descent.RunConfig(
            max_iters=cfg.max_iters, record_diagnostics=True))
        assert entry["final_F"] == result.final_F
        assert entry["iterations"] == len(result.trace)
        with open(entry["trace"]) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["block"] for row in rows] == [
            ";".join(str(i) for i in r.block.one_based()) for r in result.trace]


def _count_L_tau(monkeypatch):
    from collections import Counter

    from blockprox import rates

    calls = Counter()
    original = rates.L_tau

    def counted(M, tau, budget=rates.DEFAULT_ENUMERATION_BUDGET):
        calls[tau] += 1
        return original(M, tau, budget)

    monkeypatch.setattr(rates, "L_tau", counted)
    return calls


def test_theta_bounds_compute_L_tau_once_per_tau(monkeypatch):
    from blockprox.objectives import gen_instance

    calls = _count_L_tau(monkeypatch)
    problem = gen_instance(m=40, n=12, seed=1, lam=0.05)
    for n_points in (5, 3):
        check = checks.check_theta_bounds(problem, seed=1, tau=3, n_points=n_points)
        assert check.passed
        # L_12 of the full rule is the objective's own lambda_max, no L_tau call
        assert calls == {1: 1, 3: 1}
    # another objective has its own cache
    other = gen_instance(m=40, n=12, seed=2, lam=0.05)
    assert checks.check_theta_bounds(other, seed=1, tau=3, n_points=1).passed
    assert calls == {1: 2, 3: 2}


@pytest.mark.parametrize("command", [
    ["check"], ["rates"], ["slice", "--direction", "random"], ["run"]])
@pytest.mark.parametrize("where", ["file", "flag"])
def test_negative_seed_is_config_error(tmp_path, capsys, command, where):
    body = SMOOTH_CFG.format(out=tmp_path / "out")
    if where == "file":  # the [run] seed; [problem] has its own
        body = body.replace("diagnostics = true\nseed = 0",
                            "diagnostics = true\nseed = -1")
        assert "seed = -1" in body
    argv = [command[0], write_cfg(tmp_path, body)] + command[1:]
    if where == "flag":
        argv = ["--seed", "-1"] + argv
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "seed" in err


def test_report_carries_L_used_and_its_source(tmp_path):
    from blockprox import rates

    path = write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "smooth"))
    report, code = cmd_run(load_config(path))
    assert code == EXIT_OK
    for entry in report["runs"]:
        assert entry["L_used"] is None and entry["L_used_source"] is None

    body = SMOOTH_CFG.format(out=tmp_path / "l1").replace(
        "seed = 0\n\n[rules]", "seed = 0\nlambda = 0.02\n\n[rules]").replace(
        "full, uniform, importance, greedy, cyclic, nice:3, greedymb:3",
        "uniform, full, nice:3").replace("seed = 0\n\n[output]",
                                         "seed = 0\nbudget = 20\n\n[output]")
    cfg = load_config(write_cfg(tmp_path, body, name="l1.ini"))
    assert cfg.budget == 20  # below C(8,3) = 56: nice:3 takes the trace bound
    with pytest.warns(UserWarning, match="trace upper bound"):
        report, code = cmd_run(cfg)
    assert code == EXIT_OK
    saved = json.loads((tmp_path / "l1" / "report.json").read_text())
    M = build_problem(cfg).objective.smoothness
    by_rule = {e["rule"]: e for e in saved["runs"]}
    assert by_rule["uniform"]["L_used"] == rates.L_tau(M, 1)
    assert by_rule["uniform"]["L_used_source"] == "exact"
    assert by_rule["full"]["L_used"] == rates.L_tau(M, 8)
    assert by_rule["full"]["L_used_source"] == "exact"
    assert by_rule["nice:3"]["L_used"] == float(np.sort(np.diag(M))[-3:].sum())
    assert by_rule["nice:3"]["L_used_source"] == "trace_bound"
    assert all(e["verified"] for e in saved["runs"])


@pytest.mark.parametrize("edit, command, expected", [
    (("max_iters = 60", "max_iters = 0"), ["run"], EXIT_CONFIG),
    (("max_iters = 60", "max_iters = 60\nepsilon = -1"), ["run"], EXIT_CONFIG),
    (None, ["rates", "--epsilon", "-1"], EXIT_CONFIG),
    # gap stopping without diagnostics still needs the optimum
    (("diagnostics = true", "diagnostics = false\nstop_on = gap"), ["run"], EXIT_OK),
    # NaN is not positive: refused like -1, before any rate is priced
    (("max_iters = 60", "max_iters = 60\nepsilon = nan"), ["rates"], EXIT_CONFIG),
    (None, ["rates", "--epsilon", "nan"], EXIT_CONFIG),
    # a block size on a serial rule, say greedy:3 meant as greedymb:3
    (("greedymb:3", "greedy:3"), ["run"], EXIT_CONFIG),
    (("max_iters = 60", "max_iters = 60\nbudget = -5"), ["run"], EXIT_CONFIG),
    (("max_iters = 60", "max_iters = 60\nbudget = -5"), ["rates"], EXIT_CONFIG),
    # only configparser's booleans, not a misspelt one read as false
    (("diagnostics = true", "diagnostics = ture"), ["run"], EXIT_CONFIG),
    (("diagnostics = true", "diagnostics = off"), ["run"], EXIT_OK),
])
def test_run_settings_end_in_exit_codes(tmp_path, capsys, edit, command, expected):
    body = SMOOTH_CFG.format(out=tmp_path / "out")
    if edit is not None:
        body = body.replace(*edit)
    path = write_cfg(tmp_path, body)
    assert main([command[0], path] + command[1:]) == expected
    err = capsys.readouterr().err
    assert ("config error:" in err) == (expected == EXIT_CONFIG)


@pytest.mark.parametrize("kind", ["generated", "quadratic"])
@pytest.mark.parametrize("epsilon", ["1e-320", "5e-324"])
def test_rates_at_a_tiny_epsilon_is_config_error(tmp_path, capsys, kind, epsilon):
    """At these epsilons K(epsilon) overflows to inf (general nonconvex,
    weakly PL) or divides by an epsilon product that underflows to 0."""
    sizes = "m = 30\n" if kind == "generated" else ""  # quadratic reads no m
    body = SMOOTH_CFG.format(out=tmp_path / "out").replace(
        "kind = generated\nm = 30\n", f"kind = {kind}\n{sizes}")
    path = write_cfg(tmp_path, body)
    assert main(["rates", path, "--epsilon", epsilon]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"epsilon {float(epsilon)!r} is too small" in err


def test_rates_prices_strong_pl_at_each_rules_own_L(tmp_path):
    """On the prox path a rule's strongly-PL mu is taken at the L its
    constant uses (L_1 = max M_ii for the serial rules), not at lambda_max:
    strongly_convex_mu grows with L, so lambda_max would overstate it."""
    from blockprox import descent, rates
    from blockprox.selection import parse_rule

    body = SMOOTH_CFG.format(out=tmp_path / "out").replace(
        "kind = generated\nm = 30\nn = 8", "kind = quadratic\nn = 10\ncond = 1.5\nlambda = 0.05")
    cfg = load_config(write_cfg(tmp_path, body))
    buf = io.StringIO()
    rows = {(name, kind): K for name, kind, _, K in cmd_rates(cfg, fmt="csv", stream=buf)}
    problem = build_problem(cfg)
    descent.empirical_optimum(problem)
    x0 = np.random.default_rng(cfg.seed).standard_normal(problem.dim)
    L_1 = rates.L_tau(problem.objective.smoothness, 1)
    mu = rates.strongly_convex_mu(problem, L_1)
    assert mu < rates.strongly_convex_mu(problem, problem.L_scalar)
    for spec in ("uniform", "greedy"):
        bound = rates.predict_K(parse_rule(spec, problem.dim),
                                rates.FunctionClass("strongly_pl", mu=mu), problem,
                                cfg.epsilon, problem.xi(x0))
        assert rows[(spec, "strongly_pl")] == bound.K(cfg.epsilon)


def test_cli_leaves_rate_arithmetic_to_rates():
    """`cli` reads from `rates` only what prices and refuses a rule, and
    catches none of the arithmetic errors that `rates` turns into a
    ValueError naming epsilon."""
    tree = ast.parse(Path(cli.__file__).read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "rates"}
    used |= {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module in ("rates", "blockprox.rates")
             for alias in node.names}
    assert used <= {"predict_K", "function_classes", "rule_constant",
                    "general_nonconvex_epsilon", "NoGuaranteeError", "NoParameterError"}
    caught = {node.id for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
              and handler.type is not None for node in ast.walk(handler.type)
              if isinstance(node, ast.Name)}
    assert not caught & {"OverflowError", "ZeroDivisionError", "ArithmeticError"}


def test_negative_budget_is_config_error(tmp_path):
    body = SMOOTH_CFG.format(out=tmp_path / "out")
    for budget, ok in ((-5, False), (-1, False), (0, True), (20, True)):
        path = write_cfg(tmp_path, body.replace(
            "max_iters = 60", f"max_iters = 60\nbudget = {budget}"))
        if ok:
            assert load_config(path).budget == budget
        else:
            with pytest.raises(ConfigError, match="budget must be nonnegative"):
                load_config(path)


def test_rates_constant_reads_the_run_budget(tmp_path, capsys):
    """`rates` prices nice:3 with the L that `run` steps with: the trace bound
    when [run] budget is below C(12, 3) = 220."""
    body = """
[problem]
kind = generated
m = 40
n = 12
seed = 0
lambda = 0.05

[rules]
rules = nice:3

[run]
max_iters = 20
budget = 5
seed = 0

[output]
dir = {out}
""".format(out=tmp_path / "out")
    path = write_cfg(tmp_path, body)
    with pytest.warns(UserWarning, match="trace upper bound"):
        assert main(["run", path]) == EXIT_OK
    entry, = json.loads((tmp_path / "out" / "report.json").read_text())["runs"]
    assert entry["L_used_source"] == "trace_bound"
    capsys.readouterr()
    with pytest.warns(UserWarning, match="trace upper bound"):
        assert main(["rates", path, "--format", "csv"]) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows and all(row["rule"] == "nice:3" for row in rows)
    for row in rows:
        assert float(row["constant"]) == 3 / (12 * entry["L_used"])


@pytest.mark.parametrize("budget, heuristic", [(None, False), (5, True)])
def test_report_counts_heuristic_selections(tmp_path, budget, heuristic):
    """Exact greedymb:3 at n=12 scores all C(12, 3) = 220 blocks; a budget
    below that makes every selection the forward-greedy heuristic."""
    body = """
[problem]
kind = generated
m = 40
n = 12
seed = 0

[rules]
rules = greedymb:3

[run]
max_iters = 25
seed = 0
{budget}
[output]
dir = {out}
""".format(budget="" if budget is None else f"budget = {budget}\n",
           out=tmp_path / "out")
    assert main(["run", write_cfg(tmp_path, body)]) == EXIT_OK
    entry, = json.loads((tmp_path / "out" / "report.json").read_text())["runs"]
    assert entry["iterations"] == 25
    assert entry["heuristic_selection_used"] is heuristic
    assert entry["heuristic_selections"] == (25 if heuristic else 0)


def test_cli_import_defers_scipy_sparse_and_special():
    """`scipy.sparse` (greedy-minibatch tables) and `scipy.special` (the
    plateau's rate curve) load on first use, not with the package."""
    import os
    import subprocess
    import sys

    import blockprox

    src = os.path.dirname(os.path.dirname(os.path.abspath(blockprox.__file__)))
    code = ("import sys, blockprox, blockprox.cli; "
            "print(sorted(m for m in ('scipy.sparse', 'scipy.special') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("where", ["an existing file", "a path under a file"])
@pytest.mark.parametrize("command", ["gen", "run", "slice"])
def test_unusable_output_dir_is_config_error(tmp_path, capsys, command, where):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker if where == "an existing file" else blocker / "out"
    body = ("[problem]\nkind = generated\nm = 10\nn = 3\n[rules]\nrules = full\n"
            f"[run]\nmax_iters = 5\n[output]\ndir = {out}\n")
    assert main([command, write_cfg(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output") and "Traceback" not in err


@pytest.mark.parametrize("command", ["gen", "slice"])
def test_out_option_leaves_the_output_dir_alone(tmp_path, capsys, command):
    unused = tmp_path / "unused"
    body = ("[problem]\nkind = generated\nm = 10\nn = 3\n[rules]\nrules = full\n"
            f"[output]\ndir = {unused}\n")
    target = tmp_path / "written"
    assert main([command, write_cfg(tmp_path, body), "--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == f"{target}\n"
    assert target.is_file() and not unused.exists()


BUDGET_CFG = """
[problem]
kind = generated
m = {m}
n = {n}
seed = 0
{extra}
[rules]
rules = {rules}

[run]
max_iters = 5
seed = 0
{budget}
[output]
dir = {out}
"""


@pytest.mark.parametrize("budget", [None, 20])
def test_report_carries_the_enumeration_budget_in_force(tmp_path, budget):
    body = BUDGET_CFG.format(m=40, n=12, extra="", rules="nice:3, greedymb:3",
                             budget="" if budget is None else f"budget = {budget}\n",
                             out=tmp_path / "out")
    assert main(["run", write_cfg(tmp_path, body)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    expected = linalg.DEFAULT_ENUMERATION_BUDGET if budget is None else budget
    assert report["enumeration_budget"] == expected
    assert list(report) == ["problem", "seed", "max_iters", "enumeration_budget",
                            "opt_value", "opt_value_is_empirical", "versions", "runs"]


def test_tables_that_cannot_be_allocated_are_a_config_error(tmp_path, capsys, monkeypatch):
    """An exact greedymb:15 at n = 30 needs C(30, 15) = 155,117,520 rows of
    tables; the allocation is made to fail here rather than attempted."""
    count = 155117520
    empty = np.empty

    def refused(shape, *args, **kwargs):
        if np.ndim(shape) and shape[0] == count:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refused)
    body = BUDGET_CFG.format(m=40, n=30, extra="", rules="greedymb:15",
                             budget="budget = 99999999999999999999999999\n",
                             out=tmp_path / "out")
    assert main(["run", write_cfg(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "C(30,15)" in err and "memory" in err


@pytest.mark.parametrize("command", ["run", "rates"])
@pytest.mark.parametrize("kind, sizes", [("generated", "m = 10000000000000000\nn = 10"),
                                         ("quadratic", "n = 300000000")])
def test_a_problem_that_cannot_be_allocated_is_a_config_error(tmp_path, capsys,
                                                             command, kind, sizes):
    """Its first matrix, m x n or n x n, is some 8e17 bytes: past any
    process's address space, so the allocation fails at once."""
    body = SMOOTH_CFG.format(out=tmp_path / "out").replace(
        "kind = generated\nm = 30\nn = 8", f"kind = {kind}\n{sizes}")
    assert main([command, write_cfg(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err and "does not fit in memory" in err
    assert sizes.replace("\n", ", ") in err


def test_subset_ranks_past_int64_are_a_config_error(tmp_path, capsys):
    """L_tau of nice:33 at n = 67 would walk C(67, 33) > 2**63 - 1 ranks:
    refused before any chunk, whatever the budget."""
    body = BUDGET_CFG.format(m=80, n=67, extra="lambda = 0.1\n", rules="nice:33",
                             budget="budget = 99999999999999999999999999\n",
                             out=tmp_path / "out")
    assert main(["run", write_cfg(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "C(67,33) = " in err and "int64" in err


@pytest.mark.parametrize("cond", ["0", "1e-300", "0.5", "-3", "nan", "inf"])
def test_quadratic_cond_below_one_or_not_finite_is_a_config_error(tmp_path, capsys, cond):
    """At cond = 0 (n = 6, seed 2) M's lambda_min is a rounding-level 1e-17
    that passes the factor check, and `rates` would print a strongly-PL K
    near 6e17: a cond below 1 or not finite is refused instead."""
    body = QUADRATIC_SLICE_CFG.format(out=tmp_path / "out").replace(
        "n = 4\n", f"n = 6\ncond = {cond}\n")
    assert main(["rates", write_cfg(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "cond" in err
    one = body.replace(f"cond = {cond}\n", "cond = 1\n")
    assert main(["rates", write_cfg(tmp_path, one)]) == EXIT_OK


def test_a_block_that_is_not_positive_definite_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    """The table's kernel, patched to invert -M[S, S], meets a block that is
    not positive definite: `run` and `rates` end in one `numeric failure:`
    line and exit 2, not a traceback."""
    spd_inverses = linalg.spd_inverses
    monkeypatch.setattr(linalg, "spd_inverses", lambda blocks: spd_inverses(-blocks))
    for command, rules in (("run", "greedymb:3"), ("rates", "nice:3")):
        body = BUDGET_CFG.format(m=40, n=12, extra="", rules=rules, budget="",
                                 out=tmp_path / command)
        assert main([command, write_cfg(tmp_path, body)]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1
        assert "S = [1 2 3] (1-based) is not positive definite" in err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_quadratic_with_no_coordinates_is_a_config_error_naming_n(tmp_path, capsys, n):
    """`kind = quadratic` with n < 1: `run` and `rates` end in one config
    error line that names n, not numpy's message about an empty array."""
    body = QUADRATIC_SLICE_CFG.format(out=tmp_path / "out").replace("n = 4\n", f"n = {n}\n")
    for command in ("run", "rates"):
        assert main([command, write_cfg(tmp_path, body)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: bad problem section: n must be at least 1, got {n}\n"


def _outputs_without_ns(out_dir):
    """Every file `run` wrote, by name, the trace CSVs without their ns
    column (the last one) and report.json without its run entries' wall_s."""
    outputs = {}
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        if path.name.startswith("trace_"):
            data = b"\r\n".join(row.rsplit(b",", 1)[0] for row in data.split(b"\r\n"))
        elif path.name == "report.json":
            report = json.loads(data)
            for entry in report["runs"]:
                del entry["wall_s"]
            data = json.dumps(report, indent=2).encode()
        outputs[path.name] = data
    return outputs


@pytest.mark.parametrize("l1", [False, True])
def test_twin_runs_write_the_same_bytes_but_the_timing_column(tmp_path, monkeypatch, l1):
    """A config plus the seed fixes every output byte except the trace's ns
    column: two `run`s of one config, each from its own directory (so that
    the relative trace paths in report.json agree), every rule of the path,
    diagnostics on."""
    body = SMOOTH_CFG.format(out="out")
    if l1:
        body = body.replace("seed = 0\n\n[rules]", "seed = 0\nlambda = 0.02\n\n[rules]").replace(
            "importance, ", "")
    outputs = []
    for twin in ("a", "b"):
        (tmp_path / twin).mkdir()
        monkeypatch.chdir(tmp_path / twin)
        assert main(["--seed", "3", "run", write_cfg(tmp_path / twin, body)]) == EXIT_OK
        outputs.append(_outputs_without_ns("out"))
    first, second = outputs
    rules = 6 if l1 else 7
    assert len(first) == rules + 1 and "report.json" in first
    assert first == second
    report = json.loads(first["report.json"])
    assert all(entry["verified"] for entry in report["runs"])


@pytest.mark.parametrize("command", ["run", "rates", "check", "gen", "slice"])
@pytest.mark.parametrize("edit, message", [
    (("max_iters = 60", "max_iter = 3"), "unknown key 'max_iter' in [run]"),
    (("diagnostics = true", "diagnostic = true"), "unknown key 'diagnostic' in [run]"),
    (("n = 8", "n = 8\nlamda = 0.1"), "unknown key 'lamda' in [problem]"),
    # cond is read by quadratic problems only
    (("n = 8", "n = 8\ncond = 3"), "unknown key 'cond' in [problem]"),
    (("kind = generated\nm = 30\nn = 8\nseed = 0", "kind = plateau\nbox = 2"),
     "unknown key 'box' in [problem]"),
    # a key is accepted only where a builder reads it
    (("kind = generated\nm = 30", "kind = quadratic\nm = 30"), "unknown key 'm' in [problem]"),
    (("kind = generated\nm = 30\nn = 8\nseed = 0", "instance = i.json\nlambda = 0.3"),
     "unknown key 'lambda' in [problem]"),
    (("kind = generated\nm = 30\nn = 8\nseed = 0", "kind = quadratic\ninstance = i.json"),
     "an instance is a generated problem, not kind = quadratic"),
    (("dir = ", "directory = "), "unknown key 'directory' in [output]"),
    (("[output]", "[outputs]"), "unknown section [outputs]"),
    (("[problem]", "[DEFAULT]\nseed = 1\n[problem]"), "unknown section [DEFAULT]"),
])
def test_unknown_config_keys_and_sections_are_config_errors(tmp_path, capsys, command,
                                                            edit, message):
    """A misspelt key or section ends every subcommand in one config error
    line naming it, before any work: a `max_iter` once ran the default 500
    steps and a `diagnostic` ran without diagnostics, both exiting 0."""
    body = SMOOTH_CFG.format(out=tmp_path / "out")
    assert edit[0] in body
    path = write_cfg(tmp_path, body.replace(*edit, 1))
    assert main([command, path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n" and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_every_documented_key_is_accepted(tmp_path):
    """Each key the module docstring lists loads, for each problem kind,
    with an instance in place of a kind too."""
    run = ("[rules]\nrules = full\n[run]\nmax_iters = 5\nepsilon = 1e-6\n"
           "diagnostics = false\nstop_on = iters\nseed = 1\nbudget = 10\n"
           f"[output]\ndir = {tmp_path / 'out'}\n")
    problems = {
        "generated": "m = 10\nn = 3\nseed = 2\nlambda = 0.1\n",
        "quadratic": "n = 3\nseed = 2\nlambda = 0.1\ncond = 4\n",
        "plateau": "c = 1.5\n",
        "product_square": "box = 2\n",
        "huber_product": "box = 2\n",
    }
    for kind, keys in problems.items():
        cfg = load_config(write_cfg(tmp_path, f"[problem]\nkind = {kind}\n{keys}{run}"))
        assert build_problem(cfg).dim in (1, 2, 3) and cfg.budget == 10
    inst = cmd_gen(load_config(write_cfg(tmp_path, f"[problem]\n{problems['generated']}{run}")),
                   out_path=str(tmp_path / "i.json"))
    cfg = load_config(write_cfg(tmp_path, f"[problem]\ninstance = {inst}\nkind = generated\n"
                                          f"{run}"))
    assert build_problem(cfg).dim == 3


#: A value other than the default for each key the schema lists.
OTHER_VALUES = {"m": "60", "n": "5", "seed": "3", "lambda": "0.1", "cond": "3",
                "c": "1.5", "box": "3"}


def _built(problem):
    """What tells two built problems apart: the l1 weight, M, and F at a
    point."""
    x = np.linspace(-1.0, 1.0, problem.dim)
    return problem.regularizer.lam, problem.objective.smoothness.tobytes(), problem.F(x)


@pytest.mark.parametrize("kind", list(cli.PROBLEM_KINDS))
def test_every_key_a_kind_accepts_changes_the_built_problem(tmp_path, kind):
    """A key is accepted exactly where its builder reads it: each key the
    schema lists for a kind changes the problem built, its default builds
    the problem the key's absence does, and report.json's `problem` holds
    the builder's arguments."""
    def built(lines):
        cfg = load_config(write_cfg(tmp_path, f"[problem]\nkind = {kind}\n{lines}"))
        return cli.problem_arguments(cfg), _built(build_problem(cfg))

    args, default = built("")
    keys = cli.PROBLEM_KINDS[kind][1]
    assert list(args) == ["kind", *keys]
    for key in keys:
        assert built(f"{key} = {args[key]!r}\n") == (args, default)
        changed_args, changed = built(f"{key} = {OTHER_VALUES[key]}\n")
        assert changed != default, key
        assert changed_args == {**args, key: type(args[key])(OTHER_VALUES[key])}
    if kind == "plateau":
        assert args["c"] == objectives.flat_inflection_coefficient()


def test_the_module_docstring_lists_the_schema():
    doc = cli.__doc__
    blocks = dict(re.findall(r"^    \[(\w+)\]\n((?:    .*\n)+)", doc, re.M))
    keys = {name: re.findall(r"^    (\w+) = ", block, re.M) for name, block in blocks.items()}
    assert keys == {"problem": ["kind"], "rules": ["rules"], "run": list(cli.RUN_KEYS),
                    "output": ["dir"]}
    assert list(cli.SECTION_KEYS) == ["rules", "run", "output"]
    kinds = re.search(r"^    kind = (.*)$", blocks["problem"], re.M).group(1)
    assert kinds.split(" | ") == list(cli.PROBLEM_KINDS)
    listed = re.findall(r"^    # (\w+): (.*)$", blocks["problem"], re.M)
    assert {kind: names.split(", ") for kind, names in listed} == {
        kind: list(schema) for kind, (_, schema) in cli.PROBLEM_KINDS.items()}


def test_the_readme_example_config_loads_and_builds(tmp_path):
    readme = Path(cli.__file__).parents[2] / "README.md"
    block, = re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)
    cfg = load_config(write_cfg(tmp_path, block))
    assert build_problem(cfg).dim == 50
    assert [rule.name for rule in build_rules(cfg, 50)] == cfg.rule_specs


def test_report_problem_holds_the_builders_arguments(tmp_path):
    inst = cmd_gen(load_config(write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "o"))),
                   out_path=str(tmp_path / "i.json"))
    for problem, expected in (
            ("kind = generated\nm = 30\nn = 8\nseed = 0",
             {"kind": "generated", "m": 30, "n": 8, "seed": 0, "lambda": 0.0}),
            ("kind = quadratic\nn = 6\nlambda = 0.02",
             {"kind": "quadratic", "n": 6, "cond": 10.0, "seed": 4, "lambda": 0.02}),
            (f"instance = {inst}", {"instance": inst})):
        body = SMOOTH_CFG.format(out=tmp_path / "out").replace(
            "kind = generated\nm = 30\nn = 8\nseed = 0", problem).replace(
            "rules = full, uniform, importance, greedy, cyclic, nice:3, greedymb:3",
            "rules = full")
        assert main(["--seed", "4", "run", write_cfg(tmp_path, body)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["problem"] == expected


def test_min_xi_shows_a_run_below_the_empirical_optimum(tmp_path):
    """On this L1 instance the empirical optimum is a local minimum that
    `uniform` undercuts; the audit passes on the rows it skips (xi < 0),
    and min_xi is what shows it."""
    lam = 0.2 * float(np.abs(gen_instance(40, 12, 0).grad_f(np.zeros(12))).max())
    body = (f"[problem]\nkind = generated\nm = 40\nn = 12\nseed = 0\nlambda = {lam!r}\n"
            "[rules]\nrules = uniform\n[run]\nmax_iters = 240\ndiagnostics = true\n"
            f"[output]\ndir = {tmp_path / 'out'}\n")
    report, code = cmd_run(load_config(write_cfg(tmp_path, body)))
    assert code == EXIT_OK
    entry, = report["runs"]
    assert entry["verified"]
    assert entry["min_xi"] < -0.03
    with open(entry["trace"]) as fh:
        xi = [float(row["xi"]) for row in csv.DictReader(fh)]
    assert entry["min_xi"] == min(xi + [entry["final_xi"]])

    # with no optimum there is no gap to report
    report, code = cmd_run(load_config(write_cfg(tmp_path, body.replace(
        "diagnostics = true", "diagnostics = false"))))
    assert code == EXIT_OK and report["runs"][0]["min_xi"] is None


def test_report_carries_library_versions_and_each_runs_wall_time(tmp_path, monkeypatch):
    """report.json's top level names the Python, numpy and scipy versions,
    the BLAS each was built with and the core and thread count it ran with
    (null where it cannot be asked); each run entry carries its wall time,
    which holds its steps (the trace's ns) and its set-up outside them (say
    the greedy minibatch's forms).  A run that fails numerically has one
    too."""
    import platform

    import scipy

    path = write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "out"))
    run = cli.descent.run

    def failing_cyclic(problem, rule, cfg):
        if rule.name == "cyclic":
            raise cli.descent.NumericFailureError("objective not finite after iteration 0")
        return run(problem, rule, cfg)

    monkeypatch.setattr(cli.descent, "run", failing_cyclic)
    _, code = cmd_run(load_config(path))
    assert code == cli.EXIT_NUMERIC
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    versions = report["versions"]
    assert {key: versions[key] for key in ("python", "numpy", "scipy")} == {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__}
    assert sorted(versions["blas"]) == ["numpy", "scipy"]
    for package in (np, scipy):
        blas = versions["blas"][package.__name__]
        assert sorted(blas) == ["core", "name", "threads", "version"]
        assert all(isinstance(blas[key], str) and blas[key] for key in ("name", "version"))
        # the runtime the run's bytes were made with: the count is the
        # caller's, which the run leaves as it found it
        assert {key: blas[key] for key in ("core", "threads")} == (
            cli.linalg.blas_runtime(package))
        assert blas["core"] is None or isinstance(blas["core"], str) and blas["core"]
        assert blas["threads"] is None or type(blas["threads"]) is int and blas["threads"] > 0
    monkeypatch.setattr(cli.linalg, "_OPENBLAS", {"numpy": None, "scipy": None})
    for blas in cli.library_versions()["blas"].values():
        assert blas["core"] is None and blas["threads"] is None
    assert [e["rule"] for e in report["runs"] if "error" in e] == ["cyclic"]
    for entry in report["runs"]:
        assert type(entry["wall_s"]) is float and entry["wall_s"] > 0, entry["rule"]
        if "error" not in entry:
            with open(entry["trace"], newline="") as fh:
                ns = sum(int(row["ns"]) for row in csv.DictReader(fh))
            assert entry["wall_s"] > ns * 1e-9, entry["rule"]
