import csv
import io
import json

import numpy as np
import pytest

from blockprox import checks, cli
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
        "kind = generated", f"instance = {inst}")
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
    # selection raises ValueError inside the run -> surfaces as numeric/config;
    # the campaign records it per-rule, so exit is non-zero either way
    assert main(["run", nim]) != EXIT_OK


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
    report, code = cmd_run(load_config(write_cfg(tmp_path, body)))
    assert code == EXIT_OK
    series = report["plateau_series"]
    with open(series) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "fx", "dfx", "rate"]
    fx = [float(r[1]) for r in rows[1:]]
    rate = [float(r[3]) for r in rows[1:]]
    assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(rate, rate[1:]))
    assert fx[0] > 0 and rate[0] <= fx[0]


def test_check_suite_negative_control():
    # a corrupted (non-PD) curvature matrix must fail the SPD check
    import blockprox.objectives as objectives

    class FakeObjective:
        smoothness = np.diag([1.0, -1.0])

    class FakeProblem:
        objective = FakeObjective()

    res = checks.check_spd(FakeProblem())
    assert not res.passed


def test_check_suite_passes(tmp_path, capsys):
    cfg = load_config(write_cfg(tmp_path, SMOOTH_CFG.format(out=tmp_path / "o")))
    checks, code = cli.run_check_suite(cfg)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert all(c.passed for c in checks)
    assert out.count("PASS") == len(checks)
    assert "worst_margin" in out


@pytest.mark.parametrize("content", [None, "{not json", '{"m": 2, "n": 2}',
                                     '{"m": 2, "n": 2, "A": [1, 2, 3], "b": [0, 0], '
                                     '"c": [1, 0]}'])
def test_bad_instance_file_is_config_error(tmp_path, capsys, content):
    inst = tmp_path / "inst.json"
    if content is not None:
        inst.write_text(content)
    body = SMOOTH_CFG.format(out=tmp_path / "out").replace(
        "kind = generated", f"instance = {inst}")
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
        "kind = generated", f"instance = {inst}").replace("importance, ", "")
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
        assert calls == {12: 1, 1: 1, 3: 1}
    # another objective has its own cache
    other = gen_instance(m=40, n=12, seed=2, lam=0.05)
    assert checks.check_theta_bounds(other, seed=1, tau=3, n_points=1).passed
    assert calls == {12: 2, 1: 2, 3: 2}


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
])
def test_run_settings_end_in_exit_codes(tmp_path, capsys, edit, command, expected):
    body = SMOOTH_CFG.format(out=tmp_path / "out")
    if edit is not None:
        body = body.replace(*edit)
    path = write_cfg(tmp_path, body)
    assert main([command[0], path] + command[1:]) == expected
    err = capsys.readouterr().err
    assert ("config error:" in err) == (expected == EXIT_CONFIG)


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
