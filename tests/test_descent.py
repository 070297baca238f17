import csv
import math

import numpy as np
import pytest

from blockprox import engine, rates
from blockprox.descent import (
    TRACE_HEADER,
    IterationRecord,
    NumericFailureError,
    RunConfig,
    RunResult,
    UnverifiableError,
    empirical_optimum,
    run,
    sequence_bound_check,
    verify_trace,
    write_trace_csv,
)
from blockprox.linalg import CoordSet
from blockprox.objectives import (
    CompositeProblem,
    Objective,
    gen_instance,
    make_l1,
    make_quadratic,
    random_spd,
)
from blockprox.selection import BlockRule, parse_rule


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(max_iters=0)
    with pytest.raises(ValueError):
        RunConfig(max_iters=10, epsilon=0.0)
    with pytest.raises(ValueError):
        RunConfig(max_iters=10, stop_on="whenever")


def test_full_batch_quadratic_one_step():
    # matrix-curvature full step is the exact Newton step: done in one move
    problem = CompositeProblem(make_quadratic(random_spd(5, 6.0, 0)))
    result = run(problem, BlockRule("full_batch", 5),
                 RunConfig(max_iters=10, epsilon=1e-14, stop_on="gap",
                           x0=np.ones(5)))
    assert result.termination == "reached_gap"
    assert len(result.trace) <= 2
    assert result.final_xi <= 1e-14


def test_stop_on_certificate():
    problem = CompositeProblem(make_quadratic(np.eye(4)))
    result = run(problem, BlockRule("full_batch", 4),
                 RunConfig(max_iters=50, epsilon=1e-10, stop_on="certificate",
                           x0=np.ones(4)))
    assert result.termination == "reached_certificate"
    assert result.final_lambda < 1e-10


def test_exhausted_iters_and_trace_length():
    problem = CompositeProblem(make_quadratic(random_spd(6, 8.0, 1)))
    result = run(problem, parse_rule("uniform seed=0", 6),
                 RunConfig(max_iters=25, x0=np.ones(6)))
    assert result.termination == "exhausted_iters"
    assert len(result.trace) == 25
    assert result.rule_name == "uniform"
    assert result.L_used is None  # smooth path


def test_nonsmooth_L_used_matches_block_size():
    problem = gen_instance(20, 6, seed=0, lam=0.05)
    M = problem.objective.smoothness
    from blockprox.rates import L_tau
    serial = run(problem, parse_rule("uniform seed=0", 6),
                 RunConfig(max_iters=5))
    assert serial.L_used == pytest.approx(L_tau(M, 1))
    full = run(problem, parse_rule("full", 6), RunConfig(max_iters=5))
    assert full.L_used == pytest.approx(L_tau(M, 6))


def test_default_x0_is_origin():
    problem = CompositeProblem(make_quadratic(np.eye(3)))
    result = run(problem, BlockRule("full_batch", 3), RunConfig(max_iters=3))
    assert result.final_F == 0.0


def test_diagnostics_require_opt_value():
    problem = CompositeProblem(make_quadratic(np.eye(3)), make_l1(0.1))
    with pytest.raises(ValueError):
        run(problem, BlockRule("full_batch", 3),
            RunConfig(max_iters=5, record_diagnostics=True))


def test_divergence_guard():
    # an objective lying about its curvature: claimed M far below the true one
    Q = np.diag([50.0, 50.0])
    lying = Objective(dim=2, eval_f=lambda x: 0.5 * float(x @ (Q @ x)),
                      grad_f=lambda x: Q @ x, smoothness=0.01 * np.eye(2),
                      known_opt_value=0.0)
    problem = CompositeProblem(lying)
    with pytest.raises(NumericFailureError):
        run(problem, BlockRule("full_batch", 2),
            RunConfig(max_iters=50, x0=np.ones(2)))


def test_nan_initial_point():
    problem = CompositeProblem(make_quadratic(np.eye(2)))
    with pytest.raises(NumericFailureError):
        run(problem, BlockRule("full_batch", 2),
            RunConfig(max_iters=5, x0=np.array([np.nan, 0.0])))


def test_verify_trace_passes_all_rules_smooth():
    problem = gen_instance(30, 10, seed=0)
    empirical_optimum(problem)
    for text in ("full", "uniform", "importance", "greedy", "cyclic",
                 "nice:3", "greedymb:3"):
        result = run(problem, parse_rule(text, 10, default_seed=1),
                     RunConfig(max_iters=80, record_diagnostics=True,
                               x0=np.ones(10)))
        report = verify_trace(result)
        assert report.all_passed, (text, [(c.name, c.detail)
                                          for c in report.checks])


def test_verify_trace_passes_nonsmooth():
    problem = gen_instance(30, 10, seed=0, lam=0.02)
    empirical_optimum(problem)
    for text in ("full", "uniform", "greedy", "nice:3", "greedymb:3"):
        result = run(problem, parse_rule(text, 10, default_seed=2),
                     RunConfig(max_iters=80, record_diagnostics=True,
                               x0=np.ones(10)))
        assert verify_trace(result).all_passed


def test_verify_trace_needs_diagnostics():
    problem = CompositeProblem(make_quadratic(np.eye(3)))
    result = run(problem, BlockRule("full_batch", 3),
                 RunConfig(max_iters=3, x0=np.ones(3)))
    with pytest.raises(UnverifiableError):
        verify_trace(result)


def test_verify_trace_catches_corruption():
    problem = CompositeProblem(make_quadratic(random_spd(4, 5.0, 2)))
    result = run(problem, parse_rule("uniform seed=0", 4),
                 RunConfig(max_iters=20, record_diagnostics=True,
                           x0=np.ones(4)))
    assert verify_trace(result).all_passed
    result.trace[5].xi *= 3.0  # breaks the one-step inequality at k=4
    report = verify_trace(result)
    assert not report.all_passed
    bad = [c for c in report.checks if not c.passed]
    assert any("k=" in c.detail for c in bad)


def test_monotonicity_margin_reported():
    problem = CompositeProblem(make_quadratic(np.eye(3)))
    result = run(problem, BlockRule("full_batch", 3),
                 RunConfig(max_iters=3, record_diagnostics=True,
                           x0=np.ones(3)))
    report = verify_trace(result)
    mono = [c for c in report.checks if c.name == "monotonicity"][0]
    assert mono.passed and mono.worst_margin >= 0.0


def test_sequence_bound_check():
    # alpha^{t+1} = (1 - alpha^t beta^t) alpha^t satisfies the closed bound
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = [float(rng.uniform(0.1, 2.0))]
        betas = []
        for _ in range(40):
            b = float(rng.uniform(0.01, 0.9 / a[-1]))
            betas.append(b)
            a.append((1.0 - a[-1] * b) * a[-1])
        assert sequence_bound_check(a, betas)


def test_sequence_bound_check_precondition_named():
    with pytest.raises(ValueError, match="t=1"):
        sequence_bound_check([1.0, 0.5, 0.6], [0.5, 0.5])
    with pytest.raises(ValueError, match="positive"):
        sequence_bound_check([1.0, -0.5], [0.5])


def test_empirical_optimum_quadratic_l1():
    problem = CompositeProblem(make_quadratic(random_spd(5, 4.0, 4)),
                               make_l1(0.1))
    val = empirical_optimum(problem)
    assert problem.opt_value == val
    assert problem.opt_value_is_empirical
    # soft-thresholded optimum of a strongly convex composite: check
    # first-order stationarity of the scalar prox model at the solution
    from blockprox import engine
    rule = BlockRule("full_batch", 5)
    result = run(problem, rule, RunConfig(max_iters=20000))
    cert = engine.certificate(problem, result.x)
    assert cert.lambda_total < 1e-16


def test_trace_csv_schema(tmp_path):
    problem = gen_instance(20, 5, seed=0)
    empirical_optimum(problem)
    result = run(problem, parse_rule("nice:2 seed=0", 5),
                 RunConfig(max_iters=10, record_diagnostics=True,
                           x0=np.ones(5)))
    path = tmp_path / "trace.csv"
    write_trace_csv(result, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "rule", "block", "F", "xi", "lambda", "mu",
                       "theta", "step_norm", "ns"]
    assert len(rows) == 11
    first = rows[1]
    assert first[0] == "0" and first[1] == "nice:2"
    blocks = first[2].split(";")
    assert len(blocks) == 2
    assert all(1 <= int(b) <= 5 for b in blocks)  # 1-based coordinates
    assert float(first[3]) == pytest.approx(result.trace[0].F)
    # repr round-trips exactly
    assert float(rows[2][4]) == result.trace[1].xi


def test_trace_csv_empty_diagnostics(tmp_path):
    problem = CompositeProblem(make_quadratic(np.eye(3)), make_l1(0.1))
    result = run(problem, parse_rule("uniform seed=0", 3),
                 RunConfig(max_iters=4, x0=np.ones(3)))
    path = tmp_path / "t.csv"
    write_trace_csv(result, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[1][4] == ""  # xi column empty without diagnostics


def _csv_writer_trace(result, path):
    """The trace CSV as `csv.writer` writes it: the byte oracle of
    `write_trace_csv`."""

    def fmt(v):
        return "" if v is None else repr(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for r in result.trace:
            writer.writerow([
                r.k, result.rule_name,
                ";".join(str(i) for i in r.block.one_based()),
                fmt(r.F), fmt(r.xi), fmt(r.lam), fmt(r.mu), fmt(r.theta),
                fmt(r.step_norm), r.elapsed_ns,
            ])


def _assert_csv_bytes_match(result, tmp_path):
    expected, written = tmp_path / "expected.csv", tmp_path / "written.csv"
    _csv_writer_trace(result, expected)
    write_trace_csv(result, written)
    assert written.read_bytes() == expected.read_bytes()


@pytest.fixture(scope="module")
def n100_problems():
    smooth = gen_instance(200, 100, seed=3)
    l1 = gen_instance(200, 100, seed=3, lam=0.05)
    for problem in (smooth, l1):
        empirical_optimum(problem)
    return {"smooth": smooth, "l1": l1}


# the L1 block rules price their steps with the trace bound on L_8
@pytest.mark.filterwarnings("ignore:C\\(100,8\\) exceeds the enumeration budget")
@pytest.mark.parametrize("diagnostics", [True, False])
@pytest.mark.parametrize("kind, spec", [
    (kind, spec) for kind in ("smooth", "l1")
    for spec in ("full", "uniform", "importance", "greedy", "cyclic", "nice:8",
                 "greedymb:8")
    if kind == "smooth" or spec != "importance"  # smooth-path only
])
def test_trace_csv_bytes_match_csv_writer(n100_problems, tmp_path, kind, spec,
                                          diagnostics):
    result = run(n100_problems[kind], parse_rule(spec, 100, default_seed=7),
                 RunConfig(max_iters=25, record_diagnostics=diagnostics))
    _assert_csv_bytes_match(result, tmp_path)


def _hand_built_result(rows, rule_name="full", n=3):
    return RunResult(x=np.zeros(n), trace=rows, termination="exhausted_iters",
                     final_F=0.0, final_xi=None, final_lambda=None,
                     rule_name=rule_name, L_used=None)


def test_trace_csv_bytes_match_csv_writer_on_an_empty_trace(tmp_path):
    _assert_csv_bytes_match(_hand_built_result([]), tmp_path)


def test_trace_csv_bytes_match_csv_writer_on_edge_values(tmp_path):
    S = CoordSet((0, 2), 3)
    rows = [
        IterationRecord(0, S, -0.0, math.nan, math.inf, None, 5e-324, -math.inf, 12),
        IterationRecord(1, S, 5e-324, None, None, None, None, -0.0, 0),
        IterationRecord(2, CoordSet.full(3), math.nan, 0.1, -0.0, math.inf, None,
                        1e300, 2**63),
    ]
    for name in ['a,b"c', "full", "line\nbreak", "cr\rhere", ""]:
        _assert_csv_bytes_match(_hand_built_result(rows, name), tmp_path)


def test_trace_csv_builds_each_block_text_once(monkeypatch, tmp_path):
    calls = [0]
    one_based = CoordSet.one_based

    def counted(self):
        calls[0] += 1
        return one_based(self)

    monkeypatch.setattr(CoordSet, "one_based", counted)
    problem = gen_instance(200, 100, seed=0)
    result = run(problem, BlockRule("full_batch", 100), RunConfig(max_iters=400))
    assert len(result.trace) == 400
    write_trace_csv(result, tmp_path / "full.csv")
    # every row shares the rule's one full set, whose text is kept on it
    assert calls[0] == 1


def test_trace_csv_streams_its_rows(tmp_path):
    import tracemalloc

    full = CoordSet.full(1000)
    rows = [IterationRecord(k, full, 1.0 / (k + 3), 2.0 / (k + 3), 0.1 * k, 0.5,
                            1.0 / 7, 3.0 ** -k, 1000 + k) for k in range(5000)]
    result = _hand_built_result(rows, n=1000)
    path = tmp_path / "full.csv"
    tracemalloc.start()
    try:
        write_trace_csv(result, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file is about 20 MB; the writer holds one row at a time
    assert path.stat().st_size > 5000 * 3893
    assert peak < 2**20


def test_randomized_runs_reproducible():
    problem = CompositeProblem(make_quadratic(random_spd(6, 5.0, 5)))
    cfg = RunConfig(max_iters=30, x0=np.ones(6))
    r1 = run(problem, parse_rule("nice:2 seed=42", 6), cfg)
    r2 = run(problem, parse_rule("nice:2 seed=42", 6), cfg)
    assert [t.block for t in r1.trace] == [t.block for t in r2.trace]
    np.testing.assert_array_equal(r1.x, r2.x)


def _verify_trace_loop(result, rel_tol=1e-9):
    """verify_trace as a loop over the trace rows: the oracle for the
    vectorized checks. (name, passed, worst margin, detail) per check."""
    rows = result.trace
    xis = [r.xi for r in rows] + [result.final_xi]
    Fs = [r.F for r in rows] + [result.final_F]
    onestep_margin, onestep_ok, onestep_detail = np.inf, True, ""
    for r, xi_next in zip(rows, xis[1:]):
        abs_slack = 1e-12 * (1.0 + abs(r.F))
        bound = (1.0 - r.theta * r.mu) * r.xi + rel_tol * abs(r.xi) + abs_slack
        margin = bound - xi_next
        if margin < onestep_margin:
            onestep_margin = margin
        if xi_next > bound:
            onestep_ok, onestep_detail = False, f"violated at k={r.k}"
    mono_margin, mono_ok, mono_detail = np.inf, True, ""
    for r, F_next in zip(rows, Fs[1:]):
        slack = 1e-12 * (1.0 + abs(r.F))
        margin = r.F + slack - F_next
        if margin < mono_margin:
            mono_margin = margin
        if F_next > r.F + slack:
            mono_ok, mono_detail = False, f"violated at k={r.k}"
    product = 1.0
    for r in rows:
        product *= max(1.0 - r.theta * r.mu, 0.0)
    k_bound = (product * rows[0].xi * (1.0 + rel_tol) + rel_tol * rows[0].xi
               + 1e-12 * (1.0 + abs(rows[0].F)))
    k_margin = k_bound - xis[-1]
    return [("one_step_descent", onestep_ok, onestep_margin, onestep_detail),
            ("monotonicity", mono_ok, mono_margin, mono_detail),
            ("k_step_product_bound", k_margin >= 0.0, k_margin, "")]


def _checks(report):
    return [(c.name, c.passed, float.hex(float(c.worst_margin)), c.detail)
            for c in report.checks]


def test_verify_trace_matches_the_row_loop():
    smooth = gen_instance(30, 10, seed=0)
    l1 = gen_instance(30, 10, seed=0, lam=0.02)
    quad = CompositeProblem(make_quadratic(random_spd(4, 5.0, 2)))
    results = []
    for problem, specs in ((smooth, ("full", "uniform", "greedy", "nice:3")),
                           (l1, ("uniform", "cyclic", "greedymb:3"))):
        empirical_optimum(problem)
        results += [run(problem, parse_rule(spec, 10, default_seed=1),
                        RunConfig(max_iters=80, record_diagnostics=True, x0=np.ones(10)))
                    for spec in specs]
    # the corrupted trace of test_verify_trace_catches_corruption, a second
    # violation after it (the detail names the last), a rise in F, a nan theta
    for corrupt in (None, "xi", "xi twice", "F", "theta"):
        result = run(quad, parse_rule("uniform seed=0", 4),
                     RunConfig(max_iters=20, record_diagnostics=True, x0=np.ones(4)))
        if corrupt in ("xi", "xi twice"):
            result.trace[5].xi *= 3.0
            if corrupt == "xi twice":
                result.trace[12].xi *= 3.0
        elif corrupt == "F":
            result.trace[9].F = result.trace[8].F * 2.0 + 1.0
        elif corrupt == "theta":
            result.trace[3].theta = np.nan
        results.append(result)
    for result in results:
        want = [(name, ok, float.hex(float(margin)), detail)
                for name, ok, margin, detail in _verify_trace_loop(result)]
        assert _checks(verify_trace(result)) == want
    assert not any(verify_trace(result).all_passed for result in results[-4:])
    assert verify_trace(results[-3]).checks[0].detail == "violated at k=11"


def _turning_quadratic(nan_gradient_at=None, inf_value_after=None):
    """x'Qx/2 as a closure objective whose gradient is nan at its call
    `nan_gradient_at` and whose value is inf after step `inf_value_after`.
    Without diagnostics the iterate state reads the gradient once per
    iteration and the value once per iterate (x0 first)."""
    Q = np.diag([1.0, 2.0, 3.0, 4.0])
    calls = {"grad": 0, "f": 0}

    def grad_f(x):
        calls["grad"] += 1
        return np.full(4, np.nan) if calls["grad"] - 1 == nan_gradient_at else Q @ x

    def eval_f(x):
        calls["f"] += 1
        after_step = calls["f"] - 2
        return np.inf if after_step == inf_value_after else 0.5 * float(x @ (Q @ x))

    return CompositeProblem(Objective(dim=4, eval_f=eval_f, grad_f=grad_f,
                                      smoothness=Q, known_opt_value=0.0))


@pytest.mark.parametrize("spec", ["uniform", "full"])
def test_gradient_turning_nan_mid_run_is_a_numeric_failure(spec):
    problem = _turning_quadratic(nan_gradient_at=7)
    with pytest.raises(NumericFailureError, match=r"^gradient not finite at iteration 7$"):
        run(problem, parse_rule(spec, 4), RunConfig(max_iters=20, x0=np.ones(4)))


@pytest.mark.parametrize("spec", ["uniform", "full"])
def test_objective_turning_inf_after_a_step_is_a_numeric_failure(spec):
    problem = _turning_quadratic(inf_value_after=5)
    with pytest.raises(NumericFailureError,
                       match=r"^objective not finite after iteration 5$") as failure:
        run(problem, parse_rule(spec, 4), RunConfig(max_iters=20, x0=np.ones(4)))
    assert np.isfinite(failure.value.iterate).all()


def _empirical_optimum_loop(problem):
    """The full-batch loop `empirical_optimum` once ran on its own, kept as
    an oracle: closure F and gradient, stopped by a certificate below 1e-24
    or a step that lowers F by less than 1e-16 (1 + |F|)."""
    rule = BlockRule("full_batch", problem.dim)
    L, _ = rates.rule_L(problem, rule)
    S = rule.full_set
    x = np.zeros(problem.dim)
    F_cur = problem.F(x)
    for _ in range(200_000):
        grad = problem.grad_f(x)
        if engine.certificate(problem, x, L, grad=grad).lambda_total < 1e-24:
            break
        x = x + engine.block_step(problem, x, S, L, grad=grad).u_S
        F_next = problem.F(x)
        if F_cur - F_next < 1e-16 * (1.0 + abs(F_cur)):
            return min(F_cur, F_next)
        F_cur = F_next
    return F_cur


def _paper_instance(l1):
    problem = gen_instance(1000, 100, 17)
    if not l1:
        return problem
    lam = 0.2 * float(np.abs(problem.grad_f(np.zeros(100))).max())
    return gen_instance(1000, 100, 17, lam=lam)


@pytest.fixture(scope="module")
def paper_l1():
    return _paper_instance(l1=True)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _paper_instance(l1=False), id="paper-smooth"),
    pytest.param(lambda: _paper_instance(l1=True), id="paper-l1"),
] + [pytest.param(lambda s=s, lam=lam: gen_instance(40, 12, s, lam=lam),
                  id=f"40x12-s{s}-lam{lam}")
     for s in range(4) for lam in (0.0, 0.05)])
def test_empirical_optimum_matches_the_direct_loop(make):
    problem = make()
    want = _empirical_optimum_loop(problem)
    F0 = problem.F(np.zeros(problem.dim))
    got = empirical_optimum(problem)
    assert problem.opt_value == got and problem.opt_value_is_empirical
    assert abs(got - want) <= 1e-12 * max(abs(F0), abs(want))


def test_certificate_stop_ends_on_a_stagnant_objective(paper_l1):
    max_iters = 200_000
    result = run(paper_l1, BlockRule("full_batch", 100),
                 RunConfig(max_iters=max_iters, epsilon=1e-24, stop_on="certificate"))
    assert result.termination == "stagnated"
    assert len(result.trace) < max_iters
    # read at the returned x, not the certificate before the last step
    grad = paper_l1.objective.state_at(result.x).grad
    at_x = engine.certificate(paper_l1, result.x, result.L_used, grad=grad).lambda_total
    assert result.final_lambda == at_x != result.trace[-1].lam

    # a fixed budget keeps stepping past that point, along the same iterates
    iters = len(result.trace) + 20
    fixed = run(paper_l1, BlockRule("full_batch", 100), RunConfig(max_iters=iters))
    assert fixed.termination == "exhausted_iters"
    assert len(fixed.trace) == iters
    assert [r.F for r in fixed.trace[:len(result.trace)]] == [r.F for r in result.trace]


@pytest.mark.parametrize("spec", ["uniform seed=3", "cyclic", "nice:3 seed=3"])
def test_certificate_stop_steps_past_blocks_already_at_a_minimum(spec):
    # an L1 coordinate held at zero leaves F in place when picked; the run
    # goes on until the certificate vanishes
    problem = gen_instance(40, 12, 0)
    lam = 0.2 * float(np.abs(problem.grad_f(np.zeros(12))).max())
    problem = gen_instance(40, 12, 0, lam=lam)
    result = run(problem, parse_rule(spec, 12),
                 RunConfig(max_iters=1000, epsilon=1e-9, stop_on="certificate"))
    assert result.termination == "reached_certificate"
    F = [r.F for r in result.trace] + [result.final_F]
    assert any(a - b < 1e-16 * (1.0 + abs(a)) for a, b in zip(F, F[1:]))
