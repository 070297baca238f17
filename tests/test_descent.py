import csv
import math
import warnings

import numpy as np
import pytest

from blockprox import engine, linalg, objectives, rates, selection
from blockprox.descent import (
    TRACE_HEADER,
    IterationRecord,
    NumericFailureError,
    RunConfig,
    RunResult,
    Trace,
    TraceCheck,
    TraceReport,
    UnverifiableError,
    _finite_gradient,
    empirical_optimum,
    run,
    sequence_bound_check,
    verify_trace,
    write_trace_csv,
)
from blockprox.linalg import CoordSet
from blockprox.objectives import (
    CompositeProblem,
    LsqCosState,
    Objective,
    gen_instance,
    make_l1,
    make_quadratic,
    random_spd,
)
from blockprox.selection import BlockRule, parse_rule, select


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
    with pytest.raises(AttributeError):  # a row is a copy: the columns hold the trace
        result.trace[5].xi = 0.0
    result.trace.xi[5] *= 3.0  # breaks the one-step inequality at k=4
    report = verify_trace(result)
    assert not report.all_passed
    bad = [c for c in report.checks if not c.passed]
    assert any("k=" in c.detail for c in bad)


def test_trace_rows_are_python_scalars_and_absent_columns_none():
    """Rows, by iteration, index and slice, hold Python int, float and bool
    values (so that they `json`-dump), and None for an absent column."""
    import json

    problem = gen_instance(30, 10, seed=0)
    empirical_optimum(problem)
    rule = parse_rule("greedymb:3", 10, default_seed=1)
    audited = run(problem, rule, RunConfig(max_iters=30, record_diagnostics=True))
    bare = run(gen_instance(30, 10, seed=0), rule, RunConfig(max_iters=30))
    for result, absent in ((audited, set()), (bare, {"xi", "lam", "mu", "theta"})):
        trace = result.trace
        rows = list(trace)
        assert len(rows) == len(trace) == 30
        assert rows[-1] == trace[-1] == trace[29] and trace[3:5] == rows[3:5]
        for row in rows:
            for name, value in row._asdict().items():
                want = {"k": int, "block": CoordSet, "elapsed_ns": int,
                        "heuristic": bool}.get(name, float)
                assert type(value) is (type(None) if name in absent else want), name
        assert json.loads(json.dumps(sum(r.elapsed_ns for r in trace))) > 0
        assert [getattr(trace, name) is None for name in ("xi", "lam", "mu", "theta")] == [
            name in absent for name in ("xi", "lam", "mu", "theta")]
    with pytest.raises(IndexError):
        audited.trace[30]


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


def _write_trace_csv_rows(result, path):
    """`write_trace_csv` as it read the trace's rows, one record at a time:
    the row oracle of the column writer."""
    name = result.rule_name
    if any(c in name for c in ',"\r\n'):
        name = '"' + name.replace('"', '""') + '"'

    def opt(v):
        return "" if v is None else repr(v)

    rows = (f"{r.k},{name},{r.block.block_text},{opt(r.F)},{opt(r.xi)},"
            f"{opt(r.lam)},{opt(r.mu)},{opt(r.theta)},{opt(r.step_norm)},"
            f"{r.elapsed_ns}\r\n" for r in result.trace)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        fh.writelines(rows)


def _assert_csv_bytes_match(result, tmp_path):
    """write_trace_csv gives the bytes of csv.writer and of the row writer."""
    expected, rows, written = (tmp_path / f"{name}.csv"
                               for name in ("expected", "rows", "written"))
    _csv_writer_trace(result, expected)
    _write_trace_csv_rows(result, rows)
    write_trace_csv(result, written)
    assert written.read_bytes() == expected.read_bytes() == rows.read_bytes()


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


def _trace_of(rows):
    """The columnar trace of hand-built `IterationRecord` rows (k 0, 1, ...);
    a field that is None on every row is an absent column."""

    def column(name, dtype=float):
        values = [getattr(r, name) for r in rows]
        if rows and all(v is None for v in values):
            return None
        return np.array(values, dtype=dtype)

    assert [r.k for r in rows] == list(range(len(rows)))
    return Trace([r.block for r in rows], column("F"), column("xi"), column("lam"),
                 column("mu"), column("theta"), column("step_norm"),
                 column("elapsed_ns", np.int64), column("heuristic", bool))


def _hand_built_result(rows, rule_name="full", n=3, final_F=0.0, final_xi=None):
    """A result holding `rows`, a list of `IterationRecord`s or a `Trace`."""
    trace = rows if isinstance(rows, Trace) else _trace_of(rows)
    return RunResult(x=np.zeros(n), trace=trace, termination="exhausted_iters",
                     final_F=final_F, final_xi=final_xi, final_lambda=None,
                     rule_name=rule_name, L_used=None)


def test_trace_csv_bytes_match_csv_writer_on_an_empty_trace(tmp_path):
    _assert_csv_bytes_match(_hand_built_result([]), tmp_path)


def _edge_rows():
    """Hand-built rows of edge values (nan, +-inf, -0.0, 5e-324, the int64
    extremes), each column present on every row or on none: two traces."""
    S = CoordSet((0, 2), 3)
    return [
        [IterationRecord(0, S, -0.0, math.nan, math.inf, 0.5, 5e-324, -math.inf, 12),
         IterationRecord(1, S, 5e-324, -0.0, -math.inf, math.inf, math.nan, -0.0, 0, True),
         IterationRecord(2, CoordSet.full(3), math.nan, 0.1, -0.0, -0.0, 1e-300,
                         1e300, 2**63 - 1)],
        [IterationRecord(0, CoordSet.full(3), math.inf, None, None, -0.0, None, 5e-324, 1),
         IterationRecord(1, S, -math.inf, None, None, math.nan, None, math.nan, 0)],
    ]


def test_trace_csv_bytes_match_csv_writer_on_edge_values(tmp_path):
    for rows in _edge_rows():
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

    k = np.arange(5000)
    trace = Trace([CoordSet.full(1000)] * 5000, 1.0 / (k + 3), 2.0 / (k + 3), 0.1 * k,
                  np.full(5000, 0.5), np.full(5000, 1.0 / 7), 3.0 ** -k, k + 1000,
                  np.zeros(5000, dtype=bool))
    result = _hand_built_result(trace, n=1000)
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


def _verify_trace_rows(result, rel_tol=1e-9):
    """verify_trace as it read the trace's rows into arrays: the row oracle
    of the columnar audit, bit for bit."""
    rows = list(result.trace)
    if not rows:
        return TraceReport(checks=[])
    if rows[0].xi is None or rows[0].theta is None:
        raise UnverifiableError("trace is missing diagnostics (xi, theta, mu)")

    F = np.array([r.F for r in rows], dtype=float)
    xi = np.array([r.xi for r in rows], dtype=float)
    contraction = 1.0 - (np.array([r.theta for r in rows], dtype=float)
                         * np.array([r.mu for r in rows], dtype=float))
    xi_next = np.append(xi[1:], result.final_xi)
    F_next = np.append(F[1:], result.final_F)
    abs_slack = 1e-12 * (1.0 + np.abs(F))
    bound = contraction * xi + rel_tol * np.abs(xi) + abs_slack
    upper = F + abs_slack
    product = float(np.multiply.accumulate(np.maximum(contraction, 0.0))[-1])
    k_bound = (product * rows[0].xi * (1.0 + rel_tol) + rel_tol * rows[0].xi
               + 1e-12 * (1.0 + abs(rows[0].F)))
    k_margin = k_bound - result.final_xi

    def row_check(name, margins, violated):
        margins = np.where(np.isnan(margins), np.inf, margins)
        bad = np.flatnonzero(violated)
        detail = f"violated at k={rows[bad[-1]].k}" if bad.size else ""
        return TraceCheck(name, not bad.size, float(margins[margins.argmin()]), detail)

    return TraceReport(checks=[
        row_check("one_step_descent", bound - xi_next, xi_next > bound),
        row_check("monotonicity", upper - F_next, F_next > upper),
        TraceCheck("k_step_product_bound", k_margin >= 0.0, k_margin),
    ])


def _assert_audit_matches_the_row_oracle(result):
    """Equal reports, field by field (margins by their bits, and the
    report's own Python bool and float types), or the same refusal."""
    try:
        want = _verify_trace_rows(result)
    except UnverifiableError:
        with pytest.raises(UnverifiableError):
            verify_trace(result)
        return
    got = verify_trace(result)
    assert _checks(got) == _checks(want)
    assert all(type(c.passed) is bool and type(c.worst_margin) is float
               for c in got.checks)


@pytest.fixture(scope="module")
def small_problems():
    problems = {}
    for seed in range(4):
        for kind, lam in (("smooth", 0.0), ("l1", 0.02)):
            problem = gen_instance(40, 12, seed=seed, lam=lam)
            empirical_optimum(problem)
            problems[kind, seed] = problem
    return problems


@pytest.mark.parametrize("diagnostics", [True, False])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["smooth", "l1"])
def test_columnar_audit_and_csv_match_the_row_oracles(small_problems, tmp_path, kind,
                                                      seed, diagnostics):
    problem = small_problems[kind, seed]
    for spec in ("full", "uniform", "importance", "greedy", "cyclic", "nice:3",
                 "greedymb:3"):
        if kind == "l1" and spec == "importance":
            continue  # smooth-path only
        result = run(problem, parse_rule(spec, 12, default_seed=seed),
                     RunConfig(max_iters=60, record_diagnostics=diagnostics))
        assert len(result.trace) == 60
        _assert_audit_matches_the_row_oracle(result)
        _assert_csv_bytes_match(result, tmp_path)


def test_a_run_that_stops_before_its_first_step_matches_the_row_oracles(tmp_path):
    """x0 = 0 is the quadratic's optimum: gap stopping ends the run with an
    empty trace, whose columns are empty arrays (xi, lam, mu and theta
    included: the run has diagnostics)."""
    problem = CompositeProblem(make_quadratic(random_spd(4, 5.0, 2)))
    result = run(problem, BlockRule("full_batch", 4),
                 RunConfig(max_iters=10, record_diagnostics=True, stop_on="gap"))
    assert result.termination == "reached_gap" and len(result.trace) == 0
    assert list(result.trace) == [] and result.trace.theta.shape == (0,)
    assert verify_trace(result).checks == []
    _assert_audit_matches_the_row_oracle(result)
    _assert_csv_bytes_match(result, tmp_path)


def _certificate_replay(problem, result):
    """lam, mu and theta per row and final_lambda of a diagnostics run from
    x0 = 0, by `engine.certificate` at each iterate: the trace's blocks
    replayed, each step read off the iterate's certificate, and mu and theta
    by the row formulas."""
    L, state = result.L_used, problem.objective.state_at(np.zeros(problem.dim))
    gap_floor = 1e-14 * max(1.0, abs(result.trace.F.item(0))) if len(result.trace) else 0.0
    rows = []
    for r in result.trace:
        cert = engine.certificate(problem, state.x, L, grad=state.grad)
        step = engine.block_step(problem, state.x, r.block, L, grad=state.grad,
                                 cert=cert)
        lam = cert.lambda_total
        if r.xi > gap_floor:
            mu, theta = lam / r.xi, (step.decrease / lam if lam > 0 else 0.0)
        else:
            mu = theta = 0.0
        rows.append((lam, mu, theta))
        state.move(r.block, step.u_S)
    assert state.x.tobytes() == result.x.tobytes()
    return rows, engine.certificate(problem, state.x, L, grad=state.grad).lambda_total


def _assert_certificates_match_the_replay(problem, result):
    rows, final_lambda = _certificate_replay(problem, result)
    got = [(r.lam, r.mu, r.theta) for r in result.trace]
    assert np.array(got).reshape(-1, 3).tobytes() == np.array(rows).reshape(-1, 3).tobytes()
    assert np.float64(result.final_lambda).tobytes() == np.float64(final_lambda).tobytes()


def test_chunked_certificates_match_a_per_iterate_replay(monkeypatch):
    """Diagnostics runs that take their certificates in chunks of 7 rows
    (every smooth rule; uniform, cyclic, nice:1, and the block rules full,
    nice:2 and nice:3, whose block decreases the chunk pass takes too, on
    L1) give the bits of a certificate per iterate, at and around the chunk
    edges, under a gap stop mid-chunk, and before the first step."""
    monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", 7 * 16 * 12)
    specs = {"smooth": ("full", "uniform", "importance", "greedy", "cyclic", "nice:1",
                        "nice:3", "greedymb:3"),
             "l1": ("uniform", "cyclic", "nice:1", "full", "nice:2", "nice:3")}
    gap_specs = {"smooth": ("uniform",), "l1": ("cyclic", "full", "nice:2", "nice:3")}
    smooth = gen_instance(40, 12, seed=3)
    lam = 0.2 * float(np.abs(smooth.grad_f(np.zeros(12))).max())
    for kind, problem in (("smooth", smooth), ("l1", gen_instance(40, 12, seed=3, lam=lam))):
        empirical_optimum(problem)
        for spec in specs[kind]:
            for iters in (1, 7, 20, 21):
                result = run(problem, parse_rule(spec, 12, default_seed=iters),
                             RunConfig(max_iters=iters, record_diagnostics=True))
                assert len(result.trace) == iters, (kind, spec, iters)
                _assert_certificates_match_the_replay(problem, result)
        # a gap reached in the third chunk, at the first row whose xi is at
        # most that of row 16
        for spec in gap_specs[kind]:
            xi = run(problem, parse_rule(spec, 12, default_seed=5),
                     RunConfig(max_iters=30)).trace.xi
            result = run(problem, parse_rule(spec, 12, default_seed=5),
                         RunConfig(max_iters=30, epsilon=xi.item(16),
                                   record_diagnostics=True, stop_on="gap"))
            stop = int(np.flatnonzero(xi <= xi.item(16))[0])
            assert result.termination == "reached_gap" and len(result.trace) == stop > 14, spec
            _assert_certificates_match_the_replay(problem, result)

    problem = CompositeProblem(make_quadratic(random_spd(12, 5.0, 2)))
    result = run(problem, parse_rule("uniform", 12),
                 RunConfig(max_iters=10, record_diagnostics=True, stop_on="gap"))
    assert result.termination == "reached_gap" and len(result.trace) == 0
    assert result.trace.lam.dtype == np.float64 and result.trace.lam.shape == (0,)
    assert result.final_lambda == 0.0


def test_a_hand_built_failing_trace_matches_the_row_oracle():
    """Rows whose F, and so the gap, rises after the steps k = 1 and k = 3:
    both per-row checks fail at those rows, and their details name the last.
    Then the edge-value rows, the first verifiable, the second refused."""
    S = CoordSet((1,), 3)
    F = [5.0, 4.0, 4.5, 3.0, 3.5, 2.0]
    rows = [IterationRecord(k, S, F_k, F_k - 1.0, 0.5, 0.2, 0.5, 0.1, 100 + k)
            for k, F_k in enumerate(F)]
    result = _hand_built_result(rows, final_F=1.5, final_xi=0.5)
    report = verify_trace(result)
    assert [(c.passed, c.detail) for c in report.checks] == [
        (False, "violated at k=3"), (False, "violated at k=3"), (True, "")]
    _assert_audit_matches_the_row_oracle(result)
    for rows in _edge_rows():
        _assert_audit_matches_the_row_oracle(_hand_built_result(rows, final_F=0.0,
                                                                final_xi=0.0))


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
        trace = result.trace
        if corrupt in ("xi", "xi twice"):
            trace.xi[5] *= 3.0
            if corrupt == "xi twice":
                trace.xi[12] *= 3.0
        elif corrupt == "F":
            trace.F[9] = trace.F[8] * 2.0 + 1.0
        elif corrupt == "theta":
            trace.theta[3] = np.nan
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


def test_finite_gradient_guard_flags_every_non_finite_entry():
    """One dot decides a finite gradient; entries are tested only when the
    dot is not finite, so a finite gradient whose squared norm overflows
    passes.  No RuntimeWarning fires on either path."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            for where in (0, 37, 99):
                grad = np.linspace(-1.0, 1.0, 100)
                grad[where] = bad
                assert not _finite_gradient(grad), (bad, where)
        huge = np.full(100, 1e200)
        huge[::2] *= -1.0
        assert sum(v * v for v in huge.tolist()) == math.inf
        assert _finite_gradient(huge)
        assert _finite_gradient(np.full(1, -1e300))
        assert _finite_gradient(np.zeros(3)) and _finite_gradient(np.array([-0.0]))


@pytest.mark.parametrize("spec", ["uniform", "full", "cyclic", "importance", "nice:2"])
def test_gradient_turning_nan_mid_run_is_a_numeric_failure(spec):
    problem = _turning_quadratic(nan_gradient_at=7)
    with pytest.raises(NumericFailureError, match=r"^gradient not finite at iteration 7$"):
        run(problem, parse_rule(spec, 4), RunConfig(max_iters=20, x0=np.ones(4)))


class _PoisonedState(LsqCosState):
    """A least-squares-plus-cosine state whose M x entry `entry` is set to
    `value` at the first rebuild of M x after the start point's (when n
    coordinates have moved), after q and a are taken (`after_sync`, a value
    that only the gradient entries see) or before (a value that q sees
    too)."""

    entry, value, after_sync = 5, math.nan, True
    syncs = 0

    def _sync(self):
        self.syncs += 1
        poison = self.syncs == 2 and self._moved == 0
        if poison and not self.after_sync:
            self._Mx[self.entry] = self.value
        super()._sync()
        if poison and self.after_sync:
            self._Mx[self.entry] = self.value


def _poisoned_run(problem, spec, monkeypatch, diagnostics=False, **poison):
    """A run whose iterate state is a `_PoisonedState` with the attributes
    `poison` (set after the start point's M x is taken)."""
    obj = problem.objective

    def state_at(x):
        state = _PoisonedState(obj, x)
        vars(state).update(poison)
        return state

    monkeypatch.setattr(obj, "state_at", state_at)
    return run(problem, parse_rule(spec, problem.dim, default_seed=1),
               RunConfig(max_iters=60, record_diagnostics=diagnostics))


@pytest.mark.parametrize("diagnostics", [False, True])
@pytest.mark.parametrize("kind", ["smooth", "l1"])
def test_a_non_finite_Mx_entry_is_reported_where_it_is_read(kind, diagnostics,
                                                            monkeypatch):
    """n = 12: M x is rebuilt after the step of iteration 11 (every rule
    here is serial), and one of its entries turns nan there.  A rule that
    forms the gradient (greedy) reports it at the next iteration, 12; one
    that reads only g_i reports it at the first iteration whose step reads
    that entry: cyclic's 17 for entry 5, uniform's first draw of the entry
    it drew at iteration 15."""
    problem = gen_instance(40, 12, seed=3)
    if kind == "l1":
        lam = 0.2 * float(np.abs(problem.grad_f(np.zeros(12))).max())
        problem = gen_instance(40, 12, seed=3, lam=lam)
    empirical_optimum(problem)
    clean = run(problem, parse_rule("uniform", 12, default_seed=1), RunConfig(max_iters=60))
    draws = [r.block.indices[0] for r in clean.trace]
    drawn = draws[15]
    for spec, entry, k in (("greedy", 5, 12), ("cyclic", 5, 17),
                           ("uniform", drawn, draws.index(drawn, 12))):
        with pytest.raises(NumericFailureError,
                           match=rf"^gradient not finite at iteration {k}$") as failure:
            _poisoned_run(problem, spec, monkeypatch, diagnostics, entry=entry)
        assert np.isfinite(failure.value.iterate).all()
    # an entry that no step reads before the next rebuild of M x, which
    # takes it from x again: the run ends as an unpoisoned run does
    unread = min(set(range(12)) - set(draws[12:24]))
    poisoned = _poisoned_run(problem, "uniform", monkeypatch, entry=unread)
    assert poisoned.x.tobytes() == clean.x.tobytes()
    # an entry that is already non-finite when q = x'Mx/2 is taken from it
    # makes f non-finite after the step whose move rebuilt M x
    with pytest.raises(NumericFailureError, match=r"^objective not finite after iteration 11$"):
        _poisoned_run(problem, "uniform", monkeypatch, diagnostics, entry=unread,
                      value=math.inf, after_sync=False)


def test_a_serial_step_that_overflows_ends_the_run_before_its_move():
    """M_11 = 1e-300 under a gradient entry of 1e10: u_1 = -1e310 overflows
    to -inf at iteration 1, cyclic's first step on coordinate 1.  The run
    fails as an objective that is not finite, at the finite iterate before
    the move, and f is never evaluated at the non-finite point."""
    values = []

    def eval_f(x):
        values.append(x.copy())
        return 0.5 * float(x @ x)

    problem = CompositeProblem(Objective(dim=2, eval_f=eval_f, grad_f=lambda x: x.copy(),
                                         smoothness=np.diag([1.0, 1e-300]),
                                         known_opt_value=0.0))
    with pytest.raises(NumericFailureError,
                       match=r"^objective not finite after iteration 1$") as failure:
        run(problem, parse_rule("cyclic", 2), RunConfig(max_iters=5, x0=np.array([0.5, 1e10])))
    assert np.isfinite(failure.value.iterate).all()
    assert len(values) == 2 and all(np.isfinite(x).all() for x in values)


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


def _bits(value):
    return np.float64(value).tobytes()


def _l1_instance(m, n, seed):
    """gen_instance with the L1 weight 0.2 ||grad f(0)||_inf."""
    lam = 0.2 * float(np.abs(gen_instance(m, n, seed).grad_f(np.zeros(n))).max())
    return gen_instance(m, n, seed, lam=lam)


def _certificate_stop_oracle(problem, cfg):
    """A certificate-stopped full-batch run as a loop over its iterates: at
    each, `engine.certificate`; a total below epsilon ends the run
    (reached_certificate), else a stagnant last step does (stagnated), else
    the full step and its decrease are read off the certificate
    (`engine.block_step`) and the state moves.  Returns the run's rows as
    (F, lambda, decrease, step norm), and its x, F, termination and
    `final_lambda` (at max_iters, the certificate at the last x)."""
    n, reg = problem.dim, problem.regularizer
    rule = BlockRule("full_batch", n)
    L, S = rates.rule_L(problem, rule)[0], rule.full_set
    state = problem.objective.state_at(np.zeros(n) if cfg.x0 is None else cfg.x0.copy())
    F = state.f + reg.value(state.x)
    rows, stagnant, termination = [], False, "exhausted_iters"
    for _ in range(cfg.max_iters):
        cert = engine.certificate(problem, state.x, L, grad=state.grad)
        lam = cert.lambda_total
        if lam < cfg.epsilon:
            termination = "reached_certificate"
            break
        if stagnant:
            termination = "stagnated"
            break
        step = engine.block_step(problem, state.x, S, L, grad=state.grad, cert=cert)
        state.move(S, step.u_S)
        F_next = state.f + reg.value(state.x)
        rows.append((F, lam, step.decrease, math.sqrt(float(step.u_S.dot(step.u_S)))))
        stagnant = F - F_next < 1e-16 * (1.0 + abs(F))
        F = F_next
    else:
        lam = engine.certificate(problem, state.x, L, grad=state.grad).lambda_total
    return rows, state.x, F, termination, lam


def _assert_certificate_stop_matches_the_oracle(problem, cfg):
    """`run` of the full-batch rule under `cfg`, with diagnostics on and off,
    against `_certificate_stop_oracle`: the bits of x, F, xi, lambda, mu,
    theta, the step norms, the blocks, termination, `final_lambda` and the
    length.  Returns the oracle's rows and termination."""
    rows, x, F, termination, final_lambda = _certificate_stop_oracle(problem, cfg)
    opt = problem.opt_value
    gap_floor = 1e-14 * max(1.0, abs(rows[0][0])) if rows else 0.0
    mu, theta = [], []
    for F_k, lam, decrease, _ in rows:
        live = F_k - opt > gap_floor
        mu.append(lam / (F_k - opt) if live else 0.0)
        theta.append(decrease / lam if live and lam > 0 else 0.0)
    F_col, lams, _, norms = (np.array([r[j] for r in rows], dtype=float) for j in range(4))
    for diagnostics in (True, False):
        result = run(problem, BlockRule("full_batch", problem.dim),
                     RunConfig(max_iters=cfg.max_iters, epsilon=cfg.epsilon, x0=cfg.x0,
                               stop_on="certificate", record_diagnostics=diagnostics))
        trace, what = result.trace, (termination, len(rows), diagnostics)
        assert (result.termination, len(trace)) == (termination, len(rows)), what
        assert all(S.is_full() for S in trace.blocks), what
        assert result.x.tobytes() == x.tobytes(), what
        for got, want in ((trace.F, F_col), (trace.xi, F_col - opt), (trace.lam, lams),
                          (trace.step_norm, norms)):
            assert got.tobytes() == want.tobytes(), what
        if diagnostics:
            assert trace.mu.tobytes() == np.array(mu, dtype=float).tobytes(), what
            assert trace.theta.tobytes() == np.array(theta, dtype=float).tobytes(), what
        else:
            assert trace.mu is None and trace.theta is None, what
        assert (_bits(result.final_F), _bits(result.final_xi), _bits(result.final_lambda)) == (
            _bits(F), _bits(F - opt), _bits(final_lambda)), what
    return rows, termination


# the configuration `empirical_optimum` runs
EMPIRICAL = RunConfig(max_iters=200_000, epsilon=1e-24, stop_on="certificate")
# x'Qx/2 + lam ||x||_1 with Q = random_spd(n, cond, seed), as (n, cond, seed,
# lam), whose full steps from x = 1 reach lambda = 0 exactly
L1_QUADRATICS = [(10, 8.0, 0, 0.1), (8, 6.0, 1, 0.2), (6, 4.0, 2, 0.1), (12, 10.0, 4, 0.3)]


@pytest.mark.parametrize("make, cfg, termination", [
    *(pytest.param(lambda s=s: _l1_instance(40, 12, s), EMPIRICAL, "stagnated",
                   id=f"40x12-s{s}") for s in range(4)),
    pytest.param(lambda: _l1_instance(200, 32, 1), EMPIRICAL, "stagnated", id="200x32-s1"),
    *(pytest.param(lambda q=q: objectives.quadratic_instance(*q),
                   RunConfig(max_iters=1000, epsilon=1e-24, x0=np.ones(q[0]),
                             stop_on="certificate"),
                   "reached_certificate", id=f"quadratic-{q[0]}") for q in L1_QUADRATICS),
])
def test_certificate_stopped_l1_full_runs_match_a_per_iterate_oracle(make, cfg, termination):
    """A certificate-stopped L1 full run tests lambda a chunk of iterates at a
    time, and stops at the first row where it vanished: the bits of a run
    that takes the certificate at every iterate, for runs that end
    stagnated and runs whose certificate reaches 0 exactly.  The empirical
    optimum is the lower F of the oracle's last step."""
    problem = make()
    F_star = empirical_optimum(problem)
    rows, got = _assert_certificate_stop_matches_the_oracle(problem, cfg)
    assert got == termination and len(rows) > 2
    if cfg is EMPIRICAL:
        _, _, F, _, _ = _certificate_stop_oracle(problem, cfg)
        assert _bits(F_star) == _bits(min(F, rows[-1][0]))


def test_a_certificate_stop_lands_on_any_row_of_a_chunk(monkeypatch):
    """x0 tested inline, then chunks of 2, 4, 8, then 10 rows (the patched
    row count): epsilons just above the lambda of rows 0 (x0), 7, 10, 14,
    25, 30 and 34 (the first, a middle and the last row of a chunk, a
    saturated one too) and of the stagnating iterate end the run there, as
    a certificate per iterate does; so does a max_iters that ends
    mid-chunk."""
    monkeypatch.setattr(linalg, "SUBSET_CHUNK_BYTES", 10 * 16 * 12)
    problem = _l1_instance(40, 12, 0)
    empirical_optimum(problem)
    rows, x, _, termination, final_lambda = _certificate_stop_oracle(problem, EMPIRICAL)
    assert termination == "stagnated"
    lams = [lam for _, lam, _, _ in rows] + [final_lambda]
    for stop in (0, 7, 10, 14, 25, 30, 34, len(rows)):
        epsilon = float(np.nextafter(lams[stop], math.inf))
        assert min(lams[:stop], default=math.inf) >= epsilon, stop
        cfg = RunConfig(max_iters=200_000, epsilon=epsilon, stop_on="certificate")
        got, termination = _assert_certificate_stop_matches_the_oracle(problem, cfg)
        assert (termination, len(got)) == ("reached_certificate", stop)
    for iters in (12, 30):
        cfg = RunConfig(max_iters=iters, epsilon=1e-24, stop_on="certificate")
        got, termination = _assert_certificate_stop_matches_the_oracle(problem, cfg)
        assert (termination, len(got)) == ("exhausted_iters", iters)


def _failing_l1_quadratic(nan_gradient_at=None, inf_value_after=None):
    """x'Qx/2 + 0.1 ||x||_1 with Q = random_spd(10, 8.0, 0) as a closure
    objective whose gradient is nan at iterate `nan_gradient_at` and whose
    value is inf after step `inf_value_after` (the state reads one gradient
    per iterate, and one value at x0 and after each step)."""
    Q = random_spd(10, 8.0, 0)
    calls = {"grad": 0, "f": 0}

    def grad_f(x):
        calls["grad"] += 1
        return np.full(10, np.nan) if calls["grad"] - 1 == nan_gradient_at else Q @ x

    def eval_f(x):
        calls["f"] += 1
        return np.inf if calls["f"] - 2 == inf_value_after else 0.5 * float(x @ (Q @ x))

    problem = CompositeProblem(Objective(dim=10, eval_f=eval_f, grad_f=grad_f, smoothness=Q),
                               make_l1(0.1))
    problem.opt_value = 0.0
    return problem


@pytest.mark.parametrize("diagnostics", [False, True])
def test_a_failure_past_a_vanished_certificate_ends_the_run_where_it_vanished(diagnostics):
    """From x = 1 the certificate first falls below 0.1 at iterate 11, in
    the chunk of rows 7 to 14.  A nan gradient at iterate 12 or 14, or an
    inf objective after the step from iterate 11 or 13, comes past it: the
    run ends there (reached_certificate), with the bits of a run without
    the failure.  The same failures under an epsilon that no iterate
    before them reaches raise, with the message and the iterate of a
    certificate per iterate."""
    x0 = np.ones(10)

    def cfg(epsilon, max_iters=1000):
        return RunConfig(max_iters=max_iters, epsilon=epsilon, x0=x0, stop_on="certificate",
                         record_diagnostics=diagnostics)

    clean = run(_failing_l1_quadratic(), BlockRule("full_batch", 10), cfg(0.1))
    assert clean.termination == "reached_certificate" and len(clean.trace) == 11
    for poison in ({"nan_gradient_at": 12}, {"nan_gradient_at": 14},
                   {"inf_value_after": 11}, {"inf_value_after": 13}):
        result = run(_failing_l1_quadratic(**poison), BlockRule("full_batch", 10), cfg(0.1))
        assert result.termination == "reached_certificate", poison
        assert result.x.tobytes() == clean.x.tobytes(), poison
        for column in ("F", "xi", "lam", "mu", "theta", "step_norm"):
            got, want = getattr(result.trace, column), getattr(clean.trace, column)
            assert (got is None and want is None) or got.tobytes() == want.tobytes(), column
        assert (_bits(result.final_F), _bits(result.final_lambda)) == (
            _bits(clean.final_F), _bits(clean.final_lambda)), poison
    for poison, message, at in (({"nan_gradient_at": 5}, "gradient not finite at iteration 5", 5),
                                ({"inf_value_after": 5}, "objective not finite after iteration 5",
                                 6)):
        with pytest.raises(NumericFailureError, match=rf"^{message}$") as failure:
            run(_failing_l1_quadratic(**poison), BlockRule("full_batch", 10), cfg(1e-24))
        # the iterate the failure names: x after `at` steps
        oracle = _certificate_stop_oracle(_failing_l1_quadratic(), cfg(1e-24, max_iters=at))
        assert failure.value.iterate.tobytes() == oracle[1].tobytes(), poison


def _record_the_kernels(monkeypatch):
    """Wrap the two per-run factories: count their calls, and record each
    step function call's iterate and its result."""
    builds, steps = [], []
    picker, stepper = selection.picker, engine.stepper

    def counted_picker(rule, problem):
        builds.append("picker")
        return picker(rule, problem)

    def recording_stepper(problem, size, L):
        builds.append("stepper")
        step = stepper(problem, size, L)

        def recorded(x, S, grad, cert):
            out = step(x, S, grad, cert)
            steps.append((x.copy(), out))
            return out

        return recorded

    monkeypatch.setattr(selection, "picker", counted_picker)
    monkeypatch.setattr(engine, "stepper", recording_stepper)
    return builds, steps


# F of a serial L1 run, whose g adds a running ||x||_1, against
# f + `regularizer.value`, relative to max(|F|, |F(x0)|)
STATE_RTOL = 1e-12


def _assert_F_replays(F_run, F_replayed, F_start, running, what):
    """F's bits, or, where the run keeps a running ||x||_1, F within
    STATE_RTOL."""
    if running:
        assert abs(F_run - F_replayed) <= STATE_RTOL * max(abs(F_replayed), abs(F_start)), what
    else:
        assert _bits(F_run) == _bits(F_replayed), what


def _replay(problem, make_rule, result, steps, x0):
    """Every step of `result` again through the public `select`,
    `block_step` (with and without the certificate on the prox path) and
    `IterateState.move`, from x0 on a fresh state with a fresh rule: the
    bits of S, u_S, the decrease, x and the heuristic flag, and of F but
    on a serial prox-path run (within STATE_RTOL there).  A prox-path block
    step without a certificate forms no decrease; in a diagnostics run its
    theta is the replayed decrease over lambda, as the loop divides them."""
    rule, L, prox = make_rule(), result.L_used, not problem.smooth_path
    trace = result.trace
    state = problem.objective.state_at(x0.copy())
    F_start = problem.F(x0)
    running = prox and rule.max_block_size == 1
    gap_floor = 1e-14 * max(1.0, abs(trace.F.item(0))) if len(trace) else 0.0
    assert len(steps) == len(trace)
    for k, (x_run, out) in enumerate(steps):
        x, grad = state.x, state.grad
        assert x.tobytes() == x_run.tobytes(), k
        _assert_F_replays(trace.F.item(k), state.f + problem.regularizer.value(x), F_start,
                          running, k)
        cert = engine.certificate(problem, x, L, grad=grad) if prox else None
        S = select(rule, problem, k, grad, None if cert is None else cert.lambda_per_coord)
        assert S == trace.blocks[k] and rule.last_was_heuristic == trace.heuristic.item(k), k
        u_run = np.array([out[0]]) if len(S) == 1 else out[0]
        replayed = [engine.block_step(problem, x, S, L, grad=grad)]
        if prox:
            replayed.append(engine.block_step(problem, x, S, L, grad=grad, cert=cert))
        for step in replayed:
            assert step.u_S.tobytes() == u_run.tobytes(), k
            if out[1] is not None:
                assert _bits(step.decrease) == _bits(out[1]), k
                continue
            assert prox and len(S) > 1, k
            if trace.theta is not None:
                lam = trace.lam.item(k)
                live = trace.xi.item(k) > gap_floor and lam > 0
                theta = np.divide(step.decrease, lam) if live else 0.0
                assert _bits(trace.theta.item(k)) == _bits(theta), k
        state.move(S, replayed[0].u_S)
    assert state.x.tobytes() == result.x.tobytes()
    _assert_F_replays(result.final_F, state.f + problem.regularizer.value(state.x), F_start,
                      running, "final_F")


def _replay_problems():
    rng = np.random.default_rng(8)
    smooth = gen_instance(40, 12, seed=2)
    lam = 0.2 * float(np.abs(smooth.grad_f(np.zeros(12))).max())
    M = random_spd(10, 6.0, 4)
    problems = [(smooth, np.zeros(12)), (gen_instance(40, 12, seed=2, lam=lam), np.zeros(12)),
                (CompositeProblem(make_quadratic(M)), rng.standard_normal(10)),
                (CompositeProblem(make_quadratic(M), make_l1(0.05)), rng.standard_normal(10))]
    for problem, _ in problems:
        if problem.opt_value is None:
            empirical_optimum(problem)
    return problems


def test_every_step_of_a_run_replays_through_select_block_step_and_move(monkeypatch):
    """The loop's per-run selection and step functions are the code behind
    the public `select`, `block_step` and `move`: each step of every rule the
    path offers (the greedy minibatch past its budget too), with and without
    diagnostics, on generated and quadratic objectives, and of a `full` run
    to a stagnant objective, replays bit for bit.  Each factory is called
    once per run."""
    problems = _replay_problems()
    builds, steps = _record_the_kernels(monkeypatch)
    cases = []
    for problem, x0 in problems:
        n = problem.dim
        for j, (kind, row) in enumerate(selection.KINDS.items()):
            if not (row.prox or problem.smooth_path):
                continue
            tau = 3 if row.shape == "minibatch" else None
            for diagnostics in (True, False):
                cases.append((problem, x0, lambda kind=kind, tau=tau, n=n, j=j:
                              BlockRule(kind, n, tau=tau, seed=j),
                              RunConfig(max_iters=30, x0=x0, record_diagnostics=diagnostics)))
        if problem.smooth_path:  # every pick the flagged heuristic
            cases.append((problem, x0, lambda n=n: parse_rule("greedymb:3", n, budget=5),
                          RunConfig(max_iters=30, x0=x0)))
    l1 = problems[1][0]
    cases.append((l1, np.zeros(12), lambda: BlockRule("full_batch", 12),
                  RunConfig(max_iters=200_000, epsilon=1e-24, stop_on="certificate")))
    heuristic = stagnated = 0
    for problem, x0, make_rule, cfg in cases:
        builds.clear()
        steps.clear()
        result = run(problem, make_rule(), cfg)
        assert sorted(builds) == ["picker", "stepper"]
        assert len(result.trace) == 30 if cfg.stop_on == "iters" else len(result.trace) > 0
        _replay(problem, make_rule, result, list(steps), x0)
        heuristic += bool(result.trace.heuristic.all())
        stagnated += result.termination == "stagnated"
    assert len(cases) == 2 * (7 + 6) * 2 + 2 + 1
    assert heuristic == 2 and stagnated == 1
