import warnings
from collections import Counter

import numpy as np
import pytest

from blockprox import checks, engine, rates
from blockprox.cli import EXIT_CONFIG, main
from blockprox.descent import RunConfig, run
from blockprox.linalg import (
    CoordSet,
    EnumerationTooLargeError,
    enumerate_subsets,
    subset_count,
)
from blockprox.objectives import (
    CompositeProblem,
    gen_instance,
    make_l1,
    make_quadratic,
    random_spd,
)
from blockprox.selection import (
    KINDS,
    BlockRule,
    _bounded_draw,
    exact_expected_theta,
    parse_rule,
    select,
)


def _select_at(rule, problem, x):
    """select at iteration 0 with the gradient and certificate at x."""
    return select(rule, problem, 0, problem.grad_f(x),
                  engine.certificate(problem, x).lambda_per_coord)


def importance_probabilities(problem):
    """Oracle: the importance rule's probabilities M_ii / trace(M)."""
    d = np.diag(problem.objective.smoothness)
    return d / d.sum()


def test_parse_rule_grammar():
    assert parse_rule("full", 10).kind == "full_batch"
    assert parse_rule("uniform", 10).kind == "uniform_coord"
    assert parse_rule("importance", 10).kind == "importance_coord"
    assert parse_rule("greedy", 10).kind == "greedy_coord"
    assert parse_rule("cyclic", 10).kind == "cyclic_coord"
    r = parse_rule("nice:4", 10)
    assert r.kind == "tau_nice" and r.tau == 4
    r = parse_rule("greedymb:3 seed=99", 10)
    assert r.kind == "greedy_minibatch" and r.tau == 3 and r.seed == 99
    assert parse_rule("uniform seed=7", 10).seed == 7
    assert parse_rule("nice:2", 10, default_seed=5).seed == 5


def test_parse_rule_name_roundtrip():
    for text in ("full", "uniform", "importance", "greedy", "cyclic",
                 "nice:4", "greedymb:3"):
        assert parse_rule(text, 10).name == text


def test_parse_rule_errors():
    with pytest.raises(ValueError):
        parse_rule("nonsense", 10)
    with pytest.raises(ValueError):
        parse_rule("", 10)
    with pytest.raises(ValueError):
        parse_rule("nice", 10)  # minibatch without tau
    with pytest.raises(ValueError):
        parse_rule("nice:0", 10)
    with pytest.raises(ValueError):
        parse_rule("nice:11", 10)
    with pytest.raises(ValueError):
        parse_rule("full frobnicate=1", 10)
    # only the minibatch shape takes a block size
    for text in ("uniform:5", "full:0", "greedy:4", "cyclic:1", "importance:2"):
        with pytest.raises(ValueError, match="takes no block size"):
            parse_rule(text, 10)


def test_max_block_size():
    assert parse_rule("full", 7).max_block_size == 7
    assert parse_rule("greedy", 7).max_block_size == 1
    assert parse_rule("nice:3", 7).max_block_size == 3


def test_full_batch_and_cyclic():
    problem = CompositeProblem(make_quadratic(np.eye(4)))
    rule = parse_rule("full", 4)
    x = np.ones(4)
    assert _select_at(rule, problem, x).is_full()
    cyc = parse_rule("cyclic", 4)
    picks = [select(cyc, problem, k, problem.grad_f(x)).indices for k in range(6)]
    assert picks == [(0,), (1,), (2,), (3,), (0,), (1,)]


def test_uniform_distribution():
    problem = CompositeProblem(make_quadratic(np.eye(5)))
    rule = parse_rule("uniform seed=0", 5)
    x = np.ones(5)
    counts = Counter(_select_at(rule, problem, x).indices[0]
                     for _ in range(5000))
    for i in range(5):
        assert abs(counts[i] / 5000 - 0.2) < 0.03


@pytest.mark.parametrize("n", [1, 12, 100])
def test_uniform_draws_match_generator_integers(n):
    problem = CompositeProblem(make_quadratic(np.eye(n)))
    grad = np.ones(n)
    for seed in range(20):
        rule = parse_rule(f"uniform seed={seed}", n)
        oracle = np.random.default_rng(seed)
        drawn = [select(rule, problem, k, grad).indices[0] for k in range(300)]
        assert drawn == [int(oracle.integers(n)) for _ in range(300)], seed
        assert rule.rng.bit_generator.state == oracle.bit_generator.state


# 2**31 + 1 rejects a first word about half the time, 3 * 2**30 a quarter
DRAW_BOUNDS = [1, 2, 3, 12, 100, 2**31 + 1, 3 * 2**30, 2**32 - 1]


@pytest.mark.parametrize("r", DRAW_BOUNDS)
def test_bounded_draw_matches_generator_integers(r):
    """Value and generator state after every draw, against
    `Generator.integers(r)` on a generator of the same seed."""
    words = 0
    for seed in range(50):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        handle = rng.bit_generator.ctypes

        def next_uint32(state):
            nonlocal words
            words += 1
            return handle.next_uint32(state)

        for _ in range(200):
            value = _bounded_draw(next_uint32, handle.state, r)
            assert value == int(oracle.integers(r)), (seed, r)
            assert rng.bit_generator.state == oracle.bit_generator.state, (seed, r)
    if r == 1:
        assert words == 0
    elif r == 2**31 + 1:
        assert words > 1.3 * 50 * 200  # the rejection loop ran


def test_bounded_draw_refuses_bounds_outside_32_bits():
    rng = np.random.default_rng(0)
    handle = rng.bit_generator.ctypes
    before = rng.bit_generator.state
    for r in (0, -1, 2**32, 2**40):
        with pytest.raises(ValueError, match=r"1 <= r < 2\*\*32"):
            _bounded_draw(handle.next_uint32, handle.state, r)
    assert rng.bit_generator.state == before


def test_importance_distribution_and_probabilities():
    M = np.diag([1.0, 3.0])
    problem = CompositeProblem(make_quadratic(M))
    np.testing.assert_allclose(importance_probabilities(problem), [0.25, 0.75])
    rule = parse_rule("importance seed=1", 2)
    x = np.ones(2)
    counts = Counter(_select_at(rule, problem, x).indices[0]
                     for _ in range(4000))
    assert abs(counts[1] / 4000 - 0.75) < 0.03


def test_importance_nonsmooth_is_config_error():
    problem = CompositeProblem(make_quadratic(np.eye(3)), make_l1(0.1))
    rule = parse_rule("importance", 3)
    with pytest.raises(ValueError):
        _select_at(rule, problem, np.ones(3))


def test_tau_nice_uniform_over_subsets():
    problem = CompositeProblem(make_quadratic(np.eye(4)))
    rule = parse_rule("nice:2 seed=3", 4)
    x = np.ones(4)
    counts = Counter(_select_at(rule, problem, x).indices
                     for _ in range(6000))
    assert set(counts) == {s.indices for s in enumerate_subsets(4, 2)}
    for c in counts.values():
        assert abs(c / 6000 - 1 / 6) < 0.03


def test_greedy_coord_smooth_score():
    M = np.diag([1.0, 4.0, 2.0])
    problem = CompositeProblem(make_quadratic(M))
    x = np.array([1.0, 1.0, 1.0])  # grad = (1, 4, 2); scores g_i^2/M_ii = (1, 4, 2)
    rule = parse_rule("greedy", 3)
    assert _select_at(rule, problem, x).indices == (1,)


def test_greedy_coord_smooth_scores_read_the_cached_diagonal():
    problem = gen_instance(200, 40, seed=2)
    obj = problem.objective
    diagonal = obj.diagonal
    assert diagonal is obj.diagonal and not diagonal.flags.writeable
    assert diagonal.tobytes() == np.diag(obj.smoothness).tobytes()
    rule = parse_rule("greedy", 40)
    rng = np.random.default_rng(6)
    for _ in range(200):
        g = rng.standard_normal(40) * 10.0 ** rng.uniform(-6, 3, 40)
        want = g * g / np.diag(obj.smoothness)
        assert (g * g / diagonal).tobytes() == want.tobytes()
        assert select(rule, problem, 0, g).indices == (int(want.argmax()),)


def test_greedy_coord_nonsmooth_takes_largest_certificate():
    problem = CompositeProblem(make_quadratic(random_spd(5, 4.0, 2)),
                               make_l1(0.1))
    x = np.random.default_rng(3).standard_normal(5)
    cert = engine.certificate(problem, x)
    rule = parse_rule("greedy", 5)
    picked = _select_at(rule, problem, x).indices[0]
    assert picked == int(np.argmax(cert.lambda_per_coord))


def test_greedy_nonsmooth_requires_certificates():
    problem = CompositeProblem(make_quadratic(np.eye(3)), make_l1(0.1))
    rule = parse_rule("greedy", 3)
    with pytest.raises(ValueError, match="certificates"):
        select(rule, problem, 0, problem.grad_f(np.ones(3)))


def test_greedy_minibatch_exact_matches_brute_force():
    problem = CompositeProblem(make_quadratic(random_spd(7, 6.0, 4)))
    rule = parse_rule("greedymb:3", 7)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(7)
        S = _select_at(rule, problem, x)
        assert not rule.last_was_heuristic
        best = max(
            enumerate_subsets(7, 3),
            key=lambda T: engine.block_step(problem, x, T).decrease,
        )
        assert engine.block_step(problem, x, S).decrease == pytest.approx(
            engine.block_step(problem, x, best).decrease, rel=1e-12)


def test_greedy_minibatch_heuristic_fallback_flagged():
    problem = CompositeProblem(make_quadratic(random_spd(12, 6.0, 6)))
    rule = BlockRule("greedy_minibatch", 12, tau=5, budget=10)
    x = np.random.default_rng(7).standard_normal(12)
    assert subset_count(12, 5) > 10
    S = _select_at(rule, problem, x)
    assert rule.last_was_heuristic
    assert len(S) == 5
    # the heuristic still beats the best singleton extended arbitrarily:
    # sanity only, no optimality claim
    assert engine.block_step(problem, x, S).decrease > 0


def test_greedy_minibatch_nonsmooth_top_tau():
    problem = CompositeProblem(make_quadratic(random_spd(6, 4.0, 8)),
                               make_l1(0.05))
    x = np.random.default_rng(9).standard_normal(6)
    cert = engine.certificate(problem, x)
    rule = parse_rule("greedymb:3", 6)
    S = _select_at(rule, problem, x)
    top = set(np.argsort(-cert.lambda_per_coord, kind="stable")[:3])
    assert set(S.indices) == {int(i) for i in top}


def test_rule_determinism_and_clone():
    problem = CompositeProblem(make_quadratic(np.eye(6)))
    x = np.ones(6)
    a = parse_rule("nice:2 seed=11", 6)
    b = parse_rule("nice:2 seed=11", 6)
    seq_a = [_select_at(a, problem, x).indices for _ in range(20)]
    seq_b = [_select_at(b, problem, x).indices for _ in range(20)]
    assert seq_a == seq_b


def test_rule_generator_is_read_only():
    """A rule's draws read its generator's state through a raw pointer, so
    the generator cannot be swapped for another."""
    problem = CompositeProblem(make_quadratic(np.eye(6)))
    rule = parse_rule("nice:2 seed=4", 6)
    rng = rule.rng
    _select_at(rule, problem, np.ones(6))
    with pytest.raises(AttributeError):
        rule.rng = np.random.default_rng(4)
    assert rule.rng is rng
    assert rule._draws.state_address == rng.bit_generator.ctypes.state_address


def _expected_theta(rule, problem, x, L=None):
    """exact_expected_theta handed the gradient and the certificate at x."""
    grad = problem.grad_f(x)
    cert = engine.certificate(problem, x, L, grad=grad)
    return exact_expected_theta(rule, problem, grad, cert)


def test_exact_expected_theta_uniform():
    problem = CompositeProblem(make_quadratic(random_spd(5, 3.0, 10)))
    x = np.random.default_rng(11).standard_normal(5)
    rule = parse_rule("uniform", 5)
    expected = np.mean([engine.proportion(problem, x, CoordSet((i,), 5))
                        for i in range(5)])
    assert _expected_theta(rule, problem, x) == pytest.approx(expected)


def test_exact_expected_theta_importance_weighting():
    M = np.diag([1.0, 2.0, 5.0])
    problem = CompositeProblem(make_quadratic(M))
    x = np.array([1.0, -1.0, 0.5])
    rule = parse_rule("importance", 3)
    p = importance_probabilities(problem)
    expected = sum(p[i] * engine.proportion(problem, x, CoordSet((i,), 3))
                   for i in range(3))
    assert _expected_theta(rule, problem, x) == pytest.approx(expected)


def test_exact_expected_theta_tau_nice_enumeration():
    problem = CompositeProblem(make_quadratic(random_spd(6, 4.0, 12)))
    x = np.random.default_rng(13).standard_normal(6)
    rule = parse_rule("nice:2", 6)
    vals = [engine.proportion(problem, x, S) for S in enumerate_subsets(6, 2)]
    assert _expected_theta(rule, problem, x) == pytest.approx(np.mean(vals))


def test_exact_expected_theta_refuses_past_the_budget():
    problem = CompositeProblem(make_quadratic(np.eye(8)))
    x = np.random.default_rng(14).standard_normal(8)
    rule = BlockRule("tau_nice", 8, tau=4, seed=0, budget=5)
    with pytest.raises(EnumerationTooLargeError):
        _expected_theta(rule, problem, x)


def test_exact_expected_theta_rejects_deterministic():
    problem = CompositeProblem(make_quadratic(np.eye(4)))
    for spec in ("full", "greedy", "cyclic", "greedymb:2"):
        with pytest.raises(ValueError, match="deterministic"):
            _expected_theta(parse_rule(spec, 4), problem, np.ones(4))


def test_selection_on_generated_instance_all_rules():
    problem = gen_instance(20, 8, seed=0)
    x = np.random.default_rng(15).standard_normal(8)
    for text in ("full", "uniform", "importance", "greedy", "cyclic",
                 "nice:3", "greedymb:3"):
        rule = parse_rule(text, 8, default_seed=1)
        S = _select_at(rule, problem, x)
        assert 1 <= len(S) <= rule.max_block_size


def test_importance_draws_match_generator_choice():
    problem = gen_instance(m=200, n=40, seed=1)
    p = importance_probabilities(problem)
    rule = parse_rule("importance seed=5", 40)
    reference = np.random.default_rng(5)
    grad = problem.grad_f(np.zeros(40))
    drawn = [select(rule, problem, 0, grad).indices[0] for _ in range(20_000)]
    expected = [int(reference.choice(40, p=p)) for _ in range(20_000)]
    assert drawn == expected


def test_serial_and_full_rules_return_prebuilt_sets():
    problem = gen_instance(20, 6, seed=0, lam=0.05)
    x = np.random.default_rng(0).standard_normal(6)
    cert = engine.certificate(problem, x)
    args = (8, problem.grad_f(x), cert.lambda_per_coord)
    for spec in ("uniform", "cyclic", "greedy"):
        rule = parse_rule(spec, 6)
        S = select(rule, problem, *args)
        assert S is rule.singletons[S.indices[0]]
        assert select(rule, problem, *args).ambient_dim == 6
    assert select(parse_rule("cyclic", 6), problem, *args).indices == (2,)
    full = parse_rule("full", 6)
    assert select(full, problem, *args) is select(full, problem, *args) is full.full_set
    assert full.full_set == CoordSet.full(6)
    assert [S.indices for S in full.singletons] == [(i,) for i in range(6)]


def _expected_theta_by_enumeration(rule, problem, x, L):
    """Oracle: theta(S, x) averaged over the rule's support one subset at a
    time, with the rule's sampling probabilities."""
    n = problem.dim
    grad = problem.grad_f(x)
    cert = engine.certificate(problem, x, L, grad=grad)

    def theta(S):
        return engine.proportion(problem, x, S, cert=cert, grad=grad)

    if rule.kind == "uniform_coord":
        return float(np.mean([theta(CoordSet((i,), n)) for i in range(n)]))
    if rule.kind == "importance_coord":
        p = importance_probabilities(problem)
        return float(sum(p[i] * theta(CoordSet((i,), n)) for i in range(n)))
    return float(np.mean([theta(S) for S in enumerate_subsets(n, rule.tau)]))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_exact_expected_theta_closed_forms_match_enumeration(seed, lam):
    problem = gen_instance(40, 12, seed=seed, lam=lam)
    n = problem.dim
    M = problem.objective.smoothness
    x = np.random.default_rng(100 + seed).standard_normal(n)
    specs = ["uniform", "nice:2", "nice:3", "nice:4"]
    if problem.smooth_path:
        specs.append("importance")
    for spec in specs:
        rule = parse_rule(spec, n)
        L, _ = rates.rule_L(problem, rule)
        got = _expected_theta(rule, problem, x, L)
        want = _expected_theta_by_enumeration(rule, problem, x, L)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), spec
        # the published bounds that these closed forms meet with equality
        if spec == "importance":
            assert got == 1.0 / float(np.diag(M).sum())
        elif not problem.smooth_path:
            assert got == rule.max_block_size / (n * L)


def test_exact_expected_theta_is_zero_where_the_certificate_vanishes():
    x = np.zeros(12)
    g0 = gen_instance(40, 12, seed=1).grad_f(x)
    l1 = gen_instance(40, 12, seed=1, lam=float(np.abs(g0).max()))
    quad = CompositeProblem(make_quadratic(random_spd(12, 5.0, 3)))
    for problem, specs in ((l1, ["uniform", "nice:3"]),
                           (quad, ["uniform", "importance", "nice:3"])):
        assert engine.certificate(problem, x).lambda_total == 0.0
        for spec in specs:
            assert _expected_theta(parse_rule(spec, 12), problem, x) == 0.0, spec


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_row_of_the_rule_table(kind, tmp_path, capsys):
    """Each fact of a row reaches selection, the expectations, rates, the
    CLI and the check campaign."""
    row, n, tau = KINDS[kind], 6, 3
    spec = f"{row.name}:{tau}" if row.shape == "minibatch" else row.name
    rule = parse_rule(spec, n)
    assert (rule.kind, rule.row, rule.name) == (kind, row, spec)
    assert rule.max_block_size == {"full": n, "serial": 1, "minibatch": tau}[row.shape]

    M = random_spd(n, 4.0, 1)
    x = np.random.default_rng(0).standard_normal(n)
    smooth = CompositeProblem(make_quadratic(M))
    grad = smooth.grad_f(x)
    cert = engine.certificate(smooth, x, grad=grad)
    if rule.row.randomized:
        assert exact_expected_theta(rule, smooth, grad, cert) > 0
    else:
        with pytest.raises(ValueError, match="deterministic"):
            exact_expected_theta(rule, smooth, grad, cert)

    prox = CompositeProblem(make_quadratic(M), make_l1(0.1))
    grad = prox.grad_f(x)
    cert = engine.certificate(prox, x, rates.rule_L(prox, rule)[0], grad=grad)
    if row.prox:
        S = select(rule, prox, 0, grad, cert.lambda_per_coord)
        assert len(S) == rule.max_block_size
        # a greedy row needs the certificate there, and `run` computes it
        if row.greedy:
            with pytest.raises(ValueError, match="certificates"):
                select(rule, prox, 0, grad)
        else:
            select(rule, prox, 0, grad)
        assert len(run(prox, rule, RunConfig(max_iters=3)).trace) == 3
    else:
        with pytest.raises(ValueError, match="not offered"):
            select(rule, prox, 0, grad, cert.lambda_per_coord)
        if rule.row.randomized:
            with pytest.raises(ValueError, match="not offered"):
                exact_expected_theta(rule, prox, grad, cert)
        with pytest.raises(rates.NoGuaranteeError):
            rates.rule_constant(rule, prox)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[problem]\nkind = quadratic\nn = {n}\nlambda = 0.1\n"
                       f"[rules]\nrules = {spec}\n[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    for on_smooth in (True, False):
        listed = [r.kind for r in checks._campaign_rules(n, tau, 0, on_smooth)]
        assert (kind in listed) == (on_smooth or row.prox)
