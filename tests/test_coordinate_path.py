"""The one-coordinate path: the smooth `block_step` and the iterate state's
move at |S| = 1 work on Python floats and a contiguous column of M, and the
L1 step reads one entry of the iteration's certificate or, without one,
works on Python floats too.  Each gives the same bits as the generic block
operations (the Cholesky solve or the array prox model on the block's
gather, M[:, S] u_S, np.linalg.norm).  A one-coordinate move updates f in
O(1), so F, and xi and mu with it, agree with a loop that recomputes f to
within STATE_RTOL; every other trace column, and x, keeps its bits.

These equalities rest on the BLAS arithmetic (dpotrs multiplying by the
reciprocal of a 1 x 1 factor, a length-1 dot adding to 0.0); the pytest
header names the BLAS the suite ran against.
"""

import math

import numpy as np
import pytest

from blockprox import engine, rates
from blockprox.descent import RunConfig, empirical_optimum, run
from blockprox.linalg import CoordSet, InvalidSetError, factor_solve, spd_factor
from blockprox.objectives import (
    MX_REFRESH_SWEEPS,
    CompositeProblem,
    gen_instance,
    make_l1,
    make_quadratic,
    random_spd,
)
from blockprox.selection import parse_rule, select

TINY, HUGE = 5e-324, 1.7976931348623157e308


def _bits(value) -> str | None:
    """float.hex tells -0.0 from 0.0 and matches nan to nan; None stays None."""
    return None if value is None else float.hex(float(value))


def _gather_factor(M, idx):
    """`spd_factor` of the principal submatrix M[idx, idx], gathered by `take`."""
    return spd_factor(M.take(idx, 0).take(idx, 1))


def test_smooth_coordinate_step_matches_cholesky_solve_on_a_grid():
    rng = np.random.default_rng(0)
    diag = np.concatenate([[1e-8, 1e8, 1.0], 10.0 ** rng.uniform(-8, 8, 37)])
    problem = CompositeProblem(make_quadratic(np.diag(diag)))
    objective, n = problem.objective, len(diag)
    gradients = [0.0, -0.0, TINY, -TINY, 1e-300, -1e-300, 1e300, -1e300,
                 HUGE, -HUGE, 1.0, -0.37]
    x = np.zeros(n)
    for i in range(n):
        factor = _gather_factor(objective.smoothness, [i])
        assert objective.inverse_sqrt_diagonal[i] == 1.0 / factor[0][0, 0]
        for g in gradients:
            grad = np.zeros(n)
            grad[i] = g
            step = engine.block_step(problem, x, CoordSet((i,), n), grad=grad)
            g_S = np.array([g])
            with np.errstate(over="ignore", invalid="ignore"):
                u_ref = -factor_solve(factor, g_S)
                decrease_ref = max(-0.5 * float(g_S @ u_ref), 0.0)
            assert step.u_S.tobytes() == u_ref.tobytes(), (diag[i], g)
            assert _bits(step.decrease) == _bits(decrease_ref), (diag[i], g)


@pytest.mark.parametrize("L", [0.5, 4.0, 2.7])
def test_l1_coordinate_step_matches_array_prox_model_on_a_grid(L):
    lam = 0.2
    problem = CompositeProblem(make_quadratic(random_spd(4, 5.0, 3)), make_l1(lam))
    reg = problem.regularizer
    # with L a power of two, x = 0 and g = -+lam put c = x - g/L at +-t = lam/L
    # exactly; x, g = (+-0.0, 0.0) put c at +-0.0
    xs = [0.0, -0.0, 0.3, -2.0]
    gradients = [0.0, -0.0, lam, -lam, lam * (1 + 2**-52), -lam * (1 - 2**-53),
                 1.5, -0.01, 1e300, -1e300, TINY, -TINY]
    for i in range(4):
        for x_i in xs:
            for g in gradients:
                x = np.full(4, 0.25)
                grad = np.full(4, -0.5)
                x[i], grad[i] = x_i, g
                step = engine.block_step(problem, x, CoordSet((i,), 4), L, grad=grad)
                with np.errstate(over="ignore", invalid="ignore"):
                    v, lam_S = engine._prox_model(reg, x[[i]], grad[[i]], L)
                    decrease_ref = max(0.0 + float(np.add.accumulate(lam_S / L)[-1]), 0.0)
                assert step.u_S.tobytes() == v.tobytes(), (x_i, g)
                assert _bits(step.decrease) == _bits(decrease_ref), (x_i, g)


@pytest.mark.parametrize("lam", [0.0, 0.2])
def test_coordinate_step_rejects_a_gradient_of_another_dimension(lam):
    # as the smooth block path's mask_vector does
    problem = CompositeProblem(make_quadratic(random_spd(4, 5.0, 3)), make_l1(lam))
    with pytest.raises(InvalidSetError):
        engine.block_step(problem, np.zeros(4), CoordSet((1,), 4), 1.0, grad=np.ones(5))


def _reference_run(problem, spec, seed, iters):
    """`descent.run` with diagnostics from x = 0, every step through the
    generic block operations: the Cholesky solve or the array prox model,
    M x updated by M[:, S] u_S (recomputed from x every n coordinates), f
    and the gradient recomputed from x and M x at every iterate, and
    np.linalg.norm for the step length."""
    obj, reg = problem.objective, problem.regularizer
    n, m, M = problem.dim, obj.m, obj.smoothness
    rule = parse_rule(spec, n, default_seed=seed)
    L, _ = rates.rule_L(problem, rule)

    def f_and_grad(x, Mx):
        cx = float(obj.c @ x)
        f = (0.5 * float(x @ Mx) - 0.5 * cx * cx / m - float(obj.Atb_m @ x)
             + obj.bb_2m + math.cos(cx) / m)
        return f, Mx - (cx + math.sin(cx)) / m * obj.c - obj.Atb_m

    x = np.zeros(n)
    Mx, moved = M @ x, 0
    f, grad = f_and_grad(x, Mx)
    F = f + reg.value(x)
    gap_floor = 1e-14 * max(1.0, abs(F))
    rows = []
    for k in range(iters):
        cert = engine.certificate(problem, x, L, grad=grad)
        lam, xi = cert.lambda_total, F - problem.opt_value
        S = select(rule, problem, k, grad, cert.lambda_per_coord)
        idx = S.array
        if problem.smooth_path:
            g_S = grad[idx]
            u_S = -factor_solve(_gather_factor(M, idx), g_S)
            decrease = max(-0.5 * float(g_S @ u_S), 0.0)
        else:
            u_S, lam_S = engine._prox_model(reg, x[idx], grad[idx], L)
            decrease = max(0.0 + float(np.add.accumulate(lam_S / L)[-1]), 0.0)
        if xi > gap_floor:
            mu, theta = lam / xi, (decrease / lam if lam > 0 else 0.0)
        else:
            mu, theta = 0.0, 0.0
        x = x.copy()
        x[idx] += u_S
        moved += len(idx)
        if moved >= MX_REFRESH_SWEEPS * n:
            Mx, moved = M @ x, 0
        else:
            Mx = Mx + M[:, idx] @ u_S
        f, grad = f_and_grad(x, Mx)
        rows.append((S.indices, F, xi, lam, mu, theta, float(np.linalg.norm(u_S))))
        F = f + reg.value(x)
    return rows, x, F


SERIAL_RULES = {"smooth": ("uniform", "importance", "greedy", "cyclic"),
                "l1": ("uniform", "greedy", "cyclic")}


# gen_instance(m, n, seed); the (200, 50) pair keeps the bare seed as its id
INSTANCES = [pytest.param(200, 50, 1, id="1"), pytest.param(200, 50, 17, id="17"),
             pytest.param(1000, 100, 17, id="1000-100-17"),
             *(pytest.param(40, 12, s, id=f"40-12-{s}") for s in range(4))]


# F and xi of a run against the reference loop, which recomputes f, relative
# to max(|F|, |F(0)|).  mu = lam / xi with lam bit for bit, so mu's error is
# xi's carried through the division, plus the division's own rounding.
STATE_RTOL = 1e-12


def _assert_run_matches_the_reference(problem, result, reference, keeps_lam,
                                      diagnostics, what):
    """Blocks, lambda (where the run keeps it), theta, the step norm and x
    bit for bit; F, xi, mu and final_F within STATE_RTOL."""
    rows, x, F = reference
    trace = result.trace
    F_0 = abs(problem.F(np.zeros(problem.dim)))
    got = [(r.block.indices,) + tuple(map(_bits, (r.lam, r.theta, r.step_norm)))
           for r in trace]
    want = [(S,) + tuple(map(_bits, (lam if keeps_lam else None,
                                     theta if diagnostics else None, norm)))
            for S, F_k, xi, lam, mu, theta, norm in rows]
    assert got == want, what
    assert result.x.tobytes() == x.tobytes(), what
    F_ref, xi_ref, lam_ref, mu_ref = (np.array([r[j] for r in rows]) for j in (1, 2, 3, 4))
    scale = np.maximum(np.abs(F_ref), F_0)
    assert (np.abs(trace.F - F_ref) <= STATE_RTOL * scale).all(), what
    assert (np.abs(trace.xi - xi_ref) <= STATE_RTOL * scale).all(), what
    assert abs(result.final_F - F) <= STATE_RTOL * max(abs(F), F_0), what
    if diagnostics:
        with np.errstate(divide="ignore", invalid="ignore"):
            carried = np.nan_to_num(lam_ref * STATE_RTOL * scale / np.abs(trace.xi * xi_ref),
                                    nan=np.inf)
        assert (np.abs(trace.mu - mu_ref) <= carried + 4e-16 * np.abs(mu_ref)).all(), what
    else:
        assert trace.mu is None, what


@pytest.mark.parametrize("m, n, seed", INSTANCES)
@pytest.mark.parametrize("kind", ["smooth", "l1"])
def test_serial_runs_bit_identical_to_generic_operations(kind, m, n, seed):
    """Runs with diagnostics on and off against one reference loop.  Without
    diagnostics a row keeps lambda only where the rule selects by it (greedy
    on L1), and has no mu or theta."""
    problem = gen_instance(m, n, seed)
    if kind == "l1":
        lam = 0.2 * float(np.abs(problem.grad_f(np.zeros(n))).max())
        problem = gen_instance(m, n, seed, lam=lam)
    empirical_optimum(problem)
    iters = 20 * n  # M x is rebuilt from scratch 20 times
    for spec in SERIAL_RULES[kind]:
        reference = _reference_run(problem, spec, seed, iters)
        for diagnostics in (True, False):
            result = run(problem, parse_rule(spec, n, default_seed=seed),
                         RunConfig(max_iters=iters, record_diagnostics=diagnostics))
            keeps_lam = diagnostics or (kind == "l1" and spec == "greedy")
            _assert_run_matches_the_reference(problem, result, reference, keeps_lam,
                                              diagnostics, (spec, diagnostics))


@pytest.mark.parametrize("m, n, seed", [INSTANCES[0], INSTANCES[2], INSTANCES[3],
                                        INSTANCES[6]])
@pytest.mark.parametrize("kind", ["smooth", "l1"])
def test_one_element_minibatch_runs_bit_identical_to_generic_operations(kind, m, n, seed):
    """`nice:1` and `greedymb:1` draw or pick one-element sets, so their
    steps take every serial branch (the step, the move, the step norm) that
    the serial rules do, against the same reference loop."""
    problem = gen_instance(m, n, seed)
    if kind == "l1":
        lam = 0.2 * float(np.abs(problem.grad_f(np.zeros(n))).max())
        problem = gen_instance(m, n, seed, lam=lam)
    empirical_optimum(problem)
    iters = 3 * n  # past MX_REFRESH_SWEEPS * n coordinates, so M x is rebuilt
    for spec in ("nice:1", "greedymb:1"):
        reference = _reference_run(problem, spec, seed, iters)
        assert all(len(S) == 1 for S, *_ in reference[0])
        result = run(problem, parse_rule(spec, n, default_seed=seed),
                     RunConfig(max_iters=iters, record_diagnostics=True))
        _assert_run_matches_the_reference(problem, result, reference, True, True, spec)


def _exact_l1_after_move(moves):
    """A stand-in for `descent._l1_after_move` that takes g = lam ||x||_1
    afresh after every move, `regularizer.value(x_next)`, and records each
    move's coordinate before and after."""

    def build(reg, x, serial):
        def g_after(x, x_next, S):
            moves.extend((x.item(i), x_next.item(i)) for i in S.indices)
            return reg.value(x_next)

        return g_after

    return build


@pytest.mark.parametrize("m, n, iters", [(40, 12, 5000), (1000, 100, 2000)])
@pytest.mark.parametrize("spec", ["uniform", "cyclic", "greedy"])
def test_running_l1_norm_keeps_F_within_STATE_RTOL(monkeypatch, spec, m, n, iters):
    """A serial L1 run keeps ||x||_1 as a running float, retaken every n
    moves.  Against runs whose g is `regularizer.value` after every move:
    x, the blocks, lambda, theta and the step norms bit for bit; F, xi, mu,
    final_F and min_xi within STATE_RTOL of max(|F|, |F(x0)|), on runs from
    a point of mixed signs in which coordinates cross 0 and are thresholded
    to exactly 0."""
    from blockprox import descent

    problem = gen_instance(m, n, 3)
    lam = 0.2 * float(np.abs(problem.grad_f(np.zeros(n))).max())
    problem = gen_instance(m, n, 3, lam=lam)
    empirical_optimum(problem)
    x0 = np.random.default_rng(n).standard_normal(n)
    F_0 = abs(problem.F(x0))
    running_l1 = descent._l1_after_move
    for diagnostics in (True, False):
        cfg = RunConfig(max_iters=iters, x0=x0, record_diagnostics=diagnostics)
        got = run(problem, parse_rule(spec, n, default_seed=5), cfg)
        moves = []
        monkeypatch.setattr(descent, "_l1_after_move", _exact_l1_after_move(moves))
        want = run(problem, parse_rule(spec, n, default_seed=5), cfg)
        monkeypatch.setattr(descent, "_l1_after_move", running_l1)
        what = (spec, diagnostics)
        assert len(moves) == iters, what
        assert any(a * b < 0 for a, b in moves), what
        assert any(a != 0.0 and b == 0.0 for a, b in moves), what
        assert got.x.tobytes() == want.x.tobytes(), what
        assert got.trace.blocks == want.trace.blocks, what
        for column in ("lam", "theta", "step_norm"):
            a, b = getattr(got.trace, column), getattr(want.trace, column)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), (what, column)
        scale = np.maximum(np.abs(want.trace.F), F_0)
        assert (np.abs(got.trace.F - want.trace.F) <= STATE_RTOL * scale).all(), what
        F = want.final_F
        assert abs(got.final_F - F) <= STATE_RTOL * max(abs(F), F_0), what
        assert abs(got.final_xi - want.final_xi) <= STATE_RTOL * max(abs(F), F_0), what
        if not diagnostics:
            assert got.trace.mu is None, what
            continue
        assert (np.abs(got.trace.xi - want.trace.xi) <= STATE_RTOL * scale).all(), what
        min_xi = [float(r.trace.xi.min(initial=r.final_xi)) for r in (got, want)]
        assert abs(min_xi[0] - min_xi[1]) <= STATE_RTOL * max(abs(F), F_0), what
        # mu = lam / xi with lam bit for bit: xi's error carried through
        lams, xi = want.trace.lam, want.trace.xi
        with np.errstate(divide="ignore", invalid="ignore"):
            carried = np.nan_to_num(lams * STATE_RTOL * scale / np.abs(got.trace.xi * xi),
                                    nan=np.inf)
        assert (np.abs(got.trace.mu - want.trace.mu)
                <= carried + 4e-16 * np.abs(want.trace.mu)).all(), what
