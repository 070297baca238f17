"""The one-coordinate path: the smooth `block_step` and the iterate state's
move at |S| = 1 work on Python floats and a contiguous column of M, and the
L1 step reads one entry of the iteration's certificate or, without one,
works on Python floats too.  Each gives the same bits as the generic block
operations (the Cholesky solve or the array prox model on the block's
gather, M[:, S] u_S, np.linalg.norm).

These equalities rest on the BLAS arithmetic (dpotrs multiplying by the
reciprocal of a 1 x 1 factor, a length-1 dot adding to 0.0); the pytest
header names the BLAS the suite ran against.
"""

import math

import numpy as np
import pytest

from blockprox import engine, rates
from blockprox.descent import RunConfig, empirical_optimum, run
from blockprox.linalg import CoordSet, InvalidSetError
from blockprox.objectives import (
    MX_REFRESH_SWEEPS,
    CompositeProblem,
    gen_instance,
    make_l1,
    make_quadratic,
    random_spd,
)
from blockprox.selection import SelectionContext, parse_rule, select

TINY, HUGE = 5e-324, 1.7976931348623157e308


def _bits(value) -> str | None:
    """float.hex tells -0.0 from 0.0 and matches nan to nan; None stays None."""
    return None if value is None else float.hex(float(value))


def test_smooth_coordinate_step_matches_cholesky_solve_on_a_grid():
    rng = np.random.default_rng(0)
    diag = np.concatenate([[1e-8, 1e8, 1.0], 10.0 ** rng.uniform(-8, 8, 37)])
    problem = CompositeProblem(make_quadratic(np.diag(diag)))
    objective, n = problem.objective, len(diag)
    gradients = [0.0, -0.0, TINY, -TINY, 1e-300, -1e-300, 1e300, -1e300,
                 HUGE, -HUGE, 1.0, -0.37]
    x = np.zeros(n)
    for i in range(n):
        factor = objective.factor_for((i,))
        assert objective.inverse_sqrt_diagonal[i] == 1.0 / factor[0][0, 0]
        for g in gradients:
            grad = np.zeros(n)
            grad[i] = g
            step = engine.block_step(problem, x, CoordSet((i,), n), grad=grad)
            g_S = np.array([g])
            with np.errstate(over="ignore", invalid="ignore"):
                u_ref = -engine._cho_solve(factor, g_S)
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
    M x updated by M[:, S] u_S (from scratch every n coordinates), and
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
        S = select(rule, problem, SelectionContext(
            x=x, grad=grad, lambda_per_coord=cert.lambda_per_coord, k=k))
        idx = S.array
        if problem.smooth_path:
            g_S = grad[idx]
            u_S = -engine._cho_solve(obj.factor_for(S.indices), g_S)
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
        rows, x, F = _reference_run(problem, spec, seed, iters)
        for diagnostics in (True, False):
            result = run(problem, parse_rule(spec, n, default_seed=seed),
                         RunConfig(max_iters=iters, record_diagnostics=diagnostics))
            keeps_lam = diagnostics or (kind == "l1" and spec == "greedy")
            got = [(r.block.indices,)
                   + tuple(map(_bits, (r.F, r.xi, r.lam, r.mu, r.theta, r.step_norm)))
                   for r in result.trace]
            want = [(S,) + tuple(map(_bits, (F_k, xi, lam if keeps_lam else None,
                                             *((mu, theta) if diagnostics else (None, None)),
                                             norm)))
                    for S, F_k, xi, lam, mu, theta, norm in rows]
            assert got == want, (spec, diagnostics)
            assert result.x.tobytes() == x.tobytes(), (spec, diagnostics)
            assert _bits(result.final_F) == _bits(F), (spec, diagnostics)
