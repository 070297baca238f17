import numpy as np
import pytest
import scipy.optimize

from blockprox import engine
from blockprox.engine import (
    AtOptimumError,
    block_step,
    certificate,
    forcing,
    proportion,
)
from blockprox.linalg import CoordSet, enumerate_subsets
from blockprox.objectives import (
    CompositeProblem,
    gen_instance,
    make_l1,
    make_quadratic,
    random_spd,
)


def evaluate_block_model(problem, x, S, u_S):
    """Direct evaluation of U_S(x, u); oracle for block_step.decrease."""
    grad = problem.grad_f(x)
    idx = S.array
    if problem.smooth_path:
        M_S = problem.objective.smoothness[np.ix_(idx, idx)]
        quad = 0.5 * float(u_S @ (M_S @ u_S))
        reg_term = 0.0
    else:
        quad = 0.5 * problem.L_scalar * float(u_S @ u_S)
        reg = problem.regularizer
        x_S = np.asarray(x, dtype=float)[idx]
        reg_term = float(np.sum(reg.value_array(x_S + u_S)
                                - reg.value_array(x_S)))
    return float(grad[idx] @ u_S) + quad + reg_term


@pytest.fixture
def smooth_problem():
    return CompositeProblem(make_quadratic(random_spd(6, 5.0, 0)))


@pytest.fixture
def l1_problem():
    return CompositeProblem(make_quadratic(random_spd(6, 5.0, 0)), make_l1(0.2))


def test_smooth_certificate_is_half_grad_norm(smooth_problem):
    x = np.random.default_rng(1).standard_normal(6)
    g = smooth_problem.grad_f(x)
    cert = certificate(smooth_problem, x)
    assert cert.lambda_total == pytest.approx(0.5 * float(g @ g), rel=1e-12)
    np.testing.assert_allclose(cert.lambda_per_coord, 0.5 * g * g)
    # independent of the scalar L in the smooth path
    assert certificate(smooth_problem, x, L=100.0).lambda_total == \
        pytest.approx(cert.lambda_total, rel=1e-12)


def test_lambda_i_grid_oracle(l1_problem):
    rng = np.random.default_rng(2)
    L = l1_problem.L_scalar
    grid = np.arange(-3.0, 3.0, 1e-5)
    for _ in range(5):
        x = rng.uniform(-1, 1, 6)
        grad = l1_problem.grad_f(x)
        per = certificate(l1_problem, x).lambda_per_coord
        for i in (0, 3, 5):
            vals = (grad[i] * grid + 0.5 * L * grid * grid
                    + 0.2 * (np.abs(x[i] + grid) - abs(x[i])))
            oracle = max(-L * float(vals.min()), 0.0)
            got = per[i]
            # grid error is first-order in the step at the |.| kink
            assert got == pytest.approx(oracle, rel=1e-4, abs=1e-7)


def test_certificate_sums_per_coordinate(l1_problem):
    x = np.random.default_rng(3).standard_normal(6)
    cert = certificate(l1_problem, x)
    assert cert.lambda_total == pytest.approx(float(cert.lambda_per_coord.sum()))


def test_certificate_vanishes_at_optimum(smooth_problem):
    cert = certificate(smooth_problem, np.zeros(6))
    assert cert.lambda_total == 0.0


def test_block_step_matches_scipy_oracle_smooth(smooth_problem):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6)
    for S in [CoordSet((1,), 6), CoordSet((0, 2, 4), 6), CoordSet.full(6)]:
        step = block_step(smooth_problem, x, S)
        grad = smooth_problem.grad_f(x)
        idx = S.array
        M_S = smooth_problem.objective.smoothness[np.ix_(idx, idx)]

        def model(u):
            return float(grad[idx] @ u) + 0.5 * float(u @ (M_S @ u))

        res = scipy.optimize.minimize(model, np.zeros(len(S)), method="BFGS",
                                      options={"gtol": 1e-12})
        np.testing.assert_allclose(step.u_S, res.x, atol=1e-7)
        assert step.decrease == pytest.approx(-model(step.u_S), rel=1e-10)
        assert step.decrease == pytest.approx(
            -evaluate_block_model(smooth_problem, x, S, step.u_S), rel=1e-10)


def test_block_step_nonsmooth_prox_oracle(l1_problem):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(6)
    S = CoordSet((0, 3, 5), 6)
    step = block_step(l1_problem, x, S)
    # the step must minimize the separable scalar models; compare on a grid
    grad = l1_problem.grad_f(x)
    L = l1_problem.L_scalar
    grid = np.arange(-3.0, 3.0, 1e-5)
    for j, i in enumerate(S):
        vals = (grad[i] * grid + 0.5 * L * grid * grid
                + 0.2 * (np.abs(x[i] + grid) - abs(x[i])))
        assert abs(step.u_S[j] - grid[int(vals.argmin())]) < 2e-5
    # model decrease agrees with direct evaluation
    assert step.decrease == pytest.approx(
        -evaluate_block_model(l1_problem, x, S, step.u_S), rel=1e-9)


def test_block_step_decrease_nonnegative(l1_problem):
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.standard_normal(6)
        S = CoordSet((int(rng.integers(6)),), 6)
        assert block_step(l1_problem, x, S).decrease >= 0.0


def test_proportion_full_set_smooth_identity():
    # with matrix curvature, the full block recovers the whole model optimum
    problem = CompositeProblem(make_quadratic(random_spd(5, 8.0, 1)))
    x = np.random.default_rng(7).standard_normal(5)
    S = CoordSet.full(5)
    M = problem.objective.smoothness
    g = problem.grad_f(x)
    # theta(full) = g'M^{-1}g / g'g, equals 1 when M = I
    expected = float(g @ np.linalg.solve(M, g)) / float(g @ g)
    assert proportion(problem, x, S) == pytest.approx(expected, rel=1e-10)
    eye = CompositeProblem(make_quadratic(np.eye(5)))
    assert proportion(eye, x, S) == pytest.approx(1.0, rel=1e-12)


def test_proportion_full_set_nonsmooth_is_inverse_L(l1_problem):
    x = np.random.default_rng(8).standard_normal(6)
    S = CoordSet.full(6)
    L = l1_problem.L_scalar
    assert proportion(l1_problem, x, S) == pytest.approx(1.0 / L, rel=1e-12)


def test_proportion_additive_over_singletons_nonsmooth(l1_problem):
    x = np.random.default_rng(9).standard_normal(6)
    singles = sum(proportion(l1_problem, x, CoordSet((i,), 6))
                  for i in range(6))
    assert singles == pytest.approx(
        proportion(l1_problem, x, CoordSet.full(6)), rel=1e-10)


def test_proportion_monotone_in_block_smooth(smooth_problem):
    # adding coordinates never shrinks the attainable model decrease
    rng = np.random.default_rng(10)
    x = rng.standard_normal(6)
    for S in enumerate_subsets(6, 2):
        sup = CoordSet(tuple(sorted(set(S.indices) | {5})), 6)
        if len(sup) == 2:
            continue
        assert proportion(smooth_problem, x, sup) >= \
            proportion(smooth_problem, x, S) - 1e-12


def test_proportion_zero_certificate(smooth_problem):
    assert proportion(smooth_problem, np.zeros(6), CoordSet((0,), 6)) == 0.0


def test_proportion_bounds(l1_problem, smooth_problem):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(6)
        th = proportion(smooth_problem, x, CoordSet((2,), 6))
        assert 0.0 <= th <= 1.0 + 1e-12
        th = proportion(l1_problem, x, CoordSet((2,), 6))
        assert 0.0 <= th <= 1.0 / l1_problem.L_scalar + 1e-12


def test_forcing_and_at_optimum(smooth_problem):
    x = np.array([1.0, -2.0, 0.5, 0.0, 1.0, -1.0])
    mu = forcing(smooth_problem, x)
    cert = certificate(smooth_problem, x)
    assert mu == pytest.approx(cert.lambda_total / smooth_problem.xi(x))
    with pytest.raises(AtOptimumError):
        forcing(smooth_problem, np.zeros(6))


def test_forcing_needs_opt_value():
    p = CompositeProblem(make_quadratic(np.eye(3)), make_l1(0.1))
    with pytest.raises(ValueError):
        forcing(p, np.ones(3))


def test_generated_instance_certificate_paths():
    p = gen_instance(20, 6, seed=0, lam=0.1)
    x = np.random.default_rng(12).standard_normal(6)
    cert = certificate(p, x)
    assert cert.L_used == pytest.approx(p.L_scalar)
    assert cert.lambda_total > 0
    cert2 = certificate(p, x, L=2 * p.L_scalar)
    assert cert2.L_used == pytest.approx(2 * p.L_scalar)
    assert cert2.lambda_total != pytest.approx(cert.lambda_total)


import math  # noqa: E402


def _lambda_oracle(reg, x_i, g_i, L):
    """The per-coordinate certificate in scalar arithmetic, one coordinate."""
    v = reg.prox(x_i - g_i / L, L) - x_i
    model = g_i * v + 0.5 * L * v * v + reg.value_i(x_i + v) - reg.value_i(x_i)
    return max(-L * model, 0.0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _l1_instance_points():
    p = gen_instance(60, 20, seed=4, lam=0.05)
    rng = np.random.default_rng(8)
    xs = [rng.standard_normal(20), np.zeros(20)]
    x = rng.standard_normal(20)
    x[::3] = 0.0  # at the kink of |.|
    xs.append(x)
    return p, xs


def test_nonsmooth_certificate_matches_scalar_oracle_bitwise():
    p, xs = _l1_instance_points()
    reg = p.regularizer
    for x in xs:
        grad = p.grad_f(x)
        for L in (p.L_scalar, 3.0 * p.L_scalar):
            cert = certificate(p, x, L)
            oracle = [_lambda_oracle(reg, float(x[i]), float(grad[i]), L)
                      for i in range(20)]
            np.testing.assert_array_equal(_bits(cert.lambda_per_coord), _bits(oracle))


def test_nonsmooth_block_step_matches_scalar_oracle_bitwise():
    p, xs = _l1_instance_points()
    reg, L = p.regularizer, p.L_scalar
    rng = np.random.default_rng(9)
    for x in xs:
        grad = p.grad_f(x)
        for size in (1, 8, 20):
            S = CoordSet(tuple(sorted(rng.choice(20, size=size, replace=False))), 20)
            step = block_step(p, x, S, L, grad=grad)
            u, decrease = [], 0.0
            for i in S:
                xi_val, gi = float(x[i]), float(grad[i])
                u.append(reg.prox(xi_val - gi / L, L) - xi_val)
                decrease += _lambda_oracle(reg, xi_val, gi, L) / L
            np.testing.assert_array_equal(_bits(step.u_S), _bits(u))
            assert _bits(step.decrease) == _bits(max(decrease, 0.0))


class _ScalarL1:
    """L1 through scalar callbacks only: its array maps call them once per
    coordinate, an oracle for L1Regularizer's numpy expressions."""

    is_zero = False
    strong_convexity_F = 0.0

    def __init__(self, lam):
        self.lam = lam

    def value_i(self, v):
        return self.lam * abs(v)

    def prox(self, c, ell):
        return math.copysign(max(abs(c) - self.lam / ell, 0.0), c)

    def value_array(self, v):
        return np.array([self.value_i(float(vi)) for vi in v])

    def prox_array(self, c, ell):
        return np.array([self.prox(float(ci), ell) for ci in c])

    def value(self, x):
        return float(self.value_array(x).sum())


def test_array_maps_match_scalar_callback_twin_runs():
    from blockprox.descent import RunConfig, empirical_optimum, run
    from blockprox.selection import parse_rule

    smooth = gen_instance(1000, 100, seed=5)
    lam = 0.2 * float(np.abs(smooth.grad_f(np.zeros(100))).max())
    p = gen_instance(1000, 100, seed=5, lam=lam)
    empirical_optimum(p)
    twin = CompositeProblem(p.objective, _ScalarL1(lam), opt_value=p.opt_value)
    # C(100,8) is past the enumeration budget: the minibatch rules' L_8 is
    # the trace bound, computed (and warned about) once on the shared objective
    with pytest.warns(UserWarning, match=r"C\(100,8\) exceeds the enumeration budget"):
        p.objective.block_smoothness(8)
    for j, spec in enumerate(("full", "uniform", "greedy", "cyclic", "nice:8",
                              "greedymb:8")):
        cfg = RunConfig(max_iters=400, record_diagnostics=True)
        a = run(p, parse_rule(spec, 100, default_seed=j), cfg)
        b = run(twin, parse_rule(spec, 100, default_seed=j), cfg)
        assert [r.block for r in a.trace] == [r.block for r in b.trace], spec
        np.testing.assert_array_equal(_bits(a.x), _bits(b.x))
        for name in ("lam", "theta", "step_norm"):
            np.testing.assert_array_equal(
                _bits([getattr(r, name) for r in a.trace]),
                _bits([getattr(r, name) for r in b.trace]), err_msg=f"{spec} {name}")
        assert a.final_lambda == b.final_lambda
        # g(x) is lam * sum|x_i| against sum(lam |x_i|): equal up to rounding
        scale = max(abs(a.trace[0].F), abs(a.final_F))
        for name in ("F", "xi", "mu"):
            np.testing.assert_allclose([getattr(r, name) for r in a.trace],
                                       [getattr(r, name) for r in b.trace],
                                       rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=f"{spec} {name}")
        assert a.final_F == pytest.approx(b.final_F, rel=1e-12, abs=1e-12 * scale)


def _edge_grids(lam, n, rng):
    """x and grad f(x) vectors over entries that put c = x - grad / L at the
    soft-threshold edge +-lam / L (x = +-0.0, grad = -+lam, L a power of
    two), at +-0.0, and on either side of the edge."""
    xs = np.array([0.0, -0.0, 0.0, 0.3, -2.0, 1e-3])
    grads = np.array([lam, -lam, 0.0, -0.0, lam * (1 + 2**-52), -lam * (1 - 2**-53),
                      1.5, -0.01, 5e-324])
    yield np.zeros(n), np.zeros(n)
    yield -np.zeros(n), np.full(n, lam)
    for _ in range(12):
        yield rng.choice(xs, n), rng.choice(grads, n)


@pytest.mark.parametrize("L", [None, 0.5, 4.0, 2.7])
def test_prox_step_equals_the_gathered_model_bitwise(L):
    """block_step on L1, given the certificate or computing its own, has the
    bits of the prox model evaluated on the block's gather."""
    lam, n = 0.2, 12
    p = CompositeProblem(make_quadratic(random_spd(n, 5.0, 3)), make_l1(lam))
    L_used = p.L_scalar if L is None else L
    rng = np.random.default_rng(11)
    for x, g in _edge_grids(lam, n, rng):
        cert = certificate(p, x, L, grad=g)
        for size in (1, 2, 3, 8, n):
            for _ in range(4 if size < n else 1):
                S = CoordSet(tuple(sorted(rng.choice(n, size=size, replace=False))), n)
                idx = S.array
                u_S, lam_S = engine._prox_model(p.regularizer, x[idx], g[idx], L_used)
                decrease = max(0.0 + float(np.add.accumulate(lam_S / L_used)[-1]), 0.0)
                for step in (block_step(p, x, S, L, grad=g, cert=cert),
                             block_step(p, x, S, L, grad=g)):
                    assert step.S == S
                    assert step.u_S.dtype == u_S.dtype and step.u_S.shape == (size,)
                    assert step.u_S.tobytes() == u_S.tobytes(), (x, g, S)
                    assert float.hex(step.decrease) == float.hex(decrease), (x, g, S)
                    assert type(step.decrease) is float


def test_prox_step_refuses_a_certificate_at_another_L():
    p = CompositeProblem(make_quadratic(random_spd(6, 5.0, 3)), make_l1(0.2))
    x = np.linspace(-1.0, 1.0, 6)
    g = p.grad_f(x)
    cert = certificate(p, x, 2.0, grad=g)
    for S in (CoordSet((1,), 6), CoordSet((0, 4), 6), CoordSet.full(6)):
        block_step(p, x, S, 2.0, grad=g, cert=cert)
        for L in (4.0, None):
            with pytest.raises(ValueError, match="certificate computed at L="):
                block_step(p, x, S, L, grad=g, cert=cert)
    # the smooth path steps on M and ignores the certificate's scalar
    smooth = CompositeProblem(p.objective)
    S = CoordSet((0, 4), 6)
    step = block_step(smooth, x, S, 4.0, grad=g,
                      cert=certificate(smooth, x, 2.0, grad=g))
    assert step.u_S.tobytes() == block_step(smooth, x, S, grad=g).u_S.tobytes()
    assert certificate(smooth, x, grad=g).step_per_coord is None
