import numpy as np
import pytest
import scipy.optimize

from blockprox import engine
from blockprox.engine import (
    AtOptimumError,
    block_step,
    certificate,
    evaluate_block_model,
    forcing,
    lambda_i,
    proportion,
)
from blockprox.linalg import CoordSet, enumerate_subsets
from blockprox.objectives import (
    CompositeProblem,
    gen_instance,
    make_l1,
    make_quadratic,
)


def _random_spd(n, cond, seed):
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    return (Q * np.linspace(1.0, cond, n)) @ Q.T


@pytest.fixture
def smooth_problem():
    return CompositeProblem(make_quadratic(_random_spd(6, 5.0, 0)))


@pytest.fixture
def l1_problem():
    return CompositeProblem(make_quadratic(_random_spd(6, 5.0, 0)), make_l1(0.2))


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
        for i in (0, 3, 5):
            vals = (grad[i] * grid + 0.5 * L * grid * grid
                    + 0.2 * (np.abs(x[i] + grid) - abs(x[i])))
            oracle = max(-L * float(vals.min()), 0.0)
            got = lambda_i(l1_problem, x, i)
            # grid error is first-order in the step at the |.| kink
            assert got == pytest.approx(oracle, rel=1e-4, abs=1e-7)


def test_certificate_sums_per_coordinate(l1_problem):
    x = np.random.default_rng(3).standard_normal(6)
    cert = certificate(l1_problem, x)
    assert cert.lambda_total == pytest.approx(float(cert.lambda_per_coord.sum()))
    per = [lambda_i(l1_problem, x, i) for i in range(6)]
    np.testing.assert_allclose(cert.lambda_per_coord, per, rtol=1e-12)


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
    problem = CompositeProblem(make_quadratic(_random_spd(5, 8.0, 1)))
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

from blockprox.objectives import SeparableRegularizer  # noqa: E402


def _lambda_oracle(reg, x_i, g_i, i, L):
    """The per-coordinate certificate in scalar arithmetic, one coordinate."""
    v = reg.prox(x_i - g_i / L, L, i) - x_i
    model = g_i * v + 0.5 * L * v * v + reg.value_i(i, x_i + v) - reg.value_i(i, x_i)
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
            oracle = [_lambda_oracle(reg, float(x[i]), float(grad[i]), i, L)
                      for i in range(20)]
            np.testing.assert_array_equal(_bits(cert.lambda_per_coord), _bits(oracle))
            assert lambda_i(p, x, 7, L) == oracle[7]


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
                u.append(reg.prox(xi_val - gi / L, L, i) - xi_val)
                decrease += _lambda_oracle(reg, xi_val, gi, i, L) / L
            np.testing.assert_array_equal(_bits(step.u_S), _bits(u))
            assert _bits(step.decrease) == _bits(max(decrease, 0.0))


class _ScalarL1(SeparableRegularizer):
    """L1 through the scalar callbacks only: the base class's array maps
    call them once per coordinate."""

    def __init__(self, lam):
        self.lam = lam

    def value_i(self, i, v):
        return self.lam * abs(v)

    def prox(self, c, ell, i):
        return math.copysign(max(abs(c) - self.lam / ell, 0.0), c)


def test_array_maps_match_scalar_callback_twin_runs():
    from blockprox.descent import RunConfig, empirical_optimum, run
    from blockprox.selection import parse_rule

    smooth = gen_instance(1000, 100, seed=5)
    lam = 0.2 * float(np.abs(smooth.grad_f(np.zeros(100))).max())
    p = gen_instance(1000, 100, seed=5, lam=lam)
    empirical_optimum(p)
    twin = CompositeProblem(p.objective, _ScalarL1(lam), opt_value=p.opt_value)
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
