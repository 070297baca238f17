import numpy as np
import pytest

from blockprox.cli import EXIT_OK, main
from blockprox.descent import RunConfig, run
from blockprox.objectives import CompositeProblem, make_l1, make_quadratic, random_spd
from blockprox.selection import BlockRule

# `blockprox check` prints one line per check, in this order
CHECK_NAMES = [
    "smoothness_spd",
    "descent_inequalities_smooth",
    "descent_inequalities_nonsmooth",
    "theta_bounds_smooth",
    "theta_bounds_nonsmooth",
    "certificate_grid_oracle",
    "strongly_convex_forcing",
    "weakly_convex_forcing",
    "convex_certificate_lower_bound",
    "weak_pl_product_square",
    "plateau_rate_disjunction",
    "sequence_recursion_bound",
    "predicted_K_monotone_in_epsilon",
    "batch_linear_rate",
]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n, cond, lam", [(6, 4.0, 0.1), (6, 5.0, 0.15)])
def test_forcing_check_problems_are_minimized_at_known_minimizer(seed, n, cond, lam):
    # the certificate lower-bound check takes x* = known_minimizer on the
    # second of these quadratic-plus-L1 problems; the weak-convexity forcing
    # check, on the first, takes the certified radius and no x*
    problem = CompositeProblem(make_quadratic(random_spd(n, cond, seed)), make_l1(lam))
    x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
    result = run(problem, BlockRule("full_batch", n), RunConfig(max_iters=2000, x0=x0))
    assert np.max(np.abs(result.x - problem.objective.known_minimizer)) <= 1e-9


def test_check_prints_every_check_in_order(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[problem]\nkind = generated\n[rules]\nrules = full\n")
    assert main(["--seed", "1", "check", str(cfg)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == CHECK_NAMES
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_theta_bounds_read_one_gradient_per_point(monkeypatch, lam):
    from blockprox import checks
    from blockprox.objectives import gen_instance

    problem = gen_instance(m=40, n=12, seed=0, lam=lam)
    calls = [0]
    grad_f = CompositeProblem.grad_f

    def counted_grad_f(self, x):
        calls[0] += 1
        return grad_f(self, x)

    monkeypatch.setattr(CompositeProblem, "grad_f", counted_grad_f)
    assert checks.check_theta_bounds(problem, seed=0, n_points=50).passed
    # check_theta_bounds reads one gradient per point itself, so 50 calls
    # leave none for exact_expected_theta
    assert calls[0] == 50


def _full_grid_min(model, grid):
    return float(model(grid).min())


@pytest.mark.parametrize("seed", range(8))
def test_certificate_oracle_matches_the_full_grid_search(monkeypatch, seed):
    from blockprox import checks

    coarse_to_fine = checks.check_certificate_oracle(seed=seed)
    monkeypatch.setattr(checks, "convex_grid_min", _full_grid_min)
    assert checks.check_certificate_oracle(seed=seed) == coarse_to_fine


def test_convex_grid_min_is_the_full_grid_minimum_bit_for_bit():
    from blockprox.checks import convex_grid_min

    grid = np.arange(-3.0, 3.0 + 1e-12, 1e-4)
    rng = np.random.default_rng(0)
    # minimizers inside the grid, on a coarse point, and past either end
    gs = np.concatenate([rng.uniform(-5.0, 5.0, 300), [0.0, 1e-4, -1e-4, 50.0, -50.0]])
    for g in gs:
        for L, x_i in [(1.0, rng.uniform(-1, 1)), (float(rng.uniform(0.5, 20)), 0.0),
                       (float(rng.uniform(0.5, 20)), float(rng.uniform(-2, 2)))]:
            def model(t):
                return g * t + 0.5 * L * t * t + 0.1 * (np.abs(x_i + t) - abs(x_i))
            assert convex_grid_min(model, grid) == float(model(grid).min())
