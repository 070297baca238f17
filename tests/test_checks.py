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
    # the weak-convexity forcing and certificate lower-bound checks take
    # x* = known_minimizer on these quadratic-plus-L1 problems
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

