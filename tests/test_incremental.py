"""The descent loop's iterate state: one gradient and one objective value per
iterate, kept current incrementally for the least-squares-plus-cosine family.
"""

import numpy as np
import pytest
import scipy.linalg

from blockprox import engine
from blockprox.descent import RunConfig, empirical_optimum, run, verify_trace
from blockprox.linalg import CoordSet
from blockprox.objectives import (
    CompositeProblem,
    LsqCosState,
    Objective,
    gen_instance,
    make_l1,
    make_quadratic,
)
from blockprox.selection import parse_rule

SMOOTH_RULES = ("full", "uniform", "importance", "greedy", "cyclic", "nice:3",
                "greedymb:3")
L1_RULES = ("full", "uniform", "greedy", "cyclic", "nice:3", "greedymb:3")

# incremental against direct values, relative to max(|F(x)|, |F(0)|)
STATE_RTOL = 1e-12


def _instances():
    smooth = gen_instance(m=60, n=16, seed=4)
    # an L1 weight that leaves x = 0 far from optimal
    lam = 0.2 * float(np.abs(smooth.grad_f(np.zeros(16))).max())
    l1 = gen_instance(m=60, n=16, seed=4, lam=lam)
    for problem in (smooth, l1):
        empirical_optimum(problem)
    return {"smooth": (smooth, SMOOTH_RULES), "l1": (l1, L1_RULES)}


class CheckedState(LsqCosState):
    """Compares f and the gradient with direct evaluation after every move
    (block or one-coordinate), each of which ends in `_update_f`, and counts
    the checks."""

    worst = 0.0
    checks = 0

    def _update_f(self):
        super()._update_f()
        obj, x = self.objective, self.x
        f_direct = float(obj.eval_f(x))
        scale = max(abs(f_direct), abs(float(obj.eval_f(np.zeros_like(x)))))
        err = max(abs(self.f - f_direct),
                  float(np.abs(self.grad - obj.grad_f(x)).max()))
        CheckedState.worst = max(CheckedState.worst, err / scale)
        CheckedState.checks += 1


@pytest.mark.parametrize("kind", ["smooth", "l1"])
def test_incremental_state_matches_direct_over_long_runs(kind, monkeypatch):
    problem, rules = _instances()[kind]
    obj = problem.objective
    monkeypatch.setattr(obj, "state_at", lambda x: CheckedState(obj, x))
    for spec in rules:
        CheckedState.worst, CheckedState.checks = 0.0, 0
        result = run(problem, parse_rule(spec, problem.dim, default_seed=7),
                     RunConfig(max_iters=5000, record_diagnostics=True))
        assert len(result.trace) == 5000
        # the start point's check and one per step: none is skipped
        assert CheckedState.checks == 5001, spec
        assert CheckedState.worst <= STATE_RTOL, spec
        scale = max(abs(result.final_F), abs(problem.F(np.zeros(problem.dim))))
        assert abs(result.final_F - problem.F(result.x)) <= STATE_RTOL * scale
        assert verify_trace(result).all_passed, spec


def test_state_refreshes_Mx_periodically():
    problem = gen_instance(m=30, n=6, seed=1)
    obj = problem.objective
    state = obj.state_at(np.zeros(6))
    for k in range(13):
        state.move(CoordSet((k % 6,), 6), np.array([0.1]))
        # a refresh after every n = 6 coordinates moved
        assert state._moved == (k + 1) % 6
    np.testing.assert_allclose(state._Mx, obj.smoothness @ state.x, rtol=0, atol=1e-15)


class EntryCheckedState(LsqCosState):
    """Checks, at the start point and after every move, that each
    `grad_entry(i)` has the bits of `grad.item(i)`."""

    checks = 0

    def _update_f(self):
        super()._update_f()
        entries = np.array([self.grad_entry(i) for i in range(self.objective.dim)])
        assert entries.tobytes() == self.grad.tobytes()
        EntryCheckedState.checks += 1


@pytest.mark.parametrize("kind", ["smooth", "l1"])
def test_gradient_entries_have_the_bits_of_the_gradient(kind, monkeypatch):
    problem, _ = _instances()[kind]
    obj, n = problem.objective, problem.dim
    monkeypatch.setattr(obj, "state_at", lambda x: EntryCheckedState(obj, x))
    specs = ("uniform", "importance", "greedy", "cyclic", "nice:1") if kind == "smooth" \
        else ("uniform", "greedy", "cyclic", "nice:1")
    for spec in specs:
        for diagnostics in (True, False):
            EntryCheckedState.checks = 0
            iters = 4 * n  # M x is rebuilt from x 4 times
            result = run(problem, parse_rule(spec, n, default_seed=3),
                         RunConfig(max_iters=iters, record_diagnostics=diagnostics))
            assert len(result.trace) == iters
            assert EntryCheckedState.checks == iters + 1, (spec, diagnostics)


def test_a_gradient_chunk_forms_each_kept_gradient():
    problem = gen_instance(m=60, n=16, seed=4)
    state = problem.objective.state_at(np.zeros(16))
    chunk, kept = state.gradient_chunk(40), []
    rng = np.random.default_rng(0)
    for row in range(40):
        chunk.keep(row)
        kept.append(state.grad.copy())
        if row % 3:
            state.move_coordinate(int(rng.integers(16)), float(rng.standard_normal()))
        else:
            S = CoordSet(tuple(sorted(rng.choice(16, 3, replace=False).tolist())), 16)
            state.move(S, rng.standard_normal(3))
    grads = chunk.gradients(40)
    assert grads.flags.c_contiguous and grads.shape == (40, 16)
    assert grads.tobytes() == np.array(kept).tobytes()
    assert chunk.gradients(25).tobytes() == np.array(kept[:25]).tobytes()


@pytest.mark.parametrize("kind", ["smooth", "l1"])
def test_serial_steps_that_read_one_entry_form_no_gradient(kind, monkeypatch):
    """`uniform`, `importance`, `cyclic` and `nice:1` without a certificate
    read g_i alone: no gradient vector is formed within the steps.  With
    diagnostics the run forms one, for the certificate at its final
    iterate.  Smooth `greedy`, and every greedy rule on L1, form one per
    step."""
    problem, _ = _instances()[kind]
    n = problem.dim
    formed = {"grad": 0}
    grad = LsqCosState.grad

    def counted(state):
        formed["grad"] += state._grad is None
        return grad.fget(state)

    monkeypatch.setattr(LsqCosState, "grad", property(counted))
    lazy = ("uniform", "importance", "cyclic", "nice:1") if kind == "smooth" \
        else ("uniform", "cyclic", "nice:1")
    for spec in lazy + ("greedy",):
        for diagnostics in (False, True):
            formed["grad"] = 0
            run(problem, parse_rule(spec, n), RunConfig(max_iters=3 * n,
                                                        record_diagnostics=diagnostics))
            want = diagnostics if spec in lazy else 3 * n + (diagnostics or kind == "l1")
            assert formed["grad"] == want, (spec, diagnostics)


def _counting(objective):
    counts = {"eval_f": 0, "grad_f": 0}

    def eval_f(x):
        counts["eval_f"] += 1
        return objective.eval_f(x)

    def grad_f(x):
        counts["grad_f"] += 1
        return objective.grad_f(x)

    wrapped = Objective(dim=objective.dim, eval_f=eval_f, grad_f=grad_f,
                        smoothness=objective.smoothness,
                        known_opt_value=objective.known_opt_value)
    return wrapped, counts


@pytest.mark.parametrize("spec", ["full", "uniform", "greedy", "nice:2", "greedymb:2"])
@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_closure_objective_one_gradient_and_value_per_iteration(spec, lam):
    M = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    obj, counts = _counting(make_quadratic(M))
    problem = CompositeProblem(obj, make_l1(lam))
    problem.opt_value = 0.0
    x0 = np.linspace(1.0, 2.0, 5)
    K = 30
    run(problem, parse_rule(spec, 5), RunConfig(max_iters=K, x0=x0))
    # one value per iterate (the start point and one per step), one gradient
    # per iteration; greedy rules on a nonsmooth problem select by the
    # certificate, so the run also reports a final one, at its final iterate
    final_cert = lam > 0 and spec.startswith("greedy")
    assert counts == {"eval_f": K + 1, "grad_f": K + final_cert}

    counts.update(eval_f=0, grad_f=0)
    run(problem, parse_rule(spec, 5),
        RunConfig(max_iters=K, x0=x0, record_diagnostics=True))
    # diagnostics add the final certificate's gradient, nothing per iteration
    assert counts == {"eval_f": K + 1, "grad_f": K + 1}


def _closure_twin(problem):
    """The same instance as a closure objective, which recomputes."""
    A, b, c = problem.objective.A, problem.objective.b, problem.objective.c
    m = A.shape[0]

    def f(x):
        r = A @ x - b
        return 0.5 / m * float(r @ r) + np.cos(float(c @ x)) / m

    def grad(x):
        return (A.T @ (A @ x - b) - np.sin(float(c @ x)) * c) / m

    obj = Objective(dim=problem.dim, eval_f=f, grad_f=grad,
                    smoothness=problem.objective.smoothness)
    return CompositeProblem(obj, problem.regularizer, opt_value=problem.opt_value)


# F, xi and lambda of the structured run against the closure run, relative
# to max(|F|, |F(0)|)
TWIN_RTOL = 1e-12


@pytest.mark.parametrize("kind", ["smooth", "l1"])
def test_structured_and_closure_runs_agree(kind):
    problem, rules = _instances()[kind]
    twin = _closure_twin(problem)
    scale = max(abs(problem.F(np.zeros(problem.dim))), abs(problem.opt_value))
    for spec in rules:
        runs = [run(p, parse_rule(spec, p.dim, default_seed=11),
                    RunConfig(max_iters=300, record_diagnostics=True))
                for p in (problem, twin)]
        structured, closure = runs
        assert ([r.block for r in structured.trace]
                == [r.block for r in closure.trace]), spec
        for field in ("F", "xi", "lam"):
            a = np.array([getattr(r, field) for r in structured.trace])
            b = np.array([getattr(r, field) for r in closure.trace])
            assert np.abs(a - b).max() <= TWIN_RTOL * scale, (spec, field)
        assert abs(structured.final_F - closure.final_F) <= TWIN_RTOL * scale


@pytest.mark.parametrize("size", [1, 2, 3, 8, 12])
def test_block_step_solve_bit_identical_to_cho_solve(size):
    problem = gen_instance(m=40, n=12, seed=2)
    x = np.linspace(-1.0, 1.0, 12)
    grad = problem.grad_f(x)
    S = CoordSet(tuple(range(0, 12, 12 // size))[:size], 12)
    step = engine.block_step(problem, x, S, grad=grad)
    factor = scipy.linalg.cho_factor(
        problem.objective.smoothness[np.ix_(S.array, S.array)], lower=True)
    assert np.array_equal(step.u_S, -scipy.linalg.cho_solve(factor, grad[S.array]))


def test_engine_accepts_precomputed_gradient():
    problem = gen_instance(m=40, n=12, seed=3, lam=0.02)
    x = np.linspace(-0.5, 0.5, 12)
    grad = problem.grad_f(x)
    S = CoordSet((1, 4, 7), 12)
    L = 2.0
    assert (engine.certificate(problem, x, L, grad=grad).lambda_total
            == engine.certificate(problem, x, L).lambda_total)
    assert np.array_equal(engine.block_step(problem, x, S, L, grad=grad).u_S,
                          engine.block_step(problem, x, S, L).u_S)
    assert (engine.proportion(problem, x, S, L, grad=grad)
            == engine.proportion(problem, x, S, L))


def test_instance_metadata_lives_on_objective_and_regularizer(tmp_path):
    from blockprox.objectives import load_instance, save_instance

    problem = gen_instance(m=20, n=5, seed=9, lam=0.25)
    assert problem.objective.seed == 9 and problem.regularizer.lam == 0.25
    assert not problem.opt_value_is_empirical
    path = tmp_path / "inst.json"
    save_instance(problem, path)
    loaded = load_instance(path)
    assert loaded.objective.seed == 9 and loaded.regularizer.lam == 0.25
    np.testing.assert_array_equal(loaded.objective.A, problem.objective.A)
