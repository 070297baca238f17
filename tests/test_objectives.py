import json
import math

import numpy as np
import pytest

from blockprox import linalg, objectives
from blockprox.objectives import (
    CompositeProblem,
    L1Regularizer,
    flat_inflection_coefficient,
    gen_instance,
    load_instance,
    make_huber_product,
    make_l1,
    make_lsq_cos,
    make_plateau_1d,
    make_product_square,
    make_quadratic,
    save_instance,
)


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_lsq_cos_gradient_fd():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 5))
    b = rng.standard_normal(8)
    c = rng.standard_normal(5)
    obj = make_lsq_cos(A, b, c)
    for _ in range(5):
        x = rng.standard_normal(5)
        np.testing.assert_allclose(obj.grad_f(x), fd_grad(obj.eval_f, x),
                                   rtol=1e-5, atol=1e-7)


def test_lsq_cos_smoothness_majorizes():
    # f(x+h) <= f(x) + <g, h> + h'Mh/2 at sampled pairs
    rng = np.random.default_rng(1)
    A = rng.standard_normal((10, 4))
    b = rng.standard_normal(10)
    c = rng.standard_normal(4)
    obj = make_lsq_cos(A, b, c)
    for _ in range(200):
        x = rng.uniform(-3, 3, 4)
        h = rng.uniform(-3, 3, 4)
        lhs = obj.eval_f(x + h)
        rhs = (obj.eval_f(x) + float(obj.grad_f(x) @ h)
               + 0.5 * float(h @ (obj.smoothness @ h)))
        assert lhs <= rhs + 1e-12


def test_lsq_cos_shape_errors():
    with pytest.raises(ValueError):
        make_lsq_cos(np.ones((3, 2)), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        make_lsq_cos(np.ones((3, 2)), np.ones(3), np.ones(3))


def test_quadratic_objective():
    M = np.diag([1.0, 4.0])
    obj = make_quadratic(M)
    assert obj.known_opt_value == 0.0
    assert obj.strong_convexity_f == 1.0
    x = np.array([2.0, -1.0])
    assert obj.eval_f(x) == 0.5 * (4.0 + 4.0)
    np.testing.assert_allclose(obj.grad_f(x), M @ x)
    with pytest.raises(ValueError):
        make_quadratic(np.diag([1.0, -1.0]))


def test_quadratic_with_loose_smoothness():
    Q = np.diag([1.0, 3.0])
    obj = make_quadratic(Q, smoothness=3.0 * np.eye(2))
    np.testing.assert_allclose(obj.smoothness, 3.0 * np.eye(2))
    assert obj.strong_convexity_f == 1.0
    with pytest.raises(ValueError, match="quadratic matrix must be positive definite"):
        make_quadratic(np.diag([1.0, -1.0]), smoothness=3.0 * np.eye(2))


def test_make_quadratic_computes_the_spectrum_once(monkeypatch):
    from blockprox.linalg import eig_extremes

    Q = objectives.random_spd(30, 50.0, 4)
    lo, hi = eig_extremes(Q)
    loose = 2.0 * Q
    loose_lo, loose_hi = eig_extremes(loose)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(M):
        calls.append(M.shape)
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    obj = make_quadratic(Q)
    assert calls == [(30, 30)]
    for got, want in ((obj.strong_convexity_f, lo), (obj.lambda_min, lo),
                      (obj.lambda_max, hi)):
        assert float.hex(got) == float.hex(want)
    # a looser smoothness matrix has a spectrum of its own: one call each
    calls.clear()
    obj = make_quadratic(Q, smoothness=loose)
    assert len(calls) == 2
    assert float.hex(obj.strong_convexity_f) == float.hex(lo)
    assert (obj.lambda_min, obj.lambda_max) == (loose_lo, loose_hi)


def test_l1_prox_grid_oracle():
    reg = make_l1(0.3)
    grid = np.arange(-5, 5, 1e-4)
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = float(rng.uniform(-2, 2))
        ell = float(rng.uniform(0.5, 5.0))
        vals = 0.5 * ell * (grid - c) ** 2 + 0.3 * np.abs(grid)
        best = grid[int(vals.argmin())]
        assert abs(reg.prox(c, ell) - best) < 2e-4


def test_l1_value_and_zero():
    reg = make_l1(0.5)
    x = np.array([1.0, -2.0, 0.0])
    assert reg.value(x) == pytest.approx(1.5)
    assert not reg.is_zero
    assert make_l1(0.0).is_zero
    assert make_l1(0.0).value(x) == 0.0
    assert CompositeProblem(make_quadratic(np.eye(3))).regularizer.is_zero
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            L1Regularizer(bad)


def test_composite_paths():
    obj = make_quadratic(np.diag([1.0, 2.0]))
    smooth = CompositeProblem(obj)
    assert smooth.smooth_path
    assert smooth.opt_value == 0.0
    assert smooth.L_scalar == pytest.approx(2.0)
    with pytest.raises(TypeError):  # lambda_max(M), not a constructor field
        CompositeProblem(obj, L_scalar=1.0)
    nonsmooth = CompositeProblem(make_quadratic(np.diag([1.0, 2.0])),
                                 make_l1(0.1))
    assert not nonsmooth.smooth_path
    assert nonsmooth.opt_value is None
    with pytest.raises(ValueError):
        nonsmooth.xi(np.zeros(2))


def test_gen_instance_determinism_and_structure():
    p1 = gen_instance(30, 8, seed=7)
    p2 = gen_instance(30, 8, seed=7)
    np.testing.assert_array_equal(p1.objective.A, p2.objective.A)
    np.testing.assert_array_equal(p1.objective.b, p2.objective.b)
    np.testing.assert_array_equal(p1.objective.c, p2.objective.c)
    # prescribed singular values, linearly spaced in [1/m, 1]
    sv = np.linalg.svd(p1.objective.A, compute_uv=False)
    np.testing.assert_allclose(np.sort(sv), np.linspace(1 / 30, 1.0, 8),
                               rtol=1e-10)
    # unit-norm c; b lies in the range of A with unit-norm preimage
    assert np.linalg.norm(p1.objective.c) == pytest.approx(1.0)
    y, *_ = np.linalg.lstsq(p1.objective.A, p1.objective.b, rcond=None)
    assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-8)


def _gen_instance_A(m, n, seed):
    """A as `gen_instance` once formed it, U @ np.diag(sigma) @ V.T, from the
    same draws: the oracle of its scaled-columns product."""
    rng = np.random.default_rng(seed)

    def ortho(rows, cols):
        Q, R = np.linalg.qr(rng.standard_normal((rows, cols)))
        return Q * np.sign(np.diag(R))

    U = ortho(m, n)
    V = ortho(n, n)
    return U @ np.diag(np.linspace(1.0 / m, 1.0, n)) @ V.T


@pytest.mark.parametrize("m, n", [(50, 1), (40, 12), (200, 32), (1000, 100)])
def test_gen_instance_A_has_the_bits_of_the_diagonal_product(m, n):
    for seed in range(4):
        A = gen_instance(m, n, seed).objective.A
        assert A.tobytes() == _gen_instance_A(m, n, seed).tobytes(), seed


@pytest.fixture
def blas():
    """numpy's OpenBLAS, whose thread count the test may set; the count is
    restored after the test."""
    lib = linalg.openblas(np)
    if lib is None or lib.set_num_threads is None:
        pytest.skip("numpy's BLAS has no thread setter")
    threads = lib.get_num_threads()
    yield lib
    lib.set_num_threads(threads)


def _generators():
    """Each instance generator with a QR, called at a small size."""
    return [lambda: gen_instance(40, 12, 0), lambda: objectives.random_spd(12, 10.0, 0)]


def test_instance_qr_runs_on_one_blas_thread(blas, monkeypatch):
    """Both QRs of `gen_instance` and the one of `random_spd` run with
    numpy's BLAS at one thread, and the caller's count is back after each
    call."""
    blas.set_num_threads(2)
    qr = np.linalg.qr
    seen = []

    def recording_qr(a):
        seen.append((a.shape, blas.get_num_threads()))
        return qr(a)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    for generate in _generators():
        generate()
        assert blas.get_num_threads() == 2
    assert seen == [((40, 12), 1), ((12, 12), 1), ((12, 12), 1)]


def test_instance_generators_restore_blas_threads_when_the_qr_raises(blas, monkeypatch):
    def failing_qr(a):
        raise np.linalg.LinAlgError("qr failed")

    monkeypatch.setattr(np.linalg, "qr", failing_qr)
    for threads in (2, 1):
        blas.set_num_threads(threads)
        for generate in _generators():
            with pytest.raises(np.linalg.LinAlgError):
                generate()
            assert blas.get_num_threads() == threads


def test_gen_instance_bytes_do_not_depend_on_blas_threads(blas):
    """A, b and c are the same bytes whether the caller's BLAS runs on one
    thread or two, at a size where a QR split over two threads gives other
    bytes than one on one thread."""
    def instance_bytes(seed):
        o = gen_instance(2000, 200, seed).objective
        return o.A.tobytes(), o.b.tobytes(), o.c.tobytes()

    for seed in range(2):
        blas.set_num_threads(1)
        one = instance_bytes(seed)
        blas.set_num_threads(2)
        assert instance_bytes(seed) == one, seed


def test_gen_instance_validation():
    with pytest.raises(ValueError):
        gen_instance(5, 6, seed=0)
    p = gen_instance(1, 1, seed=0)  # degenerate single-entry instance
    assert p.dim == 1 and p.objective.A.shape == (1, 1)


def test_save_load_roundtrip(tmp_path):
    p = gen_instance(12, 4, seed=3, lam=0.25)
    path = tmp_path / "inst.json"
    save_instance(p, path)
    q = load_instance(path)
    np.testing.assert_array_equal(p.objective.A, q.objective.A)
    np.testing.assert_array_equal(p.objective.b, q.objective.b)
    np.testing.assert_array_equal(p.objective.c, q.objective.c)
    assert not q.smooth_path and q.regularizer.lam == 0.25
    x = np.random.default_rng(0).standard_normal(4)
    assert p.F(x) == q.F(x)
    payload = json.loads(path.read_text())
    assert payload["m"] == 12 and payload["n"] == 4 and payload["seed"] == 3
    assert len(payload["A"]) == 48  # row-major flat


def test_save_load_roundtrip_default_regularizer(tmp_path):
    # a problem built without a regularizer saves with L1 weight 0
    p = CompositeProblem(make_plateau_1d(flat_inflection_coefficient()))
    path = tmp_path / "plateau.json"
    save_instance(p, path)
    q = load_instance(path)
    for name in ("A", "b", "c"):
        np.testing.assert_array_equal(getattr(p.objective, name),
                                      getattr(q.objective, name))
    assert q.regularizer.lam == 0.0 and q.smooth_path
    assert json.loads(path.read_text())["lambda"] == 0.0


def test_save_identical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(gen_instance(10, 3, seed=5), a)
    save_instance(gen_instance(10, 3, seed=5), b)
    assert a.read_bytes() == b.read_bytes()


def test_product_square_gradient_and_membership():
    obj = make_product_square()
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(-2, 2, 2)
        np.testing.assert_allclose(obj.grad_f(x), fd_grad(obj.eval_f, x),
                                   rtol=1e-5, atol=1e-7)
    assert obj.eval_f(np.array([0.0, 5.0])) == 0.0
    # box-restricted majorization holds inside the box
    for _ in range(300):
        x = rng.uniform(-1, 1, 2)
        h = rng.uniform(-1, 1, 2)
        lhs = obj.eval_f(x + h)
        rhs = (obj.eval_f(x) + float(obj.grad_f(x) @ h)
               + 0.5 * float(h @ (obj.smoothness @ h)))
        assert lhs <= rhs + 1e-12


def test_huber_product_gradient():
    obj = make_huber_product()
    rng = np.random.default_rng(5)
    for _ in range(8):
        x = rng.uniform(-2, 2, 2)
        if min(abs(abs(x) - 1.0)) < 1e-3:
            continue  # gradient kink of the Huber pieces
        np.testing.assert_allclose(obj.grad_f(x), fd_grad(obj.eval_f, x),
                                   rtol=1e-4, atol=1e-6)
    assert obj.eval_f(np.array([0.0, 3.0])) == 0.0
    with pytest.raises(ValueError):
        make_huber_product(box=0.5)


@pytest.mark.parametrize("box", [1.0, 2.0, 3.5])
def test_box_products_bit_identical_to_their_closed_forms(box):
    """f and grad of both box products, bit for bit against the formulas
    written out: x1^2 x2^2 on the array's entries and H(x1) H(x2) on Python
    floats, on seeded points of the box and on its edges and kinks."""
    def huber(z):
        return z * z if abs(z) < 1 else 2.0 * abs(z) - 1.0

    def huber_d(z):
        return 2.0 * z if abs(z) < 1 else 2.0 * math.copysign(1.0, z)

    square, hub = make_product_square(box), make_huber_product(box)
    assert np.array_equal(square.smoothness, 6.0 * box * box * np.eye(2))
    assert np.array_equal(hub.smoothness,
                          (2.0 * (2.0 * box - 1.0) + 4.0) * np.eye(2))
    edges = [0.0, -0.0, 1.0, -1.0, box, -box, 5e-324, 0.5]
    points = np.concatenate([
        np.random.default_rng(int(box * 10)).uniform(-box, box, (5000, 2)),
        np.array([[a, b] for a in edges for b in edges])])
    for x in points:
        f = float(x[0] ** 2 * x[1] ** 2)
        g = np.array([2.0 * x[0] * x[1] ** 2, 2.0 * x[0] ** 2 * x[1]])
        assert float.hex(square.eval_f(x)) == float.hex(f)
        assert square.grad_f(x).tobytes() == g.tobytes()
        x1, x2 = float(x[0]), float(x[1])
        f = huber(x1) * huber(x2)
        g = np.array([huber_d(x1) * huber(x2), huber(x1) * huber_d(x2)])
        assert float.hex(hub.eval_f(x)) == float.hex(f)
        assert hub.grad_f(x).tobytes() == g.tobytes()
    with pytest.raises(ValueError):
        make_product_square(box=0.0)


def test_flat_inflection_coefficient():
    c = flat_inflection_coefficient()
    assert c == pytest.approx(2.1455392908897526, abs=1e-9)
    # at c*, f' has a (near-)double root right of the minimizer: the branch
    # minimum of f' is zero to tolerance
    xs = np.linspace(2.5, 4.5, 200001)
    fp = (xs - math.pi / c) - c * np.sin(c * xs)
    assert abs(fp.min()) < 1e-6
    # f' = f'' = 0 at the inflection point c x = 2 pi + arccos(1/c^2)
    x = (2 * math.pi + math.acos(1 / c**2)) / c
    assert abs((x - math.pi / c) - c * math.sin(c * x)) <= 1e-12
    assert abs(1 - c * c * math.cos(c * x)) <= 1e-12


def test_plateau_optimum():
    c = flat_inflection_coefficient()
    obj = make_plateau_1d(c)
    # both terms are minimized simultaneously at x = pi/c, value exactly -1
    assert obj.known_opt_value == pytest.approx(-1.0, abs=1e-12)
    assert obj.known_minimizer[0] == pytest.approx(math.pi / c, abs=1e-9)
    with pytest.raises(ValueError):
        make_plateau_1d(-1.0)


def _plateau_optimum_by_search(c):
    """The former numerical optimum of the plateau: a global grid sweep and
    a damped Newton polish on f'."""
    center = math.pi / c
    xs = np.linspace(center - 30.0, center + 30.0, 300001)
    vals = 0.5 * (xs - center) ** 2 + np.cos(c * xs)
    x = xs[int(vals.argmin())]
    for _ in range(200):
        g = (x - center) - c * math.sin(c * x)
        h = 1.0 - c * c * math.cos(c * x)
        if h <= 0:
            break
        step = g / h
        x -= step
        if abs(step) < 1e-15:
            break
    return x, float(0.5 * (x - center) ** 2 + math.cos(c * x))


@pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0, None, 3.0, 5.0, 10.0])
def test_plateau_optimum_matches_grid_search_bit_for_bit(c):
    c = flat_inflection_coefficient() if c is None else c
    obj = make_plateau_1d(c)
    x, value = _plateau_optimum_by_search(c)
    assert obj.known_minimizer.tolist() == [x]
    assert obj.known_opt_value == value
    assert obj.eval_f(obj.known_minimizer) == value


def test_objective_rejects_bad_smoothness():
    with pytest.raises(ValueError):
        objectives.Objective(dim=2, eval_f=lambda x: 0.0,
                             grad_f=lambda x: np.zeros(2),
                             smoothness=np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        objectives.Objective(dim=3, eval_f=lambda x: 0.0,
                             grad_f=lambda x: np.zeros(3),
                             smoothness=np.eye(2))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_l1_prox_array_matches_scalar_formula_bitwise():
    lam, ell = 0.3, 1.5
    t = lam / ell
    c = np.array([0.0, -0.0, t, -t, np.nextafter(t, 0.0), np.nextafter(t, 1.0),
                  -np.nextafter(t, 0.0), 1e-300, -1e-300, 0.7, -0.7, 3.0, -2.5,
                  1e300, -1e300, np.inf, -np.inf, 5e-17])
    reg = make_l1(lam)
    expected = [math.copysign(max(abs(ci) - t, 0.0), ci) for ci in c]
    np.testing.assert_array_equal(_bits(reg.prox_array(c, ell)), _bits(expected))
    # the scalar methods are the same maps
    np.testing.assert_array_equal(
        _bits([reg.prox(float(ci), ell) for ci in c]), _bits(expected))
    np.testing.assert_array_equal(_bits(reg.value_array(c)),
                                  _bits([reg.value_i(float(ci)) for ci in c]))


def test_zero_regularizer_array_maps():
    reg = make_l1(0.0)
    c = np.array([1.5, -0.0, 2.0, -3.0, 0.0, 1e-300])
    np.testing.assert_array_equal(_bits(reg.prox_array(c, 3.0)), _bits(c))
    np.testing.assert_array_equal(_bits(reg.value_array(c)), _bits(np.zeros(6)))
    np.testing.assert_array_equal(
        _bits([reg.prox(float(ci), 3.0) for ci in c]), _bits(c))
    assert reg.value(c) == 0.0


def test_block_smoothness_cached_with_provenance():
    from blockprox import rates

    p = gen_instance(30, 8, seed=3, lam=0.1)
    obj = p.objective
    exact = obj.block_smoothness(3)
    assert exact == (rates.L_tau(obj.smoothness, 3), "exact")
    assert obj.block_smoothness(3) is exact
    assert obj.block_smoothness(1).source == "exact"
    assert obj.block_smoothness(8).source == "exact"
    with pytest.warns(UserWarning, match="trace"):
        bound = obj.block_smoothness(4, budget=10)
    assert bound.source == "trace_bound"
    assert bound.value >= obj.block_smoothness(4).value - 1e-12
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cached value warns only once
        assert obj.block_smoothness(4, budget=10) is bound


def _count_eigvalsh(monkeypatch):
    """The arrays np.linalg.eigvalsh is called on, kept in call order."""
    seen = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        seen.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return seen


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_one_spectrum_of_M_per_objective(monkeypatch, lam):
    """Construction, the empirical optimum, runs of full, uniform and nice:4
    and their rates constants take M's spectrum once: L_n on the prox path is
    the held lambda_max, not a second eigvalsh of M."""
    from blockprox import descent, rates
    from blockprox.selection import parse_rule

    seen = _count_eigvalsh(monkeypatch)
    problem = gen_instance(200, 32, 1, lam=lam)
    M = problem.objective.smoothness
    descent.empirical_optimum(problem)
    for spec in ("full", "uniform", "nice:4"):
        rule = parse_rule(spec, 32)
        descent.run(problem, rule, descent.RunConfig(max_iters=20))
        rates.rule_constant(rule, problem)
    assert sum(np.array_equal(a, M) for a in seen) == 1
    if lam:  # the prox path takes no other 32 x 32 spectrum
        assert sum(a.shape == (32, 32) for a in seen) == 1
    assert problem.objective.block_smoothness(32) == (problem.objective.lambda_max, "exact")


@pytest.mark.parametrize("budget", [None, 20])
def test_smooth_minibatch_constants_are_taken_once(monkeypatch, budget):
    """Repeated `rule_constant` calls of the smooth minibatch rules read the
    objective's floor: no spectrum after the first call, the same bits.
    C(12, 3) = 220 sets are within the default budget and past 20."""
    from blockprox import rates
    from blockprox.selection import parse_rule

    problem = gen_instance(40, 12, 1)
    kwargs = {} if budget is None else {"budget": budget}
    rules = [parse_rule(spec, 12, **kwargs) for spec in ("nice:3", "greedymb:3")]
    first = [rates.rule_constant(rule, problem) for rule in rules]
    seen = _count_eigvalsh(monkeypatch)
    for _ in range(3):
        again = [rates.rule_constant(rule, problem) for rule in rules]
        assert [(c.hex(), p) for c, p in again] == [(c.hex(), p) for c, p in first]
    assert seen == []
    names = [next(iter(p)) for _, p in first]
    assert names == (["lambda_min(E[inv])"] * 2 if budget is None else
                     ["(tau/n)/lambda_max(B)", "trace(M), forward-greedy heuristic"])


def test_tables_past_the_budget_are_none():
    obj = gen_instance(40, 12, 1).objective
    assert obj.expected_inverse(3, budget=219) is None
    assert obj.inverse_forms(3, budget=219) is None
    assert obj.expected_inverse(3, budget=220) is not None
    assert obj.inverse_forms(3, budget=220) is not None


def test_only_the_objective_decides_the_enumeration_budget():
    """`subset_count` is called once in `objectives`, by the objective's
    cache; in `rates` only by the raw-M builders, and nowhere in `selection`."""
    import ast
    from pathlib import Path

    def callers(module):
        tree = ast.parse(Path(objectives.__file__).with_name(module).read_text())
        found = []
        for top in tree.body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in defs:
                name = getattr(node, "name", "<module>")
                if isinstance(top, ast.ClassDef):
                    name = f"{top.name}.{name}"
                found += [name for call in ast.walk(node) if isinstance(call, ast.Call)
                          and "subset_count" in (getattr(call.func, "id", None),
                                                 getattr(call.func, "attr", None))]
        return found

    assert callers("objectives.py") == ["Objective._subset_constant"]
    assert set(callers("rates.py")) <= {"L_tau", "expected_inverse_matrix"}
    assert callers("selection.py") == []


@pytest.mark.parametrize("n", [0, -1])
def test_no_coordinates_is_refused_naming_the_dimension(n):
    with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
        objectives.random_spd(n, 10.0, 0)
    with pytest.raises(ValueError, match=f"dim must be at least 1, got {n}"):
        objectives.Objective(n, lambda x: 0.0, lambda x: x, np.zeros((0, 0)))
