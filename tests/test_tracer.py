"""The benchmark's tracer (`bench/tracer.py`) patches blockprox functions and
methods by name; installing it fails if a traced target is renamed or
deleted.  The test suite runs no traced benchmark, so this test installs it,
traces a short L1 run, two smooth greedy runs and two smooth block runs, and
uninstalls it."""

import importlib.util
import pathlib

import blockprox
import blockprox.cli  # noqa: F401 - the package does not import it

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("blockprox_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls():
    tracer_mod = _load_tracer()
    modules = [blockprox] + [getattr(blockprox, m)
                             for m in tracer_mod.PACKAGE_MODULES if m]
    before = [dict(vars(module)) for module in modules]
    classes = [getattr(getattr(blockprox, mod), cls)
               for mod, cls, *_ in tracer_mod.METHODS]
    class_before = [dict(vars(cls)) for cls in classes]

    tracer = tracer_mod.Tracer()
    tracer.install(blockprox)
    try:
        # every traced target was found and wrapped
        for mod, attr, _ in tracer_mod.FUNCTIONS + tracer_mod.GENERATORS:
            module = getattr(blockprox, mod)
            assert vars(module)[attr].__wrapped__ is before[
                modules.index(module)][attr], (mod, attr)
        for cls, before_attrs, (_, _, attr, *_) in zip(
                classes, class_before, tracer_mod.METHODS):
            assert vars(cls)[attr].__wrapped__ is before_attrs[attr], attr
        # names read at call time, so the patched ones
        p = blockprox.gen_instance(20, 6, seed=1, lam=0.05)
        blockprox.descent.run(p, blockprox.parse_rule("uniform", 6, default_seed=0),
                              blockprox.RunConfig(max_iters=5,
                                                  record_diagnostics=False))
        stats = tracer.merged()["stats"]
        assert stats["descent.run"][0] == 1
        assert stats["objectives.reg.prox"][0] == 5
        # the smooth greedy rules select on the loop's gradient: a run
        # without diagnostics evaluates neither grad f nor F through the
        # problem; the loop selects by the function `selection.picker`
        # builds once per run, so `select` is not called
        smooth = blockprox.gen_instance(40, 8, seed=1)
        for spec in ("greedy", "greedymb:3"):
            blockprox.descent.run(smooth, blockprox.parse_rule(spec, 8),
                                  blockprox.RunConfig(max_iters=20))
        merged = tracer.merged()
        assert merged["stats"]["descent.run"][0] == 3
        assert merged["stats"]["selection.select"][0] == 0
        assert merged["run_calls"]["objectives.grad_f"] == 0
        assert merged["run_calls"]["objectives.F"] == 0
        # a full step solves by M's factor, read through `factor_for` once
        # per run, when its step function is built; a block step solves
        # its gather without it
        for spec, iters in (("full", 7), ("nice:3", 9)):
            blockprox.descent.run(smooth, blockprox.parse_rule(spec, 8),
                                  blockprox.RunConfig(max_iters=iters))
        merged = tracer.merged()
        assert merged["stats"]["descent.run"][0] == 5
        assert merged["stats"]["objectives.factor_for"][0] == 1
        assert merged["counters"]["objectives.factor_for.distinct"] == 1
    finally:
        tracer.uninstall()

    for module, attrs in zip(modules, before):
        assert dict(vars(module)) == attrs, module.__name__
    for cls, attrs in zip(classes, class_before):
        assert dict(vars(cls)) == attrs, cls.__name__
