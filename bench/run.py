"""blockprox benchmark: one workload per process, closed loop, single client.

Run from the root of a source checkout (the program is imported from
./src, nothing needs installing):

    python3 bench/run.py --workload paper_smooth --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32   # every workload
    python3 bench/run.py --smoke                                # self-test

A run repeats passes of its workload (set-up, then the timed work) until
`--seconds` would be exceeded, at least once. It reports medians over the
run's calls of each unit of work, scaled to a reference host speed by a
calibration kernel timed between the units. With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it repeats pairs of an untraced and a
traced pass and prints the per-layer metrics of the traced ones. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. The lines before it give the environment and a
readable table. Work files, the full result with its environment block, and
the traced spans go to .bench_out/ in the checkout.

Workloads, their metrics and how each per-layer metric relates to the
end-to-end ones are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import glob
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import tracer as tracing
from workloads import WORKLOADS, PassRecord

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# End-to-end times are reported at the host speed where one call of the
# calibration kernel (workloads.calibration_kernel) takes this long. A timed
# call is scaled by the calibration calls that ended within
# CALIBRATION_WINDOW_S, or within its own duration if that is longer, of it.
CALIBRATION_REF_S = 0.001
CALIBRATION_WINDOW_S = 1.0


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_program():
    """Import blockprox from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "blockprox", "__init__.py")):
        sys.exit(f"error: no blockprox sources under {SRC}")
    sys.path.insert(0, SRC)
    import blockprox
    import blockprox.cli  # noqa: F401 - the package does not import it

    if os.path.dirname(os.path.dirname(os.path.abspath(blockprox.__file__))) != SRC:
        sys.exit(f"error: imported blockprox from {blockprox.__file__}, not {SRC}")
    return blockprox


def blas_threads():
    """Threads the loaded OpenBLAS will use, if it can be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(bp, args) -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "blockprox", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + fh.read())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "short": args.short,
        "commit": commit, "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "enumeration_budget": bp.linalg.DEFAULT_ENUMERATION_BUDGET,
    }


def warm_up(bp, workdir):
    """Load lazily imported code and start the BLAS threads before timing."""
    problem = bp.gen_instance(m=40, n=12, seed=0, lam=1e-3)
    bp.descent.empirical_optimum(problem)
    for spec in ("full", "uniform", "greedy", "nice:3", "greedymb:3"):
        rule = bp.parse_rule(spec, 12)
        result = bp.descent.run(problem, rule, bp.descent.RunConfig(
            max_iters=5, record_diagnostics=True))
        bp.descent.verify_trace(result)
        bp.descent.write_trace_csv(result, os.path.join(workdir, "warmup.csv"))
    smooth = bp.gen_instance(m=40, n=12, seed=0)
    bp.rates.predict_K(bp.parse_rule("nice:3", 12), bp.rates.FunctionClass(
        "general_nonconvex"), smooth, 1e-6, 1.0)
    os.remove(os.path.join(workdir, "warmup.csv"))


def one_pass(workload, seed, traced=False):
    rec = PassRecord(once=traced)
    rec.calibrate()
    state = rec.repeated("setup", "setup_s", lambda: workload.setup(seed))
    workload.keep_reference(state)
    rec.excluded_s = 0.0
    t1 = time.perf_counter()
    workload.work(state, seed, rec)
    # each repeated unit counts once, at its first call; calibration not at all
    rec.phase["wall_s"] = time.perf_counter() - t1 - rec.excluded_s
    return rec


def repeat(seconds, step):
    """Closed loop: call `step` again only if it should end in time."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return durations


def end_to_end(records) -> tuple[dict, float]:
    """The end-to-end metrics of a run's untraced passes, and the overall
    calibration scale (for the result file).

    Every timed call is scaled to the reference host speed by the
    calibration calls around it (NOTES.md). Set-up is the median scaled
    set-up; a phase is the sum of its units' median scaled calls and
    `wall_s` the sum over all units; an iteration cost weighs each rule's
    median scaled iteration (over its runs) by its iterations."""
    calibration = sorted(c for r in records for c in r.calibration)
    ends = [end for end, _ in calibration]

    def scale(start, end):
        reach = max(CALIBRATION_WINDOW_S, end - start)
        near = calibration[bisect.bisect_left(ends, start - reach):
                           bisect.bisect_right(ends, end + reach)] or calibration
        return CALIBRATION_REF_S / statistics.median(seconds for _, seconds in near)

    scaled, phase_of = defaultdict(list), {}
    for r in records:
        for key, calls in r.samples.items():
            scaled[key].extend(sec * scale(start, end) for sec, start, end in calls)
            phase_of[key] = r.unit_phase[key]
    unit = {key: statistics.median(times) for key, times in scaled.items()}
    values = {"setup_s": unit.pop("setup")}
    for phase in ("campaign_s", "rates_s", "check_s"):
        values[phase] = sum(t for key, t in unit.items() if phase_of[key] == phase)
    values["wall_s"] = sum(unit.values())
    rules = defaultdict(list)
    for r in records:
        for key, runs in r.iter_cost.items():
            rules[key].extend((kind, iters, per_iter * scale(start, end))
                              for kind, iters, per_iter, start, end in runs)
    for kind in ("coord", "block"):
        chosen = [(runs[0][1], statistics.median(p for _, _, p in runs))
                  for runs in rules.values() if runs[0][0] == kind]
        total = sum(iters for iters, _ in chosen)
        values[f"{kind}_iter_us"] = sum(i * p for i, p in chosen) / total * 1e6 if total else 0.0
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    overall = CALIBRATION_REF_S / statistics.median(seconds for _, seconds in calibration)
    return values, overall


def run_workload(args) -> int:
    bp = import_program()
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = environment(bp, args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    workload = WORKLOADS[args.workload](bp, workdir, short=args.short)
    warm_up(bp, workdir)
    untraced, traced = [], []
    extra = {}
    if not args.trace:
        durations = repeat(args.seconds,
                           lambda: untraced.append(one_pass(workload, args.seed)))
        metrics, scale = end_to_end(untraced)
        extra = {"calibration_scale": scale}
    else:
        tracer = tracing.Tracer()

        def untraced_then_traced():
            # adjacent in time, so the overhead ratio sees the same host speed
            untraced.append(one_pass(workload, args.seed))
            tracer.install(bp)
            try:
                traced.append(one_pass(workload, args.seed, traced=True))
            finally:
                tracer.uninstall()

        durations = repeat(args.seconds, untraced_then_traced)
        overhead = (statistics.median(r.phase["wall_s"] for r in traced)
                    / statistics.median(r.phase["wall_s"] for r in untraced))
        merged = tracer.merged()
        metrics = tracing.layer_metrics(merged, len(traced), overhead)
        spans_path = os.path.join(OUT, f"spans-{tag}.npz")
        tracer.dump(spans_path)
        extra = {"spans_file": spans_path, "spans": tracer.span_count,
                 "spans_dropped": merged["counters"]["trace.dropped_spans"]}

    units = metric_units(args.trace)
    records = untraced + traced
    attempted = sum(r.ops for r in records)
    failures = [f for r in records for f in r.failures]
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": units.get(name)}
                    for name, value in metrics.items()},
    }
    full = dict(result, environment=env, pass_seconds=durations, **extra,
                passes=[{"phase": dict(r.phase), "per_rule": r.per_rule, "ops": r.ops,
                         "samples": dict(r.samples), "iter_cost": dict(r.iter_cost),
                         "calibration": r.calibration, "failures": r.failures,
                         "traced": r in traced}
                        for r in records])
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(full, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(records)}  "
          f"ops {attempted}  ops_failed {len(failures)}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result), flush=True)
    return 0


def child(workload, seed, seconds, trace, short=False) -> dict:
    """Run one workload in its own process (so peak memory is its own) and
    return the JSON object it printed last; None if it failed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if short:
        cmd.append("--short")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
        return None
    sys.stdout.write("".join(line + "\n" for line in lines[1:-1]))
    return json.loads(lines[-1])


def run_all(args) -> int:
    results = {name: child(name, args.seed, args.seconds, args.trace)
               for name in WORKLOADS}
    print(json.dumps(results), flush=True)
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def smoke(args) -> int:
    """Every workload once, shortened, untraced and traced. Checks metric
    names against BENCHMARK.json and the paper_smooth layer invariants of
    the current code: three gradients and two objective values per
    iteration, and no prox calls on a smooth problem."""
    expected = {trace: set(metric_units(trace)) for trace in (0, 1)}
    checks = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = child(name, args.seed, 0, trace, short=True)
            label = f"{name} trace={trace}"
            if result is None:
                checks.append((f"{label} runs", False))
                continue
            metrics = result["metrics"]
            checks.append((f"{label} correct, {result['attempted']} ops",
                           result["correct"] and result["failed"] == 0))
            checks.append((f"{label} metric names match BENCHMARK.json",
                           set(metrics) == expected[trace]))
            checks.append((f"{label} metric names are [A-Za-z0-9_.-]+",
                           all(NAME_RE.fullmatch(m) for m in metrics)))
            if trace == 0:
                checks.append((f"{label} end-to-end values positive",
                               all(v["value"] > 0 for v in metrics.values())))
            if trace == 1 and name == "paper_smooth":
                value = {m: v["value"] for m, v in metrics.items()}
                checks.append(("paper_smooth objectives.grad_f.calls_per_iter ~ 3",
                               abs(value["objectives.grad_f.calls_per_iter"] - 3) < 0.05))
                checks.append(("paper_smooth objectives.F.calls_per_iter ~ 2",
                               abs(value["objectives.F.calls_per_iter"] - 2) < 0.05))
                checks.append(("paper_smooth objectives.reg.prox.calls == 0",
                               value["objectives.reg.prox.calls"] == 0))
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    ok = all(passed for _, passed in checks)
    print(json.dumps({"smoke": "PASS" if ok else "FAIL", "checks": len(checks)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="paper_smooth",
                        help="workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="shortened iteration budgets (used by --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once, shortened, and self-check")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
