"""The benchmark's workloads. Each one sets up its inputs from a seed, then
drives blockprox the way a user does (library calls as in the README quick
start, commands through `cli.main`) and checks every output it gets back.

Why each workload exists, and which layer it is meant to stress, is written
in NOTES.md beside this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

# Tolerance for F(x_final) recomputed with plain numpy against the value the
# solver reports, relative to the larger of |F(x_final)| and |F(0)|; catches
# drift in incrementally maintained state.
F_RTOL = 1e-9

# In an untraced pass a unit of work that takes milliseconds is repeated
# until its calls add up to REPEAT_S seconds, at most MAX_REPEATS times, so
# that a run holds many samples of it.
REPEAT_S = 0.2
MAX_REPEATS = 25

# L1 weight as a share of ||grad f(0)||_inf: large enough to zero out about a
# quarter of the coordinates at the optimum, small enough that x = 0 is not
# already optimal.
L1_SHARE = 0.2


# The calibration kernel runs CALIBRATION_CALLS times between two units of
# work, at most once per CALIBRATION_GAP_S seconds.
CALIBRATION_CALLS = 3
CALIBRATION_GAP_S = 0.05

_CAL_RNG = np.random.default_rng(12345)
_CAL_A = _CAL_RNG.standard_normal((1000, 100))
_CAL_M = _CAL_RNG.standard_normal((40, 12))


def calibration_kernel() -> float:
    """A fixed mix like the workloads' own, independent of blockprox: large
    and small matrix-vector products and interpreter work. Its time tracks
    the host's current speed."""
    acc, seen = 0.0, {}
    x = np.zeros(100)
    for i in range(10):
        r = _CAL_A @ x - 1.0
        g = _CAL_A.T @ r / 1000.0
        x[i * 7 % 100] -= 0.1 * g[i * 7 % 100]
    y = np.zeros(12)
    for i in range(150):
        w = _CAL_M @ y - 1.0
        y[i % 12] -= 0.01 * float(_CAL_M[:, i % 12] @ w)
        acc += float(w[i % 40])
        seen[i % 17] = acc
        sorted(seen.values())
    return acc


class PassRecord:
    """Timings, iteration costs and checked operations of one pass.

    Every timed unit of work (one rule run with its CSV, one `verify_trace`,
    one rates row, one command) keeps each of its calls, as (seconds, start,
    end), under its own key with the phase it belongs to; calibration calls
    run between units. run.py turns these into the end-to-end metrics. A
    traced pass (`once`) calls every unit once and does not calibrate, so
    that its layer counts do not depend on how many repeats fit."""

    def __init__(self, once: bool = False):
        self.once = once
        self.excluded_s = 0.0  # repeats beyond a unit's first call, calibration
        self.phase = defaultdict(float)  # seconds per phase, each unit once
        self.samples = defaultdict(list)  # unit key -> (seconds, start, end) per call
        self.unit_phase = {}  # unit key -> phase
        self.calibration: list[tuple] = []  # (end, seconds) per calibration call
        self._last_calibration = float("-inf")
        # rule key -> (kind, iterations, median s per iteration, start, end) per run
        self.iter_cost = defaultdict(list)
        self.per_rule = {}
        self.ops = 0
        self.failures: list[str] = []

    def sample(self, key: str, phase: str, seconds: float, start: float, end: float):
        self.samples[key].append((seconds, start, end))
        self.unit_phase[key] = phase
        self.calibrate()

    def calibrate(self) -> None:
        """Time CALIBRATION_CALLS calls of the calibration kernel between
        units of work, at most once per CALIBRATION_GAP_S (untraced passes
        only)."""
        start = time.perf_counter()
        if self.once or start - self._last_calibration < CALIBRATION_GAP_S:
            return
        for _ in range(CALIBRATION_CALLS):
            t0 = time.perf_counter()
            calibration_kernel()
            t1 = time.perf_counter()
            self.calibration.append((t1, t1 - t0))
        self._last_calibration = time.perf_counter()
        self.excluded_s += self._last_calibration - start

    def op(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failures.append(what)
            print(f"failed op: {what}", file=sys.stderr)

    @contextlib.contextmanager
    def guarded(self, what: str):
        """One operation whose exception counts as a failure, not a crash."""
        try:
            yield
        except Exception:  # noqa: BLE001 - every failure is reported as an op
            traceback.print_exc()
            self.op(False, f"{what}: raised")

    def repeated(self, key: str, phase: str, fn, check=None, budget=REPEAT_S):
        """Call `fn` until its calls add up to `budget` seconds, at most
        MAX_REPEATS times, or once if the pass is `once`. Every call is a
        sample of unit `key`, and `check(result, start, end)` checks each
        call's result outside the timing. The phase counts the first call
        only. Returns the first call's result."""
        times, first = [], None
        while True:
            t0 = time.perf_counter()
            out = fn()
            t1 = time.perf_counter()
            times.append(t1 - t0)
            self.sample(key, phase, t1 - t0, t0, t1)
            if check is not None:
                check(out, t0, t1)
            if len(times) == 1:
                first = out
            if self.once or sum(times) >= budget or len(times) >= MAX_REPEATS:
                break
        self.phase[phase] += times[0]
        self.excluded_s += sum(times) - times[0]
        return first

    def add_iters(self, kind: str, rule_key: str, ns: list, start: float, end: float):
        """Per-iteration times of one run, kept as their median: robust to
        the odd iteration that also holds a wait for the interpreter lock
        or a one-off cost such as building a selection table."""
        if ns:
            self.iter_cost[rule_key].append(
                (kind, len(ns), statistics.median(ns) / 1e9, start, end))
            self.per_rule[rule_key] = {"iters": len(ns), "ns_sum": sum(ns)}


def is_serial(rule) -> bool:
    """Serial rules update one coordinate per iteration; the others (full
    batch and the minibatch rules) update a block."""
    return rule.max_block_size == 1


def instance_arrays(bp, problem, workdir):
    """A, b, c and the L1 weight of a generated instance, read back through
    the public serialization rather than the problem's attributes."""
    path = os.path.join(workdir, "instance_check.json")
    bp.objectives.save_instance(problem, path)
    with open(path) as fh:
        payload = json.load(fh)
    os.remove(path)
    A = np.array(payload["A"], dtype=float).reshape(payload["m"], payload["n"])
    return A, np.array(payload["b"]), np.array(payload["c"]), float(payload["lambda"])


def numpy_F(arrays, x):
    """F(x) = ||Ax - b||^2 / (2m) + cos(<c, x>) / m + lambda ||x||_1."""
    A, b, c, lam = arrays
    m = A.shape[0]
    r = A @ x - b
    return 0.5 / m * float(r @ r) + np.cos(float(c @ x)) / m + lam * float(np.abs(x).sum())


def l1_weight(bp, m, n, seed):
    """L1 weight from the gradient at the starting point x = 0."""
    smooth = bp.gen_instance(m=m, n=n, seed=seed)
    return L1_SHARE * float(np.abs(smooth.grad_f(np.zeros(n))).max())


class Workload:
    name = ""
    # iteration budgets are divided by this in the shortened (smoke) mode
    short_factor = 10

    def __init__(self, bp, workdir: str, short: bool = False):
        self.bp = bp
        self.workdir = workdir
        self.short = short
        self.arrays = {}

    def iters(self, full: int) -> int:
        return max(full // self.short_factor, 2) if self.short else full

    def setup(self, seed: int):
        raise NotImplementedError

    def keep_reference(self, state) -> None:
        """Untimed: keep what the output checks need from the inputs."""

    def work(self, state, seed: int, rec: PassRecord) -> None:
        raise NotImplementedError

    # -- shared steps -------------------------------------------------------

    def campaign_run(self, problem, key, spec, j, seed, iters, rec, l1=False,
                     expect_heuristic=None):
        """One diagnostics-on run, audited, written to CSV and checked."""
        bp = self.bp
        with rec.guarded(f"run {spec}"):
            rule = bp.parse_rule(spec, problem.dim, default_seed=seed + j)
            cfg = bp.descent.RunConfig(max_iters=iters, record_diagnostics=True)
            start = time.perf_counter()
            result = bp.descent.run(problem, rule, cfg)
            run_end = time.perf_counter()
            report = rec.repeated(f"verify {key}:{spec}", "check_s",
                                  lambda: bp.descent.verify_trace(result))
            t0 = time.perf_counter()
            path = os.path.join(self.workdir, f"trace_{key}_{spec.replace(':', '_')}.csv")
            bp.descent.write_trace_csv(result, path)
            end = time.perf_counter()
            run_s = run_end - start + end - t0
            rec.phase["campaign_s"] += run_s
            rec.add_iters("coord" if is_serial(rule) else "block", f"{key}:{spec}",
                          [r.elapsed_ns for r in result.trace], start, run_end)
            rec.sample(f"run {key}:{spec}", "campaign_s", run_s, start, end)

            problems = []
            if not report.all_passed:
                problems.append("verify_trace failed")
            if len(result.trace) != iters or result.termination != "exhausted_iters":
                problems.append(f"stopped after {len(result.trace)} iterations "
                                f"({result.termination})")
            F_ref = numpy_F(self.arrays[key], result.x)
            F_0 = numpy_F(self.arrays[key], np.zeros_like(result.x))
            if abs(F_ref - result.final_F) > F_RTOL * max(abs(F_ref), abs(F_0)):
                problems.append(f"final_F {result.final_F!r} != numpy {F_ref!r}")
            if l1 and not (np.any(result.x != 0)
                           and result.final_xi < result.trace[0].xi):
                problems.append("degenerate: iterate stayed at 0 or gap did not shrink")
            heuristic = any(r.heuristic for r in result.trace)
            if expect_heuristic is not None and heuristic != expect_heuristic:
                problems.append(f"heuristic selection flag is {heuristic}")
            rec.op(not problems, f"run {key}:{spec}: {'; '.join(problems)}")

    def rates_table(self, problem, specs, classes, seed, rec):
        """predict_K for every rule x class, each row a unit (repeated if it
        takes milliseconds); pairs without a published bound must stay
        refused, and every other pair must give a positive K."""
        bp = self.bp
        xi0 = problem.xi(np.zeros(problem.dim))
        eps = 1e-6 * xi0
        for j, spec in enumerate(specs):
            for fclass in classes:
                what = f"rates {spec}/{fclass.kind}"
                rec.repeated(what, "rates_s", lambda: self._rates_row(
                    problem, spec, j, fclass, seed, eps, xi0, what, rec))

    def _rates_row(self, problem, spec, j, fclass, seed, eps, xi0, what, rec):
        bp = self.bp
        rule = bp.parse_rule(spec, problem.dim, default_seed=seed + j)
        must_refuse = (rule.kind == "cyclic_coord"
                       or (fclass.kind == "gradient_dominated"
                           and rule.kind != "full_batch"))
        with rec.guarded(what):
            try:
                bound = bp.rates.predict_K(rule, fclass, problem, eps, xi0)
                K = bound.K(eps)
                ok = (not must_refuse and isinstance(K, int) and K >= 1
                      and bound.constant > 0)
                rec.op(ok, f"{what}: K={K}")
            except bp.rates.NoGuaranteeError:
                rec.op(must_refuse, f"{what}: refused")


class PaperCampaign(Workload):
    """m=1000, n=100 campaign with every cheap rule, then the rates table."""

    M, N, ITERS = 1000, 100, 400
    # the smoke invariants allow per-run calls of 0.05 per iteration
    short_factor = 4
    l1 = False
    specs: tuple = ()

    def setup(self, seed):
        bp = self.bp
        lam = l1_weight(bp, self.M, self.N, seed) if self.l1 else 0.0
        problem = bp.gen_instance(m=self.M, n=self.N, seed=seed, lam=lam)
        bp.descent.empirical_optimum(problem)
        return problem

    def keep_reference(self, problem):
        if "main" not in self.arrays:
            self.arrays["main"] = instance_arrays(self.bp, problem, self.workdir)

    def work(self, problem, seed, rec):
        bp = self.bp
        for j, spec in enumerate(self.specs):
            self.campaign_run(problem, "main", spec, j, seed, self.iters(self.ITERS),
                              rec, l1=self.l1)
        classes = [bp.rates.FunctionClass("general_nonconvex"),
                   bp.rates.FunctionClass("gradient_dominated", c=1.0, p=1.0)]
        self.rates_table(problem, self.specs, classes, seed, rec)


class PaperSmooth(PaperCampaign):
    name = "paper_smooth"
    specs = ("full", "uniform", "importance", "greedy", "cyclic", "nice:8")


class PaperL1(PaperCampaign):
    name = "paper_l1"
    l1 = True
    specs = ("full", "uniform", "greedy", "cyclic", "nice:8", "greedymb:8")


class EnumGreedy(Workload):
    """m=200, n=32: exact greedy minibatch tables, the forward-greedy
    heuristic, L_tau by enumeration and exact expected inverses."""

    name = "enum_greedy"
    M, N = 200, 32
    short_factor = 5
    # spec -> iterations; `greedy` is a serial control whose cost is matvecs
    SMOOTH = (("greedy", 2000), ("greedymb:4", 40), ("greedymb:8", 40))
    L1 = (("nice:4", 40),)

    def setup(self, seed):
        bp = self.bp
        smooth = bp.gen_instance(m=self.M, n=self.N, seed=seed)
        bp.descent.empirical_optimum(smooth)
        lam = l1_weight(bp, self.M, self.N, seed)
        l1 = bp.gen_instance(m=self.M, n=self.N, seed=seed, lam=lam)
        bp.descent.empirical_optimum(l1)
        return smooth, l1

    def keep_reference(self, state):
        if "smooth" not in self.arrays:
            self.arrays["smooth"] = instance_arrays(self.bp, state[0], self.workdir)
            self.arrays["l1"] = instance_arrays(self.bp, state[1], self.workdir)

    def work(self, state, seed, rec):
        bp = self.bp
        smooth, l1 = state
        for j, (spec, iters) in enumerate(self.SMOOTH):
            expect = None
            if spec.startswith("greedymb:"):
                # C(32,4) fits the enumeration budget, C(32,8) does not
                tau = int(spec.split(":")[1])
                expect = bp.linalg.subset_count(self.N, tau) > bp.linalg.DEFAULT_ENUMERATION_BUDGET
            self.campaign_run(smooth, "smooth", spec, j, seed, self.iters(iters), rec,
                              expect_heuristic=expect)
        for j, (spec, iters) in enumerate(self.L1):
            self.campaign_run(l1, "l1", spec, j, seed, self.iters(iters), rec, l1=True)
        classes = [bp.rates.FunctionClass("general_nonconvex")]
        self.rates_table(smooth, ("nice:4", "greedymb:4"), classes, seed, rec)


CLI_RULES = ("full", "uniform", "importance", "greedy", "cyclic", "nice:3", "greedymb:3")
CHECK_LINES = 14
# The `run` command is repeated until its calls add up to this many seconds,
# so that a run holds several samples of it beside the long `check`.
RUN_REPEAT_S = 1.0
# `check` generates its own small problems from its seed, and its cost moves
# with that seed (11 s to 71 s), so it always runs with this one.
CHECK_SEED = 1


class CliSmall(Workload):
    """gen, run, rates and check through `cli.main` at m=40, n=12."""

    name = "cli_small"
    ITERS = 600

    def _config(self, name, problem_lines, out_dir):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write("[problem]\n" + "".join(f"{line}\n" for line in problem_lines))
            fh.write(f"[rules]\nrules = {', '.join(CLI_RULES)}\n")
            fh.write(f"[run]\nmax_iters = {self.iters(self.ITERS)}\ndiagnostics = true\n")
            fh.write(f"[output]\ndir = {out_dir}\n")
        return path

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.bp.cli.main(argv)
        return code, out.getvalue()

    def setup(self, seed):
        gen_dir = os.path.join(self.workdir, "gen")
        cfg = self._config("gen.ini", ["kind = generated", "m = 40", "n = 12"], gen_dir)
        code, out = self._main(["--seed", str(seed), "gen", cfg])
        return code, out.strip()

    def work(self, state, seed, rec):
        gen_code, instance = state
        rec.op(gen_code == 0 and self._instance_ok(instance), f"gen: exit {gen_code}")
        out_dir = os.path.join(self.workdir, "run")
        cfg = self._config("run.ini", [f"instance = {instance}"], out_dir)
        args = ["--seed", str(seed)]

        # each invocation loads the instance afresh, so repeats share no
        # cache; every repeat's output is checked
        with rec.guarded("cli run"):
            rec.repeated("cli run", "campaign_s", lambda: self._main(args + ["run", cfg]),
                         check=lambda out, t0, t1: self._check_run_outputs(
                             out[0], out_dir, rec, t0, t1),
                         budget=RUN_REPEAT_S)

        with rec.guarded("cli rates"):
            rec.repeated("cli rates", "rates_s",
                         lambda: self._main(args + ["rates", cfg, "--format", "csv"]),
                         check=lambda out, t0, t1: self._check_rates_output(*out, rec))

        with rec.guarded("cli check"):
            code, out = rec.repeated("cli check", "check_s", lambda: self._main(
                ["--seed", str(CHECK_SEED), "check", cfg]))
            lines = out.splitlines()
            ok = (code == 0 and len(lines) == CHECK_LINES
                  and all(line.startswith("PASS") for line in lines))
            rec.op(ok, f"check: exit {code}, {len(lines)} lines, "
                       f"{sum(not line.startswith('PASS') for line in lines)} not PASS")

    def _check_rates_output(self, code, out, rec):
        rec.op(code == 0, f"rates: exit {code}")
        rows = list(csv.DictReader(io.StringIO(out)))
        rec.op([r["rule"] for r in rows] == list(CLI_RULES), "rates: rule rows")
        for row in rows:
            if row["rule"] == "cyclic":
                rec.op(row["constant"] == "" and not row["K"].isdigit(),
                       "rates cyclic: not refused")
            else:
                rec.op(row["K"].isdigit() and int(row["K"]) >= 1,
                       f"rates {row['rule']}: K={row['K']}")

    def _instance_ok(self, path):
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return False
        return payload["m"] == 40 and payload["n"] == 12 and len(payload["A"]) == 480

    def _check_run_outputs(self, code, out_dir, rec, start, end):
        """Every rule verified, ran its budget, and wrote a matching trace.

        Per-iteration times come from the traces' own ns column. The runs
        share `cmd_run`'s thread pool, so some iterations also hold the wait
        for the interpreter lock; their median leaves those out."""
        rec.op(code == 0, f"run: exit {code}")
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        runs = {entry["rule"]: entry for entry in report["runs"]}
        iters = self.iters(self.ITERS)
        bp = self.bp
        for spec in CLI_RULES:
            entry = runs.get(spec, {"error": "missing"})
            problems = []
            if "error" in entry:
                problems.append(entry["error"])
            else:
                if not entry.get("verified"):
                    problems.append("not verified")
                with open(entry["trace"]) as fh:
                    ns = [int(row["ns"]) for row in csv.DictReader(fh)]
                if len(ns) != iters or entry["iterations"] != iters:
                    problems.append(f"{len(ns)} trace rows, {entry['iterations']} iterations")
                rule = bp.parse_rule(spec, 12)
                rec.add_iters("coord" if is_serial(rule) else "block", spec, ns,
                              start, end)
            rec.op(not problems, f"run {spec}: {'; '.join(problems)}")


WORKLOADS = {cls.name: cls for cls in (PaperSmooth, PaperL1, EnumGreedy, CliSmall)}
