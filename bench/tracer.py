"""In-memory span tracer for blockprox, installed from outside the package.

`Tracer.install` replaces selected blockprox functions and methods with
timing wrappers. A module-level function is replaced at every name in the
package that is bound to it, so calls made through `descent.select`,
`rates.enumerate_subsets` and the like are all seen. Each wrapped call
becomes a span (id, parent id, thread id, name, start, end, self time) kept
in per-thread columns; per-name totals are kept alongside, so the numbers
stay exact when the span store reaches its cap. High-frequency
per-coordinate callbacks are counted and timed without storing spans, and
generator functions are timed per item.

Self time is a span's duration minus the time its children (including
untraced leaves and generator steps) took in the same thread.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

COLUMNS = ("sid", "parent", "tid", "name", "t0", "t1", "self_ns")

# Spans stored at most; past it only the per-name totals grow.
MAX_SPANS = 1_000_000

# Spans whose start/end intervals are kept for interval arithmetic.
INTERVAL_NAMES = ("descent.run", "cli.cmd_run")

# (module, attribute, span name): module-level functions replaced at every
# name in the package bound to them.
FUNCTIONS = (
    ("objectives", "gen_instance", "objectives.gen_instance"),
    ("engine", "certificate", "engine.certificate"),
    ("engine", "block_step", "engine.block_step"),
    ("engine", "proportion", "engine.proportion"),
    ("engine", "forcing", "engine.forcing"),
    ("selection", "select", "selection.select"),
    ("selection", "exact_expected_theta", "selection.exact_expected_theta"),
    ("rates", "L_tau", "rates.L_tau"),
    ("rates", "expected_inverse_matrix", "rates.expected_inverse_matrix"),
    ("rates", "rule_constant", "rates.rule_constant"),
    ("rates", "predict_K", "rates.predict_K"),
    ("descent", "run", "descent.run"),
    ("descent", "empirical_optimum", "descent.empirical_optimum"),
    ("descent", "verify_trace", "descent.verify_trace"),
    ("descent", "write_trace_csv", "descent.write_trace_csv"),
    ("cli", "cmd_gen", "cli.cmd_gen"),
    ("cli", "cmd_run", "cli.cmd_run"),
    ("cli", "cmd_rates", "cli.cmd_rates"),
    ("cli", "run_check_suite", "cli.run_check_suite"),
)

# (module, class, method, span name, leaf): a leaf is counted and timed
# without storing a span per call.
METHODS = (
    ("objectives", "CompositeProblem", "F", "objectives.F", False),
    ("objectives", "CompositeProblem", "grad_f", "objectives.grad_f", False),
    ("objectives", "Objective", "factor_for", "objectives.factor_for", False),
    ("objectives", "L1Regularizer", "prox", "objectives.reg.prox", True),
    ("objectives", "L1Regularizer", "value_i", "objectives.reg.value_i", True),
)

GENERATORS = (
    ("linalg", "enumerate_subsets", "linalg.enumerate_subsets"),
)

PACKAGE_MODULES = ("", "objectives", "engine", "selection", "rates", "linalg",
                   "descent", "cli")


class _ThreadLog:
    """Everything one thread records; merged after the traced work ends."""

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[list[int]] = []  # open frames: [span id, child ns]
        self.in_run = 0
        self.cols = {name: array("q") for name in COLUMNS}
        self.stats = defaultdict(lambda: [0, 0, 0])  # name -> calls, total, self
        self.run_calls = defaultdict(int)  # calls made inside descent.run
        self.counters = defaultdict(float)
        self.intervals = defaultdict(list)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._stored = 0
        self._patches: list[tuple[object, str, object]] = []
        self._factor_keys: set = set()
        self._keep_alive: dict[int, object] = {}
        self._seen_rules: dict[int, object] = {}

    # -- recording ----------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            self._logs.append(log)
        return log

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str, hook=None):
        tracer = self
        nid = self._name_id(name)
        is_run = name == "descent.run"
        keep_interval = name in INTERVAL_NAMES
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = tracer._log()
            stack = log.stack
            parent = stack[-1][0] if stack else -1
            sid = next(tracer._ids)
            frame = [sid, 0]
            stack.append(frame)
            if log.in_run:
                log.run_calls[name] += 1
            if is_run:
                log.in_run += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if is_run:
                    log.in_run -= 1
                total = t1 - t0
                self_ns = total - frame[1]
                if stack:
                    stack[-1][1] += total
                entry = log.stats[name]
                entry[0] += 1
                entry[1] += total
                entry[2] += self_ns
                if keep_interval:
                    log.intervals[name].append((t0, t1))
                tracer._store(log, sid, parent, nid, t0, t1, self_ns)
            if hook is not None:
                hook(log, args, result, total, self_ns)
            return result

        return wrapper

    def _wrap_leaf(self, fn, name: str):
        """Count and time a per-coordinate callback without a span; kept
        lean because it runs hundreds of times per certificate."""
        tracer = self
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            log = getattr(local, "log", None) or tracer._log()
            entry = log.stats[name]
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt
            if log.stack:
                log.stack[-1][1] += dt
            if log.in_run:
                log.run_calls[name] += 1
            return result

        return wrapper

    def _store(self, log, sid, parent, nid, t0, t1, self_ns):
        # the shared count is only a memory budget: threads may race on it
        if self._stored >= MAX_SPANS:
            log.counters["trace.dropped_spans"] += 1
            return
        self._stored += 1
        cols = log.cols
        cols["sid"].append(sid)
        cols["parent"].append(parent)
        cols["tid"].append(log.tid)
        cols["name"].append(nid)
        cols["t0"].append(t0)
        cols["t1"].append(t1)
        cols["self_ns"].append(self_ns)

    def _wrap_generator(self, fn, name: str):
        tracer = self
        clock = time.perf_counter_ns

        def steps(gen):
            log = tracer._log()
            entry = log.stats[name]
            entry[0] += 1
            while True:
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    entry[1] += dt
                    entry[2] += dt
                    if log.stack:
                        log.stack[-1][1] += dt
                log.counters[name + ".yielded"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return wrapper

    # -- hooks for counts that need the call's arguments or result ----------

    def _on_run(self, log, args, result, total, self_ns):
        log.counters["descent.run.iterations"] += len(result.trace)

    def _on_select(self, log, args, result, total, self_ns):
        rule = args[0]
        tag = rule.name.split(":")[0]
        log.counters[f"selection.select.{tag}.calls"] += 1
        log.counters[f"selection.select.{tag}.self_ns"] += self_ns
        if rule.kind == "greedy_minibatch":
            log.counters["selection.select.greedymb.heuristic"] += rule.last_was_heuristic
            if id(rule) not in self._seen_rules:
                self._seen_rules[id(rule)] = rule
                log.counters["selection.select.first_call_ns"] += total

    def _on_factor(self, log, args, result, total, self_ns):
        objective, indices = args[0], args[1]
        self._keep_alive[id(objective)] = objective  # ids stay unique
        self._factor_keys.add((id(objective), indices))

    def _on_csv(self, log, args, result, total, self_ns):
        log.counters["descent.write_trace_csv.bytes"] += os.path.getsize(args[1])

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the traced functions of an imported blockprox package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [package] + [getattr(package, m) for m in PACKAGE_MODULES if m]
        hooks = {"descent.run": self._on_run, "selection.select": self._on_select,
                 "descent.write_trace_csv": self._on_csv,
                 "objectives.factor_for": self._on_factor}

        def replace_everywhere(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

        for mod, attr, name in FUNCTIONS:
            original = getattr(getattr(package, mod), attr)
            replace_everywhere(original, self._wrap(original, name, hooks.get(name)))
        for mod, attr, name in GENERATORS:
            original = getattr(getattr(package, mod), attr)
            replace_everywhere(original, self._wrap_generator(original, name))
        for mod, cls_name, attr, name, leaf in METHODS:
            cls = getattr(getattr(package, mod), cls_name)
            original = vars(cls)[attr]
            wrapper = (self._wrap_leaf(original, name) if leaf
                       else self._wrap(original, name, hooks.get(name)))
            self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def merged(self) -> dict:
        """Per-name totals, run-nested call counts, counters and intervals,
        summed over threads."""
        stats = defaultdict(lambda: [0, 0, 0])
        run_calls = defaultdict(int)
        counters = defaultdict(float)
        intervals = defaultdict(list)
        for log in self._logs:
            for name, (calls, total, self_ns) in log.stats.items():
                entry = stats[name]
                entry[0] += calls
                entry[1] += total
                entry[2] += self_ns
            for name, calls in log.run_calls.items():
                run_calls[name] += calls
            for name, value in log.counters.items():
                counters[name] += value
            for name, spans in log.intervals.items():
                intervals[name].extend(spans)
        counters["objectives.factor_for.distinct"] = len(self._factor_keys)
        return {"stats": stats, "run_calls": run_calls, "counters": counters,
                "intervals": intervals}

    @property
    def span_count(self) -> int:
        return sum(len(log.cols["sid"]) for log in self._logs)

    def dump(self, path) -> None:
        """Write every stored span as columns of one compressed npz file."""
        columns = {name: np.concatenate(
            [np.frombuffer(log.cols[name], dtype=np.int64) for log in self._logs]
            or [np.zeros(0, dtype=np.int64)]) for name in COLUMNS}
        np.savez_compressed(path, names=np.array(self.names), **columns)


def uncovered_ns(outer: list, inner: list) -> int:
    """Total length of the `outer` intervals not covered by the union of the
    `inner` intervals (which may come from any thread)."""
    total = 0
    for a, b in outer:
        clipped = sorted((max(s, a), min(e, b)) for s, e in inner if s < b and e > a)
        covered, cur_s, cur_e = 0, None, None
        for s, e in clipped:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        total += (b - a) - covered
    return total


def layer_metrics(merged: dict, passes: int, overhead_ratio: float) -> dict:
    """Per-layer values, averaged per traced pass. A ratio whose base is zero
    (the layer did no work on this workload) reads 0; its base is reported
    beside it."""
    stats, run_calls = merged["stats"], merged["run_calls"]
    counters, intervals = merged["counters"], merged["intervals"]
    iters = counters["descent.run.iterations"]

    def calls(name):
        return stats[name][0] if name in stats else 0

    def total_s(name):
        return (stats[name][1] if name in stats else 0) / 1e9 / passes

    def self_s(name):
        return (stats[name][2] if name in stats else 0) / 1e9 / passes

    def ratio(num, den):
        return num / den if den else 0.0

    def self_us(name):
        return ratio(stats[name][2] / 1e3, calls(name)) if name in stats else 0.0

    gmb_calls = counters["selection.select.greedymb.calls"]
    values = {
        "objectives.grad_f.calls_per_iter": ratio(run_calls["objectives.grad_f"], iters),
        "objectives.grad_f.self_us": self_us("objectives.grad_f"),
        "objectives.F.calls_per_iter": ratio(run_calls["objectives.F"], iters),
        "objectives.F.self_us": self_us("objectives.F"),
        "objectives.factor_for.calls": calls("objectives.factor_for") / passes,
        "objectives.factor_for.self_s": self_s("objectives.factor_for"),
        "objectives.factor_for.distinct_ratio": ratio(
            counters["objectives.factor_for.distinct"], calls("objectives.factor_for")),
        "objectives.reg.prox.calls": calls("objectives.reg.prox") / passes,
        "objectives.reg.value_i.calls": calls("objectives.reg.value_i") / passes,
        "objectives.reg.self_s": (self_s("objectives.reg.prox")
                                  + self_s("objectives.reg.value_i")),
        "objectives.gen_instance.s": total_s("objectives.gen_instance"),
        "engine.certificate.calls_per_iter": ratio(run_calls["engine.certificate"], iters),
        "engine.certificate.self_us": self_us("engine.certificate"),
        "engine.block_step.self_us": self_us("engine.block_step"),
        "engine.proportion.calls": calls("engine.proportion") / passes,
        "engine.proportion.self_s": self_s("engine.proportion"),
        "selection.select.greedymb.self_us": ratio(
            counters["selection.select.greedymb.self_ns"] / 1e3, gmb_calls),
        "selection.select.first_call_s":
            counters["selection.select.first_call_ns"] / 1e9 / passes,
        "selection.select.heuristic_ratio": ratio(
            counters["selection.select.greedymb.heuristic"], gmb_calls),
        "selection.exact_expected_theta.self_s": self_s("selection.exact_expected_theta"),
        "rates.L_tau.calls": calls("rates.L_tau") / passes,
        "rates.L_tau.self_s": self_s("rates.L_tau"),
        "rates.expected_inverse_matrix.self_s": self_s("rates.expected_inverse_matrix"),
        "rates.predict_K.calls": calls("rates.predict_K") / passes,
        "linalg.enumerate_subsets.yielded":
            counters["linalg.enumerate_subsets.yielded"] / passes,
        "linalg.enumerate_subsets.self_s": self_s("linalg.enumerate_subsets"),
        "descent.run.self_us_per_iter": ratio(
            (stats["descent.run"][2] if "descent.run" in stats else 0) / 1e3, iters),
        "descent.empirical_optimum.s": total_s("descent.empirical_optimum"),
        "descent.verify_trace.self_s": self_s("descent.verify_trace"),
        "descent.write_trace_csv.self_s": self_s("descent.write_trace_csv"),
        "descent.write_trace_csv.bytes":
            counters["descent.write_trace_csv.bytes"] / passes,
        "cli.cmd_run.s": total_s("cli.cmd_run"),
        "cli.cmd_run.uncovered_s": uncovered_ns(
            intervals["cli.cmd_run"], intervals["descent.run"]) / 1e9 / passes,
        "cli.cmd_rates.s": total_s("cli.cmd_rates"),
        "cli.run_check_suite.s": total_s("cli.run_check_suite"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
