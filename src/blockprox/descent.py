"""Iteration driver: the block descent loop, stopping logic, the trace, and
trace verification against the one-step descent inequality.

A run resolves its rule's kind and its problem's path once: it selects by
the function `selection.picker` builds and steps by the one `engine.stepper`
builds, the code behind the public `select` and `block_step`.  A serial
step reads one gradient entry g_i, a Python float, and its u is a Python
float from the step to `IterateState.move_coordinate` and the step norm.
A serial rule that selects without the gradient, in a run that holds no
certificate, reads g_i alone (`IterateState.grad_entry`): its steps form no
gradient vector.

A run keeps its trace as columns (`Trace`): one float64 array per recorded
quantity, int64 step times, a bool heuristic flag and the list of selected
sets, appended to as the loop goes.  A diagnostics run whose steps do not
read the certificate keeps what forms each iterate's gradient
(`IterateState.gradient_chunk`) and fills its `lam` column a chunk of
iterates at a time (`engine.certificate_totals`), with the bits of a
certificate per iterate; on the prox path the same pass takes the block
decreases of steps of two or more coordinates, which form none.
Rows are `IterationRecord` views of Python scalars, built on read.  The
audit and the CSV writer read the columns, so an audit is a few numpy
operations per column.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg.blas import ddot

from . import engine, linalg, rates, selection
from .linalg import CoordSet
from .objectives import CompositeProblem
from .selection import BlockRule

STOP_MODES = ("iters", "gap", "certificate")


class NumericFailureError(RuntimeError):
    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = iterate


class UnverifiableError(ValueError):
    pass


@dataclass
class RunConfig:
    max_iters: int
    epsilon: float = 1e-8
    x0: Optional[np.ndarray] = None
    record_diagnostics: bool = False
    stop_on: str = "iters"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.stop_on not in STOP_MODES:
            raise ValueError(f"stop_on must be one of {STOP_MODES}")


class IterationRecord(NamedTuple):
    """One row of a trace, as Python scalars, built by `Trace` on read: a
    copy of the columns' values, so it cannot be assigned to."""

    k: int
    block: CoordSet
    F: float
    xi: Optional[float]
    lam: Optional[float]
    mu: Optional[float]
    theta: Optional[float]
    step_norm: float
    elapsed_ns: int
    heuristic: bool = False


@dataclass(eq=False)
class Trace:
    """A run's trace as columns, row k of each being iteration k: float64
    arrays `F`, `xi`, `lam`, `mu`, `theta` and `step_norm`, int64
    `elapsed_ns`, bool `heuristic`, and the list of selected `blocks`.  A
    column absent for the whole run is None: `xi` without an optimum, `lam`
    without a certificate, `mu` and `theta` without diagnostics.

    `len`, iteration, `trace[k]` (negative k counting from the end) and
    slices give the rows as `IterationRecord`s of Python scalars."""

    blocks: list[CoordSet]
    F: np.ndarray
    xi: Optional[np.ndarray]
    lam: Optional[np.ndarray]
    mu: Optional[np.ndarray]
    theta: Optional[np.ndarray]
    step_norm: np.ndarray
    elapsed_ns: np.ndarray
    heuristic: np.ndarray

    def _columns(self) -> tuple:
        """The columns in `IterationRecord` field order, after k and block."""
        return (self.F, self.xi, self.lam, self.mu, self.theta, self.step_norm,
                self.elapsed_ns, self.heuristic)

    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, k):
        """Row k, or the list of the rows a slice picks."""
        k = range(len(self.blocks))[k]  # IndexError past either end
        if isinstance(k, range):
            return [self[i] for i in k]
        return IterationRecord(k, self.blocks[k], *(
            None if column is None else column.item(k) for column in self._columns()))

    def __iter__(self):
        n = len(self.blocks)
        return map(IterationRecord, range(n), self.blocks, *(
            repeat(None, n) if column is None else column.tolist()
            for column in self._columns()))


@dataclass
class RunResult:
    x: np.ndarray
    trace: Trace
    # reached_gap | reached_certificate | stagnated | exhausted_iters; a
    # full-batch run under stop_on "certificate" stagnates at a step that
    # lowered F by less than 1e-16 (1 + |F|)
    termination: str
    final_F: float
    final_xi: Optional[float]
    final_lambda: Optional[float]
    rule_name: str
    L_used: Optional[float]
    # "exact" or "trace_bound" (see BlockSmoothness); None on the smooth path
    L_used_source: Optional[str] = None


def _finite_gradient(grad: np.ndarray) -> bool:
    """Whether every entry of grad is finite.  One BLAS dot decides it: a sum
    of squares is finite only when every entry is (no inf - inf can arise).
    Entries are tested one by one only when the dot is not finite, so a
    finite gradient whose squared norm overflows passes.  scipy's `ddot`
    is the BLAS call without numpy's floating-point error check, so no
    overflow warning fires either."""
    return math.isfinite(ddot(grad, grad)) or bool(np.isfinite(grad).all())


def _l1_after_move(reg, x: np.ndarray, serial: bool):
    """g = lam ||x||_1 at the iterate a move leads to, as a function
    `g_after(x, x_next, S)` of the iterates before and after the move by the
    set S.  After a block move it is `reg.value(x_next)`.  A serial run keeps
    ||x||_1 as a running Python float instead: a move of coordinate i adds
    |x_next_i| - |x_i| to it, and every n-th move retakes it from x_next
    with the bits of `reg.value`, so g costs O(1) between retakes and drifts
    by rounding only within n moves."""
    if not serial:
        value = reg.value
        return lambda x, x_next, S: value(x_next)
    weight, n = reg.lam, len(x)
    norm1, moves = float(np.abs(x).sum()), 0

    def g_after(x, x_next, S):
        nonlocal norm1, moves
        moves += 1
        if moves == n:
            norm1, moves = float(np.abs(x_next).sum()), 0
        else:
            i = S.indices[0]
            norm1 += abs(x_next.item(i)) - abs(x.item(i))
        return weight * norm1

    return g_after


def run(problem: CompositeProblem, rule: BlockRule, cfg: RunConfig) -> RunResult:
    """Block descent from x0 under `rule`.

    f and the gradient come from the objective's iterate state: f once per
    iterate, the gradient at most once, shared by the certificate, the
    selection, the step and the diagnostics.  The selection and step
    functions are built once, before the first step (`selection.picker`,
    which refuses a rule the path does not offer, and `engine.stepper`); a
    serial step hands its u, a Python float, to
    `IterateState.move_coordinate`, and a block step hands the rows of M it
    gathered, if any, to the state's M x update.

    A serial step reads the one gradient entry g_i.  The loop forms the
    gradient vector where something reads it: greedy selection, a
    certificate, a block step.  Otherwise (`uniform`, `importance`,
    `cyclic`, `nice:1` without a certificate) it selects first and reads
    `IterateState.grad_entry(i)` alone.  The finite-gradient guard covers
    what is read: the whole gradient where it is formed, else g_i; a
    serial step whose u is not finite ends the run as an objective that is
    not finite, before the move.

    F is f from the state plus g = lam ||x||_1.  A block run takes g from x
    after every move (`L1Regularizer.value`).  A serial run keeps ||x||_1 as
    a running Python float: each move adds |x_next_i| - |x_i| for its
    coordinate i, and every n-th move retakes the norm from x with
    `L1Regularizer.value`'s bits, so F, xi and mu drift from f + g(x) by
    rounding within n moves only.  The smooth path adds g's 0.0.

    The loop computes `engine.certificate` only where it reads it: under
    stop_on "certificate" and for a greedy rule on the prox path (which
    selects by lambda_i); such a run's block steps read their step and
    decrease off it, so the prox model is evaluated once per iterate.  A
    prox-path block step without a certificate (`full`, `nice:tau`) computes
    only its prox step on S and forms no decrease.  Any other diagnostics
    run keeps what forms each iterate's gradient
    (`IterateState.gradient_chunk`), and x on the prox path, in a chunk of
    rows within `linalg.SUBSET_CHUNK_BYTES`; the chunk's gradients are
    formed at once and `engine.certificate_totals` takes their lambda
    totals in one pass, and on the prox path the block decreases of the
    rows' blocks, outside the steps' timers (`elapsed_ns` times the step:
    the gradient or its entry and its guard, any certificate, the copy into
    the chunk, the selection, the step, the move and f).  Each step appends
    to the trace's columns; xi, mu and theta are derived from them in numpy
    when the loop ends.  `final_lambda`, when the run has certificates, is
    the one at the returned x.
    """
    n = problem.dim
    x = np.zeros(n) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
    state = problem.objective.state_at(x)
    F_cur = state.f + problem.regularizer.value(x)
    if not math.isfinite(F_cur):
        raise NumericFailureError("objective not finite at the initial point", x)

    L_used, L_used_source = rates.rule_L(problem, rule)
    opt_value = problem.opt_value
    has_opt = opt_value is not None
    diagnostics, epsilon = cfg.record_diagnostics, cfg.epsilon
    stop_on_gap = cfg.stop_on == "gap"
    stop_on_cert = cfg.stop_on == "certificate"
    if diagnostics and not has_opt:
        raise ValueError("diagnostics need a known or empirical optimum for the gap")
    if stop_on_gap and not has_opt:
        raise ValueError("gap stopping needs a known or empirical optimum")

    # a certificate in the loop where the loop reads it
    prox_path = not problem.smooth_path
    need_cert = stop_on_cert or (prox_path and rule.row.greedy)
    keeps_lam = need_cert or diagnostics
    chunked = diagnostics and not need_cert
    serial = rule.max_block_size == 1
    # a prox-path block step without a certificate forms no decrease: the
    # chunk's certificate pass takes it
    chunk_decreases = chunked and prox_path and not serial
    # a full-batch step depends on x alone, so one that leaves F in place is
    # repeated forever; a serial or minibatch step that does only says its
    # block is at a minimum
    stop_on_stagnation = stop_on_cert and rule.row.shape == "full"
    stagnant = False

    # the rule's selection and step functions and the state's move, resolved
    # once for the run; a serial step's u is a Python float throughout
    pick = selection.picker(rule, problem)
    step = engine.stepper(problem, rule.max_block_size, L_used)
    # a serial step that selects without the gradient and holds no
    # certificate reads only its g_i
    lazy = serial and not (need_cert or rule.row.greedy)
    move, move_coordinate, grad_entry = state.move, state.move_coordinate, state.grad_entry
    if prox_path:
        g_after = _l1_after_move(problem.regularizer, x, serial)

    F_init = F_cur
    gap_floor = 1e-14 * max(1.0, abs(F_init))
    # the trace's columns and their appends, bound once so that a step's
    # appends cost no attribute lookups
    blocks: list[CoordSet] = []
    F_col, lam_col, decrease_col, norm_col = (array("d") for _ in range(4))
    ns_col, heuristic_col = array("q"), array("b")
    add_block, add_F, add_lam = blocks.append, F_col.append, lam_col.append
    add_decrease, add_norm = decrease_col.append, norm_col.append
    add_ns, add_heuristic = ns_col.append, heuristic_col.append
    termination = "exhausted_iters"
    grad = lam = cert = lam_per_coord = None
    clock = time.perf_counter_ns
    if chunked:
        # rows of what forms each iterate's gradient, and of x, 16 bytes a
        # coordinate
        rows = min(cfg.max_iters, max(1, linalg.SUBSET_CHUNK_BYTES // (16 * n)))
        grad_chunk = state.gradient_chunk(rows)
        keep_grad = grad_chunk.keep
        x_rows = np.empty((rows, n)) if prox_path else None
        row = 0

        def add_chunk_lams(count: int) -> None:
            """Append the certificate totals of the chunk's first `count` rows,
            and their block decreases where the steps formed none."""
            xs = None if x_rows is None else x_rows[:count]
            totals, decreases = engine.certificate_totals(
                problem, xs, grad_chunk.gradients(count), L_used,
                blocks[-count:] if chunk_decreases else None)
            lam_col.frombytes(totals.tobytes())
            if chunk_decreases:
                decrease_col.frombytes(decreases.tobytes())

    for k in range(cfg.max_iters):
        t0 = clock()
        if not lazy:
            grad = state.grad
            if not _finite_gradient(grad):
                raise NumericFailureError(f"gradient not finite at iteration {k}", x)
            if need_cert:
                cert = engine.certificate(problem, x, L_used, grad=grad)
                lam, lam_per_coord = cert.lambda_total, cert.lambda_per_coord

        if stop_on_gap and F_cur - opt_value <= epsilon:
            termination = "reached_gap"
            break
        if stop_on_cert and lam < epsilon:
            termination = "reached_certificate"
            break
        if stagnant:
            termination = "stagnated"
            break
        if chunked:
            keep_grad(row)
            if prox_path:
                x_rows[row] = x

        S = pick(k, grad, lam_per_coord)
        if serial:
            i = S.indices[0]
            if lazy:
                g_i = grad_entry(i)
                if not math.isfinite(g_i):
                    raise NumericFailureError(f"gradient not finite at iteration {k}", x)
            else:
                g_i = grad.item(i)
            u, decrease = step(x, i, g_i, cert)
            if not math.isfinite(u):
                raise NumericFailureError(f"objective not finite after iteration {k}", x)
            move_coordinate(i, u)
            # what np.linalg.norm computes for a length-1 array: the dot
            # 0.0 + u * u
            step_norm = math.sqrt(0.0 + u * u)
        else:
            u_S, decrease, M_rows = step(x, S, grad, cert)
            move(S, u_S, M_rows)
            step_norm = math.sqrt(float(u_S.dot(u_S)))
        x_next = state.x
        if prox_path:
            F_next = state.f + g_after(x, x_next, S)
        else:  # g is 0: its value is the float 0.0
            F_next = state.f + 0.0
        if not math.isfinite(F_next):
            raise NumericFailureError(f"objective not finite after iteration {k}", x_next)
        if F_next > F_init + 1e-6:
            raise NumericFailureError(
                f"divergence guard tripped at iteration {k}: "
                f"F={F_next} exceeds initial {F_init}", x_next)

        add_ns(clock() - t0)
        add_block(S)
        add_F(F_cur)
        add_norm(step_norm)
        add_heuristic(rule.last_was_heuristic)
        if need_cert:
            add_lam(lam)
        if diagnostics and not chunk_decreases:
            add_decrease(decrease)
        stagnant = stop_on_stagnation and F_cur - F_next < 1e-16 * (1.0 + abs(F_cur))
        x, F_cur = x_next, F_next
        if chunked:
            row += 1
            if row == rows:
                add_chunk_lams(rows)
                row = 0

    if chunked and row:
        add_chunk_lams(row)
    final_lambda = None
    if need_cert and termination != "exhausted_iters":
        final_lambda = lam
    elif keeps_lam:
        final_lambda = engine.certificate(problem, x, L_used, grad=state.grad).lambda_total
    F = np.frombuffer(F_col)
    xi = F - opt_value if has_opt else None
    lams = np.frombuffer(lam_col) if keeps_lam else None
    mu = theta = None
    if diagnostics:
        # mu = lam / xi and theta = decrease / lam (0 at lam = 0); at
        # numerical optimality, xi <= gap_floor, the forcing ratio is
        # ill-defined and both are 0
        live = xi > gap_floor
        mu = np.divide(lams, xi, out=np.zeros(len(F)), where=live)
        theta = np.divide(np.frombuffer(decrease_col), lams, out=np.zeros(len(F)),
                          where=live & (lams > 0))
    trace = Trace(blocks, F, xi, lams, mu, theta, np.frombuffer(norm_col),
                  np.frombuffer(ns_col, dtype=np.int64),
                  np.frombuffer(heuristic_col, dtype=bool))
    return RunResult(
        x=x, trace=trace, termination=termination,
        final_F=F_cur, final_xi=F_cur - opt_value if has_opt else None,
        final_lambda=final_lambda, rule_name=rule.name, L_used=L_used,
        L_used_source=L_used_source,
    )


@dataclass
class TraceCheck:
    name: str
    passed: bool
    worst_margin: float
    detail: str = ""


@dataclass
class TraceReport:
    checks: list[TraceCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_trace(result: RunResult, rel_tol: float = 1e-9) -> TraceReport:
    """Check the per-step descent inequality, monotonicity, and the K-step
    product bound on a diagnostics-enabled run, from the trace's columns.
    A run that stopped before its first step has nothing to audit: its
    report has no checks."""
    trace = result.trace
    if not len(trace):
        return TraceReport(checks=[])
    if trace.xi is None or trace.theta is None or trace.mu is None:
        raise UnverifiableError("trace is missing diagnostics (xi, theta, mu)")

    F, xi = trace.F, trace.xi
    contraction = 1.0 - trace.theta * trace.mu
    xi_next = np.append(xi[1:], result.final_xi)
    F_next = np.append(F[1:], result.final_F)
    # absolute slack at the rounding scale of F: the gap is a difference of
    # objective values, so its noise floor is set by |F|, not by xi
    abs_slack = 1e-12 * (1.0 + np.abs(F))

    bound = contraction * xi + rel_tol * np.abs(xi) + abs_slack
    upper = F + abs_slack
    # multiplied in sequence, as a loop would, not in np.prod's order
    product = float(np.multiply.accumulate(np.maximum(contraction, 0.0))[-1])
    xi_0 = xi.item(0)
    k_bound = (product * xi_0 * (1.0 + rel_tol) + rel_tol * xi_0
               + 1e-12 * (1.0 + abs(F.item(0))))
    k_margin = k_bound - result.final_xi

    return TraceReport(checks=[
        _row_check("one_step_descent", bound - xi_next, xi_next > bound),
        _row_check("monotonicity", upper - F_next, F_next > upper),
        TraceCheck("k_step_product_bound", k_margin >= 0.0, k_margin),
    ])


def _row_check(name: str, margins: np.ndarray, violated: np.ndarray) -> TraceCheck:
    """A per-row check: its first smallest margin, nan skipped (inf when all
    are nan), and the last violating row's k."""
    margins = np.where(np.isnan(margins), np.inf, margins)
    bad = np.flatnonzero(violated)
    detail = f"violated at k={bad[-1]}" if bad.size else ""
    return TraceCheck(name, not bad.size, float(margins[margins.argmin()]), detail)


def sequence_bound_check(alphas: Sequence[float], betas: Sequence[float]) -> bool:
    """Verify a positive sequence obeying a^{t+1} <= (1 - a^t b^t) a^t also
    obeys a^k <= a^0 / (1 + a^0 sum_{t<k} b^t)."""
    alphas = [float(a) for a in alphas]
    betas = [float(b) for b in betas]
    if any(a <= 0 for a in alphas) or any(b <= 0 for b in betas):
        raise ValueError("sequences must be positive")
    for t in range(len(alphas) - 1):
        if alphas[t + 1] > (1.0 - alphas[t] * betas[t]) * alphas[t] * (1 + 1e-12):
            raise ValueError(f"recursion precondition violated at t={t}")
    beta_sum = 0.0
    for k, a in enumerate(alphas):
        if a > alphas[0] / (1.0 + alphas[0] * beta_sum) * (1 + 1e-12):
            return False
        if k < len(betas):
            beta_sum += betas[k]
    return True


def empirical_optimum(problem: CompositeProblem) -> float:
    """Reference F(x*) for instances without a known optimum: a full-batch
    `run` from the origin to a vanishing certificate or a stagnant objective.

    The result is an *empirical* optimum; it is stored on the problem.
    """
    result = run(problem, BlockRule("full_batch", problem.dim),
                 RunConfig(max_iters=200_000, epsilon=1e-24, stop_on="certificate"))
    # a stagnant last step may have raised F: keep the lower of its two ends
    F = result.trace.F
    F_star = min(result.final_F, F.item(-1)) if len(F) else result.final_F
    problem.opt_value = F_star
    problem.opt_value_is_empirical = True
    return F_star


TRACE_HEADER = ["k", "rule", "block", "F", "xi", "lambda", "mu", "theta",
                "step_norm", "ns"]


def write_trace_csv(result: RunResult, path) -> None:
    """Write the trace as CSV: the bytes `csv.writer` gives for TRACE_HEADER
    and one row per iteration (CRLF row ends, float reprs, int strs, an
    absent column as empty fields, and `rule` quoted as QUOTE_MINIMAL would
    quote it).

    `block` is the set's `CoordSet.block_text`, built once per set object,
    so a row costs its six float reprs.  Each column is read through a
    memoryview, which yields its values as Python scalars one at a time, and
    rows are formatted one at a time and streamed to the file, so neither a
    column's values nor the text is ever held whole.
    """
    name = result.rule_name
    if any(c in name for c in ',"\r\n'):
        name = '"' + name.replace('"', '""') + '"'
    trace = result.trace
    n = len(trace)

    def text(column):
        return repeat("", n) if column is None else map(repr, memoryview(column))

    rows = (f"{k},{name},{S.block_text},{F},{xi},{lam},{mu},{theta},{norm},{ns}\r\n"
            for k, S, F, xi, lam, mu, theta, norm, ns in zip(
                range(n), trace.blocks, text(trace.F), text(trace.xi), text(trace.lam),
                text(trace.mu), text(trace.theta), text(trace.step_norm),
                memoryview(trace.elapsed_ns)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        fh.writelines(rows)
