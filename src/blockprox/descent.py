"""Iteration driver: the block descent loop, stopping logic, trace
records, and trace verification against the one-step descent inequality.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.blas import ddot

from . import engine, rates
from .linalg import CoordSet
from .objectives import CompositeProblem
from .selection import BlockRule, select

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


@dataclass
class IterationRecord:
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


@dataclass
class RunResult:
    x: np.ndarray
    trace: list[IterationRecord]
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


def run(problem: CompositeProblem, rule: BlockRule, cfg: RunConfig) -> RunResult:
    """Block descent from x0 under `rule`.

    The gradient and f come from the objective's iterate state, once per
    iterate, and are shared by the certificate, the selection, the step and
    the diagnostics.  On the prox path an iteration that holds a certificate
    (diagnostics, stop_on "certificate", or a greedy rule) reads its block
    step off it, so the prox model is evaluated once per iterate.
    """
    n = problem.dim
    x = np.zeros(n) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
    state = problem.objective.state_at(x)
    g_value = problem.regularizer.value
    F_cur = state.f + g_value(x)
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

    greedy_nonsmooth = rule.row.greedy and not problem.smooth_path
    need_cert = diagnostics or stop_on_cert or greedy_nonsmooth
    # a full-batch step depends on x alone, so one that leaves F in place is
    # repeated forever; a serial or minibatch step that does only says its
    # block is at a minimum
    stop_on_stagnation = stop_on_cert and rule.row.shape == "full"
    stagnant = False

    F_init = F_cur
    gap_floor = 1e-14 * max(1.0, abs(F_init))
    trace: list[IterationRecord] = []
    termination = "exhausted_iters"
    lam = cert = lam_per_coord = None
    clock = time.perf_counter_ns

    for k in range(cfg.max_iters):
        t0 = clock()
        grad = state.grad
        if not _finite_gradient(grad):
            raise NumericFailureError(f"gradient not finite at iteration {k}", x)

        if need_cert:
            cert = engine.certificate(problem, x, L_used, grad=grad)
            lam, lam_per_coord = cert.lambda_total, cert.lambda_per_coord
        xi_cur = F_cur - opt_value if has_opt else None

        if stop_on_gap and xi_cur <= epsilon:
            termination = "reached_gap"
            break
        if stop_on_cert and lam < epsilon:
            termination = "reached_certificate"
            break
        if stagnant:
            termination = "stagnated"
            break

        S = select(rule, problem, k, grad, lam_per_coord)
        step = engine.block_step(problem, x, S, L_used, grad=grad, cert=cert)
        u_S = step.u_S

        mu = theta = None
        if diagnostics:
            if xi_cur > gap_floor:
                mu = lam / xi_cur
                theta = step.decrease / lam if lam > 0 else 0.0
            else:
                # at numerical optimality the forcing ratio is ill-defined
                mu, theta = 0.0, 0.0

        state.move(S, u_S)
        x_next = state.x
        F_next = state.f + g_value(x_next)
        if not math.isfinite(F_next):
            raise NumericFailureError(f"objective not finite after iteration {k}", x_next)
        if F_next > F_init + 1e-6:
            raise NumericFailureError(
                f"divergence guard tripped at iteration {k}: "
                f"F={F_next} exceeds initial {F_init}", x_next)

        # what np.linalg.norm computes for a 1-D array: sqrt(u_S . u_S), a
        # length-1 dot being 0.0 + u * u
        if len(S.indices) == 1:
            u = u_S.item(0)
            step_norm = math.sqrt(0.0 + u * u)
        else:
            step_norm = math.sqrt(float(u_S.dot(u_S)))
        trace.append(IterationRecord(k, S, F_cur, xi_cur, lam, mu, theta, step_norm,
                                     clock() - t0, rule.last_was_heuristic))
        stagnant = stop_on_stagnation and F_cur - F_next < 1e-16 * (1.0 + abs(F_cur))
        x, F_cur = x_next, F_next

    final_lambda = None
    if need_cert:
        final_lambda = (lam if termination != "exhausted_iters"
                        else engine.certificate(problem, x, L_used,
                                                grad=state.grad).lambda_total)
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
    product bound on a diagnostics-enabled run.  A run that stopped before
    its first step has nothing to audit: its report has no checks."""
    rows = result.trace
    if not rows:
        return TraceReport(checks=[])
    if rows[0].xi is None or rows[0].theta is None:
        raise UnverifiableError("trace is missing diagnostics (xi, theta, mu)")

    F = np.array([r.F for r in rows], dtype=float)
    xi = np.array([r.xi for r in rows], dtype=float)
    contraction = 1.0 - (np.array([r.theta for r in rows], dtype=float)
                         * np.array([r.mu for r in rows], dtype=float))
    xi_next = np.append(xi[1:], result.final_xi)
    F_next = np.append(F[1:], result.final_F)
    # absolute slack at the rounding scale of F: the gap is a difference of
    # objective values, so its noise floor is set by |F|, not by xi
    abs_slack = 1e-12 * (1.0 + np.abs(F))

    bound = contraction * xi + rel_tol * np.abs(xi) + abs_slack
    upper = F + abs_slack
    # multiplied in sequence, as a loop would, not in np.prod's order
    product = float(np.multiply.accumulate(np.maximum(contraction, 0.0))[-1])
    k_bound = (product * rows[0].xi * (1.0 + rel_tol) + rel_tol * rows[0].xi
               + 1e-12 * (1.0 + abs(rows[0].F)))
    k_margin = k_bound - result.final_xi

    return TraceReport(checks=[
        _row_check("one_step_descent", bound - xi_next, xi_next > bound, rows),
        _row_check("monotonicity", upper - F_next, F_next > upper, rows),
        TraceCheck("k_step_product_bound", k_margin >= 0.0, k_margin),
    ])


def _row_check(name: str, margins: np.ndarray, violated: np.ndarray, rows) -> TraceCheck:
    """A per-row check: its first smallest margin, nan skipped (inf when all
    are nan), and the last violating row's k."""
    margins = np.where(np.isnan(margins), np.inf, margins)
    bad = np.flatnonzero(violated)
    detail = f"violated at k={rows[bad[-1]].k}" if bad.size else ""
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
    F_star = min(result.final_F, result.trace[-1].F) if result.trace else result.final_F
    problem.opt_value = F_star
    problem.opt_value_is_empirical = True
    return F_star


TRACE_HEADER = ["k", "rule", "block", "F", "xi", "lambda", "mu", "theta",
                "step_norm", "ns"]


def write_trace_csv(result: RunResult, path) -> None:
    """Write the trace as CSV: the bytes `csv.writer` gives for TRACE_HEADER
    and one row per record (CRLF row ends, float reprs, int strs, None as an
    empty field, and `rule` quoted as QUOTE_MINIMAL would quote it).

    `block` is the set's `CoordSet.block_text`, built once per set object,
    so a row costs its six float reprs.  Rows are formatted one at a time
    and streamed to the file, never held as one string.
    """
    name = result.rule_name
    if any(c in name for c in ',"\r\n'):
        name = '"' + name.replace('"', '""') + '"'

    def opt(v):
        return "" if v is None else repr(v)

    rows = (f"{r.k},{name},{r.block.block_text},{opt(r.F)},{opt(r.xi)},"
            f"{opt(r.lam)},{opt(r.mu)},{opt(r.theta)},{opt(r.step_norm)},"
            f"{r.elapsed_ns}\r\n" for r in result.trace)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        fh.writelines(rows)
