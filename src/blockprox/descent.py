"""Iteration driver: the block descent loop, stopping logic, trace
records, and trace verification against the one-step descent inequality.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import engine, rates
from .linalg import CoordSet
from .objectives import CompositeProblem
from .selection import BlockRule, SelectionContext, select

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
        if self.epsilon <= 0:
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
    termination: str  # reached_gap | reached_certificate | exhausted_iters
    final_F: float
    final_xi: Optional[float]
    final_lambda: Optional[float]
    rule_name: str
    L_used: Optional[float]
    # "exact" or "trace_bound" (see BlockSmoothness); None on the smooth path
    L_used_source: Optional[str] = None


def run(problem: CompositeProblem, rule: BlockRule, cfg: RunConfig) -> RunResult:
    """Block descent from x0 under `rule`.

    The gradient and f come from the objective's iterate state, once per
    iterate, and are shared by the certificate, the selection, the step and
    the diagnostics.
    """
    n = problem.dim
    x = np.zeros(n) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
    state = problem.objective.state_at(x)
    g_value = problem.regularizer.value
    F_cur = state.f + g_value(x)
    if not np.isfinite(F_cur):
        raise NumericFailureError("objective not finite at the initial point", x)

    L_used, L_used_source = rates.rule_L(problem, rule)
    has_opt = problem.opt_value is not None
    if cfg.record_diagnostics and not has_opt:
        raise ValueError("diagnostics need a known or empirical optimum for the gap")
    if cfg.stop_on == "gap" and not has_opt:
        raise ValueError("gap stopping needs a known or empirical optimum")

    greedy_nonsmooth = (not problem.smooth_path
                        and rule.kind in ("greedy_coord", "greedy_minibatch"))
    need_cert = cfg.record_diagnostics or cfg.stop_on == "certificate" or greedy_nonsmooth

    F_init = F_cur
    gap_floor = 1e-14 * max(1.0, abs(F_init))
    trace: list[IterationRecord] = []
    termination = "exhausted_iters"
    cert = None

    for k in range(cfg.max_iters):
        t0 = time.perf_counter_ns()
        grad = state.grad
        if not np.isfinite(grad).all():
            raise NumericFailureError(f"gradient not finite at iteration {k}", x)

        cert = engine.certificate(problem, x, L_used, grad=grad) if need_cert else None
        xi_cur = F_cur - problem.opt_value if has_opt else None

        if cfg.stop_on == "gap" and xi_cur <= cfg.epsilon:
            termination = "reached_gap"
            break
        if cfg.stop_on == "certificate" and cert.lambda_total < cfg.epsilon:
            termination = "reached_certificate"
            break

        ctx = SelectionContext(
            x=x, grad=grad,
            lambda_per_coord=None if cert is None else cert.lambda_per_coord,
            k=k,
        )
        S = select(rule, problem, ctx)
        step = engine.block_step(problem, x, S, L_used, grad=grad)

        mu = theta = None
        if cfg.record_diagnostics:
            if xi_cur > gap_floor:
                mu = cert.lambda_total / xi_cur
                theta = (step.decrease / cert.lambda_total
                         if cert.lambda_total > 0 else 0.0)
            else:
                # at numerical optimality the forcing ratio is ill-defined
                mu, theta = 0.0, 0.0

        state.move(S, step.u_S)
        x_next = state.x
        F_next = state.f + g_value(x_next)
        if not np.isfinite(F_next):
            raise NumericFailureError(f"objective not finite after iteration {k}", x_next)
        if F_next > F_init + 1e-6:
            raise NumericFailureError(
                f"divergence guard tripped at iteration {k}: "
                f"F={F_next} exceeds initial {F_init}", x_next)

        trace.append(IterationRecord(
            k=k, block=S, F=F_cur, xi=xi_cur,
            lam=None if cert is None else cert.lambda_total,
            mu=mu, theta=theta,
            step_norm=float(np.linalg.norm(step.u_S)),
            elapsed_ns=time.perf_counter_ns() - t0,
            heuristic=rule.last_was_heuristic,
        ))
        x, F_cur = x_next, F_next

    final_lambda = None
    if need_cert:
        final_lambda = (cert.lambda_total if termination != "exhausted_iters"
                        else engine.certificate(problem, x, L_used,
                                                grad=state.grad).lambda_total)
    return RunResult(
        x=x, trace=trace, termination=termination,
        final_F=F_cur, final_xi=F_cur - problem.opt_value if has_opt else None,
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
    product bound on a diagnostics-enabled run."""
    rows = result.trace
    if not rows or rows[0].xi is None or rows[0].theta is None:
        raise UnverifiableError("trace is missing diagnostics (xi, theta, mu)")

    xis = [r.xi for r in rows] + [result.final_xi]
    Fs = [r.F for r in rows] + [result.final_F]

    onestep_margin, onestep_ok, onestep_detail = np.inf, True, ""
    for r, xi_next in zip(rows, xis[1:]):
        # absolute slack at the rounding scale of F: the gap is a difference
        # of objective values, so its noise floor is set by |F|, not by xi
        abs_slack = 1e-12 * (1.0 + abs(r.F))
        bound = (1.0 - r.theta * r.mu) * r.xi + rel_tol * abs(r.xi) + abs_slack
        margin = bound - xi_next
        if margin < onestep_margin:
            onestep_margin = margin
        if xi_next > bound:
            onestep_ok = False
            onestep_detail = f"violated at k={r.k}"

    mono_margin, mono_ok, mono_detail = np.inf, True, ""
    for r, F_next in zip(rows, Fs[1:]):
        slack = 1e-12 * (1.0 + abs(r.F))
        margin = r.F + slack - F_next
        if margin < mono_margin:
            mono_margin = margin
        if F_next > r.F + slack:
            mono_ok = False
            mono_detail = f"violated at k={r.k}"

    product = 1.0
    for r in rows:
        product *= max(1.0 - r.theta * r.mu, 0.0)
    k_bound = (product * rows[0].xi * (1.0 + rel_tol) + rel_tol * rows[0].xi
               + 1e-12 * (1.0 + abs(rows[0].F)))
    k_margin = k_bound - xis[-1]

    return TraceReport(checks=[
        TraceCheck("one_step_descent", onestep_ok, onestep_margin, onestep_detail),
        TraceCheck("monotonicity", mono_ok, mono_margin, mono_detail),
        TraceCheck("k_step_product_bound", k_margin >= 0.0, k_margin),
    ])


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


def empirical_optimum(problem: CompositeProblem, tol: float = 1e-24,
                      max_iters: int = 200_000) -> float:
    """Reference F(x*) for instances without a known optimum: full-batch
    descent driven to a vanishing certificate or a stagnant objective.

    The result is an *empirical* optimum; it is stored on the problem.
    """
    rule = BlockRule("full_batch", problem.dim)
    L, _ = rates.rule_L(problem, rule)
    S = rule.full_set
    x = np.zeros(problem.dim)
    F_cur = problem.F(x)
    for _ in range(max_iters):
        grad = problem.grad_f(x)
        cert = engine.certificate(problem, x, L, grad=grad)
        if cert.lambda_total < tol:
            break
        step = engine.block_step(problem, x, S, L, grad=grad)
        x = x + step.u_S
        F_next = problem.F(x)
        if F_cur - F_next < 1e-16 * (1.0 + abs(F_cur)):
            F_cur = min(F_cur, F_next)
            break
        F_cur = F_next
    problem.opt_value = F_cur
    problem.opt_value_is_empirical = True
    return F_cur


TRACE_HEADER = ["k", "rule", "block", "F", "xi", "lambda", "mu", "theta",
                "step_norm", "ns"]


def write_trace_csv(result: RunResult, path) -> None:
    """Stream trace rows to CSV; block is a ';'-joined 1-based index list."""

    def fmt(v):
        return "" if v is None else repr(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for r in result.trace:
            writer.writerow([
                r.k, result.rule_name,
                ";".join(str(i) for i in r.block.one_based()),
                fmt(r.F), fmt(r.xi), fmt(r.lam), fmt(r.mu), fmt(r.theta),
                fmt(r.step_norm), r.elapsed_ns,
            ])
