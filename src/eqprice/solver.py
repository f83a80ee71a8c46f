"""Hybrid projected-gradient / Krasnoselskii-Mann solver.

Minimizes a strongly convex anchor objective f over the fixed-point set of
a nonexpansive map T by interleaving a vanishing projected gradient step
with an averaged application of T:

    q_k     = P_P(p_k - alpha_k grad f(p_k))
    p_{k+1} = lambda_k q_k + (1 - lambda_k) T(p_k)

with lambda_k, alpha_k decreasing to zero, sum lambda_k alpha_k divergent
and summable differences.  The iterates converge to the unique minimizer
of f on Fix(T); with the default anchor f(p) = ||p - p0||^2 that is the
fixed point nearest the guessed price.  A plain averaged fixed-point
iteration is provided as a baseline that converges to some (start
dependent) fixed point instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

from .model import PriceDomain

FloatArray = npt.NDArray[np.float64]


class Termination(str, Enum):
    CONVERGED = "converged"
    EXACT_FIXED_POINT = "exact_fixed_point"
    ITER_LIMIT = "iter_limit"


class IterationLimitError(RuntimeError):
    """The fixed-point baseline ran out of iterations."""


@dataclass(frozen=True)
class Objective:
    """Anchor objective f(p) = weight * ||p - p0||^2.

    Strongly convex with modulus beta = 2*weight and gradient Lipschitz
    constant L = 2*weight.  Any positive weight leaves the minimizer over a
    fixed set unchanged; smaller weights downscale the gradient and with it
    the bias the gradient step injects far from the anchor.
    """

    p0: FloatArray
    weight: float = 1.0

    def __post_init__(self) -> None:
        p0 = np.asarray(self.p0, dtype=float).reshape(-1)
        if not np.all(np.isfinite(p0)):
            raise ValueError("anchor p0 has non-finite entries")
        if not self.weight > 0.0:
            raise ValueError("weight must be positive")
        p0.setflags(write=False)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def beta(self) -> float:
        return 2.0 * self.weight

    @property
    def L(self) -> float:
        return 2.0 * self.weight

    def value(self, p: FloatArray) -> float:
        d = p - self.p0
        return self.weight * float(d @ d)

    def gradient(self, p: FloatArray) -> FloatArray:
        return (2.0 * self.weight) * (p - self.p0)


@dataclass(frozen=True)
class StepSchedule:
    """Step rules k -> lambda_k in (0,1) and k -> alpha_k > 0 (1-based k).

    Admissible rules decrease to zero with divergent sum lambda_k*alpha_k
    and summable successive differences; the 1/sqrt(k+1) pair of
    ``schedule_default``, the one rule the solver uses, has all three
    properties (the sum behaves like sum 1/k).
    """

    lambda_of: Callable[[int], float]
    alpha_of: Callable[[int], float]


def schedule_default() -> StepSchedule:
    """The rule lambda_k = alpha_k = 1/sqrt(k+1)."""
    rule = lambda k: 1.0 / math.sqrt(k + 1.0)  # noqa: E731
    return StepSchedule(lambda_of=rule, alpha_of=rule)


def gamma_k(beta: float, L: float, alpha: float) -> float:
    """Per-step contraction coefficient 1 - sqrt(1 - 2*beta*alpha + L^2*alpha^2).

    The radicand equals (L*alpha - beta/L)^2 + 1 - beta^2/L^2, hence is
    nonnegative whenever beta <= L, and alpha/gamma_k -> 1/beta as
    alpha -> 0.
    """
    if beta > L:
        raise ValueError("beta must not exceed L")
    radicand = 1.0 - 2.0 * beta * alpha + (L * alpha) ** 2
    return 1.0 - math.sqrt(max(radicand, 0.0))


def gradient_step(
    objective: Objective, p: FloatArray, alpha: float, domain: PriceDomain
) -> FloatArray:
    """Projected gradient step P_P(p - alpha * grad f(p))."""
    p = np.asarray(p, dtype=float).reshape(-1)
    return domain.project(p - alpha * objective.gradient(p))


@dataclass(frozen=True)
class TraceRow:
    """One iteration record: residuals and objective at iterate k."""

    k: int
    step_residual: float
    vi_residual: float  # nan when not sampled this iteration
    f_value: float


@dataclass(frozen=True)
class IterationState:
    """Snapshot passed to the per-iteration callback."""

    k: int
    p: FloatArray
    q: FloatArray
    g: FloatArray
    Tp: FloatArray
    step_residual: float


@dataclass(frozen=True)
class SolveReport:
    solution: FloatArray
    iterations: int
    wall_time: float
    trace: tuple[TraceRow, ...]
    termination: Termination

    @property
    def converged(self) -> bool:
        return self.termination is not Termination.ITER_LIMIT


def bilevel_solve(
    map_oracle: Callable[[FloatArray], FloatArray],
    objective: Objective,
    domain: PriceDomain,
    eps: float = 1e-4,
    max_iter: int = 10_000,
    start: FloatArray | None = None,
    trace_vi_every: int = 1,
    callback: Callable[[IterationState], None] | None = None,
) -> SolveReport:
    """Minimize the anchor objective over the fixed points of ``map_oracle``.

    The steps follow ``schedule_default``, lambda_k = alpha_k = 1/sqrt(k+1).

    Parameters
    ----------
    map_oracle : callable
        Evaluates the nonexpansive map T at a point of the domain.  The
        caller guarantees nonexpansiveness and a nonempty fixed-point set.
    objective : Objective
        Anchor objective; its minimizer over Fix(T) is the target.
    domain : PriceDomain
        Price set P with closed-form projection.
    eps : float
        Stop when ||p_{k+1} - p_k|| / max(||p_{k+1}||, 1) < eps.
    max_iter : int
        Iteration cap; the report then carries ITER_LIMIT.
    start : array, optional
        Initial point, projected onto the domain; defaults to the anchor.
    trace_vi_every : int
        Record ||p_k - T(p_k)|| / max(||p_k||, 1) every this many
        iterations (nan in between).
    callback : callable, optional
        Receives an IterationState after each iteration.

    Returns
    -------
    SolveReport
        Last iterate, counters, wall time and the per-iteration trace.
        Termination is EXACT_FIXED_POINT when p_k = q_k = p_{k+1} to
        machine precision (the current iterate already minimizes f on P
        and is fixed under T), CONVERGED on the step rule, else ITER_LIMIT.
    """
    schedule = schedule_default()
    p = domain.project(np.asarray(start if start is not None else objective.p0, dtype=float))
    rows: list[TraceRow] = []
    termination = Termination.ITER_LIMIT
    t0 = time.perf_counter()
    for k in range(1, max_iter + 1):
        lam = schedule.lambda_of(k)
        alpha = schedule.alpha_of(k)
        g = objective.gradient(p)
        q = domain.project(p - alpha * g)
        tp = map_oracle(p)
        p_next = lam * q + (1.0 - lam) * tp

        # Norms as sqrt(v.dot(v)), which is how np.linalg.norm computes them.
        dp = p_next - p
        step_residual = math.sqrt(dp.dot(dp)) / max(math.sqrt(p_next.dot(p_next)), 1.0)
        if trace_vi_every > 0 and (k - 1) % trace_vi_every == 0:
            r = p - tp
            vi_res = math.sqrt(r.dot(r)) / max(math.sqrt(p.dot(p)), 1.0)
        else:
            vi_res = math.nan
        rows.append(TraceRow(k=k, step_residual=step_residual, vi_residual=vi_res, f_value=objective.value(p)))
        if callback is not None:
            callback(IterationState(k=k, p=p, q=q, g=g, Tp=tp, step_residual=step_residual))

        scale = 1e-14 * (1.0 + float(abs(p).max()))
        exact = float(abs(p - q).max()) <= scale and float(abs(dp).max()) <= scale
        p = p_next
        if exact:
            termination = Termination.EXACT_FIXED_POINT
            break
        if step_residual < eps:
            termination = Termination.CONVERGED
            break
    wall = time.perf_counter() - t0
    return SolveReport(
        solution=p,
        iterations=len(rows),
        wall_time=wall,
        trace=tuple(rows),
        termination=termination,
    )


def km_fixed_point(
    map_oracle: Callable[[FloatArray], FloatArray],
    domain: PriceDomain,
    start: FloatArray,
    theta: float = 0.5,
    eps: float = 1e-8,
    max_iter: int = 10_000,
) -> FloatArray:
    """Averaged fixed-point iteration p <- (1-theta) p + theta T(p).

    Converges for any theta in (0,1) when T is nonexpansive with fixed
    points; which fixed point it finds depends on the start.  Raises
    IterationLimitError if the step residual never drops below eps.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    p = domain.project(np.asarray(start, dtype=float))
    for _ in range(max_iter):
        p_next = (1.0 - theta) * p + theta * map_oracle(p)
        residual = float(np.linalg.norm(p_next - p) / max(np.linalg.norm(p_next), 1.0))
        p = p_next
        if residual < eps:
            return p
    raise IterationLimitError(f"no fixed point within {max_iter} iterations (eps={eps:g})")


def trace_csv_rows(trace: Sequence[TraceRow]) -> list[tuple[str, str, str, str]]:
    """Render trace rows as strings with full round-trip precision."""
    return [
        (
            str(row.k),
            format(row.step_residual, ".17g"),
            format(row.vi_residual, ".17g"),
            format(row.f_value, ".17g"),
        )
        for row in trace
    ]
