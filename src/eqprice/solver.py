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
from typing import Callable, NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from . import qp
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
        object.__setattr__(self, "p0", qp.as_floats(self.p0, "anchor p0", (None,)))
        qp.refuse_non_numbers(self.weight, "weight is not a number")
        if not self.weight > 0.0:
            raise ValueError("weight must be positive")
        if not math.isfinite(self.weight):
            raise ValueError("weight must be finite")
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def beta(self) -> float:
        return 2.0 * self.weight

    @property
    def L(self) -> float:
        return 2.0 * self.weight

    def gradient(self, p: FloatArray) -> FloatArray:
        return (2.0 * self.weight) * (p - self.p0)


# The step rule's name on the command line (``--schedule``).
STEP_RULE = "sqrt"


def step_size(k: int) -> float:
    """The step lambda_k = alpha_k = 1/sqrt(k+1) of iteration k (1-based).

    Admissible rules decrease to zero with divergent sum lambda_k*alpha_k
    and summable successive differences; this one, the one rule the solver
    uses, has all three properties (the sum behaves like sum 1/k).
    """
    return 1.0 / math.sqrt(k + 1.0)


class TraceRow(NamedTuple):
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


def _check_limits(eps: float, max_iter: int, trace_vi_every: int = 0) -> None:
    qp.refuse_non_numbers(eps, "eps is not a number")
    if not 0.0 <= eps < math.inf:
        raise ValueError("eps must be finite and nonnegative")
    for name, count in (("max_iter", max_iter), ("trace_vi_every", trace_vi_every)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} is not an integer: {count!r}")
        if count < 0:
            raise ValueError(f"{name} must be nonnegative")


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

    Both steps follow ``step_size``, lambda_k = alpha_k = 1/sqrt(k+1).

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
        Stop when ||p_{k+1} - p_k|| / max(||p_{k+1}||, 1) < eps; finite, >= 0.
    max_iter : int
        Iteration cap, >= 0; the report then carries ITER_LIMIT.
    start : array, optional
        Initial point of the anchor's shape, finite, projected onto the
        domain; defaults to the anchor.
    trace_vi_every : int
        Record ||p_k - T(p_k)|| / max(||p_k||, 1) every this many
        iterations (nan in between), >= 0; 0 records none.
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
    _check_limits(eps, max_iter, trace_vi_every)
    p0, weight = objective.p0, objective.weight
    project = domain.projector(p0.size)
    p = project(p0 if start is None else qp.as_floats(start, "start", p0.shape))
    # The exact test implies ||dp|| <= sqrt(n) 1e-14 (1 + ||p||) <= sqrt(n) 1e-14
    # (1 + ||p_next|| + ||dp||), so it runs only within 10x that bound (the 10
    # covers rounding).  A NaN step fails both; an infinite one passes the bound.
    exact_gate = 1e-13 * math.sqrt(p.size)
    rows: list[TraceRow] = []
    termination = Termination.ITER_LIMIT
    t0 = time.perf_counter()
    for k in range(1, max_iter + 1):
        lam = alpha = step_size(k)
        d = p - p0  # g as in Objective.gradient; f_value = weight ||p - p0||^2
        g = (2.0 * weight) * d
        q = project(p - alpha * g)
        tp = map_oracle(p)
        p_next = lam * q + (1.0 - lam) * tp

        # Norms as sqrt(v.dot(v)), which is how np.linalg.norm computes them.
        dp = p_next - p
        dp_norm = math.sqrt(dp.dot(dp))
        pn_norm = math.sqrt(p_next.dot(p_next))
        step_residual = dp_norm / max(pn_norm, 1.0)
        if trace_vi_every > 0 and (k - 1) % trace_vi_every == 0:
            r = p - tp
            vi_res = math.sqrt(r.dot(r)) / max(math.sqrt(p.dot(p)), 1.0)
        else:
            vi_res = math.nan
        rows.append(TraceRow(k, step_residual, vi_res, weight * float(d.dot(d))))
        if callback is not None:
            callback(IterationState(k=k, p=p, q=q, g=g, Tp=tp, step_residual=step_residual))

        exact = False
        if dp_norm <= exact_gate * (1.0 + pn_norm + dp_norm):
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
    eps: float = 1e-8,
    max_iter: int = 10_000,
) -> FloatArray:
    """Averaged fixed-point iteration p <- p/2 + T(p)/2.

    Converges when T is nonexpansive with fixed points; which fixed point
    it finds depends on the start, a finite 1-D array.  Raises
    IterationLimitError if the step residual never drops below eps
    (finite, >= 0) in max_iter (>= 0) steps.
    """
    _check_limits(eps, max_iter)
    start = qp.as_floats(start, "start", (None,))
    p = domain.projector(start.size)(start)
    for _ in range(max_iter):
        p_next = 0.5 * p + 0.5 * map_oracle(p)
        residual = float(np.linalg.norm(p_next - p) / max(np.linalg.norm(p_next), 1.0))
        p = p_next
        if residual < eps:
            return p
    raise IterationLimitError(f"no fixed point within {max_iter} iterations (eps={eps:g})")


def trace_csv_rows(trace: Sequence[TraceRow]) -> list[tuple[str, ...]]:
    """Render trace rows as strings, one per field, with full round-trip precision."""
    return [(str(row.k), *(format(v, ".17g") for v in row[1:])) for row in trace]
