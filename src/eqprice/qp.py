"""Dense active-set solver for small strictly convex quadratic programs.

The programs solved here all have the shape

    minimize    x' Q x + q' x
    subject to  A x <= b,  g' x >= M (optional),  x >= 0

with Q symmetric positive definite, so the minimizer is unique and the
primal active-set method terminates at a machine-precision KKT point.
``check_kkt`` re-derives optimality from scratch (least-squares multiplier
fit on the active set) and serves as an independent certificate for any
candidate point, whatever produced it.  ``feasible_point`` finds a start
point, and ``highs_lp`` is the one linear-program entry of the package:
HiGHS's dual simplex through scipy's binding, without ``linprog``'s
per-call input checks.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import numpy.typing as npt


def _load_highs():
    """scipy's HiGHS binding, loaded by file (by name, ``scipy.optimize`` would load
    ``scipy.sparse`` and ``scipy.linalg`` first) under its own name, so that a later
    ``import scipy.optimize`` shares it: pybind11 refuses to run it twice."""
    name = "scipy.optimize._highspy._core"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        path = Path(scipy.origin).parent / "optimize" / "_highspy" / f"_core{EXTENSION_SUFFIXES[0]}"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


_highs = _load_highs()

FloatArray = npt.NDArray[np.float64]

DEFAULT_TOL = 1e-9
# Constraint violation that phase-1 accepts as feasible.
FEASIBILITY_TOL = 1e-9
# Relaxation applied to the right-hand side of rows in a degenerate
# (linearly dependent) working set before re-solving.
DEGENERACY_BUMP = 1e-12
# The HiGHS options that scipy.optimize.linprog(method="highs") sets (the rest
# it leaves unset or at HiGHS's defaults), and the tolerance of its post-solve
# check, 10 sqrt(1e-9).
_LP_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("presolve", "on"),
    ("simplex_strategy", _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
)
_LP_TOL = 10.0 * math.sqrt(1e-9)


# Largest and smallest entry of a nonempty float array, as a Python float.
# The value is one of the entries, so it is exact, and argmax/argmin stop at
# the first NaN, so NaN propagates as through np.maximum.reduce.  A tie of
# -0.0 with +0.0 may return either; callers take abs first or only compare.
def _max(a: FloatArray) -> float:
    return a.item(a.argmax())


def _min(a: FloatArray) -> float:
    return a.item(a.argmin())


class QpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITER_LIMIT = "iter_limit"
    OVERFLOW = "overflow"
    INACCURATE = "inaccurate"  # the loop's sign test passed, the residual test did not


@dataclass(frozen=True)
class QpProblem:
    """One strictly convex QP over a polyhedron.

    Objective is ``x' Q x + q' x`` (note: Q itself, not Q/2).  Constraints
    are ``A x <= b``, an optional utility floor ``g' x >= M`` and ``x >= 0``.
    """

    Q: FloatArray
    q: FloatArray
    A: FloatArray
    b: FloatArray
    floor: tuple[FloatArray, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "Q", _as_matrix(self.Q, "Q"))
        object.__setattr__(self, "q", _as_vector(self.q, "q"))
        object.__setattr__(self, "A", _as_matrix(self.A, "A", ncols=self.n))
        object.__setattr__(self, "b", _as_vector(self.b, "b"))
        if self.Q.shape[0] != self.Q.shape[1]:
            raise ValueError("Q must be square")
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A and b row counts differ")
        if self.q.shape[0] != self.n:
            raise ValueError("q length does not match Q")
        if self.floor is not None:
            g, m_floor = self.floor
            g = _as_vector(g, "floor vector")
            if g.shape[0] != self.n:
                raise ValueError("floor vector length does not match Q")
            object.__setattr__(self, "floor", (g, float(m_floor)))

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @cached_property
    def prepared(self) -> tuple[FloatArray, FloatArray, FloatArray]:
        """Read-only ``(H, G, h)`` for ``solve_prepared``: ``H = Q + Q'`` and the
        ``inequality_rows``.  A ``dataclasses.replace`` copy builds its own."""
        rows = (self.Q + self.Q.T, *inequality_rows(self.A, self.b, self.floor, self.n))
        for a in rows:
            a.flags.writeable = False
        return rows

    def objective(self, x: FloatArray) -> float:
        return float(x @ self.Q @ x + self.q @ x)

    def gradient(self, x: FloatArray) -> FloatArray:
        return 2.0 * (self.Q @ x) + self.q


@dataclass(frozen=True)
class QpSolution:
    """Solver output; ``status`` says how far to trust ``x``."""

    x: FloatArray
    kkt_residual: float
    iterations: int
    status: QpStatus
    working_set: tuple[int, ...] = ()
    certificate: FloatArray | None = None
    multipliers: FloatArray | None = None  # per row of inequality_rows, 0 off working_set


@dataclass(frozen=True)
class FeasiblePointResult:
    """Phase-1 outcome: a feasible point or a Farkas-type certificate.

    When infeasible, ``certificate`` holds nonnegative multipliers over the
    rows of the normalized system ``G x <= h`` (see ``inequality_rows``)
    whose combination proves emptiness: y >= 0, y'G >= 0 on the
    nonnegative orthant and y'h < 0.
    """

    feasible: bool
    x: FloatArray | None = None
    certificate: FloatArray | None = None
    gap: float = 0.0


def inequality_rows(
    A: FloatArray,
    b: FloatArray,
    floor: tuple[FloatArray, float] | None,
    n: int,
) -> tuple[FloatArray, FloatArray]:
    """Normalize all constraints to ``G x <= h``.

    Row order: the rows of A, then the floor row (as -g' x <= -M), then
    -e_j' x <= 0 for each coordinate.  Every row index reported by the
    solver refers to this ordering.
    """
    blocks_g = [np.asarray(A, dtype=float).reshape(-1, n)]
    blocks_h = [np.asarray(b, dtype=float).reshape(-1)]
    if floor is not None:
        g, m_floor = floor
        blocks_g.append(-np.asarray(g, dtype=float).reshape(1, n))
        blocks_h.append(np.array([-float(m_floor)]))
    blocks_g.append(-np.eye(n))
    blocks_h.append(np.zeros(n))
    return np.vstack(blocks_g), np.concatenate(blocks_h)


def solve_qp(problem: QpProblem, max_iter: int | None = None) -> QpSolution:
    """Minimize ``x'Qx + q'x`` over the problem's polyhedron, from a cold start.

    The start is ``feasible_point``'s (zero when feasible, else a phase-1
    point), and an infeasibility certificate is returned if none exists.
    ``max_iter`` caps the active-set iterations (default ``50 * (n + #rows)``).
    A warm start from a feasible point is ``solve_prepared`` on
    ``problem.prepared``.

    ``status == OPTIMAL`` guarantees a KKT residual within ``DEFAULT_TOL``
    times the residual scale; ``OVERFLOW`` means a step overflowed and
    ``INACCURATE`` that the loop stopped above that residual bound.
    """
    phase1 = feasible_point(problem.A, problem.b, problem.n, problem.floor)
    if not phase1.feasible:
        return QpSolution(
            x=np.zeros(problem.n),
            kkt_residual=np.inf,
            iterations=0,
            status=QpStatus.INFEASIBLE,
            certificate=phase1.certificate,
        )
    H, G, h = problem.prepared
    return solve_prepared(H, problem.q, G, h, phase1.x, max_iter=max_iter)


def solve_prepared(
    H: FloatArray,
    c: FloatArray,
    G: FloatArray,
    h: FloatArray,
    x0: FloatArray,
    working_set: tuple[int, ...] | None = None,
    max_iter: int | None = None,
) -> QpSolution:
    """Active-set solve on prebuilt rows ``G x <= h`` with ``H = 2Q``.

    Warm-start entry for callers that evaluate one polyhedron at many
    linear terms; ``x0`` must be feasible.  ``max_iter`` defaults to
    ``50 * (n + #rows)``.
    """
    if max_iter is None:
        max_iter = 50 * (H.shape[0] + G.shape[0])
    x, lam, wset, iters, status = _active_set(H, c, G, h, x0, working_set, max_iter)
    residual = math.inf
    if status is not QpStatus.OVERFLOW:  # its residual would overflow too; w = 0 there
        residual, lam = _kkt_residual_on_set(H, c, G, h, x, lam, wset)
    if status is QpStatus.OPTIMAL and not residual <= DEFAULT_TOL * residual_scale(
        _max(abs(c)), H.dot(x)
    ):
        status = QpStatus.INACCURATE
    multipliers = np.zeros(G.shape[0])
    multipliers[wset] = lam
    return QpSolution(
        x=x,
        kkt_residual=residual,
        iterations=iters,
        status=status,
        working_set=tuple(wset),
        multipliers=multipliers,
    )


def kkt_matrix(H: FloatArray, Gw: FloatArray, size: int | None = None) -> FloatArray:
    """``[[H, Gw'], [Gw, 0]]``, the KKT matrix of working-set rows ``Gw``, in the
    leading block of a ``size``-square zero buffer (default: just that block)."""
    n, w = H.shape[0], Gw.shape[0]
    kkt = np.zeros((n + w if size is None else size,) * 2)
    kkt[:n, :n] = H
    kkt[n : n + w, :n] = Gw
    kkt[:n, n : n + w] = Gw.T
    return kkt


def _active_set(
    H: FloatArray,
    c: FloatArray,
    G: FloatArray,
    h0: FloatArray,
    x0: FloatArray,
    working_set: tuple[int, ...] | None,
    max_iter: int,
) -> tuple[FloatArray, FloatArray, list[int], int, QpStatus]:
    """Primal active-set loop.  Returns (x, multipliers, set, iters, status).

    The KKT matrix ``kkt_matrix(H, Gw)`` of the working set lives in one
    buffer, written in place as rows join and leave: the step solves on its
    leading ``n + w`` block, ``rhs`` holds ``[-grad; 0]`` and ``free`` marks
    the rows outside the working set.
    """
    n = H.shape[0]
    h = h0.copy()
    hs = 1.0 + _hscale(h)
    x = x0.copy()
    wset = _initial_working_set(G, h, x, working_set, n)
    size = n + G.shape[0]  # a working set never holds a row twice
    kkt = kkt_matrix(H, G[wset], size)
    rhs = np.zeros(size)
    free = np.ones(G.shape[0], dtype=bool)
    free[wset] = False
    lam = np.zeros(0)
    bump = DEGENERACY_BUMP
    bump_rounds = 0
    it = 0
    while it < max_iter:
        it += 1
        grad = H.dot(x) + c
        grad_scale = _max(abs(grad))
        m = n + len(wset)
        np.negative(grad, out=rhs[:n])
        sol = _kkt_step(kkt[:m, :m], rhs[:m], n, grad_scale)
        if sol is None:
            # Linearly dependent working set: relax the offending rows a
            # hair and restart from the current (still feasible) point.
            if bump_rounds >= 8:
                break
            bump_rounds += 1
            for i in wset:
                h[i] = h[i] + bump * (1.0 + abs(h[i]))
            bump = min(bump * 10.0, 1e-8)
            wset = []
            free[:] = True
            continue
        d, lam = sol
        dmax = _max(abs(d))
        # Only w = 0 (H positive definite) passes a non-finite step: overflow.
        if not math.isfinite(dmax):
            return x, lam, wset, it, QpStatus.OVERFLOW
        at_optimum = dmax <= 1e-12 * (1.0 + _max(abs(x)))
        if not at_optimum:
            # Ratio test over rows not in the working set.
            Gd = G.dot(d)
            rows = np.flatnonzero((Gd > 1e-13 * hs) & free)
            alpha = 1.0
            blocking = -1
            if rows.size:
                ratios = np.maximum((h - G.dot(x))[rows], 0.0) / Gd[rows]
                k = ratios.argmin()
                if ratios[k] < alpha:
                    alpha = ratios.item(k)
                    blocking = int(rows[k])
            x = x + alpha * d
            if blocking >= 0:
                kkt[m, :n] = kkt[:n, m] = G[blocking]
                wset.append(blocking)
                free[blocking] = False
                continue
            # Full step: x now minimizes on the working set and ``lam``
            # holds its multipliers, so fall through to the sign test
            # rather than re-deriving a roundoff-sized step next round.
        # Optimal unless some working-set multiplier is clearly negative;
        # otherwise drop the row with the most negative one.
        if lam.size == 0:
            return x, lam, wset, it, QpStatus.OPTIMAL
        k = lam.argmin()
        if lam.item(k) >= -1e-10 * (1.0 + grad_scale):
            return x, lam, wset, it, QpStatus.OPTIMAL
        free[wset.pop(k)] = True
        # Shift the later rows up by one: the working set keeps its order.
        kkt[n + k : m - 1, :n] = kkt[n + k + 1 : m, :n]
        kkt[:n, n + k : m - 1] = kkt[:n, n + k + 1 : m]
    return x, lam, wset, it, QpStatus.ITER_LIMIT


def _initial_working_set(
    G: FloatArray,
    h: FloatArray,
    x: FloatArray,
    requested: tuple[int, ...] | None,
    n: int,
) -> list[int]:
    active = h - G @ x <= 1e-10 * (1.0 + np.abs(h))
    wset: list[int] = []
    if requested is not None:
        # First occurrences only: a row twice in the KKT matrix makes it singular.
        wset = list(dict.fromkeys(i for i in requested if 0 <= i < G.shape[0] and active[i]))
    taken = set(wset)
    wset += [i for i in np.flatnonzero(active).tolist() if i not in taken]
    return wset[:n]


def _kkt_step(
    kkt: FloatArray,
    rhs: FloatArray,
    n: int,
    grad_scale: float,
) -> tuple[FloatArray, FloatArray] | None:
    """Solve the equality-constrained step; None signals a singular system.

    ``kkt`` is ``[[H, Gw'], [Gw, 0]]`` and ``rhs`` is ``[-grad; 0]``, so
    ``grad_scale = max|grad|`` equals ``max|rhs|``.
    """
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    if kkt.shape[0] == n:
        return sol, np.zeros(0)
    # max|sol| is non-finite exactly when some entry is.
    sol_scale = _max(abs(sol))
    if not math.isfinite(sol_scale):
        return None
    # Reject solutions of nearly singular systems that fail to solve.
    err = _max(abs(kkt.dot(sol) - rhs))
    if err > 1e-7 * (1.0 + grad_scale + sol_scale):
        return None
    return sol[:n], sol[n:]


def _kkt_residual_on_set(
    H: FloatArray,
    c: FloatArray,
    G: FloatArray,
    h: FloatArray,
    x: FloatArray,
    lam: FloatArray,
    wset: list[int],
) -> tuple[float, FloatArray]:
    """KKT residual of the active-set iterate, with the solver's multipliers,
    and those multipliers (refit when the loop stopped mid-update).

    This is not ``check_kkt``, and the two are kept apart on purpose.  This
    residual uses the working set and multipliers the solver ended with, and
    it decides whether a solve is ``OPTIMAL``, so its bits fix the reported
    answers and iteration counts.  ``check_kkt`` finds the active rows
    itself and refits the multipliers by least squares: it is the
    independent reference that the benchmark checks and the tests compare
    solver output against.
    """
    grad = H @ x + c
    primal = float(np.max(G @ x - h, initial=0.0))
    if len(wset):
        Gw = G[wset]
        if lam.size != len(wset):
            # Interrupted before multipliers were refreshed; refit them.
            lam, *_ = np.linalg.lstsq(Gw.T, -grad, rcond=None)
        stat = grad + Gw.T @ lam
        neg = float(max(0.0, -lam.min()))
        comp = float(np.max(np.abs(lam * (Gw @ x - h[wset])), initial=0.0))
    else:
        stat, lam, neg, comp = grad, np.zeros(0), 0.0, 0.0
    return max(primal, float(np.linalg.norm(stat)), neg, comp), lam


def check_kkt(problem: QpProblem, x: FloatArray) -> float:
    """Independent optimality certificate for a candidate point.

    Takes the rows within ``1e-7 * (1 + |h_i|)`` of active at ``x``, fits
    multipliers by least squares and returns the largest of primal
    infeasibility, stationarity residual, multiplier negativity and
    complementarity gap.  Zero exactly when ``x`` is the minimizer.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    _, G, h = problem.prepared
    viol = G @ x - h
    primal = float(np.max(viol, initial=0.0))
    grad = problem.gradient(x)
    active = np.flatnonzero(viol >= -1e-7 * (1.0 + np.abs(h)))
    if active.size == 0:
        return max(primal, float(np.linalg.norm(grad)))
    Ga = G[active]
    lam, *_ = np.linalg.lstsq(Ga.T, -grad, rcond=None)
    stationarity = float(np.linalg.norm(grad + Ga.T @ lam))
    negativity = float(max(0.0, -lam.min()))
    complementarity = float(np.max(np.abs(lam * viol[active]), initial=0.0))
    return max(primal, stationarity, negativity, complementarity)


def feasible_point(
    A: FloatArray,
    b: FloatArray,
    n: int,
    floor: tuple[FloatArray, float] | None = None,
) -> FeasiblePointResult:
    """Find x >= 0 with ``Ax <= b`` (2-D A) and optional ``g'x >= M``.

    Zero when it violates no row by more than ``FEASIBILITY_TOL``, else an
    elastic linear program (minimize total constraint violation); a
    strictly positive optimum proves emptiness and its dual multipliers
    are returned as the certificate.
    """
    G, h = inequality_rows(A, b, floor, n)
    # Nonnegativity goes through column bounds, not elastic rows.
    n_elastic = G.shape[0] - n
    x0 = np.zeros(n)
    if _max_violation(G, h, x0) <= FEASIBILITY_TOL:
        return FeasiblePointResult(feasible=True, x=x0)

    a_ub = np.hstack([G[:n_elastic], -np.eye(n_elastic)])
    cost = np.concatenate([np.zeros(n), np.ones(n_elastic)])
    optimal, x, gap, duals, status = highs_lp(cost, a_ub, h[:n_elastic])
    if not optimal:
        raise RuntimeError(f"phase-1 LP failed unexpectedly: {status}")
    if gap <= FEASIBILITY_TOL:
        return FeasiblePointResult(feasible=True, x=np.maximum(x[:n], 0.0))
    cert = np.zeros(G.shape[0])
    cert[:n_elastic] = np.maximum(-duals, 0.0)
    return FeasiblePointResult(feasible=False, certificate=cert, gap=gap)


def highs_lp(
    c: FloatArray, A_ub: FloatArray, b_ub: FloatArray
) -> tuple[bool, FloatArray | None, float, FloatArray | None, str]:
    """Minimize ``c'x`` s.t. ``A_ub x <= b_ub`` and ``x >= 0``.

    Returns ``(optimal, x, objective, row duals, status text)``; ``x`` and
    the duals are None unless HiGHS reports an optimum.  This is the model,
    the options and the post-solve check of
    ``scipy.optimize.linprog(method="highs")``, so the answers are its bits,
    without the ~1.3 ms per small call it spends on input checks and option
    managers.  Like ``linprog``, it raises ``ValueError`` on a NaN or
    infinite entry, which HiGHS would solve around.
    """
    c, A, b_ub = (np.asarray(v, dtype=float) for v in (c, A_ub, b_ub))
    for name, v in (("c", c), ("A_ub", A), ("b_ub", b_ub)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must not contain values inf or nan")
    nrow, ncol = A.shape
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = ncol
    lp.num_row_ = lp.a_matrix_.num_row_ = nrow
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = _colwise(A)
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(ncol)
    lp.col_upper_ = np.full(ncol, np.inf)
    lp.row_lower_ = np.full(nrow, -np.inf)
    lp.row_upper_ = b_ub
    highs = _highs._Highs()
    for option, value in _LP_OPTIONS:
        highs.setOptionValue(option, value)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        model_status = _highs.HighsModelStatus.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    status = highs.modelStatusToString(model_status)
    if model_status != _highs.HighsModelStatus.kOptimal:
        return False, None, math.nan, None, status
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = highs.getInfo().objective_function_value
    slack = b_ub - np.array(solution.row_value)
    # linprog's _check_result: nothing is NaN, and rows and bounds hold within _LP_TOL.
    held = objective == objective and (x >= -_LP_TOL).all() and (slack >= -_LP_TOL).all()
    if not held:
        status = f"{status}, but the check found a NaN or a row or bound violated by over {_LP_TOL:.2e}"
    return bool(held), x, objective, np.array(solution.row_dual), status


def _colwise(A: FloatArray) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp], FloatArray]:
    """``csc_array(A)``'s ``indptr``, ``indices`` and ``data``: the entries that
    are not 0 (NaN is kept, -0.0 is not), by column, then by row."""
    cols, rows = (A.T != 0).nonzero()
    return np.searchsorted(cols, np.arange(A.shape[1] + 1)), rows, A[rows, cols]


def residual_scale(cmax: float, hx: FloatArray) -> float:
    """``1 + max|c| + max|Hx|`` from ``cmax = max|c|`` and ``hx = Hx``: the scale
    of the KKT residual, for an optimal solve and a cached piece alike."""
    return 1.0 + cmax + _max(abs(hx))


def _max_violation(G: FloatArray, h: FloatArray, x: FloatArray) -> float:
    if G.shape[0] == 0:
        return 0.0
    return float(np.max(G @ x - h, initial=0.0))


def _hscale(h: FloatArray) -> float:
    return float(np.max(np.abs(h), initial=0.0))


def _as_vector(v, name: str) -> FloatArray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _as_matrix(m, name: str, ncols: int | None = None) -> FloatArray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim == 1:
        if arr.size == 0 and ncols is not None:
            arr = arr.reshape(0, ncols)
        else:
            arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr
