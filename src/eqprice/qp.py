"""Dense active-set solver for small strictly convex quadratic programs.

The programs solved here all have the shape

    minimize    x' Q x + q' x
    subject to  A x <= b,  g' x >= M (optional),  x >= 0 (optional)

with Q symmetric positive definite, so the minimizer is unique and the
primal active-set method terminates at a machine-precision KKT point.
``check_kkt`` re-derives optimality from scratch (least-squares multiplier
fit on the active set) and serves as an independent certificate for any
candidate point, whatever produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import numpy.typing as npt
from scipy.optimize import linprog

FloatArray = npt.NDArray[np.float64]

DEFAULT_TOL = 1e-9
# Relaxation applied to the right-hand side of rows in a degenerate
# (linearly dependent) working set before re-solving.
DEGENERACY_BUMP = 1e-12


class QpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITER_LIMIT = "iter_limit"


@dataclass(frozen=True)
class QpProblem:
    """One strictly convex QP over a polyhedron.

    Objective is ``x' Q x + q' x`` (note: Q itself, not Q/2).  Constraints
    are ``A x <= b`` plus an optional utility floor ``g' x >= M`` and an
    optional nonnegativity flag.
    """

    Q: FloatArray
    q: FloatArray
    A: FloatArray
    b: FloatArray
    floor: tuple[FloatArray, float] | None = None
    nonneg: bool = True

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


@dataclass(frozen=True)
class FeasiblePointResult:
    """Phase-1 outcome: a feasible point or a Farkas-type certificate.

    When infeasible, ``certificate`` holds nonnegative multipliers over the
    rows of the normalized system ``G x <= h`` (see ``inequality_rows``)
    whose combination proves emptiness: y >= 0, y'G >= 0 on the
    nonnegative orthant (== 0 for free variables) and y'h < 0.
    """

    feasible: bool
    x: FloatArray | None = None
    certificate: FloatArray | None = None
    gap: float = 0.0


def inequality_rows(
    A: FloatArray,
    b: FloatArray,
    floor: tuple[FloatArray, float] | None,
    nonneg: bool,
    n: int,
) -> tuple[FloatArray, FloatArray]:
    """Normalize all constraints to ``G x <= h``.

    Row order: the rows of A, then the floor row (as -g' x <= -M), then
    -e_j' x <= 0 for each coordinate when ``nonneg``.  Every row index
    reported by the solver refers to this ordering.
    """
    blocks_g = [np.asarray(A, dtype=float).reshape(-1, n)]
    blocks_h = [np.asarray(b, dtype=float).reshape(-1)]
    if floor is not None:
        g, m_floor = floor
        blocks_g.append(-np.asarray(g, dtype=float).reshape(1, n))
        blocks_h.append(np.array([-float(m_floor)]))
    if nonneg:
        blocks_g.append(-np.eye(n))
        blocks_h.append(np.zeros(n))
    return np.vstack(blocks_g), np.concatenate(blocks_h)


def problem_rows(problem: QpProblem) -> tuple[FloatArray, FloatArray]:
    return inequality_rows(problem.A, problem.b, problem.floor, problem.nonneg, problem.n)


def solve_qp(
    problem: QpProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    start: FloatArray | None = None,
    working_set: tuple[int, ...] | None = None,
) -> QpSolution:
    """Minimize ``x'Qx + q'x`` over the problem's polyhedron.

    Parameters
    ----------
    problem : QpProblem
        Problem data; Q must be symmetric positive definite.
    tol : float
        Acceptance bound on the KKT residual of the returned point.
    max_iter : int, optional
        Active-set iteration cap; defaults to ``50 * (n + #rows)``.
    start : array, optional
        Feasible warm start.  When omitted (or infeasible) a phase-1
        linear program supplies one, and an infeasibility certificate is
        returned if none exists.
    working_set : tuple of int, optional
        Initial guess of the binding row indices (best effort).

    Returns
    -------
    QpSolution
        ``status == OPTIMAL`` guarantees ``kkt_residual <= tol`` and primal
        feasibility within ``tol``.
    """
    G, h = problem_rows(problem)
    n = problem.n
    x0 = None
    if start is not None:
        cand = np.asarray(start, dtype=float).reshape(-1)
        if cand.shape[0] == n and _max_violation(G, h, cand) <= 1e-8 * (1.0 + _hscale(h)):
            x0 = cand
    if x0 is None:
        phase1 = feasible_point(problem.A, problem.b, problem.floor, problem.nonneg, n=n)
        if not phase1.feasible:
            return QpSolution(
                x=np.zeros(n),
                kkt_residual=np.inf,
                iterations=0,
                status=QpStatus.INFEASIBLE,
                certificate=phase1.certificate,
            )
        x0 = phase1.x
    H = problem.Q + problem.Q.T  # 2Q, symmetrized
    return solve_prepared(H, problem.q, G, h, x0, working_set, max_iter, tol)


def solve_prepared(
    H: FloatArray,
    c: FloatArray,
    G: FloatArray,
    h: FloatArray,
    x0: FloatArray,
    working_set: tuple[int, ...] | None = None,
    max_iter: int | None = None,
    tol: float = DEFAULT_TOL,
) -> QpSolution:
    """Active-set solve on prebuilt rows ``G x <= h`` with ``H = 2Q``.

    Warm-start entry for callers that evaluate one polyhedron at many
    linear terms; ``x0`` must be feasible.  ``max_iter`` defaults to
    ``50 * (n + #rows)``.
    """
    if max_iter is None:
        max_iter = 50 * (H.shape[0] + G.shape[0])
    x, lam, wset, iters, converged = _active_set(H, c, G, h, x0, working_set, max_iter)
    residual = _kkt_residual_on_set(H, c, G, h, x, lam, wset)
    status = (
        QpStatus.OPTIMAL
        if converged and residual <= tol * _residual_scale(H, c, x)
        else QpStatus.ITER_LIMIT
    )
    return QpSolution(
        x=x,
        kkt_residual=residual,
        iterations=iters,
        status=status,
        working_set=tuple(wset),
    )


def _active_set(
    H: FloatArray,
    c: FloatArray,
    G: FloatArray,
    h0: FloatArray,
    x0: FloatArray,
    working_set: tuple[int, ...] | None,
    max_iter: int,
) -> tuple[FloatArray, FloatArray, list[int], int, bool]:
    """Primal active-set loop.  Returns (x, multipliers, set, iters, ok)."""
    n = H.shape[0]
    h = h0.copy()
    hs = 1.0 + _hscale(h)
    x = x0.copy()
    wset = _initial_working_set(G, h, x, working_set, n)
    lam = np.zeros(0)
    bump = DEGENERACY_BUMP
    bump_rounds = 0
    it = 0
    while it < max_iter:
        it += 1
        grad = H @ x + c
        grad_scale = float(abs(grad).max())
        sol = _kkt_step(H, G, grad, grad_scale, wset)
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
            continue
        d, lam = sol
        at_optimum = float(abs(d).max()) <= 1e-12 * (1.0 + float(abs(x).max()))
        if not at_optimum:
            # Ratio test over rows not in the working set.
            Gd = G @ d
            eligible = Gd > 1e-13 * hs
            if wset:
                eligible[wset] = False
            alpha = 1.0
            blocking = -1
            if eligible.any():
                slack = np.maximum(h - G @ x, 0.0)
                ratios = np.full(G.shape[0], np.inf)
                ratios[eligible] = slack[eligible] / Gd[eligible]
                i_min = int(ratios.argmin())
                if ratios[i_min] < alpha:
                    alpha = float(ratios[i_min])
                    blocking = i_min
            x = x + alpha * d
            if blocking >= 0:
                wset.append(blocking)
                continue
            # Full step: x now minimizes on the working set and ``lam``
            # holds its multipliers, so fall through to the sign test
            # rather than re-deriving a roundoff-sized step next round.
        # Optimal unless some working-set multiplier is clearly negative;
        # otherwise drop the row with the most negative one.
        if lam.size == 0 or float(lam.min()) >= -1e-10 * (1.0 + grad_scale):
            return x, lam, wset, it, True
        drop = wset[int(lam.argmin())]
        wset = [i for i in wset if i != drop]
    return x, lam, wset, it, False


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
        wset = [i for i in requested if 0 <= i < G.shape[0] and active[i]]
    for i in np.flatnonzero(active):
        i = int(i)
        if len(wset) >= n:
            break
        if i not in wset:
            wset.append(i)
    return wset[:n]


def _kkt_step(
    H: FloatArray,
    G: FloatArray,
    grad: FloatArray,
    grad_scale: float,
    wset: list[int],
) -> tuple[FloatArray, FloatArray] | None:
    """Solve the equality-constrained step; None signals a singular system.

    ``grad_scale`` is ``max|grad|``, which equals ``max|rhs|`` of the KKT
    system since the right-hand side is ``[-grad; 0]``.
    """
    n = H.shape[0]
    w = len(wset)
    if w == 0:
        try:
            d = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            return None
        return d, np.zeros(0)
    Gw = G[wset]
    kkt = np.zeros((n + w, n + w))
    kkt[:n, :n] = H
    kkt[:n, n:] = Gw.T
    kkt[n:, :n] = Gw
    rhs = np.zeros(n + w)
    rhs[:n] = -grad
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(sol).all():
        return None
    # Reject solutions of nearly singular systems that fail to solve.
    err = float(abs(kkt @ sol - rhs).max())
    scale = 1.0 + grad_scale + float(abs(sol).max())
    if err > 1e-7 * scale:
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
) -> float:
    """KKT residual of the active-set iterate, with the solver's multipliers.

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
        if lam.size != len(wset):
            # Interrupted before multipliers were refreshed; refit them.
            lam, *_ = np.linalg.lstsq(G[wset].T, -grad, rcond=None)
        stat = grad + G[wset].T @ lam
        neg = float(max(0.0, -lam.min()))
        comp = float(np.max(np.abs(lam * (G[wset] @ x - h[wset])), initial=0.0))
    else:
        stat = grad
        neg = 0.0
        comp = 0.0
    return max(primal, float(np.linalg.norm(stat)), neg, comp)


def check_kkt(problem: QpProblem, x: FloatArray, tol: float = 1e-8) -> float:
    """Independent optimality certificate for a candidate point.

    Finds the active rows at ``x``, fits multipliers by least squares and
    returns the largest of primal infeasibility, stationarity residual,
    multiplier negativity and complementarity gap.  Zero (up to ``tol``)
    exactly when ``x`` is the minimizer.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    G, h = problem_rows(problem)
    viol = G @ x - h
    primal = float(np.max(viol, initial=0.0))
    grad = problem.gradient(x)
    act_tol = max(10.0 * tol, 1e-9)
    active = np.flatnonzero(viol >= -act_tol * (1.0 + np.abs(h)))
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
    floor: tuple[FloatArray, float] | None = None,
    nonneg: bool = True,
    n: int | None = None,
    tol: float = 1e-9,
) -> FeasiblePointResult:
    """Find x with ``Ax <= b``, optional ``g'x >= M`` and optional ``x >= 0``.

    Uses an elastic linear program (minimize total constraint violation);
    a strictly positive optimum proves emptiness and its dual multipliers
    are returned as the certificate.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1) if A.size else A.reshape(0, 0)
    b = np.asarray(b, dtype=float).reshape(-1)
    if n is None:
        if A.size:
            n = A.shape[1]
        elif floor is not None:
            n = np.asarray(floor[0]).size
        else:
            raise ValueError("cannot infer dimension, pass n")
    if A.size == 0:
        A = A.reshape(0, n)

    G, h = inequality_rows(A, b, floor, nonneg, n)
    # Nonnegativity goes through linprog bounds, not elastic rows.
    n_elastic = A.shape[0] + (1 if floor is not None else 0)
    x0 = np.zeros(n)
    if _max_violation(G, h, x0) <= tol:
        return FeasiblePointResult(feasible=True, x=x0)

    G_el = G[:n_elastic]
    h_el = h[:n_elastic]
    a_ub = np.hstack([G_el, -np.eye(n_elastic)])
    cost = np.concatenate([np.zeros(n), np.ones(n_elastic)])
    bounds = [(0.0, None) if nonneg else (None, None)] * n + [(0.0, None)] * n_elastic
    res = linprog(cost, A_ub=a_ub, b_ub=h_el, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"phase-1 LP failed unexpectedly: {res.message}")
    if res.fun <= tol:
        x = np.asarray(res.x[:n], dtype=float)
        if nonneg:
            x = np.maximum(x, 0.0)
        return FeasiblePointResult(feasible=True, x=x)
    y = np.maximum(-np.asarray(res.ineqlin.marginals, dtype=float), 0.0)
    cert = np.zeros(G.shape[0])
    cert[:n_elastic] = y
    return FeasiblePointResult(feasible=False, certificate=cert, gap=float(res.fun))


def _residual_scale(H: FloatArray, c: FloatArray, x: FloatArray) -> float:
    """Natural magnitude of KKT quantities at x (for relative tolerances)."""
    return (
        1.0
        + float(np.max(np.abs(c), initial=0.0))
        + float(np.max(np.abs(H @ x), initial=0.0))
    )


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
