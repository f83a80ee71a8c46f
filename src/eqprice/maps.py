"""Supply, demand, excess and projection maps for a model instance.

``supply(p)`` maximizes revenue minus cost over X, ``demand(p)`` minimizes
outlay plus tax over X subject to the utility floor, and the excess map is
their difference.  Both inner problems are strictly convex quadratic
programs, so the maps are single valued, co-coercive and Lipschitz, and
``nat_map`` (the projected step p -> P_P(p - eta F(p))) is nonexpansive for
eta up to twice the excess map's co-coercivity modulus.  Its fixed points
are exactly the equilibrium prices, which makes the scaled distance
``vi_residual`` a computable merit for candidate equilibria.

An ``ExcessEvaluator`` owns all per-solve state: the warm start and the
last optimal basis of each inner program.  While a basis stays optimal the
minimizer is affine in p (the critical region of a parametric QP), so the
cached piece answers directly once it passes one KKT certificate.
Construct one evaluator per solver run; instances themselves are immutable
and shareable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from . import qp
from .model import ModelInstance

FloatArray = npt.NDArray[np.float64]

CERTIFY_TOL = 1e-8


class InnerSolveFailed(RuntimeError):
    """An inner quadratic program did not reach a certified optimum."""


@dataclass(frozen=True)
class MapEvaluation:
    """Joint supply/demand/excess values at one price."""

    supply: FloatArray
    demand: FloatArray
    excess: FloatArray


def supply_problem(instance: ModelInstance, p: FloatArray) -> qp.QpProblem:
    """max p'x - x'Cx over X, written as min x'Cx - p'x."""
    return qp.QpProblem(
        Q=instance.costs.C,
        q=-np.asarray(p, dtype=float),
        A=instance.feasible.A,
        b=instance.feasible.b,
        nonneg=True,
    )


def demand_problem(instance: ModelInstance, p: FloatArray) -> qp.QpProblem:
    """min p'x + x'Bx over {x in X : l'x >= M}."""
    return qp.QpProblem(
        Q=instance.costs.B,
        q=np.asarray(p, dtype=float),
        A=instance.feasible.A,
        b=instance.feasible.b,
        floor=(instance.costs.l, instance.costs.M),
        nonneg=True,
    )


class _InnerMap:
    """One parametric QP ``min x'Qx + c'x`` over ``{x >= 0 : Ax <= b}``.

    ``floor`` optionally adds the utility floor ``l'x >= M``.  Keeps the
    constraint rows, the last solution (feasible for every p; before the
    first solve a cold start, zero when feasible, else a phase-1 point) and
    the inverted KKT matrix of the last optimal basis.  While that basis
    stays optimal, a new price costs a few small matrix-vector products
    plus one certificate check.  The linear term is ``c = -p`` for supply
    and ``c = p`` for demand.
    """

    def __init__(
        self,
        kind: str,
        Q: FloatArray,
        A: FloatArray,
        b: FloatArray,
        floor: tuple[FloatArray, float] | None,
    ):
        n = Q.shape[0]
        self.kind = kind
        self.H = Q + Q.T
        self.A, self.b, self.floor = A, b, floor
        self.G, self.h = qp.inequality_rows(A, b, floor, True, n)
        self.max_iter: int | None = None  # None: the active-set solver's default cap
        self.hscale = 1.0 + float(np.max(np.abs(self.h), initial=0.0))
        zero = np.zeros(n)
        self.last_x: FloatArray | None = (
            zero if qp._max_violation(self.G, self.h, zero) <= 1e-12 else None
        )
        self.last_wset: tuple[int, ...] | None = None
        self._basis = None  # (K_x, c_x, K_l, c_l, G_w_T)
        self.solves = 0
        self.fast_hits = 0
        self.iterations = 0

    def _refresh_basis(self, wset: tuple[int, ...]) -> None:
        n = self.H.shape[0]
        w = len(wset)
        idx = list(wset)
        kkt = np.zeros((n + w, n + w))
        kkt[:n, :n] = self.H
        if w:
            kkt[:n, n:] = self.G[idx].T
            kkt[n:, :n] = self.G[idx]
        try:
            inv = np.linalg.inv(kkt)
        except np.linalg.LinAlgError:
            self._basis = None
            return
        hw = self.h[idx] if w else np.zeros(0)
        self._basis = (
            inv[:n, :n],
            inv[:n, n:] @ hw if w else np.zeros(n),
            inv[n:, :n],
            inv[n:, n:] @ hw if w else np.zeros(0),
            self.G[idx].T if w else np.zeros((n, 0)),
        )

    def _try_basis(self, c: FloatArray, neg_c: FloatArray, cmax: float) -> FloatArray | None:
        """The cached affine piece at linear term c, if it is certified optimal.

        Certificate: nonnegative multipliers, primal feasibility, and the
        KKT residual ``max(viol, stat)`` within ``CERTIFY_TOL * s`` with
        ``s = 1 + max|c| + max|Hx|``.  That is the scale on which an optimal
        active-set solve meets ``qp.DEFAULT_TOL``, so either way the point
        returned is certified to ``CERTIFY_TOL``.
        """
        if self._basis is None:
            return None
        # The bench iteration counts must not drift, so every operation here
        # keeps its order and operands: K_x and K_l stay two products, as one
        # product with the stacked [K_x; K_l] rounds differently, and the
        # method reductions below are bit for bit the numpy wrappers
        # (np.linalg.norm of a 1-D float array is sqrt(v.dot(v))).
        K_x, c_x, K_l, c_l, GwT = self._basis
        x = K_x @ neg_c + c_x
        lam = K_l @ neg_c + c_l
        if lam.size and float(lam.min()) < -1e-9:
            return None
        viol = max(float((self.G @ x - self.h).max()), 0.0)
        if viol > 1e-9 * self.hscale:
            return None
        hx = self.H @ x
        r = hx + c + GwT @ lam
        stat = math.sqrt(r.dot(r))
        scale = 1.0 + cmax + float(abs(hx).max())
        if max(viol, stat) > CERTIFY_TOL * scale:
            return None
        return x

    def evaluate(self, c: FloatArray, neg_c: FloatArray, cmax: float) -> FloatArray:
        """Return the minimizer at linear term c.

        ``neg_c`` is ``-c`` and ``cmax`` is ``max|c|``; the caller computes
        both once per price for the two inner programs.
        """
        x = self._try_basis(c, neg_c, cmax)
        if x is not None:
            self.fast_hits += 1
            self.last_x = x
            return x
        if self.last_x is None:
            n = self.H.shape[0]
            res = qp.feasible_point(self.A, self.b, floor=self.floor, nonneg=True, n=n)
            if not res.feasible:
                raise InnerSolveFailed(f"the {self.kind} feasible region is empty")
            self.last_x = res.x
        sol = qp.solve_prepared(
            self.H,
            c,
            self.G,
            self.h,
            self.last_x,
            working_set=self.last_wset,
            max_iter=self.max_iter,
        )
        self.solves += 1
        self.iterations += sol.iterations
        if sol.status is not qp.QpStatus.OPTIMAL:
            raise InnerSolveFailed(
                f"inner program hit iteration limit (residual {sol.kkt_residual:.3e})"
            )
        self.last_x = sol.x
        self.last_wset = sol.working_set
        self._refresh_basis(sol.working_set)
        return sol.x


class ExcessEvaluator:
    """Evaluates S, D, F = S - D, the projection map and the VI residual.

    The public methods and the map oracle validate the price once, in
    ``_price``; everything below them works on validated arrays.
    """

    def __init__(self, instance: ModelInstance):
        self.instance = instance
        costs, feasible = instance.costs, instance.feasible
        self._supply = _InnerMap("supply", costs.C, feasible.A, feasible.b, None)
        self._demand = _InnerMap("demand", costs.B, feasible.A, feasible.b, (costs.l, costs.M))

    def _price(self, p) -> tuple[FloatArray, float]:
        """The price as a 1-D float array of length n, and its max|p|.

        max|p| is non-finite exactly when some entry is, so it doubles as
        the finiteness check.
        """
        p = np.asarray(p, dtype=float).reshape(-1)
        if p.shape[0] != self.instance.n:
            raise ValueError(f"price vector has length {p.shape[0]}, expected {self.instance.n}")
        pmax = float(abs(p).max())
        if not math.isfinite(pmax):
            raise ValueError("price vector has non-finite entries")
        return p, pmax

    def supply(self, p) -> FloatArray:
        """Unique maximizer of p'x - x'Cx over X."""
        p, pmax = self._price(p)
        return self._supply.evaluate(-p, p, pmax)

    def demand(self, p) -> FloatArray:
        """Unique minimizer of p'x + x'Bx over X with l'x >= M."""
        p, pmax = self._price(p)
        return self._demand.evaluate(p, -p, pmax)

    def evaluate(self, p) -> MapEvaluation:
        """Supply, demand and excess at p."""
        s, d = self._both(*self._price(p))
        return MapEvaluation(supply=s, demand=d, excess=s - d)

    def _both(self, p: FloatArray, pmax: float) -> tuple[FloatArray, FloatArray]:
        """Supply and demand at p; one negation of p.

        |-p| = |p|, so max|p| is the certificate's max|c| for both programs.
        """
        neg_p = -p
        return self._supply.evaluate(neg_p, p, pmax), self._demand.evaluate(p, neg_p, pmax)

    # -- derived maps ------------------------------------------------------

    def _eta(self, eta: float | None) -> float:
        if eta is None:
            return self.instance.constants.eta
        eta = float(eta)
        bound = 2.0 * self.instance.constants.mu_F
        if not 0.0 < eta <= bound + 1e-12:
            warnings.warn(
                f"eta = {eta:g} outside (0, {bound:g}]; the projected step may be expansive",
                stacklevel=3,
            )
        return eta

    def _step(self, p: FloatArray, pmax: float, eta: float) -> FloatArray:
        s, d = self._both(p, pmax)
        return self.instance.domain.project(p - eta * (s - d))

    def nat_map(self, p, eta: float | None = None) -> FloatArray:
        """Projected step P_P(p - eta * F(p)); fixed points are equilibria."""
        return self._step(*self._price(p), self._eta(eta))

    def vi_residual(self, p, eta: float | None = None) -> float:
        """Scaled distance ||p - nat_map(p)|| / max(||p||, 1)."""
        p, pmax = self._price(p)
        r = p - self._step(p, pmax, self._eta(eta))
        return math.sqrt(r.dot(r)) / max(math.sqrt(p.dot(p)), 1.0)

    def map_oracle(self, eta: float | None = None):
        """Closure p -> nat_map(p) for the fixed-point solvers, eta fixed once."""
        eta_val = self._eta(eta)
        price, step = self._price, self._step
        return lambda p: step(*price(p), eta_val)

    # -- counters ----------------------------------------------------------

    @property
    def qp_solves(self) -> int:
        return self._supply.solves + self._demand.solves

    @property
    def fast_hits(self) -> int:
        return self._supply.fast_hits + self._demand.fast_hits

    @property
    def inner_iterations(self) -> int:
        return self._supply.iterations + self._demand.iterations
