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
last optimal working set of each inner program.  The programs themselves
belong to the instance (``supply_program``, ``demand_program``), and so do
their read-only rows ``prepared = (H, G, h)``, which all of its evaluators
share.  While a basis stays optimal the
minimizer is affine in p (the critical region of a parametric QP), so the
cached piece answers directly once it passes one KKT certificate (its
matrix is inverted lazily, behind a cheap screen).  Construct one evaluator
per solver run; instances themselves are immutable and shareable.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from . import qp
from .model import ModelInstance, as_price, eta_out_of_range

FloatArray = npt.NDArray[np.float64]

CERTIFY_TOL = 1e-8
# Larger max|p| skips the cached piece, whose products (linear in p, squared
# once) cannot overflow below it unless a cached entry exceeds about 1e50.
PIECE_PMAX = 1e100
_max, _min = qp._max, qp._min


class InnerSolveFailed(RuntimeError):
    """An inner quadratic program did not reach a certified optimum."""


class EtaOutOfRange(UserWarning):
    """A map step outside (0, 2 mu_F]; the projected step may be expansive."""


@dataclass(frozen=True)
class MapEvaluation:
    """Joint supply/demand/excess values at one price."""

    supply: FloatArray
    demand: FloatArray
    excess: FloatArray


def supply_problem(instance: ModelInstance, p: FloatArray) -> qp.QpProblem:
    """max p'x - x'Cx over X, written as min x'Cx - p'x."""
    return dataclasses.replace(instance.supply_program, q=-np.asarray(p, dtype=float))


def demand_problem(instance: ModelInstance, p: FloatArray) -> qp.QpProblem:
    """min p'x + x'Bx over {x in X : l'x >= M}."""
    return dataclasses.replace(instance.demand_program, q=np.asarray(p, dtype=float))


class _InnerMap:
    """``problem`` as a parametric QP in its linear term: ``c = -p`` for
    supply and ``c = p`` for demand.

    Until a solve succeeds, ``qp.solve_qp`` starts it cold (zero when
    feasible, else a phase-1 point); later solves warm-start from the last
    solution and working set.  Only the last optimal solve's working set is
    kept; its KKT matrix is rebuilt from the program's shared rows and
    inverted at the first price whose solve of it passes ``_screen``.  While
    that basis stays optimal, a new price costs a few small matrix-vector
    products plus one certificate check.
    """

    def __init__(self, kind: str, problem: qp.QpProblem):
        self.kind = kind
        self.problem = problem
        self.H, self.G, self.h = problem.prepared
        self.hscale = 1.0 + qp._hscale(self.h)
        self.last_x: FloatArray | None = None
        self.last_wset: tuple[int, ...] | None = None
        self._pending: list[int] | None = None  # working set of the last solve, not yet inverted
        self._basis = None  # (K_x, c_x, K_l, c_l, G_w_T), each at most n x max(n, w)
        self.solves = 0
        self.fast_hits = 0
        self.iterations = 0
        self.inversions = 0

    def _pending_system(self) -> tuple[FloatArray, FloatArray, FloatArray]:
        """KKT matrix, rows and right-hand side of the pending working set."""
        Gw = self.G[self._pending]
        return qp.kkt_matrix(self.H, Gw), Gw, self.h[self._pending]

    def _screen(self, neg_c: FloatArray) -> bool:
        """Whether the pending piece can be optimal at linear term -neg_c: one
        solve of its KKT system, tested 1000x looser than ``_try_basis``."""
        kkt, _, hw = self._pending_system()
        n = self.H.shape[0]
        try:
            z = np.linalg.solve(kkt, np.concatenate((neg_c, hw)))
        except np.linalg.LinAlgError:  # inv would raise on the same matrix
            self._pending = None
            return False
        x, lam = z[:n], z[n:]
        if lam.size and not _min(lam) >= -1e-6 * (1.0 + _max(abs(lam))):
            return False
        return _max(self.G.dot(x) - self.h) <= 1e-6 * self.hscale * (1.0 + _max(abs(x)))

    def _invert(self) -> None:
        # Copies of the two blocks in use let the inverse go.  A view of the
        # KKT matrix as G_w_T would have strides that take another BLAS kernel.
        (kkt, Gw, hw), self._pending = self._pending_system(), None
        n = self.H.shape[0]
        self.inversions += 1
        try:
            inv = np.linalg.inv(kkt)
        except np.linalg.LinAlgError:
            return
        self._basis = (
            inv[:n, :n].copy(),
            inv[:n, n:] @ hw,
            inv[n:, :n].copy(),
            inv[n:, n:] @ hw,
            Gw.T,
        )

    def _try_basis(self, c: FloatArray, neg_c: FloatArray, cmax: float) -> FloatArray | None:
        """The cached affine piece at linear term c, if it is certified optimal.

        Certificate: nonnegative multipliers, primal feasibility, and the
        KKT residual ``max(viol, stat)`` within ``CERTIFY_TOL`` times
        ``qp.residual_scale``, the scale on which an optimal active-set
        solve meets ``qp.DEFAULT_TOL``, so either way the point returned is
        certified to ``CERTIFY_TOL``.  Each test is written so
        that NaN fails it, as a non-finite price can make the piece NaN.
        """
        if cmax > PIECE_PMAX or self._pending is not None and not self._screen(neg_c):
            return None
        if self._pending is not None:
            self._invert()
        if self._basis is None:
            return None
        # The bench iteration counts must not drift, so every operation here
        # keeps its order and operands.  Products are .dot (the BLAS call of
        # @), bit for bit; K_x and K_l stay two products, as one stacked
        # product rounds differently (np.linalg.norm of 1-D v is
        # sqrt(v.dot(v))).  _max/_min return the reduced entry itself; they
        # may differ from np.max/np.min only in the sign of a zero, and each
        # result here is either taken of abs values or only compared.
        K_x, c_x, K_l, c_l, GwT = self._basis
        x = K_x.dot(neg_c) + c_x
        lam = K_l.dot(neg_c) + c_l
        if lam.size and not _min(lam) >= -1e-9:
            return None
        viol = max(_max(self.G.dot(x) - self.h), 0.0)
        if not viol <= 1e-9 * self.hscale:
            return None
        hx = self.H.dot(x)
        r = hx + c + GwT.dot(lam)
        stat = math.sqrt(r.dot(r))
        bound = CERTIFY_TOL * qp.residual_scale(cmax, hx)
        if not (viol <= bound and stat <= bound):
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
            sol = qp.solve_qp(dataclasses.replace(self.problem, q=c))
            if sol.status is qp.QpStatus.INFEASIBLE:
                raise InnerSolveFailed(f"the {self.kind} feasible region is empty")
        else:
            sol = qp.solve_prepared(self.H, c, self.G, self.h, self.last_x, self.last_wset)
        self.solves += 1
        self.iterations += sol.iterations
        if sol.status is qp.QpStatus.OVERFLOW:
            raise InnerSolveFailed(f"the {self.kind} program overflowed at max|p| = {cmax:.3e}")
        if sol.status is not qp.QpStatus.OPTIMAL:
            limit = sol.status is qp.QpStatus.ITER_LIMIT
            cause = "hit iteration limit" if limit else "missed the residual tolerance"
            raise InnerSolveFailed(
                f"the {self.kind} program {cause}: residual {sol.kkt_residual:.3e}"
                f" after {sol.iterations} iterations"
            )
        self.last_x = sol.x
        self.last_wset = sol.working_set
        self._pending, self._basis = list(sol.working_set), None
        return sol.x


class ExcessEvaluator:
    """Evaluates S, D, F = S - D, the projection map and the VI residual.

    The public methods and the map oracle validate the price once, with
    ``model.as_price``; everything below them works on validated arrays.
    """

    def __init__(self, instance: ModelInstance):
        self.instance = instance
        self._project = instance.domain.projector(instance.n)
        self._supply = _InnerMap("supply", instance.supply_program)
        self._demand = _InnerMap("demand", instance.demand_program)

    def supply(self, p) -> FloatArray:
        """Unique maximizer of p'x - x'Cx over X."""
        p, pmax = as_price(p, self.instance.n)
        return self._supply.evaluate(-p, p, pmax)

    def demand(self, p) -> FloatArray:
        """Unique minimizer of p'x + x'Bx over X with l'x >= M."""
        p, pmax = as_price(p, self.instance.n)
        return self._demand.evaluate(p, -p, pmax)

    def evaluate(self, p) -> MapEvaluation:
        """Supply, demand and excess at p."""
        s, d = self._both(*as_price(p, self.instance.n))
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
        if not math.isfinite(eta):
            raise ValueError("eta must be finite")
        text = eta_out_of_range(eta, self.instance.constants.mu_F)
        if text is not None:
            warnings.warn(text, EtaOutOfRange, stacklevel=3)
        return eta

    def _step(self, p: FloatArray, pmax: float, eta: float) -> FloatArray:
        s, d = self._both(p, pmax)
        return self._project(p - eta * (s - d))

    def nat_map(self, p, eta: float | None = None) -> FloatArray:
        """Projected step P_P(p - eta * F(p)); fixed points are equilibria."""
        return self._step(*as_price(p, self.instance.n), self._eta(eta))

    def vi_residual(self, p, eta: float | None = None) -> float:
        """Scaled distance ||p - nat_map(p)|| / max(||p||, 1)."""
        p, pmax = as_price(p, self.instance.n)
        r = p - self._step(p, pmax, self._eta(eta))
        return math.sqrt(r.dot(r)) / max(math.sqrt(p.dot(p)), 1.0)

    def map_oracle(self, eta: float | None = None):
        """Closure p -> nat_map(p) for the fixed-point solvers, eta fixed once."""
        eta_val = self._eta(eta)
        n, step = self.instance.n, self._step
        return lambda p: step(*as_price(p, n), eta_val)

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

    @property
    def basis_inversions(self) -> int:
        return self._supply.inversions + self._demand.inversions
