"""Supply, demand, excess and projection maps for a model instance.

``supply(p)`` maximizes revenue minus cost over X, ``demand(p)`` minimizes
outlay plus tax over X subject to the utility floor, and the excess map is
their difference.  Both inner problems are strictly convex quadratic
programs, so the maps are single valued, co-coercive and Lipschitz, and
``nat_map`` (the projected step p -> P_P(p - eta F(p))) is nonexpansive for
eta up to twice the excess map's co-coercivity modulus.  Its fixed points
are exactly the equilibrium prices, which makes the scaled distance
``vi_residual`` a computable merit for candidate equilibria.

An ``ExcessEvaluator`` owns all per-solve state: the warm start, the last
optimal working set and the one cached piece of each inner program.  The
programs themselves belong to the instance (``supply_program``,
``demand_program``), and so do their read-only rows ``prepared = (H, G, h)``
and cold starts ``phase1``, which all of its evaluators share.  While a
basis stays optimal the minimizer is affine in p (the critical region of a
parametric QP), so the cached piece answers directly once it passes one KKT
certificate (kept as the working set until a cheap screen passes, then as
its inverse blocks, floor and rates; stationarity proven once per basis from
its floor on, the sign and row tests once per ball of prices).  Below the
floor the active-set solver answers.  Use one evaluator per solver run;
instances themselves are immutable and shareable.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import numpy.typing as npt

from . import qp
from .model import ModelInstance, as_eta, as_price

FloatArray = npt.NDArray[np.float64]

CERTIFY_TOL = 1e-8
# Larger max|p| skips the cached piece, whose products (linear in p, squared
# once) cannot overflow below it unless a cached entry exceeds about 1e50.
PIECE_PMAX = 1e100
_max, _min = qp._max, qp._min


def _stationarity_floor(H: FloatArray, GwT: FloatArray, blocks) -> float:
    """The least max|c| from which the piece ``blocks`` of working-set rows
    ``GwT'`` is stationary to CERTIFY_TOL (1 + max|c|) at every c, whatever
    the rounding; else +inf.  In Higham's (2002, section 3.1) rounding model,
    for any summation order, the computed ||H x + c + G_w' lam|| <= a + b
    max|c|, and from the floor on that is at most tau (1 + max|c|), half that
    bound.  README derives a and b."""
    K_x, c_x, K_l, c_l = blocks
    top, K, c0 = np.hstack((H, GwT)), np.vstack((K_x, K_l)), np.concatenate((c_x, c_l))
    ku = (2 * top.shape[1] + 3) * 2.0**-53  # k u, k = 2 (n + w) + 3 roundings
    g, tau, sqrt_n = 2.0 * ku / (1.0 - ku), 0.5 * CERTIFY_TOL, math.sqrt(len(H))  # g = 2 gamma
    with np.errstate(all="ignore"):  # a block that overflows here has no floor
        abs_top, rows_K = abs(top), abs(K).sum(1)
        R = np.eye(len(H)) - top @ K
        b = sqrt_n * _max(abs(R).sum(1) + g * (1.0 + abs_top @ rows_K)) + g * _max(rows_K)
        a = sqrt_n * _max(abs(top @ c0) + g * (abs_top @ abs(c0))) + g * _max(abs(c0))
    return max(a - tau, 0.0) / (tau - b) if b < tau and a < math.inf else math.inf


def _trust_rates(G: FloatArray, h: FloatArray, hscale: float, blocks) -> tuple:
    """``_InnerMap._recenter``'s constants for the piece ``blocks``: 1 / the l1
    norm of each row of K_l and of G K_x (bounds, floored at 2^-600), and each
    test's slack over the rounding, s0 - s1 max|c|.  README derives them."""
    K_x, c_x, K_l, c_l = blocks
    g = (len(K_x) + 1) * 2.0**-53
    eps, shrink, thr = 8.0 * g / (1.0 - g), 1.0 - 2.0**-20, min(1e-9 * hscale, CERTIFY_TOL)
    with np.errstate(all="ignore"):  # a non-finite piece has no floor, so no radius
        abs_G, rows_l = abs(G), abs(K_l).sum(1)
        P = abs_G @ abs(K_x).sum(1)  # >= |G K_x| 1
        norms = (rows_l, abs(G @ K_x).sum(1) + eps * P)
        inv_l, inv_r = (1.0 / np.maximum((1.0 + 2.0**-20) * v, 2.0**-600) for v in norms)
        kl, cl = float(np.max(rows_l, initial=0.0)), float(np.max(abs(c_l), initial=0.0))
        pm, gc, hm = _max(P), _max(abs_G @ abs(c_x)), _max(abs(h))
    return (inv_l, shrink * 1e-9 - eps * (3.0 * kl + cl), 3.0 * eps * kl,
            inv_r, shrink * thr - eps * (3.0 * pm + gc + hm), 3.0 * eps * pm)


class InnerSolveFailed(RuntimeError):
    """An inner quadratic program did not reach a certified optimum."""


class EtaOutOfRange(UserWarning):
    """A map step above 2 mu_F; the projected step may be expansive."""


@dataclasses.dataclass(frozen=True, slots=True)
class MapEvaluation:
    """Supply and demand at one price; ``excess``, their difference, is not
    stored but recomputed on each access (the same bits every time)."""

    supply: FloatArray
    demand: FloatArray
    excess = property(lambda self: self.supply - self.demand)


def supply_problem(instance: ModelInstance, p: FloatArray) -> qp.QpProblem:
    """max p'x - x'Cx over X, written as min x'Cx - p'x."""
    return dataclasses.replace(instance.supply_program, q=-np.asarray(p, dtype=float))


def demand_problem(instance: ModelInstance, p: FloatArray) -> qp.QpProblem:
    """min p'x + x'Bx over {x in X : l'x >= M}."""
    return dataclasses.replace(instance.demand_program, q=np.asarray(p, dtype=float))


class _InnerMap:
    """``problem`` as a parametric QP in its linear term: ``c = -p`` for
    supply and ``c = p`` for demand.

    Until a solve succeeds, it starts cold from the program's ``phase1``
    (zero when feasible, else a phase-1 point); later solves warm-start from
    the last solution and working set.  ``_piece`` is the one cached piece:
    None, the last optimal solve's working set as a list, or, once a price's
    solve of its KKT system passes ``_screen``, the inverted tuple ``(K_x,
    c_x, K_l, c_l, floor, rates)``, its KKT matrix rebuilt from the
    program's shared rows.  While that basis stays optimal, a new price
    costs a few small matrix-vector products plus one certificate check, and
    none while the steps since the last checked hit stay within its
    ``_recenter``.
    """

    def __init__(self, kind: str, problem: qp.QpProblem):
        self.kind = kind
        self.problem = problem
        self.H, self.G, self.h = problem.prepared
        self.hscale = 1.0 + _max(abs(self.h))
        self.last_x: FloatArray | None = None
        self.last_wset: tuple[int, ...] | None = None
        self._piece: list[int] | tuple | None = None  # inverted blocks at most n x max(n, w)
        self._budget = -math.inf  # the last _recenter's radius, less the steps since
        self.solves = 0
        self.fast_hits = 0
        self.trusted = 0  # fast hits whose sign and row tests the budget proved
        self.iterations = 0
        self.inversions = 0

    def _screen(self, neg_c: FloatArray) -> bool:
        """Whether the pending piece can be optimal at linear term -neg_c: one
        solve of its KKT system, tested 1000x looser than ``_try_basis``.  A
        piece that passes is inverted in place; a singular one is dropped."""
        wset, n = self._piece, self.H.shape[0]
        Gw, hw = self.G[wset], self.h[wset]
        kkt = qp.kkt_matrix(self.H, Gw)
        try:  # if solve raises, inv would raise on the same matrix
            z = np.linalg.solve(kkt, np.concatenate((neg_c, hw)))
            x, lam = z[:n], z[n:]
            if lam.size and not _min(lam) >= -1e-6 * (1.0 + _max(abs(lam))):
                return False
            if not _max(self.G.dot(x) - self.h) <= 1e-6 * self.hscale * (1.0 + _max(abs(x))):
                return False
            self.inversions += 1
            inv = np.linalg.inv(kkt)
        except np.linalg.LinAlgError:
            self._piece = None
            return False
        # Copies of the two blocks in use let the inverse go.
        blocks = (inv[:n, :n].copy(), inv[:n, n:] @ hw, inv[n:, :n].copy(), inv[n:, n:] @ hw)
        floor = _stationarity_floor(self.H, Gw.T, blocks)
        self._piece = (*blocks, floor, _trust_rates(self.G, self.h, self.hscale, blocks))
        return True

    def _try_basis(self, neg_c: FloatArray, cmax: float, step: float):
        """The cached affine piece at linear term -neg_c, if it is certified optimal.

        Certificate: max|c| from the piece's stationarity floor on, which
        proves stationarity to CERTIFY_TOL (1 + max|c|), nonnegative
        multipliers, and a row violation within that bound, the least value
        of the scale on which an optimal active-set solve meets
        ``qp.DEFAULT_TOL``; either way the point is certified to CERTIFY_TOL.
        Below the floor, or with none, the solver answers; within the budget
        no test runs.  Each test fails on NaN, as a non-finite price can make
        the piece NaN.
        """
        if cmax > PIECE_PMAX:
            self._budget = -math.inf
            return None
        self._budget = self._budget * (1.0 - 2.0**-30) - step  # the shrink outweighs rounding
        piece = self._piece
        if self._budget >= 0.0 and piece[4] <= cmax:  # a budget implies an inverted piece
            self.trusted += 1
            return piece[0].dot(neg_c) + piece[1]
        self._budget = -math.inf
        if type(piece) is list:
            if not self._screen(neg_c):
                return None
            piece = self._piece
        if piece is None or not piece[4] <= cmax:
            return None
        # The bench iteration counts must not drift, so every operation here
        # keeps its order and operands.  Products are .dot (the BLAS call of
        # @), bit for bit; K_x and K_l stay two products, as one stacked
        # product rounds differently.  _max/_min return the reduced entry
        # itself; they may differ from np.max/np.min only in the sign of a
        # zero, and each result here is either taken of abs values or only
        # compared.
        K_x, c_x, K_l, c_l, _, rates = piece
        x = K_x.dot(neg_c) + c_x
        lam = K_l.dot(neg_c) + c_l
        if lam.size and not _min(lam) >= -1e-9:
            return None
        r = self.G.dot(x) - self.h
        viol = max(_max(r), 0.0)
        if not (viol <= 1e-9 * self.hscale and viol <= CERTIFY_TOL * (1.0 + cmax)):
            return None
        self._recenter(lam, r, cmax, rates)
        return x

    def _recenter(self, lam: FloatArray, r: FloatArray, cmax: float, rates: tuple) -> None:
        """Budget a radius in max|c|, at most cmax + 1, within which the sign and
        row tests that just gave ``lam`` and ``r`` on the piece of ``rates`` pass."""
        inv_l, l0, l1, inv_r, r0, r1 = rates
        s_l, s_r = l0 - l1 * cmax, r0 - r1 * cmax
        if s_l > 0.0 and s_r > 0.0:
            rho = min(cmax + 1.0, _min((s_r - r) * inv_r))
            if lam.size:
                rho = min(rho, _min((lam + s_l) * inv_l))
            self._budget = rho

    def evaluate(self, c: FloatArray, neg_c: FloatArray, cmax: float, step: float) -> FloatArray:
        """Return the minimizer at linear term c.

        ``neg_c`` is ``-c`` and ``cmax`` is ``max|c|``; the caller computes
        both once per price for the two inner programs, and ``step``, at least
        (1 - 2^-53) max|c - c'| for the last c' this map answered (or inf).
        """
        x = self._try_basis(neg_c, cmax, step)
        if x is not None:
            self.fast_hits += 1
            self.last_x = x
            return x
        if self.last_x is None and not self.problem.phase1.feasible:
            raise InnerSolveFailed(f"the {self.kind} feasible region is empty")
        x0 = self.problem.phase1.x if self.last_x is None else self.last_x
        sol = qp.solve_prepared(self.H, c, self.G, self.h, x0, self.last_wset)
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
        self._piece = list(sol.working_set)
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
        self._prev = None  # -p of the last price both programs answered in _both

    def supply(self, p) -> FloatArray:
        """Unique maximizer of p'x - x'Cx over X."""
        p, pmax = as_price(p, self.instance.n)
        self._prev = None
        return self._supply.evaluate(-p, p, pmax, math.inf)

    def demand(self, p) -> FloatArray:
        """Unique minimizer of p'x + x'Bx over X with l'x >= M."""
        p, pmax = as_price(p, self.instance.n)
        self._prev = None
        return self._demand.evaluate(p, -p, pmax, math.inf)

    def evaluate(self, p) -> MapEvaluation:
        """Supply, demand and excess at p."""
        return MapEvaluation(*self._both(*as_price(p, self.instance.n)))

    def _both(self, p: FloatArray, pmax: float) -> tuple[FloatArray, FloatArray]:
        """Supply and demand at p; one negation of p.

        |-p| = |p|, so max|p| is the certificate's max|c| for both programs,
        and max|-p - prev| the step both spend; ``prev`` is our own -p, set
        only once both have answered.
        """
        neg_p, prev, self._prev = -p, self._prev, None
        step = math.inf if prev is None else _max(abs(neg_p - prev))
        s = self._supply.evaluate(neg_p, p, pmax, step)
        d = self._demand.evaluate(p, neg_p, pmax, step)
        self._prev = neg_p
        return s, d

    # -- derived maps ------------------------------------------------------

    def _eta(self, eta: float | None) -> float:
        """The step to use, the instance's or ``eta``; warns when it is above 2 mu_F."""
        c = self.instance.constants
        eta, text = as_eta(c.eta if eta is None else eta, c.mu_F)
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

    @property
    def trusted_hits(self) -> int:
        return self._supply.trusted + self._demand.trusted
