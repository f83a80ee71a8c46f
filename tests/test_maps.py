"""Supply/demand/excess maps, the projection step and their properties."""

import collections
import contextlib
import copy
import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqprice import maps, qp
from eqprice.cli import trial_seed
from eqprice.gen import GenConfig, random_instance
from eqprice.maps import EtaOutOfRange, ExcessEvaluator, InnerSolveFailed
from eqprice.model import AgentCosts, FeasibleSet, ModelInstance, PriceDomain, validate_instance
from eqprice.solver import Objective, Termination, bilevel_solve
from conftest import make_combined_1d, make_saturated_1d
from oracles import random_qp


def count_calls(monkeypatch, *names) -> collections.Counter:
    """Count the calls of these ``qp`` functions, which go through the module."""
    calls = collections.Counter()
    for name in names:
        real = getattr(qp, name)
        monkeypatch.setattr(
            qp, name, lambda *a, real=real, name=name, **kw: (calls.update([name]), real(*a, **kw))[1]
        )
    return calls


class TestSupply:
    def test_interior_stationary_point(self, combined_1d):
        """max 4x - x^2 on [0,10] => x = 2"""
        np.testing.assert_allclose(ExcessEvaluator(combined_1d).supply([4.0]), [2.0], atol=1e-9)

    def test_clipped_by_capacity(self, combined_1d):
        """p=30: stationary point 15 clipped to 10"""
        np.testing.assert_allclose(ExcessEvaluator(combined_1d).supply([30.0]), [10.0], atol=1e-9)

    def test_negative_price_supplies_nothing(self, combined_1d):
        np.testing.assert_allclose(ExcessEvaluator(combined_1d).supply([-2.0]), [0.0], atol=1e-9)


class TestDemand:
    def test_floor_binds_at_positive_price(self, combined_1d):
        """min x + x^2 with x>=2 => floor active"""
        np.testing.assert_allclose(ExcessEvaluator(combined_1d).demand([1.0]), [2.0], atol=1e-9)

    def test_interior_at_negative_price(self, combined_1d):
        """min -6x + x^2 => x = 3, feasible"""
        np.testing.assert_allclose(ExcessEvaluator(combined_1d).demand([-6.0]), [3.0], atol=1e-9)

    def test_clipped_by_capacity(self, combined_1d):
        np.testing.assert_allclose(ExcessEvaluator(combined_1d).demand([-30.0]), [10.0], atol=1e-9)


class TestExcess:
    def test_balanced_at_equilibrium(self, combined_1d):
        ev = ExcessEvaluator(combined_1d).evaluate([4.0])
        np.testing.assert_allclose(ev.excess, [0.0], atol=1e-9)
        np.testing.assert_allclose(ev.supply, [2.0], atol=1e-9)
        np.testing.assert_allclose(ev.demand, [2.0], atol=1e-9)

    def test_excess_demand_at_zero_price(self, combined_1d):
        ev = ExcessEvaluator(combined_1d).evaluate([0.0])
        np.testing.assert_allclose(ev.excess, [-2.0], atol=1e-9)

    def test_excess_supply_at_high_price(self, combined_1d):
        ev = ExcessEvaluator(combined_1d).evaluate([30.0])
        np.testing.assert_allclose(ev.excess, [8.0], atol=1e-9)

    def test_identity_by_construction(self, combined_1d, rng):
        for _ in range(10):
            p = rng.uniform(-5, 40, size=1)
            ev = ExcessEvaluator(combined_1d).evaluate(p)
            np.testing.assert_array_equal(ev.excess, ev.supply - ev.demand)

    def test_evaluation_keeps_two_arrays(self, combined_1d):
        # excess is derived on access, and slots leave no per-instance dict.
        ev = ExcessEvaluator(combined_1d).evaluate([4.0])
        assert [f.name for f in dataclasses.fields(ev)] == ["supply", "demand"]
        assert not hasattr(ev, "__dict__")


class TestProjectPrice:
    def test_orthant(self):
        np.testing.assert_allclose(
            PriceDomain.orthant().project([1.0, -2.0]), [1.0, 0.0]
        )

    def test_box(self):
        dom = PriceDomain.box([0.0, 0.0], [10.0, 10.0])
        np.testing.assert_allclose(dom.project([12.0, 5.0]), [10.0, 5.0])

    def test_interior_unchanged(self):
        np.testing.assert_allclose(
            PriceDomain.orthant().project([3.0, 4.0]), [3.0, 4.0]
        )

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("kind", ["orthant", "box"])
    def test_bound_projector_matches_project(self, kind, n, rng):
        # The kernel that the solver and the evaluator bind once must give the
        # bits of project and of the closed forms np.maximum(p, 0.0) and
        # np.clip(p, lower, upper), signed zeros, infinities and NaN included.
        if kind == "orthant":
            dom, closed_form = PriceDomain.orthant(), lambda p: np.maximum(p, 0.0)
        else:
            dom = PriceDomain.box(np.full(n, -1.0), np.full(n, 10.0))
            closed_form = lambda p: np.clip(p, dom.lower, dom.upper)  # noqa: E731
        kernel = dom.projector(n)
        specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])
        points = [np.full(n, -0.0), np.full(n, 0.0)]
        for _ in range(20):
            p = rng.uniform(-20.0, 20.0, size=n)
            p[rng.integers(0, n, size=min(n, 5))] = rng.choice(specials, size=min(n, 5))
            points.append(p)
        for p in points:
            out = kernel(p)
            for ref in (dom.project(p), closed_form(p)):
                np.testing.assert_array_equal(out, ref)
                np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))

    def test_project_accepts_lists_and_2d(self):
        dom = PriceDomain.orthant()
        np.testing.assert_array_equal(dom.project([[1.0, -2.0], [-0.5, 3.0]]), [1.0, 0.0, 0.0, 3.0])
        box = PriceDomain.box([0.0, 0.0], [2.0, 2.0])
        np.testing.assert_array_equal(box.project([[5.0, -1.0]]), [2.0, 0.0])

    @pytest.mark.parametrize("method", ["project", "contains"])
    @pytest.mark.parametrize("price", [[0.5], [0.5, 0.5, 0.5]], ids=["short", "long"])
    def test_box_refuses_another_length(self, method, price):
        box = PriceDomain.box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="^box bounds do not match dimension n$"):
            getattr(box, method)(price)

    @pytest.mark.parametrize("method", ["project", "contains"])
    @pytest.mark.parametrize("kind", ["orthant", "box"])
    @pytest.mark.parametrize(
        "price, entry",
        [
            ([True, "4"], "True"),
            (["-1", 1.0], "'-1'"),
            ([10**400, 1.0], "int too large to convert to float"),
        ],
        ids=["bool", "string", "huge-int"],
    )
    def test_refuses_entries_that_are_not_numbers(self, method, kind, price, entry):
        dom = PriceDomain.orthant() if kind == "orthant" else PriceDomain.box([0.0, 0.0], [8.0, 8.0])
        with pytest.raises(ValueError, match=f"^price vector has an entry that is not a number: {entry}$"):
            getattr(dom, method)(price)

    def test_contains_to_1e_12(self):
        box = PriceDomain.box([0.0, 0.0], [1.0, 1.0])
        assert box.contains([1.0 + 5e-13, -5e-13])
        assert PriceDomain.orthant().contains([-5e-13, np.inf])
        for dom in (box, PriceDomain.orthant()):
            for p in ([-2e-12, 0.5], [np.nan, 0.5], [-np.inf, 0.5]):
                assert not dom.contains(p)
        for p in ([1.0 + 2e-12, 0.5], [np.inf, 0.5]):
            assert not box.contains(p)

    def test_idempotent_and_nonexpansive(self, rng):
        for dom in (PriceDomain.orthant(), PriceDomain.box([0.0, 0.0], [8.0, 8.0])):
            for _ in range(100):
                p = rng.uniform(-20, 20, size=2)
                q = rng.uniform(-20, 20, size=2)
                pp, qq = dom.project(p), dom.project(q)
                np.testing.assert_array_equal(dom.project(pp), pp)
                assert np.linalg.norm(pp - qq) <= np.linalg.norm(p - q) + 1e-12


class TestNatMap:
    def test_fixed_point_at_equilibrium(self, combined_1d):
        t = ExcessEvaluator(combined_1d).nat_map([4.0], eta=1.0)
        np.testing.assert_allclose(t, [4.0], atol=1e-9)

    def test_excess_demand_raises_price(self, combined_1d):
        t = ExcessEvaluator(combined_1d).nat_map([0.0], eta=1.0)
        np.testing.assert_allclose(t, [2.0], atol=1e-9)

    def test_step_from_two(self, combined_1d):
        """F(2) = 1 - 2 = -1, so T(2) = 2 + 1 = 3"""
        t = ExcessEvaluator(combined_1d).nat_map([2.0], eta=1.0)
        np.testing.assert_allclose(t, [3.0], atol=1e-9)

    def test_warns_outside_admissible_step(self, combined_1d):
        with pytest.warns(EtaOutOfRange, match=r"^eta = 5 outside \(0, 2\]$"):
            ExcessEvaluator(combined_1d).nat_map([2.0], eta=5.0)

    @pytest.mark.parametrize("method", ["nat_map", "vi_residual"])
    def test_warns_for_the_instances_own_step(self, combined_1d, method):
        # Without an eta argument the instance's step is used, and checked.
        c = combined_1d
        inst = ModelInstance.build(c.costs, c.feasible, c.domain, c.p0, eta=5.0)
        with pytest.warns(EtaOutOfRange, match=r"^eta = 5 outside \(0, 2\]$"):
            getattr(ExcessEvaluator(inst), method)([2.0])

    @pytest.mark.parametrize("eta", [0.0, -1.0], ids=["zero", "negative"])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda ev, eta: ev.nat_map([2.0], eta=eta),
            lambda ev, eta: ev.vi_residual([2.0], eta=eta),
            lambda ev, eta: ev.map_oracle(eta=eta),
        ],
        ids=["nat_map", "vi_residual", "map_oracle"],
    )
    def test_nonpositive_step_raises_without_a_warning(self, combined_1d, entry, eta):
        # At eta = 0 the projected step is the identity, so every price
        # would pass as a fixed point and vi_residual would read 0.
        ev = ExcessEvaluator(combined_1d)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^eta must be positive$"):
                entry(ev, eta)
        assert caught == []
        assert ev.fast_hits == ev.qp_solves == 0


class TestViResidual:
    def test_zero_at_equilibrium(self, combined_1d):
        assert ExcessEvaluator(combined_1d).vi_residual([4.0], eta=1.0) <= 1e-8

    def test_scaled_distance_at_origin(self, combined_1d):
        assert np.isclose(ExcessEvaluator(combined_1d).vi_residual([0.0], eta=1.0), 2.0)

    def test_zero_on_saturated_ray(self, saturated_1d):
        assert ExcessEvaluator(saturated_1d).vi_residual([8.0], eta=1.0) <= 1e-9


class TestPriceValidation:
    ENTRY_POINTS = {
        "map_oracle": lambda ev, p: ev.map_oracle(eta=1.0)(p),
        "nat_map": lambda ev, p: ev.nat_map(p, eta=1.0),
        "vi_residual": lambda ev, p: ev.vi_residual(p, eta=1.0),
        "evaluate": lambda ev, p: ev.evaluate(p),
        "supply": lambda ev, p: ev.supply(p),
        "demand": lambda ev, p: ev.demand(p),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "price, message",
        [
            ([np.nan], "non-finite"),
            ([np.inf], "non-finite"),
            ([-np.inf], "non-finite"),
            ([1.0, 2.0], "length 2, expected 1"),
            ([], "length 0, expected 1"),
            ([[]], "length 0, expected 1"),
            ([True], "^price vector has an entry that is not a number: True$"),
            (np.array([True]), "^price vector has an entry that is not a number: True$"),
            (["4"], "^price vector has an entry that is not a number: '4'$"),
            ([None], "^price vector has an entry that is not a number: None$"),
            (4.0, r"^price vector has shape \(\), expected \(None,\)$"),
            ([[4.0]], r"^price vector has shape \(1, 1\), expected \(None,\)$"),
            ([10**400], "^price vector has an entry that is not a number: int too large"),
            (np.array([-np.inf]), "^price vector has non-finite entries$"),
        ],
    )
    def test_bad_price_raises_before_any_solve(self, combined_1d, entry, price, message):
        ev = ExcessEvaluator(combined_1d)
        with pytest.raises(ValueError, match=message):
            self.ENTRY_POINTS[entry](ev, price)
        assert ev.fast_hits == ev.qp_solves == 0


class TestProblemBuilders:
    def test_evaluator_matches_standalone_solves(self, combined_1d, rng):
        # Same optima through the one-shot QP front end as through the
        # warm-started evaluator.
        from eqprice.maps import demand_problem, supply_problem
        from eqprice.qp import solve_qp

        ev = ExcessEvaluator(combined_1d)
        for _ in range(10):
            p = rng.uniform(-10, 40, size=1)
            s_direct = solve_qp(supply_problem(combined_1d, p)).x
            d_direct = solve_qp(demand_problem(combined_1d, p)).x
            np.testing.assert_allclose(ev.supply(p), s_direct, atol=1e-8)
            np.testing.assert_allclose(ev.demand(p), d_direct, atol=1e-8)

    def test_first_answers_are_the_cold_solves(self, rng):
        # A fresh evaluator starts through solve_qp: the supply program from
        # zero, the demand program (utility floor M > 0) from a phase-1 point.
        from eqprice.maps import demand_problem, supply_problem
        from eqprice.qp import solve_qp

        inst = random_instance(GenConfig(n=10, m=8, seed=trial_seed(42, 10, 8, 0)))
        for p in (inst.p0, rng.uniform(0.0, 100.0, size=10)):
            for name, build in (("supply", supply_problem), ("demand", demand_problem)):
                ev = ExcessEvaluator(inst)
                sol = solve_qp(build(inst, p))
                np.testing.assert_array_equal(getattr(ev, name)(p), sol.x)
                assert ev.inner_iterations == sol.iterations
                assert ev.qp_solves == 1

    def test_empty_demand_set_is_named(self):
        # l'x >= 20 is out of reach on 0 <= x <= 10.
        inst = ModelInstance.build(
            AgentCosts(C=[[1.0]], B=[[1.0]], l=[1.0], M=20.0),
            FeasibleSet(A=[[1.0]], b=[10.0]),
            PriceDomain.orthant(),
            [4.0],
        )
        ev = ExcessEvaluator(inst)
        np.testing.assert_allclose(ev.supply([4.0]), [2.0], atol=1e-9)
        for _ in range(2):
            with pytest.raises(InnerSolveFailed, match="^the demand feasible region is empty$"):
                ev.demand([4.0])
        assert ev.qp_solves == 1

    def test_empty_demand_set_is_found_once_per_instance(self, monkeypatch):
        inst = ModelInstance.build(
            AgentCosts(C=[[1.0]], B=[[1.0]], l=[1.0], M=20.0),
            FeasibleSet(A=[[1.0]], b=[10.0]),
            PriceDomain.orthant(),
            [4.0],
        )
        calls = count_calls(monkeypatch, "highs_lp")
        assert [issue.code for issue in validate_instance(inst)] == ["DemandInfeasible"]
        for ev in (ExcessEvaluator(inst), ExcessEvaluator(inst)):
            for _ in range(2):
                with pytest.raises(InnerSolveFailed, match="^the demand feasible region is empty$"):
                    ev.demand([4.0])
            assert ev.qp_solves == 0
        assert calls == {"highs_lp": 1}


SRC = str(Path(maps.__file__).resolve().parents[1])
# One case of the price-scatter benchmark: an evaluator primed at p0 of the
# 50/30 orthant instance (point -1), then the ten prices of that case in
# order, as one pass feeds them.  For each point and program, the answer's
# qp.check_kkt residual on the evaluator's own certificate scale
# 1 + max|p| + max|Hx|, or the message of a failed evaluation.
SCATTER_CASE = """
import json, sys
import numpy as np
from eqprice import maps, qp
from eqprice.cli import trial_seed
from eqprice.gen import GenConfig, random_instance
seed, case = map(int, sys.argv[1:])
inst = random_instance(GenConfig(n=50, m=30, seed=trial_seed(seed, 50, 30, case)))
rng = np.random.default_rng(np.random.SeedSequence([seed, 50, 30, 0x5CA77E5]))
ev = maps.ExcessEvaluator(inst)
out = {}
for point, p in enumerate([inst.p0, *rng.uniform(0.0, 100.0, size=(10, 40, 50))[:, case]], -1):
    try:
        answer = ev.evaluate(p)
    except maps.InnerSolveFailed as exc:
        out[f"point {point}"] = str(exc)
        continue
    for kind, problem, x in (
        ("supply", maps.supply_problem(inst, p), answer.supply),
        ("demand", maps.demand_problem(inst, p), answer.demand),
    ):
        scale = 1.0 + float(np.max(np.abs(p))) + float(np.max(np.abs(2.0 * problem.Q @ x)))
        out[f"{kind} {point}"] = qp.check_kkt(problem, x) / scale
print(json.dumps(out))
"""


def scatter_case(seed: int, case: int) -> dict:
    """SCATTER_CASE in a child process with the benchmark's single BLAS thread.

    The 50/30 answers depend on the thread count (with two threads the
    seed-48 case-13 answers land at 4-7e-9 instead of 1.04-1.13e-8).
    """
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", SCATTER_CASE, str(seed), str(case)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def linalg_in_maps(monkeypatch, **functions) -> None:
    """Give ``maps`` an ``np.linalg`` whose ``functions`` are replaced; the
    active-set solver keeps the real one."""
    linalg = types.SimpleNamespace(**{**vars(np.linalg), **functions})
    monkeypatch.setattr(maps, "np", types.SimpleNamespace(**{**vars(np), "linalg": linalg}))


def refuse(*args):
    raise np.linalg.LinAlgError("Singular matrix")


def working_rows_T(inner):
    """G_w' of the working set whose solve gave ``inner``'s inverted piece."""
    return inner.G[list(inner.last_wset)].T


def with_shifted_c_x(inner, shift: float) -> None:
    """Shift c_x of ``inner``'s inverted piece, its stationarity floor
    re-derived as ``_screen`` derives it."""
    K_x, c_x, K_l, c_l, _, rates = inner._piece
    blocks = (K_x, c_x + shift, K_l, c_l)
    inner._piece = (*blocks, maps._stationarity_floor(inner.H, working_rows_T(inner), blocks), rates)


class TestEvaluatorCaching:
    def test_repeat_price_reuses_basis(self, combined_1d):
        ev = ExcessEvaluator(combined_1d)
        p = np.array([4.0])
        ev.evaluate(p)
        solves = ev.qp_solves
        ev.evaluate(p)
        ev.nat_map(p)
        ev.vi_residual(p)
        assert ev.qp_solves == solves

    def test_parametric_basis_reuse(self, combined_1d):
        ev = ExcessEvaluator(combined_1d)
        for p in np.linspace(3.5, 4.5, 20):
            ev.evaluate(np.array([p]))
        # After the first couple of solves the optimal basis is reused.
        assert ev.fast_hits >= 30
        assert ev.qp_solves <= 8

    def test_uncertified_basis_falls_back_to_active_set(self, combined_1d):
        # Shift the cached supply piece so that at p = 4.5 its stationarity
        # residual is 5.2e-7, above CERTIFY_TOL * s = 1e-7 (s = 1 + 4.5 +
        # 4.5) but below 1e-6.  The piece must be rejected, not raised on,
        # and one active-set solve must answer exactly.  The second call at
        # 4.0 is a fast hit, which inverts the cached piece.  The tampered
        # piece's stationarity floor is re-derived as _screen derives it.
        ev = ExcessEvaluator(combined_1d)
        ev.evaluate([4.0])
        ev.evaluate([4.0])
        assert ev.fast_hits == 2
        with_shifted_c_x(ev._supply, 2.6e-7)
        solves = ev.qp_solves
        ev_45 = ev.evaluate([4.5])
        assert ev.qp_solves == solves + 1
        np.testing.assert_allclose(ev_45.supply, [2.25], rtol=0, atol=1e-12)

    def test_singular_pending_piece_is_dropped(self, combined_1d, monkeypatch):
        # A singular KKT block makes _screen's solve raise: the pending piece
        # is dropped uninverted, and each price is answered by an active-set solve.
        linalg_in_maps(monkeypatch, solve=refuse)
        ev = ExcessEvaluator(combined_1d)
        for p in (4.0, 4.0, 4.5):
            out = ev.evaluate([p])
            np.testing.assert_allclose(out.supply, [p / 2], rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.demand, [2.0], rtol=0, atol=1e-12)
        assert (ev.qp_solves, ev.fast_hits, ev.basis_inversions) == (6, 0, 0)

    def test_failed_inversion_leaves_no_basis(self, combined_1d, monkeypatch):
        # The piece passes _screen's tests, but inverting its KKT matrix raises:
        # the inversion counts, no basis is cached and the active-set solve answers.
        linalg_in_maps(monkeypatch, inv=refuse)
        ev = ExcessEvaluator(combined_1d)
        for _ in range(2):
            np.testing.assert_allclose(ev.supply([4.0]), [2.0], rtol=0, atol=1e-12)
        assert type(ev._supply._piece) is list  # the second solve's, uninverted
        assert (ev._supply.inversions, ev.fast_hits, ev.qp_solves) == (1, 0, 2)

    def test_a_failed_screen_keeps_the_pending_piece(self, combined_1d):
        # After the solve at 4 supply's pending piece is its interior working
        # set.  At 30 that piece would put x = 15 past the bound 10: its
        # screen fails and leaves the same working set pending, uninverted,
        # and the active-set solver answers.  At 31 the screen passes on the
        # working set of that solve, which is inverted and answers.
        ev = ExcessEvaluator(combined_1d)
        ev.supply([4.0])
        supply, pending = ev._supply, ev._supply._piece
        assert type(pending) is list
        assert supply._try_basis(np.array([30.0]), 30.0, math.inf) is None
        assert supply._piece is pending and ev.basis_inversions == 0
        np.testing.assert_allclose(ev.supply([30.0]), [10.0], rtol=0, atol=1e-12)
        assert (ev.qp_solves, ev.basis_inversions, ev.fast_hits) == (2, 0, 0)
        assert type(supply._piece) is list
        np.testing.assert_allclose(ev.supply([31.0]), [10.0], rtol=0, atol=1e-12)
        assert (ev.qp_solves, ev.basis_inversions, ev.fast_hits) == (2, 1, 1)
        assert type(supply._piece) is tuple

    @staticmethod
    def scattered_prices(n: int, m: int) -> tuple[str, tuple[int, int]]:
        """sha256 of the supply/demand bits at 10 seeded prices, the
        evaluator's (qp_solves, inner_iterations) and its basis inversions."""
        inst = random_instance(GenConfig(n=n, m=m, seed=trial_seed(42, n, m, 0)))
        ev = ExcessEvaluator(inst)
        prices = np.random.default_rng(2024).uniform(0.0, 100.0, size=(10, inst.n))
        digest = hashlib.sha256()
        for p in prices:
            out = ev.evaluate(p)
            digest.update(out.supply.tobytes())
            digest.update(out.demand.tobytes())
        return digest.hexdigest(), (ev.qp_solves, ev.inner_iterations), ev.basis_inversions

    @pytest.mark.bits
    def test_scattered_prices_are_pinned(self):
        # Independent prices break the cached basis, so nearly every inner
        # map runs the active-set solver; any change to its arithmetic or
        # pivoting shows in the pinned output bits or iteration counts.
        assert self.scattered_prices(30, 20) == (
            "bed4aa0a7d994d75737f07d03b7c5ba44fe8b7cf7f8a1193ba8b737eda6c32e3",
            (19, 138),
            1,
        )

    @pytest.mark.bits
    def test_scattered_prices_are_pinned_at_50_30(self):
        # As above at the benchmark's scatter size: KKT systems reach 100
        # rows and working-set rows are dropped often, so the in-place add
        # and drop of KKT rows is pinned bit for bit.  The screen lets one of
        # the 13 cached pieces on to an inversion.
        assert self.scattered_prices(50, 30) == (
            "f459baa61bfeb145af3453b1d4959a0523f455db9adc17beef1a7770f06494c1",
            (13, 120),
            1,
        )

    @pytest.mark.bits
    @pytest.mark.parametrize("n, m", [(10, 8), (30, 20)])
    def test_screen_never_rejects_a_certified_piece(self, n, m):
        # Before each evaluation, every piece still waiting for its inverse is
        # screened, and also inverted and certified on a copy; the copy is
        # inverted by its screen at the price of its solve, where it is
        # optimal.  The screen may pass a piece that the certificate rejects,
        # never the reverse.  Two prices in three are scattered and the third
        # stays near the last one, so that both verdicts occur about equally
        # often.
        verdicts = collections.Counter()
        rng = np.random.default_rng(7)
        for trial in range(3):
            inst = random_instance(GenConfig(n=n, m=m, seed=trial_seed(42, n, m, trial)))
            ev = ExcessEvaluator(inst)
            p, solved_at = inst.p0, {}
            for step in range(30):
                pmax = float(np.max(np.abs(p)))
                programs = ((ev._supply, -p), (ev._demand, p))
                for inner, c in programs:
                    if type(inner._piece) is list:
                        forced = copy.copy(inner)
                        assert forced._screen(-solved_at[inner.kind])
                        exact = forced._try_basis(-c, pmax, math.inf) is not None
                        verdicts[copy.copy(inner)._screen(-c), exact] += 1
                ev.evaluate(p)
                # A piece pending after an evaluation comes from a solve at p.
                solved_at.update((inner.kind, c) for inner, c in programs if type(inner._piece) is list)
                if step % 3 == 2:
                    p = p * rng.uniform(0.99, 1.01, size=n)
                else:
                    p = rng.uniform(0.0, 100.0, size=n)
        assert verdicts[False, True] == 0, verdicts
        assert verdicts[False, False] > 0 and verdicts[True, True] > 0, verdicts

    def test_non_finite_piece_is_not_certified(self):
        # At p = 1e308 the cached interior supply piece would be x = 5p = inf,
        # and the -e_j rows would give 0 * inf = NaN.  Above maps.PIECE_PMAX
        # no cached piece is tried, neither its screen nor its inverse, so a
        # warm evaluator fails like a cold one instead of returning inf: each
        # stops at the active-set step that overflows, says so and warns
        # nothing.
        inst = ModelInstance.build(
            AgentCosts(C=0.1 * np.eye(2), B=np.eye(2), l=[1.0, 1.0], M=1.0),
            FeasibleSet(A=[[1.0, 1.0]], b=[10.0]),
            PriceDomain.orthant(),
            [0.0, 0.0],
        )
        huge = [1e308, 1e308]
        message = "the supply program overflowed at max|p| = 1.000e+308"
        cold = ExcessEvaluator(inst)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InnerSolveFailed) as failed:
                cold.supply(huge)
        assert str(failed.value) == message
        assert (cold.qp_solves, cold.inner_iterations) == (1, 3)
        # One warm evaluator holds a piece not yet inverted; the other has
        # inverted it for a fast hit.
        for warm_prices in ([[0.5, 0.5]], [[0.5, 0.5], [0.6, 0.6]]):
            warm = ExcessEvaluator(inst)
            for p in warm_prices:
                warm.supply(p)
            fast = len(warm_prices) - 1
            assert (warm.fast_hits, warm.basis_inversions) == (fast, fast)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InnerSolveFailed) as failed:
                    warm.supply(huge)
            assert str(failed.value) == message
            assert (warm.fast_hits, warm.basis_inversions) == (fast, fast)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="with one BLAS thread the cached basis and warm start certify "
        "demand answers that qp.check_kkt finds 1.04-1.13e-8 loose",
    )
    def test_scattered_demand_passes_the_independent_check(self):
        # Case 13 of the price-scatter benchmark at seed 48.
        results = scatter_case(48, 13)
        residuals = [results[f"demand {point}"] for point in range(10)]
        assert max(residuals) <= maps.CERTIFY_TOL, residuals

    @pytest.mark.bits
    @pytest.mark.parametrize(
        "seed, case",
        [
            pytest.param(8, 31, id="seed8-case31", marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="at point 4 qp.check_kkt finds the supply answer, a "
                "50-row vertex, 1.9e-8 loose: multipliers near 1.8e5 times "
                "slacks of about 1e-13 of the scale",
            )),
            pytest.param(20, 36, id="seed20-case36", marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="qp.check_kkt finds every demand answer at points 0-9 "
                "3.4-4.6e-8 loose: multipliers near 1.2e5 times slacks on 50 "
                "rows it counts as active",
            )),
        ],
    )
    def test_scattered_case_is_solved_and_certified(self, seed, case):
        # The price-scatter cases that fail at seeds 0-60.  Both once stopped
        # an active-set solve on a 50-row vertex above its residual tolerance
        # (seed 8 at points 3 and 4, seed 20 while priming the demand program
        # at p0); solved afresh on their rows those vertices are optimal, and
        # what is left is qp.check_kkt's complementarity term.
        results = scatter_case(seed, case)
        failed = {
            key: value for key, value in results.items()
            if isinstance(value, str) or value > maps.CERTIFY_TOL
        }
        assert not failed, failed

    def test_scattered_vertex_primes_at_p0(self):
        # With one BLAS thread the active-set loop's demand solve of this case
        # at p0 stops on a 50-row vertex with residual 4.4e-7; solved afresh
        # on its rows, the vertex is OPTIMAL and the evaluator primes.
        results = scatter_case(20, 36)
        assert "point -1" not in results, results["point -1"]
        assert results["demand -1"] <= maps.CERTIFY_TOL

    def test_iteration_limit_surfaces(self, combined_1d, monkeypatch):
        # Override max_iter even where the caller passes it: solve_qp does.
        solve_prepared = qp.solve_prepared
        monkeypatch.setattr(
            maps.qp, "solve_prepared", lambda *args, **kw: solve_prepared(*args, **{**kw, "max_iter": 0})
        )
        ev = ExcessEvaluator(combined_1d)
        with pytest.raises(InnerSolveFailed, match="iteration limit"):
            ev.evaluate(np.array([4.0]))

    @pytest.mark.bits
    def test_residual_failure_names_its_cause(self, combined_1d, monkeypatch):
        # A solve that stops above the residual tolerance is not reported as
        # an iteration limit: the message names the program, the residual and
        # the iterations taken.
        monkeypatch.setattr(maps.qp, "DEFAULT_TOL", -1.0)  # no residual meets it
        ev = ExcessEvaluator(combined_1d)
        with pytest.raises(InnerSolveFailed) as failed:
            ev.supply([4.0])
        assert str(failed.value) == (
            "the supply program missed the residual tolerance: residual "
            "0.000e+00 after 2 iterations"
        )


def per_price_test(inner, c, neg_c, cmax) -> tuple[float, float, float]:
    """``viol``, ``stat`` and ``bound`` of the full KKT test of the cached
    piece at c, on the active-set solver's scale ``qp.residual_scale``: the
    reference that the piece's stationarity floor stands in for.  x and lam
    are formed with ``_try_basis``'s operations and operands."""
    K_x, c_x, K_l, c_l = inner._piece[:4]
    x = K_x.dot(neg_c) + c_x
    lam = K_l.dot(neg_c) + c_l
    viol = max(qp._max(inner.G.dot(x) - inner.h), 0.0)
    hx = inner.H.dot(x)
    r = hx + c + working_rows_T(inner).dot(lam)
    return viol, math.sqrt(r.dot(r)), maps.CERTIFY_TOL * qp.residual_scale(cmax, hx)


def sign_and_row_tests_pass(inner, c, neg_c, cmax) -> bool:
    """Whether the cached piece at c passes ``_try_basis``'s floor, sign and
    row tests, each run as it runs them."""
    K_l, c_l, floor = inner._piece[2:5]
    lam = K_l.dot(neg_c) + c_l
    viol, _, _ = per_price_test(inner, c, neg_c, cmax)
    return (
        (not lam.size or qp._min(lam) >= -1e-9)
        and viol <= 1e-9 * inner.hscale
        and floor <= cmax
        and viol <= maps.CERTIFY_TOL * (1.0 + cmax)
    )


@contextlib.contextmanager
def skipped_tests_run_anyway():
    """Yield two lists.  The first gets, for every fast hit, the
    ``max(viol, stat) / bound`` of ``per_price_test``, which the piece's
    floor skipped; a skip is sound when each is <= 1.  The second gets, for
    every trusted hit, whose sign and row tests the budget skipped as well,
    whether those tests pass when run anyway."""
    ratios, trusted = [], []
    real = maps._InnerMap._try_basis

    def checked(inner, neg_c, cmax, step):
        c, trusted_before = -neg_c, inner.trusted
        x = real(inner, neg_c, cmax, step)
        if x is not None:
            viol, stat, bound = per_price_test(inner, c, neg_c, cmax)
            ratios.append(max(viol, stat) / bound)
        if inner.trusted > trusted_before:
            trusted.append(sign_and_row_tests_pass(inner, c, neg_c, cmax))
        return x

    maps._InnerMap._try_basis = checked
    try:
        yield ratios, trusted
    finally:
        maps._InnerMap._try_basis = real


def random_program(seed: int, utility_row: bool, variant: str) -> qp.QpProblem:
    """``oracles.random_qp`` with its last row duplicated, a row nearly
    parallel to it added, or its right-hand side (and feasible point) scaled
    by 1e-12."""
    problem, _ = random_qp(np.random.default_rng(seed), with_utility_row=utility_row)
    A, b = problem.A, problem.b
    if variant == "duplicate" and len(b):
        A, b = np.vstack([A, A[-1]]), np.append(b, b[-1])
    elif variant == "near-parallel" and len(b):
        A, b = np.vstack([A, A[-1] * (1.0 + 1e-9)]), np.append(b, b[-1] * (1.0 + 2e-9))
    elif variant == "tiny-b":
        b = b * 1e-12
    return qp.QpProblem(Q=problem.Q, q=problem.q, A=A, b=b)


def nearby_and_scattered(rng, start, count: int, scale: float):
    """Prices that stay near the last one two times in three (relative steps
    of 1e-6 to 1e-2), else jump to a scattered one."""
    c = start
    for step in range(count):
        yield c
        if step % 3 == 2:
            c = rng.uniform(-scale, scale, size=c.size)
        else:
            c = c * (1.0 + rng.choice([1e-6, 1e-4, 1e-2]) * rng.uniform(-1.0, 1.0, size=c.size))


class TestStationarityFloor:
    """A fast hit skips the per-price stationarity test only where that
    test, run anyway, passes."""

    PROGRAMS = dict(
        seed=st.integers(0, 2**32 - 1),
        utility_row=st.booleans(),
        variant=st.sampled_from(["plain", "duplicate", "near-parallel", "tiny-b"]),
    )

    @settings(max_examples=60, deadline=None)
    @given(**PROGRAMS)
    def test_random_programs_skip_only_passing_tests(self, seed, utility_row, variant):
        self.run_walk(seed, utility_row, variant, walk=False)

    @settings(max_examples=60, deadline=None)
    @given(**PROGRAMS)
    def test_random_walks_trust_only_passing_tests(self, seed, utility_row, variant):
        self.run_walk(seed, utility_row, variant, walk=True)

    @staticmethod
    def run_walk(seed, utility_row, variant, walk: bool):
        # On a walk each price passes its step from the last one the map
        # answered, as ExcessEvaluator._both does, so hits can be trusted;
        # else every step is unknown.
        problem = random_program(seed, utility_row, variant)
        rng = np.random.default_rng(seed)
        inner = maps._InnerMap("supply", problem)
        last = None
        with skipped_tests_run_anyway() as (ratios, trusted):
            for c in nearby_and_scattered(rng, problem.q, 30, 5.0):
                step = math.inf if last is None else float(np.max(np.abs(c - last)))
                last = None
                try:
                    inner.evaluate(c, -c, float(np.max(np.abs(c))), step)
                except InnerSolveFailed:
                    continue
                last = c if walk else None
        assert len(ratios) == inner.fast_hits and len(trusted) == inner.trusted
        assert all(ratio <= 1.0 for ratio in ratios), max(ratios)
        assert all(trusted) and (walk or not trusted)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 5))
    def test_generated_instances_skip_only_passing_tests(self, seed, n, m):
        inst = random_instance(GenConfig(n=n, m=m, seed=seed))
        rng = np.random.default_rng(seed)
        ev = ExcessEvaluator(inst)
        with skipped_tests_run_anyway() as (ratios, trusted):
            for p in nearby_and_scattered(rng, inst.p0 + 1.0, 30, 100.0):
                ev.evaluate(np.abs(p))
        assert len(ratios) == ev.fast_hits
        assert len(trusted) == ev.trusted_hits and all(trusted)
        assert all(ratio <= 1.0 for ratio in ratios), max(ratios)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        utility_row=st.booleans(),
        noise=st.sampled_from([0.0, 1e-11, 1e-9]),
    )
    def test_floor_bounds_the_residual_at_its_worst_price(self, seed, utility_row, noise):
        # Any working set's piece, optimal or not, its blocks perturbed so
        # that its residual R c + r0 is not all rounding.  At max|c| from the
        # floor on, the price that drives one row of it hardest must still
        # give a stat within half the certificate's least scale.  The blocks
        # are inverted as _screen inverts a piece that passes.
        rng = np.random.default_rng(seed)
        problem, _ = random_qp(rng, with_utility_row=utility_row)
        inner = maps._InnerMap("supply", problem)
        n, rows = problem.n, len(inner.h)
        wset = sorted(rng.choice(rows, size=int(rng.integers(0, n + 1)), replace=False).tolist())
        Gw, hw = inner.G[wset], inner.h[wset]
        inv = np.linalg.inv(qp.kkt_matrix(inner.H, Gw))
        blocks = (inv[:n, :n], inv[:n, n:] @ hw, inv[n:, :n], inv[n:, n:] @ hw)
        K_x, c_x, K_l, c_l = (block + noise * rng.standard_normal(block.shape) for block in blocks)
        GwT = Gw.T
        floor = maps._stationarity_floor(inner.H, GwT, (K_x, c_x, K_l, c_l))
        inner._piece, inner.last_wset = (K_x, c_x, K_l, c_l, floor, None), tuple(wset)
        if floor == math.inf:
            return
        R = np.eye(n) - inner.H @ K_x - GwT @ K_l
        r0 = inner.H @ c_x + GwT @ c_l
        worst = int(np.argmax(abs(R).sum(1)))
        for cmax in (floor, 2.0 * floor, floor + 1.0, 1e6 * (floor + 1.0)):
            c = cmax * np.where(R[worst] * (r0[worst] or 1.0) >= 0.0, 1.0, -1.0)
            _, stat, _ = per_price_test(inner, c, -c, cmax)
            assert stat <= 0.5 * maps.CERTIFY_TOL * (1.0 + cmax) * (1.0 + 1e-9), (cmax, stat)

    @pytest.mark.bits
    def test_protocol_solves_skip_only_passing_tests(self):
        # The 40 solves of the bench protocol at seed 42, as eqprice bench
        # runs them; the reference test runs at every fast hit, and most
        # fast hits are trusted.  The counts are those of one BLAS thread
        # and of two.
        hits = trusted_hits = 0
        with skipped_tests_run_anyway() as (ratios, trusted):
            for trial in range(10):
                for n, m in ((5, 3), (10, 8), (30, 20), (50, 30)):
                    inst = random_instance(GenConfig(n=n, m=m, seed=trial_seed(42, n, m, trial)))
                    ev = ExcessEvaluator(inst)
                    report = bilevel_solve(
                        ev.map_oracle(eta=2.0 * inst.constants.mu_F),
                        Objective(p0=inst.p0, weight=0.25),
                        inst.domain,
                        eps=1e-4,
                        max_iter=10_000,
                        start=np.zeros(n),
                        trace_vi_every=10,
                    )
                    assert report.termination is Termination.CONVERGED
                    hits, trusted_hits = hits + ev.fast_hits, trusted_hits + ev.trusted_hits
        assert (hits, len(ratios), trusted_hits, len(trusted)) == (91_854, 91_854, 73_429, 73_429)
        assert all(ratio <= 1.0 for ratio in ratios), max(ratios)
        assert all(trusted)

    def test_shifted_piece_floor_lies_above_the_price(self, combined_1d):
        # Supply is p / 2 near p = 4, on the piece with an empty working set.
        # Shifting c_x by 2.6e-7 puts a residual of 5.2e-7 in every price,
        # which is certified only from max|p| of about 100 on.  Below that
        # floor the piece does not answer, and the reference test agrees
        # that it must not at 4.5.
        ev = ExcessEvaluator(combined_1d)
        ev.evaluate([4.0])
        ev.evaluate([4.0])
        inner = ev._supply
        assert inner._piece[4] == 0.0 and ev.fast_hits == 2
        with_shifted_c_x(inner, 2.6e-7)
        assert 4.5 < inner._piece[4] < 200.0
        c = np.array([-4.5])
        assert inner._try_basis(-c, 4.5, math.inf) is None
        _, stat, bound = per_price_test(inner, c, -c, 4.5)
        assert stat > bound

    def test_non_finite_piece_has_no_floor(self, combined_1d):
        ev = ExcessEvaluator(combined_1d)
        ev.evaluate([4.0])
        ev.evaluate([4.0])
        H, GwT, (K_x, c_x, K_l, c_l) = ev._supply.H, working_rows_T(ev._supply), ev._supply._piece[:4]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.nan, np.inf, 1e300):
                assert maps._stationarity_floor(H, GwT, (K_x, c_x + bad, K_l, c_l)) == math.inf
                assert maps._stationarity_floor(H, GwT, (K_x + bad, c_x, K_l, c_l)) == math.inf


class TestTrustBudget:
    """A hit skips the sign and row tests only within the radius that their
    last full run proved, measured from the price it ran at; whatever else
    happens in between sends the next price through the full tests."""

    @staticmethod
    def trusting(instance) -> ExcessEvaluator:
        # The second evaluation at 4 inverts and certifies both pieces, so
        # that both maps hold a budget centred there.
        ev = ExcessEvaluator(instance)
        ev.evaluate([4.0])
        ev.evaluate([4.0])
        assert ev.fast_hits == 2 and ev.trusted_hits == 0
        return ev

    def test_a_repeat_price_is_trusted(self, combined_1d):
        ev = self.trusting(combined_1d)
        got = ev.evaluate([4.0])
        assert ev.trusted_hits == ev.fast_hits - 2 == 2
        assert (got.supply.tolist(), got.demand.tolist()) == ([2.0], [2.0])

    @pytest.mark.parametrize("single, far", [("supply", 30.0), ("demand", -10.0)])
    def test_one_program_alone_ends_both_chains(self, combined_1d, single, far):
        # Two calls at a far price certify another piece there and centre
        # that map's budget on it; a step measured from 4 would trust it at 4.
        ev = self.trusting(combined_1d)
        getattr(ev, single)([far])
        getattr(ev, single)([far])
        trusted = ev.trusted_hits
        got = ev.evaluate([4.0])
        assert ev.trusted_hits == trusted
        assert (got.supply.tolist(), got.demand.tolist()) == ([2.0], [2.0])

    @pytest.mark.parametrize("failing", ["_supply", "_demand"])
    def test_a_raise_ends_both_chains(self, combined_1d, monkeypatch, failing):
        ev = self.trusting(combined_1d)

        def fail(*args):
            raise InnerSolveFailed("injected")

        with monkeypatch.context() as patch:
            patch.setattr(getattr(ev, failing), "evaluate", fail)
            with pytest.raises(InnerSolveFailed):
                ev.evaluate([4.5])
        trusted = ev.trusted_hits
        ev.evaluate([4.5])
        assert ev.trusted_hits == trusted

    def test_a_resolve_and_its_inversion_run_the_full_tests(self, combined_1d):
        # At 30 supply's interior piece fails and is solved again; the next
        # price inverts the new piece, and only the one after is trusted.
        ev = self.trusting(combined_1d)
        supply = ev._supply
        ev.evaluate([30.0])
        assert (supply.solves, supply.trusted) == (2, 0)
        ev.evaluate([30.0])
        assert (supply.inversions, supply.trusted) == (2, 0)
        ev.evaluate([30.0])
        assert supply.trusted == 1

    def test_a_price_above_pmax_ends_the_chain(self, combined_1d):
        supply, c, huge = self.trusting(combined_1d)._supply, np.array([-4.0]), np.array([-2e100])
        supply.evaluate(c, -c, 4.0, 0.0)
        assert supply.trusted == 1
        assert supply._try_basis(-huge, 2e100, 0.0) is None
        supply.evaluate(c, -c, 4.0, 0.0)
        assert supply.trusted == 1 and supply.fast_hits == 3

    def test_a_price_below_the_floor_ends_the_chain(self, combined_1d):
        # As if the piece's stationarity were proven only from 4.2 on: the
        # active-set solver answers 4.1 as a cold solve does, and 4.5, on
        # the piece inverted anew, must then run all the tests.
        ev = self.trusting(combined_1d)
        supply, solves = ev._supply, ev.qp_solves
        K_x, c_x, K_l, c_l, _, rates = supply._piece
        supply._piece = (K_x, c_x, K_l, c_l, 4.2, rates)
        c = np.array([-4.1])
        got = supply.evaluate(c, -c, 4.1, 0.1)
        assert ev.qp_solves == solves + 1
        cold = qp.solve_qp(maps.supply_problem(combined_1d, np.array([4.1])))
        np.testing.assert_allclose(got, cold.x, rtol=0.0, atol=1e-12)
        c = np.array([-4.5])
        supply.evaluate(c, -c, 4.5, 0.4)
        assert ev.qp_solves == solves + 1
        assert supply.trusted == 0 and supply.fast_hits == 2

    def test_the_callers_array_may_change_in_place(self, combined_1d):
        ev = self.trusting(combined_1d)
        p = np.array([4.0])
        ev.evaluate(p)
        trusted = ev.trusted_hits
        p[0] = 30.0
        got = ev.evaluate(p)
        assert ev.trusted_hits == trusted and got.supply.tolist() == [10.0]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), utility_row=st.booleans())
    def test_radius_holds_at_its_worst_prices(self, seed, utility_row):
        # A whole budget's step in the direction that drives the multiplier,
        # or the row, that sets the radius hardest towards its threshold.
        problem, _ = random_qp(np.random.default_rng(seed), with_utility_row=utility_row)
        inner, c0 = maps._InnerMap("supply", problem), problem.q
        cmax0 = float(np.max(np.abs(c0)))
        inner.evaluate(c0, -c0, cmax0, math.inf)
        inner.evaluate(c0, -c0, cmax0, math.inf)
        if not inner._budget >= 0.0:
            return
        rho, (K_x, c_x, K_l, c_l, _, rates) = inner._budget, inner._piece
        lam, r = K_l @ -c0 + c_l, inner.G @ (K_x @ -c0 + c_x) - inner.h
        directions = [np.sign(inner.G @ K_x)[int(np.argmin((rates[4] - r) * rates[3]))]]
        if lam.size:
            directions.append(-np.sign(K_l)[int(np.argmin((lam + rates[1]) * rates[0]))])
        for d in directions:
            neg_c = -c0 + rho * d
            x = K_x.dot(neg_c) + c_x
            lam = K_l.dot(neg_c) + c_l
            assert not lam.size or qp._min(lam) >= -1e-9
            viol = max(qp._max(inner.G.dot(x) - inner.h), 0.0)
            assert viol <= min(1e-9 * inner.hscale, maps.CERTIFY_TOL)

    def test_zero_row_norms_and_no_multipliers_raise_no_warning(self, combined_1d):
        # At 4 supply's piece has an empty working set; at 30 its K_x is 0,
        # and demand's is 0 at both, so every row of G K_x has norm 0.
        # Supply is trusted at 4.5 and from the third 30 on, demand also at
        # the second 30, as its piece holds there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = ExcessEvaluator(combined_1d)
            for p in (4.0, 4.0, 4.5, 30.0, 30.0, 30.0, 31.0):
                got = ev.evaluate([p])
        assert (ev._supply.trusted, ev._demand.trusted) == (3, 4)
        assert (got.supply.tolist(), got.demand.tolist()) == ([10.0], [2.0])


@pytest.fixture(scope="module")
def generated():
    return random_instance(GenConfig(n=4, m=3, seed=11))


class TestEvaluatorFootprint:
    """What an evaluator keeps: working sets, compact basis blocks and rows
    shared with every evaluator of its instance."""

    @staticmethod
    def instance(n=50, m=30, trial=0) -> ModelInstance:
        return random_instance(GenConfig(n=n, m=m, seed=trial_seed(42, n, m, trial)))

    def test_pending_piece_is_a_working_set_and_the_basis_is_compact(self):
        inst = self.instance()
        ev = ExcessEvaluator(inst)
        ev.evaluate(inst.p0)
        n = inst.n
        for inner, neg_c in ((ev._supply, inst.p0), (ev._demand, -inst.p0)):
            assert type(inner._piece) is list
            assert all(type(i) is int for i in inner._piece)
            own = {k for k, v in vars(inner).items() if isinstance(v, np.ndarray)}
            assert own == {"H", "G", "h", "last_x"}
            w = len(inner._piece)
            assert inner._screen(neg_c)  # at the price of its solve, where it is optimal
            assert inner.inversions == 1
            *blocks, floor, rates = inner._piece
            assert isinstance(floor, float) and type(rates) is tuple
            # The inverted piece keeps K_x, c_x, K_l and c_l, and no G_w'.
            assert [block.shape for block in blocks] == [(n, n), (n,), (w, n), (w,)]
            for block in blocks:
                assert block.size <= n * max(n, w)
                assert block.base is None or block.base.size == block.size
        # The compact basis answers as the pending one did: a repeat price is
        # a fast hit with the cold solve's answer to the certificate's scale.
        first = ev.evaluate(inst.p0)
        assert ev.fast_hits == 2
        cold = ExcessEvaluator(inst).evaluate(inst.p0)
        np.testing.assert_allclose(first.supply, cold.supply, rtol=0, atol=1e-7)
        np.testing.assert_allclose(first.demand, cold.demand, rtol=0, atol=1e-7)

    def test_rows_are_shared_per_instance_and_read_only(self):
        inst = self.instance(10, 8)
        one, two = ExcessEvaluator(inst), ExcessEvaluator(inst)
        for kind, build, program in (
            ("_supply", maps.supply_problem, inst.supply_program),
            ("_demand", maps.demand_problem, inst.demand_program),
        ):
            a, b = getattr(one, kind), getattr(two, kind)
            problem = build(inst, inst.p0)
            G, h = qp.inequality_rows(problem.A, problem.b)
            expected = (problem.Q + problem.Q.T, G, h)
            for name, shared, rows in zip("HGh", program.prepared, expected):
                assert getattr(a, name) is getattr(b, name) is shared
                assert not shared.flags.writeable
                np.testing.assert_array_equal(shared, rows)
        assert one._supply.G.shape[0] + 1 == one._demand.G.shape[0]  # the utility row
        other = ExcessEvaluator(self.instance(10, 8, trial=1))
        assert other._supply.G is not one._supply.G

    def test_rows_and_cold_starts_are_found_once_per_instance(self, monkeypatch):
        inst = self.instance()
        calls = count_calls(monkeypatch, "inequality_rows", "highs_lp")
        assert validate_instance(inst) == []
        for _ in range(2):
            ExcessEvaluator(inst).evaluate(inst.p0)
        # The supply and the demand rows, and the demand program's phase-1 LP
        # (zero violates the utility floor; it is the supply program's start).
        assert calls == {"inequality_rows": 2, "highs_lp": 1}

    def test_cold_starts_are_the_programs_read_only_phase1_points(self, monkeypatch):
        inst = self.instance(10, 8)
        starts = []
        real = qp.solve_prepared
        monkeypatch.setattr(
            qp, "solve_prepared", lambda *a: (starts.append(a[4]), real(*a))[1]
        )
        for _ in range(2):
            ExcessEvaluator(inst).evaluate(inst.p0)
        programs = (inst.supply_program, inst.demand_program)
        assert len(starts) == 4
        for x0, program in zip(starts, programs * 2):
            assert x0 is program.phase1.x
            assert not x0.flags.writeable
        assert not inst.supply_program.phase1.x.any() and inst.demand_program.phase1.x.any()

    def test_rows_are_dropped_with_their_instance(self):
        inst = self.instance(5, 3)
        ev, other = ExcessEvaluator(inst), ExcessEvaluator(inst)
        ev.evaluate(inst.p0)
        rows = [
            weakref.ref(getattr(inner, name))
            for e in (ev, other)
            for inner in (e._supply, e._demand)
            for name in "HGh"
        ]
        del inst, ev
        gc.collect()
        assert all(ref() is not None for ref in rows)  # the other evaluator holds them
        del other
        gc.collect()
        assert all(ref() is None for ref in rows)

    def test_a_reused_id_gets_its_own_rows(self):
        # Each instance dies before the next is built, so CPython hands the
        # same id to several of them; each evaluator must see its own b.
        ids = []
        for k in range(1, 21):
            inst = ModelInstance.build(
                AgentCosts(C=[[1.0]], B=[[1.0]], l=[1.0], M=0.5),
                FeasibleSet(A=[[1.0]], b=[float(k)]),
                PriceDomain.orthant(),
                [0.0],
            )
            ids.append(id(inst))
            ev = ExcessEvaluator(inst)
            assert ev._supply.h[0] == ev._demand.h[0] == k
            # Supply at p = 100 is clip(p / 2, 0, b) = b.
            np.testing.assert_allclose(ev.supply([100.0]), [float(k)], rtol=1e-12)
            del inst, ev
        assert len(set(ids)) < len(ids)


class TestLemmaProperties:
    """Map properties on one generated instance (the acceptance suite
    repeats these across ten instances)."""

    def test_nonexpansive_at_default_step(self, generated, rng):
        ev = ExcessEvaluator(generated)
        eta = generated.constants.mu_F
        for _ in range(100):
            p1 = rng.uniform(0, 100, size=4)
            p2 = rng.uniform(0, 100, size=4)
            t1, t2 = ev.nat_map(p1, eta=eta), ev.nat_map(p2, eta=eta)
            assert np.linalg.norm(t1 - t2) <= np.linalg.norm(p1 - p2) + 1e-7

    def test_supply_inverse_strongly_monotone(self, generated, rng):
        ev = ExcessEvaluator(generated)
        mu = generated.constants.mu_c
        for _ in range(100):
            p1 = rng.uniform(0, 100, size=4)
            p2 = rng.uniform(0, 100, size=4)
            ds = ev.supply(p1) - ev.supply(p2)
            assert (p1 - p2) @ ds >= mu * ds @ ds - 1e-7

    def test_negative_demand_inverse_strongly_monotone(self, generated, rng):
        ev = ExcessEvaluator(generated)
        mu = generated.constants.mu_t
        for _ in range(100):
            p1 = rng.uniform(0, 100, size=4)
            p2 = rng.uniform(0, 100, size=4)
            dd = -(ev.demand(p1) - ev.demand(p2))
            assert (p1 - p2) @ dd >= mu * dd @ dd - 1e-7

    def test_excess_monotone(self, generated, rng):
        ev = ExcessEvaluator(generated)
        for _ in range(100):
            p1 = rng.uniform(0, 100, size=4)
            p2 = rng.uniform(0, 100, size=4)
            df = ev.evaluate(p1).excess - ev.evaluate(p2).excess
            assert (p1 - p2) @ df >= -1e-7

    def test_maps_lipschitz(self, generated, rng):
        ev = ExcessEvaluator(generated)
        kc = generated.constants
        for _ in range(100):
            p1 = rng.uniform(0, 100, size=4)
            p2 = rng.uniform(0, 100, size=4)
            dp = np.linalg.norm(p1 - p2)
            assert np.linalg.norm(ev.supply(p1) - ev.supply(p2)) <= dp / kc.mu_c + 1e-7
            assert np.linalg.norm(ev.demand(p1) - ev.demand(p2)) <= dp / kc.mu_t + 1e-7
