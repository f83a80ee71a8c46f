"""Hybrid solver, its step rule and the KM baseline."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from eqprice.cli import trial_seed
from eqprice.gen import GenConfig, generate
from eqprice.maps import ExcessEvaluator
from eqprice.model import AgentCosts, FeasibleSet, ModelInstance, PriceDomain
from eqprice.solver import (
    IterationLimitError,
    Objective,
    Termination,
    bilevel_solve,
    km_fixed_point,
    step_size,
    trace_csv_rows,
)
from conftest import make_combined_1d, make_saturated_1d


class TestSchedule:
    def test_first_step(self):
        assert np.isclose(step_size(1), 1.0 / math.sqrt(2.0))

    def test_quarter_values(self):
        assert step_size(3) == 0.5
        assert np.isclose(step_size(99), 0.1)

    def test_decreasing_in_unit_interval(self):
        vals = [step_size(k) for k in range(1, 5000)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_product_sum_diverges_like_log(self):
        # sum lambda_k * alpha_k = sum 1/(k+1): partial sums grow ~ ln.
        partial = lambda upto: sum(step_size(k) ** 2 for k in range(1, upto))
        growth = partial(100_000) - partial(10_000)
        assert abs(growth - math.log(10.0)) < 0.01


class TestGradientStep:
    """The loop's projected gradient step q_1 = P(p_1 - alpha_1 grad f(p_1)).

    alpha_1 = 1/sqrt(2); the map value does not enter q.
    """

    @staticmethod
    def first_q(objective, start, domain):
        states = []
        bilevel_solve(
            identity_oracle, objective, domain, start=np.array(start), max_iter=1,
            callback=states.append,
        )
        (state,) = states
        return state.q

    def test_step_to_origin(self):
        # 2 - alpha_1 * 2 * 2 < 0 in both entries, so the orthant clips to 0.
        q = self.first_q(Objective(p0=[0.0, 0.0]), [2.0, 2.0], PriceDomain.orthant())
        np.testing.assert_allclose(q, [0.0, 0.0])

    def test_stationary_at_anchor(self):
        q = self.first_q(Objective(p0=[3.0, 1.0]), [3.0, 1.0], PriceDomain.orthant())
        np.testing.assert_allclose(q, [3.0, 1.0])

    def test_clipped_by_box(self):
        # 1 + alpha_1 * 2 * 4 = 6.66 lies above the upper bound 3.
        q = self.first_q(Objective(p0=[5.0]), [1.0], PriceDomain.box([0.0], [3.0]))
        np.testing.assert_allclose(q, [3.0])


class TestContractionInequality:
    def test_anchored_quadratic_satisfies_bound(self, rng):
        # ||(x - (1/a) grad f(x)) - (y - (1/a) grad f(y))||^2
        #   <= (1 - 2 beta/a + L^2/a^2) ||x - y||^2 for the anchor objective.
        obj = Objective(p0=rng.uniform(0, 10, size=3))
        beta = obj.beta
        L = obj.L
        for alpha in (0.5, 1.0, 2.0):
            for _ in range(100):
                x = rng.uniform(-10, 10, size=3)
                y = rng.uniform(-10, 10, size=3)
                lhs = np.linalg.norm(
                    (x - obj.gradient(x) / alpha) - (y - obj.gradient(y) / alpha)
                ) ** 2
                rhs = (1.0 - 2.0 * beta / alpha + (L / alpha) ** 2) * np.linalg.norm(
                    x - y
                ) ** 2
                assert lhs <= rhs + 1e-9


def identity_oracle(p):
    return p


class TestBilevelSolve:
    def test_identity_map_reduces_to_projection(self):
        """Fix(T) = P, so the answer is the projection of the anchor."""
        dom = PriceDomain.box([0.0, 0.0], [10.0, 10.0])
        report = bilevel_solve(identity_oracle, Objective(p0=[12.0, 5.0]), dom, eps=1e-6)
        np.testing.assert_allclose(report.solution, [10.0, 5.0], atol=1e-9)
        assert report.termination is Termination.EXACT_FIXED_POINT

    def test_identity_map_from_remote_start(self):
        dom = PriceDomain.box([0.0, 0.0], [10.0, 10.0])
        report = bilevel_solve(
            identity_oracle,
            Objective(p0=[12.0, 5.0]),
            dom,
            eps=1e-9,
            max_iter=100_000,
            start=np.array([1.0, 9.0]),
        )
        np.testing.assert_allclose(report.solution, [10.0, 5.0], atol=1e-3)

    def test_combined_instance_reaches_unique_equilibrium(self):
        inst = make_combined_1d(p0=7.0)
        ev = ExcessEvaluator(inst)
        report = bilevel_solve(
            ev.map_oracle(),
            Objective(p0=inst.p0),
            inst.domain,
            eps=1e-6,
            max_iter=20_000,
        )
        assert report.converged
        assert abs(report.solution[0] - 4.0) <= 1e-2
        assert ev.vi_residual(report.solution) <= 1e-3

    def test_two_commodity_equilibrium(self):
        # C=B=I, l=(1,1), M=2, X={x>=0: x1+x2<=10}: supply is p/2 while
        # interior and demand sits on the floor face at
        # ((4+p2-p1)/4, (4+p1-p2)/4), so the unique equilibrium is (2,2).
        inst = ModelInstance.build(
            AgentCosts(C=np.eye(2), B=np.eye(2), l=[1.0, 1.0], M=2.0),
            FeasibleSet(A=[[1.0, 1.0]], b=[10.0]),
            PriceDomain.orthant(),
            [5.0, 1.0],
        )
        ev = ExcessEvaluator(inst)
        np.testing.assert_allclose(ev.supply(np.array([3.0, 1.0])), [1.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(ev.demand(np.array([3.0, 1.0])), [0.5, 1.5], atol=1e-9)
        assert ev.vi_residual(np.array([2.0, 2.0])) <= 1e-9
        report = bilevel_solve(
            ev.map_oracle(),
            Objective(p0=inst.p0, weight=1.0 / 16.0),
            inst.domain,
            eps=5e-7,
            max_iter=30_000,
        )
        np.testing.assert_allclose(report.solution, [2.0, 2.0], atol=1e-2)

    def test_saturated_instance_selects_nearest_fixed_point(self):
        inst = make_saturated_1d(p0=1.0)
        ev = ExcessEvaluator(inst)
        report = bilevel_solve(
            ev.map_oracle(),
            Objective(p0=inst.p0, weight=1.0 / 16.0),
            inst.domain,
            eps=5e-7,
            max_iter=20_000,
        )
        assert abs(report.solution[0] - 4.0) <= 1e-2

        inst10 = make_saturated_1d(p0=10.0)
        ev10 = ExcessEvaluator(inst10)
        report10 = bilevel_solve(
            ev10.map_oracle(), Objective(p0=inst10.p0), inst10.domain, eps=1e-6
        )
        assert report10.termination is Termination.EXACT_FIXED_POINT
        np.testing.assert_allclose(report10.solution, [10.0])

    def test_trace_shape_and_stop_rule(self):
        inst = make_combined_1d(p0=7.0)
        ev = ExcessEvaluator(inst)
        eps = 1e-5
        report = bilevel_solve(
            ev.map_oracle(), Objective(p0=inst.p0), inst.domain, eps=eps, max_iter=20_000
        )
        assert len(report.trace) == report.iterations
        assert [row.k for row in report.trace] == list(range(1, report.iterations + 1))
        assert report.trace[-1].step_residual < eps
        assert all(row.step_residual >= eps for row in report.trace[:-1])

    def test_first_trace_row_matches_definition(self):
        # With T = I and a fresh start, p2, p3 and p4 are computable by hand.
        # Weight 1 would land p2 on the anchor (lambda_1 alpha_1 = 1/2).
        dom = PriceDomain.orthant()
        obj = Objective(p0=[6.0], weight=0.25)
        start = np.array([2.0])
        report = bilevel_solve(identity_oracle, obj, dom, start=start, eps=1e-12, max_iter=3)
        assert report.iterations == 3
        p = 2.0
        for k, row in enumerate(report.trace, start=1):
            lam = alpha = step_size(k)
            q = max(p - alpha * 0.5 * (p - 6.0), 0.0)
            p_next = lam * q + (1 - lam) * p
            expected = abs(p_next - p) / max(abs(p_next), 1.0)
            assert np.isclose(row.step_residual, expected)
            p = p_next
        np.testing.assert_allclose(report.solution, [p])

    def test_iteration_limit_termination(self):
        inst = make_combined_1d(p0=100.0)
        ev = ExcessEvaluator(inst)
        report = bilevel_solve(
            ev.map_oracle(), Objective(p0=inst.p0), inst.domain, eps=1e-12, max_iter=10
        )
        assert report.termination is Termination.ITER_LIMIT
        assert report.iterations == 10

    def test_callback_iterates_stay_in_domain(self):
        inst = make_combined_1d(p0=7.0)
        ev = ExcessEvaluator(inst)
        states = []
        bilevel_solve(
            ev.map_oracle(),
            Objective(p0=inst.p0),
            inst.domain,
            eps=1e-4,
            callback=states.append,
        )
        assert states
        for state in states:
            assert inst.domain.contains(state.q)
            assert inst.domain.contains(state.Tp)

    def test_monotone_trace_tail(self):
        inst = make_combined_1d(p0=7.0)
        ev = ExcessEvaluator(inst)
        eps = 1e-5
        report = bilevel_solve(
            ev.map_oracle(), Objective(p0=inst.p0), inst.domain, eps=eps, max_iter=20_000
        )
        tail = report.trace[int(0.8 * report.iterations) :]
        assert all(row.step_residual < 10 * eps for row in tail)

    def test_distance_to_solution_stays_bounded(self):
        # Once the step coefficients are in their admissible regime (k >= 5)
        # the iterates stay within the larger of the entry distance and the
        # gradient bound 2||grad f(p*)||/beta around the limit.
        inst = make_combined_1d(p0=7.0)
        ev = ExcessEvaluator(inst)
        obj = Objective(p0=inst.p0)
        iterates = []
        report = bilevel_solve(
            ev.map_oracle(),
            obj,
            inst.domain,
            eps=1e-6,
            max_iter=20_000,
            callback=lambda s: iterates.append(s.p.copy()),
        )
        pbar = report.solution
        k0 = 5
        bound = max(
            np.linalg.norm(iterates[k0 - 1] - pbar),
            2.0 * np.linalg.norm(obj.gradient(pbar)) / obj.beta,
        )
        for p in iterates[k0 - 1 :]:
            assert np.linalg.norm(p - pbar) <= bound + 1e-6

    def test_trace_every_zero_records_no_vi_residual(self):
        report = bilevel_solve(
            lambda p: 0.5 * p, Objective(p0=[1.0]), PriceDomain.orthant(), max_iter=5, trace_vi_every=0
        )
        assert report.iterations == 5
        assert all(math.isnan(row.vi_residual) for row in report.trace)


@pytest.mark.bits
class TestLoopOutputsArePinned:
    """The outer loop's bookkeeping: trace bits, the exact-fixed-point stop,
    a non-finite map and immutable trace rows."""

    @pytest.mark.parametrize(
        "n, m, iterations, digest",
        [
            (5, 3, 493, "8002ac36cd699da92ac17c340187ce54551670cae58f84f2bc0ff7a15ff13d31"),
            (10, 8, 1101, "8f8d17b8554aaba81b1825f5f3a13ad38e4793c759566ef0f2ddc822bdf6e978"),
            (30, 20, 1472, "5702bf89beff8ad4c2ab9a6a9f9c2f5e0fa0b32c47bf8ba856c212a5bd0e2d28"),
            (50, 30, 1958, "52f836266bf0a09679356ce9069978467de5f2fc66265aea9fdcc6a3992296fe"),
        ],
    )
    def test_protocol_trace_is_pinned(self, n, m, iterations, digest):
        # Bench protocol, trial 0 at seed 42: eps 1e-4, weight 0.25, zero
        # start, eta = 2 mu_F and the VI residual every 10 iterations.
        inst = generate(GenConfig(n=n, m=m, seed=trial_seed(42, n, m, 0))).instance
        report = bilevel_solve(
            ExcessEvaluator(inst).map_oracle(eta=2.0 * inst.constants.mu_F),
            Objective(p0=inst.p0, weight=0.25),
            inst.domain,
            eps=1e-4,
            start=np.zeros(n),
            trace_vi_every=10,
        )
        text = "".join(",".join(row) + "\n" for row in trace_csv_rows(report.trace))
        assert report.iterations == iterations
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_identity_at_anchor_is_exact_at_once(self, n, rng):
        # eps = 0 never stops on the step rule, so only the exact test can.
        p0 = rng.uniform(0.0, 100.0, size=n)
        report = bilevel_solve(
            identity_oracle, Objective(p0=p0), PriceDomain.orthant(), eps=0.0, start=p0
        )
        assert report.termination is Termination.EXACT_FIXED_POINT
        assert report.iterations == 1

    def test_nan_map_runs_to_the_limit(self):
        report = bilevel_solve(
            lambda p: np.full_like(p, np.nan),
            Objective(p0=[1.0, 2.0]),
            PriceDomain.orthant(),
            max_iter=7,
        )
        assert report.termination is Termination.ITER_LIMIT
        assert len(report.trace) == report.iterations == 7

    def test_trace_rows_are_immutable(self):
        report = bilevel_solve(identity_oracle, Objective(p0=[1.0]), PriceDomain.orthant())
        with pytest.raises(AttributeError):
            report.trace[0].f_value = 0.0


class TestKmFixedPoint:
    def test_contracts_to_ray_endpoint(self, saturated_1d):
        ev = ExcessEvaluator(saturated_1d)
        fp = km_fixed_point(ev.map_oracle(), saturated_1d.domain, [1.0], eps=1e-10)
        np.testing.assert_allclose(fp, [4.0], atol=1e-8)

    def test_already_fixed_returns_immediately(self, saturated_1d):
        ev = ExcessEvaluator(saturated_1d)
        fp = km_fixed_point(ev.map_oracle(), saturated_1d.domain, [10.0], eps=1e-10)
        np.testing.assert_allclose(fp, [10.0])
        assert ev.qp_solves <= 2

    def test_identity_returns_start(self):
        fp = km_fixed_point(identity_oracle, PriceDomain.orthant(), [3.0, 1.0])
        np.testing.assert_allclose(fp, [3.0, 1.0])

    def test_limit_raises(self, combined_1d):
        ev = ExcessEvaluator(combined_1d)
        with pytest.raises(IterationLimitError):
            km_fixed_point(ev.map_oracle(), combined_1d.domain, [100.0], eps=1e-12, max_iter=5)

    def test_zero_iterations_raise_the_limit(self):
        with pytest.raises(IterationLimitError, match="within 0 iterations"):
            km_fixed_point(identity_oracle, PriceDomain.orthant(), [1.0], max_iter=0)


def _hybrid_from(oracle, start, **limits):
    return bilevel_solve(
        oracle, Objective(p0=[1.0, 2.0]), PriceDomain.orthant(), start=start, **limits
    )


def _km_from(oracle, start, **limits):
    return km_fixed_point(oracle, PriceDomain.orthant(), start, **limits)


_BAD_LIMITS = {
    "max-iter-negative": ({"max_iter": -5}, "max_iter must be nonnegative"),
    "max-iter-float": ({"max_iter": 2.5}, "max_iter is not an integer: 2.5"),
    "max-iter-bool": ({"max_iter": True}, "max_iter is not an integer: True"),
    "eps-nan": ({"eps": math.nan}, "eps must be finite and nonnegative"),
    "eps-negative": ({"eps": -1.0}, "eps must be finite and nonnegative"),
    "eps-inf": ({"eps": math.inf}, "eps must be finite and nonnegative"),
    "eps-string": ({"eps": "1"}, "eps is not a number: '1'"),
    "eps-bool": ({"eps": True}, "eps is not a number: True"),
    "eps-array": ({"eps": np.array([1e-4, 1e-4])}, r"eps has shape \(2,\), expected \(\)"),
    "eps-huge-int": ({"eps": 10**400}, "eps is not a number: int too large to convert to float"),
}
_BAD_TRACE_EVERY = {
    "trace-every-negative": ({"trace_vi_every": -3}, "trace_vi_every must be nonnegative"),
    "trace-every-bool": ({"trace_vi_every": True}, "trace_vi_every is not an integer: True"),
}


@pytest.mark.parametrize(
    "solve, limits, message",
    [
        *(
            pytest.param(_hybrid_from, *case, id=f"hybrid-{name}")
            for name, case in {**_BAD_LIMITS, **_BAD_TRACE_EVERY}.items()
        ),
        *(pytest.param(_km_from, *case, id=f"km-{name}") for name, case in _BAD_LIMITS.items()),
    ],
)
def test_bad_limits_raise_before_any_evaluation(solve, limits, message):
    # Both solvers word a bad limit alike, before the map runs.
    def oracle(p):
        raise AssertionError("the map was evaluated")

    with pytest.raises(ValueError, match=f"^{message}$"):
        solve(oracle, [1.0, 2.0], **limits)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize(
    "solve",
    [
        pytest.param(lambda oracle, box, p: bilevel_solve(oracle, Objective(p0=p), box), id="hybrid"),
        pytest.param(lambda oracle, box, p: km_fixed_point(oracle, box, p), id="km"),
    ],
)
def test_mismatched_box_raises_before_any_evaluation(solve, n):
    # The anchor (hybrid) or the start (km) has n entries, the box two.
    calls = []

    def oracle(p):
        calls.append(p)
        return p

    box = PriceDomain.box([0.0, 0.0], [10.0, 10.0])
    with pytest.raises(ValueError, match="^box bounds do not match dimension n$"):
        solve(oracle, box, np.full(n, 5.0))
    assert calls == []


@pytest.mark.parametrize(
    "given, plain",
    [
        pytest.param({"eps": np.array(1e-4)}, {"eps": 1e-4}, id="eps-0-d"),
        pytest.param({"eps": np.float32(1e-4)}, {"eps": float(np.float32(1e-4))}, id="eps-float32"),
        pytest.param({"weight": np.array(0.25)}, {"weight": 0.25}, id="weight-0-d"),
    ],
)
def test_numpy_scalars_solve_as_plain_floats(given, plain):
    inst = make_combined_1d(p0=7.0)

    def hybrid(eps=1e-4, weight=1.0):
        objective = Objective(p0=inst.p0, weight=weight)
        return bilevel_solve(ExcessEvaluator(inst).map_oracle(), objective, inst.domain, eps=eps)

    report, expected = hybrid(**given), hybrid(**plain)
    assert report.termination is expected.termination
    assert trace_csv_rows(report.trace) == trace_csv_rows(expected.trace)
    assert report.solution.tobytes() == expected.solution.tobytes()
    if "eps" in given:
        km = [
            km_fixed_point(ExcessEvaluator(inst).map_oracle(), inst.domain, [7.0], **limits)
            for limits in (given, plain)
        ]
        assert km[0].tobytes() == km[1].tobytes()


_BAD_STARTS = {
    "strings": (["1", "2"], "^start has an entry that is not a number: '1'$"),
    "bool": ([True, 2.0], "^start has an entry that is not a number: True$"),
    "2-d": ([[1.0, 2.0]], r"^start has shape \(1, 2\), expected \((2|None),\)$"),
    "inf": ([math.inf, 1.0], "^start has non-finite entries$"),
}


@pytest.mark.parametrize(
    "solve, start, message",
    [
        *(
            pytest.param(_hybrid_from, *case, id=f"hybrid-{name}")
            for name, case in _BAD_STARTS.items()
        ),
        pytest.param(
            _hybrid_from, [1.0, 2.0, 3.0], r"^start has shape \(3,\), expected \(2,\)$",
            id="hybrid-length-3",
        ),
        *(pytest.param(_km_from, *case, id=f"km-{name}") for name, case in _BAD_STARTS.items()),
    ],
)
def test_bad_start_raises_before_any_evaluation(solve, start, message):
    # Read with qp.as_floats, so no map runs and numpy warns of nothing.
    def oracle(p):
        raise AssertionError("the map was evaluated")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            solve(oracle, start)


class TestObjective:
    def test_default_moduli(self):
        obj = Objective(p0=[1.0, 2.0])
        assert obj.beta == 2.0 and obj.L == 2.0
        np.testing.assert_allclose(obj.gradient(np.array([2.0, 2.0])), [2.0, 0.0])

    def test_weight_scales_moduli_not_minimizer(self):
        obj = Objective(p0=[1.0], weight=0.25)
        assert obj.beta == 0.5
        np.testing.assert_allclose(obj.gradient(np.array([1.0])), [0.0])

    @pytest.mark.parametrize(
        "weight, message",
        [
            (0.0, "weight must be positive"),
            (True, "weight is not a number: True"),
            ("0.5", "weight is not a number: '0.5'"),
            (np.array([0.5, 0.5]), r"weight has shape \(2,\), expected \(\)"),
            (10**400, "weight is not a number: int too large to convert to float"),
        ],
        ids=["zero", "bool", "string", "array", "huge-int"],
    )
    def test_rejects_nonpositive_weight(self, weight, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Objective(p0=[1.0], weight=weight)
