"""Active-set solver, KKT checker and phase-1 tests."""

import collections
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array

from eqprice import qp as qp_module
from eqprice.cli import trial_seed
from eqprice.gen import GenConfig, generate
from eqprice.qp import (
    QpProblem,
    QpStatus,
    as_floats,
    check_kkt,
    feasible_point,
    highs_lp,
    inequality_rows,
    solve_qp,
)
from oracles import enumerate_qp, random_qp


def with_utility_row(A, b, g, M):
    """``A, b`` with ``g'x >= M`` as their last row, ``-g'x <= -M``, as the
    demand program writes its utility floor."""
    return np.vstack([A, np.negative(g)]), np.append(b, -M)


def box_problem(q_val: float, floor=None) -> QpProblem:
    """min x^2 + q x on [0, 10], with the row ``g'x >= M`` of ``floor = (g, M)`` last."""
    A, b = [[1.0]], [10.0]
    if floor is not None:
        A, b = with_utility_row(A, b, *floor)
    return QpProblem(Q=[[1.0]], q=[q_val], A=A, b=b)


def region(A, b, n: int) -> QpProblem:
    """The polyhedron ``A x <= b``, ``x >= 0`` as a program (Q = I, q = 0)."""
    return QpProblem(Q=np.eye(n), q=np.zeros(n), A=A, b=b)


def solve_from(problem: QpProblem, x0, max_iter=None):
    """The warm entry: ``solve_prepared`` on the problem's rows from a feasible x0."""
    H, G, h = problem.prepared
    return qp_module.solve_prepared(H, problem.q, G, h, np.asarray(x0, dtype=float), max_iter=max_iter)


class TestSolveQp:
    def test_interior_minimizer(self):
        """min x^2 - 4x on [0,10] => x=2 (stationary point interior)"""
        sol = solve_qp(box_problem(-4.0))
        assert sol.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [2.0], atol=1e-10)

    def test_zero_corner(self):
        """min x^2 on [0,10] => x=0"""
        sol = solve_qp(box_problem(0.0))
        assert sol.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [0.0], atol=1e-10)

    def test_floor_active(self):
        """min x^2 + x with x>=2 => objective increasing, floor binds at 2"""
        sol = solve_qp(box_problem(1.0, floor=([1.0], 2.0)))
        assert sol.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [2.0], atol=1e-10)

    def test_upper_bound_clips(self):
        """min x^2 - 60x on [0,10] => x=10"""
        sol = solve_qp(box_problem(-60.0))
        np.testing.assert_allclose(sol.x, [10.0], atol=1e-10)

    def test_infeasible_returns_certificate(self):
        problem = QpProblem(Q=[[1.0]], q=[0.0], A=[[1.0], [-1.0]], b=[1.0, -2.0])  # 2 <= x <= 1
        sol = solve_qp(problem)
        assert sol.status is QpStatus.INFEASIBLE
        assert sol.certificate is not None
        # Certificate rows combine to 0 <= negative number.
        _, G, h = problem.prepared
        y = sol.certificate
        assert np.all(y >= -1e-12)
        assert float(y @ h) < -1e-6
        assert np.all(G.T @ y >= -1e-9)

    def test_rows_must_have_one_column_per_variable(self):
        with pytest.raises(ValueError, match=r"^A has shape \(1, 3\), expected \(None, 2\)$"):
            QpProblem(Q=np.eye(2), q=[0.0, 0.0], A=[[1.0, 1.0, 1.0]], b=[1.0])

    def test_iteration_limit_status(self):
        problem, z = random_qp(np.random.default_rng(5))
        sol = solve_from(problem, z, max_iter=1)
        assert sol.status in (QpStatus.ITER_LIMIT, QpStatus.OPTIMAL)

    @pytest.mark.bits
    def test_residual_above_tolerance_is_its_own_status(self, monkeypatch):
        # A loop that passes its sign test but not the residual test is
        # INACCURATE, not ITER_LIMIT; its answer and iterations are unchanged.
        problem, z = random_qp(np.random.default_rng(5))
        optimal = solve_from(problem, z)
        assert optimal.status is QpStatus.OPTIMAL
        monkeypatch.setattr(qp_module, "DEFAULT_TOL", -1.0)  # no residual meets it
        inaccurate = solve_from(problem, z)
        assert inaccurate.status is QpStatus.INACCURATE
        np.testing.assert_array_equal(inaccurate.x, optimal.x)
        assert inaccurate.iterations == optimal.iterations

    def test_degenerate_duplicate_rows(self):
        # The same constraint twice makes the optimal active set dependent.
        problem = QpProblem(
            Q=[[1.0, 0.0], [0.0, 1.0]],
            q=[-4.0, -4.0],
            A=[[1.0, 1.0], [1.0, 1.0]],
            b=[2.0, 2.0],
        )
        sol = solve_qp(problem)
        assert sol.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-8)


class TestAsFloats:
    def test_read_only_floats_pass_through_and_others_are_frozen_copies(self):
        frozen = np.arange(6.0).reshape(2, 3)
        frozen.flags.writeable = False
        assert as_floats(frozen, "A", (2, None)) is frozen
        source = np.arange(3)
        arr = as_floats(source, "b", (3,))
        assert arr.dtype == np.float64 and not arr.flags.writeable
        assert source.flags.writeable

    @pytest.mark.parametrize(
        "value, shape, expected",
        [([], (None, 3), (0, 3)), (np.zeros((0, 0)), (None, 3), (0, 3)),
         (np.zeros((0, 5)), (None, None), (0, 5)), ([], (None,), (0,))],
        ids=["list", "no-columns", "free-columns", "vector"],
    )
    def test_empty_value_reads_as_zero_rows(self, value, shape, expected):
        assert as_floats(value, "A", shape).shape == expected

    @pytest.mark.parametrize(
        "value, shape, message",
        [
            (True, (), "x is not a number: True"),
            (10**400, (), "x is not a number: int too large to convert to float"),
            ([1.5, True], (None,), "x has an entry that is not a number: True"),
            ([[1.0], ["2"]], (None, 1), "x has an entry that is not a number: '2'"),
            ([[1.0], [2.0, 3.0]], (None, None), "x has an entry that is not a number: [1.0]"),
            ([1.0], (), "x has shape (1,), expected ()"),
            ([], (2,), "x has shape (0,), expected (2,)"),
            ([1.0, np.inf], (None,), "x has non-finite entries"),
        ],
        ids=["bool", "huge-int", "mixed-bool", "text", "ragged", "scalar", "length", "inf"],
    )
    def test_refusal_names_the_value(self, value, shape, message):
        with pytest.raises(ValueError) as refused:
            as_floats(value, "x", shape)
        assert str(refused.value) == message


class TestAgainstEnumeration:
    def test_matches_brute_force_on_random_problems(self):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(200):
            problem, z = random_qp(rng)
            expected = enumerate_qp(problem)
            assert expected is not None
            sol = solve_qp(problem)
            assert sol.status is QpStatus.OPTIMAL
            np.testing.assert_allclose(sol.x, expected, atol=1e-6)
            checked += 1
        assert checked == 200

    def test_certified_by_independent_kkt_check(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            problem, z = random_qp(rng)
            sol = solve_qp(problem)
            assert sol.status is QpStatus.OPTIMAL
            assert check_kkt(problem, sol.x) <= 1e-8 * (1 + np.abs(problem.q).max())

    def test_start_point_independence(self):
        # The cold start against warm starts from feasible points only: z, a
        # shrunk copy of z when it satisfies every row, and random points.
        rng = np.random.default_rng(7)
        shrunk = 0
        for _ in range(20):
            problem, z = random_qp(rng, with_utility_row=False)
            _, G, h = problem.prepared

            def feasible(x):
                return float(np.max(G @ x - h, initial=0.0)) <= 0.0

            baseline = solve_qp(problem).x
            starts = [z] + [x for x in [z * rng.uniform(0.5, 1.0)] if feasible(x)]
            shrunk += len(starts) - 1
            while len(starts) < 5:
                cand = np.abs(rng.normal(size=problem.n))
                if feasible(cand):
                    starts.append(cand)
            for start in starts:
                sol = solve_from(problem, start)
                assert sol.status is QpStatus.OPTIMAL
                np.testing.assert_allclose(sol.x, baseline, atol=1e-6)
        assert shrunk > 5


class TestCheckKkt:
    def test_zero_at_optimum(self):
        assert check_kkt(box_problem(-4.0), [2.0]) <= 1e-8

    def test_detects_wrong_sign_multiplier(self):
        # At x=0 the gradient is -4; the bound multiplier would need to be
        # negative, so the reported residual is at least 4.
        assert check_kkt(box_problem(-4.0), [0.0]) >= 4.0 - 1e-8

    def test_interior_residual_is_gradient_norm(self):
        problem = QpProblem(Q=np.eye(2), q=[0.0, 0.0], A=np.zeros((0, 2)), b=[])
        x = np.array([0.3, 0.4])
        np.testing.assert_allclose(check_kkt(problem, x), np.linalg.norm(2 * x))


class TestFeasiblePoint:
    def test_interval_intersection(self):
        res = feasible_point(region([[1.0], [-1.0]], [10.0, -2.0], 1))
        assert res.feasible
        assert 2.0 - 1e-9 <= res.x[0] <= 10.0 + 1e-9

    def test_contradictory_floor(self):
        res = feasible_point(region([[1.0], [-1.0]], [1.0, -2.0], 1))
        assert not res.feasible
        assert res.gap > 0.5
        # y >= 0 with y'G >= 0 on x >= 0 and y'h < 0 proves emptiness.
        y = res.certificate
        G = np.array([[1.0], [-1.0]])
        h = np.array([1.0, -2.0])
        assert np.all(y[:2] >= -1e-12)
        assert float(y[:2] @ G[:, 0]) >= -1e-9
        assert float(y[:2] @ h) < -1e-6

    def test_unconstrained_nonneg_returns_zero(self):
        res = feasible_point(region(np.zeros((0, 1)), [], 1))
        assert res.feasible
        np.testing.assert_allclose(res.x, [0.0])

    def test_negative_rhs_empty_orthant_box(self):
        res = feasible_point(region([[1.0]], [-1.0], 1))
        assert not res.feasible

    @pytest.mark.parametrize("floor, lps", [(None, 0), (([1.0], 2.0), 1)], ids=["zero", "lp"])
    def test_phase1_is_found_once_and_read_only(self, monkeypatch, floor, lps):
        calls = []
        real = qp_module.highs_lp
        monkeypatch.setattr(qp_module, "highs_lp", lambda *a: (calls.append(a), real(*a))[1])
        problem = box_problem(-4.0, floor)
        first = problem.phase1
        for _ in range(3):
            assert solve_qp(problem).status is QpStatus.OPTIMAL
        assert problem.phase1 is first and len(calls) == lps
        with pytest.raises(ValueError, match="read-only"):
            first.x[0] = 1.0
        np.testing.assert_array_equal(first.x, feasible_point(box_problem(-4.0, floor)).x)

    def test_lp_failure_names_its_status(self, monkeypatch):
        monkeypatch.setattr(
            qp_module, "highs_lp", lambda *args, **kwargs: (False, None, np.nan, None, "Time limit reached")
        )
        with pytest.raises(RuntimeError, match="phase-1 LP failed unexpectedly: Time limit reached"):
            feasible_point(region([[1.0]], [-1.0], 1))


def _elastic_lp(A, b):
    """The phase-1 LP that ``feasible_point`` builds: ``(c, A_ub, b_ub)``."""
    G, h = inequality_rows(A, b)
    n = A.shape[1]
    rows = G.shape[0] - n
    a_ub = np.hstack([G[:rows], -np.eye(rows)])
    return np.concatenate([np.zeros(n), np.ones(rows)]), a_ub, h[:rows]


class TestHighsLp:
    """``highs_lp`` gives ``linprog(method="highs")``'s bits: x, objective and row duals."""

    @staticmethod
    def assert_same_bits(c, A_ub, b_ub):
        optimal, x, objective, duals, _ = highs_lp(c, A_ub, b_ub)
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0.0, None), method="highs")
        assert optimal == (res.status == 0)
        if optimal:
            assert np.array_equal(x, res.x)
            assert objective == res.fun
            assert np.array_equal(duals, res.ineqlin.marginals)
        return optimal

    @pytest.mark.parametrize("n, m", [(5, 3), (10, 8), (30, 20), (50, 30)])
    def test_utility_lps_of_generated_instances(self, n, m):
        for trial in range(10):
            instance = generate(GenConfig(n=n, m=m, seed=trial_seed(42, n, m, trial))).instance
            feasible = instance.feasible
            assert self.assert_same_bits(-instance.costs.l, feasible.A, feasible.b)

    def test_elastic_lps(self, rng):
        outcomes = set()
        for _ in range(100):
            n, m = (int(k) for k in rng.integers(1, 8, size=2))
            A, b = rng.normal(size=(m, n)), rng.normal(size=m)
            if rng.integers(2):
                A, b = with_utility_row(A, b, rng.uniform(0.0, 1.0, n), float(rng.uniform(0.0, 5.0)))
            assert self.assert_same_bits(*_elastic_lp(A, b))
            outcomes.add(feasible_point(region(A, b, n)).feasible)
        assert outcomes == {True, False}

    # (c, A_ub, b_ub) with a zero column, -0.0 entries, a NaN entry and no rows.
    EDGE_LPS = {
        "zero-column": ([-1.0, 1.0, -1.0], [[1.0, 0.0, 2.0], [3.0, 0.0, 1.0]], [4.0, 6.0]),
        "negative-zeros": ([-1.0, -1.0], [[1.0, -0.0], [-0.0, 2.0]], [1.0, 2.0]),
        "nan-entry": ([-1.0, -1.0], [[1.0, np.nan], [2.0, 1.0]], [1.0, 2.0]),
        "empty": ([1.0, 2.0], np.zeros((0, 2)), []),
    }

    @pytest.mark.parametrize("name", EDGE_LPS)
    def test_matrix_is_passed_as_csc_array_stores_it(self, name):
        A = np.asarray(self.EDGE_LPS[name][1], dtype=float)
        start, index, value = qp_module._colwise(A)
        expected = csc_array(A)
        assert np.array_equal(start, expected.indptr)
        assert np.array_equal(index, expected.indices)
        assert np.array_equal(value, expected.data, equal_nan=True)

    # Both reject the NaN entry of "nan-entry"; see test_non_finite_input_is_rejected.
    @pytest.mark.parametrize("name", ["zero-column", "negative-zeros", "empty"])
    def test_edge_lps(self, name):
        assert self.assert_same_bits(*self.EDGE_LPS[name])

    # One NaN or infinite entry in each argument of a 2-variable LP that is
    # optimal without it.  HiGHS solves around such an entry: a NaN in A_ub
    # or an infinite b_ub came back "optimal".
    @pytest.mark.parametrize(
        "name, c, A_ub, b_ub",
        [
            ("c", [np.nan, -1.0], [[1.0, 0.0], [2.0, 1.0]], [1.0, 2.0]),
            ("c", [-1.0, -np.inf], [[1.0, 0.0], [2.0, 1.0]], [1.0, 2.0]),
            ("A_ub", [-1.0, -1.0], [[1.0, np.nan], [2.0, 1.0]], [1.0, 2.0]),
            ("A_ub", [-1.0, -1.0], [[1.0, 0.0], [np.inf, 1.0]], [1.0, 2.0]),
            ("b_ub", [-1.0, -1.0], [[1.0, 0.0], [2.0, 1.0]], [1.0, np.nan]),
            ("b_ub", [-1.0, -1.0], [[1.0, 0.0], [2.0, 1.0]], [1.0, np.inf]),
            ("b_ub", [-1.0, -1.0], [[1.0, 0.0], [2.0, 1.0]], [-np.inf, 2.0]),
        ],
    )
    def test_non_finite_input_is_rejected(self, name, c, A_ub, b_ub):
        with pytest.raises(ValueError, match=f"{name} must not contain"):
            linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0.0, None), method="highs")
        with pytest.raises(ValueError, match=f"^{name} must not contain values inf or nan$"):
            highs_lp(c, A_ub, b_ub)

    def test_failures_are_named(self):
        assert highs_lp([-1.0], np.zeros((0, 1)), [])[::4] == (False, "Unbounded")
        assert highs_lp([1.0], [[1.0], [-1.0]], [-1.0, 0.0])[::4] == (False, "Infeasible")
        # HiGHS rejects matrix entries of magnitude 1e15 and more.
        assert highs_lp([1.0], [[1e16]], [1.0])[::4] == (False, "Model error")


# Child-process scripts: ``import eqprice`` loads scipy's HiGHS extension by
# file, and one module object serves both eqprice and scipy.optimize in
# either import order.
_ECHO_FOOTPRINT = """
import sys
import eqprice, eqprice.cli
print(sorted({"scipy.optimize", "scipy.sparse", "scipy.linalg"} & set(sys.modules)))
"""
_SHARED_EXTENSION = """
import sys
if sys.argv[1] == "scipy-first":
    import scipy.optimize
from eqprice import qp
from scipy.optimize import linprog
assert linprog([-1.0], A_ub=[[1.0]], b_ub=[2.0], method="highs").x[0] == 2.0
assert qp._highs is sys.modules["scipy.optimize._highspy._core"]
"""


class TestImportFootprint:
    @staticmethod
    def run(*args):
        src = str(Path(qp_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run(
            [sys.executable, "-c", *args], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        return out.stdout

    def test_import_leaves_out_scipy_optimize_sparse_and_linalg(self):
        assert self.run(_ECHO_FOOTPRINT) == "[]\n"

    @pytest.mark.parametrize("order", ["eqprice-first", "scipy-first"])
    def test_one_highs_module_in_either_order(self, order):
        self.run(_SHARED_EXTENSION, order)


def dependent_problem() -> QpProblem:
    """Three copies of one binding constraint.

    Starting on it at [1, 1] puts all three in the initial working set, so
    the first KKT step is singular and the solver must take the
    degeneracy-bump branch.
    """
    return QpProblem(
        Q=np.eye(2),
        q=[-4.0, -4.0],
        A=np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]),
        b=np.array([2.0, 2.0, 4.0]),
    )


class TestPerturbationPolicy:
    def test_dependent_working_set_is_relaxed(self):
        sol = solve_from(dependent_problem(), [1.0, 1.0])
        assert sol.bumps >= 1
        assert sol.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-7)

    def test_independent_working_set_takes_no_bump(self):
        problem, _ = random_qp(np.random.default_rng(5))
        sol = solve_qp(problem)
        assert sol.status is QpStatus.OPTIMAL and len(sol.working_set) == 2
        assert sol.bumps == 0

    def test_gives_up_after_eight_bumps(self, monkeypatch):
        # Every step singular: eight bump rounds, then the ninth iteration stops.
        monkeypatch.setattr(qp_module, "_kkt_step", lambda *args: None)
        problem, _ = random_qp(np.random.default_rng(5))
        sol = solve_qp(problem)
        assert sol.status is QpStatus.ITER_LIMIT
        assert (sol.iterations, sol.bumps) == (9, 8)


class TestReductions:
    def test_max_min_match_the_ufunc_reductions(self):
        rng = np.random.default_rng(5)
        for size in (1, 5, 30, 81):
            for _ in range(20):
                a = rng.normal(size=size)
                a[rng.random(size) < 0.1] = np.inf
                a[rng.random(size) < 0.1] = -np.inf
                assert qp_module._max(a) == np.maximum.reduce(a)
                assert qp_module._min(a) == np.minimum.reduce(a)
                assert type(qp_module._max(a)) is float

    def test_nan_propagates(self):
        rng = np.random.default_rng(6)
        for size in (1, 5, 30):
            for _ in range(20):
                a = rng.normal(size=size)
                a[rng.random(size) < 0.1] = np.inf
                a[rng.random(size) < 0.1] = -np.inf
                a[rng.integers(size)] = np.nan
                assert np.isnan(qp_module._max(a))
                assert np.isnan(qp_module._min(a))

    def test_empty_raises_like_the_ufunc(self):
        for reduce in (qp_module._max, qp_module._min, np.maximum.reduce, np.minimum.reduce):
            with pytest.raises(ValueError):
                reduce(np.zeros(0))


class TestKktMatrix:
    """``qp.kkt_matrix`` is the one statement of the KKT layout."""

    @staticmethod
    def hand_built(H: np.ndarray, Gw: np.ndarray) -> np.ndarray:
        n, w = H.shape[0], Gw.shape[0]
        kkt = np.zeros((n + w, n + w))
        kkt[:n, :n] = H
        kkt[n:, :n] = Gw
        kkt[:n, n:] = Gw.T
        return kkt

    @pytest.mark.bits
    def test_matches_the_hand_built_matrix(self):
        rng = np.random.default_rng(19)
        for n, w in [(1, 0), (1, 1), (3, 0), (3, 2), (4, 4), (6, 3)]:
            H, Gw = rng.normal(size=(n, n)), rng.normal(size=(w, n))
            Gw[:, 0] = -0.0  # -0.0 keeps its sign, as in the sign rows
            kkt = qp_module.kkt_matrix(H, Gw)
            assert kkt.flags.c_contiguous
            np.testing.assert_array_equal(kkt, self.hand_built(H, Gw))
            assert np.array_equal(np.signbit(kkt), np.signbit(self.hand_built(H, Gw)))
            padded = qp_module.kkt_matrix(H, Gw, n + w + 3)
            np.testing.assert_array_equal(padded[: n + w, : n + w], kkt)
            assert not padded[n + w :].any() and not padded[:, n + w :].any()

    @pytest.mark.bits
    def test_is_what_the_last_step_of_an_optimal_solve_factorized(self, monkeypatch):
        # Every solve runs at several iteration caps, so the loop also stops
        # right after a row joins or leaves.  The recorded step sizes show
        # that row drops and the bump reset both occur, so the matrix the
        # loop updates in place is compared after adds, drops and resets.
        kkt_step = qp_module._kkt_step
        factorized: list[list[np.ndarray | None]] = []

        def recording_step(kkt, *args):
            step = kkt_step(kkt, *args)
            factorized[-1].append(None if step is None else kkt.copy())
            return step

        monkeypatch.setattr(qp_module, "_kkt_step", recording_step)
        rng = np.random.default_rng(17)
        cases = [(random_qp(rng)[0], None) for _ in range(100)]
        cases.append((dependent_problem(), np.array([1.0, 1.0])))
        statuses = collections.Counter()
        for problem, start in cases:
            H, G, _ = problem.prepared
            for max_iter in (1, 2, 3, 5, None):
                factorized.append([])
                if start is None:
                    sol = solve_qp(problem, max_iter=max_iter)
                else:
                    sol = solve_from(problem, start, max_iter=max_iter)
                statuses[sol.status] += 1
                if sol.status is QpStatus.OPTIMAL:
                    kkt = qp_module.kkt_matrix(H, G[list(sol.working_set)])
                    assert np.array_equal(factorized[-1][-1], kkt)
                    assert np.array_equal(np.signbit(factorized[-1][-1]), np.signbit(kkt))
        assert set(statuses) == {QpStatus.OPTIMAL, QpStatus.ITER_LIMIT}
        assert statuses[QpStatus.OPTIMAL] > 300
        sizes = [[-1 if m is None else m.shape[0] for m in run] for run in factorized]
        steps = [pair for run in sizes for pair in zip(run, run[1:])]
        assert any(0 < b < a for a, b in steps), "no row was dropped"
        assert any(a == -1 for a, _ in steps), "no bump reset"


def residual_on_set(problem, x, lam, wset):
    """The KKT residual of ``x`` with multipliers ``lam`` on the rows ``wset``:
    the largest of primal infeasibility, the stationarity norm, multiplier
    negativity and complementarity."""
    _, G, h = problem.prepared
    grad = problem.gradient(x)
    Gw = G[wset]
    return max(
        float(np.max(G @ x - h, initial=0.0)),
        float(np.linalg.norm(grad + Gw.T @ lam)),
        float(max(0.0, -lam.min(initial=0.0))),
        float(np.max(np.abs(lam * (Gw @ x - h[wset])), initial=0.0)),
    )


class TestPostLoopCheck:
    """What ``solve_prepared`` reports about the working set it ends with."""

    def test_optimal_working_set_holds_every_active_row(self):
        # check_kkt's active rows: those within 1e-7 of active at x.
        rng = np.random.default_rng(29)
        for _ in range(200):
            problem, _ = random_qp(rng)
            sol = solve_qp(problem)
            assert sol.status is QpStatus.OPTIMAL
            _, G, h = problem.prepared
            active = np.flatnonzero(G @ sol.x - h >= -1e-7 * (1.0 + np.abs(h)))
            assert set(active.tolist()) <= set(sol.working_set)

    def test_residual_takes_the_loop_multipliers_or_refits_stale_ones(self, monkeypatch):
        # A stop right after a row joins or leaves leaves the loop's
        # multipliers one short or one long: the residual then takes
        # multipliers refit on the final set by least squares.  Otherwise it
        # takes the loop's own.
        active_set = qp_module._active_set
        returned = []

        def recording(*args):
            returned.append(active_set(*args))
            return returned[-1]

        monkeypatch.setattr(qp_module, "_active_set", recording)
        rng = np.random.default_rng(31)
        kinds = collections.Counter()
        for _ in range(100):
            problem, _ = random_qp(rng)
            _, G, _ = problem.prepared
            for max_iter in (1, 2, 3, None):
                sol = solve_qp(problem, max_iter=max_iter)
                x, lam, wset, *_ = returned[-1]
                assert wset == list(sol.working_set)
                if lam.size != len(wset):
                    assert max_iter is not None
                    lam = np.linalg.lstsq(G[wset].T, -problem.gradient(x), rcond=None)[0]
                    kinds["refit"] += 1
                else:
                    kinds["empty" if not wset else "kept"] += 1
                expected = residual_on_set(problem, x, lam, wset)
                assert sol.kkt_residual == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert min(kinds["empty"], kinds["refit"], kinds["kept"]) > 20, kinds


class TestVertexRepair:
    """An OPTIMAL loop that misses the residual bound on n working-set rows (a
    vertex) is solved afresh on those rows."""

    @staticmethod
    def nudged(monkeypatch, shift, wset=None):
        """Make the loop end ``shift`` off its point, on rows ``wset`` if given."""
        active_set = qp_module._active_set

        def nudge(*args):
            x, lam, found, *rest = active_set(*args)
            return (x + shift, lam, found if wset is None else wset, *rest)

        monkeypatch.setattr(qp_module, "_active_set", nudge)

    def test_vertex_is_solved_on_its_rows(self, monkeypatch):
        # min |x - (3, 3)|^2 on x <= (1, 1): the vertex (1, 1), multipliers 4.
        problem = QpProblem(Q=np.eye(2), q=[-6.0, -6.0], A=np.eye(2), b=[1.0, 1.0])
        self.nudged(monkeypatch, [1e-6, 0.0])
        sol = solve_qp(problem)
        assert sol.status is QpStatus.OPTIMAL and sorted(sol.working_set) == [0, 1]
        np.testing.assert_array_equal(sol.x, [1.0, 1.0])
        assert sol.kkt_residual == 0.0

    @pytest.mark.parametrize(
        "A, b, wset, tol",
        [
            ([[1.0, 1.0]], [2.0], None, qp_module.DEFAULT_TOL),
            ([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0], [0, 1], qp_module.DEFAULT_TOL),
            (np.eye(2), [1.0, 1.0], None, -1.0),
        ],
        ids=["one-row", "dependent-rows", "re-solve-misses"],
    )
    def test_other_misses_stay_inaccurate(self, monkeypatch, A, b, wset, tol):
        # One row of two is no vertex, two equal rows make a singular
        # re-solve, and under a bound no residual meets the re-solve misses:
        # each keeps the loop's point.
        problem = QpProblem(Q=np.eye(2), q=[-6.0, -6.0], A=A, b=b)
        exact = solve_qp(problem)
        self.nudged(monkeypatch, [1e-6, 0.0], wset)
        monkeypatch.setattr(qp_module, "DEFAULT_TOL", tol)
        sol = solve_qp(problem)
        assert sol.status is QpStatus.INACCURATE
        np.testing.assert_array_equal(sol.x, exact.x + [1e-6, 0.0])


def initial_working_set_reference(G, h, x, requested, n):
    """The list rule that ``_initial_working_set`` replaced; a requested row
    counts once."""
    active = h - G @ x <= 1e-10 * (1.0 + np.abs(h))
    wset = []
    for i in requested or ():
        if 0 <= i < G.shape[0] and active[i] and i not in wset:
            wset.append(i)
    for i in np.flatnonzero(active):
        i = int(i)
        if len(wset) >= n:
            break
        if i not in wset:
            wset.append(i)
    return wset[:n]


def test_initial_working_set_matches_the_list_rule():
    rng = np.random.default_rng(23)
    crowded = duplicated = 0
    for _ in range(300):
        n = int(rng.integers(1, 6))
        rows = int(rng.integers(0, 3 * n + 3))
        G = rng.normal(size=(rows, n))
        x = rng.normal(size=n)
        # About half the rows are tight at x, often more than n of them.
        h = G @ x + np.where(rng.random(rows) < 0.5, 0.0, rng.uniform(0.1, 1.0, size=rows))
        requested = None
        if rng.random() < 0.8:
            # Duplicates, inactive rows and out-of-range indices.
            requested = tuple(int(i) for i in rng.integers(-2, rows + 2, size=rng.integers(0, 2 * n + 2)))
        got = qp_module._initial_working_set(G, h, x, requested, n)
        assert got == initial_working_set_reference(G, h, x, requested, n)
        assert all(type(i) is int for i in got)
        crowded += int(np.count_nonzero(h - G @ x <= 1e-10 * (1.0 + np.abs(h))) > n)
        duplicated += int(requested is not None and len(set(requested)) < len(requested))
    assert crowded > 50 and duplicated > 50


def test_duplicate_requested_rows_count_once():
    # min x'x - 4(x1 + x2) s.t. x1 + x2 <= 2, x >= 0, from the optimum [1, 1]:
    # row 0 twice would make the first KKT system singular.
    problem = QpProblem(Q=np.eye(2), q=[-4.0, -4.0], A=[[1.0, 1.0]], b=[2.0])
    H, G, h = problem.prepared
    x0 = np.ones(2)
    once = qp_module.solve_prepared(H, problem.q, G, h, x0, working_set=(0,))
    twice = qp_module.solve_prepared(H, problem.q, G, h, x0, working_set=(0, 0))
    assert once.status is twice.status is QpStatus.OPTIMAL
    np.testing.assert_array_equal(twice.x, once.x)
    assert twice.iterations == once.iterations == 1
    assert twice.working_set == (0,)
