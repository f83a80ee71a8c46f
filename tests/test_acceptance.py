"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines inline.
"""

import csv
import functools
import math
import time

import numpy as np

from eqprice.cli import main, run_bench
from eqprice.gen import GenConfig, random_instance
from eqprice.maps import ExcessEvaluator
from eqprice.model import PriceDomain
from eqprice.solver import (
    Objective,
    bilevel_solve,
    km_fixed_point,
    step_size,
)
from conftest import make_combined_1d, make_saturated_1d
from oracles import enumerate_qp, random_qp
from eqprice.qp import QpStatus, solve_qp


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {name}: PASS")

        return wrapper

    return decorate


@criterion(1, "qp oracle equivalence")
def test_qp_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(200):
        problem, _ = random_qp(rng)
        expected = enumerate_qp(problem)
        assert expected is not None
        sol = solve_qp(problem)
        assert sol.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, expected, atol=1e-6)
    assert time.perf_counter() - t0 < 5.0


@criterion(2, "map property suite on generated instances")
def test_lemma_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for seed in range(10):
        inst = random_instance(GenConfig(n=5, m=3, seed=seed))
        ev = ExcessEvaluator(inst)
        k = inst.constants
        eta = k.mu_F
        for _ in range(100):
            p1 = rng.uniform(0.0, 100.0, size=5)
            p2 = rng.uniform(0.0, 100.0, size=5)
            e1, e2 = ev.evaluate(p1), ev.evaluate(p2)
            dp = p1 - p2
            # Projected step is nonexpansive at eta = mu_F.
            t1 = inst.domain.project(p1 - eta * e1.excess)
            t2 = inst.domain.project(p2 - eta * e2.excess)
            assert np.linalg.norm(t1 - t2) <= np.linalg.norm(dp) + 1e-7
            # Supply and negative demand are inverse strongly monotone.
            ds = e1.supply - e2.supply
            assert dp @ ds >= k.mu_c * ds @ ds - 1e-7
            dd = -(e1.demand - e2.demand)
            assert dp @ dd >= k.mu_t * dd @ dd - 1e-7
            # Their sum, the excess map, is monotone.
            df = e1.excess - e2.excess
            assert dp @ df >= -1e-7
    assert time.perf_counter() - t0 < 60.0


@criterion(3, "analytic equilibrium from four anchors")
def test_analytic_equilibrium():
    # The anchor weight rescales f (same minimizer over the fixed-point
    # set, weaker gradient bias) so the far anchor p0=100 also lands
    # within tolerance inside the time budget.
    for p0 in (0.0, 1.0, 7.0, 100.0):
        inst = make_combined_1d(p0=p0)
        ev = ExcessEvaluator(inst)
        report = bilevel_solve(
            ev.map_oracle(),
            Objective(p0=inst.p0, weight=1.0 / 16.0),
            inst.domain,
            eps=5e-7,
            max_iter=20_000,
        )
        assert report.converged
        assert abs(report.solution[0] - 4.0) <= 1e-2, f"p0={p0}"
        assert report.wall_time < 1.0, f"p0={p0} took {report.wall_time:.2f}s"


@criterion(4, "regularizer selects the nearest equilibrium")
def test_regularizer_selection():
    # Fix(T) = [4, inf): the anchor picks its projection onto the ray.
    targets = {1.0: 4.0, 10.0: 10.0}
    solutions = {}
    for p0, target in targets.items():
        inst = make_saturated_1d(p0=p0)
        ev = ExcessEvaluator(inst)
        report = bilevel_solve(
            ev.map_oracle(),
            Objective(p0=inst.p0, weight=1.0 / 16.0),
            inst.domain,
            eps=5e-7,
            max_iter=20_000,
        )
        assert abs(report.solution[0] - target) <= 1e-2
        assert ev.vi_residual(report.solution) <= 1e-3
        solutions[p0] = report.solution

    inst = make_saturated_1d(p0=1.0)
    ev = ExcessEvaluator(inst)
    f_anchor1 = lambda p: float((p[0] - 1.0) ** 2)  # noqa: E731
    f_solution = f_anchor1(solutions[1.0])
    rng = np.random.default_rng(77)
    for _ in range(10):
        start = rng.uniform(0.0, 50.0, size=1)
        fp = km_fixed_point(ev.map_oracle(), inst.domain, start, eps=1e-10, max_iter=50_000)
        assert f_solution <= f_anchor1(fp) + 1e-4


@criterion(5, "identity map reduces to projection of the anchor")
def test_synthetic_bop():
    dom = PriceDomain.box([0.0, 0.0], [10.0, 10.0])
    rng = np.random.default_rng(5)
    identity = lambda p: p  # noqa: E731
    for _ in range(20):
        p0 = rng.uniform(-5.0, 15.0, size=2)
        report = bilevel_solve(identity, Objective(p0=p0), dom, eps=1e-9, max_iter=200_000)
        np.testing.assert_allclose(report.solution, np.clip(p0, 0.0, 10.0), atol=1e-3)
    # Also from a non-anchored start, exercising the iterative path.
    report = bilevel_solve(
        identity,
        Objective(p0=np.array([12.0, 5.0])),
        dom,
        eps=1e-9,
        max_iter=200_000,
        start=np.array([3.0, 3.0]),
    )
    np.testing.assert_allclose(report.solution, [10.0, 5.0], atol=1e-3)


@criterion(6, "stopping rule reached in band across sizes")
def test_stopping_rule_reproduction():
    t0 = time.perf_counter()
    rows, _ = run_bench(
        [5, 10, 30, 50],
        [3, 8, 20, 30],
        trials=10,
        domain_kind="orthant",
        seed=42,
        eps=1e-4,
        max_iter=5000,
    )
    for row in rows:
        assert row.iteration_limited <= 1, f"size ({row.n},{row.m})"
        assert 20.0 <= row.avg_iterations <= 2000.0, f"size ({row.n},{row.m})"
    # The smallest size also sits in the narrower band of the harness
    # example (order of magnitude around the published averages).
    assert 20.0 <= rows[0].avg_iterations <= 900.0
    assert time.perf_counter() - t0 < 600.0


@criterion(7, "step-coefficient inequalities")
def test_theorem_support_inequalities():
    rng = np.random.default_rng(17)
    # Radicand nonnegativity wherever beta <= L.
    for _ in range(1000):
        beta = rng.uniform(0.01, 5.0)
        L = beta + rng.uniform(0.0, 5.0)
        alpha = rng.uniform(0.0, 10.0)
        assert (L * alpha - beta / L) ** 2 + 1.0 - (beta / L) ** 2 >= -1e-12
        assert 1.0 - 2.0 * beta * alpha + (L * alpha) ** 2 >= -1e-12

    # Scaled-gradient contraction inequality for the anchor objective.
    obj = Objective(p0=rng.uniform(0.0, 10.0, size=4))
    for alpha in (0.5, 1.0, 2.0):
        coeff = 1.0 - 2.0 * obj.beta / alpha + (obj.L / alpha) ** 2
        for _ in range(100):
            x = rng.uniform(-10.0, 10.0, size=4)
            y = rng.uniform(-10.0, 10.0, size=4)
            lhs = np.linalg.norm(
                (x - obj.gradient(x) / alpha) - (y - obj.gradient(y) / alpha)
            ) ** 2
            assert lhs <= coeff * np.linalg.norm(x - y) ** 2 + 1e-9

    # alpha / gamma approaches 1/beta along the solver's step rule, gamma being
    # the contraction coefficient 1 - sqrt(1 - 2 beta alpha + L^2 alpha^2).
    beta = L = 2.0
    for k in (10_000, 20_000, 100_000):
        alpha = step_size(k)
        gamma = 1.0 - math.sqrt(1.0 - 2.0 * beta * alpha + (L * alpha) ** 2)
        assert abs(alpha / gamma * beta - 1.0) <= 0.01


@criterion(8, "benchmark determinism under a fixed seed")
def test_benchmark_determinism(tmp_path):
    def run(tag: str) -> list[str]:
        path = tmp_path / f"bench-{tag}.csv"
        code = main(
            [
                "bench",
                "--n",
                "5,10",
                "--m",
                "3,8",
                "--trials",
                "10",
                "--seed",
                "42",
                "--max-iter",
                "5000",
                "--csv",
                str(path),
            ]
        )
        assert code == 0
        with path.open() as fh:
            return [row["avg_iterations"] for row in csv.DictReader(fh)]

    first = run("a")
    second = run("b")
    assert first == second
    assert len(first) == 2
