"""The benchmark's workloads: inputs made from a seed, measured passes, checks.

Every workload is closed-loop with one caller.  A pass is a fixed list of
operations on inputs that ``setup`` generates before any timing starts:

protocol
    The fixed bench protocol: n/m = 5/3, 10/8, 30/20 and 50/30, 10 trials
    each, orthant domain, eps 1e-4, eta = 2 mu_F, weight 0.25, start at zero
    prices.  One operation is one ``bilevel_solve``.  Nearly every inner
    program takes the cached-basis fast path, so map-evaluation overhead
    and the outer loop dominate.
price-scatter
    One ``ExcessEvaluator`` per generated 50/30 orthant instance, called
    with a seeded stream of independent prices uniform in [0, 100]^n (the
    p0 range), as in a price sweep.  One operation is one ``evaluate``.
    Each jump breaks the cached basis, so the active-set solver dominates
    and fast-path changes should not show.  Each evaluator is primed with
    one untimed evaluation at its instance's p0, so the one-off phase-1 LP
    of a new evaluator is not part of the sweep.
large-box
    The protocol's solve settings at n/m = 100/60 on the box [0, 100]^n.
    Generation (the eigenvalue-floor redraw loop) is about half the run and
    per-iteration cost leans toward linear algebra.

Operations are ordered round-robin over the instances, so a pass cut short
by the deadline still covers every instance evenly.  Every pass starts
from freshly built evaluators, so it repeats the same work bit for bit,
which the checks verify.  A fixed probe runs between operations so that
the runner can tell which operations ran while the CPU was at full speed
(see ``probe``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from eqprice import gen, maps, qp, solver

EPS = 1e-4
MAX_ITER = 10_000
WEIGHT = 0.25
TRACE_VI_EVERY = 10  # as in ``eqprice bench``
PROTOCOL_SIZES = ((5, 3), (10, 8), (30, 20), (50, 30))
PROTOCOL_TRIALS = 10
LARGE_BOX_TRIALS = 8
SCATTER_INSTANCES = 40
SCATTER_PRICES = 10  # per instance and pass
SCATTER_PRICE_RANGE = (0.0, 100.0)


def trial_seed(seed_base: int, n: int, m: int, trial: int) -> int:
    """Per-trial generator seed, the same rule as ``eqprice bench``."""
    ss = np.random.SeedSequence([seed_base, n, m, trial])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class Case:
    """One generated instance and the map step its solves use."""

    label: str
    generated: gen.GeneratedInstance
    eta: float

    @property
    def instance(self):
        return self.generated.instance


@dataclass
class Inputs:
    cases: list[Case]
    evaluators: list[maps.ExcessEvaluator]
    prices: np.ndarray | None = None  # (prices per instance, instances, n)


@dataclass
class Op:
    """One measured operation; ``error`` is set when it fails or a check does."""

    pass_index: int
    case: int
    point: int  # scatter price index; 0 for solves
    wall_s: float
    eval_s: np.ndarray  # duration of each excess-map evaluation, in call order
    result: object  # solution (solves), MapEvaluation (scatter) or None
    termination: solver.Termination | None = None
    error: str | None = None
    probe_s: float = 0.0  # the slower of the probes run just before and after

    @property
    def evaluations(self) -> int:
        return self.eval_s.size


_PROBE_MATRIX = np.random.default_rng(0).uniform(size=(50, 50))
_PROBE_VECTOR = np.ones(50)


def probe() -> float:
    """Seconds taken by a fixed mix of small numpy calls and interpreter work.

    On a shared host the CPU can run a program at two speeds, about 1.7x
    apart, switching every few seconds as other tenants come and go.  The
    probe reads the current speed without depending on the library, so an
    operation bracketed by probes near the run's fastest probe ran in a
    fast spell.
    """
    t0 = time.perf_counter()
    for _ in range(50):
        float(np.max(np.abs(_PROBE_MATRIX @ _PROBE_VECTOR)))
    return time.perf_counter() - t0


def timed(fn, durations: list):
    """Wrap a one-argument callable so each call appends its duration."""
    clock = time.perf_counter
    append = durations.append

    def call(p):
        t0 = clock()
        out = fn(p)
        append(clock() - t0)
        return out

    return call


def generate_cases(seed: int, sizes, trials: int, domain: str) -> list[Case]:
    cases = []
    for trial in range(trials):
        for n, m in sizes:
            config = gen.GenConfig(n=n, m=m, domain_kind=domain, seed=trial_seed(seed, n, m, trial))
            generated = gen.generate(config)
            eta = 2.0 * generated.instance.constants.mu_F
            cases.append(Case(f"{n}/{m}", generated, eta))
    return cases


class SolveWorkload:
    """Solves from zero prices with the bench protocol settings."""

    def __init__(self, sizes, trials: int, domain: str):
        self.sizes = sizes
        self.trials = trials
        self.domain = domain

    def setup(self, seed: int) -> Inputs:
        cases = generate_cases(seed, self.sizes, self.trials, self.domain)
        return Inputs(cases, self.evaluators(cases))

    def evaluators(self, cases: list[Case]) -> list[maps.ExcessEvaluator]:
        return [maps.ExcessEvaluator(case.instance) for case in cases]

    def schedule(self, inputs) -> list[tuple[int, int]]:
        return [(i, 0) for i in range(len(inputs.cases))]

    def run_op(self, inputs, evaluator, case_index, point, pass_index, wrap_eval) -> Op:
        case = inputs.cases[case_index]
        instance = case.instance
        eval_s: list[float] = []
        oracle = timed(wrap_eval(evaluator.map_oracle(eta=case.eta), case.label), eval_s)
        objective = solver.Objective(p0=instance.p0, weight=WEIGHT)
        start = np.zeros(instance.n)
        t0 = time.perf_counter()
        try:
            report = solver.bilevel_solve(
                oracle,
                objective,
                instance.domain,
                eps=EPS,
                max_iter=MAX_ITER,
                start=start,
                trace_vi_every=TRACE_VI_EVERY,
            )
        except Exception as exc:  # counted as a failed operation
            wall = time.perf_counter() - t0
            return Op(pass_index, case_index, point, wall, np.array(eval_s), None, error=f"raised {exc!r}")
        wall = time.perf_counter() - t0
        return Op(
            pass_index, case_index, point, wall, np.array(eval_s), report.solution, report.termination
        )

    def check(self, inputs, ops) -> dict:
        """Mark failed operations; return the VI residual per solved case."""
        first: dict[int, Op] = {}
        for op in ops:
            if op.error is not None:
                continue
            case = inputs.cases[op.case]
            if op.termination not in (solver.Termination.CONVERGED, solver.Termination.EXACT_FIXED_POINT):
                op.error = f"terminated with {op.termination.value}"
            elif not case.instance.domain.contains(op.result):
                op.error = "solution outside the price domain"
            elif op.case not in first:
                first[op.case] = op
            elif op.evaluations != first[op.case].evaluations or not np.array_equal(
                op.result, first[op.case].result
            ):
                op.error = "solution differs from the first pass"
        residuals = {}
        for i, op in sorted(first.items()):
            case = inputs.cases[i]
            try:
                residuals[i] = maps.ExcessEvaluator(case.instance).vi_residual(op.result, eta=case.eta)
            except Exception as exc:  # counted as a failed operation
                op.error = f"VI residual raised {exc!r}"
        return residuals

    def summary(self, inputs, ops, residuals) -> dict:
        """Solve-level figures, printed beside the end-to-end metrics."""
        solved = [op for op in ops if op.error is None]
        out = {}
        if solved:
            walls = np.array([op.wall_s for op in solved])
            out["solve_s.p50"] = (float(np.percentile(walls, 50)), "s")
            if len(solved) >= 40:
                out["solve_s.p75"] = (float(np.percentile(walls, 75)), "s")
            out["solves_per_s"] = (len(solved) / float(walls.sum()), "1/s")
            per_iter = [op.wall_s / op.evaluations for op in solved]
            out["iter_us.p50"] = (1e6 * float(np.median(per_iter)), "us")
        first_pass = [op for op in ops if op.pass_index == 0]
        if first_pass and all(op.error is None for op in first_pass):
            out["iterations_per_solve"] = (
                sum(op.evaluations for op in first_pass) / len(first_pass),
                "count",
            )
        if residuals:
            out["vi_residual.max"] = (max(residuals.values()), "1")
        return out

    def iterations_by_size(self, inputs, ops) -> dict[str, list[int]]:
        """First-pass iteration counts per size, in trial order."""
        by_size: dict[str, list[int]] = {}
        for op in ops:
            if op.pass_index == 0:
                by_size.setdefault(inputs.cases[op.case].label, []).append(op.evaluations)
        return by_size


class ScatterWorkload:
    """Excess-map evaluations at independent random prices."""

    def __init__(self, n: int, m: int, instances: int, prices: int):
        self.n, self.m = n, m
        self.instances = instances
        self.prices = prices

    def setup(self, seed: int) -> Inputs:
        cases = generate_cases(seed, ((self.n, self.m),), self.instances, "orthant")
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.n, self.m, 0x5CA77E5]))
        lo, hi = SCATTER_PRICE_RANGE
        prices = rng.uniform(lo, hi, size=(self.prices, self.instances, self.n))
        return Inputs(cases, self.evaluators(cases), prices)

    def evaluators(self, cases: list[Case]) -> list[maps.ExcessEvaluator]:
        evaluators = [maps.ExcessEvaluator(case.instance) for case in cases]
        for case, evaluator in zip(cases, evaluators):
            evaluator.evaluate(case.instance.p0)
        return evaluators

    def schedule(self, inputs) -> list[tuple[int, int]]:
        return [(i, j) for j in range(self.prices) for i in range(self.instances)]

    def run_op(self, inputs, evaluator, case_index, point, pass_index, wrap_eval) -> Op:
        eval_s: list[float] = []
        evaluate = timed(wrap_eval(evaluator.evaluate, inputs.cases[case_index].label), eval_s)
        p = inputs.prices[point, case_index]
        t0 = time.perf_counter()
        try:
            result = evaluate(p)
        except Exception as exc:  # counted as a failed operation
            wall = time.perf_counter() - t0
            return Op(pass_index, case_index, point, wall, np.array(eval_s), None, error=f"raised {exc!r}")
        return Op(pass_index, case_index, point, time.perf_counter() - t0, np.array(eval_s), result)

    def check(self, inputs, ops) -> dict:
        """KKT-check each point once; its repeats must match it bit for bit.

        Returns the largest scaled KKT residual per case.
        """
        first: dict[tuple[int, int], Op] = {}
        residuals: dict[int, float] = {}
        for op in ops:
            if op.error is not None:
                continue
            key = (op.case, op.point)
            if key in first:
                if np.array_equal(op.result.excess, first[key].result.excess):
                    op.error = first[key].error
                else:
                    op.error = "excess differs from the first pass"
                continue
            first[key] = op
            instance = inputs.cases[op.case].instance
            p = inputs.prices[op.point, op.case]
            ev = op.result
            if not np.array_equal(ev.excess, ev.supply - ev.demand):
                op.error = "excess is not supply minus demand"
                continue
            for problem, x in (
                (maps.supply_problem(instance, p), ev.supply),
                (maps.demand_problem(instance, p), ev.demand),
            ):
                # The evaluator's own certificate scale (see maps.CERTIFY_TOL).
                scale = 1.0 + float(np.max(np.abs(p))) + float(np.max(np.abs(2.0 * problem.Q @ x)))
                residual = qp.check_kkt(problem, x) / scale
                residuals[op.case] = max(residuals.get(op.case, 0.0), residual)
                if residual > maps.CERTIFY_TOL:
                    op.error = f"KKT residual {residual:.3e} above {maps.CERTIFY_TOL:g}"
        return residuals

    def summary(self, inputs, ops, residuals) -> dict:
        out = {}
        if residuals:
            out["kkt_residual.max"] = (max(residuals.values()), "1")
        return out


WORKLOADS = {
    "protocol": SolveWorkload(PROTOCOL_SIZES, PROTOCOL_TRIALS, "orthant"),
    "price-scatter": ScatterWorkload(50, 30, SCATTER_INSTANCES, SCATTER_PRICES),
    "large-box": SolveWorkload(((100, 60),), LARGE_BOX_TRIALS, "box"),
}


def run_pass(workload, inputs: Inputs, evaluators, pass_index: int, deadline, wrap_eval, ops) -> None:
    """Run the workload's operations in order, stopping early at ``deadline``.

    Each operation is bracketed by probes (``Op.probe_s``); the probes are
    not part of any operation's time.
    """
    before = probe()
    for case_index, point in workload.schedule(inputs):
        if deadline is not None and time.perf_counter() >= deadline:
            return
        op = workload.run_op(inputs, evaluators[case_index], case_index, point, pass_index, wrap_eval)
        after = probe()
        op.probe_s = max(before, after)
        ops.append(op)
        before = after


def measure(workload, inputs: Inputs, seconds: float, wrap_eval) -> list[Op]:
    """One full pass, then further passes until ``seconds`` have elapsed."""
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    run_pass(workload, inputs, inputs.evaluators, 0, None, wrap_eval, ops)
    pass_index = 1
    while time.perf_counter() < deadline:
        evaluators = workload.evaluators(inputs.cases)
        run_pass(workload, inputs, evaluators, pass_index, deadline, wrap_eval, ops)
        pass_index += 1
    return ops
