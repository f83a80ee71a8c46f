"""Benchmark runner for eqprice.

Run from the repository root:

    python3 perfbench/run.py --workload protocol --seed 42 --seconds 45 --trace 0

The library is imported from ``src/`` next to this directory; the runner
exits with status 2, printing no result, when it is missing.  Workloads are
described in ``workloads.py``; all inputs come from ``--seed``.

``--trace 0`` measures the end-to-end metrics with no tracing.  Set-up
(generation plus evaluator construction) runs three times and reports its
median as ``setup_s``.  Whole passes of the workload then run until
``--seconds`` have elapsed: ``eval_us.p50`` is the median excess-map
evaluation time and ``evals_per_s`` the evaluations per second of
operation time (solver loop included).  A fixed probe between operations
tells which of them ran in a spell of unusually high CPU speed; those are
left out of the timing (see ``plain_run``).  ``peak_rss_mb`` is the
process's peak resident set.

``--trace 1`` records spans around the library's layers (see
``tracing.py``) for one pass and reports the per-layer metrics.  Each
operation also runs once untraced, next to its traced twin; the difference
of the two totals is the tracing overhead.

Every operation is checked after timing.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable table (including the
solve-level figures) and a ``detail`` JSON line with the environment and,
for traced solve workloads, the per-size split of solve time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
FULL_SPEED_TOLERANCE = 1.25  # probes within this factor of the fastest read full speed
SETUP_GROUP = "setup"  # span group of everything traced during set-up
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("protocol", "price-scatter", "large-box"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas-threads",
        type=int,
        default=1,
        help="BLAS thread count, set before numpy loads (default 1)",
    )
    args = parser.parse_args(argv)
    if not 1 <= args.blas_threads <= (os.cpu_count() or 1):
        parser.error("--blas-threads must lie between 1 and the CPU count")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(blas_threads: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "cpu_count": os.cpu_count(),
        "commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def untraced(fn, _label):
    return fn


def plain_run(workloads, workload, args):
    import numpy as np

    setups = []  # (seconds, slower of the bracketing probes)
    before = workloads.probe()
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        took = time.perf_counter() - t0
        after = workloads.probe()
        setups.append((took, max(before, after)))
        before = after
    gc.collect()
    ops = workloads.measure(workload, inputs, args.seconds, untraced)
    rss = peak_rss_mb()
    residuals = workload.check(inputs, ops)

    # On a shared host the CPU can spend most of its time at one speed with
    # short, irregular spells about 1.7x faster, whose share varies from run
    # to run.  Operations bracketed by probes near the run's fastest ran in
    # such a spell and are left out of the timing, unless the whole run was.
    limit = FULL_SPEED_TOLERANCE * min([p for _, p in setups] + [op.probe_s for op in ops])
    setup_s = [t for t, p in setups if p > limit] or [t for t, _ in setups]
    passed = [op for op in ops if op.error is None] or ops
    timed_ops = [op for op in passed if op.probe_s > limit] or passed
    evals = np.concatenate([op.eval_s for op in timed_ops])
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "eval_us.p50": (1e6 * float(np.percentile(evals, 50)), "us"),
        "evals_per_s": (evals.size / sum(op.wall_s for op in timed_ops), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    # Tail percentiles and figures over every operation follow such speed
    # swings; they are printed for reading only.
    all_evals = np.concatenate([op.eval_s for op in ops])
    extra = {
        "operations": (len(ops), "count"),
        "failed_share": (sum(op.error is not None for op in ops) / len(ops), "ratio"),
        "timed_share": (len(timed_ops) / len(ops), "ratio"),
        "evals": (all_evals.size, "count"),
        "eval_us.p90": (1e6 * float(np.percentile(evals, 90)), "us"),
        "eval_us.p99": (1e6 * float(np.percentile(evals, 99)), "us"),
        "all_ops.eval_us.p50": (1e6 * float(np.percentile(all_evals, 50)), "us"),
        "all_ops.evals_per_s": (all_evals.size / sum(op.wall_s for op in ops), "1/s"),
        **workload.summary(inputs, ops, residuals),
    }
    detail = {"setups": setups, "passes": 1 + max(op.pass_index for op in ops)}
    if isinstance(workload, workloads.SolveWorkload):
        detail["iterations_by_size"] = workload.iterations_by_size(inputs, ops)
    return ops, metrics, extra, detail, []


def evaluator_counters(evaluators) -> tuple[int, int, int]:
    """Fast-path hits, active-set solves and active-set iterations so far."""
    return (
        sum(ev.fast_hits for ev in evaluators),
        sum(ev.qp_solves for ev in evaluators),
        sum(ev.inner_iterations for ev in evaluators),
    )


def traced_run(workloads, workload, args):
    from eqprice import gen, qp, solver

    from tracing import Tracer, patched

    tracer = Tracer()
    draws = {"drawn": 0, "accepted": 0}
    floor = gen.GenConfig.min_factor_eig

    def count_draws(min_eigenvalue):
        # Every factor draw in the generator ends in one eigenvalue test.
        def counted(matrix):
            value = min_eigenvalue(matrix)
            draws["drawn"] += 1
            draws["accepted"] += value >= floor
            return value

        return counted

    def span(name):
        return lambda fn: tracer.wrap(name, fn)

    def wrap_eval(fn, label):
        tracer.group = label
        return tracer.wrap("maps.eval", fn)

    layers = {
        (gen, "generate"): span("gen.generate"),
        (gen, "max_utility"): span("gen.max_utility"),
        (gen, "min_eigenvalue"): count_draws,
        (qp, "solve_prepared"): span("qp.solve_prepared"),
        (qp, "feasible_point"): span("qp.feasible_point"),
        (solver, "bilevel_solve"): span("solver.bilevel_solve"),
    }
    tracer.group = SETUP_GROUP
    with patched(layers):
        inputs = workload.setup(args.seed)
    gc.collect()
    counters_at_setup = evaluator_counters(inputs.evaluators)
    # Each operation runs traced and then untraced on fresh evaluators (the
    # order alternates), so a slow spell of the machine hits both alike and
    # the paired difference is the tracing overhead.
    plain_evaluators = workload.evaluators(inputs.cases)
    traced_ops, plain_ops = [], []
    for k, (case, point) in enumerate(workload.schedule(inputs)):
        for traced in (True, False) if k % 2 == 0 else (False, True):
            if traced:
                with patched(layers):
                    traced_ops.append(
                        workload.run_op(inputs, inputs.evaluators[case], case, point, 0, wrap_eval)
                    )
            else:
                plain_ops.append(
                    workload.run_op(inputs, plain_evaluators[case], case, point, 1, untraced)
                )
    fast_hits, qp_solves, inner_iterations = (
        after - before
        for after, before in zip(evaluator_counters(inputs.evaluators), counters_at_setup)
    )
    ops = traced_ops + plain_ops
    residuals = workload.check(inputs, ops)

    totals = tracer.layer_totals()

    def layer(name, group=None):
        """(calls, inclusive s, self s) of one span name, by default over all operations."""
        picked = [
            t
            for (g, n), t in totals.items()
            if n == name and (g == group if group else g != SETUP_GROUP)
        ]
        return (
            sum(t.calls for t in picked),
            sum(t.total_s for t in picked),
            sum(t.self_s for t in picked),
        )

    generated = [case.generated for case in inputs.cases]
    evals, _, maps_self = layer("maps.eval")
    solve_prepared_calls, solve_prepared_s, _ = layer("qp.solve_prepared")
    phase1_calls, phase1_s, _ = layer("qp.feasible_point")
    _, _, solver_self = layer("solver.bilevel_solve")
    solves = isinstance(workload, workloads.SolveWorkload)
    iterations = sum(op.evaluations for op in traced_ops) if solves else 0
    traced_s = sum(op.wall_s for op in traced_ops)
    plain_s = sum(op.wall_s for op in plain_ops)
    metrics = {
        "gen.generate_s": (layer("gen.generate", SETUP_GROUP)[1], "s"),
        "gen.max_utility_s": (layer("gen.max_utility", SETUP_GROUP)[1], "s"),
        "gen.factor_redraws": (sum(sum(g.redraws.values()) for g in generated), "count"),
        "gen.attempts": (sum(g.attempts for g in generated), "count"),
        "gen.draw_yield": (draws["accepted"] / draws["drawn"], "ratio"),
        "maps.evals": (evals, "count"),
        "maps.fast_hits": (fast_hits, "count"),
        "maps.fast_hit_ratio": (fast_hits / (2 * evals), "ratio"),
        "maps.self_s": (maps_self, "s"),
        "maps.self_us_per_eval": (1e6 * maps_self / evals, "us"),
        "qp.active_set_solves": (qp_solves, "count"),
        "qp.active_set_iterations": (inner_iterations, "count"),
        "qp.solve_prepared_s": (solve_prepared_s, "s"),
        "qp.us_per_active_set_solve": (1e6 * solve_prepared_s / max(qp_solves, 1), "us"),
        "qp.phase1_calls": (phase1_calls, "count"),
        "qp.phase1_s": (phase1_s, "s"),
        "solver.iterations": (iterations, "count"),
        "solver.self_s": (solver_self, "s"),
        "solver.self_us_per_iter": (1e6 * solver_self / max(iterations, 1), "us"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_share": ((traced_s - plain_s) / plain_s, "ratio"),
    }
    extra = {
        "operations": (len(ops), "count"),
        "failed_share": (sum(op.error is not None for op in ops) / len(ops), "ratio"),
        **workload.summary(inputs, traced_ops, residuals),
    }
    detail = {"traced_pass_s": traced_s, "plain_pass_s": plain_s}
    if solves:
        detail["by_size"] = by_size(inputs, traced_ops, layer)
    problems = []
    if solve_prepared_calls != qp_solves:
        problems.append(f"{solve_prepared_calls} qp.solve_prepared spans but {qp_solves} counted solves")
    if evals != sum(op.evaluations for op in traced_ops):
        problems.append(f"{evals} maps.eval spans do not match the evaluations made")
    return ops, metrics, extra, detail, problems


def by_size(inputs, traced_ops, layer) -> dict:
    """Where the traced pass's solve time goes, per problem size."""
    out = {}
    for label in dict.fromkeys(case.label for case in inputs.cases):
        ops = [op for op in traced_ops if inputs.cases[op.case].label == label]
        iterations = sum(op.evaluations for op in ops)
        wall = sum(op.wall_s for op in ops)
        parts = {
            "solver.self": layer("solver.bilevel_solve", label)[2],
            "maps.self": layer("maps.eval", label)[2],
            "qp.solve_prepared": layer("qp.solve_prepared", label)[1],
            "qp.phase1": layer("qp.feasible_point", label)[1],
        }
        out[label] = {
            "solves": len(ops),
            "iterations_per_solve": iterations / len(ops),
            "us_per_iter": 1e6 * wall / iterations,
            "us_per_iter_by_layer": {k: 1e6 * v / iterations for k, v in parts.items()},
            "share_of_solve_time": {k: v / wall for k, v in parts.items()},
        }
    return out


def print_by_size(rows: dict) -> None:
    layers = list(next(iter(rows.values()))["us_per_iter_by_layer"])
    print("per-size split of the traced pass (us per iteration)")
    print("  " + " ".join(f"{h:>18}" for h in ["size", "iterations/solve", "total", *layers]))
    for label, row in rows.items():
        cells = [row["iterations_per_solve"], row["us_per_iter"], *row["us_per_iter_by_layer"].values()]
        print(f"  {label:>18} " + " ".join(f"{v:>18.1f}" for v in cells))


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    src = ROOT / "src"
    if not (src / "eqprice" / "__init__.py").is_file():
        print(f"error: the eqprice sources are not at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.blas_threads)
    run = traced_run if args.trace else plain_run
    ops, metrics, extra, detail, problems = run(workloads, workload, args)
    failures = [op for op in ops if op.error is not None]

    print(f"eqprice benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print_table("per-layer metrics" if args.trace else "end-to-end metrics", metrics)
    print_table("workload figures", extra)
    if "by_size" in detail:
        print_by_size(detail["by_size"])
    for problem in problems:
        print(f"failed check: {problem}")
    for op in failures[:10]:
        print(f"failed: pass {op.pass_index} case {op.case} point {op.point}: {op.error}")
    print(json.dumps({"detail": {"environment": env, **detail}}))
    result = {
        "correct": not failures and not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
