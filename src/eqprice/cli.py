"""Command-line harness: solve one instance, sweep benchmarks, dump traces.

Exit codes: 0 on convergence (or exact fixed point), 1 on input errors
(with a diagnostic naming the violated invariant or key), 2 when an
iteration limit was hit.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .gen import GenConfig, GenerationFailed, generate
from .maps import ExcessEvaluator, InnerSolveFailed
from .model import (
    BOX,
    ORTHANT,
    InstanceFormatError,
    ModelInstance,
    load_instance,
    validate_instance,
)
from .solver import Objective, SolveReport, TraceRow, bilevel_solve, trace_csv_rows

BENCH_HEADER = ("n", "m", "avg_time_s", "avg_iterations", "trials")
# The name of the one step rule, 1/sqrt(k+1) (solver.schedule_default).
SCHEDULE = "sqrt"


@dataclass(frozen=True)
class BenchRow:
    """One aggregated benchmark line for a problem size."""

    n: int
    m: int
    avg_time_s: float
    avg_iterations: float
    trials: int
    iteration_limited: int = 0


def _check_schedule(name: str) -> None:
    """``--schedule`` names the step rule; ``SCHEDULE`` is the only one."""
    if name != SCHEDULE:
        raise ValueError(f"unknown schedule {name!r} (available: {SCHEDULE})")


def _check_outputs(args: argparse.Namespace, *options: str) -> None:
    """Refuse an output path in a missing directory before any work is done."""
    for option in options:
        path = getattr(args, option, None)
        if path and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"--{option}: directory {Path(path).parent} does not exist")


def _parse_eta(value: str) -> float | None:
    if value == "auto":
        return None
    return float(value)


def _solve_instance(
    instance: ModelInstance,
    eps: float,
    max_iter: int,
    eta: float | None,
    weight: float,
    trace_every: int,
    start=None,
) -> SolveReport:
    return bilevel_solve(
        ExcessEvaluator(instance).map_oracle(eta=eta),
        Objective(p0=instance.p0, weight=weight),
        instance.domain,
        eps=eps,
        max_iter=max_iter,
        start=start,
        trace_vi_every=trace_every,
    )


def _write_trace(path: Path, report: SolveReport) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TraceRow._fields)
        writer.writerows(trace_csv_rows(report.trace))


def _report_doc(report: SolveReport, eps: float, eta: float) -> dict:
    return {
        "solution": report.solution.tolist(),
        "iterations": report.iterations,
        "wall_time": report.wall_time,
        "termination": report.termination.value,
        "meta": {
            "eps": eps,
            "eta": eta,
            "schedule": SCHEDULE,
            "final_step_residual": report.trace[-1].step_residual if report.trace else None,
            "version": __version__,
        },
    }


def _print_warning(message, category, *_) -> None:
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def _load_and_validate(path: str, skip: tuple[str, ...] = ()) -> ModelInstance:
    """Load and validate; findings whose code is in ``skip`` are dropped."""
    instance = load_instance(path)
    report = [issue for issue in validate_instance(instance) if issue.code not in skip]
    errors = [issue for issue in report if issue.severity == "error"]
    if errors:
        raise InstanceFormatError(
            "; ".join(f"{issue.code}: {issue.message}" for issue in errors)
        )
    for issue in report:
        if issue.severity == "warning":
            print(f"warning: {issue.code}: {issue.message}", file=sys.stderr)
    return instance


def cmd_solve(args: argparse.Namespace) -> int:
    """Handler of ``solve`` (report JSON, optional trace) and ``trace`` (trace CSV)."""
    try:
        # An explicit --eta replaces the file's step; the map checks its range.
        skip = ("EtaOutOfRange",) if args.eta is not None else ()
        instance = _load_and_validate(args.instance, skip)
        _check_schedule(args.schedule)
        _check_outputs(args, "out", "trace", "csv")
    except (InstanceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        # Building the oracle and the objective checks --eta and --weight.
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning  # as 'warning: Code: text'
            report = _solve_instance(
                instance, args.eps, args.max_iter, args.eta, args.weight, args.trace_every
            )
    except (ValueError, InnerSolveFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "trace":
        _write_trace(Path(args.csv), report)
        print(
            f"wrote {report.iterations} rows to {args.csv} ({report.termination.value})",
            file=sys.stderr,
        )
    else:
        eta = args.eta if args.eta is not None else instance.constants.eta
        text = json.dumps(_report_doc(report, args.eps, eta), indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
        if args.trace:
            _write_trace(Path(args.trace), report)
    return 0 if report.converged else 2


def trial_seed(seed_base: int, n: int, m: int, trial: int) -> int:
    """Per-trial seed, stable across platforms and run order."""
    ss = np.random.SeedSequence([seed_base, n, m, trial])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_bench(
    n_list: list[int],
    m_list: list[int],
    trials: int,
    domain_kind: str,
    seed: int,
    eps: float = 1e-4,
    max_iter: int = 10_000,
    eta: float | None = None,
    weight: float = 0.25,
    log=None,
) -> tuple[list[BenchRow], int]:
    """Benchmark sweep; returns aggregated rows and the iteration-limit count.

    Bench protocol: instances come from the seeded generator, each solve
    starts from zero prices so the anchored gradient is active from the
    first step, and the map step defaults to the upper end of its
    admissible range (2 mu_F; pass ``eta`` to override).  Per-trial wall
    time covers the solve only (generation and I/O are excluded); averages
    reduce in fixed trial order so identical seeds give identical
    aggregates.
    """
    if len(n_list) != len(m_list):
        raise ValueError("n and m lists must have equal length")
    if not n_list:
        raise ValueError("size lists must be nonempty")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rows: list[BenchRow] = []
    limited = 0
    for n, m in zip(n_list, m_list):
        times: list[float] = []
        iters: list[int] = []
        size_limited = 0
        for t in range(trials):
            cfg = GenConfig(
                n=n, m=m, domain_kind=domain_kind, seed=trial_seed(seed, n, m, t), eta=eta
            )
            instance = generate(cfg).instance
            trial_eta = eta if eta is not None else 2.0 * instance.constants.mu_F
            report = _solve_instance(
                instance,
                eps,
                max_iter,
                trial_eta,
                weight,
                10,  # trace_every: bench samples the VI residual every 10th iteration
                start=np.zeros(n),
            )
            times.append(report.wall_time)
            iters.append(report.iterations)
            if not report.converged:
                size_limited += 1
                if log is not None:
                    print(f"iteration limit: n={n} m={m} trial={t}", file=log)
        limited += size_limited
        rows.append(
            BenchRow(
                n=n,
                m=m,
                avg_time_s=sum(times) / trials,
                avg_iterations=sum(iters) / trials,
                trials=trials,
                iteration_limited=size_limited,
            )
        )
    return rows, limited


def write_bench_csv(path: Path, rows: list[BenchRow]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BENCH_HEADER)
        for row in rows:
            writer.writerow(
                (
                    str(row.n),
                    str(row.m),
                    format(row.avg_time_s, ".17g"),
                    format(row.avg_iterations, ".17g"),
                    str(row.trials),
                )
            )


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        n_list = [int(v) for v in args.n.split(",") if v]
        m_list = [int(v) for v in args.m.split(",") if v]
        _check_schedule(args.schedule)
        _check_outputs(args, "csv")
        rows, limited = run_bench(
            n_list,
            m_list,
            args.trials,
            args.domain,
            args.seed,
            eps=args.eps,
            max_iter=args.max_iter,
            eta=args.eta,
            weight=args.weight,
            log=sys.stderr,
        )
    except (ValueError, OSError, InnerSolveFailed, GenerationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.csv:
        write_bench_csv(Path(args.csv), rows)
    meta = {
        "seed": args.seed,
        "eps": args.eps,
        "eta": "auto (2*mu_F)" if args.eta is None else args.eta,
        "weight": args.weight,
        "start": "zero prices",
        "schedule": SCHEDULE,
        "domain": args.domain,
        "trials": args.trials,
        "iteration_limited_trials": limited,
        "timing": "wall clock per solve, generation and I/O excluded",
        "note": "averages depend on the random data; only seeds make them reproducible",
        "version": __version__,
    }
    for row in rows:
        print(
            f"n={row.n:4d} m={row.m:4d} avg_time_s={row.avg_time_s:.3f} "
            f"avg_iterations={row.avg_iterations:.1f} trials={row.trials}"
        )
    print(json.dumps(meta))
    return 2 if limited else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqprice",
        description="Regularized price equilibria over supply/demand quadratic programs.",
    )
    parser.add_argument("--version", action="version", version=f"eqprice {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, auto_eta: str) -> None:
        p.add_argument("--eps", type=float, default=1e-4, help="stopping threshold on the step residual")
        p.add_argument("--max-iter", type=int, default=10_000, dest="max_iter")
        p.add_argument(
            "--eta",
            type=_parse_eta,
            default=None,
            help=f"projection-map step; 'auto' (default) uses {auto_eta}",
        )
        p.add_argument("--schedule", default=SCHEDULE, help=f"step schedule name ({SCHEDULE})")
        p.add_argument("--weight", type=float, default=1.0, help="anchor objective weight")

    def one_solve(p: argparse.ArgumentParser) -> None:
        """Options of the single-instance commands, solve and trace."""
        common(p, "the derived mu_F")
        p.add_argument(
            "--trace-every",
            type=int,
            default=1,
            dest="trace_every",
            help="record the VI residual every N iterations",
        )

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance", help="instance JSON path")
    p_solve.add_argument("--out", help="write the report JSON here instead of stdout")
    p_solve.add_argument("--trace", help="also write the iteration trace CSV here")
    one_solve(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="benchmark sweep over generated instances")
    p_bench.add_argument("--n", required=True, help="comma list of dimensions, e.g. 5,10,30")
    p_bench.add_argument("--m", required=True, help="comma list of row counts, paired with --n")
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--domain", choices=(ORTHANT, BOX), default=ORTHANT)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--csv", help="write one aggregated row per size here")
    common(p_bench, "2*mu_F, the top of the admissible range")
    # Bench protocol: weaker anchor pull and the top of the admissible map
    # step (see run_bench); --weight/--eta still override.
    p_bench.set_defaults(func=cmd_bench, weight=0.25)

    p_trace = sub.add_parser("trace", help="solve and dump the per-iteration trace")
    p_trace.add_argument("instance", help="instance JSON path")
    p_trace.add_argument("--csv", required=True, help="trace CSV path")
    one_solve(p_trace)
    p_trace.set_defaults(func=cmd_solve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
