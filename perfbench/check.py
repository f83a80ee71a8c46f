"""One-off consistency checks of the benchmark against the library's own bench.

1. The protocol workload's mean iterations per size equal, bit for bit, the
   ``avg_iterations`` column of ``eqprice bench`` (``cli.run_bench``) at the
   same seed.
2. The protocol and large-box iteration counts are the same with 1 and 2
   BLAS threads.

Run from the repository root (takes about two minutes):

    python3 perfbench/check.py --seed 42

Exits with status 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def first_pass_iterations(workload: str, seed: int, blas_threads: int) -> dict[str, list[int]]:
    """Per-size iteration counts of one pass, from a short benchmark run."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0.001", "--blas-threads", str(blas_threads),
    ]
    out = subprocess.run(command, capture_output=True, text=True, check=True, timeout=900)
    for line in out.stdout.splitlines():
        if line.startswith('{"detail"'):
            return json.loads(line)["detail"]["iterations_by_size"]
    raise RuntimeError(f"no detail line in the output of {' '.join(command)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from eqprice.cli import run_bench

    sizes = workloads.PROTOCOL_SIZES
    rows, _ = run_bench(
        [n for n, _ in sizes],
        [m for _, m in sizes],
        workloads.PROTOCOL_TRIALS,
        "orthant",
        args.seed,
        eps=workloads.EPS,
        max_iter=workloads.MAX_ITER,
        weight=workloads.WEIGHT,
    )
    ok = True
    runs = {
        (workload, threads): first_pass_iterations(workload, args.seed, threads)
        for workload in ("protocol", "large-box")
        for threads in (1, 2)
    }
    print(f"seed {args.seed}: mean iterations per size, eqprice bench vs protocol workload")
    for row in rows:
        counts = runs[("protocol", 1)][f"{row.n}/{row.m}"]
        mean = sum(counts) / len(counts)
        same = mean == row.avg_iterations
        ok &= same
        print(f"  {row.n}/{row.m}: {row.avg_iterations!r} vs {mean!r} {'identical' if same else 'DIFFERENT'}")
    for workload in ("protocol", "large-box"):
        same = runs[(workload, 1)] == runs[(workload, 2)]
        ok &= same
        print(f"{workload}: iteration counts with 1 and 2 BLAS threads {'identical' if same else 'DIFFER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
