"""Digests of every benchmark output at seed 42, for the bit-identity test.

Prints one JSON object; ``tests/test_golden.py`` compares it, key by key in
order, with the committed ``bits.json``.  The keys are:

``instance <n>/<m> trial <t>``
    sha256 of a generated instance: C, B, l, A, b, p0, M, eta, the redraw
    counts, the attempts and the utility maximum.
``protocol <n>/<m> trial <t>``
    sha256 of the solution bits, termination and iteration count of the
    bench protocol solve: sizes 5/3, 10/8, 30/20 and 50/30, 10 trials each,
    eps 1e-4, eta 2 mu_F, weight 0.25, zero start and the VI residual every
    10 iterations (``eqprice bench``'s settings).
``price-scatter trial <t>``
    sha256 of the supply, demand and excess bits at 10 independent prices
    uniform in [0, 100]^50 on the 50/30 instance of trial ``t`` (40
    instances), after one evaluation at its p0.
``<workload> counters``
    The evaluators' fast hits, active-set solves and active-set iterations,
    summed over the workload.

Everything is rebuilt from the library alone, the same way as the
``protocol`` and ``price-scatter`` benchmark workloads build it.  The 50/30
answers depend on the BLAS thread count, so run with one thread, the
benchmark's setting.  Re-recording the corpus is a deliberate act:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python3 tests/golden/corpus.py > tests/golden/bits.json
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from eqprice.cli import trial_seed
from eqprice.gen import GenConfig, generate
from eqprice.maps import ExcessEvaluator
from eqprice.solver import Objective, bilevel_solve

SEED = 42
PROTOCOL_SIZES = ((5, 3), (10, 8), (30, 20), (50, 30))
PROTOCOL_TRIALS = 10
SCATTER_SIZE = (50, 30)
SCATTER_INSTANCES = 40
SCATTER_PRICES = 10


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def counters(evaluators) -> list[int]:
    return [
        sum(ev.fast_hits for ev in evaluators),
        sum(ev.qp_solves for ev in evaluators),
        sum(ev.inner_iterations for ev in evaluators),
    ]


def main() -> None:
    out: dict = {}
    generated = {}

    def instance(n: int, m: int, trial: int):
        key = f"instance {n}/{m} trial {trial}"
        if key not in generated:
            g = generate(GenConfig(n=n, m=m, seed=trial_seed(SEED, n, m, trial)))
            inst = g.instance
            generated[key] = inst
            out[key] = digest(
                inst.costs.C, inst.costs.B, inst.costs.l, inst.feasible.A, inst.feasible.b,
                inst.p0, inst.costs.M, inst.constants.eta, sorted(g.redraws.items()),
                g.attempts, g.max_utility,
            )
        return generated[key]

    evaluators = []
    for trial in range(PROTOCOL_TRIALS):
        for n, m in PROTOCOL_SIZES:
            inst = instance(n, m, trial)
            ev = ExcessEvaluator(inst)
            evaluators.append(ev)
            report = bilevel_solve(
                ev.map_oracle(eta=2.0 * inst.constants.mu_F),
                Objective(p0=inst.p0, weight=0.25),
                inst.domain,
                eps=1e-4,
                max_iter=10_000,
                start=np.zeros(n),
                trace_vi_every=10,
            )
            out[f"protocol {n}/{m} trial {trial}"] = digest(
                report.solution, report.termination.value, report.iterations
            )
    out["protocol counters"] = counters(evaluators)

    n, m = SCATTER_SIZE
    rng = np.random.default_rng(np.random.SeedSequence([SEED, n, m, 0x5CA77E5]))
    prices = rng.uniform(0.0, 100.0, size=(SCATTER_PRICES, SCATTER_INSTANCES, n))
    evaluators = []
    for trial in range(SCATTER_INSTANCES):
        inst = instance(n, m, trial)
        ev = ExcessEvaluator(inst)
        evaluators.append(ev)
        ev.evaluate(inst.p0)
        values = []
        for p in prices[:, trial]:
            result = ev.evaluate(p)
            values += [result.supply, result.demand, result.excess]
        out[f"price-scatter trial {trial}"] = digest(*values)
    out["price-scatter counters"] = counters(evaluators)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
