"""Seeded random model instances for benchmarks.

Cost forms are factor products F'F with factor entries uniform in
[-10, 10]; A and b entries are uniform in (0, 20) so that x = 0 is always
feasible and X is bounded; guessed prices are uniform in [0, 100].  The
utility weights, the utility floor and the box bounds have no canonical
choice, so the generator fills them with documented defaults: l uniform in
(0, 10], M at a fixed fraction (0.9) of the maximum achievable utility
over X (a small linear program), and box = [0, 100]^n matching the
guessed-price range.  All randomness flows from one 64-bit seed through
numpy's PCG64 with one spawned stream per component, so instances are
bit-reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt
from scipy.optimize import linprog

from .model import (
    AgentCosts,
    FeasibleSet,
    ModelInstance,
    PriceDomain,
    ValidationIssue,
    data_issues,
    instance_to_json,
    min_eigenvalue,
)

FloatArray = npt.NDArray[np.float64]

# Stream order for SeedSequence spawning, one per drawn component.
_STREAMS = ("C", "B", "A", "b", "l", "p0")


class GenerationFailed(RuntimeError):
    """Resampling could not produce a valid instance."""


@dataclass(frozen=True)
class GenConfig:
    """Generator settings; ranges mirror the benchmark protocol defaults."""

    n: int
    m: int
    domain_kind: str = "orthant"
    seed: int = 0
    factor_range: tuple[float, float] = (-10.0, 10.0)
    constraint_range: tuple[float, float] = (0.0, 20.0)
    p0_range: tuple[float, float] = (0.0, 100.0)
    utility_range: tuple[float, float] = (0.0, 10.0)
    box_range: tuple[float, float] = (0.0, 100.0)
    floor_fraction: float = 0.9
    min_factor_eig: float = 2.0
    eta: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be at least 1")
        for name in ("factor_range", "constraint_range", "p0_range", "utility_range", "box_range"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} lower bound must be below upper bound")
        if not 0.0 < self.floor_fraction < 1.0:
            raise ValueError("floor_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class GeneratedInstance:
    """A valid instance plus provenance for the emitted JSON."""

    instance: ModelInstance
    config: GenConfig
    redraws: dict[str, int] = field(default_factory=dict)
    max_utility: float = 0.0
    attempts: int = 1

    def gen_block(self) -> dict:
        cfg = self.config
        return {
            "seed": cfg.seed,
            "rng": "numpy PCG64, one spawned stream per component "
            + "/".join(_STREAMS),
            "ranges": {
                "factor": list(cfg.factor_range),
                "constraint": list(cfg.constraint_range),
                "p0": list(cfg.p0_range),
                "utility": list(cfg.utility_range),
                "box": list(cfg.box_range),
            },
            "floor_fraction": cfg.floor_fraction,
            "max_utility": self.max_utility,
            "min_factor_eig": cfg.min_factor_eig,
            "redraws": dict(self.redraws),
            "attempts": self.attempts,
            "eta_rule": "mu_F" if cfg.eta is None else "explicit",
        }

    def json_doc(self) -> dict:
        return instance_to_json(self.instance, gen=self.gen_block())


def pd_from_factor(
    n: int,
    rng: np.random.Generator,
    low: float = -10.0,
    high: float = 10.0,
    min_eig: float = 2.0,
    max_redraws: int = 500,
) -> FloatArray:
    """Symmetric positive definite F'F from a uniform random factor F.

    Redraws the factor while the product's smallest eigenvalue is below
    ``min_eig``; near-singular products make the admissible map step
    minuscule and the solver's stopping dynamics degenerate.
    """
    mat, _ = _pd_with_redraws(n, rng, low, high, min_eig, max_redraws)
    return mat


def _pd_with_redraws(
    n: int,
    rng: np.random.Generator,
    low: float,
    high: float,
    min_eig: float,
    max_redraws: int,
) -> tuple[FloatArray, int]:
    """``(F'F, number of rejected draws)``, one ``rng.uniform`` call per draw.

    A shifted Cholesky screens each draw (``_below_floor``) and only the
    draws it passes get the eigenvalue test, which decides every accept.
    The screen never rejects a draw the eigenvalue test accepts, so the
    instances are identical to testing every draw's eigenvalues.
    """
    for redraw in range(max_redraws):
        factor = rng.uniform(low, high, size=(n, n))
        product = factor.T @ factor
        product = 0.5 * (product + product.T)
        if not _below_floor(product, min_eig) and min_eigenvalue(product) >= min_eig:
            return product, redraw
    raise GenerationFailed(f"no factor with eigenvalue floor {min_eig:g} in {max_redraws} draws")


def _below_floor(product: FloatArray, min_eig: float) -> bool:
    """Whether a failed Cholesky proves ``min_eigenvalue(product) < min_eig``.

    ``product - (min_eig - margin) I`` has no Cholesky factor only if its
    smallest eigenvalue is at most rounding error above zero.  The margin
    is orders of magnitude above the rounding error of Cholesky and of
    ``eigvalsh``, so a draw the eigenvalue test accepts always factors.
    A Cholesky factorization costs about a quarter of ``eigvalsh``.
    """
    n = product.shape[0]
    margin = 1e-8 * n * (1.0 + float(abs(product).max()))
    try:
        np.linalg.cholesky(product - (min_eig - margin) * np.eye(n))
    except np.linalg.LinAlgError:
        return True
    return False


def max_utility(l: FloatArray, A: FloatArray, b: FloatArray) -> float:
    """max l'x over X = {x >= 0 : Ax <= b} (bounded when A > 0)."""
    res = linprog(-np.asarray(l, dtype=float), A_ub=A, b_ub=b, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise GenerationFailed(f"utility LP failed: {res.message}")
    return float(-res.fun)


def generate(config: GenConfig) -> GeneratedInstance:
    """Draw until a valid instance appears (at most 100 attempts).

    An attempt is retried, with fresh streams, when a factor misses the
    eigenvalue floor in 500 draws or ``data_issues`` reports anything.
    The demand phase-1 LP of ``validate_instance`` is not needed: with
    b >= 0 and M > 0 the maximizer of the utility LP reaches
    l'x = M / floor_fraction > M.
    """
    root = np.random.SeedSequence(config.seed)
    last_report = None
    for attempt in range(1, 101):
        streams = root.spawn(len(_STREAMS))
        rngs = {name: np.random.default_rng(s) for name, s in zip(_STREAMS, streams)}
        redraws: dict[str, int] = {}
        lo, hi = config.factor_range
        try:
            C, redraws["C"] = _pd_with_redraws(
                config.n, rngs["C"], lo, hi, config.min_factor_eig, 500
            )
            B, redraws["B"] = _pd_with_redraws(
                config.n, rngs["B"], lo, hi, config.min_factor_eig, 500
            )
        except GenerationFailed:
            # Rare at large n with a high eigenvalue floor; spend another
            # attempt (fresh streams) rather than giving up.
            last_report = [ValidationIssue("FactorRedrawsExhausted", "eigenvalue floor missed")]
            continue
        clo, chi = config.constraint_range
        A = rngs["A"].uniform(clo, chi, size=(config.m, config.n))
        b = rngs["b"].uniform(clo, chi, size=config.m)
        ulo, uhi = config.utility_range
        # Half-open draw flipped to (lo, hi] so weights are strictly positive.
        l = uhi - rngs["l"].uniform(0.0, uhi - ulo, size=config.n)
        plo, phi = config.p0_range
        p0 = rngs["p0"].uniform(plo, phi, size=config.n)

        utility_cap = max_utility(l, A, b)
        floor = config.floor_fraction * utility_cap
        if config.domain_kind == "box":
            blo, bhi = config.box_range
            domain = PriceDomain.box(np.full(config.n, blo), np.full(config.n, bhi))
        else:
            domain = PriceDomain.orthant()
        instance = ModelInstance.build(
            AgentCosts(C=C, B=B, l=l, M=floor),
            FeasibleSet(A=A, b=b),
            domain,
            p0,
            eta=config.eta,
        )
        report = data_issues(instance)
        if not report:
            return GeneratedInstance(
                instance=instance,
                config=config,
                redraws=redraws,
                max_utility=utility_cap,
                attempts=attempt,
            )
        last_report = report
    raise GenerationFailed(f"100 attempts exhausted; last report: {last_report}")


def random_instance(config: GenConfig) -> ModelInstance:
    """Seed-deterministic valid instance for the given configuration."""
    return generate(config).instance
