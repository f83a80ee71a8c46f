"""Seeded random model instances for benchmarks.

Cost forms are factor products F'F with factor entries uniform in
[-10, 10]; A and b entries are uniform in (0, 20) so that x = 0 is always
feasible and X is bounded; guessed prices are uniform in [0, 100].  The
utility weights, the utility floor and the box bounds have no canonical
choice, so the generator fixes them (the ``GenConfig`` constants): l uniform in
(0, 10], M at a fixed fraction (0.9) of the maximum achievable utility
over X (a small linear program, solved by ``qp.highs_lp``), and
box = [0, 100]^n matching the guessed-price range.  All randomness flows from one 64-bit seed through
numpy's PCG64 with one spawned stream per component, so instances are
bit-reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import numpy.typing as npt

from .model import (
    BOX,
    ORTHANT,
    AgentCosts,
    FeasibleSet,
    ModelInstance,
    PriceDomain,
    ValidationIssue,
    data_issues,
    min_eigenvalue,
)
from .qp import highs_lp

FloatArray = npt.NDArray[np.float64]

# Stream order for SeedSequence spawning, one per drawn component.
_STREAMS = ("C", "B", "A", "b", "l", "p0")


class GenerationFailed(RuntimeError):
    """Resampling could not produce a valid instance."""


@dataclass(frozen=True)
class GenConfig:
    """Generator settings; the draw protocol itself is fixed (class constants)."""

    n: int
    m: int
    domain_kind: str = ORTHANT
    seed: int = 0
    eta: float | None = None

    factor_range: ClassVar[tuple[float, float]] = (-10.0, 10.0)
    constraint_range: ClassVar[tuple[float, float]] = (0.0, 20.0)
    p0_range: ClassVar[tuple[float, float]] = (0.0, 100.0)
    utility_range: ClassVar[tuple[float, float]] = (0.0, 10.0)
    box_range: ClassVar[tuple[float, float]] = (0.0, 100.0)
    floor_fraction: ClassVar[float] = 0.9
    min_factor_eig: ClassVar[float] = 2.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be at least 1")
        if self.domain_kind not in (ORTHANT, BOX):
            raise ValueError(f"domain_kind {self.domain_kind!r} is not 'orthant' or 'box'")


@dataclass(frozen=True)
class GeneratedInstance:
    """A valid instance plus its draw counts."""

    instance: ModelInstance
    redraws: dict[str, int] = field(default_factory=dict)
    max_utility: float = 0.0
    attempts: int = 1


def pd_from_factor(n: int, rng: np.random.Generator) -> tuple[FloatArray, int]:
    """``(F'F, number of rejected draws)`` from uniform random factors F.

    Redraws the factor, one ``rng.uniform`` call per draw and at most 500
    draws, while the product's smallest eigenvalue is below the floor
    ``GenConfig.min_factor_eig``; near-singular products make the
    admissible map step minuscule and the solver's stopping dynamics
    degenerate.  A shifted Cholesky screens each product as drawn
    (``_below_floor``); only the draws it passes are symmetrized and get
    the eigenvalue test, which decides every accept.  The screen never
    rejects a draw the eigenvalue test accepts, so the instances are
    identical to testing every draw's eigenvalues.
    """
    low, high = GenConfig.factor_range
    min_eig = GenConfig.min_factor_eig
    for redraw in range(500):
        factor = rng.uniform(low, high, size=(n, n))
        product = factor.T @ factor
        if not _below_floor(product, min_eig):
            product = 0.5 * (product + product.T)
            if min_eigenvalue(product) >= min_eig:
                return product, redraw
    raise GenerationFailed(f"no factor with eigenvalue floor {min_eig:g} in 500 draws")


def _below_floor(product: FloatArray, min_eig: float) -> bool:
    """Whether a failed Cholesky proves ``min_eigenvalue(product) < min_eig``.

    ``product - (min_eig - margin) I`` has no Cholesky factor only if its
    smallest eigenvalue is at most rounding error above zero.  The margin
    is orders of magnitude above the rounding error of Cholesky and of
    ``eigvalsh``, and above the one-ulp asymmetry of an unsymmetrized
    ``F'F``, so a draw the eigenvalue test accepts always factors.  numpy's
    ``cholesky`` reads the lower triangle of the shifted copy and raises
    ``LinAlgError`` when it has no factor; it costs under half of ``eigvalsh``.
    """
    n = product.shape[0]
    margin = 1e-8 * n * (1.0 + float(abs(product).max()))
    shifted = product.copy()
    shifted.flat[:: n + 1] -= min_eig - margin
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return True
    return False


def max_utility(l: FloatArray, A: FloatArray, b: FloatArray) -> float:
    """max l'x over X = {x >= 0 : Ax <= b} (bounded when A > 0)."""
    optimal, _, objective, _, status = highs_lp(-np.asarray(l, dtype=float), A, b)
    if not optimal:
        raise GenerationFailed(f"utility LP failed: {status}")
    return -objective


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
        try:
            C, redraws["C"] = pd_from_factor(config.n, rngs["C"])
            B, redraws["B"] = pd_from_factor(config.n, rngs["B"])
        except GenerationFailed:
            # Rare at large n with a high eigenvalue floor; spend another
            # attempt (fresh streams) rather than giving up.
            last_report = [ValidationIssue("FactorRedrawsExhausted", "eigenvalue floor missed")]
            continue
        clo, chi = GenConfig.constraint_range
        A = rngs["A"].uniform(clo, chi, size=(config.m, config.n))
        b = rngs["b"].uniform(clo, chi, size=config.m)
        ulo, uhi = GenConfig.utility_range
        # Half-open draw flipped to (lo, hi] so weights are strictly positive.
        l = uhi - rngs["l"].uniform(0.0, uhi - ulo, size=config.n)
        plo, phi = GenConfig.p0_range
        p0 = rngs["p0"].uniform(plo, phi, size=config.n)

        utility_cap = max_utility(l, A, b)
        floor = GenConfig.floor_fraction * utility_cap
        if config.domain_kind == BOX:
            blo, bhi = GenConfig.box_range
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
                redraws=redraws,
                max_utility=utility_cap,
                attempts=attempt,
            )
        last_report = report
    raise GenerationFailed(f"100 attempts exhausted; last report: {last_report}")


def random_instance(config: GenConfig) -> ModelInstance:
    """Seed-deterministic valid instance for the given configuration."""
    return generate(config).instance
