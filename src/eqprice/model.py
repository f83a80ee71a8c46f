"""Problem data for the two-agent price equilibrium model.

A model instance bundles the producer cost form C, the consumer tax form B,
the utility weights l with floor M, the common strategy polyhedron
X = {x >= 0 : Ax <= b}, the price domain P (nonnegative orthant or box) and
the guessed price p0 that anchors the regularizing objective.  Derived
moduli are computed once at construction and drive the admissible step of
the projection map.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np
import numpy.typing as npt

from . import qp

FloatArray = npt.NDArray[np.float64]

SYMMETRY_TOL = 1e-10
MIN_EIGENVALUE = 1e-12
_max = qp._max

ORTHANT = "orthant"
BOX = "box"


class NotPositiveDefinite(ValueError):
    """A cost form has smallest eigenvalue at or below the PD threshold."""


class InstanceFormatError(ValueError):
    """An instance document is malformed; the message names the offender."""


class P0Projected(UserWarning):
    """p0 lay outside the price domain; the instance holds its projection."""


def as_price(values, n: int) -> tuple[FloatArray, float]:
    """The price as a 1-D float array of length n, and its max|p|.

    The solver's own arrays, 1-D float64, are taken as they are; anything
    else is read by ``qp.as_floats``.  max|p| is non-finite exactly when
    some entry is, so it doubles as the finiteness check.
    """
    p = values
    if not (isinstance(p, np.ndarray) and p.dtype == np.float64 and p.ndim == 1):
        p = qp.as_floats(values, "price vector", (None,))
    if p.shape[0] != n:
        raise ValueError(f"price vector has length {p.shape[0]}, expected {n}")
    pmax = _max(abs(p))
    if not math.isfinite(pmax):
        raise ValueError("price vector has non-finite entries")
    return p, pmax


def as_eta(eta, mu_F: float) -> tuple[float, str | None]:
    """The map step as a float, and the warning text when it lies above 2 mu_F.

    At eta <= 0 the projected step fixes every price, so that is an error.
    """
    eta = qp.as_number(eta, "eta")
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    if eta <= 2.0 * mu_F + 1e-12:
        return eta, None
    return eta, f"eta = {eta:g} outside (0, {2.0 * mu_F:g}]"


def _entries(p) -> FloatArray:
    """p's entries as a flat float array, by ``qp.as_floats``' number rule."""
    text = "price vector has an entry that is not a number"
    qp.refuse_non_numbers(p, text)
    try:
        return np.asarray(p, dtype=float).reshape(-1)
    except OverflowError as exc:  # an int past the float range
        raise ValueError(f"{text}: {exc}") from exc


@dataclass(frozen=True)
class PriceDomain:
    """The closed convex price set P with a closed-form projection."""

    kind: str
    lower: FloatArray | None = None
    upper: FloatArray | None = None

    def __post_init__(self) -> None:
        if self.kind not in (ORTHANT, BOX):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == ORTHANT:
            if self.lower is not None or self.upper is not None:
                raise ValueError("orthant domain carries no bounds")
            return
        lo = qp.as_floats(self.lower, "lower", (None,))
        hi = qp.as_floats(self.upper, "upper", lo.shape)
        if np.any(lo > hi):
            raise ValueError("box bound 'lower' exceeds 'upper'")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def orthant(cls) -> "PriceDomain":
        return cls(kind=ORTHANT)

    @classmethod
    def box(cls, lower, upper) -> "PriceDomain":
        return cls(kind=BOX, lower=lower, upper=upper)

    def project(self, p) -> FloatArray:
        """Componentwise nearest point in P of p's entries, flattened."""
        p = _entries(p)
        return self.projector(p.shape[0])(p)

    def projector(self, n: int) -> Callable[[FloatArray], FloatArray]:
        """``project`` unchecked, for 1-D float arrays of length n (a box checks n); bind once."""
        if self.kind == ORTHANT:
            zero = np.zeros(n)  # the bits of np.maximum(p, 0.0), signed zeros and NaN too
            return lambda p: np.maximum(p, zero)
        if self.lower.shape[0] != n:
            raise ValueError("box bounds do not match dimension n")
        return lambda p: np.clip(p, self.lower, self.upper)

    def contains(self, p) -> bool:
        """Whether p, read as ``project`` reads it, lies in P, to 1e-12."""
        p = _entries(p)
        if self.kind == ORTHANT:
            return bool(np.all(p >= -1e-12))
        return bool(np.all(abs(self.projector(p.shape[0])(p) - p) <= 1e-12))


@dataclass(frozen=True)
class FeasibleSet:
    """The strategy polyhedron X = {x >= 0 : Ax <= b}."""

    A: FloatArray
    b: FloatArray

    def __post_init__(self) -> None:
        A = qp.as_floats(self.A, "A", (None, None))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", qp.as_floats(self.b, "b", A.shape[:1]))

    @property
    def m(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class AgentCosts:
    """Quadratic producer cost x'Cx, consumer tax x'Bx and utility l'x >= M."""

    C: FloatArray
    B: FloatArray
    l: FloatArray
    M: float

    def __post_init__(self) -> None:
        C = qp.as_floats(self.C, "C", (None, None))
        if C.shape[0] != C.shape[1]:
            raise ValueError("C must be square")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "B", qp.as_floats(self.B, "B", C.shape))
        object.__setattr__(self, "l", qp.as_floats(self.l, "l", C.shape[:1]))
        object.__setattr__(self, "M", float(qp.as_floats(self.M, "M", ())))

    @property
    def n(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class ModelConstants:
    """Derived moduli: strong convexity, co-coercivity, map step.

    mu_c and mu_t are twice the smallest eigenvalues of C and B (the modulus
    for which h - (mu/2)||.||^2 stays convex), so 1/mu_c and 1/mu_t are the
    Lipschitz constants of the optimal-strategy maps, mu_F = min(mu_c,mu_t)/2
    is the co-coercivity modulus of the excess map, and eta in (0, 2*mu_F]
    is the step used inside the projection map.
    """

    mu_c: float
    mu_t: float
    mu_F: float
    eta: float


def min_eigenvalue(S: FloatArray) -> float:
    """Smallest eigenvalue of a symmetric matrix (LAPACK tridiagonalization)."""
    return float(np.linalg.eigvalsh(np.asarray(S, dtype=float))[0])


def compute_constants(costs: AgentCosts, eta: float | None = None) -> ModelConstants:
    """Derive all moduli from the cost forms.

    Raises NotPositiveDefinite when either form has smallest eigenvalue at
    or below 1e-12.  ``eta`` defaults to mu_F, the midpoint of the
    admissible interval (0, 2*mu_F]; ``as_eta`` checks it.
    """
    for name, mat in (("C", costs.C), ("B", costs.B)):
        if float(np.max(np.abs(mat - mat.T), initial=0.0)) > SYMMETRY_TOL:
            raise ValueError(f"{name} is not symmetric within {SYMMETRY_TOL:g}")
    lam_c = min_eigenvalue(costs.C)
    lam_b = min_eigenvalue(costs.B)
    if lam_c <= MIN_EIGENVALUE:
        raise NotPositiveDefinite(f"C has smallest eigenvalue {lam_c:.3e}")
    if lam_b <= MIN_EIGENVALUE:
        raise NotPositiveDefinite(f"B has smallest eigenvalue {lam_b:.3e}")
    mu_c = 2.0 * lam_c
    mu_t = 2.0 * lam_b
    mu_f = 0.5 * min(mu_c, mu_t)
    eta, _ = as_eta(mu_f if eta is None else eta, mu_f)
    return ModelConstants(mu_c=mu_c, mu_t=mu_t, mu_F=mu_f, eta=eta)


@dataclass(frozen=True)
class ModelInstance:
    """Immutable bundle of all problem data plus derived constants."""

    costs: AgentCosts
    feasible: FeasibleSet
    domain: PriceDomain
    p0: FloatArray
    constants: ModelConstants
    p0_projected: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        A = qp.as_floats(self.feasible.A, "A", (None, self.n))  # a row-less A gets n columns
        if A.shape != self.feasible.A.shape:
            object.__setattr__(self, "feasible", FeasibleSet(A=A, b=self.feasible.b))
        # Read as the maps read a price, so a bad p0 reads as a bad price there.
        p0, _ = as_price(self.p0, self.n)
        projected = self.domain.projector(self.n)(p0)
        projected.flags.writeable = False
        moved = bool(np.max(np.abs(projected - p0), initial=0.0) > 0.0)
        object.__setattr__(self, "p0", projected)
        object.__setattr__(self, "p0_projected", moved)

    @property
    def n(self) -> int:
        """The dimension, read from the cost forms."""
        return self.costs.n

    @property
    def m(self) -> int:
        """The row count of A."""
        return self.feasible.m

    @classmethod
    def build(
        cls,
        costs: AgentCosts,
        feasible: FeasibleSet,
        domain: PriceDomain,
        p0,
        eta: float | None = None,
    ) -> "ModelInstance":
        constants = compute_constants(costs, eta=eta)
        return cls(costs=costs, feasible=feasible, domain=domain, p0=p0, constants=constants)

    @cached_property
    def supply_program(self) -> qp.QpProblem:
        """min x'Cx - p'x over X at p = 0; ``maps.supply_problem`` sets p."""
        return qp.QpProblem(Q=self.costs.C, q=np.zeros(self.n), A=self.feasible.A, b=self.feasible.b)

    @cached_property
    def demand_program(self) -> qp.QpProblem:
        """min p'x + x'Bx over {x in X : l'x >= M} at p = 0; ``maps.demand_problem`` sets p.

        The utility floor is the last row of its ``A, b``, ``-l'x <= -M``: row ``m``.
        """
        costs, feasible = self.costs, self.feasible
        A = np.vstack([feasible.A, -costs.l])
        return qp.QpProblem(Q=costs.B, q=np.zeros(self.n), A=A, b=np.append(feasible.b, -costs.M))


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def data_issues(instance: ModelInstance) -> list[ValidationIssue]:
    """The errors a built instance can have that need no solve.

    ``build`` already rejects asymmetric and non-positive-definite cost
    forms and a step that is not finite and positive, and derives the
    constants, so what is left is M > 0 and b >= 0 (x = 0 in X, so X is
    nonempty).  The warnings live elsewhere: the maps check the step they
    use against 2 mu_F, and ``p0_projected`` records a projected p0.
    """
    issues, M = [], instance.costs.M
    if not M > 0.0:
        issues.append(ValidationIssue("NonpositiveFloor", f"M = {M:g} must be positive"))
    if (instance.feasible.b < 0.0).any():
        text = "b has negative entries, so x = 0 violates Ax <= b"
        issues.append(ValidationIssue("EmptyFeasibleSet", text))
    return issues


def validate_instance(instance: ModelInstance) -> list[ValidationIssue]:
    """Report the errors of an instance; an empty list means it is sound.

    ``data_issues`` plus nonemptiness of the demand set {x in X : l'x >= M}
    by ``demand_program.phase1``, which runs only when b >= 0; the demand
    map's cold start reuses that point.  A phase-1 LP that
    HiGHS rejects (an entry of magnitude 1e15 or more, or a bound past its
    1e20 infinity) is an error too.
    """
    issues = data_issues(instance)
    if not (instance.feasible.b < 0.0).any():
        try:
            phase1 = instance.demand_program.phase1
        except RuntimeError as exc:
            issues.append(ValidationIssue("Phase1Failed", str(exc)))
            return issues
        if not phase1.feasible:
            issues.append(
                ValidationIssue(
                    "DemandInfeasible",
                    f"no x in X reaches the utility floor l'x >= {instance.costs.M:g}",
                )
            )
    return issues


# ---------------------------------------------------------------------------
# Instance JSON schema.  Top-level keys: n, m, C, B, l, M, A, b, domain, p0.
# Matrices are row-major arrays of arrays; all numbers IEEE doubles.  The
# optional key "eta" (step override) is honored; unknown keys are ignored.
# Each value is read by qp.as_floats, the reader of every constructor, at
# the shape that n and m give: true, a string or null where a number belongs
# is an error naming its key, and an A without rows is 0 x n.
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("n", "m", "C", "B", "l", "M", "A", "b", "domain", "p0")


def instance_from_json(doc: dict) -> ModelInstance:
    """Build an instance from a parsed JSON document.

    Raises InstanceFormatError naming the missing or malformed key.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise InstanceFormatError(f"missing required key '{key}'")

    def read(key: str, shape: tuple[int, ...], source: dict = doc) -> FloatArray:
        return qp.as_floats(source[key], f"key '{key}'", shape)

    try:  # every ValueError below, ours or a constructor's, becomes an InstanceFormatError
        for key in ("n", "m"):
            if not (float(read(key, ())).is_integer() and doc[key] >= 0):
                raise ValueError(f"key '{key}' must be a nonnegative integer, got {doc[key]!r}")
        n, m = int(doc["n"]), int(doc["m"])
        if n == 0:
            raise ValueError("key 'n' must be at least 1")
        dom = doc["domain"]
        if not isinstance(dom, dict) or "kind" not in dom:
            raise ValueError("key 'domain' must be an object with a 'kind'")
        if dom["kind"] == ORTHANT:
            domain = PriceDomain.orthant()
        elif dom["kind"] == BOX:
            for k in ("lower", "upper"):
                if k not in dom:
                    raise ValueError(f"box domain requires key '{k}'")
            domain = PriceDomain.box(read("lower", (n,), dom), read("upper", (n,), dom))
        else:
            raise ValueError(f"domain kind {dom['kind']!r} is not 'orthant' or 'box'")
        costs = AgentCosts(
            C=read("C", (n, n)), B=read("B", (n, n)), l=read("l", (n,)), M=read("M", ())
        )
        feasible = FeasibleSet(A=read("A", (m, n)), b=read("b", (m,)))
        # A float is a number; as_eta words a non-finite one as it does a flag's.
        eta = doc.get("eta")
        if eta is not None and not isinstance(eta, float):
            eta = read("eta", ()).item()
        return ModelInstance.build(costs, feasible, domain, read("p0", (n,)), eta=eta)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(str(exc)) from exc


def instance_to_json(instance: ModelInstance) -> dict:
    if instance.domain.kind == ORTHANT:
        dom: dict = {"kind": ORTHANT}
    else:
        dom = {
            "kind": BOX,
            "lower": instance.domain.lower.tolist(),
            "upper": instance.domain.upper.tolist(),
        }
    return {
        "n": instance.n,
        "m": instance.m,
        "C": instance.costs.C.tolist(),
        "B": instance.costs.B.tolist(),
        "l": instance.costs.l.tolist(),
        "M": instance.costs.M,
        "A": instance.feasible.A.tolist(),
        "b": instance.feasible.b.tolist(),
        "domain": dom,
        "p0": instance.p0.tolist(),
        "eta": instance.constants.eta,
    }


def load_instance(path) -> ModelInstance:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return instance_from_json(doc)


def save_instance(path, instance: ModelInstance) -> None:
    Path(path).write_text(json.dumps(instance_to_json(instance), indent=2) + "\n")
