"""Problem data for the two-agent price equilibrium model.

A model instance bundles the producer cost form C, the consumer tax form B,
the utility weights l with floor M, the common strategy polyhedron
X = {x >= 0 : Ax <= b}, the price domain P (nonnegative orthant or box) and
the guessed price p0 that anchors the regularizing objective.  Derived
monotonicity and Lipschitz constants are computed once at construction and
drive the admissible step of the projection map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import numpy.typing as npt

from . import qp

FloatArray = npt.NDArray[np.float64]

SYMMETRY_TOL = 1e-10
MIN_EIGENVALUE = 1e-12

ORTHANT = "orthant"
BOX = "box"


class NotPositiveDefinite(ValueError):
    """A cost form has smallest eigenvalue at or below the PD threshold."""


class InstanceFormatError(ValueError):
    """An instance document is malformed; the message names the offender."""


def _freeze(arr: FloatArray) -> FloatArray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def as_price(values, n: int | None = None) -> FloatArray:
    """Validate a price vector: 1-D, finite, optionally of length n."""
    p = np.asarray(values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(p)):
        raise ValueError("price vector has non-finite entries")
    if n is not None and p.shape[0] != n:
        raise ValueError(f"price vector has length {p.shape[0]}, expected {n}")
    return p


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
        lo = _freeze(np.asarray(self.lower, dtype=float).reshape(-1))
        hi = _freeze(np.asarray(self.upper, dtype=float).reshape(-1))
        if lo.shape != hi.shape:
            raise ValueError("box bounds have mismatched lengths")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def orthant(cls) -> "PriceDomain":
        return cls(kind=ORTHANT)

    @classmethod
    def box(cls, lower, upper) -> "PriceDomain":
        return cls(kind=BOX, lower=lower, upper=upper)

    def project(self, p) -> FloatArray:
        """Componentwise nearest point in P."""
        p = np.asarray(p, dtype=float).reshape(-1)
        if self.kind == ORTHANT:
            return np.maximum(p, 0.0)
        return np.clip(p, self.lower, self.upper)

    def contains(self, p, tol: float = 1e-12) -> bool:
        p = np.asarray(p, dtype=float).reshape(-1)
        if self.kind == ORTHANT:
            return bool(np.all(p >= -tol))
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))


@dataclass(frozen=True)
class FeasibleSet:
    """The strategy polyhedron X = {x >= 0 : Ax <= b}."""

    A: FloatArray
    b: FloatArray

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        if A.ndim == 1:
            A = A.reshape(1, -1) if A.size else A.reshape(0, 0)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b row counts differ")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("A and b must be finite")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class AgentCosts:
    """Quadratic producer cost x'Cx, consumer tax x'Bx and utility l'x >= M."""

    C: FloatArray
    B: FloatArray
    l: FloatArray
    M: float

    def __post_init__(self) -> None:
        C = np.asarray(self.C, dtype=float)
        B = np.asarray(self.B, dtype=float)
        l = np.asarray(self.l, dtype=float).reshape(-1)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ValueError("C must be square")
        if B.shape != C.shape:
            raise ValueError("B must match the shape of C")
        if l.shape[0] != C.shape[0]:
            raise ValueError("l length does not match C")
        if not (np.all(np.isfinite(C)) and np.all(np.isfinite(B)) and np.all(np.isfinite(l))):
            raise ValueError("cost data must be finite")
        if not np.isfinite(self.M):
            raise ValueError("M must be finite")
        object.__setattr__(self, "C", _freeze(C))
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "l", _freeze(l))
        object.__setattr__(self, "M", float(self.M))

    @property
    def n(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class ModelConstants:
    """Derived moduli: strong convexity, co-coercivity, Lipschitz, map step.

    mu_c and mu_t are twice the smallest eigenvalues of C and B (the modulus
    for which h - (mu/2)||.||^2 stays convex), L = 1/mu are the induced
    Lipschitz constants of the optimal-strategy maps, mu_F = min(mu_c,mu_t)/2
    is the co-coercivity modulus of the excess map, and eta in (0, 2*mu_F]
    is the step used inside the projection map.
    """

    mu_c: float
    mu_t: float
    mu_F: float
    L_c: float
    L_t: float
    eta: float


def min_eigenvalue(S: FloatArray) -> float:
    """Smallest eigenvalue of a symmetric matrix (LAPACK tridiagonalization)."""
    return float(np.linalg.eigvalsh(np.asarray(S, dtype=float))[0])


def compute_constants(costs: AgentCosts, eta: float | None = None) -> ModelConstants:
    """Derive all moduli from the cost forms.

    Raises NotPositiveDefinite when either form has smallest eigenvalue at
    or below 1e-12.  ``eta`` defaults to mu_F, the midpoint of the
    admissible interval (0, 2*mu_F].
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
    if eta is None:
        eta = mu_f
    eta = float(eta)
    if not 0.0 < eta:
        raise ValueError("eta must be positive")
    return ModelConstants(mu_c=mu_c, mu_t=mu_t, mu_F=mu_f, L_c=1.0 / mu_c, L_t=1.0 / mu_t, eta=eta)


@dataclass(frozen=True)
class ModelInstance:
    """Immutable bundle of all problem data plus derived constants."""

    n: int
    m: int
    costs: AgentCosts
    feasible: FeasibleSet
    domain: PriceDomain
    p0: FloatArray
    constants: ModelConstants
    p0_projected: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.costs.n != self.n:
            raise ValueError("cost matrices do not match dimension n")
        if self.feasible.n != self.n and self.feasible.m > 0:
            raise ValueError("A column count does not match dimension n")
        if self.feasible.m != self.m:
            raise ValueError("A row count does not match m")
        if self.domain.kind == BOX and self.domain.lower.shape[0] != self.n:
            raise ValueError("box bounds do not match dimension n")
        p0 = as_price(self.p0, self.n)
        projected = self.domain.project(p0)
        moved = bool(np.max(np.abs(projected - p0), initial=0.0) > 0.0)
        object.__setattr__(self, "p0", _freeze(projected))
        object.__setattr__(self, "p0_projected", moved)

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
        return cls(
            n=costs.n,
            m=feasible.m,
            costs=costs,
            feasible=feasible,
            domain=domain,
            p0=np.asarray(p0, dtype=float),
            constants=constants,
        )


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    severity: str = "error"


def data_issues(instance: ModelInstance) -> list[ValidationIssue]:
    """The findings a built instance can have that need no solve.

    ``build`` already rejects asymmetric and non-positive-definite cost
    forms and derives the constants, so what is left is M > 0, b >= 0
    (x = 0 in X, so X is nonempty), eta inside (0, 2 mu_F] and whether p0
    had to be projected into the domain; the last two are warnings.
    """
    issues = []
    costs, c = instance.costs, instance.constants
    if not costs.M > 0.0:
        issues.append(ValidationIssue("NonpositiveFloor", f"M = {costs.M:g} must be positive"))
    if (instance.feasible.b < 0.0).any():
        issues.append(
            ValidationIssue(
                "EmptyFeasibleSet", "b has negative entries, so x = 0 violates Ax <= b"
            )
        )
    if not 0.0 < c.eta <= 2.0 * c.mu_F + 1e-12:
        issues.append(
            ValidationIssue(
                "EtaOutOfRange",
                f"eta = {c.eta:g} outside (0, {2.0 * c.mu_F:g}]",
                severity="warning",
            )
        )
    if instance.p0_projected:
        issues.append(
            ValidationIssue(
                "P0Projected",
                "p0 was outside the price domain and has been projected",
                severity="warning",
            )
        )
    return issues


def validate_instance(instance: ModelInstance) -> list[ValidationIssue]:
    """Report violated invariants; an empty list means the instance is sound.

    ``data_issues`` plus nonemptiness of the demand set {x in X : l'x >= M}
    by a phase-1 solve, which runs only when b >= 0.
    """
    issues = data_issues(instance)
    costs = instance.costs
    if not (instance.feasible.b < 0.0).any():
        phase1 = qp.feasible_point(
            instance.feasible.A,
            instance.feasible.b,
            floor=(costs.l, costs.M),
            nonneg=True,
            n=instance.n,
        )
        if not phase1.feasible:
            issues.append(
                ValidationIssue(
                    "DemandInfeasible",
                    f"no x in X reaches the utility floor l'x >= {costs.M:g}",
                )
            )
    return issues


# ---------------------------------------------------------------------------
# Instance JSON schema.  Top-level keys: n, m, C, B, l, M, A, b, domain, p0.
# Matrices are row-major arrays of arrays; all numbers IEEE doubles.  The
# optional keys "eta" (step override) and "gen" (generator metadata) are
# honored and ignored respectively.
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
    try:
        n = int(doc["n"])
        m = int(doc["m"])
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"keys 'n'/'m' must be integers: {exc}") from exc

    def matrix(key: str, rows: int, cols: int) -> FloatArray:
        try:
            arr = np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"key '{key}' is not numeric: {exc}") from exc
        if rows == 0 and arr.size == 0:
            return np.zeros((0, cols))
        if arr.shape != (rows, cols):
            raise InstanceFormatError(f"key '{key}' must be {rows}x{cols}, got {arr.shape}")
        return arr

    def vector(key: str, length: int) -> FloatArray:
        try:
            arr = np.asarray(doc[key], dtype=float).reshape(-1)
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"key '{key}' is not numeric: {exc}") from exc
        if arr.shape[0] != length:
            raise InstanceFormatError(f"key '{key}' must have length {length}")
        return arr

    dom = doc["domain"]
    if not isinstance(dom, dict) or "kind" not in dom:
        raise InstanceFormatError("key 'domain' must be an object with a 'kind'")
    if dom["kind"] == ORTHANT:
        domain = PriceDomain.orthant()
    elif dom["kind"] == BOX:
        for k in ("lower", "upper"):
            if k not in dom:
                raise InstanceFormatError(f"box domain requires key '{k}'")
        domain = PriceDomain.box(vector_from(dom["lower"], n), vector_from(dom["upper"], n))
    else:
        raise InstanceFormatError(f"domain kind {dom['kind']!r} is not 'orthant' or 'box'")

    eta = doc.get("eta")
    try:
        costs = AgentCosts(
            C=matrix("C", n, n), B=matrix("B", n, n), l=vector("l", n), M=float(doc["M"])
        )
        feasible = FeasibleSet(A=matrix("A", m, n), b=vector("b", m))
        return ModelInstance.build(
            costs, feasible, domain, vector("p0", n), eta=None if eta is None else float(eta)
        )
    except InstanceFormatError:
        raise
    except (ValueError, NotPositiveDefinite) as exc:
        raise InstanceFormatError(str(exc)) from exc


def vector_from(values, n: int) -> FloatArray:
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.shape[0] != n:
        raise InstanceFormatError(f"domain bounds must have length {n}")
    return arr


def instance_to_json(instance: ModelInstance, gen: dict | None = None) -> dict:
    if instance.domain.kind == ORTHANT:
        dom: dict = {"kind": ORTHANT}
    else:
        dom = {
            "kind": BOX,
            "lower": instance.domain.lower.tolist(),
            "upper": instance.domain.upper.tolist(),
        }
    doc = {
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
    if gen is not None:
        doc["gen"] = gen
    return doc


def load_instance(path) -> ModelInstance:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return instance_from_json(doc)


def save_instance(path, instance: ModelInstance, gen: dict | None = None) -> None:
    Path(path).write_text(json.dumps(instance_to_json(instance, gen=gen), indent=2) + "\n")
