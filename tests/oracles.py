"""Brute-force references used by the tests.

The QP oracle enumerates every candidate active set, solves the resulting
equality-constrained systems directly and keeps the best feasible KKT
point.  It shares nothing with the production active-set loop beyond the
problem definition, so agreement is meaningful evidence.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from eqprice.qp import QpProblem


def constraint_rows(problem: QpProblem) -> tuple[np.ndarray, np.ndarray]:
    """All rows as G x <= h: A rows, floor row (negated), sign rows."""
    n = problem.n
    rows = [np.asarray(problem.A, dtype=float).reshape(-1, n)]
    rhs = [np.asarray(problem.b, dtype=float).reshape(-1)]
    if problem.floor is not None:
        g, floor_val = problem.floor
        rows.append(-np.asarray(g, dtype=float).reshape(1, n))
        rhs.append(np.array([-float(floor_val)]))
    rows.append(-np.eye(n))
    rhs.append(np.zeros(n))
    return np.vstack(rows), np.concatenate(rhs)


def enumerate_qp(problem: QpProblem, feas_tol: float = 1e-8, dual_tol: float = 1e-8):
    """Solution of min x'Qx + q'x by active-set enumeration, or None.

    Tries every subset of constraint rows of size at most n as the
    candidate active set and returns the feasible KKT point with the
    smallest objective value.
    """
    G, h = constraint_rows(problem)
    n = problem.n
    H = problem.Q + problem.Q.T
    scale = 1.0 + float(np.max(np.abs(h), initial=0.0))
    best_x = None
    best_val = np.inf
    for size in range(0, n + 1):
        for subset in combinations(range(G.shape[0]), size):
            idx = list(subset)
            kkt = np.zeros((n + size, n + size))
            kkt[:n, :n] = H
            if size:
                kkt[:n, n:] = G[idx].T
                kkt[n:, :n] = G[idx]
            rhs = np.concatenate([-problem.q, h[idx]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(sol)):
                continue
            if float(np.max(np.abs(kkt @ sol - rhs))) > 1e-7 * (1 + np.abs(rhs).max()):
                continue
            x, lam = sol[:n], sol[n:]
            if float(np.max(G @ x - h, initial=0.0)) > feas_tol * scale:
                continue
            if size and float(lam.min()) < -dual_tol:
                continue
            val = problem.objective(x)
            if val < best_val - 1e-12:
                best_val = val
                best_x = x
    return best_x


def random_qp(rng: np.random.Generator, with_floor: bool | None = None):
    """Small random strictly convex QP with a known strictly feasible point.

    Returns (problem, z) where z is feasible with margin, so phase-1 and
    warm starts can be exercised against it.
    """
    n = int(rng.integers(1, 4))
    m = int(rng.integers(0, 4))
    factor = rng.uniform(-1.0, 1.0, size=(n, n))
    Q = factor.T @ factor + np.eye(n) * rng.uniform(0.2, 1.5)
    q = rng.uniform(-5.0, 5.0, size=n)
    z = np.abs(rng.normal(size=n)) + 0.1
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    b = A @ z + rng.uniform(0.1, 1.0, size=m)
    floor = None
    if with_floor if with_floor is not None else bool(rng.integers(0, 2)):
        g = np.abs(rng.normal(size=n)) + 0.05
        floor = (g, float(g @ z - rng.uniform(0.1, 1.0)))
    problem = QpProblem(Q=Q, q=q, A=A, b=b, floor=floor)
    return problem, z
