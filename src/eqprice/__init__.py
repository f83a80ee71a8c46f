"""Regularized Walras-type price equilibria.

Supply and demand are optimal strategies of strictly convex quadratic
programs parameterized by price; equilibrium prices are the fixed points
of a nonexpansive projected step of the excess map; and the solver picks
the fixed point nearest a guessed price by minimizing a strongly convex
anchor objective over that fixed-point set.

The package exports the API of the README quick start plus
``km_fixed_point``; everything else is imported from its module.
"""

__version__ = "0.1.0"

from .maps import ExcessEvaluator
from .model import AgentCosts, FeasibleSet, ModelInstance, PriceDomain
from .solver import Objective, bilevel_solve, km_fixed_point

__all__ = [
    "AgentCosts",
    "ExcessEvaluator",
    "FeasibleSet",
    "ModelInstance",
    "Objective",
    "PriceDomain",
    "bilevel_solve",
    "km_fixed_point",
]
