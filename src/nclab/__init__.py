"""Exact-arithmetic toolkit for order-t non-crossing partition families.

The package enumerates m-divisible non-crossing t-partitions with their
refinement poset, evaluates the associated closed counting formulas and
triangle polynomials in exact integer arithmetic, builds the nested-filter
and lattice-path models, and cross-checks everything pairwise.  All public
objects are immutable values, and all operations are pure functions.
"""

from .errors import (
    DomainError,
    InvariantViolation,
    ParameterError,
    ResourceLimitError,
)
from .ncpart import (
    BlockProfile,
    SetPartition,
    block_profile,
    enumerate_nc,
    rank_of,
    tilde_transform,
)
from .params import Params
from .polyalg import BivariatePolynomial, RationalExpr
from .posetcore import FinitePoset, build_refinement_poset

__version__ = "0.1.0"

__all__ = [
    "BivariatePolynomial",
    "BlockProfile",
    "DomainError",
    "FinitePoset",
    "InvariantViolation",
    "ParameterError",
    "Params",
    "RationalExpr",
    "ResourceLimitError",
    "SetPartition",
    "block_profile",
    "build_refinement_poset",
    "enumerate_nc",
    "rank_of",
    "tilde_transform",
]
