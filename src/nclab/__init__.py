"""Exact-arithmetic toolkit for order-t non-crossing partition families.

The package enumerates m-divisible non-crossing t-partitions with their
refinement poset, evaluates the associated closed counting formulas and
triangle polynomials in exact integer arithmetic, builds the nested-filter
and lattice-path models, and cross-checks everything pairwise.  All public
objects are immutable values, and all operations are pure functions.
"""

from importlib import import_module

# Public name -> home module, imported at the name's first read, so that
# importing the package executes none of its modules.
_HOMES = {
    "BivariatePolynomial": "polyalg",
    "BlockProfile": "ncpart",
    "DomainError": "errors",
    "FinitePoset": "posetcore",
    "InvariantViolation": "errors",
    "ParameterError": "errors",
    "Params": "params",
    "RationalExpr": "polyalg",
    "ResourceLimitError": "errors",
    "SetPartition": "ncpart",
    "block_profile": "ncpart",
    "build_refinement_poset": "posetcore",
    "enumerate_nc": "ncpart",
    "rank_of": "ncpart",
    "tilde_transform": "ncpart",
}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


__version__ = "0.1.0"

__all__ = sorted(_HOMES)
