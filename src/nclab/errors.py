"""Error types shared across the library, and the one size guard.

Library code raises these instead of bare ValueError/RuntimeError so that
callers (in particular the CLI) can map failures onto exit codes uniformly.
"""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class DomainError(ValueError):
    """An input object lies outside the operation's domain."""


class ResourceLimitError(RuntimeError):
    """An enumeration size, predicted or reached, exceeds the configured cap."""


class InvariantViolation(RuntimeError):
    """An internal exactness or structure invariant failed."""


#: Default guard against runaway enumerations; the CLI can override it.
DEFAULT_MAX_OBJECTS = 10**7


def check_cap(size: int, max_objects: int, what: str) -> None:
    """The one size guard: ResourceLimitError, naming `what`, when `size` exceeds the cap."""
    if size > max_objects:
        raise ResourceLimitError(f"{what}, more than the cap {max_objects}")
