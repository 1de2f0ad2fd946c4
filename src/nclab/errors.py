"""Error types shared across the library.

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
