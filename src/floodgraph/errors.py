"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: format problems are usage-level (exit 2),
everything else raised here is a domain error (exit 1).
"""

from __future__ import annotations

__all__ = [
    "ConstructionError",
    "FloodgraphError",
    "GraphFormatError",
    "PreconditionError",
]


class FloodgraphError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(FloodgraphError):
    """A text or PGM document could not be parsed."""


class ConstructionError(FloodgraphError):
    """Invalid graph construction input (unknown node, duplicate id, ...)."""


class PreconditionError(FloodgraphError):
    """An operation was called on data that violates its contract."""
