"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: a format error and a construction error
(an unknown or duplicate node) exit with 2, like misuse or an unreadable file;
a precondition error is a domain error and exits with 1.
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
