"""The totally ordered weight lattice.

Weights are non-negative integers extended with a bottom element (printed
``-inf``) and a top element (printed ``inf``).  Join is ``max``, meet is
``min``.  Plain Python ints carry the finite values; the two sentinels are the
float infinities, which compare correctly against ints, so ``max``/``min``
work out of the box and equality stays exact.  Python spells those floats
``inf`` and ``-inf``, so ``str`` and f-strings spell every weight as the token
`parse_weight` reads back: writers format weights directly.
"""

from __future__ import annotations

from .errors import GraphFormatError

__all__ = [
    "BOTTOM",
    "TOP",
    "Weight",
    "join",
    "meet",
    "parse_weight",
    "weight_succ",
]

Weight = int | float

TOP: Weight = float("inf")
BOTTOM: Weight = float("-inf")


def join(a: Weight, b: Weight) -> Weight:
    return a if a >= b else b


def meet(a: Weight, b: Weight) -> Weight:
    return a if a <= b else b


def weight_succ(w: Weight) -> Weight:
    """Smallest weight strictly above ``w`` (top is absorbing).

    ``succ(bottom)`` is 0, the smallest finite weight: weights are unsigned,
    and the ceiling-minima oversets need a value strictly above a bottom
    ceiling to detect it.
    """
    if w == TOP:
        return TOP
    if w == BOTTOM:
        return 0
    return w + 1


def parse_weight(token: str) -> Weight:
    """Parse ``[0-9]+ | "inf" | "-inf"`` (ASCII only) as used by all file formats."""
    if token == "inf":
        return TOP
    if token == "-inf":
        return BOTTOM
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # beyond the interpreter's int digit limit
            raise GraphFormatError(f"weight has too many digits: {len(token)}") from None
    if token[:1] == "-" and token[1:].isascii() and token[1:].isdigit():
        raise GraphFormatError(f"negative finite weight not allowed: {token!r}")
    raise GraphFormatError(f"not a weight: {token!r}")
