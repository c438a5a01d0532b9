"""Weight lattice: parsing, the tokens weights print as, order, and the successor map."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from floodgraph import (
    BOTTOM,
    TOP,
    GraphFormatError,
    join,
    meet,
    parse_weight,
    weight_succ,
)

weights = st.one_of(st.integers(min_value=0, max_value=10**6), st.sampled_from([TOP, BOTTOM]))


def test_sentinels_order():
    assert BOTTOM < 0 < 1 < TOP


def test_parse_weight_accepts_the_three_forms():
    assert parse_weight("0") == 0
    assert parse_weight("17") == 17
    assert parse_weight("inf") == TOP
    assert parse_weight("-inf") == BOTTOM


@pytest.mark.parametrize(
    "token",
    [
        "-1", "1.5", "nan", "", "infinity", "0x3", "1_000", "+3", " 4", "\u0663",
        pytest.param("1" * 5000, id="5000-digits"),  # beyond int()'s digit limit
    ],
)
def test_parse_weight_rejects_everything_else(token):
    with pytest.raises(GraphFormatError):
        parse_weight(token)


def test_format_weight():
    assert f"{0}" == "0"
    assert f"{42}" == "42"
    assert f"{TOP}" == "inf"
    assert f"{BOTTOM}" == "-inf"


@given(st.one_of(st.integers(), st.sampled_from([TOP, BOTTOM])))
def test_format_weight_is_the_plain_format(w):
    """Messages spell a weight with ``str`` or an f-string alike."""
    assert str(w) == f"{w}" == format(w, "")


@given(weights)
def test_parse_inverts_format(w):
    """Writers put weights in their f-strings directly, on this round trip."""
    assert parse_weight(f"{w}") == w


def test_weight_succ():
    assert weight_succ(BOTTOM) == 0
    assert weight_succ(0) == 1
    assert weight_succ(7) == 8
    assert weight_succ(TOP) == TOP


@given(weights)
def test_succ_is_strictly_above_except_at_top(w):
    if w == TOP:
        assert weight_succ(w) == TOP
    else:
        assert weight_succ(w) > w


@given(weights, weights)
def test_join_meet_are_max_min(a, b):
    assert join(a, b) == max(a, b)
    assert meet(a, b) == min(a, b)
    assert join(a, b) in (a, b)
    assert meet(a, b) in (a, b)


@given(weights, weights, weights)
def test_lattice_laws(a, b, c):
    assert join(a, b) == join(b, a)
    assert meet(a, b) == meet(b, a)
    assert join(a, join(b, c)) == join(join(a, b), c)
    assert meet(a, meet(b, c)) == meet(meet(a, b), c)
    assert join(a, meet(a, b)) == a
    assert meet(a, join(a, b)) == a
    # The order is total, so the lattice is distributive.
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))


@given(weights)
def test_top_and_bottom_are_units(w):
    assert join(w, BOTTOM) == w
    assert meet(w, TOP) == w
    assert join(w, TOP) == TOP
    assert meet(w, BOTTOM) == BOTTOM
