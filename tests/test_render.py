"""The JSON writer against the ``json.dumps`` render it replaced.

``cli._as_json`` must print exactly what ``json.dumps(_round12(x),
indent=2)`` printed, where ``_round12`` below is the old rounding pass,
kept here as the reference.
"""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gutheory.cli import _SLICE, _as_json


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def reference(payload) -> str:
    return json.dumps(_round12(payload), indent=2)


def negated(strategy):
    return strategy | strategy.map(lambda x: -x)


# Every category, so control characters and lone surrogates come up.
texts = st.text(st.characters(exclude_categories=()))

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    # Where the .12g and repr layouts meet: fixed notation on both sides,
    # .12g switching to an exponent at 1e12 and repr at 1e16.
    negated(st.floats(min_value=1e-5, max_value=1e16, exclude_max=True)),
    # Thirteen digits ending in 5: halfway cases of the 12-digit rounding.
    negated(st.builds(
        lambda digits, exponent: float(f"{digits}5e{exponent}"),
        st.integers(10**11, 10**12 - 1),
        st.integers(-17, 5),
    )),
    st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.max, sys.float_info.min]),
)

integers = st.integers() | st.integers(-(10**300), 10**300)

scalars = st.one_of(st.none(), st.booleans(), integers, texts, floats)

# Flat lists of one type, which the writer formats without recursing.
flat = st.one_of(
    st.lists(floats),
    st.lists(texts),
    st.lists(integers),
    st.lists(floats).map(tuple),
)

values = st.recursive(
    scalars | flat,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(texts, children, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_matches_json_dumps(payload):
    assert _as_json(payload) == reference(payload)


@settings(max_examples=400, deadline=None)
@given(st.lists(floats, min_size=1))
def test_float_lists_match_json_dumps(payload):
    assert _as_json({"elements": payload}) == reference({"elements": payload})


@pytest.mark.parametrize(
    "x",
    [
        123456789012.5,
        999999999999.5,
        1e11 + 0.5,
        1e-4,
        1.7976931348623157e308,
        1e16,
        1e12,
        float("nan"),
        float("inf"),
    ],
)
def test_boundary_floats(x):
    for payload in (x, -x, [x, -x], (x,), {"k": [x, 1, "s"], "v": x}):
        assert _as_json(payload) == reference(payload)


def test_empty_containers_and_nesting():
    payload = {"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": [{}]}, "": None}
    assert _as_json(payload) == reference(payload)


@pytest.mark.parametrize("n", [_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 1])
def test_float_lists_around_the_slice_size(n):
    values = [(-1) ** i * (i + 0.1) / 7 for i in range(n)]
    payload = {"outer": {"elements": values, "after": [values[:3], n]}, "n": n}
    assert _as_json(payload) == reference(payload)
