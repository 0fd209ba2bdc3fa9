"""The JSON writer against the ``json.dumps`` render it replaced.

``cli._as_json`` must print exactly what ``json.dumps(_round12(x),
indent=2)`` printed, where ``_round12`` below is the old rounding pass,
kept here as the reference.
"""

import json
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from gutheory.cli import _SLICE, _as_json, _json_pieces


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


@pytest.mark.parametrize("text", ['"', "\\", "\x00", "\x7f", "é", "\ud800"])
@pytest.mark.parametrize("where", [0, _SLICE - 1, _SLICE, 2 * _SLICE + 2])
@pytest.mark.parametrize("container", [list, tuple])
def test_one_slice_needs_escaping(text, where, container):
    """Every other slice holds only texts that print as themselves in
    quotes, which the writer joins whole."""
    values = [("Equal", "WeaklyGreater", "")[i % 3] for i in range(2 * _SLICE + 3)]
    values[where] = f"a{text}b"
    payload = {"rows": [container(values), container(values[:5])]}
    assert _as_json(payload) == reference(payload)


@pytest.mark.parametrize("other", [None, True, 1, 1.5, [], {}, ["x"]])
@pytest.mark.parametrize("container", [list, tuple])
def test_text_lists_with_another_member(other, container):
    """A list that starts with a text and later holds something else is not
    a flat text list, though its first member says so."""
    payload = {"mixed": container(["Equal", "aé", other, "Equal"])}
    assert _as_json(payload) == reference(payload)


@pytest.mark.parametrize(
    "xs",
    [
        [(-1) ** i * (i + 0.1) / 7 for i in range(n)]
        for n in (_SLICE - 1, _SLICE, _SLICE + 1)
    ]
    + [[], [-0.0, 0.0, 3.0, -2.0, 1e16, -1e16, 1e-5, -1e-5, 5e-324, -5e-324]],
    ids=["slice-1", "slice", "slice+1", "empty", "edges"],
)
def test_memoryview_prints_as_its_list(xs):
    """``generate`` hands the writer its elements as a buffer of doubles."""
    for payload, view in ((xs, memoryview(array("d", xs))),
                          ({"elements": xs}, {"elements": memoryview(array("d", xs))})):
        assert list(_json_pieces(view)) == list(_json_pieces(payload))
        assert _as_json(view) == _as_json(payload) == reference(payload)


@pytest.mark.parametrize(
    "rows, width", [(1, 1), (2, 2), (3, _SLICE + 1)], ids=["1", "2", "slice+1"]
)
def test_iterator_prints_as_its_list(rows, width):
    """``decide`` hands the writer its relation rows as an iterator."""
    texts = ("Equal", "WeaklyGreater", "PartlySmaller")
    matrix = [tuple(texts[(i + j) % 3] for j in range(width)) for i in range(rows)]
    payload = {"geus": [[0.5, 1.5]] * rows, "relations": matrix, "note": None}
    assert _as_json(dict(payload, relations=iter(matrix))) == reference(payload)
    assert _as_json(iter(matrix)) == _as_json(matrix)
    # Members of an iterator may be iterators and scalars too.
    nested = [iter(row) for row in matrix] + [1.5, None, {"k": iter([2, "x"])}]
    assert _as_json(iter(nested)) == reference(matrix + [1.5, None, {"k": [2, "x"]}])


def test_empty_iterator_prints_an_empty_list():
    payload = {"relations": iter(()), "rows": [iter([])], "after": 1}
    assert _as_json(payload) == reference({"relations": [], "rows": [[]], "after": 1})
    assert _as_json(iter(())) == "[]"
