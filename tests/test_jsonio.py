"""Deterministic JSON writer: stable key order, full-precision floats."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtree import jsonio


def test_format_float_roundtrips_exactly():
    for x in (0.1, 1 / 3, 2.5, 1e-12, 6.02e23, -0.0, math.pi):
        assert float(jsonio.format_float(x)) == x


def test_format_float_marks_integral_values():
    assert jsonio.format_float(2.0) == "2.0"
    assert jsonio.format_float(-3.0) == "-3.0"
    assert jsonio.format_float(1e22) == "1e+22.0" or "e" in jsonio.format_float(1e22)


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        jsonio.format_float(float("nan"))
    with pytest.raises(ValueError):
        jsonio.format_float(float("inf"))


def test_dumps_scalar_types():
    assert jsonio.dumps(None) == "null"
    assert jsonio.dumps(True) == "true"
    assert jsonio.dumps(False) == "false"
    assert jsonio.dumps(7) == "7"
    assert jsonio.dumps("a\"b\n") == '"a\\"b\\n"'


def test_dumps_matches_stdlib_parse():
    doc = {"b": [1, 2.5, None], "a": {"nested": [True, "x"]}, "c": 0.1}
    text = jsonio.dumps(doc)
    assert json.loads(text) == doc
    assert jsonio.loads(text) == doc


def test_dumps_preserves_insertion_order():
    text = jsonio.dumps({"z": 1, "a": 2})
    assert text.index('"z"') < text.index('"a"')


def test_dumps_is_byte_stable():
    doc = {"root": {"theta": 1 / 3, "children": [{"class": 1}, {"class": 2}]}}
    assert jsonio.dumps(doc) == jsonio.dumps(doc)


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        jsonio.dumps({"x": {1, 2}})


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


def _same_parse(text):
    """The iterative parse gives what json.loads gives, or fails as it does."""
    try:
        want = json.loads(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            jsonio._loads_on_stack(text)
        assert type(info.value) is type(exc)
        return
    # repr tells NaN, -0.0 and key order apart
    assert repr(jsonio._loads_on_stack(text)) == repr(want)


@settings(max_examples=200, deadline=None)
@given(
    value=JSON_VALUES,
    indent=st.sampled_from([None, 0, 2]),
    ascii_only=st.booleans(),
    cut=st.integers(0, 10**6),
)
def test_iterative_parse_matches_stdlib(value, indent, ascii_only, cut):
    text = json.dumps(value, indent=indent, ensure_ascii=ascii_only)
    _same_parse(text)
    _same_parse(" \t\r\n" + text + "\n ")
    _same_parse(text[: cut % (len(text) + 1)])
    _same_parse(text + text)


@pytest.mark.parametrize(
    "text",
    ["", "[", "[1,]", '{"a":1,}', '{"a" 1}', "[1 2]", "[1] x", "{1:2}", '{"a":', '"abc',
     "\ufeff[]", "[01]", '{"a":1]', "[1}", "[Inf]", '["\x01"]', "[NaN, -Infinity, 1e999]"],
)
def test_iterative_parse_matches_stdlib_on_edge_cases(text):
    _same_parse(text)


def test_loads_falls_back_on_deep_nesting():
    depth = 50_000
    text = '{"a": [' * depth + "NaN" + "]}" * depth
    with pytest.raises(RecursionError):
        json.loads(text)
    value = jsonio.loads(text)
    for _ in range(depth):
        assert list(value) == ["a"] and len(value["a"]) == 1
        value = value["a"][0]
    assert math.isnan(value)
    with pytest.raises(json.JSONDecodeError, match="Extra data"):
        jsonio.loads(text + " 1")
