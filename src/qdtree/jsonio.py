"""Deterministic JSON text.

dumps is the standard json module's, indented by INDENT with fields in
dict insertion order, so identical structures serialize to identical
bytes. format_float is the one path that writes a float: model thresholds
go through it with 17 significant digits. Loading goes through the
standard json module; text nested past the interpreter's recursion limit
is parsed again on an explicit stack.
"""

import json
import math
import re
from json.decoder import JSONDecodeError, scanstring

INDENT = 2


def format_float(x):
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite number %r" % (x,))
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def dumps(value):
    return json.dumps(value, indent=INDENT, allow_nan=False)


def loads(text):
    """json.loads, falling back to an iterative parse that gives the same
    values when the text nests too deeply for the recursive decoder."""
    try:
        return json.loads(text)
    except RecursionError:
        return _loads_on_stack(text)


_WHITESPACE = re.compile(r"[ \t\n\r]*")
_SCALAR = json.JSONDecoder().scan_once


def _loads_on_stack(s):
    """Parses JSON text without recursion. Containers under construction
    sit on a stack, each dict with the key its next value goes to; strings
    go through scanstring and every other scalar through the stdlib
    scanner, so values (NaN and Infinity included) match json.loads."""
    skip = _WHITESPACE.match
    if s.startswith("\ufeff"):
        raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", s, 0)
    stack = []
    idx = skip(s, 0).end()
    while True:
        ch = s[idx : idx + 1]
        if ch == "{":
            idx = skip(s, idx + 1).end()
            if s[idx : idx + 1] == "}":
                value, idx = {}, idx + 1
            else:
                key, idx = _key(s, idx)
                stack.append([{}, key])
                continue
        elif ch == "[":
            idx = skip(s, idx + 1).end()
            if s[idx : idx + 1] == "]":
                value, idx = [], idx + 1
            else:
                stack.append([[], None])
                continue
        elif ch == '"':
            value, idx = scanstring(s, idx + 1)
        else:
            try:
                value, idx = _SCALAR(s, idx)
            except StopIteration as err:
                raise JSONDecodeError("Expecting value", s, err.value) from None
        # hand the finished value to its container, closing every container
        # it completes, until one expects another value
        while stack:
            frame = stack[-1]
            container = frame[0]
            if frame[1] is None:
                container.append(value)
            else:
                container[frame[1]] = value
            idx = skip(s, idx).end()
            ch = s[idx : idx + 1]
            if ch == ",":
                idx = skip(s, idx + 1).end()
                if frame[1] is not None:
                    frame[1], idx = _key(s, idx)
                break
            if ch != ("]" if frame[1] is None else "}"):
                raise JSONDecodeError("Expecting ',' delimiter", s, idx)
            stack.pop()
            value, idx = container, idx + 1
        else:
            end = skip(s, idx).end()
            if end != len(s):
                raise JSONDecodeError("Extra data", s, end)
            return value


def _key(s, idx):
    """An object key at idx and the index just past its colon and the
    whitespace after it."""
    if s[idx : idx + 1] != '"':
        raise JSONDecodeError("Expecting property name enclosed in double quotes", s, idx)
    key, idx = scanstring(s, idx + 1)
    idx = _WHITESPACE.match(s, idx).end()
    if s[idx : idx + 1] != ":":
        raise JSONDecodeError("Expecting ':' delimiter", s, idx)
    return key, _WHITESPACE.match(s, idx + 1).end()
