"""Deterministic JSON emission.

Field order is the dict insertion order and floats are written with 17
significant digits, so identical structures always serialize to identical
bytes. Loading goes through the standard json module.
"""

import json
import math

INDENT = 2


def format_float(x):
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite number %r" % (x,))
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def dumps(value):
    out = []
    _write(value, out, 0)
    return "".join(out)


def _write(value, out, depth):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        pad = " " * (INDENT * depth)
        inner = " " * (INDENT * (depth + 1))
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(inner)
            _write(item, out, depth + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        pad = " " * (INDENT * depth)
        inner = " " * (INDENT * (depth + 1))
        out.append("{\n")
        items = list(value.items())
        for i, (key, item) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings, got %r" % (key,))
            out.append(inner + json.dumps(key) + ": ")
            _write(item, out, depth + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError("cannot serialize %r" % (type(value),))


def loads(text):
    return json.loads(text)
