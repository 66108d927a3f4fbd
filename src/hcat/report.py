"""Deterministic JSON reports, streamed through templates.

`write_json(doc, fh)` writes the text of
``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, byte for
byte.  json takes its pure-Python encoder whenever an indent is asked
for; here the indented layout is written directly, and a list of flat
records (dicts of scalars sharing one key set, such as the strip checks)
is written through one ``%``-template per block of records, each
column's values formatted as json formats them.  Any value whose exact
type is not a dict, list, tuple, str, int, float, bool or None (a numpy
scalar, a subclass, an unserialisable object) is handed to json itself,
so it is written, or refused, exactly as json would.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterator, TextIO

_INDENT = "  "
# records formatted per write: bounds the strings alive at once
_RECORDS_PER_WRITE = 512


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# keyed by exact type, so that a bool is not written as an int
_SCALARS = {
    str: encode_basestring_ascii,
    float: _float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def write_json(doc, fh: TextIO) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` to `fh`."""
    for chunk in _chunks(doc, 0):
        fh.write(chunk)
    fh.write("\n")


def _chunks(value, level: int) -> Iterator[str]:
    """The text of `value` as json writes it at nesting depth `level`."""
    kind = type(value)
    if kind in _SCALARS:
        yield _SCALARS[kind](value)
    elif kind is dict and all(type(k) is str for k in value):
        yield from _dict_chunks(value, level)
    elif kind is list or kind is tuple:
        yield from _list_chunks(value, level)
    else:
        # json writes nested values at depth 0 plus the enclosing indent,
        # and its output has no newlines but the layout's own
        text = json.dumps(value, indent=2, sort_keys=True)
        yield text.replace("\n", "\n" + _INDENT * level)


def _dict_chunks(value: dict, level: int) -> Iterator[str]:
    if not value:
        yield "{}"
        return
    pad = "\n" + _INDENT * (level + 1)
    sep = "{" + pad
    for key in sorted(value):
        yield sep + encode_basestring_ascii(key) + ": "
        yield from _chunks(value[key], level + 1)
        sep = "," + pad
    yield "\n" + _INDENT * level + "}"


def _list_chunks(value: list | tuple, level: int) -> Iterator[str]:
    if not value:
        yield "[]"
        return
    pad = "\n" + _INDENT * (level + 1)
    sep = "[" + pad
    for lo in range(0, len(value), _RECORDS_PER_WRITE):
        block = value[lo:lo + _RECORDS_PER_WRITE]
        text = _records(block, level + 1, sep)
        if text is not None:
            yield text
        else:
            for item in block:
                yield sep
                yield from _chunks(item, level + 1)
                sep = "," + pad
        sep = "," + pad
    yield "\n" + _INDENT * level + "]"


def _records(block: list | tuple, level: int, sep: str) -> str | None:
    """The text of a block of flat records at depth `level`, the first
    preceded by `sep` and the others by a comma and a newline; or None
    unless every item is a non-empty dict of scalars keyed by the strings
    that key the first."""
    if set(map(type, block)) != {dict}:
        return None
    keys = block[0].keys()
    if not keys or not all(map(keys.__eq__, map(dict.keys, block))):
        return None
    if not all(type(k) is str for k in keys):
        return None
    keys = sorted(keys)
    columns = []
    for key in keys:
        column = _column(list(map(itemgetter(key), block)))
        if column is None:
            return None
        columns.append(column)
    pad = "\n" + _INDENT * level
    inner = pad + _INDENT
    fields = ("," + inner).join(
        encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
    record = "{" + inner + fields + pad + "}"
    template = sep + record + ("," + pad + record) * (len(block) - 1)
    return template % tuple(chain.from_iterable(zip(*columns)))


def _column(values: list) -> list[str] | None:
    """`values` formatted as json formats them, or None if any is not a
    scalar of one of the exact types json's layout is written for here.
    A column of one type formats each of its distinct values once."""
    kinds = set(map(type, values))
    if not kinds <= _SCALARS.keys():
        return None
    if len(kinds) > 1:
        return [_SCALARS[type(v)](v) for v in values]
    kind = kinds.pop()
    # a finite sum has no NaN or infinity among its terms
    text = (float.__repr__ if kind is float and math.isfinite(sum(values))
            else _SCALARS[kind])
    distinct = set(values)
    # 0.0 and -0.0 are one member of a set but two texts
    if len(distinct) == len(values) or (kind is float and 0.0 in distinct):
        return list(map(text, values))
    return list(map(dict(zip(distinct, map(text, distinct))).__getitem__, values))
