"""Deterministic JSON reports, streamed through templates.

`write_json(doc, fh)` writes ``json.dumps(doc, indent=2, sort_keys=True)``
and a newline, byte for byte, each `Table` in `doc` written as the list
of records it holds.  json takes its pure-Python encoder whenever an
indent is asked for; here the layout is written directly, and a table
(the strip checks' records, a profile's samples) through one
``%``-template per block of rows, each column's values formatted as json
formats them.  Any value whose exact type is not a Table, dict, list,
tuple, str, int, float, bool or None (a numpy scalar, a subclass, an
unserialisable object) is handed to json itself, so it is written, or
refused, exactly as json would.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Sequence, TextIO

_INDENT = "  "
# rows formatted per write: bounds the strings alive at once
_ROWS_PER_WRITE = 512


@dataclass(frozen=True)
class Table:
    """Flat records held as columns, keyed by strings and of one length:
    written as json writes ``[dict(zip(columns, r)) for r in zip(*columns.values())]``."""

    columns: dict[str, Sequence]


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
    elif kind is Table:
        yield from _table_chunks(value, level)
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
    for item in value:
        yield sep
        yield from _chunks(item, level + 1)
        sep = "," + pad
    yield "\n" + _INDENT * level + "]"


def _table_chunks(table: Table, level: int) -> Iterator[str]:
    keys = sorted(table.columns)
    columns = [table.columns[k] for k in keys]
    rows = len(columns[0]) if columns else 0
    if not rows:
        yield "[]"
        return
    pad = "\n" + _INDENT * (level + 1)
    inner = pad + _INDENT
    names = [encode_basestring_ascii(k).replace("%", "%%") + ": " for k in keys]
    sep = "[" + pad
    for lo in range(0, rows, _ROWS_PER_WRITE):
        texts = [_texts(column[lo:lo + _ROWS_PER_WRITE], level + 2) for column in columns]
        # a column with one text in the block is written into the template
        record = "{" + inner + ("," + inner).join(
            name + ("%s" if type(text) is list else text.replace("%", "%%"))
            for name, text in zip(names, texts)) + pad + "}"
        template = sep + record + ("," + pad + record) * (min(rows - lo, _ROWS_PER_WRITE) - 1)
        yield template % tuple(chain.from_iterable(zip(*[t for t in texts if type(t) is list])))
        sep = "," + pad
    yield "\n" + _INDENT * level + "]"


def text_map(text: Callable[[object], str], values: Sequence) -> dict | None:
    """{value: text(value)} over the distinct `values`, or None where
    formatting each value is about as cheap: when more than half of them
    are distinct, or one is a zero, since 0.0 and -0.0 are one member of a
    set but two texts.  A NaN is its own member, found again by identity."""
    distinct = set(values)
    if 2 * len(distinct) > len(values) or 0.0 in distinct:
        return None
    return dict(zip(distinct, map(text, distinct)))


def _texts(values: Sequence, level: int) -> list[str] | str:
    """`values` as json writes them at depth `level`, or their one text if
    they all share it.  A column of one scalar type whose values repeat
    formats each of its distinct values once (`text_map`)."""
    kinds = set(map(type, values))
    if not kinds <= _SCALARS.keys():
        return ["".join(_chunks(v, level)) for v in values]
    if len(kinds) > 1:
        return [_SCALARS[type(v)](v) for v in values]
    kind = kinds.pop()
    # a finite sum has no NaN or infinity among its terms
    text = (float.__repr__ if kind is float and math.isfinite(sum(values))
            else _SCALARS[kind])
    known = text_map(text, values)
    texts = list(map(known.__getitem__ if known else text, values))
    return texts[0] if texts.count(texts[0]) == len(texts) else texts
