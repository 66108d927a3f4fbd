"""Deterministic JSON and CSV reports, streamed in blocks.

`write_json(doc, fh)` writes ``json.dumps(doc, indent=2, sort_keys=True)``
and a newline, byte for byte, each `Table` in `doc` written as the list
of records it holds.  json takes its pure-Python encoder whenever an
indent is asked for; here the layout is written directly, and a table a
block of rows at a time (`_blocks`).  Any value whose exact type is not a
Table, dict, list, tuple, str, int, float, bool or None (a numpy scalar, a
subclass, an unserialisable object) is handed to json itself, so it is
written, or refused, exactly as json would.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, cycle, islice
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Sequence, TextIO

_INDENT = "  "
# rows formatted per write: bounds the strings alive at once
_ROWS_PER_WRITE = 512
# texts a table's memo holds for one type before it is emptied
_MEMO_SIZE = 4096


@dataclass(frozen=True)
class Pattern:
    """A column of `size` values, value i ``values[i // each % len(values)]``:
    each value `each` times in turn, cycled.  A report's heights are
    ``Pattern(t, size, checks)``, its check ids ``Pattern(ids, size)``."""

    values: Sequence
    size: int
    each: int = 1

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class Table:
    """Flat records held as columns, keyed by strings and of one length,
    each a sequence or a `Pattern`: written as json writes
    ``[dict(zip(columns, r)) for r in zip(*columns.values())]``, a Pattern
    expanded."""

    columns: dict[str, Sequence | Pattern]


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


def write_csv(columns: Sequence[Sequence | Pattern], fh: TextIO) -> None:
    """Write the rows of `columns` as comma-separated lines, floats with 17
    significant digits and strings as they are, _ROWS_PER_WRITE at a time."""
    parts = [""] + [","] * (len(columns) - 1) + ["\n"]
    for block in _blocks(columns, {float: "%.17g".__mod__, str: str}, str, parts, ("", "")):
        fh.write(block)


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
    pad = "\n" + _INDENT * (level + 1)
    parts = [sep + _INDENT + encode_basestring_ascii(k) + ": "
             for sep, k in zip(["{" + pad] + ["," + pad] * len(keys), keys)] + [pad + "}"]
    end = "[]"
    for block in _blocks([table.columns[k] for k in keys], _SCALARS,
                         lambda v: "".join(_chunks(v, level + 2)), parts,
                         ("[" + pad, "," + pad)):
        yield block
        end = "\n" + _INDENT * level + "]"
    yield end


def _blocks(columns: Sequence[Sequence | Pattern], formats: dict[type, Callable],
            other: Callable, parts: list[str], seps: tuple[str, str]) -> Iterator[str]:
    """The rows of `columns`, _ROWS_PER_WRITE at a time: parts[i] before
    the text of column i and parts[-1] after the last, rows joined by
    seps[1], the first block led by seps[0] and the others by seps[1].  A
    `Pattern` that repeats within a block is written into the rows' texts
    once, and blocks start where they repeat; the other columns are
    formatted a block at a time (`_texts`), and one join assembles a
    block."""
    rows = min(map(len, columns), default=0)
    if not rows:
        return
    period, fixed, memo = 1, {}, {}
    for i, column in enumerate(columns):
        if type(column) is Pattern:
            repeats = math.lcm(period, len(column.values) * column.each)
            if repeats <= _ROWS_PER_WRITE:
                period, fixed[i] = repeats, _texts(column.values, formats, other, memo)
    # a period of rows: each row's texts with None in its other columns'
    # slots, then the separator of rows
    records = []
    for r in range(period):
        texts = [parts[0]]
        for i, c in enumerate(columns):
            if i in fixed:
                texts[-1] += fixed[i][r // c.each % len(c.values)] + parts[i + 1]
            else:
                texts += [None, parts[i + 1]]
        records += texts + [seps[1]]
    width, per_write = len(records) // period, period * max(1, _ROWS_PER_WRITE // period)

    def pieces(n: int) -> list:
        # n rows after a slot for the block's separator
        return [None, *records * (n // period), *records[:n % period * width]][:-1]

    full = pieces(per_write)
    for lo in range(0, rows, per_write):
        n = min(per_write, rows - lo)
        out = full if n == per_write else pieces(n)
        out[0] = seps[lo > 0]
        for j, column in enumerate(c for i, c in enumerate(columns) if i not in fixed):
            if type(column) is Pattern:
                # the values of the rows' runs of `each`, cycled, then the runs
                each, first = column.each, lo // column.each % len(column.values)
                runs = _texts(list(islice(cycle(column.values), first,
                                          first + (lo + n - 1) // each - lo // each + 1)),
                              formats, other, memo)
                texts = islice(chain.from_iterable(zip(*[runs] * each)),
                               lo % each, lo % each + n)
            else:
                texts = _texts(column[lo:lo + n], formats, other, memo)
            out[2 + 2 * j::width] = texts
        yield "".join(out)


def _texts(values: Sequence, formats: dict[type, Callable], other: Callable,
           memo: dict) -> list[str]:
    """`values` formatted by `formats` of their exact type, or by `other`.
    Where they share a type and some repeat, in the block or from earlier
    ones, each distinct value is formatted once and kept in `memo` by
    type, which is emptied when a block would take it past _MEMO_SIZE."""
    kinds = set(map(type, values))
    if len(kinds) != 1 or not kinds <= formats.keys():
        return [formats[type(v)](v) if type(v) in formats else other(v) for v in values]
    kind = kinds.pop()
    known, text = memo.setdefault(kind, {}), formats[kind]
    try:
        return list(map(known.__getitem__, values))
    except KeyError:
        distinct = set(values)
    # 0.0 and -0.0 are one member of a set but two texts: neither is kept
    zero = kind is float and 0.0 in distinct
    if zero:
        distinct.discard(0.0)
    new = distinct.difference(known)
    if len(known) + len(new) > _MEMO_SIZE:
        known.clear()
        new = distinct
    # a finite sum has no NaN or infinity among its terms
    if text is _float and math.isfinite(sum(new)):
        text = float.__repr__
    if len(new) + zero == len(values):
        # no value repeats in the block or was seen before it: none is kept
        return list(map(text, values))
    # a NaN is its own member, found again by identity
    known.update(zip(new, map(text, new)))
    if zero:
        return [known[v] if v else text(v) for v in values]
    return list(map(known.__getitem__, values))
