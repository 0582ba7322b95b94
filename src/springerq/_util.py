"""Small shared helpers."""

import itertools
import json
import math
from collections.abc import Iterator

# the string encoder json.dumps uses with its default ensure_ascii=True
_encode_str = json.encoder.encode_basestring_ascii
_BATCH = 1 << 16  # characters per write


def binom(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 for b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def write_lines(lines, write) -> None:
    """Write an iterable of strings through write, joined into writes of at
    least _BATCH characters each (the last may be shorter); no string is split."""
    pending, size = [], 0
    for line in lines:
        pending.append(line)
        size += len(line)
        if size >= _BATCH:
            write("".join(pending))
            pending, size = [], 0
    if size:
        write("".join(pending))


def _scalar(v):
    """json.dumps text of a str, int, bool or None; None for anything else.

    An int outside the signed 64-bit range [-2^63, 2^63) is written as its
    decimal string, so that every reader gets it exactly.
    """
    if isinstance(v, str):
        return _encode_str(v)
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        text = int.__repr__(v)
        return text if -(2**63) <= v < 2**63 else f'"{text}"'
    if v is None:
        return "null"
    return None


class Records(Iterator):
    """A table as an iterator of dict(zip(header, row)), one per row, made as
    it is consumed.  write_json instead writes each row from one template of
    the header's keys, with no dict built and no key encoded again; so the
    header must not repeat a key.
    """

    def __init__(self, header, rows):
        self.header, self.rows = list(header), iter(rows)

    def __next__(self):
        return dict(zip(self.header, next(self.rows)))


def _objects(records, indent):
    """Yield indent and the text of each row of records as a JSON object."""
    inner = indent + "  "
    heads = [f"{inner}{_encode_str(k)}: " for k in records.header]
    for row in records.rows:
        items = [h + (_scalar(v) or _text(v, inner)) for h, v in zip(heads, row)]
        yield f"{indent}{{{','.join(items)}{indent}}}" if items else indent + "{}"


def _text(value, indent) -> str:
    """The whole text of a dict, list, tuple, Records or iterator; indent is
    a newline and its spaces.  Anything else raises TypeError."""
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{_encode_str(k)}: {_scalar(v) or _text(v, inner)}"
                 for k, v in value.items()]
        brackets = "{}"
    elif type(value) is Records:  # not isinstance: an ABC's check would slow every list
        items, brackets = list(_objects(value, inner)), "[]"
    elif isinstance(value, (list, tuple, Iterator)):
        items, brackets = [inner + (_scalar(v) or _text(v, inner)) for v in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return f"{brackets[0]}{','.join(items)}{indent}{brackets[1]}" if items else brackets


def _pieces(value, indent):
    """Yield the text of a dict, Records or iterator one item per piece,
    streaming an item that is an iterator the same way, and of anything else whole."""
    inner = indent + "  "
    if type(value) is Records:
        sep = "["
        for text in _objects(value, inner):
            yield sep + text
            sep = ","
        yield indent + "]" if sep == "," else "[]"
        return
    if isinstance(value, dict):
        heads, items, brackets = (f"{inner}{_encode_str(k)}: " for k in value), value.values(), "{}"
    elif isinstance(value, Iterator):
        heads, items, brackets = itertools.repeat(inner), value, "[]"
    else:
        yield _scalar(value) or _text(value, indent)
        return
    sep = brackets[0]
    for head, item in zip(heads, items):
        if isinstance(item, Iterator):
            yield sep + head
            yield from _pieces(item, inner)
        else:
            yield sep + head + (_scalar(item) or _text(item, inner))
        sep = ","
    yield indent + brackets[1] if sep == "," else brackets


def write_json(doc, write) -> None:
    """Write the text of json.dumps(doc, indent=2) through write_lines, with
    every int outside the signed 64-bit range written as a decimal string.

    doc is built of dicts with str keys, lists, tuples, str, int, bool and
    None; anything else, floats included, raises TypeError.  An iterator is
    written as an array as it is consumed, so a table never sits in memory
    as objects or as text, as it would with the stdlib's indenting encoder.
    """
    write_lines(_pieces(doc, "\n"), write)
