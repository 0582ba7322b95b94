"""Small shared helpers."""

import itertools
import json
import math
from collections.abc import Iterator

# the string encoder json.dumps uses with its default ensure_ascii=True
_encode_str = json.encoder.encode_basestring_ascii
_BATCH = 4096  # pieces per write


def binom(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 for b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def write_lines(lines, write) -> None:
    """Write an iterable of strings through write, _BATCH of them at a time."""
    lines = iter(lines)
    while batch := list(itertools.islice(lines, _BATCH)):
        write("".join(batch))


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


def write_json(doc, write) -> None:
    """Write the text of json.dumps(doc, indent=2) through write, in batches,
    with every int outside the signed 64-bit range written as a decimal string.

    doc is built of dicts with str keys, lists, tuples, str, int, bool and
    None; anything else, floats included, raises TypeError.  An iterator is
    written as an array as it is consumed, so a table never sits in memory
    as objects or as text.  A container that holds only scalars is rendered
    as one string.  The stdlib's indenting encoder is pure Python and
    returns the whole text at once.
    """
    pieces = []

    def put(value, indent):
        """Append the text of a container; indent is a newline and its spaces."""
        inner = indent + "  "
        if isinstance(value, dict):
            heads = [f"{inner}{_encode_str(k)}: " for k in value]
            texts = list(map(_scalar, value.values()))
            if None not in texts:  # only scalars: one piece
                pieces.append("{" + ",".join(map(str.__add__, heads, texts)) + indent + "}"
                              if texts else "{}")
                return
            items, brackets = value.values(), "{}"
        elif isinstance(value, (list, tuple)):
            texts = list(map(_scalar, value))
            if None not in texts:
                pieces.append(f"[{inner}{(',' + inner).join(texts)}{indent}]" if texts else "[]")
                return
            heads, items, brackets = itertools.repeat(inner), value, "[]"
        elif isinstance(value, Iterator):  # written as it is consumed, never held
            heads, items, brackets = itertools.repeat(inner), value, "[]"
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        sep = brackets[0]
        for head, item in zip(heads, items):
            text = _scalar(item)
            if text is None:
                pieces.append(sep + head)
                put(item, inner)
            else:
                pieces.append(sep + head + text)
            sep = ","
            if len(pieces) >= _BATCH:
                write("".join(pieces))
                pieces.clear()
        pieces.append(indent + brackets[1] if sep == "," else brackets)

    text = _scalar(doc)
    if text is None:
        put(doc, "\n")
    else:
        pieces.append(text)
    write("".join(pieces))
