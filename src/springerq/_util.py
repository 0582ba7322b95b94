"""Small shared helpers, and the streaming JSON writer write_json.

write_json encodes the rows of a table (each Records row, each item of a
list or tuple of equal-width lists or tuples) whose values are all of exact
type str, int, bool or None in batches of _ROWS_PER_BATCH rows, one call of
the stdlib's C encoder per batch (_flat_text).  Any other value, a batch of
fewer than _MIN_FLAT values, and everything where the C encoder is missing
take the per-value path (_scalar, _text).  The one rule the writer adds to
json.dumps, that an int outside the signed 64-bit range is written as its
decimal string, lives in both: in _scalar, and in _flat_text, which applies
it from the values of a batch in which an int text of 19 or more characters
shows up.
"""

import itertools
import json
import math
import re
from collections.abc import Iterator

# the string encoder json.dumps uses with its default ensure_ascii=True
_encode_str = json.encoder.encode_basestring_ascii
_BATCH = 1 << 16  # characters per write
_ROWS_PER_BATCH = 128  # rows per call of _encode_flat; 512 raised peak RSS by 0.8 MB
_MIN_FLAT = 8  # fewer values per batch are written faster one by one


def _refuse(value):
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# The C encoder behind json.dumps, writing a flat list of scalars with NUL
# between their texts (ensure_ascii escapes a NUL inside a string); None
# where the interpreter has no C accelerator.
_encode_flat = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _refuse, _encode_str, None, ": ", "\x00", False, False, False)
_FLAT_SCALARS = frozenset([str, int, bool, type(None)])
_SEQUENCES = frozenset([list, tuple])
# an int text of 19 or more characters may lie outside the 64-bit range; the
# first text of a batch follows "[", and is an int if it is that long and unquoted
_LONG_TEXT = re.compile("\x00[-0-9]{19}")


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
    header must not repeat a key.  It takes up to _ROWS_PER_BATCH rows of
    scalars before writing them, so a row must not be reused or changed
    after it is yielded.
    """

    def __init__(self, header, rows):
        self.header, self.rows = list(header), iter(rows)

    def __next__(self):
        return dict(zip(self.header, next(self.rows)))


def _flat_text(batch, heads, opening, closing):
    """The text of the rows of batch joined by ",", each row written as
    opening, each value after its head, then closing, with "," between the
    values; or None, for the per-value path, unless batch holds lists or
    tuples of len(heads) values of exact type str, int, bool or None and the
    C encoder is there.  Callers skip batches of fewer than _MIN_FLAT values
    before calling, which saves a call per small nested table."""
    flat = (_encode_flat is not None and _SEQUENCES.issuperset(map(type, batch))
            and set(map(len, batch)) == {len(heads)} and list(itertools.chain.from_iterable(batch)))
    if not flat or not _FLAT_SCALARS.issuperset(map(type, flat)):
        return None
    text = "".join(_encode_flat(flat, 0))[1:-1]
    texts = text.split("\x00")
    if (len(texts[0]) > 18 and texts[0][0] != '"') or _LONG_TEXT.search(text):  # 64-bit rule
        texts = [f'"{t}"' if type(v) is int and not -(2**63) <= v < 2**63 else t
                 for t, v in zip(texts, flat)]
    out = [closing + "," + opening + heads[0], None]
    for head in heads[1:]:
        out += ["," + head, None]
    out *= len(batch)
    out[0] = opening + heads[0]
    out[1::2] = texts
    out.append(closing)
    return "".join(out)


def _objects(records, indent):
    """Yield the text of each row of records as a JSON object after indent,
    joined by "," a batch of up to _ROWS_PER_BATCH rows at a time where
    _flat_text takes the batch.  A batch starts only at a row of scalars;
    from a row that holds anything else on, rows are written one at a time,
    as they are consumed."""
    inner = indent + "  "
    heads = [f"{inner}{_encode_str(k)}: " for k in records.header]
    rows = records.rows
    for row in rows:
        if type(row) in _SEQUENCES and _FLAT_SCALARS.issuperset(map(type, row)):
            batch = [row, *itertools.islice(rows, _ROWS_PER_BATCH - 1)]
            if len(batch) * len(heads) >= _MIN_FLAT and (
                    text := _flat_text(batch, heads, indent + "{", indent + "}")) is not None:
                yield text
                continue
        else:
            batch = itertools.chain([row], rows)
        for row in batch:
            items = [h + (_scalar(v) or _text(v, inner)) for h, v in zip(heads, row)]
            yield f"{indent}{{{','.join(items)}{indent}}}" if items else indent + "{}"


def _items(values, indent):
    """Yield the text of each item of a list or tuple after indent, joined by
    "," a batch at a time where _flat_text takes the batch as rows as wide
    as the first item."""
    heads = [indent + "  "] * len(values[0])
    for k in range(0, len(values), _ROWS_PER_BATCH):
        batch = values[k:k + _ROWS_PER_BATCH]
        if len(batch) * len(heads) >= _MIN_FLAT and (
                text := _flat_text(batch, heads, indent + "[", indent + "]")) is not None:
            yield text
        else:
            yield from (indent + (_scalar(v) or _text(v, indent)) for v in batch)


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
    elif type(value) in _SEQUENCES and value and type(value[0]) in _SEQUENCES:
        items, brackets = list(_items(value, inner)), "[]"
    elif isinstance(value, (list, tuple, Iterator)):
        items, brackets = [inner + (_scalar(v) or _text(v, inner)) for v in value], "[]"
    else:
        _refuse(value)
    return f"{brackets[0]}{','.join(items)}{indent}{brackets[1]}" if items else brackets


def _pieces(value, indent):
    """Yield the text of a dict, Records or iterator one item per piece (a
    batch of rows per piece for Records), streaming an item that is an
    iterator the same way, and of anything else whole."""
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
    Rows of scalars are encoded a batch at a time by the C encoder (_flat_text),
    everything else value by value; both write the same bytes.
    """
    write_lines(_pieces(doc, "\n"), write)
