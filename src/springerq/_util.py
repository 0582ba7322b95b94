"""Small shared helpers, and the streaming JSON writer write_json.

write_json writes what json.dumps(doc, indent=2) writes, with one rule
added: an int outside the signed 64-bit range is written as its decimal
string.  That rule lives in _int_text alone.  _pieces is the one walk over
containers.  It hands each batch of up to _ROWS_PER_BATCH rows of values of
exact type str, int, bool or None to _flat_text, which encodes the batch in
one call of the stdlib's C encoder, and writes everything else value by
value (_scalar); both write the same bytes.
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


def _refuse(value):
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# The C encoder behind json.dumps, writing a flat list of scalars with NUL
# between their texts (ensure_ascii escapes a NUL inside a string); None
# where the interpreter has no C accelerator.
_encode_flat = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _refuse, _encode_str, None, ": ", "\x00", False, False, False)
_FLAT_SCALARS = frozenset([str, int, bool, type(None)])
_SEQUENCES = frozenset([list, tuple])
# only an int text of 19 or more characters may lie outside the 64-bit range,
# so _flat_text applies _int_text only where one shows up; the first text of a
# batch follows "[", and is an int if it is that long and unquoted
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


def _int_text(v, text):
    """text, the decimal text of the int v, as a JSON string if v lies outside
    the signed 64-bit range [-2^63, 2^63), so that every reader gets it exactly."""
    return text if -(2**63) <= v < 2**63 else f'"{text}"'


def _scalar(v):
    """json.dumps text of a str, int, bool or None, with an int written by
    _int_text; None for anything else."""
    if isinstance(v, str):
        return _encode_str(v)
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return _int_text(v, int.__repr__(v))
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
    C encoder is there."""
    flat = (_encode_flat is not None and _SEQUENCES.issuperset(map(type, batch))
            and set(map(len, batch)) == {len(heads)} and list(itertools.chain.from_iterable(batch)))
    if not flat or not _FLAT_SCALARS.issuperset(map(type, flat)):
        return None
    text = "".join(_encode_flat(flat, 0))[1:-1]
    texts = text.split("\x00")
    if (len(texts[0]) > 18 and texts[0][0] != '"') or _LONG_TEXT.search(text):
        texts = [_int_text(v, t) if len(t) > 18 and type(v) is int else t for t, v in zip(texts, flat)]
    out = [closing + "," + opening + heads[0], None]
    for head in heads[1:]:
        out += ["," + head, None]
    out *= len(batch)
    out[0] = opening + heads[0]
    out[1::2] = texts
    out.append(closing)
    return "".join(out)


def _pieces(value, indent):
    """Yield the text of value, whose lines after the first start with indent
    (a newline and its spaces), in pieces; anything but a dict, list, tuple,
    iterator, Records, str, int, bool or None raises TypeError.

    A scalar is one piece.  A dict streams one item per piece.  An array (a
    list, tuple, iterator or Records) streams one row per piece, or one batch
    per piece while its rows are lists or tuples of scalars that _flat_text
    takes; from the first row or batch that it does not take, one row per
    piece.  Only an item that is itself an iterator is streamed, the same
    way.  Every other item, and each value in a row of Records, is joined
    whole, which costs far less for the many small tables nested in rows.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        items, sep, closing = zip((f"{inner}{_encode_str(k)}: " for k in value), value.values()), "{", "}"
    elif type(value) is Records or type(value) in _SEQUENCES or isinstance(value, Iterator):
        sep, closing = "[", "]"
        if type(value) is Records:  # not isinstance: an ABC's check would slow every list
            keys, rows, edges = [f"{inner}  {_encode_str(k)}: " for k in value.header], value.rows, "{}"
        else:
            keys, rows, edges = None, iter(value), "[]"
        for row in rows:
            batch = [row]
            if type(row) in _SEQUENCES and _FLAT_SCALARS.issuperset(map(type, row)):
                batch += itertools.islice(rows, _ROWS_PER_BATCH - 1)
                heads = keys if keys is not None else [inner + "  "] * len(row)
                text = _flat_text(batch, heads, inner + edges[0], inner + edges[1])
                if text is not None:
                    yield sep + text
                    sep = ","
                    continue
            rows = itertools.chain(batch, rows)
            break
        if keys is None:
            items = zip(itertools.repeat(inner), rows)
        else:  # each row one object, from the keys' texts
            items = ()
            for row in rows:
                texts = [k + (_scalar(v) or "".join(_pieces(v, inner + "  "))) for k, v in zip(keys, row)]
                yield f"{sep}{inner}{{{','.join(texts)}{inner}}}" if texts else sep + inner + "{}"
                sep = ","
    else:
        yield _scalar(value) or _refuse(value)
        return
    for head, item in items:
        text = _scalar(item)
        if text is None and isinstance(item, Iterator):
            yield sep + head
            yield from _pieces(item, inner)
        else:
            yield sep + head + (text or "".join(_pieces(item, inner)))
        sep = ","
    yield indent + closing if sep == "," else sep + closing


def write_json(doc, write) -> None:
    """Write the text of json.dumps(doc, indent=2) through write_lines, with
    every int outside the signed 64-bit range written as a decimal string.

    doc is built of dicts with str keys, lists, tuples, str, int, bool and
    None; anything else, floats included, raises TypeError.  An iterator is
    written as an array as it is consumed, so a table never sits in memory
    as objects or as text, as it would with the stdlib's indenting encoder;
    _pieces says how the text is split.
    """
    write_lines(_pieces(doc, "\n"), write)
