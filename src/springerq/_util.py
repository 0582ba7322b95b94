"""Small shared helpers, and the streaming writers write_json, write_tsv and write_pretty.

write_json writes what json.dumps(doc, indent=2) writes, but for an int
outside the signed 64-bit range, written as its decimal string by _int_text
alone.  _pieces, the one walk over containers, hands each batch of up to
_ROWS_PER_BATCH rows of values of exact type str, int, bool or None to
_flat_text, which encodes it in one call of the stdlib's C encoder, and
writes everything else value by value (_scalar), in the same bytes.  Each
writer writes a Records with a table a block at a time (_rows_text), making
the text of each table entry and of each block's values once.
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


# The C encoder behind json.dumps, writing a flat list of scalars with NUL between their
# texts (ensure_ascii escapes a NUL in a string); None without the C accelerator.
_encode_flat = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _refuse, _encode_str, None, ": ", "\x00", False, False, False)
_FLAT_SCALARS = frozenset([str, int, bool, type(None)])
_SEQUENCES = frozenset([list, tuple])
# only an int text of 19 or more characters may lie outside the 64-bit range,
# so _flat_text applies _int_text only where one shows up
_LONG_TEXT = re.compile("\x00[-0-9]{19}")


def binom(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 for b < 0 or b > a."""
    return math.comb(a, b) if 0 <= b <= a else 0


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


def _cell(v) -> str:
    """Text of one tsv or pretty cell: None is empty, bools read true/false."""
    return "" if v is None else ("false", "true")[v] if isinstance(v, bool) else str(v)


def _rows_text(firsts, kinds, ends) -> str:
    """The text of a block's rows, row i being firsts[i] then ends[kinds[i]]."""
    out = [None, None] * len(kinds)
    out[0::2] = firsts
    out[1::2] = map(ends.__getitem__, kinds)
    return "".join(out)


def write_tsv(table, write) -> None:
    """Write the Records table through write_lines as tab-separated lines."""
    def line(cells):
        return "".join("\t" + _cell(v) for v in cells)
    if table.table is None:
        lines = ("\t".join(map(_cell, r)) + "\n" for r in table.rows)
    else:
        tails = [line(e) + "\n" for e in table.table]
        lines = (_rows_text(labels, kinds, list(map(line(values).__add__, tails)))
                 for labels, values, kinds in table.rows)
    write_lines(itertools.chain(["\t".join(table.header) + "\n"], lines), write)


def write_pretty(table, write) -> None:
    """Write the Records table through write_lines in columns aligned by two
    spaces.  It holds every cell for the widths, or with a table every block."""
    def line(cells):
        return "".join("  " + v.ljust(w) for v, w in zip(cells, widths)).rstrip()
    def block(labels, values, kinds):  # a row with only empty cells after its label is its label
        ends = [line(("", *values, *t))[2 + widths[0]:] + "\n" for t in tails]
        return _rows_text([label.ljust(widths[0]) if ends[k] != "\n" else label.rstrip()
                           for label, k in zip(labels, kinds)], kinds, ends)
    header = table.header
    if table.table is None:
        cells = [header, *(tuple(map(_cell, r)) for r in table.rows)]
        widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
        return write_lines((line(r)[2:] + "\n" for r in cells), write)
    blocks = [(labels, tuple(map(_cell, values)), kinds) for labels, values, kinds in table.rows]
    tails = [tuple(map(_cell, e)) for e in table.table]
    sizes = [(max(map(len, b[0])), *map(len, b[1])) for b in blocks] + [  # each used entry once
        (0,) * (len(header) - len(tails[k])) + tuple(map(len, tails[k]))
        for k in set().union(*(b[2] for b in blocks))]
    widths = list(map(max, itertools.zip_longest(map(len, header), *sizes, fillvalue=0)))
    write_lines(itertools.chain([line(header)[2:] + "\n"], itertools.starmap(block, blocks)), write)


def _int_text(v, text):
    """text, the decimal text of the int v, as a JSON string if v lies outside
    the signed 64-bit range [-2^63, 2^63), so every reader gets it exactly."""
    return text if -(2**63) <= v < 2**63 else f'"{text}"'


def _scalar(v):
    """json.dumps text of a str, int, bool or None, with an int written by
    _int_text; None for anything else."""
    if isinstance(v, str):
        return _encode_str(v)
    if v is None or type(v) is bool:
        return "null" if v is None else ("false", "true")[v]
    return _int_text(v, int.__repr__(v)) if isinstance(v, int) else None


class Records(Iterator):
    """A table as an iterator of dict(zip(header, row)), one per row, made as
    it is consumed.  write_json instead writes each row from one template of
    the header's keys, with no dict built and no key encoded again; so the
    header must not repeat a key.  It takes up to _ROWS_PER_BATCH rows of
    scalars before writing them, so a row must not be reused or changed
    after it is yielded.  With a table, a list of tuples of one width, rows
    are blocks (labels, values, kinds): a nonempty list of str, a tuple and
    an index into table per label (bytes or ints), standing for the rows
    (labels[i], *values, *table[kinds[i]]).
    """

    def __init__(self, header, rows, table=None):
        self.header, self.rows, self.table = list(header), iter(rows), table

    def __next__(self):
        if self.table is not None:  # from here on, the rows of the blocks
            table, self.table = self.table, None
            self.rows = ((label, *values, *table[k]) for labels, values, kinds in self.rows
                         for label, k in zip(labels, kinds))
        return dict(zip(self.header, next(self.rows)))


def _flat_text(batch, heads, opening, closing):
    """The rows of batch joined by ",", each as opening, each value after its
    head, with "," between the values, then closing; or None, for the
    per-value path, unless batch holds lists or tuples of len(heads) values
    of exact type str, int, bool or None and the C encoder is there."""
    flat = (_encode_flat is not None and heads and _SEQUENCES.issuperset(map(type, batch))
            and set(map(len, batch)) == {len(heads)} and list(itertools.chain.from_iterable(batch)))
    if not flat or not _FLAT_SCALARS.issuperset(map(type, flat)):
        return None
    text = "".join(_encode_flat(flat, 0))[1:-1]
    texts = text.split("\x00")
    if _LONG_TEXT.search("\x00" + text):
        texts = [_int_text(v, t) if len(t) > 18 and type(v) is int else t for t, v in zip(texts, flat)]
    out = [closing + "," + opening + heads[0], None, *(x for h in heads[1:] for x in ("," + h, None))]
    out *= len(batch)
    out[0] = opening + heads[0]
    out[1::2] = texts
    out.append(closing)
    return "".join(out)


def _fields(keys, values, indent) -> str:
    """The text of each value after its key, each after a ",", in an object at indent."""
    return "".join("," + k + (_scalar(v) or "".join(_pieces(v, indent + "  ")))
                   for k, v in zip(keys, values))


def _pieces(value, indent):
    """Yield the text of value, whose lines after the first start with indent
    (a newline and its spaces), in pieces; anything but a dict, list, tuple,
    iterator, Records, str, int, bool or None raises TypeError.

    A scalar is one piece.  A dict streams one item per piece.  An array (a
    list, tuple, iterator or Records) streams one batch per piece while its
    rows are lists or tuples of scalars that _flat_text takes, then one row
    per piece; a Records with a table, one block per piece.  Only an item
    that is itself an iterator is streamed, the same way.  Every other item,
    each value in a row of Records and each table entry is joined whole,
    which costs far less for the many small tables nested in rows.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        items, sep, closing = zip((f"{inner}{_encode_str(k)}: " for k in value), value.values()), "{", "}"
    elif type(value) is Records or type(value) in _SEQUENCES or isinstance(value, Iterator):
        sep, closing = "[", "]"
        if type(value) is Records:  # not isinstance: an ABC's check would slow every list
            keys, rows, edges = [f"{inner}  {_encode_str(k)}: " for k in value.header], value.rows, "{}"
            heads = keys
            if value.table is not None:  # one block per piece, each entry's text made once
                head = inner + "{" + keys[0]
                closings = [_fields(keys[len(keys) - len(e):], e, inner) + inner + "}," + head
                            for e in value.table]
                for labels, values, kinds in rows:  # each row's end opens the next, but the last
                    ends = list(map(_fields(keys[1:], values, inner).__add__, closings))
                    yield sep + head + _rows_text(map(_encode_str, labels), kinds, ends)[:-len(head) - 1]
                    sep = ","
                rows = ()
        else:
            keys, rows, edges = None, iter(value), "[]"
        for row in rows:
            batch = [row]
            if type(row) in _SEQUENCES and _FLAT_SCALARS.issuperset(map(type, row)):
                batch += itertools.islice(rows, _ROWS_PER_BATCH - 1)
                if keys is None:
                    heads = [inner + "  "] * len(row)
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
                text = _fields(keys, row, inner)
                yield f"{sep}{inner}{{{text[1:]}{inner}}}" if text else sep + inner + "{}"
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
    as objects or text, as with the stdlib's indenting encoder.
    """
    write_lines(_pieces(doc, "\n"), write)
