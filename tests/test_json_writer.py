"""The streaming JSON writer against json.dumps(..., indent=2).

The oracle is json.dumps after the writer's one rule: an int outside the
signed 64-bit range is written as its decimal string.
"""

import enum
import io
import json
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springerq import _util, cli
from springerq._util import _BATCH, _ROWS_PER_BATCH, Records, _pieces, write_json, write_lines

from test_cli import GOLDEN_CASES, run_cli

GOLDEN = Path(__file__).parent / "golden"


def written(doc) -> str:
    pieces = []
    write_json(doc, pieces.append)
    return "".join(pieces)


class _Table:
    """A drawn table that the writer is given as Records."""

    def __init__(self, header, rows):
        self.header, self.rows = header, rows

    def __repr__(self):
        return f"_Table({self.header!r}, {self.rows!r})"


def _held(value):
    """value as the writer renders it, for json.dumps: every drawn _Table
    turned into a list of objects, every iterator into a list, and every int
    outside the signed 64-bit range into its decimal string."""
    if isinstance(value, _Table):
        return [_held(dict(zip(value.header, row))) for row in value.rows]
    if isinstance(value, dict):
        return {k: _held(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, Iterator)):
        return [_held(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool) and not -(2**63) <= value < 2**63:
        return str(value)
    return value


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_writer_matches_json_dumps_on_golden_documents(name):
    text = (GOLDEN / name).read_text()
    doc = json.loads(text)
    assert written(doc) == json.dumps(doc, indent=2) == text[:-1]


SMALL_ARGVS = [
    [cmd, "--n", str(n)] for cmd in ("orbits", "stalks", "euler", "ft-table") for n in (1, 2, 4)
] + [
    ["fano", "--n", "4", "--i", str(i)] for i in (1, 2, 4)
] + [
    ["kostka", "--shape", "3,2,1", "--weight", "2,2,1,1"],
    ["verify", "--n-max", "3"],
]


@pytest.mark.parametrize("argv", SMALL_ARGVS, ids=" ".join)
def test_each_command_writes_what_json_dumps_writes(monkeypatch, argv):
    code, out = run_cli(argv + ["--format", "json"])
    monkeypatch.setattr(cli, "write_json",
                        lambda doc, write: write(json.dumps(_held(doc), indent=2)))
    assert (code, out) == run_cli(argv + ["--format", "json"])


def test_writer_handles_every_container_shape():
    for doc in ({}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], {"a": [{"b": []}, {}]},
                [[[1]]], {"": ""}, {"%s": "%d", "%": 1}, {"%%": {"%": []}}, [{"a": 1}, {"b": 2}, {"a": 3}],
                0, -1, True, False, None, "x"):
        assert written(doc) == json.dumps(doc, indent=2), doc


def test_ints_outside_64_bits_are_written_as_decimal_strings():
    inside = [0, 2**63 - 1, -(2**63)]
    outside = [2**63, -(2**63) - 1, 3**300, -(7**99)]
    assert written(inside + outside) == json.dumps(inside + [str(v) for v in outside], indent=2)
    assert written({"a": 2**64, "b": [True, 2**64]}) == json.dumps(
        {"a": "18446744073709551616", "b": [True, "18446744073709551616"]}, indent=2)


def test_iterators_are_written_as_arrays_as_they_are_consumed():
    doc = {"rows": (dict(a=k, b=[k] * k) for k in range(3)), "empty": iter(())}
    assert written(doc) == json.dumps(
        {"rows": [dict(a=k, b=[k] * k) for k in range(3)], "empty": []}, indent=2)


def check_batches(lines):
    """write_lines(lines) writes the exact text in writes of at least _BATCH
    characters but the last, each ending where a line ends and made as soon
    as _BATCH characters are pending."""
    writes = []
    write_lines(iter(lines), writes.append)
    assert "".join(writes) == "".join(lines)
    assert all(len(w) >= _BATCH for w in writes[:-1])
    k = 0
    for w in writes:
        assert w  # no empty write
        size = 0
        while size < len(w):
            last, size, k = size, size + len(lines[k]), k + 1
        assert size == len(w), "a line was split"
        assert last < _BATCH, "a write came late"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2 * _BATCH), max_size=40))
def test_write_lines_writes_whole_lines_in_batches_of_at_least_BATCH(lengths):
    check_batches([chr(ord("a") + k % 26) * length for k, length in enumerate(lengths)])


def test_write_lines_counts_characters_not_lines():
    check_batches(["abc\n"] * 100_000 + ["x" * (3 * _BATCH)] + ["\n"] * 10)


def test_pieces_hold_at_most_one_item_of_an_iterator():
    marks = [f"<{k}>" for k in range(12)]

    def doc(live):
        it = iter if live else list
        return {"rows": it([{"m": marks[0]}, [marks[1]], marks[2]]),
                "nested": it([it([marks[3], marks[4]]), it([]), marks[5]]),
                "t": it(it([marks[k], [marks[k + 1]]]) for k in (6, 8, 10))}

    pieces = list(_pieces(doc(True), "\n"))
    assert all(sum(m in piece for m in marks) <= 1 for piece in pieces)
    assert "".join(pieces) == json.dumps(doc(False), indent=2)


def test_a_long_table_is_written_in_batches():
    rows = [{"k": k, "s": str(k)} for k in range(20000)]
    expected = json.dumps({"rows": rows}, indent=2)
    chunks = []

    def write(text):
        chunks.append(text)
        assert len(chunks) < 100, "a piece was written twice"

    write_json({"rows": iter(rows)}, write)
    assert len(chunks) > 1
    assert "".join(chunks) == expected


RECORD_CASES = {
    "no rows": (["a", "b"], []),
    "empty header": ([], [(), (1,), (1, 2)]),
    "short and long rows": (["a", "b"], [(), (1,), (1, 2, 3)]),
    "scalars": (["none", "t", "f", "big", "small"],
                [(None, True, False, 2**64, -(2**63)), (None, False, True, -(3**99), 2**63 - 1)]),
    "containers": (["list", "dict", "tuple"],
                   [([1, [2, []]], {"x": {"y": [None]}, "": {}}, (2**70, "s")), ([], {}, ())]),
    "nested records": (["k", "terms"], [(1, _Table(["j", "mult"], [(0, 2**65), (1, None)])),
                                        (2, _Table(["j", "mult"], [])),
                                        (3, _Table([], [(), ()]))]),
}


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_records_are_written_as_their_objects(case):
    table = _Table(*RECORD_CASES[case])
    assert written(_live(table)) == json.dumps(_held(table), indent=2)
    # inside a dict, an iterator, a list and a tuple, each streamed or joined whole
    for wrap in (lambda t: {"rows": t, "n": 1}, lambda t: [t, 1], lambda t: (1, t),
                 lambda t: {"a": [{"rows": t}]}, lambda t: _Iter([t])):
        assert written(_live(wrap(table))) == json.dumps(_held(wrap(table)), indent=2), case


def test_records_iterate_as_header_value_objects():
    rows = [(1, "a", None), (2,), ()]
    assert list(Records(["k", "s", "x"], rows)) == [dict(zip(["k", "s", "x"], r)) for r in rows]
    assert list(Records([], rows)) == [{}, {}, {}]


@pytest.mark.parametrize("value", [1.5, float("nan"), object(), {1: "int key"}, b"bytes"])
def test_writer_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        written({"x": [value]})


def test_stdout_text_stream_takes_the_pieces():
    buf = io.StringIO()
    write_json({"a": ["é", "\x00 "]}, buf.write)
    assert buf.getvalue() == json.dumps({"a": ["é", "\x00 "]}, indent=2)


SCALARS = (
    st.none()
    | st.booleans()
    | st.sampled_from([True, False, 1, 0, -1])
    | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**63) + 2)
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x20))
)


class _Iter(list):
    """A drawn array that the writer is given as an iterator."""


def _live(value):
    """The writer's copy of a drawn document: every _Iter becomes a fresh
    iterator whose items are built as it is consumed, and every _Table a
    Records whose rows are."""
    if isinstance(value, _Table):
        return Records(value.header, (tuple(map(_live, row)) for row in value.rows))
    if isinstance(value, dict):
        return {k: _live(v) for k, v in value.items()}
    if isinstance(value, _Iter):
        return (_live(v) for v in value)
    if isinstance(value, (list, tuple)):
        return type(value)(map(_live, value))
    return value


# iterators and Records at any depth: inside dicts, lists, tuples, iterators
# and the rows of Records
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(inner, max_size=6).map(_Iter)
    | st.builds(_Table, st.lists(st.text(max_size=3), unique=True, max_size=4),
                st.lists(st.lists(inner, max_size=5), max_size=4))
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=6),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(DOCS)
def test_writer_matches_json_dumps_on_generated_documents(doc):
    assert written(_live(doc)) == json.dumps(_held(doc), indent=2)


@settings(max_examples=60, deadline=None)
@given(st.lists(DOCS, max_size=8))
def test_writer_matches_json_dumps_on_generated_iterators(items):
    doc = {"rows": _Iter(items), "table": _Iter([_Iter(items), _Iter(items[1:])])}
    assert written(_live(doc)) == json.dumps(_held(doc), indent=2)


# -- the batched path: tables of scalars across batch boundaries --------------

B = _ROWS_PER_BATCH
TABLE_SIZES = [B - 1, B, B + 1, 3 * B + 7]
EDGE_INTS = [-(2**63) - 1, -(2**63), 2**63 - 1, 2**63,  # the 64-bit bounds
             10**18, -(10**18), 9 * 10**18, -(9 * 10**18) - 7]  # 19 and 20 characters inside
EDGE_STRS = ["\x00", "a\x00b", '"', '\\"', "[", "]", ",", "\x00,[", "9" * 40, "-" + "1" * 25,
             "", "é\u2028"]


class Colour(enum.IntEnum):
    RED = 7


class Label(str):
    pass


def edge_rows(size, width):
    """size rows of width scalars, an edge int and an edge string in the first
    and last row of every batch, and plain values elsewhere."""
    rows = []
    for r in range(size):
        if r % B in (0, B - 1) or r == size - 1:
            k = r // B + (r % B != 0)
            row = [EDGE_INTS[(k + c) % len(EDGE_INTS)] if c % 2 == 0 else
                   EDGE_STRS[(k + c) % len(EDGE_STRS)] for c in range(width)]
        else:
            row = [r, str(r), None, True, False, -r, "x" * (r % 30)][:width]
        rows.append(row)
    return rows


@pytest.mark.parametrize("size", TABLE_SIZES)
@pytest.mark.parametrize("width", [1, 2, 7])
def test_records_across_batches_match_json_dumps(size, width):
    header = [f"k{c}" for c in range(width)]
    rows = edge_rows(size, width)
    expected = json.dumps(_held({"rows": _Table(header, rows)}), indent=2)
    assert written({"rows": Records(header, map(tuple, rows))}) == expected
    assert written({"rows": [Records(header, rows)]}) == json.dumps(
        _held({"rows": [_Table(header, rows)]}), indent=2)


@pytest.mark.parametrize("size", TABLE_SIZES)
@pytest.mark.parametrize("width", [1, 2, 7])
def test_arrays_of_equal_width_arrays_across_batches_match_json_dumps(size, width):
    rows = edge_rows(size, width)
    expected = json.dumps(_held({"pairs": [rows, rows]}), indent=2)
    assert written({"pairs": [rows, [tuple(r) for r in rows]]}) == expected
    assert written({"pairs": iter([rows, iter(rows)])}) == expected


def test_arrays_of_unequal_or_mixed_items_match_json_dumps():
    for rows in ([[1, 2]] * B + [[3]] + [[4, 5]] * B,
                 [[1, 2]] * (B + 1) + [5, "x", None],
                 [[1, [2]]] * (B + 3),
                 [(1, {"a": 2})] * 3 + [[1, 2]] * (2 * B),
                 [[]] * (B + 1) + [[1]] * B):
        assert written({"a": rows}) == json.dumps(_held({"a": rows}), indent=2)


@pytest.mark.parametrize("bad", [1.5, float("nan"), object()])
def test_a_bad_value_in_a_later_batch_still_raises_type_error(bad):
    rows = [(k, str(k)) for k in range(2 * B + 5)]
    rows[B + 3] = (bad, "x")
    with pytest.raises(TypeError):
        written({"rows": Records(["a", "b"], rows)})
    with pytest.raises(TypeError):
        written({"pairs": [list(r) for r in rows]})


def test_int_and_str_subclasses_are_written_as_before():
    header = ["c", "l", "k", "s"]
    rows = [(Colour.RED, Label("lab\x00el"), k, "s") for k in range(B + 2)]
    rows[-1] = (B, "s", Colour.RED, Label("9" * 20))
    text = written({"rows": Records(header, rows)})
    assert text == json.dumps({"rows": [dict(zip(header, r)) for r in rows]}, indent=2)
    assert '"c": 7,' in text
    assert written({"pairs": rows}) == json.dumps({"pairs": rows}, indent=2)


def test_tables_of_scalars_go_to_the_c_encoder_a_batch_at_a_time(monkeypatch):
    sizes = []
    encode = _util._encode_flat
    monkeypatch.setattr(_util, "_encode_flat",
                        lambda flat, level: sizes.append(len(flat)) or encode(flat, level))
    rows = edge_rows(3 * B + 7, 2)
    written({"rows": Records(["a", "b"], rows), "pairs": rows, "short": rows[:3]})
    assert sizes == [2 * B] * 3 + [14] + [2 * B] * 3 + [14] + [6]  # a short table is one batch


def test_rows_that_hold_tables_are_consumed_one_at_a_time():
    drawn = []

    def rows():
        for k in range(3 * B):
            drawn.append(k)
            yield (k, Records(["j"], [(k,)]))

    for count, piece in enumerate(_pieces(Records(["k", "t"], rows()), "\n")):
        assert len(drawn) <= count + 1, "rows were gathered into a batch"
    assert len(drawn) == 3 * B


@pytest.mark.parametrize("size", TABLE_SIZES)
def test_without_the_c_encoder_the_same_bytes_are_written(monkeypatch, size):
    def doc():
        return {"rows": Records(["a", "b", "c"], map(tuple, edge_rows(size, 3))),
                "pairs": edge_rows(size, 2)}

    batched = written(doc())
    monkeypatch.setattr(_util, "_encode_flat", None)
    assert written(doc()) == batched == json.dumps(
        _held({"rows": _Table(["a", "b", "c"], edge_rows(size, 3)),
               "pairs": edge_rows(size, 2)}), indent=2)


TABLE = [(True, None, "x"), (False, 2**70, "\x00,["), (None, -(2**63), [1, {"a": 2**64}]),
         (1, "é\u2028", {})]


@pytest.mark.parametrize("size", TABLE_SIZES)
@pytest.mark.parametrize("width", [0, 1, 3])
def test_records_with_a_table_are_written_as_their_expanded_rows(monkeypatch, size, width):
    # size blocks of 1 to 5 rows, each with a row of edge values and edge-string labels
    header = [f"k{c}" for c in range(width + 4)]
    blocks, r = [], 0
    for b, values in enumerate(edge_rows(size, width)):
        rows = range(r, r + b % 5 + 1)
        blocks.append(([EDGE_STRS[i % len(EDGE_STRS)] for i in rows], tuple(values),
                       bytes(i % len(TABLE) for i in rows)))
        r = rows.stop
    expanded = [(label, *values, *TABLE[k]) for labels, values, kinds in blocks
                for label, k in zip(labels, kinds)]
    assert list(Records(header, blocks, TABLE)) == [dict(zip(header, r)) for r in expanded]
    expected = json.dumps(_held({"rows": _Table(header, expanded)}), indent=2)
    assert written({"rows": Records(header, blocks, TABLE)}) == expected
    assert written([Records(header, iter(blocks), TABLE)]) == json.dumps(
        _held([_Table(header, expanded)]), indent=2)
    monkeypatch.setattr(_util, "_encode_flat", None)
    assert written({"rows": Records(header, blocks, TABLE)}) == expected


@pytest.mark.parametrize("argv", [["orbits", "--n", "5"], ["stalks", "--n", "6"],
                                  ["fano", "--n", "8", "--i", "4"], ["euler", "--n", "20"]],
                         ids=" ".join)
def test_each_command_writes_the_same_bytes_without_the_c_encoder(monkeypatch, argv):
    batched = run_cli(argv + ["--format", "json"])
    monkeypatch.setattr(_util, "_encode_flat", None)
    assert run_cli(argv + ["--format", "json"]) == batched
