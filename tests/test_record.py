"""The nine immutable records against frozen dataclasses of the same fields.

Each oracle is a frozen dataclass made here with the record's class name and
the fields, in order, with the defaults that the records had as dataclasses.
A record and the oracle built from its field values must agree on repr, ==
and hash; both must build from the same arguments and refuse the same bad
ones.  Every public value, these records, Partition and LaurentPoly, must
copy and pickle to an equal value and refuse assignment and deletion.
"""

import copy
import dataclasses
import itertools
import pickle
from types import MappingProxyType

import pytest

from springerq.fano import FanoCohomology, FanoRow, fano_multiplicities
from springerq.ic_engine import MultiplicityTable, StalkTable, solve_stalk_tables
from springerq.partitions import (
    BranchMove,
    FourierTableRow,
    OrbitLabel,
    Partition,
    SupportInfo,
    branch_moves,
    ft_table,
)
from springerq.qseries import LaurentPoly, ONE, ZERO, gaussian_binomial
from springerq.springer_typec import Bipartition, springer_label

P = Partition

FIELDS = {
    OrbitLabel: ["rank", "partition"],
    BranchMove: ["target", "case_tag", "codim_delta"],
    StalkTable: ["rank", "f"],
    MultiplicityTable: ["rank", "entries"],
    FourierTableRow: ["i", "orbit", "trivial_target_dim", "nontrivial_target_dim",
                      ("trivial_monodromy", str, dataclasses.field(default="finite-tits")),
                      ("nontrivial_monodromy", object, dataclasses.field(default=None))],
    SupportInfo: ["flag", ("support_name", object, dataclasses.field(default=None)),
                  ("general_template", bool, dataclasses.field(default=False))],
    FanoRow: ["k", "terms", "betti"],
    FanoCohomology: ["rank", "planes_index", "complex_dim", "rows", "l_dims"],
    Bipartition: ["alpha", "beta"],
}
ORACLES = {cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
           for cls, fields in FIELDS.items()}


def names(cls):
    return [f if isinstance(f, str) else f[0] for f in FIELDS[cls]]


def oracle_of(record):
    cls = type(record)
    return ORACLES[cls](**{name: getattr(record, name) for name in names(cls)})


def samples():
    """Records of each class, built twice, so that equal records are distinct objects."""
    solved = [solve_stalk_tables(n) for n in (1, 2, 3)]  # memoized: copied below
    return {
        OrbitLabel: [OrbitLabel(2, P((2, 2, 1))), OrbitLabel(2, P((3, 1, 1))), OrbitLabel(0, P((1,)))],
        BranchMove: branch_moves(P((3, 2, 2))) + branch_moves(P((2, 1))),
        StalkTable: [StalkTable(t.rank, tuple(t.f)) for t, _ in solved],
        MultiplicityTable: [MultiplicityTable(t.rank, dict(t.entries)) for _, t in solved],
        FourierTableRow: list(ft_table(3)),
        SupportInfo: [SupportInfo("full", "g_1"), SupportInfo("proper", "g_1^0"),
                      SupportInfo("proper", "g_1^1", True), SupportInfo("unknown")],
        FanoRow: list(fano_multiplicities(4, 2).rows[:5]),
        FanoCohomology: [fano_multiplicities(3, 2), fano_multiplicities(4, 2)],
        Bipartition: [springer_label(3, i) for i in range(4)] + [springer_label(3, 2, "nontrivial")],
    }


def all_samples():
    return [r for records in samples().values() for r in records]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_repr_eq_and_hash_match_the_dataclass(cls):
    records, again = samples()[cls], samples()[cls]
    for a, b in itertools.product(records + again, repeat=2):
        assert (a == b) == (oracle_of(a) == oracle_of(b))
        assert (a != b) == (oracle_of(a) != oracle_of(b))
    for a, b in zip(records, again):
        assert a == b and a is not b
        assert repr(a) == repr(oracle_of(a))
        if cls is MultiplicityTable:  # entries is a mapping: neither can be hashed
            for x in (a, oracle_of(a)):
                with pytest.raises(TypeError):
                    hash(x)
        else:
            assert hash(a) == hash(b) == hash(oracle_of(a))
    assert cls.__match_args__ == ORACLES[cls].__match_args__


def test_records_of_different_classes_never_compare_equal():
    records = all_samples()
    for a, b in itertools.product(records, repeat=2):
        if type(a) is not type(b):
            assert a != b and not a == b
            assert oracle_of(a) != oracle_of(b)
    for r in records:
        values = tuple(getattr(r, name) for name in names(type(r)))
        assert r != oracle_of(r) and r != values
    same_fields = [SupportInfo("full"), FanoRow("full", None, False), BranchMove("full", None, False)]
    for a, b in itertools.permutations(same_fields, 2):
        assert a != b and not a == b and oracle_of(a) != oracle_of(b)


# the public values beside the nine records that have dataclass oracles
VALUES = {
    Partition: [P(), P((3, 2, 2)), P.parse("5,1,1")],
    LaurentPoly: [ZERO, ONE, gaussian_binomial(2, 4), LaurentPoly({-3: 2, 1: -1})],
}


@pytest.mark.parametrize("cls", [*VALUES, *FIELDS], ids=lambda c: c.__name__)
def test_every_public_value_copies_pickles_and_refuses_changes(cls):
    for value in VALUES.get(cls) or samples()[cls]:
        for clone in copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)):
            assert type(clone) is cls and clone == value and repr(clone) == repr(value)
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
    # memoized values are shared: a refused del leaves the cache whole
    assert gaussian_binomial(2, 4).to_pairs() == [(0, 1), (1, 1), (2, 2), (3, 1), (4, 1)]


# (args, kwargs) that each call builds, or fails to build, both ways
CALLS = {
    FourierTableRow: [
        ((0, OrbitLabel(1, P((1, 1, 1))), 1, None), {}),
        ((), dict(i=1, orbit=OrbitLabel(1, P((2, 1))), trivial_target_dim=3,
                  nontrivial_target_dim=2, nontrivial_monodromy="infinite-braid")),
        ((1, OrbitLabel(1, P((2, 1))), 3), dict(nontrivial_target_dim=2)),
        ((1, OrbitLabel(1, P((2, 1))), 3, 2, "x", "y"), {}),
        ((1, OrbitLabel(1, P((2, 1))), 3, 2), dict(trivial_monodromy="x")),
    ],
    SupportInfo: [
        (("full",), {}),
        ((), dict(flag="proper")),
        (("proper",), dict(general_template=True)),
        (("proper", "g_1^2"), dict(general_template=True)),
        ((), dict(general_template=True, support_name="g_1^0", flag="proper")),
    ],
}
BAD_CALLS = {
    FourierTableRow: [
        ((0, OrbitLabel(1, P((1, 1, 1))), 1), {}),  # a required field missing
        ((0, OrbitLabel(1, P((1, 1, 1))), 1, None), dict(monodromy="x")),  # unknown field
        ((0, OrbitLabel(1, P((1, 1, 1))), 1, None, "a", "b", "c"), {}),  # too many
        ((0, OrbitLabel(1, P((1, 1, 1))), 1, None), dict(i=0)),  # given twice
    ],
    SupportInfo: [
        ((), {}),
        ((), dict(support_name="g_1")),
        (("full",), dict(name="g_1")),
        (("full", None, False, 0), {}),
        (("full",), dict(flag="full")),
    ],
    FanoRow: [((0, ()), {}), ((0, (), 1, 2), {}), ((0, ()), dict(betti=1, degree=0))],
    OrbitLabel: [((1,), {}), ((), dict(rank=1, partition=P((3,)), n=1))],
    Bipartition: [((P(),), {}), ((P(), P()), dict(beta=P()))],
}


@pytest.mark.parametrize("cls", CALLS, ids=lambda c: c.__name__)
def test_keyword_and_default_construction_match_the_dataclass(cls):
    for args, kwargs in CALLS[cls]:
        record, oracle = cls(*args, **kwargs), ORACLES[cls](*args, **kwargs)
        assert repr(record) == repr(oracle) and hash(record) == hash(oracle)
        assert oracle_of(record) == oracle


@pytest.mark.parametrize("cls", BAD_CALLS, ids=lambda c: c.__name__)
def test_a_missing_unknown_or_repeated_field_is_a_type_error(cls):
    for args, kwargs in BAD_CALLS[cls]:
        with pytest.raises(TypeError):
            ORACLES[cls](*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_fields_can_be_neither_assigned_nor_deleted():
    for r in all_samples():
        before = repr(r)
        for name in names(type(r)) + ["other"]:
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
            with pytest.raises(AttributeError):
                delattr(r, name)
            with pytest.raises(AttributeError):  # the dataclass refuses alike
                setattr(oracle_of(r), name, 0)
        assert repr(r) == before


def test_stalk_table_checks_its_polynomials():
    f = solve_stalk_tables(2)[0].f
    with pytest.raises(ValueError, match="exactly rank\\+1"):
        StalkTable(3, f)
    with pytest.raises(ValueError, match="f_0 must be 1"):
        StalkTable(2, (ONE.shift(-1),) + f[1:])
    with pytest.raises(ValueError, match="f_2 must be supported in negative exponents"):
        StalkTable(2, f[:2] + (ONE,))
    with pytest.raises(ValueError, match="f_1 must be supported"):
        StalkTable(2, (ONE, LaurentPoly(), f[2]))


def test_multiplicity_table_checks_its_polynomials():
    entries = dict(solve_stalk_tables(2)[1].entries)
    with pytest.raises(ValueError, match="T\\^2_0 must be symmetric"):
        MultiplicityTable(2, {**entries, (2, 0): ONE.shift(1)})
    with pytest.raises(ValueError, match="T\\^2_1 must be symmetric"):
        MultiplicityTable(2, {**entries, (2, 1): -ONE})
    with pytest.raises(ValueError, match="T\\^2_2 must be 1"):
        MultiplicityTable(2, {**entries, (2, 2): ONE + ONE})


def test_orbit_label_checks_rank_and_weight():
    with pytest.raises(ValueError, match="rank must be nonnegative"):
        OrbitLabel(-1, P())
    with pytest.raises(ValueError, match="does not label an orbit for rank 2"):
        OrbitLabel(2, P((2, 2)))
    with pytest.raises(ValueError, match="does not label"):
        OrbitLabel(rank=1, partition=P((1, 1)))


def test_multiplicity_entries_stay_a_read_only_private_copy():
    source = dict(solve_stalk_tables(2)[1].entries)
    table = MultiplicityTable(2, source)
    assert type(table.entries) is MappingProxyType
    with pytest.raises(TypeError):
        table.entries[(1, 0)] = ONE
    source[(1, 0)] = ONE + ONE
    assert table.entries[(1, 0)] == solve_stalk_tables(2)[1].entries[(1, 0)]
    for clone in copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table)):
        assert type(clone.entries) is MappingProxyType and clone == table
    for solved in solve_stalk_tables(3)[1], solve_stalk_tables(3)[1]:
        assert type(solved.entries) is MappingProxyType
