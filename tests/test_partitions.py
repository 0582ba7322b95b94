"""Partition arithmetic and orbit combinatorics."""

import functools
import inspect
from collections import Counter
from operator import itemgetter

import pytest

from springerq.partitions import (
    BranchMove,
    OrbitLabel,
    Partition,
    ROW_REMOVAL,
    ROW_SPLIT,
    SupportInfo,
    branch_moves,
    closure_contains,
    conjugate,
    dim_centralizer,
    dominance_leq,
    ft_support_info,
    has_gaps,
    induced_orbit,
    is_relevant_full,
    is_relevant_parabolic,
    is_richardson,
    _classify,
    _orbit_rows,
    _runs_of,
    orbit_codim,
    orbit_dim,
    partitions_of,
    resolution_fiber_dim,
    richardson_label,
)

P = Partition


def all_partitions(weight):
    return list(partitions_of(weight))


def _recursive_partitions(n, max_part=None):
    """Independent oracle: partitions of n by recursion on the first part.

    Recursion depth grows with the number of parts, so keep n small.
    """

    def gen(rest, cap, prefix):
        if rest == 0:
            yield prefix
            return
        for p in range(min(cap, rest), 0, -1):
            yield from gen(rest - p, p, prefix + (p,))

    return list(gen(n, max_part if max_part is not None else n, ()))


@functools.lru_cache(maxsize=None)
def _recursive_fiber_dim(parts):
    """Independent oracle: D(p) = max over moves of (locus dim + D(target)), by recursion.

    Each distinct part value mu_i with cumulative count M_i gives a row removal
    (mu_i >= 2, locus dim M_i - 1) and a row split (multiplicity >= 2, locus
    dim M_i - 2).  Recursion depth grows with the weight, so keep it small.
    """
    if sum(parts) <= 1:
        return 0

    def resorted(remove, add):
        pool = list(parts)
        for x in remove:
            pool.remove(x)
        return tuple(sorted(pool + [x for x in add if x > 0], reverse=True))

    best = 0
    cum = 0
    for value, m in sorted(Counter(parts).items(), reverse=True):
        cum += m
        if value >= 2:
            best = max(best, cum - 1 + _recursive_fiber_dim(resorted((value,), (value - 2,))))
        if m >= 2:
            target = resorted((value, value), (value - 1, value - 1))
            best = max(best, cum - 2 + _recursive_fiber_dim(target))
    return best


# -- the Partition type -------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        P((1, 2))
    with pytest.raises(ValueError):
        P((2, 0))
    with pytest.raises(ValueError):
        P((2, -1))
    assert P().weight == 0
    assert P((3, 2, 2)).weight == 7


@pytest.mark.parametrize("parts", [(True,), (2, False), (2, True)])
def test_bool_parts_are_rejected(parts):
    # a bool is an int, but "2,True" would not parse back
    with pytest.raises(ValueError, match="positive integers"):
        P(parts)


def test_serialize_parse_round_trip():
    for w in range(9):
        for p in all_partitions(w):
            assert P.parse(p.serialize()) == p
    assert P.parse("") == P()
    with pytest.raises(ValueError):
        P.parse("1,2")
    with pytest.raises(ValueError):
        P.parse("2,x")


def test_partition_count_sanity():
    assert len(all_partitions(7)) == 15  # p(7)


def test_partitions_of_matches_recursive_oracle():
    # a generator function, so a bad weight raises on the first next()
    assert inspect.isgeneratorfunction(partitions_of)
    for n in range(21):
        for max_part in (None, -1, 0, 1, 2, 3, n, n + 3):
            got = [p.parts for p in partitions_of(n, max_part)]
            assert got == _recursive_partitions(n, max_part), (n, max_part)
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        next(partitions_of(-1))


def test_runs_are_well_formed_and_in_the_oracle_order():
    for n in range(31):
        every = _recursive_partitions(n)
        for cap in range(-1, n + 2):
            got = []
            for runs in _runs_of(n, cap):
                parts, above = [], n + 1
                for v, m in runs:  # values strictly descending, multiplicities >= 1
                    assert 0 < v < above and m >= 1, (n, cap, runs)
                    parts += [v] * m
                    above = v
                assert sum(parts) == n, (n, cap, runs)
                got.append(tuple(parts))
            assert got == [p for p in every if not p or p[0] <= cap], (n, cap)


def test_orbit_rows_match_the_partition_functions():
    # the rows come by codim, ties in partitions_of's order: a stable sort
    for n in range(16):
        expected = [(p.serialize(), orbit_dim(OrbitLabel(n, p)), dim_centralizer(p),
                     *_classify(p.parts)) for p in partitions_of(2 * n + 1)]
        count, rows = _orbit_rows(2 * n + 1)
        assert count == len(expected), n
        assert list(rows) == sorted(expected, key=itemgetter(2)), n


def test_partitions_of_a_long_column_needs_no_recursion():
    assert list(partitions_of(999, max_part=1)) == [P((1,) * 999)]


def test_enumerated_partitions_equal_validated_ones():
    for n in range(16):
        for p in partitions_of(n):
            validated = P(p.parts)
            assert p == validated and hash(p) == hash(validated)
            assert type(p) is Partition and type(p.parts) is tuple
            with pytest.raises(AttributeError):
                p._parts = ()
            with pytest.raises(AttributeError):
                setattr(p, "_parts", (n + 1,))
            assert p.parts == validated.parts


def test_orbit_label_validation():
    OrbitLabel(3, P((3, 2, 2)))
    with pytest.raises(ValueError):
        OrbitLabel(2, P((3, 2, 2)))


# -- conjugation and dominance --------------------------------------------------


def test_conjugate_examples():
    assert conjugate(P()) == P()
    assert conjugate(P((3, 2, 2))) == P((3, 3, 1))
    assert conjugate(P((2, 2, 1, 1, 1))) == P((5, 2))


def test_conjugate_involution_exhaustive():
    for w in range(31):
        for p in all_partitions(w):
            assert conjugate(conjugate(p)) == p


def test_dominance_examples():
    assert dominance_leq(P((2, 1)), P((3,)))
    assert dominance_leq(P((2, 2, 1, 1, 1)), P((2, 2, 2, 1)))
    assert not dominance_leq(P((3, 1, 1, 1, 1)), P((2, 2, 2, 1)))
    with pytest.raises(ValueError, match="incomparable weights"):
        dominance_leq(P((2, 1)), P((2, 2)))


def test_dominance_reverses_under_conjugation():
    for w in range(11):
        parts = all_partitions(w)
        for a in parts:
            for b in parts:
                assert dominance_leq(a, b) == dominance_leq(conjugate(b), conjugate(a))


def test_closure_contains():
    assert closure_contains(OrbitLabel(3, P((2, 2, 1, 1, 1))), OrbitLabel(3, P((2, 1, 1, 1, 1, 1))))
    assert not closure_contains(OrbitLabel(3, P((2, 1, 1, 1, 1, 1))), OrbitLabel(3, P((2, 2, 1, 1, 1))))
    assert closure_contains(OrbitLabel(3, P((3, 2, 2))), OrbitLabel(3, P((2, 2, 2, 1))))
    with pytest.raises(ValueError, match="rank mismatch"):
        closure_contains(OrbitLabel(3, P((3, 2, 2))), OrbitLabel(2, P((5,))))


# -- dimensions ---------------------------------------------------------------


def test_dim_centralizer_examples():
    assert dim_centralizer(P((3,))) == 0
    assert dim_centralizer(P((2, 1))) == 1
    assert dim_centralizer(P((2, 2, 1, 1, 1))) == 11


def test_orbit_dim_examples():
    assert orbit_dim(OrbitLabel(1, P((2, 1)))) == 2
    assert orbit_dim(OrbitLabel(3, P((2, 2, 1, 1, 1)))) == 10
    assert orbit_dim(OrbitLabel(1, P((1, 1, 1)))) == 0
    # regular orbit fills the cone; N=3 dims are 3, 2, 0
    assert [orbit_dim(OrbitLabel(1, p)) for p in all_partitions(3)] == [3, 2, 0]


def test_order_two_orbit_dim_formula():
    for n in range(1, 7):
        for i in range(n + 1):
            p = P((2,) * i + (1,) * (2 * n + 1 - 2 * i))
            assert orbit_dim(OrbitLabel(n, p)) == i * (2 * n + 1 - i)


def test_orbit_dim_strictly_monotone_in_closure_order():
    for n in range(1, 6):
        parts = all_partitions(2 * n + 1)
        for a in parts:
            for b in parts:
                if a != b and dominance_leq(a, b):
                    assert dim_centralizer(a) > dim_centralizer(b)


# -- gaps and induction ---------------------------------------------------------


def test_has_gaps_examples():
    assert not has_gaps(P((2, 1)))
    assert has_gaps(P((3, 2, 2)))
    assert not has_gaps(P((1, 1, 1)))


def test_induced_orbit_examples():
    assert induced_orbit([P((1,))], P((1,))) == P((3,))
    assert induced_orbit([P((1, 1))], P((1, 1, 1))) == P((3, 3, 1))
    assert induced_orbit([], P((2, 1))) == P((2, 1))


def induction_witness(lam):
    """Search for lam = core + 2p with p a nonzero partition, core a partition."""
    s = len(lam)
    for k in range(1, lam.weight // 2 + 1):
        for p in partitions_of(k):
            if len(p) > s:
                continue
            rows = [lam.part(t) - 2 * p.part(t) for t in range(1, s + 1)]
            if all(x >= 0 for x in rows) and all(
                rows[a] >= rows[a + 1] for a in range(s - 1)
            ):
                core = P(tuple(x for x in rows if x))
                assert induced_orbit([p], core) == lam
                return p, core
    return None


def test_gaps_iff_induced_exhaustive():
    for n in range(1, 7):
        for lam in all_partitions(2 * n + 1):
            assert has_gaps(lam) == (induction_witness(lam) is not None), lam


# -- template predicates --------------------------------------------------------
#
# Independent oracle: enumerate every label the template can produce and test
# set membership.  A template with `odd_slots` leading odd entries built from a
# weakly decreasing sequence mu (sum fixed by the weight) yields the label
# (2 mu_1 + 1, ..., 2 mu_os + 1, 2 mu_{os+1}, ...) with zero entries dropped.


def template_labels(weight, odd_slots):
    total = (weight - odd_slots) // 2
    labels = set()
    width = odd_slots + total  # positive even entries never exceed `total`
    for mu in partitions_of(total):
        if len(mu) > width:
            continue
        seq = list(mu.parts) + [0] * (width - len(mu))
        lam = [2 * seq[t] + 1 for t in range(odd_slots)]
        lam += [2 * seq[t] for t in range(odd_slots, width) if seq[t]]
        if all(lam[a] >= lam[a + 1] for a in range(len(lam) - 1)):
            labels.add(tuple(lam))
    return labels


def test_is_relevant_full():
    assert is_relevant_full(P((3, 2, 2)))
    assert not is_relevant_full(P((2, 2, 1, 1, 1)))
    assert is_relevant_full(P((5,)))
    assert not is_relevant_full(P((4, 2, 1)))  # single odd part but not largest
    with pytest.raises(ValueError):
        is_relevant_full(P((2, 2)))


def test_is_relevant_full_against_template_oracle():
    for n in range(1, 6):
        labels = template_labels(2 * n + 1, 1)
        for lam in all_partitions(2 * n + 1):
            assert is_relevant_full(lam) == (lam.parts in labels), lam


def test_is_relevant_parabolic():
    # weight 5 forces n=2; i=1 needs three leading odd parts
    assert is_relevant_parabolic(P((3, 1, 1)), 1)
    assert not is_relevant_parabolic(P((5,)), 1)
    assert not is_relevant_parabolic(P((2, 1, 1, 1)), 1)  # odd block below the even part
    # weight 7 forces n=3: (3,1,1,1,1) is the orbit the i=1 parabolic map resolves
    assert is_relevant_parabolic(P((3, 1, 1, 1, 1)), 1)
    with pytest.raises(ValueError):
        is_relevant_parabolic(P((3, 1, 1)), 2)  # i must be <= n-1
    with pytest.raises(ValueError):
        is_relevant_parabolic(P((3, 1, 1)), 0)


def test_is_relevant_parabolic_against_template_oracle():
    for n in range(2, 6):
        for i in range(1, n):
            labels = template_labels(2 * n + 1, 2 * n - 2 * i + 1)
            for lam in all_partitions(2 * n + 1):
                assert is_relevant_parabolic(lam, i) == (lam.parts in labels), (n, i, lam)


def test_is_richardson():
    assert is_richardson(P((3, 2, 2)))
    assert not is_richardson(P((4, 3)))
    assert is_richardson(P((1, 1, 1)))
    assert not is_richardson(P((2, 1)))


def test_is_richardson_against_template_oracle():
    for n in range(1, 6):
        weight = 2 * n + 1
        labels = set()
        for odd_slots in range(1, weight + 1, 2):
            labels |= template_labels(weight, odd_slots)
        for lam in all_partitions(weight):
            assert is_richardson(lam) == (lam.parts in labels), lam


def _support_oracle(p):
    """The trivial-system support of ft_support_info, from the definitions: gaps
    by consecutive differences, Richardson by every odd part exceeding every even one."""
    parts = p.parts
    odds = [x for x in parts if x % 2]
    evens = [x for x in parts if x % 2 == 0]
    richardson = not (odds and evens and min(odds) < max(evens))
    gaps = any(a - b >= 2 for a, b in zip(parts, parts[1:] + (0,)))
    if all(x <= 2 for x in parts):
        info = SupportInfo("full", "g_1")
    elif richardson and len(odds) == 1:
        info = SupportInfo("proper", "g_1^0")
    elif richardson:
        info = SupportInfo("proper", f"g_1^{(p.weight - len(odds)) // 2}", general_template=True)
    else:
        info = SupportInfo("proper" if gaps else "unknown")
    return gaps, richardson, richardson and len(odds) == 1, info


def test_classify_matches_the_definitions():
    for weight in range(1, 26, 2):
        for p in partitions_of(weight):
            gaps, richardson, relevant, info = _support_oracle(p)
            assert _classify(p.parts) == (gaps, richardson, relevant,
                                          info.flag, info.support_name), p
            assert (has_gaps(p), is_richardson(p), is_relevant_full(p)) == (gaps, richardson, relevant)
            assert ft_support_info(OrbitLabel(weight // 2, p), "trivial") == info, p
    assert not has_gaps(P()) and has_gaps(P((2, 2))) and not has_gaps(P((2, 1, 1)))


def test_richardson_label():
    assert richardson_label(P((3, 2, 2))) == P((3,))
    assert richardson_label(P((5,))) == P((1, 1))
    assert richardson_label(P((1, 1, 1))) == P()
    with pytest.raises(ValueError):
        richardson_label(P((4, 3)))


def test_richardson_label_inverts_the_template():
    # conjugating back recovers the witness mu: odd block first, then even block
    for n in range(1, 7):
        for lam in all_partitions(2 * n + 1):
            if not is_richardson(lam):
                continue
            mu = conjugate(richardson_label(lam)).parts
            odds = sorted((x for x in lam.parts if x % 2), reverse=True)
            evens = sorted((x for x in lam.parts if x % 2 == 0), reverse=True)
            mu_full = [(x - 1) // 2 for x in odds] + [x // 2 for x in evens]
            assert list(mu) == [x for x in mu_full if x]


# -- branching ------------------------------------------------------------------


def test_branch_moves_examples():
    assert branch_moves(P((2, 1))) == [BranchMove(P((1,)), ROW_REMOVAL, 1)]
    # two 1-rows disappearing is the degenerate row split
    assert branch_moves(P((1, 1, 1))) == [BranchMove(P((1,)), ROW_SPLIT, 3)]
    assert branch_moves(P((3, 2, 2))) == [
        BranchMove(P((2, 2, 1)), ROW_REMOVAL, 2),
        BranchMove(P((3, 2)), ROW_REMOVAL, 4),
        BranchMove(P((3, 1, 1)), ROW_SPLIT, 3),
    ]


def test_branch_moves_weight_and_delta():
    for w in range(3, 14, 2):
        for lam in all_partitions(w):
            for move in branch_moves(lam):
                assert move.target.weight == w - 2
                assert move.codim_delta == orbit_codim(lam) - orbit_codim(move.target)
                assert move.codim_delta >= 0


def test_branch_moves_rejects_weight_below_three():
    with pytest.raises(ValueError):
        branch_moves(P((1,)))


# -- semismallness ledger --------------------------------------------------------


def test_fiber_dim_spot_values():
    # N=3: fibers over the three orbits are 1-, 0- and 0-dimensional
    assert resolution_fiber_dim(P((1, 1, 1))) == 1
    assert resolution_fiber_dim(P((2, 1))) == 0
    assert resolution_fiber_dim(P((3,))) == 0


def test_fiber_dim_matches_recursive_oracle():
    for w in range(26):
        for lam in all_partitions(w):
            assert resolution_fiber_dim(lam) == _recursive_fiber_dim(lam.parts), lam


def test_fiber_dim_of_a_long_row_needs_no_recursion():
    assert resolution_fiber_dim(P((1001,))) == 0


def test_fiber_dim_of_a_long_column_needs_no_recursion():
    # 1^N branches only by splits: D = ((N-1)/2)^2
    assert resolution_fiber_dim(P((1,) * 1001)) == 250000


def test_semismall_bound_and_equality():
    for n in range(1, 6):
        for lam in all_partitions(2 * n + 1):
            two_d = 2 * resolution_fiber_dim(lam)
            codim = orbit_codim(lam)
            assert two_d <= codim, lam
            assert (two_d == codim) == is_relevant_full(lam), lam
