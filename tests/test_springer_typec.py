"""Kostka numbers, bipartition labels, and the Euler-characteristic identities."""

import math
import time

import pytest

from springerq.partitions import Partition, conjugate, dominance_leq, partitions_of
from springerq.springer_typec import (
    MAX_KOSTKA_COST,
    Bipartition,
    bipartition_dim,
    euler_chi_nontrivial,
    euler_chi_trivial,
    kostka,
    kostka_order_two_closed_form,
    springer_label,
    standard_tableaux_count,
    verify_cc_identity,
    verify_two_power_sum,
)

P = Partition


# -- Kostka numbers -------------------------------------------------------------


def _enumerated_kostka(shape, weight):
    """Independent oracle: semistandard tableaux counted one at a time.

    Exhaustive depth-first filling, row by row: rows weakly increase, columns
    strictly increase, and entry v is used weight_v times.  Recursion depth
    grows with the number of cells, so keep the inputs small.
    """
    assert shape.weight == weight.weight
    if not shape.parts:
        return 1
    rows = shape.parts
    remaining = list(weight.parts)
    nvals = len(remaining)
    # previous row's entries, for column-strictness of the row being filled
    above = []

    def fill_row(r, col, row_vals, count):
        nonlocal above
        if col == rows[r]:
            if r + 1 == len(rows):
                return count + 1
            saved = above
            above = row_vals
            count = fill_row(r + 1, 0, [], count)
            above = saved
            return count
        lo = row_vals[-1] if col else 1
        if r and col < len(above):
            lo = max(lo, above[col] + 1)
        for v in range(lo, nvals + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                row_vals.append(v)
                count = fill_row(r, col + 1, row_vals, count)
                row_vals.pop()
                remaining[v - 1] += 1
        return count

    return fill_row(0, 0, [], 0)


def test_kostka_examples():
    assert kostka(P((2, 1)), P((2, 1))) == 1
    assert kostka(P((2, 1)), P((1, 1, 1))) == 2
    assert kostka(P(), P()) == 1
    assert kostka(P((3, 1)), P((2, 1, 1))) == 2
    with pytest.raises(ValueError):
        kostka(P((2, 1)), P((2, 2)))


def test_kostka_extremes():
    for w in range(1, 7):
        for shape in partitions_of(w):
            assert kostka(shape, shape) == 1
            assert kostka(P((w,)), shape) == 1


def test_kostka_positive_iff_dominated():
    for w in range(9):
        shapes = list(partitions_of(w))
        for shape in shapes:
            for content in shapes:
                positive = kostka(shape, content) > 0
                assert positive == dominance_leq(content, shape), (shape, content)


def test_kostka_closed_form_family():
    for n in range(1, 11):
        for i in range(n // 2 + 1):
            for j0 in range(i + 1):
                shape = P((2,) * (i - j0) + (1,) * (n - 2 * i))
                content = P((1,) * (n - 2 * j0))
                assert kostka(shape, content) == kostka_order_two_closed_form(n, i, j0), (n, i, j0)


def test_kostka_two_row_content_agrees():
    # K_{2^i 1^(n-2i), 2^(j0) 1^(n-2j0)} collapses to the same closed form
    for n in range(1, 9):
        for i in range(n // 2 + 1):
            for j0 in range(i + 1):
                shape = P((2,) * i + (1,) * (n - 2 * i))
                content = P((2,) * j0 + (1,) * (n - 2 * j0))
                assert kostka(shape, content) == kostka_order_two_closed_form(n, i, j0), (n, i, j0)


def test_kostka_matches_enumeration_oracle():
    pairs = 0
    for w in range(10):
        shapes = list(partitions_of(w))
        for shape in shapes:
            for content in shapes:
                assert kostka(shape, content) == _enumerated_kostka(shape, content), (shape, content)
                pairs += 1
    assert pairs == 1819


def test_kostka_order_two_family_matches_oracle():
    for n in range(1, 11):
        for i in range(n // 2 + 1):
            for j0 in range(i + 1):
                shape = P((2,) * (i - j0) + (1,) * (n - 2 * i))
                content = P((1,) * (n - 2 * j0))
                assert kostka(shape, content) == _enumerated_kostka(shape, content), (n, i, j0)


def test_kostka_long_row_and_column_need_no_recursion():
    ones = P((1,) * 1500)
    assert kostka(ones, ones) == 1
    assert kostka(P((1500,)), ones) == 1


def test_kostka_refuses_a_long_row_without_counting_inside_it():
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"> {MAX_KOSTKA_COST}$"):
        kostka(P((10**7,)), P((10**7,)))
    assert time.perf_counter() - started < 1.0


def test_kostka_refusal_boundary():
    # cost = states * (rows + 200) against MAX_KOSTKA_COST = 2 * 10**7: one row
    # has |lam| + 1 states, a row and a box under it 2 |lam[0]| + 1
    assert MAX_KOSTKA_COST == 20_000_000
    assert kostka(P((99501,)), P((99501,))) == 1  # 99502 * 201 = 19999902
    with pytest.raises(ValueError, match=r"costs 20000103 > 20000000$"):
        kostka(P((99502,)), P((99502,)))
    assert kostka(P((49504, 1)), P((49504, 1))) == 1  # 99009 * 202 = 19999818
    with pytest.raises(ValueError, match=r"costs 20000222 > 20000000$"):
        kostka(P((49505, 1)), P((49505, 1)))
    # the lower bound (|lam| + 1) * 250 is exactly the limit, so kostka counts the
    # 3997501 states and refuses
    hook = P((79950,) + (1,) * 49)
    with pytest.raises(ValueError, match=r"costs 999375250 > 20000000$"):
        kostka(hook, hook)


def hook_product_count(shape):
    """Independent standard-tableau count via the hook length formula."""
    parts = shape.parts
    if not parts:
        return 1
    cols = conjugate(shape).parts
    den = 1
    for r, row in enumerate(parts):
        for c in range(row):
            den *= (row - c) + (cols[c] - r) - 1
    return math.factorial(shape.weight) // den


def test_standard_tableaux_against_hook_lengths():
    for w in range(9):
        for shape in partitions_of(w):
            assert standard_tableaux_count(shape) == hook_product_count(shape), shape
            assert standard_tableaux_count(shape) == _enumerated_kostka(shape, P((1,) * w)), shape


# -- Springer labels --------------------------------------------------------------


def test_springer_label_examples():
    assert springer_label(3, 2) == Bipartition(P((1,)), P((1, 1)))
    assert springer_label(3, 3) == Bipartition(P((1, 1)), P((1,)))
    assert springer_label(3, 2, "nontrivial") == Bipartition(P(), P((2, 1)))
    assert springer_label(3, 0) == Bipartition(P(), P((1, 1, 1)))
    with pytest.raises(ValueError, match="not in Springer image"):
        springer_label(3, 3, "nontrivial")
    with pytest.raises(ValueError, match="not in Springer image"):
        springer_label(3, 0, "nontrivial")
    with pytest.raises(ValueError):
        springer_label(3, 4)


def test_springer_label_weights():
    for n in range(1, 8):
        for i in range(n + 1):
            assert springer_label(n, i).n == n
            if i % 2 == 0 and i >= 2:
                assert springer_label(n, i, "nontrivial").n == n


def test_bipartition_dim_examples():
    assert bipartition_dim(Bipartition(P(), P((4,)))) == 1
    assert bipartition_dim(Bipartition(P((1,)), P((2, 1)))) == 8
    for n in range(1, 9):
        for m in range(n + 1):
            b = Bipartition(P((1,) * m), P((1,) * (n - m)))
            assert bipartition_dim(b) == math.comb(n, m)


def test_trivial_label_dims():
    # dim of the label of (orbit 2^i 1^(2n-2i), trivial) is C(n, [i/2])
    for n in range(1, 13):
        for i in range(n + 1):
            assert bipartition_dim(springer_label(n, i)) == math.comb(n, i // 2), (n, i)


# -- Euler characteristics ---------------------------------------------------------


def test_euler_chi_trivial_examples():
    assert euler_chi_trivial(3, 2, 0) == 3
    assert euler_chi_trivial(3, 3, 3) == 1
    assert euler_chi_trivial(3, 3, 1) == 2
    with pytest.raises(ValueError):
        euler_chi_trivial(3, 2, 3)


def test_euler_chi_nontrivial_examples():
    assert euler_chi_nontrivial(3, 2, 0) == 2
    assert euler_chi_nontrivial(3, 2, 1) == 0
    assert euler_chi_nontrivial(4, 4, 2) == 1
    with pytest.raises(ValueError):
        euler_chi_nontrivial(3, 3, 0)


def test_cc_identity():
    assert verify_cc_identity(3, 2)
    assert verify_cc_identity(2, 2)
    for n in range(2, 11):
        for i in range(2, n + 1, 2):
            assert verify_cc_identity(n, i), (n, i)
    with pytest.raises(ValueError):
        verify_cc_identity(3, 3)


def test_two_power_sum():
    assert verify_two_power_sum(3, 3)  # 1 = 2^0
    assert sum(euler_chi_trivial(3, i, 1) for i in range(1, 4)) == 4
    for n in range(1, 21):
        for j in range(n + 1):
            assert verify_two_power_sum(n, j), (n, j)


def test_order_two_euler_sum_matches_two_power():
    # sum over the order-two family of trivial local chi at the j-th base orbit
    for n in range(1, 21):
        for j in range(n + 1):
            total = sum(euler_chi_trivial(n, i, j) for i in range(j, n + 1))
            assert total == 2 ** (n - j)
