"""Cohomology tables for planes in a smooth intersection of two quadrics."""

import math

import pytest

from springerq import fano
from springerq.fano import (
    fano_betti_poly,
    fano_betti_poly_from_multiplicities,
    fano_lines_table,
    fano_multiplicities,
)
from springerq.ic_engine import closed_form_t, solve_stalk_tables
from springerq.qseries import LaurentPoly, eval_at_one, gaussian_binomial


def test_sixteen_lines():
    table = fano_multiplicities(2, 2)
    assert table.complex_dim == 0
    assert table.l_dims == (1, 5, 10)
    assert table.rows[0].terms == ((0, 1), (1, 1), (2, 1))
    assert table.rows[0].betti == 16
    assert fano_betti_poly(2, 2) == LaurentPoly({0: 16})


def test_quartic_del_pezzo_surface():
    table = fano_multiplicities(2, 1)
    assert table.complex_dim == 2
    assert [row.betti for row in table.rows] == [1, 6, 1]
    assert fano_betti_poly(2, 1) == LaurentPoly({0: 1, 1: 6, 2: 1})


def test_threefold_betti():
    assert fano_betti_poly(3, 1) == LaurentPoly({0: 1, 1: 1, 2: 8, 3: 1, 4: 1})


def test_low_degree_lines_multiplicities():
    # H^{2k} of the variety of lines is C^[(k+2)/2] for 0 <= k <= n-3
    for n in (4, 5, 6):
        table = fano_multiplicities(n, 2)
        for k in range(n - 2):
            assert dict(table.rows[k].terms) == {0: (k + 2) // 2}, (n, k)


def test_two_routes_agree():
    for n in range(1, 9):
        for i in range(1, n + 1):
            assert fano_betti_poly(n, i) == fano_betti_poly_from_multiplicities(n, i), (n, i)


def test_planes_of_top_index_are_four_to_the_n_points():
    # at i = n the variety of (n-1)-planes is finite: sum_{j <= n} C(2n+1, j) = 4^n points
    for n in range(1, 201):
        assert fano_betti_poly(n, n) == LaurentPoly({0: 4**n}), n
    for n in range(1, 21):
        assert fano_betti_poly_from_multiplicities(n, n) == LaurentPoly({0: 4**n}), n


def test_euler_characteristic_is_four_to_the_i_times_n_choose_i():
    # observed for every 1 <= i <= n <= 29, not derived: the Euler characteristic
    # of the variety of (i-1)-planes; at i = n it counts Reid's 4^n maximal planes
    for n in range(1, 30):
        for i in range(1, n + 1):
            assert fano_betti_poly(n, i).eval_at_one() == 4**i * math.comb(n, i), (n, i)


def test_table_betti_column_equals_betti_poly():
    # two computations: each row reads one coefficient of every T^i_j, while
    # the sum below takes the polynomials C(2n+1, j) T^i_j of the closed form whole
    for n in range(1, 9):
        for i in range(1, n + 1):
            table = fano_multiplicities(n, i)
            whole = sum((math.comb(2 * n + 1, j) * closed_form_t(n, i, j) for j in range(i + 1)),
                        LaurentPoly()).shift(i * (n - i))
            assert fano_betti_poly(n, i) == whole, (n, i)
            assert [row.betti for row in table.rows] == whole.coefficients(0, table.complex_dim + 1)


def test_multiplicities_match_solver_table():
    # M_i(k, j) is the coefficient of q^(k - i(n-i)) in T^i_j
    for n in range(1, 9):
        mult = solve_stalk_tables(n)[1]
        for i in range(1, n + 1):
            table = fano_multiplicities(n, i)
            for row in table.rows:
                for j in range(i + 1):
                    expected = mult.t(i, j)[row.k - i * (n - i)]
                    assert dict(row.terms).get(j, 0) == expected, (n, i, row.k, j)


def test_betti_palindromic():
    for n in range(1, 9):
        for i in range(1, n + 1):
            poly = fano_betti_poly(n, i)
            mid = i * (n - i)
            assert all(poly[k] == poly[2 * mid - k] for k in range(2 * mid + 1)), (n, i)


def test_betti_numbers_satisfy_hard_lefschetz():
    # derived, not observed: the variety of (i-1)-planes is smooth and projective
    # (Reid 1972) of complex dimension 2h, h = i(n-i), so Poincare duality makes
    # b_0 .. b_4h palindromic and hard Lefschetz makes them rise to the middle
    for n in range(1, 31):
        for i in range(1, n + 1):
            poly, h = fano_betti_poly(n, i), i * (n - i)
            assert poly.min_exp == 0 and poly.max_exp == 2 * h, (n, i)
            betti = poly.coefficients(0, 2 * h + 1)
            assert betti == betti[::-1], (n, i)
            assert all(a <= b for a, b in zip(betti[:h], betti[1:h + 1])), (n, i)


def test_middle_betti_of_the_intersection_itself():
    # i = 1: the intersection of the two quadrics has middle Betti number 2n+2
    for n in range(2, 9):
        assert fano_betti_poly(n, 1)[n - 1] == 2 * n + 2


def test_euler_characteristic_two_summation_orders():
    for n in range(1, 8):
        for i in range(1, n + 1):
            direct = eval_at_one(fano_betti_poly(n, i))
            swapped = sum(
                math.comb(2 * n + 1, j) * eval_at_one(gaussian_binomial(i - j, 2 * n - i - j))
                for j in range(i + 1)
            )
            assert direct == swapped, (n, i)


def test_fano_lines_table():
    assert fano_lines_table(3) == [
        (0, 1, False, False),
        (1, 1, True, False),
        (2, 2, True, True),
    ]
    rows4 = fano_lines_table(4)
    assert rows4[0] == (0, 1, False, False)
    assert rows4[2] == (2, 2, True, False)
    assert rows4[4] == (4, 3, True, True)
    fano_lines_table(5)  # internal consistency assertion must not fire
    with pytest.raises(ValueError, match="degenerate"):
        fano_lines_table(2)


def test_index_validation(monkeypatch):
    # each entry point refuses i outside [1, n] before it builds any polynomial
    def unreachable(*args):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(fano, "closed_form_t", unreachable)
    monkeypatch.setattr(fano, "solve_stalk_tables", unreachable)
    for entry in (fano_multiplicities, fano_betti_poly, fano_betti_poly_from_multiplicities):
        for i in (0, 4):
            with pytest.raises(ValueError, match="1 <= i <= n"):
                entry(3, i)
