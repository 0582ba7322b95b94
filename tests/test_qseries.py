"""Laurent-polynomial arithmetic and closed-form Poincare polynomials."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springerq.qseries import (
    LaurentPoly,
    ONE,
    Q,
    ZERO,
    eval_at_one,
    gaussian_binomial,
    og_poincare,
    one_minus_q,
    verify_sum_identity,
)

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


# -- core arithmetic ----------------------------------------------------------


def test_zero_coefficients_are_dropped():
    p = LaurentPoly({3: 0, 1: 2, -1: 0})
    assert p.support() == [1]
    assert p[3] == 0 and p[-1] == 0


def test_pair_construction_merges_duplicates():
    assert LaurentPoly([(1, 2), (1, -2), (0, 5)]) == LaurentPoly({0: 5})


def test_immutable():
    with pytest.raises(AttributeError):
        ONE._coeffs = {}


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(LaurentPoly({-3: 1, -1: 1})) == "q^-3 + q^-1"
    assert str(LaurentPoly({0: 1, 1: 1, 2: 2})) == "1 + q + 2*q^2"
    assert str(LaurentPoly({0: -1, 2: 3})) == "-1 + 3*q^2"


def test_shift_subs_reciprocal():
    p = LaurentPoly({0: 1, 2: 3})
    assert p.shift(-2) == LaurentPoly({-2: 1, 0: 3})
    assert p.subs_power(2) == LaurentPoly({0: 1, 4: 3})
    # q -> q^(-1), as README "Deprecations" spells it
    assert LaurentPoly({-e: c for e, c in p.to_pairs()}) == LaurentPoly({0: 1, -2: 3})
    assert LaurentPoly({-1: 1, 0: 2, 1: 1}).is_symmetric()
    assert not LaurentPoly({-1: 1, 2: 1}).is_symmetric()


@settings(max_examples=100)
@given(polys, st.integers(min_value=-9, max_value=9), st.integers(min_value=0, max_value=12))
def test_dense_coefficient_round_trip(p, start, width):
    coeffs = p.coefficients(start, start + width)
    assert coeffs == [p[e] for e in range(start, start + width)]
    if p:
        lo = p.min_exp - 2
        assert LaurentPoly.from_coeffs(lo, p.coefficients(lo, p.max_exp + 3)) == p


def test_from_coeffs_trims_and_checks_types():
    assert LaurentPoly.from_coeffs(-2, [0, 0, 1, 0, 3, 0]) == LaurentPoly({0: 1, 2: 3})
    assert LaurentPoly.from_coeffs(5, [0, 0]) == ZERO
    with pytest.raises(TypeError):
        LaurentPoly.from_coeffs(0, [1, 2.0])
    with pytest.raises(TypeError):
        LaurentPoly.from_coeffs(0.5, [1])


@settings(max_examples=100)
@given(polys, polys)
def test_equal_polynomials_have_equal_hashes_however_built(a, b):
    lo = a.min_exp - 2 if a else 0
    for p in (LaurentPoly(a.to_pairs()), LaurentPoly.from_coeffs(lo, a.coefficients(lo, lo + 20)),
              (a + b) - b, a * ONE, a.shift(3).shift(-3)):
        assert p == a and hash(p) == hash(a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert {hash(a - a), hash(LaurentPoly()), hash(LaurentPoly.from_coeffs(5, [0, 0]))} == {hash(ZERO)}


def test_exact_div_round_trip():
    a = LaurentPoly({-2: 3, 0: -1, 1: 7})
    for l in (1, 2, 5):
        assert (a * one_minus_q(l)).exact_div(one_minus_q(l)) == a


def test_exact_div_rejects_remainder():
    with pytest.raises(ArithmeticError):
        (ONE + Q).exact_div(one_minus_q(2))
    # every divisor other than 1 - q^l is refused, however exact the quotient
    for divisor in (LaurentPoly({0: 2}), ZERO, ONE, Q, -one_minus_q(1), one_minus_q(3).shift(1),
                    one_minus_q(4) + Q.shift(2), ONE - Q * 2):
        with pytest.raises(ValueError, match="only by 1 - q"):
            (divisor * 6).exact_div(divisor)


@settings(max_examples=150)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a


@settings(max_examples=100)
@given(polys, st.integers(min_value=1, max_value=15))
def test_division_inverts_multiplication(a, l):
    assert (a * one_minus_q(l)).exact_div(one_minus_q(l)) == a


# -- gaussian binomials -------------------------------------------------------


def box_count_poly(k, m):
    """Oracle: count partitions inside a k x (m-k) box by weight."""
    counts = [0] * (k * (m - k) + 1)

    def rec(rows_left, cap, total):
        if rows_left == 0:
            counts[total] += 1
            return
        for p in range(cap + 1):
            rec(rows_left - 1, p, total + p)

    rec(k, m - k, 0)
    return LaurentPoly({e: c for e, c in enumerate(counts)})


def test_gaussian_examples():
    assert gaussian_binomial(0, 5) == ONE
    assert gaussian_binomial(1, 2) == ONE + Q
    # frozen from the box-counting oracle
    assert gaussian_binomial(2, 4) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


def test_gaussian_against_box_oracle():
    for m in range(11):
        for k in range(m + 1):
            assert gaussian_binomial(k, m) == box_count_poly(k, m), (k, m)


def test_gaussian_symmetry_and_pascal():
    for m in range(21):
        for k in range(m + 1):
            assert gaussian_binomial(k, m) == gaussian_binomial(m - k, m)
    for m in range(1, 21):
        for k in range(1, m + 1):
            lhs = gaussian_binomial(k, m)
            rhs = gaussian_binomial(k, m - 1) if k <= m - 1 else ZERO
            rhs = rhs + gaussian_binomial(k - 1, m - 1).shift(m - k)
            assert lhs == rhs, (k, m)


def test_gaussian_nonneg_palindromic_degree():
    for m in range(16):
        for k in range(m + 1):
            g = gaussian_binomial(k, m)
            assert g.nonneg_coeffs()
            d = k * (m - k)
            assert g.min_exp == 0 and g.max_exp == d
            assert all(g[a] == g[d - a] for a in range(d + 1))


def test_gaussian_arbitrary_precision():
    import math

    g = gaussian_binomial(40, 80)
    assert max(c for _, c in g.to_pairs()) > 2**63
    assert eval_at_one(g) == math.comb(80, 40)


def test_json_pairs():
    p = LaurentPoly({-3: 1, 2: 12345678901234567890})
    assert p.json_pairs() == [[-3, "1"], [2, "12345678901234567890"]]


def test_gaussian_rejects_bad_indices():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 2)


# -- orthogonal grassmannians -------------------------------------------------


def test_og_examples():
    assert og_poincare(0, 7) == ONE
    assert og_poincare(1, 2) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})
    assert og_poincare(2, 2) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})


def test_og_degree_and_positivity():
    for n in range(9):
        for i in range(n + 1):
            og = og_poincare(i, n)
            assert og.nonneg_coeffs()
            if i:
                assert og.max_exp == i * (4 * n - 3 * i + 1) // 2


def test_og_euler_char_powers_of_two():
    for n in range(1, 11):
        assert eval_at_one(og_poincare(n, n)) == 2**n


def test_og_rejects_bad_indices():
    with pytest.raises(ValueError):
        og_poincare(3, 2)


# -- neighbour chains need no recursion -----------------------------------------


def run_in_fresh_thread(limit, fn):
    """fn() under recursion limit limit, in a new thread whose stack starts empty."""
    result = {}

    def target():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            result["value"] = fn()
        except RecursionError as exc:
            result["error"] = exc
        finally:
            sys.setrecursionlimit(old)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    assert "error" not in result, result.get("error")
    return result["value"]


def test_gaussian_long_chain_needs_no_recursion():
    # 1500 diagonal steps from g_{0,1}, at the default recursion limit
    assert gaussian_binomial(1500, 1501) == LaurentPoly.from_coeffs(0, [1] * 1501)


def test_og_chain_runs_under_a_lowered_recursion_limit():
    og_poincare.cache_clear()
    og = run_in_fresh_thread(60, lambda: og_poincare(100, 100))
    assert eval_at_one(og) == 2**100
    assert og.max_exp == 100 * (4 * 100 - 3 * 100 + 1) // 2


# -- the summation identity ---------------------------------------------------


def test_sum_identity_hand_cases():
    # n=1, i=1: q * g_{0,1}(q^2) g_{1,1}(q) + g_{0,1}(q^2) g_{0,0}(q) = 1 + q
    assert og_poincare(1, 1) == ONE + Q
    assert verify_sum_identity(1, 1)
    # n=2, i=2: q^3 + q + (1 + q^2) = og_{2,5}
    assert og_poincare(2, 2) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})
    assert verify_sum_identity(2, 2)


def test_sum_identity_exhaustive():
    for n in range(1, 9):
        for i in range(n + 1):
            assert verify_sum_identity(n, i), (n, i)


def test_sum_identity_rejects_bad_indices():
    with pytest.raises(ValueError):
        verify_sum_identity(2, 3)
    with pytest.raises(ValueError):
        verify_sum_identity(0, 0)


def test_eval_at_one():
    assert eval_at_one(LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})) == 4
    assert eval_at_one(ZERO) == 0
