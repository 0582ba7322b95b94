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
    quadric_betti,
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
    assert p.reciprocal() == LaurentPoly({0: 1, -2: 3})
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


def test_pow():
    assert (ONE + Q) ** 2 == LaurentPoly({0: 1, 1: 2, 2: 1})
    assert Q**0 == ONE
    with pytest.raises(ValueError):
        Q ** (-1)


def test_exact_div_round_trip():
    a = LaurentPoly({-2: 3, 0: -1, 1: 7})
    b = LaurentPoly({-1: 2, 3: 5})
    assert (a * b).exact_div(b) == a


def test_exact_div_rejects_remainder():
    with pytest.raises(ArithmeticError):
        (ONE + Q).exact_div(one_minus_q(2))
    with pytest.raises(ArithmeticError):
        LaurentPoly({0: 3}).exact_div(LaurentPoly({0: 2}))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


@settings(max_examples=150)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a


@settings(max_examples=100)
@given(polys, polys)
def test_division_inverts_multiplication(a, b):
    if not b.is_zero:
        assert (a * b).exact_div(b) == a


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


# -- quadrics -----------------------------------------------------------------


def projective_quadric_count(rank, ambient, p):
    """Oracle: number of F_p-points of sum_{s<=rank} b_s^2 = 0 in P^(ambient-1).

    Convolves the distribution of x^2 over F_p rank times; the remaining
    ambient-rank coordinates are free.
    """
    squares = [0] * p
    for x in range(p):
        squares[x * x % p] += 1
    vec = [1] + [0] * (p - 1)
    for _ in range(rank):
        new = [0] * p
        for t, c in enumerate(vec):
            if c:
                for s in range(p):
                    new[(t + s) % p] += c * squares[s]
        vec = new
    affine = vec[0] * p ** (ambient - rank)
    return (affine - 1) // (p - 1)


def test_quadric_frozen_examples():
    # frozen from the point-count oracle below
    assert quadric_betti(4, 4) == LaurentPoly({0: 1, 1: 2, 2: 1})
    assert quadric_betti(2, 4) == LaurentPoly({0: 1, 1: 1, 2: 2})
    assert quadric_betti(1, 2) == ONE
    assert quadric_betti(3, 5) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})
    assert quadric_betti(0, 3) == LaurentPoly({0: 1, 1: 1, 2: 1})


def test_quadric_against_point_counts():
    # p = 1 mod 4 so that the sum-of-squares form is split over F_p
    for p in (5, 13):
        for ambient in range(1, 7):
            for rank in range(ambient + 1):
                betti = quadric_betti(rank, ambient)
                predicted = sum(c * p**e for e, c in betti.to_pairs())
                assert predicted == projective_quadric_count(rank, ambient, p), (
                    rank,
                    ambient,
                    p,
                )


def test_quadric_rejects_bad_rank():
    with pytest.raises(ValueError):
        quadric_betti(5, 4)
    with pytest.raises(ValueError):
        quadric_betti(-1, 4)


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
