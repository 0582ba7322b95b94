"""Differential tests of LaurentPoly arithmetic against independent oracles.

Two oracles live here and share no code with springerq.qseries: a schoolbook
product and a long division over plain dicts (exponent -> coefficient), and
sympy's Poly over ZZ after shifting to nonnegative exponents.  The inputs
cover both multiplication paths (``*`` and :func:`sum_of_products`, one
Kronecker substitution with slots of machine width and wider), sparse factors
such as 1 - q^l past the other factor's span, negative coefficients and
coefficients beyond 2^64, supports with interior gaps, and division by
1 - q^l, the only divisor exact_div takes, on exact and inexact dividends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springerq import qseries
from springerq.qseries import ONE, LaurentPoly, one_minus_q

SMALL = st.integers(min_value=-9, max_value=9)
HUGE = st.integers(min_value=-(2**80), max_value=2**80)


@st.composite
def poly_dicts(draw, max_terms=40, max_width=60):
    """Exponent -> coefficient dicts with gapped supports; small or huge coefficients."""
    lo = draw(st.integers(min_value=-20, max_value=20))
    width = draw(st.integers(min_value=0, max_value=max_width))
    coeff = draw(st.sampled_from([SMALL, HUGE]))
    exps = draw(st.lists(st.integers(min_value=lo, max_value=lo + width), max_size=max_terms))
    return {e: draw(coeff) for e in exps}


def nonzero_poly_dicts(**kwargs):
    return poly_dicts(**kwargs).filter(lambda d: any(d.values()))


def trimmed(d):
    return {e: c for e, c in d.items() if c}


def oracle_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return trimmed(out)


def oracle_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return trimmed(out)


def oracle_div(a, b):
    """Long division of dicts from the top term; ArithmeticError unless exact."""
    a, b = trimmed(a), trimmed(b)
    if not a:
        return {}
    b_min, b_max = min(b), max(b)
    lowest_shift = min(a) - b_min
    quot = {}
    while a:
        top = max(a)
        shift = top - b_max
        if shift < lowest_shift or a[top] % b[b_max]:
            raise ArithmeticError("inexact")
        c = a[top] // b[b_max]
        quot[shift] = c
        a = oracle_add(a, {e + shift: c * x for e, x in b.items()}, sign=-1)
    return quot


def as_dict(p):
    return dict(p.to_pairs())


def div_or_error(a, b):
    try:
        return as_dict(a.exact_div(b))
    except ArithmeticError:
        return "inexact"


def oracle_div_or_error(a, b):
    try:
        return oracle_div(a, b)
    except ArithmeticError:
        return "inexact"


# -- against the dict oracles ----------------------------------------------------


@settings(max_examples=100)
@given(poly_dicts(), poly_dicts())
def test_add_sub_mul_match_dict_oracle(a, b):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    a, b = trimmed(a), trimmed(b)
    assert as_dict(pa + pb) == oracle_add(a, b)
    assert as_dict(pa - pb) == oracle_add(a, b, sign=-1)
    assert as_dict(pa * pb) == oracle_mul(a, b)
    assert as_dict(-pa) == {e: -c for e, c in a.items()}


@settings(max_examples=100)
@given(nonzero_poly_dicts(), nonzero_poly_dicts())
def test_both_multiplication_paths_match_dict_oracle(a, b):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    expected = oracle_mul(trimmed(a), trimmed(b))
    assert as_dict(pa * pb) == as_dict(pb * pa) == expected
    assert as_dict(qseries.sum_of_products([(pa, pb)])) == expected


SPARSE_COEFFS = st.sampled_from([1, -1, 2**80, -(2**80)]) | SMALL.filter(bool)


@settings(max_examples=100)
@given(st.data(), nonzero_poly_dicts(), SPARSE_COEFFS, st.integers(min_value=-20, max_value=20))
def test_products_by_sparse_factors_match_dict_oracle(data, a, c, s):
    pa = LaurentPoly(a)
    span = pa.max_exp - pa.min_exp
    l = data.draw(st.integers(min_value=1, max_value=span + 10), label="l")
    for factor in ({s: c}, {s: c, s + l: -c}, {0: 1, span + 1: -1}, {0: 1, span + l: -1}):
        expected = oracle_mul(trimmed(a), factor)
        pf = LaurentPoly(factor)
        assert as_dict(pa * pf) == as_dict(pf * pa) == expected, factor
        assert as_dict(qseries.sum_of_products([(pf, pa), (pa, pf)])) == oracle_add(expected, expected)


def test_kronecker_slot_widths():
    # the bound 9 * big^2 - 4 * big needs slots of 1, 2, 3 (so 4), 5 (so 8),
    # 9, 17 and 51 bytes, the last three wider than a machine integer
    for big in (3, 40, 200, 60_000, 2**30, 2**64, 2**200):
        a = tuple((-1) ** k * big for k in range(12))
        b = tuple(big - k % 2 for k in range(9))
        expected = oracle_mul(dict(enumerate(a)), dict(enumerate(b)))
        got = qseries.sum_of_products([(LaurentPoly.from_coeffs(0, a), LaurentPoly.from_coeffs(0, b))])
        assert as_dict(got) == expected, big


@settings(max_examples=100)
@given(poly_dicts(), st.integers(min_value=1, max_value=15), poly_dicts(max_terms=3))
def test_one_minus_q_division_matches_dict_oracle(quot, l, noise):
    divisor = one_minus_q(l)
    product = LaurentPoly(quot) * divisor
    assert product.exact_div(divisor) == LaurentPoly(quot)
    perturbed = product + LaurentPoly(noise)
    assert div_or_error(perturbed, divisor) == oracle_div_or_error(as_dict(perturbed), as_dict(divisor))


def test_one_minus_q_rejects_dividends_shorter_than_divisor():
    for l in range(1, 8):
        divisor = one_minus_q(l)
        for deg in range(l):  # degree below l, the span of the divisor
            dividend = LaurentPoly({0: 1, deg: 2})
            with pytest.raises(ArithmeticError):
                dividend.exact_div(divisor)
            with pytest.raises(ArithmeticError):
                dividend.shift(-5).exact_div(divisor)
        assert divisor.exact_div(divisor) == ONE


def test_one_minus_q_rejects_nonzero_top_slots():
    quot = LaurentPoly({-2: 3, 0: -1, 1: 5, 4: 2})
    for l in range(1, 7):
        exact = quot * one_minus_q(l)
        for k in range(exact.max_exp - l + 1, exact.max_exp + 1):  # the top l slots
            for c in (1, -7, 2**65):
                with pytest.raises(ArithmeticError):
                    (exact + LaurentPoly({k: c})).exact_div(one_minus_q(l))


# -- sums of products ----------------------------------------------------------------


@st.composite
def q_squared_poly_dicts(draw, max_terms=40, max_width=40):
    """q^s g(q^2) for a nonzero dict g: every other exponent from s is empty."""
    g = draw(nonzero_poly_dicts(max_terms=max_terms, max_width=max_width))
    s = draw(st.integers(min_value=-5, max_value=5))
    return {s + 2 * e: c for e, c in g.items()}


def oracle_sum_of_products(pairs):
    out = {}
    for a, b in pairs:
        out = oracle_add(out, oracle_mul(a, b))
    return out


FACTORS = st.one_of(nonzero_poly_dicts(), q_squared_poly_dicts(), st.just({}))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(FACTORS, FACTORS), max_size=6), st.sampled_from([2, 5, None]))
def test_sum_of_products_matches_dict_oracle(pairs, cutoff):
    """Any cutoff, the real one included, gives the oracle's sum."""
    saved = qseries._PARITY_TERMS
    qseries._PARITY_TERMS = saved if cutoff is None else cutoff
    try:
        got = qseries.sum_of_products((LaurentPoly(a), LaurentPoly(b)) for a, b in pairs)
    finally:
        qseries._PARITY_TERMS = saved
    assert as_dict(got) == oracle_sum_of_products(pairs)


def test_sum_of_products_on_both_sides_of_the_parity_cutoff():
    cutoff = qseries._PARITY_TERMS
    for g_len in (cutoff // 2 - 1, cutoff // 2, cutoff // 2 + 1, cutoff):
        g = {e: (-1) ** e * (e + 1) * 2**50 for e in range(g_len)}
        for s in (-3, 0, 1, 4):  # both parities of the lowest exponent
            in_q2 = {s + 2 * e: c for e, c in g.items()}  # 2 g_len - 1 coefficients
            for other_len in (1, 2, cutoff - 1, cutoff, cutoff + 1):
                other = {e - 7: 3 * e + 1 for e in range(other_len)}  # not in q^2 past length 1
                pairs = [(in_q2, other), (other, in_q2), (other, other), (in_q2, in_q2)]
                got = qseries.sum_of_products((LaurentPoly(a), LaurentPoly(b)) for a, b in pairs)
                assert as_dict(got) == oracle_sum_of_products(pairs), (g_len, s, other_len)


def test_sum_of_products_of_nothing_or_zeros_is_zero():
    assert qseries.sum_of_products([]) == qseries.ZERO
    assert qseries.sum_of_products([(qseries.ZERO, ONE), (ONE, qseries.ZERO)]) == qseries.ZERO
    assert qseries.sum_of_products([(ONE, ONE), (-ONE, ONE)]) == qseries.ZERO


# -- Poincare polynomials against their product formulas ----------------------------


def _factor_ratio(tops, bottoms):
    """Oracle: prod (1-q^a) over tops / prod (1-q^b) over bottoms, one factor at a time."""
    out = ONE
    for a in tops:
        out = out * one_minus_q(a)
    for b in bottoms:
        out = out.exact_div(one_minus_q(b))
    return out


def test_gaussian_binomial_matches_product_formula():
    for m in range(41):
        for k in range(m + 1):
            expected = _factor_ratio(range(m - k + 1, m + 1), range(1, k + 1))
            assert qseries.gaussian_binomial(k, m) == expected, (k, m)


def test_og_poincare_matches_product_formula():
    for n in range(41):
        for i in range(n + 1):
            expected = _factor_ratio(range(2 * (n - i + 1), 2 * n + 1, 2), range(1, i + 1))
            assert qseries.og_poincare(i, n) == expected, (i, n)


# -- against sympy ---------------------------------------------------------------


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, p):
    """(lowest exponent, sympy Poly of the shifted polynomial) for nonzero p."""
    lo = p.min_exp
    terms = {(e - lo,): c for e, c in p.to_pairs()}
    return lo, sympy.Poly.from_dict(terms, sympy.Symbol("q"), domain=sympy.ZZ)


def from_sympy(lo, poly):
    return LaurentPoly({k + lo: int(c) for (k,), c in poly.terms() if c})


@settings(max_examples=50, deadline=None)
@given(nonzero_poly_dicts(), nonzero_poly_dicts())
def test_ring_operations_match_sympy(sympy, a, b):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    lo_a, sa = to_sympy(sympy, pa)
    lo_b, sb = to_sympy(sympy, pb)
    assert pa * pb == from_sympy(lo_a + lo_b, sa * sb)
    lo = min(lo_a, lo_b)
    q = sympy.Symbol("q")
    sa_lo = sa * sympy.Poly(q ** (lo_a - lo), q, domain=sympy.ZZ)
    sb_lo = sb * sympy.Poly(q ** (lo_b - lo), q, domain=sympy.ZZ)
    assert pa + pb == from_sympy(lo, sa_lo + sb_lo)
    assert pa - pb == from_sympy(lo, sa_lo - sb_lo)


@settings(max_examples=50, deadline=None)
@given(nonzero_poly_dicts(max_terms=12, max_width=20),
       st.integers(min_value=1, max_value=15).map(one_minus_q), poly_dicts(max_terms=2))
def test_exact_div_matches_sympy(sympy, quot, divisor, noise):
    dividend = LaurentPoly(quot) * divisor + LaurentPoly(noise)
    if dividend.is_zero:
        return
    lo_a, sa = to_sympy(sympy, dividend)
    lo_b, sb = to_sympy(sympy, divisor)
    quotient, remainder = sa.div(sb)  # over QQ
    exact = remainder.is_zero and all(c.is_integer for c in quotient.coeffs())
    expected = from_sympy(lo_a - lo_b, quotient) if exact else "inexact"
    try:
        got = dividend.exact_div(divisor)
    except ArithmeticError:
        got = "inexact"
    assert got == expected
