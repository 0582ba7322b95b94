"""The inductive stalk solver and its closed forms, and the Fourier-transform
table and support classification of the order-two orbits (in partitions)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springerq import ic_engine
from springerq.ic_engine import (
    MultiplicityTable,
    StalkTable,
    closed_form_f,
    closed_form_t,
    fake_degree_poly,
    ic_stalk_poly,
    _peel_symmetric,
    solve_stalk_tables,
)
from springerq.partitions import (
    OrbitLabel,
    Partition,
    ft_support_flag,
    ft_support_info,
    ft_table,
    order_two_partition,
)
from springerq.qseries import LaurentPoly, ONE, ZERO, og_poincare

P = Partition


# -- solver anchors -----------------------------------------------------------


def test_rank_one_degenerate_case():
    stalks, mult = solve_stalk_tables(1)
    assert stalks.f[1] == LaurentPoly({-1: 1})
    assert mult.t(1, 0) == ONE


def test_rank_two_hand_run():
    stalks, mult = solve_stalk_tables(2)
    assert stalks.f[1] == LaurentPoly({-2: 1})
    assert stalks.f[2] == LaurentPoly({-3: 1, -1: 1})
    assert mult.t(1, 0) == LaurentPoly({-1: 1, 0: 1, 1: 1})
    assert mult.t(2, 0) == ONE
    assert mult.t(2, 1) == ONE


def test_f1_and_t1_anchors_up_to_rank_twelve():
    for n in range(1, 13):
        stalks, mult = solve_stalk_tables(n)
        assert stalks.f[1] == LaurentPoly({-n: 1})
        t10 = mult.t(1, 0)
        assert t10 == LaurentPoly({k: 1 for k in range(-(n - 1), n)})


def test_solver_rejects_bad_rank():
    with pytest.raises(ValueError):
        solve_stalk_tables(0)


def test_solver_is_thread_safe():
    import threading

    results = []

    def worker():
        results.append(solve_stalk_tables(9))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


# -- closed forms -------------------------------------------------------------


def test_closed_form_examples():
    assert closed_form_f(2, 1) == LaurentPoly({-2: 1})
    assert closed_form_f(2, 2) == LaurentPoly({-3: 1, -1: 1})
    assert closed_form_f(5, 0) == ONE
    assert closed_form_t(2, 1, 0) == LaurentPoly({-1: 1, 0: 1, 1: 1})
    assert closed_form_t(2, 2, 2) == ONE
    assert closed_form_t(2, 2, 0) == ONE  # g_{2,2} = 1
    with pytest.raises(ValueError):
        closed_form_f(2, 3)
    with pytest.raises(ValueError):
        closed_form_t(2, 1, 2)


def check_solver_against_closed_forms(n_max):
    for n in range(1, n_max + 1):
        stalks, mult = solve_stalk_tables(n)
        for i in range(n + 1):
            assert stalks.f[i] == closed_form_f(n, i), (n, i)
        for i in range(1, n + 1):
            for j in range(i + 1):
                assert mult.t(i, j) == closed_form_t(n, i, j), (n, i, j)


def test_solver_matches_closed_forms():
    check_solver_against_closed_forms(8)


def test_solver_matches_closed_forms_through_rank_24():
    check_solver_against_closed_forms(24)


def test_solver_matches_closed_forms_through_rank_32():
    check_solver_against_closed_forms(32)


def test_multiplicity_entries_are_read_only():
    mult = solve_stalk_tables(3)[1]
    with pytest.raises(TypeError):
        mult.entries[(1, 0)] = None
    with pytest.raises(TypeError):
        del mult.entries[(1, 0)]
    assert solve_stalk_tables(3)[1].t(1, 0) == closed_form_t(3, 1, 0)
    # rank 4 aliases the rank-3 entries through the cross-rank reduction
    mult4 = solve_stalk_tables(4)[1]
    for i in range(1, 5):
        for j in range(i + 1):
            assert mult4.t(i, j) == closed_form_t(4, i, j), (i, j)


def test_multiplicity_table_copies_its_entries():
    entries = {(1, 1): ONE, (1, 0): LaurentPoly({-1: 1, 0: 1, 1: 1})}
    table = MultiplicityTable(1, entries)
    entries[(1, 0)] = ZERO
    assert table.t(1, 0) == LaurentPoly({-1: 1, 0: 1, 1: 1})


def test_solver_rejects_a_negative_stalk_coefficient(monkeypatch):
    # a negative coefficient below q^0 passes the peel and lands in f_1
    real = ic_engine.sum_of_products
    monkeypatch.setattr(ic_engine, "sum_of_products",
                        lambda pairs: real(pairs) + LaurentPoly({-1: 2}))
    ic_engine._solve_rank.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="inconsistent recursion"):
            solve_stalk_tables(3)
    finally:
        ic_engine._solve_rank.cache_clear()


def test_the_solver_leaves_og_poincare_cache_empty():
    ic_engine._solve_rank.cache_clear()
    og_poincare.cache_clear()
    stalks, mult = solve_stalk_tables(24)
    assert og_poincare.cache_info().currsize == 0
    for i in range(1, 25):
        assert stalks.f[i] == closed_form_f(24, i), i
        for j in range(i + 1):
            assert mult.t(i, j) == closed_form_t(24, i, j), (i, j)


def test_cross_rank_reduction():
    for n in range(2, 9):
        mult = solve_stalk_tables(n)[1]
        for i in range(1, n + 1):
            for j in range(1, i):
                assert mult.t(i, j) == solve_stalk_tables(n - j)[1].t(i - j, 0), (n, i, j)


def test_recomposition_identity():
    # og_{i,2n+1}(q) q^(-m_i) = sum_j f_j T^i_j reassembled exactly
    for n in range(1, 9):
        stalks, mult = solve_stalk_tables(n)
        for i in range(1, n + 1):
            lhs = og_poincare(i, n).shift(-i * (2 * n - i + 1) // 2)
            rhs = LaurentPoly()
            for j in range(i + 1):
                rhs = rhs + stalks.f[j] * mult.t(i, j)
            assert lhs == rhs, (n, i)


def test_f_support_and_parity():
    for n in range(1, 9):
        stalks = solve_stalk_tables(n)[0]
        for i in range(1, n + 1):
            f = stalks.f[i]
            m_i = i * (2 * n - i + 1) // 2
            assert f.min_exp == -m_i and f.max_exp <= -1
            shifted = f.shift(m_i)
            assert shifted.nonneg_coeffs()
            assert all(e % 2 == 0 for e in shifted.support())


def test_t_support_bound_attained():
    for n in range(1, 9):
        mult = solve_stalk_tables(n)[1]
        for i in range(1, n + 1):
            for j in range(i + 1):
                t = mult.t(i, j)
                bound = (i - j) * (n - i)
                assert t.max_exp == bound and t.min_exp == -bound, (n, i, j)


def test_table_validation():
    with pytest.raises(ValueError):
        StalkTable(1, (ONE, ONE))  # f_1 not negatively supported
    with pytest.raises(ValueError):
        StalkTable(1, (LaurentPoly({-1: 1}), LaurentPoly({-1: 1})))  # f_0 != 1
    with pytest.raises(ValueError):
        MultiplicityTable(1, {(1, 1): LaurentPoly({1: 1})})  # not symmetric
    with pytest.raises(ValueError):
        MultiplicityTable(1, {(1, 0): LaurentPoly({-1: -1, 1: -1})})  # negative


# -- peeling the symmetric part ---------------------------------------------------


def peel_per_coefficient(residue):
    """Reference peel: one subtraction per coefficient, from the top exponent down."""
    sym = {}
    top = residue.max_exp if not residue.is_zero else -1
    for k in range(max(top, 0), 0, -1):
        c = residue[k]
        if c < 0:
            raise RuntimeError("inconsistent recursion")
        if c:
            sym[k] = sym[-k] = c
            residue = residue - LaurentPoly({k: c, -k: c})
    c = residue[0]
    if c < 0:
        raise RuntimeError("inconsistent recursion")
    if c:
        sym[0] = c
        residue = residue - LaurentPoly({0: c})
    return LaurentPoly(sym), residue


def test_peel_hand_residues():
    residue = LaurentPoly({2: 1, 1: 3, 0: 2, -1: 5, -2: 1, -4: 7})
    assert _peel_symmetric(residue) == (
        LaurentPoly({2: 1, 1: 3, 0: 2, -1: 3, -2: 1}),
        LaurentPoly({-1: 2, -4: 7}),
    )
    # the remainder may reach below the residue's own support
    assert _peel_symmetric(LaurentPoly({3: 2})) == (
        LaurentPoly({3: 2, -3: 2}),
        LaurentPoly({-3: -2}),
    )
    assert _peel_symmetric(LaurentPoly({0: 4, -2: 1})) == (LaurentPoly({0: 4}), LaurentPoly({-2: 1}))
    negative = LaurentPoly({-1: 1, -3: -2})
    assert _peel_symmetric(negative) == (ZERO, negative)
    assert _peel_symmetric(ZERO) == (ZERO, ZERO)


def test_peel_rejects_negative_multiplicities():
    with pytest.raises(RuntimeError, match="inconsistent recursion"):
        _peel_symmetric(LaurentPoly({3: 1, 2: -1, 0: 1, -3: 1}))  # negative at q^2
    with pytest.raises(RuntimeError, match="inconsistent recursion"):
        _peel_symmetric(LaurentPoly({1: 1, 0: -1, -1: 1}))  # negative constant term
    with pytest.raises(RuntimeError, match="inconsistent recursion"):
        _peel_symmetric(LaurentPoly({0: -1, -2: 5}))


@settings(max_examples=100)
@given(st.dictionaries(
    st.integers(min_value=-12, max_value=12),
    st.one_of(st.integers(min_value=-1, max_value=9), st.integers(min_value=0, max_value=2**70)),
    max_size=14,
).map(LaurentPoly))
def test_peel_matches_per_coefficient_reference(residue):
    try:
        expected = peel_per_coefficient(residue)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="inconsistent recursion"):
            _peel_symmetric(residue)
        return
    sym, remainder = _peel_symmetric(residue)
    assert (sym, remainder) == expected
    assert sym.is_symmetric() and sym + remainder == residue


# -- stalk polynomials at arbitrary base points ---------------------------------


def test_ic_stalk_poly_examples():
    assert ic_stalk_poly(2, 1, 0) == LaurentPoly({-2: 1})
    # on-orbit stalk sits at -(dim orbit)/2
    for n in range(1, 6):
        for i in range(n + 1):
            d = i * (2 * n + 1 - i)
            assert ic_stalk_poly(n, i, i) == LaurentPoly({-d // 2: 1})
    # restriction shifts the rank n-j origin stalk down by s_j/2
    assert ic_stalk_poly(3, 2, 1) == LaurentPoly({-5: 1})


def test_ic_stalk_poly_consistency():
    for n in range(1, 7):
        stalks = solve_stalk_tables(n)[0]
        for i in range(1, n + 1):
            assert ic_stalk_poly(n, i, 0) == stalks.f[i]
            for j in range(i):
                s_j = j * (2 * n + 1 - j)
                expected = closed_form_f(n - j, i - j).shift(-s_j // 2)
                assert ic_stalk_poly(n, i, j) == expected, (n, i, j)
    with pytest.raises(ValueError):
        ic_stalk_poly(2, 1, 2)


# -- fake degrees ----------------------------------------------------------------


def test_fake_degree_examples():
    assert fake_degree_poly(2, 0) == LaurentPoly({4: 1})
    assert fake_degree_poly(2, 1) == LaurentPoly({2: 1})
    assert fake_degree_poly(2, 2) == LaurentPoly({1: 1, 3: 1})


def test_fake_degree_is_shifted_stalk():
    # P_i(q) = q^(n^2) f_i(q)
    for n in range(1, 9):
        stalks = solve_stalk_tables(n)[0]
        for i in range(n + 1):
            assert fake_degree_poly(n, i) == stalks.f[i].shift(n * n), (n, i)


# -- Fourier-transform table -----------------------------------------------------


def test_order_two_partition():
    assert order_two_partition(2, 1) == P((2, 1, 1, 1))
    assert order_two_partition(3, 0) == P((1,) * 7)
    with pytest.raises(ValueError):
        order_two_partition(2, 3)


def test_order_two_partition_equals_the_validated_partition():
    for n in range(31):
        for i in range(n + 1):
            p = order_two_partition(n, i)
            assert p == P([2] * i + [1] * (2 * n + 1 - 2 * i)), (n, i)
        for i in (-1, n + 1):
            with pytest.raises(ValueError, match="need 0 <= i <= n"):
                order_two_partition(n, i)


def test_ft_table_small():
    rows = ft_table(2)
    assert [r.trivial_target_dim for r in rows] == [1, 5, 10]
    assert [r.nontrivial_target_dim for r in rows] == [None, 4, 5]
    assert rows[0].nontrivial_monodromy is None
    assert rows[1].trivial_monodromy == "finite-tits"
    assert rows[1].nontrivial_monodromy == "infinite-braid"
    assert rows[2].orbit == OrbitLabel(2, P((2, 2, 1)))


def test_ft_table_dimension_identity():
    # C(2n,i) - C(2n,i-2) + C(2n+1,i-1) = C(2n+1,i)
    for n in range(1, 31):
        rows = ft_table(n)
        for i in range(1, n + 1):
            assert (
                rows[i].trivial_target_dim
                == rows[i].nontrivial_target_dim + rows[i - 1].trivial_target_dim
            ), (n, i)


# -- support classification -------------------------------------------------------


def test_ft_support_examples():
    assert ft_support_flag(OrbitLabel(3, P((3, 2, 2))), "trivial") == "proper"
    assert ft_support_flag(OrbitLabel(3, P((2, 2, 1, 1, 1))), "nontrivial") == "full"
    # gap-free, not order-two, not Richardson: outside the classified families
    assert ft_support_flag(OrbitLabel(3, P((3, 2, 1, 1))), "trivial") == "unknown"
    # order-two orbits have full support, the zero orbit and 2^n 1 included
    assert ft_support_flag(OrbitLabel(3, P((2, 2, 2, 1))), "trivial") == "full"
    for n in range(1, 5):
        for i in range(n + 1):
            orbit = OrbitLabel(n, order_two_partition(n, i))
            assert ft_support_flag(orbit, "trivial") == "full"


def test_ft_support_richardson_names():
    info = ft_support_info(OrbitLabel(1, P((3,))), "trivial")
    assert info == ft_support_info(OrbitLabel(3, P((7,))), "trivial")
    assert info.flag == "proper" and info.support_name == "g_1^0"
    assert not info.general_template
    # three odd parts at rank 2 lands in the i = 1 parabolic family
    info = ft_support_info(OrbitLabel(2, P((3, 1, 1))), "trivial")
    assert info.flag == "proper" and info.support_name == "g_1^1"
    assert info.general_template


def test_ft_support_nontrivial_requires_order_two():
    with pytest.raises(ValueError):
        ft_support_flag(OrbitLabel(3, P((3, 2, 2))), "nontrivial")
    with pytest.raises(ValueError):
        ft_support_flag(OrbitLabel(2, P((1, 1, 1, 1, 1))), "nontrivial")
    with pytest.raises(ValueError):
        ft_support_flag(OrbitLabel(2, P((2, 2, 1))), "other")
