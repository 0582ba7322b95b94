"""Cohomology of Fano varieties of (i-1)-planes in a smooth intersection of
two quadrics in P^(2n).

H^(2k) decomposes as a sum of local systems L_j of dimension C(2n+1, j);
odd cohomology vanishes.  The multiplicity M_i(k, j) is the coefficient of
q^(k - i(n-i)) in the order-two decomposition multiplicity T^i_j, read off
its closed form; the solver's T^i_j give an independent route to the Betti
numbers, used for cross-checking.
"""

from collections.abc import Iterator

from . import _EXPORTS
from .qseries import LaurentPoly
from .ic_engine import closed_form_t, solve_stalk_tables
from ._record import Record
from ._util import binom

__all__ = _EXPORTS["fano"].split()


class FanoRow(Record):
    """Multiplicities in H^(2k): the pairs (j, M_i(k,j)) with M > 0 in terms,
    plus the Betti number."""

    __slots__ = ("k", "terms", "betti")


class FanoCohomology(Record):
    """Full even-cohomology table of the variety of (i-1)-planes, complex
    dimension 2i(n-i): a tuple of FanoRow for k = 0..2i(n-i), and
    l_dims[j] = dim L_j = C(2n+1, j)."""

    __slots__ = ("rank", "planes_index", "complex_dim", "rows", "l_dims")


def _l_dims(n: int, i: int) -> tuple[int, ...]:
    """dim L_j = C(2n+1, j) for j in [0, i]; raises ValueError unless 1 <= i <= n."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    return tuple(binom(2 * n + 1, j) for j in range(i + 1))


def _rows(n: int, i: int, l_dims: tuple[int, ...]) -> Iterator[FanoRow]:
    """The row of each k in [0, 2h], h = i(n-i), made as it is consumed; the
    M_i(k, j) of row k are the q^(k-h) coefficients of the T^i_j."""
    h = i * (n - i)
    columns = [closed_form_t(n, i, j).coefficients(-h, h + 1) for j in range(i + 1)]
    for k, ms in enumerate(zip(*columns)):
        terms = tuple((j, m) for j, m in enumerate(ms) if m > 0)
        yield FanoRow(k, terms, sum(l_dims[j] * m for j, m in terms))


def fano_multiplicities(n: int, i: int) -> FanoCohomology:
    """The table of M_i(k, j) for k in [0, 2i(n-i)], j in [0, i]."""
    l_dims = _l_dims(n, i)
    return FanoCohomology(n, i, 2 * i * (n - i), tuple(_rows(n, i, l_dims)), l_dims)


def fano_betti_poly(n: int, i: int) -> LaurentPoly:
    """sum_k b_{2k} q^k: the Betti column of the rows `springerq fano` prints,
    b_{2k} = sum_j C(2n+1, j) M_i(k, j) from the closed forms of T^i_j."""
    return LaurentPoly(enumerate(row.betti for row in _rows(n, i, _l_dims(n, i))))


def fano_betti_poly_from_multiplicities(n: int, i: int) -> LaurentPoly:
    """The same polynomial as sum_j C(2n+1, j) T^i_j q^(i(n-i)) over the
    solver's T^i_j, an independent route: must agree with fano_betti_poly."""
    l_dims = _l_dims(n, i)
    mult = solve_stalk_tables(n)[1]
    return sum((d * mult.t(i, j) for j, d in enumerate(l_dims)), LaurentPoly()).shift(i * (n - i))


def fano_lines_table(n: int) -> list[tuple[int, int, bool, bool]]:
    """Lower half of the cohomology of the variety of lines (i = 2), as
    (k, trivial multiplicity, includes L_1, includes L_2) for k <= 2n-4.

    The trivial multiplicity is [(k+2)/2], L_1 enters for n-2 <= k and L_2
    exactly at the middle k = 2n-4; the upper half is Poincare dual.  Raises
    for n < 3, where the three ranges degenerate, and RuntimeError if the
    table ever disagreed with fano_multiplicities(n, 2).
    """
    if n < 3:
        raise ValueError("example ranges degenerate")
    table = fano_multiplicities(n, 2)
    rows = []
    for k in range(2 * n - 4 + 1):
        trivial = (k + 2) // 2
        with_l1 = k >= n - 2
        with_l2 = k == 2 * n - 4
        expected = dict(table.rows[k].terms)
        stated = {0: trivial}
        if with_l1:
            stated[1] = 1
        if with_l2:
            stated[2] = 1
        if stated != expected:
            raise RuntimeError(
                f"fano lines table mismatch at n={n}, k={k}: {stated} != {expected}"
            )
        rows.append((k, trivial, with_l1, with_l2))
    return rows
