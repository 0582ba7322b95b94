"""Stalk polynomials and decomposition multiplicities for order-two orbits.

For each rank n the pushforward along the two-step resolution of the closure
of O_{2^i 1^(2n+1-2i)} decomposes into shifted IC sheaves of the smaller
order-two orbits.  Writing f_i(q) for the stalk polynomial of the i-th IC
sheaf at the origin and T^i_j(q) = sum_k t^i_{j,2k} q^{+-k} for the
multiplicity generating functions, the fiber over the origin is OGr(i, 2n+1)
and therefore

    og_{i,2n+1}(q) * q^(-i(2n-i+1)/2) = sum_{j=0}^{i} f_j(q) * T^i_j(q)

with f_0 = 1 and T^i_i = 1.  The T^i_j with j >= 1 reduce across ranks,
(T^i_j at rank n) = (T^{i-j}_0 at rank n-j), which makes the system above
triangular: peeling the symmetric part of the residue yields T^i_0 and the
strictly negative remainder is f_i.  This module implements that solver, the
closed forms it must agree with, stalk polynomials at arbitrary base orbits
and fake degrees.  The Fourier-transform classification of these orbits is
orbit combinatorics and lives in partitions.

Grading convention: exponent a records dim H^{2a} in the absolute grading
where the on-orbit stalk of an IC sheaf sits at a = -(dim orbit)/2.  All
orbit dimensions in this family are even, so a is always an integer.
"""

import functools
from types import MappingProxyType

from . import _EXPORTS
from ._record import Record
from .qseries import ONE, ZERO, LaurentPoly, _step, gaussian_binomial, sum_of_products

__all__ = _EXPORTS["ic_engine"].split() + ["GRADING_NOTE"]

GRADING_NOTE = (
    "exponent a records dim H^{2a}; the on-orbit stalk of an IC sheaf sits "
    "at a = -(dim orbit)/2"
)


class StalkTable(Record):
    """Origin stalk polynomials f_0..f_n for one rank: f is a tuple of LaurentPoly,
    kept as a copy of the caller's sequence.

    f_0 = 1 and every f_i with i >= 1 is supported in strictly negative
    exponents, inside [-i(2n-i+1)/2, -1].
    """

    __slots__ = ("rank", "f")

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        if len(self.f) != self.rank + 1:
            raise ValueError("need exactly rank+1 stalk polynomials")
        if self.f[0] != ONE:
            raise ValueError("f_0 must be 1")
        for i, poly in enumerate(self.f[1:], start=1):
            if poly.is_zero or poly.max_exp > -1:
                raise ValueError(f"f_{i} must be supported in negative exponents")


class MultiplicityTable(Record):
    """Symmetric multiplicity polynomials T^i_j, 1 <= i <= rank, 0 <= j <= i.

    entries, a mapping (i, j) -> LaurentPoly, is kept as a read-only view of
    a private copy: a record is immutable, so neither the caller's mapping nor
    the table's own may change its entries after they are checked.
    """

    __slots__ = ("rank", "entries")

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        for (i, j), poly in self.entries.items():
            if not poly.is_symmetric() or not poly.nonneg_coeffs():
                raise ValueError(f"T^{i}_{j} must be symmetric with nonnegative coefficients")
            if i == j and poly != ONE:
                raise ValueError(f"T^{i}_{i} must be 1")

    def __reduce__(self):  # a mappingproxy does not pickle
        return self.__class__, (self.rank, dict(self.entries))

    def t(self, i: int, j: int) -> LaurentPoly:
        if not 0 <= j <= i <= self.rank:
            raise ValueError(f"need 0 <= j <= i <= {self.rank}, got i={i}, j={j}")
        return self.entries[(i, j)]


def solve_stalk_tables(n: int) -> tuple[StalkTable, MultiplicityTable]:
    """Solve every rank up to n, memoizing only each rank's f_i and T^i_0.

    Each call builds, and checks, the two tables of rank n from them.  Raises
    RuntimeError("inconsistent recursion") if peeling ever produces a
    negative multiplicity or an f_i with a negative coefficient; both would
    contradict f_i = q^(-i(2n-i+1)/2) g_{[i/2],n}(q^2) and the uniqueness of
    the decomposition.  Each rank walks its own chain og_{1..n,2n+1} and
    leaves og_poincare's cache alone: the solver reads each og_{i,2n+1} once.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    # ascending warm-up keeps _solve_rank's recursion into smaller ranks one deep
    for rank in range(1, n):
        _solve_rank(rank)
    # cross-rank reduction: T^i_j at rank n is T^{i-j}_0 at rank n-j
    entries = {(i, j): _solve_rank(n - j)[1][i - j] for i in range(1, n + 1) for j in range(i + 1)}
    return StalkTable(n, _solve_rank(n)[0]), MultiplicityTable(n, entries)


def _solver_cases(n):
    """The solver against the closed forms: the cases of rank n as (label,
    passed), in a fixed order, for verify and stalks --check."""
    stalks, mult = solve_stalk_tables(n)
    yield from ((f"f n={n} i={i}", stalks.f[i] == closed_form_f(n, i)) for i in range(n + 1))
    yield from ((f"t n={n} i={i} j={j}", mult.t(i, j) == closed_form_t(n, i, j))
                for i in range(1, n + 1) for j in range(i + 1))


@functools.cache
def _solve_rank(n: int) -> tuple[tuple[LaurentPoly, ...], tuple[LaurentPoly, ...]]:
    """(f_0, ..., f_n) and (T^0_0, ..., T^n_0) at rank n, with f_0 = T^0_0 = 1."""
    f: list[LaurentPoly] = [ONE]
    t0: list[LaurentPoly] = [ONE]
    og = ONE
    for i in range(1, n + 1):
        og = _step(og, 2 * (n - i + 1), i)
        residue = (og.shift(-i * (2 * n - i + 1) // 2)
                   - sum_of_products((f[j], _solve_rank(n - j)[1][i - j]) for j in range(1, i)))
        sym, remainder = _peel_symmetric(residue)
        if not remainder.nonneg_coeffs():
            raise RuntimeError("inconsistent recursion")
        f.append(remainder)
        t0.append(sym)
    return tuple(f), tuple(t0)


def _peel_symmetric(residue: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Split residue = (symmetric part) + (negatively supported remainder).

    The symmetric part repeats each coefficient c at q^k, k >= 0, at q^-k,
    and the remainder is residue minus it, supported below q^0: one pass
    over the span.  A negative coefficient at q^k, k > 0, or at q^0 would be
    a negative multiplicity and raises RuntimeError("inconsistent recursion").
    """
    top = residue.max_exp if not residue.is_zero else -1
    if top < 0:
        return ZERO, residue
    upper = residue.coefficients(0, top + 1)
    if min(upper) < 0:
        raise RuntimeError("inconsistent recursion")
    sym = LaurentPoly.from_coeffs(-top, upper[:0:-1] + upper)
    return sym, residue - sym


def closed_form_f(n: int, i: int) -> LaurentPoly:
    """f_i(q) = q^(-i(2n-i+1)/2) g_{[i/2],n}(q^2)."""
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    return gaussian_binomial(i // 2, n).subs_power(2).shift(-i * (2 * n - i + 1) // 2)


def closed_form_t(n: int, i: int, j: int) -> LaurentPoly:
    """T^i_j(q) = q^(-(i-j)(n-i)) g_{i-j,2n-i-j}(q); symmetric by palindromicity."""
    if not 0 <= j <= i <= n:
        raise ValueError(f"need 0 <= j <= i <= n, got n={n}, i={i}, j={j}")
    return gaussian_binomial(i - j, 2 * n - i - j).shift(-(i - j) * (n - i))


def _json_text(n: int):
    """The text of `springerq stalks --format json`, a piece per polynomial:
    what json.dumps(doc, indent=2) + "\n" writes for doc = {"rank": n,
    "grading": GRADING_NOTE, "f": [f_i.json_pairs() for i in 0..n], "t":
    [[T^i_j.json_pairs() for j in 0..i] for i in 1..n]}, from the closed
    forms.  No polynomial is zero, so no array is empty."""
    def poly(p, pair, end):
        return "[" + ",".join([pair % ec for ec in p.to_pairs()]) + end
    f_pair, t_pair = (f'\n{s}[\n{s}  %d,\n{s}  "%d"\n{s}]' for s in (" " * 6, " " * 8))
    yield f'{{\n  "rank": {n},\n  "grading": "{GRADING_NOTE}",\n  "f": ['
    for i in range(n + 1):
        yield (",\n    " if i else "\n    ") + poly(closed_form_f(n, i), f_pair, "\n    ]")
    opening = '\n  ],\n  "t": [\n    [\n      '
    for i in range(1, n + 1):
        for j in range(i + 1):
            yield (",\n      " if j else opening) + poly(closed_form_t(n, i, j), t_pair, "\n      ]")
        opening = "\n    ],\n    [\n      "
    yield "\n    ]\n  ]\n}\n"


def ic_stalk_poly(n: int, i: int, j: int) -> LaurentPoly:
    """Stalk polynomial of the i-th order-two IC sheaf at a point of the j-th orbit.

    Restriction to a base point of O_{2^j ...} shifts the origin stalk of the
    rank n-j sheaf by s_j = j(2n+1-j) = dim O_{2^i ...} - dim O_{2^{i-j} ...},
    so in the absolute grading the answer is closed_form_f(n-j, i-j) times
    q^(-s_j/2).  The same polynomials compute the symplectic 2^i 1^(2n-2i) stalks.
    """
    if not 0 <= j <= i <= n:
        raise ValueError(f"need 0 <= j <= i <= n, got n={n}, i={i}, j={j}")
    return closed_form_f(n - j, i - j).shift(-j * (2 * n + 1 - j) // 2)


def fake_degree_poly(n: int, i: int) -> LaurentPoly:
    """Graded multiplicity in the coinvariant algebra: q^(n^2-ni+i(i-1)/2) g_{[i/2],n}(q^2).

    Equals q^(n^2) * f_i(q), tying the fake degrees to the origin stalks.
    """
    return closed_form_f(n, i).shift(n * n)
