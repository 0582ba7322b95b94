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
closed forms it must agree with, stalk polynomials at arbitrary base orbits,
fake degrees, and the Fourier-transform classification table.

Grading convention: exponent a records dim H^{2a} in the absolute grading
where the on-orbit stalk of an IC sheaf sits at a = -(dim orbit)/2.  All
orbit dimensions in this family are even, so a is always an integer.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .partitions import OrbitLabel, Partition, _classify
from .qseries import LaurentPoly, ONE, ZERO, gaussian_binomial, og_poincare, sum_of_products
from ._util import binom

__all__ = [
    "StalkTable",
    "MultiplicityTable",
    "FourierTableRow",
    "SupportInfo",
    "solve_stalk_tables",
    "closed_form_f",
    "closed_form_t",
    "ic_stalk_poly",
    "fake_degree_poly",
    "ft_table",
    "ft_support_flag",
    "ft_support_info",
    "GRADING_NOTE",
]

GRADING_NOTE = (
    "exponent a records dim H^{2a}; the on-orbit stalk of an IC sheaf sits "
    "at a = -(dim orbit)/2"
)


@dataclass(frozen=True)
class StalkTable:
    """Origin stalk polynomials f_0..f_n for one rank.

    f_0 = 1 and every f_i with i >= 1 is supported in strictly negative
    exponents, inside [-i(2n-i+1)/2, -1].
    """

    rank: int
    f: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if len(self.f) != self.rank + 1:
            raise ValueError("need exactly rank+1 stalk polynomials")
        if self.f[0] != ONE:
            raise ValueError("f_0 must be 1")
        for i, poly in enumerate(self.f[1:], start=1):
            if poly.is_zero or poly.max_exp > -1:
                raise ValueError(f"f_{i} must be supported in negative exponents")


@dataclass(frozen=True)
class MultiplicityTable:
    """Symmetric multiplicity polynomials T^i_j, 1 <= i <= rank, 0 <= j <= i.

    entries is a read-only view of a private copy: solved tables are memoized
    and shared across ranks, so no caller may change them.
    """

    rank: int
    entries: Mapping[tuple[int, int], LaurentPoly]

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        for (i, j), poly in self.entries.items():
            if not poly.is_symmetric() or not poly.nonneg_coeffs():
                raise ValueError(f"T^{i}_{j} must be symmetric with nonnegative coefficients")
            if i == j and poly != ONE:
                raise ValueError(f"T^{i}_{i} must be 1")

    def t(self, i: int, j: int) -> LaurentPoly:
        if not 0 <= j <= i <= self.rank:
            raise ValueError(f"need 0 <= j <= i <= {self.rank}, got i={i}, j={j}")
        return self.entries[(i, j)]

    def t_coeff(self, i: int, j: int, k2: int) -> int:
        """The multiplicity t^i_{j,k2} at cohomological shift k2 (0 for odd k2)."""
        if k2 % 2:
            return 0
        return self.t(i, j)[k2 // 2]


def solve_stalk_tables(n: int) -> tuple[StalkTable, MultiplicityTable]:
    """Solve the inductive system for every rank up to n; results are memoized.

    Raises RuntimeError("inconsistent recursion") if peeling ever produces a
    negative multiplicity or a remainder with a nonnegative exponent; both
    would contradict the uniqueness of the decomposition.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    # ascending warm-up keeps _solve_rank's recursion into smaller ranks one deep
    for rank in range(1, n):
        _solve_rank(rank)
    return _solve_rank(n)


@functools.cache
def _solve_rank(n: int) -> tuple[StalkTable, MultiplicityTable]:
    f: list[LaurentPoly] = [ONE]
    entries: dict[tuple[int, int], LaurentPoly] = {}
    for i in range(1, n + 1):
        entries[(i, i)] = ONE
        for j in range(1, i):
            # cross-rank reduction: T^i_j here is T^{i-j}_0 at rank n-j
            entries[(i, j)] = _solve_rank(n - j)[1].entries[(i - j, 0)]
        residue = (og_poincare(i, n).shift(-i * (2 * n - i + 1) // 2)
                   - sum_of_products((f[j], entries[(i, j)]) for j in range(1, i)))
        t0, remainder = _peel_symmetric(residue)
        entries[(i, 0)] = t0
        if not remainder.is_zero and remainder.max_exp >= 0:
            raise RuntimeError("inconsistent recursion")
        f.append(remainder)
    return StalkTable(n, tuple(f)), MultiplicityTable(n, entries)


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


def ic_stalk_poly(n: int, i: int, j: int) -> LaurentPoly:
    """Stalk polynomial of the i-th order-two IC sheaf at a point of the j-th orbit.

    Restriction to a base point of O_{2^j ...} shifts the origin stalk of the
    rank n-j sheaf by s_j = j(2n+1-j) = dim O_{2^i ...} - dim O_{2^{i-j} ...},
    so in the absolute grading the answer is q^(-s_j/2) f_{i-j} at rank n-j.
    The same polynomials compute the symplectic 2^i 1^(2n-2i) stalks.
    """
    if not 0 <= j <= i <= n:
        raise ValueError(f"need 0 <= j <= i <= n, got n={n}, i={i}, j={j}")
    s_j = j * (2 * n + 1 - j)
    if i == j:
        return ONE.shift(-s_j // 2)
    f = solve_stalk_tables(n - j)[0].f[i - j]
    return f.shift(-s_j // 2)


def fake_degree_poly(n: int, i: int) -> LaurentPoly:
    """Graded multiplicity in the coinvariant algebra: q^(n^2-ni+i(i-1)/2) g_{[i/2],n}(q^2).

    Equals q^(n^2) * f_i(q), tying the fake degrees to the origin stalks.
    """
    return closed_form_f(n, i).shift(n * n)


@dataclass(frozen=True)
class FourierTableRow:
    """One row of the Fourier-transform classification for order-two orbits.

    The trivial local system transforms to a local system of dimension
    C(2n+1, i) with finite (Tits-group) monodromy; the nontrivial one (absent
    for i = 0) to a local system of dimension C(2n, i) - C(2n, i-2) with
    infinite braid-group monodromy.
    """

    i: int
    orbit: OrbitLabel
    trivial_target_dim: int
    nontrivial_target_dim: Optional[int]
    trivial_monodromy: str = "finite-tits"
    nontrivial_monodromy: Optional[str] = None


def order_two_partition(n: int, i: int) -> Partition:
    """The partition 2^i 1^(2n+1-2i)."""
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    return Partition((2,) * i + (1,) * (2 * n + 1 - 2 * i))


def _ft_rows(n: int) -> Iterator[FourierTableRow]:
    """The row of each i in [0, n], made as it is consumed."""
    for i in range(n + 1):
        yield FourierTableRow(
            i=i,
            orbit=OrbitLabel(n, order_two_partition(n, i)),
            trivial_target_dim=binom(2 * n + 1, i),
            nontrivial_target_dim=binom(2 * n, i) - binom(2 * n, i - 2) if i >= 1 else None,
            nontrivial_monodromy="infinite-braid" if i >= 1 else None,
        )


def ft_table(n: int) -> tuple[FourierTableRow, ...]:
    """Rows i = 0..n of the Fourier-transform table.

    The dimensions satisfy trivial(i) = nontrivial(i) + trivial(i-1)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return tuple(_ft_rows(n))


@dataclass(frozen=True)
class SupportInfo:
    """Support classification of a Fourier transform.

    flag is "full", "proper" or "unknown".  For Richardson labels the target
    support is named: "g_1^0" for the single-odd-part template, "g_1^i" with
    i = (2n+1 - #odd parts)/2 otherwise; general_template marks the latter,
    whose label map is taken to be the same conjugation as in the
    single-odd-part case.
    """

    flag: str
    support_name: Optional[str] = None
    general_template: bool = False


def ft_support_info(o: OrbitLabel, local_system: str = "trivial") -> SupportInfo:
    """Classify the support of the Fourier transform of (orbit, local system).

    Order-two orbits have full support for both local systems; gapped labels
    and Richardson labels (trivial system) have proper support; anything else
    is reported as unknown rather than guessed.
    """
    if local_system not in ("trivial", "nontrivial"):
        raise ValueError(f"unknown local system {local_system!r}")
    parts = o.partition.parts
    if local_system == "nontrivial":
        if parts[0] != 2:  # order two with at least one 2
            raise ValueError(
                f"orbit {o.partition.serialize()} carries no nontrivial equivariant local system"
            )
        return SupportInfo("full", support_name="g_1")
    _, richardson, relevant, flag, name = _classify(parts)
    general = flag == "proper" and richardson and not relevant  # g_1^i with i > 0
    return SupportInfo(flag, name, general_template=general)


def ft_support_flag(o: OrbitLabel, local_system: str = "trivial") -> str:
    """Just the flag part of ft_support_info: "full", "proper" or "unknown"."""
    return ft_support_info(o, local_system).flag
