"""Exact integer Laurent-polynomial arithmetic in one variable q.

Coefficients are Python integers, so every operation is exact; there is no
floating point anywhere in this module.  On top of the core arithmetic we
provide the closed-form Poincare polynomials that the rest of the package
consumes: Gaussian binomials g_{k,m}(q) (Poincare polynomial of the
Grassmannian Gr(k, m)), orthogonal Grassmannians OGr(i, 2n+1), and quadrics
of arbitrary rank, together with the q-identity relating them.

Throughout the package the exponent a of q records the dimension of a
cohomology group in (topological) degree 2a; odd-degree cohomology vanishes
for every space we touch, so nothing is lost.

A LaurentPoly keeps its lowest exponent and the dense, trimmed tuple of
coefficients from there up, so storage grows with the span max_exp - min_exp
rather than with the number of nonzero terms.  Products go through one
big-integer multiplication (Kronecker substitution), division by 1 - q^l,
the only divisor the closed forms use, is a strided prefix sum, and the
symmetric peel of the stalk solver in ic_engine reads and rebuilds a
coefficient range with :meth:`LaurentPoly.coefficients` and
:meth:`LaurentPoly.from_coeffs` in one pass over the span.  The class
docstring lists the cost of each operation.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from array import array
from typing import Iterable, Mapping, Union

__all__ = [
    "LaurentPoly",
    "ZERO",
    "ONE",
    "Q",
    "one_minus_q",
    "gaussian_binomial",
    "og_poincare",
    "quadric_betti",
    "verify_sum_identity",
    "eval_at_one",
]

PairsOrMap = Union[Mapping[int, int], Iterable[tuple[int, int]]]

# Signed machine integer types by size, for Kronecker slots of 1 to 8 bytes.
_SLOT_TYPES = sorted({array(t).itemsize: t for t in "bhiq"}.items())
_ORDER = sys.byteorder

# With at most this many nonzero terms in the shorter factor, multiplication
# adds shifted scalar multiples of the longer factor instead of packing both
# into big integers; the factors 1 - q^l of the closed forms take this path.
# Products whose shorter factor has 3 to 8 nonzero terms (120 of them in
# `stalks --n 20 --check`) ran 1.7x faster by Kronecker substitution on a
# 2-vCPU Xeon under Python 3.11.
_SCHOOLBOOK_TERMS = 2


class LaurentPoly:
    """A finitely supported integer Laurent polynomial in q.

    Instances are immutable and hashable; two polynomials compare equal iff
    they have identical support and coefficients.  Arithmetic (+, -, *, **)
    is exact; division is available only through :meth:`exact_div`, which
    insists on a zero remainder.

    The coefficients are stored densely: ``_lo`` is the lowest exponent and
    ``_c`` the tuple of coefficients of q^_lo, q^(_lo+1), ..., trimmed so that
    its first and last entries are nonzero; the zero polynomial has
    ``_lo = 0`` and ``_c = ()``.  Storage is therefore proportional to the
    span max_exp - min_exp, not to the number of nonzero terms.  The
    polynomials this package builds are dense apart from the gaps left by
    q -> q^2 and inside the factors 1 - q^l, so the trade costs nothing here;
    a sparse polynomial of huge span, such as 1 + q^(10^9), would not fit.
    With n the span of the longer operand, the costs are:

    - ``+``, ``-``, shifts, comparisons, :meth:`coefficients` and
      :meth:`from_coeffs`: O(n);
    - ``*``: one big-integer product of the coefficient sequences packed
      into fixed-width slots (Kronecker substitution) and O(n) work around
      it; a factor with at most 2 nonzero terms, such as 1 - q^l, is
      applied as shifted scalar multiples instead, O(n);
    - :meth:`exact_div` by 1 - q^l: a strided prefix sum, O(n); by anything
      else, monomials included: long division, O(n (m + 1)) for a divisor
      of span m.
    """

    __slots__ = ("_lo", "_c", "_hash")

    def __init__(self, coeffs: PairsOrMap = ()):
        data: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for e, c in items:
            if not isinstance(e, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be ints")
            data[e] = data.get(e, 0) + c
        support = [e for e, c in data.items() if c]
        lo = min(support, default=0)
        dense = [0] * (max(support, default=-1) - lo + 1)
        for e in support:
            dense[e - lo] = data[e]
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_c", tuple(dense))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def from_coeffs(cls, lo: int, coeffs: Iterable[int]) -> "LaurentPoly":
        """sum_k coeffs[k] q^(lo+k); zero coefficients at either end are dropped."""
        coeffs = list(coeffs)
        if not isinstance(lo, int) or not all(map(isinstance, coeffs, itertools.repeat(int))):
            raise TypeError("exponents and coefficients must be ints")
        return _trimmed(lo, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exp(self) -> int:
        """Smallest exponent with nonzero coefficient (zero polynomial is an error)."""
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return self._lo

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return self._lo + len(self._c) - 1

    def __getitem__(self, exp: int) -> int:
        k = exp - self._lo
        return self._c[k] if 0 <= k < len(self._c) else 0

    def __bool__(self) -> bool:
        return bool(self._c)

    def coefficients(self, start: int, stop: int) -> list[int]:
        """Coefficients of q^start, q^(start+1), ..., q^(stop-1), zeros included."""
        lo, c = self._lo, self._c
        head = max(0, min(lo, stop) - start)
        tail = max(0, stop - max(lo + len(c), start))
        return [0] * head + list(c[max(0, start - lo):max(0, stop - lo)]) + [0] * tail

    def support(self) -> list[int]:
        return [self._lo + k for k, c in enumerate(self._c) if c]

    def to_pairs(self) -> list[tuple[int, int]]:
        """Sorted (exponent, coefficient) pairs; the canonical serialization order."""
        return [(self._lo + k, c) for k, c in enumerate(self._c) if c]

    def json_pairs(self) -> list[list]:
        """JSON form: [exponent, coefficient-as-decimal-string] pairs sorted by exponent."""
        return [[e, str(c)] for e, c in self.to_pairs()]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _add(self, other, operator.add)

    def __neg__(self) -> "LaurentPoly":
        return _new(self._lo, tuple([-c for c in self._c]))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _add(self, other, operator.sub)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return _new(self._lo, tuple([c * other for c in self._c]))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) - a.count(0) <= _SCHOOLBOOK_TERMS:
            c = _mul_scaled_shifts(a, b)
        else:
            c = _mul_kronecker(a, b)
        # the product of the two nonzero end coefficients survives, so no trim
        return _new(self._lo + other._lo, c)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ArithmeticError unless the remainder is zero."""
        b = other._c
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        a = self._c
        if not a:
            return ZERO
        if len(a) < len(b):
            raise ArithmeticError("inexact polynomial division")
        lo = self._lo - other._lo
        m = len(b) - 1
        if b[0] == 1 and b[-1] == -1 and not any(b[1:-1]):
            quot = _div_one_minus_q(a, m)
        else:
            quot = _div_long(a, b)
        # dividend and divisor are trimmed, so an exact quotient is too
        return _new(lo, tuple(quot))

    # -- structural helpers --------------------------------------------------

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return _new(self._lo + k, self._c)

    def subs_power(self, r: int) -> "LaurentPoly":
        """Substitute q -> q^r (r a positive integer)."""
        if r < 1:
            raise ValueError("substitution power must be positive")
        if not self._c:
            return ZERO
        dense = [0] * ((len(self._c) - 1) * r + 1)
        dense[::r] = self._c
        return _new(self._lo * r, tuple(dense))

    def reciprocal(self) -> "LaurentPoly":
        """Substitute q -> q^(-1)."""
        if not self._c:
            return ZERO
        return _new(-self.max_exp, self._c[::-1])

    def is_symmetric(self) -> bool:
        """True iff invariant under q -> q^(-1)."""
        c = self._c
        return not c or (self._lo == -self.max_exp and c == c[::-1])

    def nonneg_coeffs(self) -> bool:
        return min(self._c, default=0) >= 0

    def eval_at_one(self) -> int:
        return sum(self._c)

    # -- comparisons, display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._lo == other._lo and self._c == other._c

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(tuple(self.to_pairs()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_pairs()!r})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        terms = []
        for e, c in self.to_pairs():
            if e == 0:
                body = str(abs(c))
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                body = qpart if abs(c) == 1 else f"{abs(c)}*{qpart}"
            terms.append((c < 0, body))
        out = ("-" if terms[0][0] else "") + terms[0][1]
        for neg, body in terms[1:]:
            out += (" - " if neg else " + ") + body
        return out


def _new(lo: int, c: tuple[int, ...]) -> LaurentPoly:
    """A polynomial from an already trimmed coefficient tuple."""
    if not c:
        return ZERO
    p = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(p, "_lo", lo)
    object.__setattr__(p, "_c", c)
    object.__setattr__(p, "_hash", None)
    return p


def _trimmed(lo: int, c: list[int]) -> LaurentPoly:
    """The polynomial sum_k c[k] q^(lo+k), dropping zeros at both ends of c."""
    start, stop = 0, len(c)
    while stop and not c[stop - 1]:
        stop -= 1
    while start < stop and not c[start]:
        start += 1
    return _new(lo + start, tuple(c[start:stop]))


def _add(x: LaurentPoly, y: LaurentPoly, op) -> LaurentPoly:
    """x + y or x - y (op is operator.add or operator.sub), trimmed."""
    if not y._c:
        return x
    if not x._c:
        return y if op is operator.add else _new(y._lo, tuple([-c for c in y._c]))
    lo = min(x._lo, y._lo)
    hi = max(x.max_exp, y.max_exp)
    out = [0] * (hi - lo + 1)
    i = x._lo - lo
    out[i:i + len(x._c)] = x._c
    i = y._lo - lo
    j = i + len(y._c)
    out[i:j] = map(op, out[i:j], y._c)
    return _trimmed(lo, out)


def _mul_scaled_shifts(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product coefficients as the sum of a[i] * b shifted by i over nonzero a[i]."""
    n = len(b)
    out = [0] * (len(a) + n - 1)
    for i, x in enumerate(a):
        if x:
            terms = b if x in (1, -1) else map(abs(x).__mul__, b)
            out[i:i + n] = map(operator.sub if x < 0 else operator.add, out[i:i + n], terms)
    return tuple(out)


def _mul_kronecker(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product coefficients by Kronecker substitution.

    Each sequence c is read as the integer sum_k c[k] * 2^(s k) with slots of
    s = 8w bits, wide enough that every product coefficient, a sum of at most
    len(a) products, lies strictly inside (-2^(s-1), 2^(s-1)); the one
    big-integer product is then read back slot by slot.  Slots hold
    two's-complement values: with H the integer whose every slot is
    2^(s-1), (X ^ H) - H turns the concatenated two's-complement slots X
    into the signed sum, and (P + H) ^ H turns the signed sum P back.  Slots
    of a machine integer width go through array; wider ones, needed once
    that bound reaches 2^63, are converted one by one.  Bytes are in native
    order throughout: on a big-endian machine every integer is the reversed
    sequence, and the product of two reversed sequences is the reversed
    product, so the slots come back in order.
    """
    bound = len(a) * max(map(abs, a)) * max(map(abs, b))
    w = (bound.bit_length() + 8) // 8
    code = None
    for size, t in _SLOT_TYPES:
        if size >= w:
            w, code = size, t
            break
    n = len(a) + len(b) - 1
    slot = (1 << (8 * w - 1)).to_bytes(w, _ORDER)

    def offset(length):
        return int.from_bytes(slot * length, _ORDER)

    def pack(c):
        if code is not None:
            raw = array(code, c).tobytes()
        else:
            raw = b"".join([x.to_bytes(w, _ORDER, signed=True) for x in c])
        h = offset(len(c))
        return (int.from_bytes(raw, _ORDER) ^ h) - h

    h = offset(n)
    raw = ((pack(a) * pack(b) + h) ^ h).to_bytes(n * w, _ORDER)
    if code is not None:
        return tuple(array(code, raw))
    return tuple([int.from_bytes(raw[k:k + w], _ORDER, signed=True)
                  for k in range(0, n * w, w)])


def _div_one_minus_q(a: tuple[int, ...], l: int) -> list[int]:
    """Quotient of a by 1 - q^l, from Q_k = A_k + Q_(k-l).

    Run over all len(a) positions, the recurrence leaves a[k] + Q_(k-l) =
    Q_k in the top l slots, which vanish exactly when the division is exact.
    The caller guarantees len(a) > l.
    """
    q = list(a)
    for r in range(l):
        q[r::l] = itertools.accumulate(q[r::l])
    if any(q[len(q) - l:]):
        raise ArithmeticError("inexact polynomial division")
    del q[len(q) - l:]
    return q


def _div_long(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Dense long division from the top; the remainder must vanish."""
    m = len(b) - 1
    lead = b[-1]
    r = list(a)
    quot = [0] * (len(a) - m)
    for k in range(len(quot) - 1, -1, -1):
        top = r[k + m]
        if top:
            if top % lead:
                raise ArithmeticError("inexact polynomial division")
            c = top // lead
            quot[k] = c
            r[k:k + m + 1] = map(operator.sub, r[k:k + m + 1], map(c.__mul__, b))
    if any(r[:m]):
        raise ArithmeticError("inexact polynomial division")
    return quot


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly({1: 1})


def one_minus_q(l: int) -> LaurentPoly:
    """The factor 1 - q^l."""
    return LaurentPoly({0: 1, l: -1})


@functools.lru_cache(maxsize=None)
def gaussian_binomial(k: int, m: int) -> LaurentPoly:
    """Gaussian binomial g_{k,m}(q), the Poincare polynomial of Gr(k, m).

    Computed as prod_{l=m-k+1}^{m} (1-q^l) / prod_{l=1}^{k} (1-q^l) by exact
    long division.  The result has nonnegative coefficients, degree k(m-k)
    and palindromic coefficient sequence.
    """
    if k < 0 or m < 0 or k > m:
        raise ValueError(f"gaussian binomial needs 0 <= k <= m, got k={k}, m={m}")
    return _factor_ratio(range(m - k + 1, m + 1), range(1, k + 1))


@functools.lru_cache(maxsize=None)
def og_poincare(i: int, n: int) -> LaurentPoly:
    """Poincare polynomial of the orthogonal Grassmannian OGr(i, 2n+1).

    og_{i,2n+1}(q) = prod_{l=n-i+1}^{n} (1-q^{2l}) / prod_{l=1}^{i} (1-q^l),
    of degree i(4n-3i+1)/2.
    """
    if i < 0 or n < 0 or i > n:
        raise ValueError(f"og_poincare needs 0 <= i <= n, got i={i}, n={n}")
    return _factor_ratio(range(2 * (n - i + 1), 2 * n + 1, 2), range(1, i + 1))


def _factor_ratio(tops: range, bottoms: range) -> LaurentPoly:
    """prod (1-q^a) over tops / prod (1-q^b) over bottoms, one factor at a time."""
    out = ONE
    for a in tops:
        out = out * one_minus_q(a)
    for b in bottoms:
        out = out.exact_div(one_minus_q(b))
    return out


def quadric_betti(rank: int, ambient: int) -> LaurentPoly:
    """Even Betti numbers of the quadric sum_{s<=rank} b_s^2 = 0 in P^(ambient-1).

    The quadric is the join of a smooth quadric of dimension rank-2 with the
    linear subspace P^(ambient-rank-1) cut out by the quadric's coordinates,
    which gives

        betti(P^(ambient-rank-1)) + q^(ambient-rank) * betti(smooth quadric).

    Rank 0 returns the ambient projective space, rank 1 the reduced double
    hyperplane.  Odd cohomology vanishes, so the exponent-a coefficient is
    dim H^{2a}.
    """
    if not 0 <= rank <= ambient:
        raise ValueError(f"quadric rank must lie in [0, {ambient}], got {rank}")
    out = {a: 1 for a in range(ambient - rank)}
    d = rank - 2  # dimension of the smooth quadric in P^(rank-1)
    if d >= 0:
        for a in range(d + 1):
            out[ambient - rank + a] = out.get(ambient - rank + a, 0) + 1
        if d % 2 == 0:
            out[ambient - rank + d // 2] += 1
    return LaurentPoly(out)


def verify_sum_identity(n: int, i: int) -> bool:
    """Check og_{i,2n+1}(q) = sum_j q^((i-j)(i-j+1)/2) g_{[j/2],n}(q^2) g_{i-j,2n-i-j}(q).

    Exact comparison of both sides as Laurent polynomials.
    """
    if n < 1 or i < 0 or i > n:
        raise ValueError(f"verify_sum_identity needs 0 <= i <= n, n >= 1, got n={n}, i={i}")
    lhs = og_poincare(i, n)
    rhs = ZERO
    for j in range(i + 1):
        term = gaussian_binomial(j // 2, n).subs_power(2)
        term = term * gaussian_binomial(i - j, 2 * n - i - j)
        rhs = rhs + term.shift((i - j) * (i - j + 1) // 2)
    return lhs == rhs


def eval_at_one(p: LaurentPoly) -> int:
    """Sum of coefficients, i.e. the Euler characteristic attached to p."""
    return p.eval_at_one()
