"""Exact integer Laurent-polynomial arithmetic in one variable q.

Coefficients are Python integers, so every operation is exact; there is no
floating point anywhere in this module.  On top of the core arithmetic we
provide the closed-form Poincare polynomials that the rest of the package
consumes: Gaussian binomials g_{k,m}(q) (Poincare polynomial of the
Grassmannian Gr(k, m)) and orthogonal Grassmannians OGr(i, 2n+1), together
with the q-identity relating them.

Throughout the package the exponent a of q records the dimension of a
cohomology group in (topological) degree 2a; odd-degree cohomology vanishes
for every space we touch, so nothing is lost.

A LaurentPoly is a dense, trimmed coefficient tuple; the class docstring
lists the cost of each operation.  The Poincare polynomials are built from
neighbours by one :func:`_step`, times 1 - q^up and over 1 - q^down, so the
only division is by 1 - q^l; the stalk solver walks its own OGr chain with
it, and its sums of products go through :func:`sum_of_products`.
"""

import functools
import itertools
import operator
import sys
from array import array
from collections.abc import Iterable, Mapping

from . import _EXPORTS

__all__ = _EXPORTS["qseries"].split() + ["ZERO", "ONE", "Q", "one_minus_q", "sum_of_products"]

# Signed machine integer types by size, for Kronecker slots of 1 to 8 bytes.
_SLOT_TYPES = {array(t).itemsize: t for t in "bhiq"}

# sum_of_products splits the other factor by parity when a factor in q^2 has
# at least this many coefficients.  At 64 the stalk solver's sums at rank 48
# ran 1.5x faster than unsplit, and 16 or 128 no faster than 64; at rank 20
# no cutoff differed measurably, and without the cutoff `verify --n-max 13`
# ran 6% slower in-process (2-vCPU VM, Python 3.11).
_PARITY_TERMS = 64


class LaurentPoly:
    """A finitely supported integer Laurent polynomial in q.

    Instances are immutable and hashable; two polynomials compare equal iff
    they have identical support and coefficients.  Arithmetic (+, -, *) is
    exact; division is available only through :meth:`exact_div`, by 1 - q^l,
    and insists on a zero remainder.

    ``_lo`` is the lowest exponent and ``_c`` the coefficients of q^_lo,
    q^(_lo+1), ..., trimmed so that the first and last are nonzero; the zero
    polynomial has ``_lo = 0`` and ``_c = ()``.  Storage grows with the span,
    so a sparse polynomial of huge span, such as 1 + q^(10^9), would not fit;
    the polynomials of this package are dense.  With n the longer span:

    - ``+``, ``-``, shifts, comparisons, :meth:`coefficients`: O(n);
    - ``*``: one big-integer product (Kronecker substitution, see
      :func:`sum_of_products`);
    - :meth:`exact_div` by 1 - q^l: O(n), in min(l, n - l) strided prefix sums.
    """

    __slots__ = ("_lo", "_c", "_norms")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        data: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for e, c in items:
            if (not isinstance(e, int) or not isinstance(c, int)
                    or isinstance(e, bool) or isinstance(c, bool)):
                raise TypeError("exponents and coefficients must be ints")
            data[e] = data.get(e, 0) + c
        support = [e for e, c in data.items() if c]
        lo = min(support, default=0)
        dense = [0] * (max(support, default=-1) - lo + 1)
        for e in support:
            dense[e - lo] = data[e]
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_c", tuple(dense))
        object.__setattr__(self, "_norms", None)

    @classmethod
    def from_coeffs(cls, lo: int, coeffs: Iterable[int]) -> "LaurentPoly":
        """sum_k coeffs[k] q^(lo+k); zero coefficients at either end are dropped."""
        coeffs = list(coeffs)
        if (not isinstance(lo, int) or not all(map(isinstance, coeffs, itertools.repeat(int)))
                or any(map(isinstance, coeffs, itertools.repeat(bool)))):
            raise TypeError("exponents and coefficients must be ints")
        return _trimmed(lo, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __delattr__(self, name):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):  # for copy and pickle; _norms is recomputed on demand
        return _new, (self._lo, self._c)

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
        return sum_of_products([(self, other)])

    __rmul__ = __mul__

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division by 1 - q^l, l >= 1; raises ArithmeticError unless the
        remainder is zero, and ValueError for any other divisor."""
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"exact_div divides by a LaurentPoly, not {type(other).__name__}")
        b = other._c
        if other._lo or len(b) < 2 or b[0] != 1 or b[-1] != -1 or any(b[1:-1]):
            raise ValueError(f"exact_div divides only by 1 - q^l, l >= 1, not {other}")
        # dividend and divisor are trimmed, so an exact quotient is too
        return _new(self._lo, tuple(_div_one_minus_q(self._c, len(b) - 1)))

    # -- structural helpers --------------------------------------------------

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        if not isinstance(k, int):
            raise TypeError("exponents and coefficients must be ints")
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
            other = LaurentPoly({0: int(other)})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._lo == other._lo and self._c == other._c

    def __hash__(self) -> int:
        return hash((self._lo, self._c))

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
    object.__setattr__(p, "_norms", None)
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


def _norms(p: LaurentPoly) -> tuple[int, int]:
    """(sum, largest) of the absolute values of p's coefficients, computed once."""
    if p._norms is None:
        object.__setattr__(p, "_norms", (sum(map(abs, p._c)), max(map(abs, p._c))))
    return p._norms


def _slot_width(bound: int) -> int:
    """Bytes per slot for values of absolute value at most bound, rounded up
    to a machine integer size (1, 2, 4 or 8) where one is wide enough."""
    w = (bound.bit_length() + 8) // 8
    return next((size for size in _SLOT_TYPES if size >= w), w)


def _pack(c, w: int) -> int:
    """The integer sum_k c[k] 2^(8wk) of the slot values c.

    Slots hold two's-complement values: with H the integer whose every slot
    is 2^(8w-1), (X ^ H) - H turns the concatenated two's-complement slots X
    into the signed sum, and _unpack's (P + H) ^ H turns a signed sum P back.
    Slots of a machine integer size go through array, wider ones one by one.
    Bytes are little-endian, so a shift by 8wk bits moves every slot up by k.
    """
    if w in _SLOT_TYPES:
        raw = _array(_SLOT_TYPES[w], c).tobytes()
    else:
        raw = b"".join([x.to_bytes(w, "little", signed=True) for x in c])
    h = _offset(len(c), w)
    return (int.from_bytes(raw, "little") ^ h) - h


def _unpack(x: int, n: int, w: int):
    """The n slot values of x = sum_k c[k] 2^(8wk)."""
    h = _offset(n, w)
    raw = ((x + h) ^ h).to_bytes(n * w, "little")
    if w in _SLOT_TYPES:
        return _array(_SLOT_TYPES[w], raw)
    return [int.from_bytes(raw[k:k + w], "little", signed=True) for k in range(0, n * w, w)]


def _array(code: str, data) -> array:
    """array(code, data) with its items in little-endian byte order."""
    items = array(code, data)
    if sys.byteorder == "big":
        items.byteswap()
    return items


def _offset(n: int, w: int) -> int:
    """The integer H whose n slots of w bytes each hold 2^(8w-1)."""
    return int.from_bytes((1 << (8 * w - 1)).to_bytes(w, "little") * n, "little")


def _div_one_minus_q(a: tuple[int, ...], l: int) -> list[int]:
    """Quotient of a by 1 - q^l, from Q_k = A_k + Q_(k-l).

    Run over all len(a) positions, as prefix sums with stride l, the
    recurrence leaves a[k] + Q_(k-l) = Q_k in the top l slots (all of a if
    it is shorter), which vanish exactly when the division is exact.  A
    stride holding one value is its own prefix sum, so only the first
    len(a) - l strides are summed.
    """
    q = list(a)
    for r in range(min(l, len(q) - l)):
        q[r::l] = itertools.accumulate(q[r::l])
    if any(q[-l:]):
        raise ArithmeticError("inexact polynomial division")
    del q[-l:]
    return q


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly({1: 1})


def one_minus_q(l: int) -> LaurentPoly:
    """The factor 1 - q^l."""
    return LaurentPoly({0: 1, l: -1})


def _step(p: LaurentPoly, up: int, down: int) -> LaurentPoly:
    """p * (1 - q^up) / (1 - q^down), one step along a Poincare chain."""
    return (p - p.shift(up)).exact_div(one_minus_q(down))


def sum_of_products(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """The sum of a * b over the pairs (a, b), by one Kronecker substitution.

    Every product is one big-integer multiplication in slots wide enough for
    the whole sum; the products are added as big integers, each shifted to
    its lowest exponent, and only the sum is read back.  When one factor has
    at least _PARITY_TERMS coefficients and lies in q^2, a = q^s g(q^2) as
    every stalk polynomial f_i does, g multiplies the even and the odd
    coefficients of the other factor in two half-length products, added into
    separate sums over the even and the odd exponents.
    """
    pairs = [(a, b) for a, b in pairs if a._c and b._c]
    if not pairs:
        return ZERO
    bound = 0
    for a, b in pairs:
        (sum_a, max_a), (sum_b, max_b) = _norms(a), _norms(b)
        bound += min(sum_a * max_b, sum_b * max_a)
    w = _slot_width(bound)
    lo = min(a._lo + b._lo for a, b in pairs)
    n = max(a.max_exp + b.max_exp + 1 for a, b in pairs) - lo
    full, halves = 0, [0, 0]  # halves: exponents lo, lo + 2, ... and lo + 1, lo + 3, ...
    for a, b in pairs:
        x, y, e = a._c, b._c, a._lo + b._lo - lo
        if len(y) >= _PARITY_TERMS and not any(y[1::2]):
            x, y = y, x
        if len(x) >= _PARITY_TERMS and not any(x[1::2]):
            g = _pack(x[::2], w)
            for r, part in ((e, y[::2]), (e + 1, y[1::2])):
                if part:
                    halves[r % 2] += (g * _pack(part, w)) << (8 * w * (r // 2))
        else:
            full += (_pack(x, w) * _pack(y, w)) << (8 * w * e)
    out = list(_unpack(full, n, w))
    for r in (0, 1):
        out[r::2] = map(operator.add, out[r::2], _unpack(halves[r], (n - r + 1) // 2, w))
    return _trimmed(lo, out)


@functools.lru_cache(maxsize=None)
def gaussian_binomial(k: int, m: int) -> LaurentPoly:
    """Gaussian binomial g_{k,m}(q), the Poincare polynomial of Gr(k, m).

    g_{k,m} = prod_{l=m-k+1}^{m} (1-q^l) / prod_{l=1}^{k} (1-q^l), built from
    its cached diagonal neighbour g_{k-1,m-1} by one :func:`_step` with
    (up, down) = (m, k).  As g_{k,m} = g_{m-k,m}, it walks the shorter of
    the two diagonals: the chain g_{d,m-k+d}, 0 < d <= min(k, m-k), stays
    cached, min(k, m-k) polynomials in all.  The result has nonnegative
    coefficients, degree k(m-k) and palindromic coefficient sequence.
    """
    if k < 0 or m < 0 or k > m:
        raise ValueError(f"gaussian binomial needs 0 <= k <= m, got k={k}, m={m}")
    if k > m - k:
        return gaussian_binomial(m - k, m)
    if k == 0:
        return ONE
    # ascending warm-up keeps the call to the neighbour one level deep
    for d in range(1, k):
        gaussian_binomial(d, m - k + d)
    return _step(gaussian_binomial(k - 1, m - 1), m, k)


@functools.lru_cache(maxsize=None)
def og_poincare(i: int, n: int) -> LaurentPoly:
    """Poincare polynomial of the orthogonal Grassmannian OGr(i, 2n+1).

    og_{i,2n+1}(q) = prod_{l=n-i+1}^{n} (1-q^{2l}) / prod_{l=1}^{i} (1-q^l),
    of degree i(4n-3i+1)/2, built from og_{i-1,2n+1} by one :func:`_step`.
    """
    if i < 0 or n < 0 or i > n:
        raise ValueError(f"og_poincare needs 0 <= i <= n, got i={i}, n={n}")
    if i == 0:
        return ONE
    for j in range(1, i):
        og_poincare(j, n)
    return _step(og_poincare(i - 1, n), 2 * (n - i + 1), i)


def verify_sum_identity(n: int, i: int) -> bool:
    """Check og_{i,2n+1}(q) = sum_j q^((i-j)(i-j+1)/2) g_{[j/2],n}(q^2) g_{i-j,2n-i-j}(q).

    Exact comparison of both sides as Laurent polynomials.
    """
    if n < 1 or i < 0 or i > n:
        raise ValueError(f"verify_sum_identity needs 0 <= i <= n, n >= 1, got n={n}, i={i}")
    return og_poincare(i, n) == sum_of_products(
        (gaussian_binomial(j // 2, n).subs_power(2).shift((i - j) * (i - j + 1) // 2),
         gaussian_binomial(i - j, 2 * n - i - j))
        for j in range(i + 1))


def _poincare_cases(n):
    """verify's suite: the cases of rank n as (label, passed), in a fixed order."""
    return ((f"n={n} i={i}", verify_sum_identity(n, i)) for i in range(n + 1))


def eval_at_one(p: LaurentPoly) -> int:
    """Sum of coefficients, i.e. the Euler characteristic attached to p."""
    return p.eval_at_one()
