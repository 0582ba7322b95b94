"""Type-C Springer data for the order-two family: Kostka numbers, bipartition
labels and dimensions, and the Euler-characteristic identities they satisfy.

Irreducible representations of the type-C Weyl group (hyperoctahedral group)
are labelled by ordered pairs of partitions with |alpha| + |beta| = n.  The
local Euler characteristics of the order-two IC sheaves on sp(2n) are plain
binomial expressions, anchored by Kostka numbers counted by Pieri's rule.
"""

from itertools import accumulate, compress
from math import factorial, prod

from . import _EXPORTS
from .partitions import Partition, conjugate
from ._record import Record
from ._util import binom

__all__ = _EXPORTS["springer_typec"].split() + ["MAX_KOSTKA_COST"]

MAX_KOSTKA_COST = 2 * 10**7  # kostka's work limit, in row scans; see kostka


class Bipartition(Record):
    """An ordered pair (alpha, beta) of Partitions; labels a type-C Weyl group irreducible."""

    __slots__ = ("alpha", "beta")

    @property
    def n(self) -> int:
        return self.alpha.weight + self.beta.weight


def kostka(shape: Partition, weight: Partition) -> int:
    """Number of semistandard tableaux of the given shape and partition content, by
    Pieri's rule: the cells holding v form a horizontal strip of weight_v cells.
    Its states are the partitions inside `shape`, each worth (rows + 200) row
    scans; ValueError if their total is over MAX_KOSTKA_COST."""
    if shape.weight != weight.weight:
        raise ValueError("shape and content must have equal weights")
    lam, per_state, states = shape.parts, len(shape.parts) + 200, shape.weight + 1
    if states * per_state <= MAX_KOSTKA_COST:  # states >= |lam| + 1: count if that fits
        ways = [1] * (lam[0] + 1 if lam else 1)  # partitions in the rows so far, by last row
        for part in lam[1:]:
            ways = list(accumulate(ways[::-1]))[::-1][: part + 1]
        states = sum(ways)
    if states * per_state > MAX_KOSTKA_COST:
        raise ValueError(f"kostka: shape {shape} costs {states * per_state} > {MAX_KOSTKA_COST}")
    counts = {(): 1}  # shape without trailing zeros -> tableaux so far
    for m in weight.parts:
        grown: dict[tuple[int, ...], int] = {}
        for nu, c in counts.items():
            for kappa in _strips(lam, nu, m):
                grown[kappa] = grown.get(kappa, 0) + c
        counts = grown
    return counts.get(lam, 0)


def _strips(lam: tuple[int, ...], nu: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Every kappa inside lam such that kappa/nu is a horizontal strip of m cells: row r
    grows to at most min(lam_r, nu_(r-1)), by at least what the later rows cannot hold."""
    base = nu + (0,) * (len(nu) < len(lam))
    caps = [(top if top < up else up) - v for top, up, v in zip(lam, lam[:1] + base, base)]
    room, partial = sum(caps), [(base, m)]  # shape so far, cells left to place
    for r in compress(range(len(caps)), caps):
        room -= caps[r]
        partial = [(k[:r] + (k[r] + d,) + k[r + 1:] if d else k, left - d) for k, left in partial
                   for d in range(max(0, left - room), min(caps[r], left) + 1)]
    return [k if k[-1] else k[:-1] for k, left in partial if not left]


def kostka_order_two_closed_form(n: int, i: int, j0: int) -> int:
    """K_{2^(i-j0) 1^(n-2i), 1^(n-2j0)} = C(n-2j0, i-j0) - C(n-2j0, i-j0-1)."""
    if not (0 <= j0 <= i and 2 * i <= n):
        raise ValueError(f"need 0 <= j0 <= i and 2i <= n, got n={n}, i={i}, j0={j0}")
    return binom(n - 2 * j0, i - j0) - binom(n - 2 * j0, i - j0 - 1)


def standard_tableaux_count(shape: Partition) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    cols = conjugate(shape).parts
    hooks = (row - c + cols[c] - r - 1 for r, row in enumerate(shape.parts) for c in range(row))
    return factorial(shape.weight) // prod(hooks)


def springer_label(n: int, i: int, local_system: str = "trivial") -> Bipartition:
    """Bipartition attached to the symplectic orbit 2^i 1^(2n-2i).

    Trivial system: ((1^m), (1^(n-m))) for i = 2m and ((1^(n-m+1)), (1^(m-1)))
    for i = 2m-1.  Nontrivial system (i = 2m even, m >= 1): ((), (2^m 1^(n-2m))).
    The nontrivial system on an odd orbit is not in the Springer image.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    if local_system == "trivial":
        if i % 2 == 0:
            m = i // 2
            return Bipartition(Partition((1,) * m), Partition((1,) * (n - m)))
        m = (i + 1) // 2
        return Bipartition(Partition((1,) * (n - m + 1)), Partition((1,) * (m - 1)))
    if local_system == "nontrivial":
        if i % 2 or i < 2:
            raise ValueError("not in Springer image")
        m = i // 2
        return Bipartition(Partition(), Partition((2,) * m + (1,) * (n - 2 * m)))
    raise ValueError(f"unknown local system {local_system!r}")


def bipartition_dim(b: Bipartition) -> int:
    """dim of the type-C irreducible: C(n, |alpha|) * f^alpha * f^beta."""
    return (
        binom(b.n, b.alpha.weight)
        * standard_tableaux_count(b.alpha)
        * standard_tableaux_count(b.beta)
    )


def euler_chi_trivial(n: int, i: int, j: int) -> int:
    """Local Euler characteristic of the trivial-system IC of 2^i 1^(2n-2i)
    at a point of 2^j 1^(2n-2j): C(n-j, [(i-j)/2])."""
    if not 0 <= j <= i <= n:
        raise ValueError(f"need 0 <= j <= i <= n, got n={n}, i={i}, j={j}")
    return binom(n - j, (i - j) // 2)


def euler_chi_nontrivial(n: int, i2: int, j: int) -> int:
    """Local Euler characteristic for the nontrivial system on 2^i2 1^(2n-2*i2).

    Zero for odd j; for even j it is C(n-j, i2/2-j/2) - C(n-j, i2/2-j/2-1).
    """
    if i2 % 2:
        raise ValueError("the nontrivial-system orbit index must be even")
    if not 0 <= j <= i2 <= n:
        raise ValueError(f"need 0 <= j <= i2 <= n, got n={n}, i2={i2}, j={j}")
    if j % 2:
        return 0
    t = i2 // 2 - j // 2
    return binom(n - j, t) - binom(n - j, t - 1)


def verify_cc_identity(n: int, i: int) -> bool:
    """Check chi_triv(i) = chi_nontriv(i) + chi_triv(i-1) at every base orbit j <= i.

    The i-1 term is zero at j = i, where the base point leaves that orbit's
    closure; on-orbit values of rank-one systems are 1.
    """
    if i % 2 or not 2 <= i <= n:
        raise ValueError(f"need even i with 2 <= i <= n, got n={n}, i={i}")
    for j in range(i + 1):
        lhs = euler_chi_trivial(n, i, j)
        rhs = euler_chi_nontrivial(n, i, j)
        if j <= i - 1:
            rhs += euler_chi_trivial(n, i - 1, j)
        if lhs != rhs:
            return False
    return True


def verify_two_power_sum(n: int, j: int) -> bool:
    """Check sum_{i=j}^{n} C(n-j, [(i-j)/2]) = 2^(n-j).

    Cross-checked against the Euler characteristic of OGr(n-j, 2(n-j)+1),
    which is the same power of two (the fiber of the top resolution has Euler
    characteristic (n-1) * 2^(n-j)).
    """
    from .qseries import og_poincare  # only here, so kostka and euler never load qseries
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got n={n}, j={j}")
    total = sum(euler_chi_trivial(n, i, j) for i in range(j, n + 1))
    if total != 2 ** (n - j):
        return False
    return og_poincare(n - j, n - j).eval_at_one() == 2 ** (n - j)
