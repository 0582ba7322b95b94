"""Partition arithmetic and nilpotent-orbit combinatorics.

For the split symmetric pair (SL(N), SO(N)) with N = 2n+1 odd, the orbits of
K = SO(N) on the odd nilpotent cone are labelled by partitions of N (Jordan
types).  This module implements the orbit-level combinatorics: dimensions and
the closure (dominance) order, the gap criterion for induced orbits,
Richardson and relevance templates, the support of the Fourier transform of
each orbit's IC sheaf with the table of the order-two orbits' transforms,
the one-step branching of resolution fibers, and the fiber-dimension bound
they produce, all without recursion.

One enumerator, _runs_of, walks partitions as (value, multiplicity) runs
(Knuth, TAOCP 4A, 7.2.1.4): partitions_of expands them, and _orbit_rows buckets
each one's label by codim in one pass and makes the table's rows as they are
consumed.  The one classification rule, _classify_runs, reads runs.

A partition of odd weight 2n+1 always has an odd number of odd parts; the
template predicates below exploit this.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence

from . import _EXPORTS
from ._record import Record
from ._util import binom

__all__ = _EXPORTS["partitions"].split()

ROW_REMOVAL = "row-removal"
ROW_SPLIT = "row-split"


class Partition:
    """A weakly decreasing tuple of positive integers; () is the partition of 0."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for k, p in enumerate(parts):
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"parts must be positive integers, got {parts!r}")
            if k and parts[k - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts!r}")
        object.__setattr__(self, "_parts", parts)

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """A partition of parts already known to be valid, built without the checks."""
        p = object.__new__(cls)
        object.__setattr__(p, "_parts", parts)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        return sum(self._parts)

    def part(self, k: int) -> int:
        """The k-th part, 1-based, zero beyond the last row."""
        return self._parts[k - 1] if 1 <= k <= len(self._parts) else 0

    def multiplicities(self) -> list[tuple[int, int]]:
        """Distinct part values with multiplicities, largest value first."""
        return _multiplicities(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)!r})"

    def __str__(self) -> str:
        return self.serialize()

    def serialize(self) -> str:
        """Comma-separated descending parts; the empty partition is ''."""
        return ",".join(map(str, self._parts))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Inverse of serialize; non-descending input is rejected, not sorted."""
        text = text.strip()
        if not text:
            return cls()
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"malformed partition {text!r}") from None
        return cls(parts)


class OrbitLabel(Record):
    """A nilpotent orbit for rank n (an int): a Partition of N = 2n+1."""

    __slots__ = ("rank", "partition")

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if self.partition.weight != 2 * self.rank + 1:
            raise ValueError(
                f"partition of weight {self.partition.weight} does not label an orbit "
                f"for rank {self.rank} (need weight {2 * self.rank + 1})"
            )


class BranchMove(Record):
    """One step of the fiber branching: the orbit of x on V_1^perp / V_1.

    target is a Partition and case_tag ROW_REMOVAL or ROW_SPLIT; the int
    codim_delta is the exact drop in orbit codimension, so
    orbit_codim(source) = orbit_codim(target) + codim_delta.
    """

    __slots__ = ("target", "case_tag", "codim_delta")


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest-first lexicographic order."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    for runs in _runs_of(n, n if max_part is None else max_part):
        yield Partition._trusted(tuple(itertools.chain.from_iterable([v] * m for v, m in runs)))


def _runs_of(n: int, cap: int) -> Iterator[list[list[int]]]:
    """The partitions of n >= 0 with no part over cap in partitions_of's
    order, each as its [value, multiplicity] runs, largest value first.

    One list is yielded each time and changed in place between yields, so a
    caller copies what must outlive the next step.  A step drops the run of
    1s, takes one copy off the smallest run left and refills greedily with
    copies of its value - 1 and a remainder.
    """
    if n == 0:
        yield []
        return
    runs, rest, top = [], n, min(cap, n)
    while top >= 1:  # false at once for cap < 1; a step leaves top >= 1
        copies, rest = divmod(rest, top)
        runs.append([top, copies])
        if rest:
            runs.append([rest, 1])
        yield runs
        rest = runs.pop()[1] if runs[-1][0] == 1 else 0
        if not runs:
            return
        top, copies = runs.pop()
        if copies > 1:
            runs.append([top, copies - 1])
        rest += top
        top -= 1


def _orbit_rows(weight: int) -> tuple[int, Iterator[tuple]]:
    """(count, rows) of the orbits table of an odd weight = 2n+1, whose rows
    (label, dim, codim, *_classify) come by codim, ties in partitions_of's
    order.  One pass over _runs_of puts each partition's label and shared
    classification tuple in the bucket of its codim, read off its runs: a run
    of m parts v after r parts adds v (m r + m (m-1)/2) to dim_centralizer =
    sum_i (i-1) p_i.  rows makes each row, with dim = n(2n+1) - codim, as it
    is consumed."""
    top = weight * (weight - 1) // 2
    labels = [[] for _ in range(top + 1)]
    classes = [[] for _ in range(top + 1)]
    shared = {}
    for runs in _runs_of(weight, weight):
        label = []
        codim = before = 0
        for v, m in runs:
            label.append(",".join([str(v)] * m))
            codim += v * (m * before + m * (m - 1) // 2)
            before += m
        labels[codim].append(",".join(label))
        c = _classify_runs(runs, weight)
        classes[codim].append(shared.setdefault(c, c))
    rows = ((label, top - codim, codim, *c) for codim in range(top + 1)
            for label, c in zip(labels[codim], classes[codim]))
    return sum(map(len, labels)), rows


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram; an involution."""
    parts = p.parts
    if not parts:
        return Partition()
    return Partition(tuple(sum(1 for q in parts if q > i) for i in range(parts[0])))


def dominance_leq(a: Partition, b: Partition) -> bool:
    """True iff every partial sum of a is <= the matching partial sum of b."""
    if a.weight != b.weight:
        raise ValueError("incomparable weights")
    sa = sb = 0
    for k in range(1, max(len(a), len(b)) + 1):
        sa += a.part(k)
        sb += b.part(k)
        if sa > sb:
            return False
    return True


def closure_contains(outer: OrbitLabel, inner: OrbitLabel) -> bool:
    """True iff the inner orbit lies in the closure of the outer one."""
    if outer.rank != inner.rank:
        raise ValueError("rank mismatch")
    return dominance_leq(inner.partition, outer.partition)


def dim_centralizer(p: Partition) -> int:
    """dim Z_K(x) = sum_i (i-1) * p_i for x of Jordan type p."""
    parts = p.parts
    return sum(map(operator.mul, range(len(parts)), parts))


def orbit_codim(p: Partition) -> int:
    """Codimension of the orbit in the nilpotent cone; equals dim_centralizer."""
    return dim_centralizer(p)


def orbit_dim(o: OrbitLabel) -> int:
    """n(2n+1) - dim_centralizer; for 2^i 1^(2n+1-2i) this is i(2n+1-i)."""
    n = o.rank
    return n * (2 * n + 1) - dim_centralizer(o.partition)


def has_gaps(p: Partition) -> bool:
    """Some consecutive difference (the last part counts against 0) is >= 2.

    By the induction criterion this holds iff the orbit is induced from a
    proper theta-stable Levi.
    """
    return bool(p.parts) and _classify(p.parts)[0]


def induced_orbit(levi_parts: Sequence[Partition], core: Partition) -> Partition:
    """Induced orbit label: row i gets core_i + sum_j 2 * levi_parts[j]_i.

    Componentwise sums of partitions are again weakly decreasing, so the
    result needs no re-sorting.
    """
    rows = max([len(core)] + [len(q) for q in levi_parts], default=0)
    parts = []
    for k in range(1, rows + 1):
        parts.append(core.part(k) + 2 * sum(q.part(k) for q in levi_parts))
    return Partition(tuple(x for x in parts if x))


def _classify(parts: tuple[int, ...]) -> tuple[bool, bool, bool, str, str | None]:
    """_classify_runs of a nonempty partition given by its parts."""
    return _classify_runs(_multiplicities(parts), sum(parts))


def _classify_runs(runs, weight: int) -> tuple[bool, bool, bool, str, str | None]:
    """(has_gaps, is_richardson, is_relevant_full, support flag, support name)
    of a nonempty partition of weight, from its runs, largest value first.

    No gaps means one run for each value 1..top.  Richardson means every odd
    run comes before every even run: the templates read mu = (parts // 2),
    which is weakly decreasing iff every odd part exceeds every even part.
    Relevant means Richardson with one odd part.  The flag and name are
    ft_support_info's for the trivial local system: "full" and "g_1" when no
    part exceeds 2; for other Richardson labels "proper" and "g_1^0" with one
    odd part, "g_1^i" with i = (weight - #odd parts)/2 otherwise; "proper"
    and no name for other gapped labels; "unknown" for the rest.
    """
    top = runs[0][0]
    gaps = len(runs) != top
    odds, seen_even, richardson = 0, False, True
    for v, m in runs:
        if v & 1:
            odds += m
            richardson = richardson and not seen_even
        else:
            seen_even = True
    relevant = richardson and odds == 1
    if top <= 2:
        return gaps, richardson, relevant, "full", "g_1"
    if richardson:
        name = "g_1^0" if relevant else f"g_1^{(weight - odds) // 2}"
        return gaps, True, relevant, "proper", name
    return gaps, False, False, "proper" if gaps else "unknown", None


class SupportInfo(Record):
    """Support classification of a Fourier transform.

    flag is "full", "proper" or "unknown", and support_name is None unless
    the target support is named.  For Richardson labels it is: "g_1^0" for
    the single-odd-part template, "g_1^i" with i = (2n+1 - #odd parts)/2
    otherwise; general_template marks the latter, whose label map is taken
    to be the same conjugation as in the single-odd-part case.
    """

    __slots__ = ("flag", "support_name", "general_template")
    _defaults = {"support_name": None, "general_template": False}


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


class FourierTableRow(Record):
    """One row of the Fourier-transform classification for order-two orbits:
    row i of the orbit (an OrbitLabel) 2^i 1^(2n+1-2i).

    The trivial local system transforms to a local system of dimension
    C(2n+1, i) with finite (Tits-group) monodromy; the nontrivial one (absent
    for i = 0, where its dimension and monodromy are None) to a local system
    of dimension C(2n, i) - C(2n, i-2) with infinite braid-group monodromy.
    """

    __slots__ = ("i", "orbit", "trivial_target_dim", "nontrivial_target_dim",
                 "trivial_monodromy", "nontrivial_monodromy")
    _defaults = {"trivial_monodromy": "finite-tits", "nontrivial_monodromy": None}


def order_two_partition(n: int, i: int) -> Partition:
    """The partition 2^i 1^(2n+1-2i)."""
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    return Partition._trusted((2,) * i + (1,) * (2 * n + 1 - 2 * i))


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


def is_relevant_full(p: Partition) -> bool:
    """Template (2p_1+1, 2p_2, ..., 2p_s): exactly one odd part, and it is largest."""
    if p.weight % 2 == 0:
        raise ValueError("relevance is defined for odd weight only")
    return _classify(p.parts)[2]


def is_relevant_parabolic(p: Partition, i: int) -> bool:
    """Template with exactly 2n-2i+1 leading odd parts and mu weakly decreasing.

    The parts sum forces sum(mu) = i automatically once the odd-part count
    matches, so only the count and the block ordering are tested.
    """
    if p.weight % 2 == 0:
        raise ValueError("relevance is defined for odd weight only")
    n = (p.weight - 1) // 2
    if not 1 <= i <= n - 1:
        raise ValueError(f"parabolic index must lie in [1, {n - 1}], got {i}")
    return _classify(p.parts)[1] and sum(x & 1 for x in p.parts) == 2 * n - 2 * i + 1


def is_richardson(p: Partition) -> bool:
    """Template (2mu_1+1, ..., 2mu_l+1, 2mu_{l+1}, ..., 2mu_s), mu weakly decreasing."""
    if p.weight % 2 == 0:
        raise ValueError("Richardson test is defined for odd weight only")
    return _classify(p.parts)[1]


def richardson_label(p: Partition) -> Partition:
    """Conjugate of the witness sequence mu; the local-system label of the transform."""
    if p.weight % 2 == 0 or not _classify(p.parts)[1]:
        raise ValueError(f"{p.serialize() or '()'} is not a Richardson label")
    return conjugate(Partition(tuple(x // 2 for x in p.parts if x > 1)))


def branch_moves(p: Partition) -> list[BranchMove]:
    """All one-step degenerations of the orbit on V_1^perp / V_1, weight N -> N-2.

    For each distinct part value mu_i (multiplicity m_i, cumulative count
    M_i = m_1 + ... + m_i):

    * row-removal (mu_i >= 2): one row loses two boxes; codim_delta is
      2(M_i - 1) when the next part is <= mu_i - 2, and 2(M_i - 1) + m_{i+1}
      when it equals mu_i - 1;
    * row-split (m_i >= 2): two rows of length mu_i become two of length
      mu_i - 1; codim_delta = 2(M_i - 1) - 1.  For mu_i = 1 both new rows
      are empty, i.e. two 1-rows disappear.

    Zero parts are dropped and the target re-sorted.
    """
    if p.weight < 3:
        raise ValueError("branching needs weight >= 3")
    return [BranchMove(Partition(target), tag, delta) for target, tag, delta, _ in _moves(p.parts)]


def _multiplicities(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(value, len(list(run))) for value, run in itertools.groupby(parts)]


def _moves(parts: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], str, int, int]]:
    """The branching rule: (target, case tag, codim_delta, locus dim) per move.

    The line V_1 of a move ranges over a locus of dimension M_i - 1 (removal)
    or M_i - 2 (split); branch_moves documents the rest.
    """
    mults = _multiplicities(parts)
    cum = 0
    for idx, (value, m) in enumerate(mults):
        cum += m
        if value >= 2:
            nxt_value, nxt_m = mults[idx + 1] if idx + 1 < len(mults) else (0, 0)
            delta = 2 * (cum - 1) + (nxt_m if nxt_value == value - 1 else 0)
            yield _resorted(parts, (value,), (value - 2,)), ROW_REMOVAL, delta, cum - 1
        if m >= 2:
            target = _resorted(parts, (value, value), (value - 1, value - 1))
            yield target, ROW_SPLIT, 2 * (cum - 1) - 1, cum - 2


def _resorted(parts: tuple[int, ...], remove: tuple[int, ...], add: tuple[int, ...]) -> tuple[int, ...]:
    pool = list(parts)
    for x in remove:
        pool.remove(x)
    pool.extend(x for x in add if x > 0)
    pool.sort(reverse=True)
    return tuple(pool)


_FIBER_DIMS: dict[tuple[int, ...], int] = {}


def resolution_fiber_dim(p: Partition) -> int:
    """Top dimension of the nilpotent-cone resolution fiber over the orbit.

    The line V_1 ranges over the locus of a branching move and the rest of the
    flag is a fiber for the branched orbit, so

        D(p) = max over moves of (locus dim + D(target)),    D(p) = 0 without moves.

    Every move lowers the weight by 2, so the targets are gathered one weight
    layer at a time and D is filled in from the bottom layer up.

    Semismallness says 2 D(p) <= orbit_codim(p) with equality exactly on the
    fully relevant templates.
    """
    dims = _FIBER_DIMS
    layers = []
    layer = {p.parts}
    while layer := {q for q in layer if q not in dims}:
        layers.append({q: [(t, locus) for t, _, _, locus in _moves(q)] for q in layer})
        layer = {t for moves in layers[-1].values() for t, _ in moves}
    for moves_by_parts in reversed(layers):
        for q, moves in moves_by_parts.items():
            dims[q] = max((locus + dims[t] for t, locus in moves), default=0)
    return dims[p.parts]
