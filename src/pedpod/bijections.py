"""The fourteen proof maps behind the six identities, forward and inverse.

Every map is a weight-shifting bijection between two explicitly described
sets of partitions.  Fourteen maps are registered under stable dotted names:

    thm1.add            D1(n-1)            -> PED(n), largest part even     (+1)
    thm2.shift          D2(n-3)            -> PED(n), (L, L-1, ...), L odd  (+3)
    thm2.exchange.CA    set C minus C'     -> set A minus A'                ( 0)
    thm2.exchange.DB    set D minus D'     -> set B minus B'                ( 0)
    thm2.exceptional    C' union D'        -> A' union B'                   ( 0)
    thm2.total          PED_GT1(n)         -> D2(n) or D2(n-3), tagged
    thm3.add            D3(n-1)            -> PED(n), even largest, gap 2   (+1)
    thm3.sub            D3(n+2)            -> the rest of PED(n)            (-2)
    thm4.add            O1(n-1)            -> POD(n), largest part odd      (+1)
    thm5.shift          O2(n-3)            -> POD(n), (L, L-1, ...), L even (+3)
    thm5.exchange       set C union D      -> set A union B                 ( 0)
    thm5.total          POD_GT2(n)         -> O2(n) or O2(n-3), tagged
    thm6.add            O3(n-1)            -> POD(n), odd largest, gap 2    (+1)
    thm6.sub            O3(n+2)            -> the rest of POD(n)            (-2)

The pod maps thm4.add, thm5.shift, thm6.add and thm6.sub mirror thm1.add,
thm2.shift, thm3.add and thm3.sub with the parities swapped, so one builder,
`_mirror_family`, makes both sets of four from the family's three
identities, T1-T3 or T4-T6.  They share five recipes: raise the top part,
lower it, shift the two leading parts up or down, and sub.

The thm2 letter sets live inside PED(n): C has an even largest part and no
part 1, D has an odd largest part with a gap of at least 2 below it and no
part 1, A is the D2 members containing a 1, and B has shape (L, L-1, ...)
with L odd and a 1.  The primed sets are the finitely many special shapes
the exceptional map trades between, each a test read on its letter's
members.  The thm5 letter sets are the analogues
inside POD(n) with the roles of the parities swapped and with parts 1 and 2
acting as the small parts: C and D require every part to be at least 3,
while A and B require a part 1 or 2.  So one builder, `_letters`, makes the
C, D, A, B patterns of both families from the parity of the domain classes'
largest part and the largest part that counts as small.

Every map describes its two sides as data at the identity weight n: a side
is a tuple of buckets (offset, patterns), each holding the members of
weight n + offset of a union of disjoint head patterns (`core.ClassSpec`).
A map takes each term it proves, and its `min_weight` gate, from its
identity in `core.IDENTITIES`: thm1.add maps ((-1, (D1,)),) onto
((0, (PED with an even top,)),), and thm2.total ((0, (PED_GT1,)),) onto
((0, (D2,)), (-3, (D2,))).  A side of two buckets holds `TaggedPreimage`s,
and such a codomain makes a `TotalDecomposition`.  A member of weight w
passes the gate when w - offset does; the thm2 pieces also keep
(exceptional) or drop (exchange) the primed members.  One `_side_test`
compiles `in_domain`/`in_codomain`, and `_guard` puts every registered
forward and inverse behind them (DomainError outside).  Audits list every
side with `_side_members` and run the unguarded `_RECIPES`: each member
they pass a direction is one by construction, so a guard would only test it
again.

One builder, `_exchange`, makes the exchange C union D -> A union B of
both families from one case table: it trades the two leading parts for a
pair and fills the weight left over with 1s (thm2) or with 2s and at most
one 1 (thm5); a negative filler weight raises RuntimeError.  thm2 registers
its exchange as three pieces, split by the primed sets, and thm5 as one.

`_total` assembles thm2.total and thm5.total from their identity's terms
and threshold and its unguarded shift map and exchange: one test of C union
D decides whether a domain member is exchanged, and the shift map's
codomain test sends the image down into the low bucket.  One call runs the
total's guard only.

thm4.add, thm6.add, and thm6.sub are reconstructions by parity symmetry
with thm1/thm3; they carry a `reconstructed` flag that audit reports
propagate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from heapq import merge
from operator import ge
from typing import Callable

from .core import CLASS_SPECS, IDENTITIES, ClassSpec, Partition, PartitionClass, _check_weight, _predicate
from .enumeration import _generate_members


class DomainError(ValueError):
    """Raised when a map is applied outside its declared domain."""


class BijectionId(Enum):
    """Stable dotted names for the fourteen maps."""

    B1 = "thm1.add"
    B2_SHIFT = "thm2.shift"
    B2_EXCHANGE_CA = "thm2.exchange.CA"
    B2_EXCHANGE_DB = "thm2.exchange.DB"
    B2_EXCEPTIONAL = "thm2.exceptional"
    B2_TOTAL = "thm2.total"
    B3_ADD = "thm3.add"
    B3_SUB = "thm3.sub"
    B4 = "thm4.add"
    B5_SHIFT = "thm5.shift"
    B5_EXCHANGE = "thm5.exchange"
    B5_TOTAL = "thm5.total"
    B6_ADD = "thm6.add"
    B6_SUB = "thm6.sub"


@dataclass(frozen=True)
class TaggedPreimage:
    """A partition plus the summand bucket it belongs to.

    offset 0 means the bucket at the identity's own weight n; offset -3
    means the bucket at weight n-3.
    """

    offset: int
    partition: Partition

    def tag_text(self) -> str:
        return "n" if self.offset == 0 else f"n{self.offset:+d}"

    def __str__(self) -> str:
        if not (isinstance(self.partition, Partition) and type(self.offset) is int):
            return repr(self)  # an ill-typed preimage, as the guard's refusal quotes it
        return f"{self.partition.to_text()} @ {self.tag_text()}"


def _exact(parts: tuple[int, ...]) -> Partition:
    """Build a partition from parts that must already be non-increasing.

    Used for every pattern-assembled image: if this check fires, a case
    table produced parts out of order, which would mean the map recipe and
    not just the bookkeeping is wrong.
    """
    if not all(map(ge, parts, parts[1:])):
        raise RuntimeError(f"map produced parts out of order: {parts}")
    if parts and parts[-1] < 1:
        raise RuntimeError(f"map produced a non-positive part: {parts}")
    return Partition._unsafe(parts)


# ---------------------------------------------------------------------------
# The recipes shared by the ped family and its pod mirror.


def _raise_top(p: Partition) -> Partition:
    return _exact((p[0] + 1,) + p[1:])


def _lower_top(q: Partition) -> Partition:
    return _exact((q[0] - 1,) + q[1:])


def _shift_up(p: Partition) -> Partition:
    """Add 2 and 1 to the two leading parts (L, L) of a D2/O2 member."""
    return _exact((p[0] + 2, p[0] + 1) + p[2:])


def _shift_down(q: Partition) -> Partition:
    return _exact((q[0] - 2, q[0] - 2) + q[2:])


def _sub(p: Partition) -> Partition:
    """Lower the top part by 2; below a second part L-1 it swaps places with it (see _unsub)."""
    if len(p) > 1 and p[1] == p[0] - 1:
        return _exact((p[1], p[0] - 2) + p[2:])
    return _exact((p[0] - 2,) + p[1:])


def _unsub(top: int) -> Callable[[Partition], Partition]:
    """The inverse of _sub on a family whose domain largest parts have parity top.

    The lowered part is q[0] if it still has parity top; otherwise it slid
    below the part one smaller than itself, and sits at q[1] = q[0] - 1.
    """

    def unsub(q: Partition) -> Partition:
        if q[0] % 2 == top:
            return _exact((q[0] + 2,) + q[1:])
        return _exact((q[0] + 1, q[0]) + q[2:])

    return unsub


# ---------------------------------------------------------------------------
# The letter sets, as head patterns on PED (thm2) or POD (thm5).


def _letters(family: PartitionClass, top: int, small: int) -> tuple[ClassSpec, ...]:
    """The patterns C, D, A, B of one family, as the module docstring defines them.

    top is the parity of the domain classes' largest part (1 for ped, 0 for
    pod), small the largest part that counts as small (1 for thm2, 2 for thm5).
    """
    whole, big = CLASS_SPECS[family], CLASS_SPECS[family]._replace(lowest=small + 1)
    return (
        big._replace(top_parity=1 - top),
        big._replace(top_parity=top, gap=2),
        whole._replace(top_parity=top, top_copies=(2, None), small=small),
        whole._replace(top_parity=top, gap=1, small=small),
    )


_THM2 = _letters(PartitionClass.PED, 1, 1)
_THM5 = _letters(PartitionClass.POD, 0, 2)


# The primed sets of the thm2 letters, each a test read only on its letter's members.
_PRIMES = dict(zip(_THM2, (
    lambda p: len(p) == 1 or (len(p) == 2 and p[1] == 2),  # C': the singleton (n) and the pair (n-2, 2)
    lambda p: len(p) == 1 or p[1] == p[0] - 2,  # D': (n) and the shapes with the second part exactly L-2
    lambda p: p.count(1) in (2, len(p)),  # A': the all-ones partition and the A members with exactly two 1s
    lambda p: p[0] == 3 and p.weight % 2 == 0,  # B': the shapes (3, 2, 1, ..., 1) of even weight
)))


Side = tuple[tuple[int, tuple[ClassSpec, ...]], ...]  # buckets (offset, patterns)


def _union_members(n: int, patterns: tuple[ClassSpec, ...], primed: bool | None) -> list[Partition]:
    """The members of weight n (none if n < 0) of a union of disjoint patterns, in decreasing lex order."""
    listings = [_generate_members(n, spec) if primed is None
                else [p for p in _generate_members(n, spec) if _PRIMES[spec](p) == primed] for spec in patterns]
    return list(listings[0] if len(listings) == 1 else merge(*listings, reverse=True))


def _side_members(n: int, side: Side, primed: bool | None = None) -> list:
    """A side's members at identity weight n, each bucket's of weight n + offset, tagged on a side of two buckets."""
    buckets = [(offset, _union_members(n + offset, patterns, primed)) for offset, patterns in side]
    if len(buckets) == 1:
        return buckets[0][1]
    return [TaggedPreimage(offset, q) for offset, members in buckets for q in members]


def _side_test(side: Side, primed: bool | None, gate: int) -> Callable[[object], bool]:
    """The test of what `_side_members` lists of a side at any identity weight from gate on."""
    tests = {offset: _union_test(patterns, primed) for offset, patterns in side}

    def member(p: Partition, offset: int = side[0][0]) -> bool:  # its identity weight is its weight less the offset
        return isinstance(p, Partition) and tests[offset](p) and p.weight - offset >= gate

    if len(side) == 1:
        return member
    # A float or bool offset would look up and subtract like an int, so the tag must be an int.
    return lambda t: (isinstance(t, TaggedPreimage) and type(t.offset) is int and t.offset in tests
                      and member(t.partition, t.offset))


def _union_test(patterns: tuple[ClassSpec, ...], primed: bool | None, scan=True) -> Callable[[Partition], bool]:
    """The membership test of a union of disjoint patterns; scan=False trusts the distinct parts."""
    tests = [(_predicate(spec if scan else spec._replace(distinct=None)), None if primed is None else _PRIMES[spec])
             for spec in patterns]
    if len(tests) == 1 and primed is None:
        return tests[0][0]

    def member(p: Partition) -> bool:
        for test, prime in tests:
            if test(p):  # the patterns are disjoint, so the first that holds decides
                return prime is None or prime(p) == primed
        return False

    return member


def _letter_sets(n: int, letters: tuple[ClassSpec, ...]) -> dict[str, tuple[Partition, ...]]:
    """C, D, A, B listed from their patterns, then the primed sets among them."""
    _check_weight(n)
    sets = {name: _generate_members(n, spec) for name, spec in zip("CDAB", letters)}
    primed = {c + "'": tuple(filter(test, sets[c])) for c, test in zip("CDAB", map(_PRIMES.get, letters)) if test}
    return {**sets, **primed}


def thm2_sets(n: int) -> dict[str, tuple[Partition, ...]]:
    """Materialize the eight thm2 letter sets at weight n, each a subset of PED(n)."""
    return _letter_sets(n, _THM2)


def thm5_sets(n: int) -> dict[str, tuple[Partition, ...]]:
    """Materialize the four thm5 letter sets at weight n, each a subset of POD(n)."""
    return _letter_sets(n, _THM5)


def _exchange(distinct: int, small: int) -> tuple[Callable, Callable]:
    """The exchange C union D -> A union B of a family, as (forward, inverse).

    distinct is the parity whose parts the family keeps distinct (0 for
    thm2's PED, 1 for thm5's POD), small the largest filler part.  forward
    replaces the two leading parts (L, s) by the pair the table below gives
    (a singleton (n) keeps none), keeps the tail, and fills the rest of the
    weight with parts small, plus a 1 when small is 2 and that rest is odd.

        C, s = small + 1            (s+1, s)
        C, s of the other parity    (s, s)
        C, s of parity distinct     (s-1, s-1)
        D, s of parity distinct     (s+1, s)
        D, s = L - 2                (s, s)
        D, otherwise                (s+2, s+1)

    inverse reads the row back from the filler weight and from whether the
    image's top part repeats (the A side, a pair (a, a)) or not (the B side).
    """
    lowest = small + 1  # the smallest part of C and D, and so of every pair and tail
    fillers = range(1, lowest)

    def forward(p: Partition) -> Partition:
        top, second = p[0], p[1] if len(p) > 1 else 0
        if not second:
            pair = ()
        elif top % 2 == distinct:  # C
            if second == lowest:
                pair = (second + 1, second)
            elif second % 2 != distinct:
                pair = (second, second)
            else:
                pair = (second - 1, second - 1)
        elif second % 2 == distinct:  # D
            pair = (second + 1, second)
        elif top - second == 2:
            pair = (second, second)
        else:
            pair = (second + 2, second + 1)
        filler = top + second - sum(pair)
        if filler < 0:
            raise RuntimeError(f"negative filler weight {filler}: {p}")
        return _exact(pair + p[2:] + (small,) * (filler // small) + (1,) * (filler % small))

    def inverse(q: Partition) -> Partition:
        cut = len(q) - sum(map(q.count, fillers))
        body, filler = q[:cut], sum(q[cut:])
        if not body:  # nothing but filler: the preimage was the singleton (n)
            return _exact((filler,))
        a = q[0]
        if q[1] == a:  # A: the pair (s, s) from C or from D with s = L - 2, or (s-1, s-1) from C
            if filler % 2 or filler == 2:
                return _exact((a + filler,) + body[1:])
            return _exact((a + filler - 1, a + 1) + body[2:])
        if filler % 2 and a != lowest + 1:  # B: the pair (s+2, s+1) from D
            return _exact((a + filler + 1, a - 2) + body[2:])
        return _exact((a + filler, a - 1) + body[2:])  # the pair (s+1, s), from D or the C edge

    return forward, inverse


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Bijection:
    """A bijection between two sides, each a tuple of buckets (offset, patterns), as the module docstring describes.

    Both sides are empty below min_weight.  primed keeps only each thm2
    letter's primed members (True) or only the rest (False).  `in_domain` and
    `in_codomain` are each side's compiled test.
    """

    id: BijectionId
    domain: Side
    codomain: Side
    min_weight: int
    forward: Callable
    inverse: Callable
    primed: bool | None = None
    reconstructed: bool = False

    @property
    def name(self) -> str:
        return self.id.value

    @property
    def weight_shift(self) -> int:
        return self.codomain[0][0] - self.domain[0][0]

    def __post_init__(self) -> None:  # each side's test, compiled once
        object.__setattr__(self, "in_domain", _side_test(self.domain, self.primed, self.min_weight))
        object.__setattr__(self, "in_codomain", _side_test(self.codomain, self.primed, self.min_weight))


class TotalDecomposition(Bijection):
    """A map whose codomain has two buckets of one class: forward tags each image with its bucket's offset."""

    @property
    def bucket_class(self) -> PartitionClass:
        return next(cls for cls, spec in CLASS_SPECS.items() if (spec,) == self.codomain[0][1])


def _guard(entry: Bijection) -> Bijection:
    """entry with its recipes refusing, by DomainError, what in_domain and in_codomain reject."""
    codomain = "buckets" if isinstance(entry, TotalDecomposition) else "codomain"

    def guarded(check: Callable, recipe: Callable, side: str) -> Callable:
        def run(x):
            if not check(x):
                raise DomainError(f"{x} is outside the {side} of {entry.name}")
            return recipe(x)

        return run

    return replace(
        entry,
        forward=guarded(entry.in_domain, entry.forward, "domain"),
        inverse=guarded(entry.in_codomain, entry.inverse, codomain),
    )


def _bucket(term: tuple[PartitionClass, int]) -> tuple[int, tuple[ClassSpec, ...]]:
    """An identity's term (class, offset) as a bucket."""
    return term[1], (CLASS_SPECS[term[0]],)


def _mirror_family(keys: tuple[str, str, str], ids, reconstructed) -> list[Bijection]:
    """thm1.add, thm2.shift, thm3.add and thm3.sub from T1-T3, or their pod mirrors from T4-T6.

    Each map's domain is a left-hand term of its identity (the first for
    sub), its codomain patterns sit at the right-hand term, and its gate is
    the threshold.  top is the parity of D1's (or O1's) largest part.
    """
    t1, t2, t3 = (IDENTITIES[key] for key in keys)
    d1, d3 = CLASS_SPECS[t1.lhs[0][0]], CLASS_SPECS[t3.lhs[0][0]]
    top = d1.top_parity
    other = CLASS_SPECS[t1.rhs[0]]._replace(top_parity=1 - top)
    maps = (
        (t1, t1.lhs[1], (other,), _raise_top, _lower_top),
        (t2, t2.lhs[1], (d3._replace(gap=1),), _shift_up, _shift_down),
        (t3, t3.lhs[1], (other._replace(gap=2),), _raise_top, _lower_top),
        (t3, t3.lhs[0], (d1, other._replace(gap=1)), _sub, _unsub(top)),
    )
    return [
        Bijection(bid, (_bucket(term),), ((t.rhs[1], codomain),), t.threshold, forward, inverse, reconstructed=flag)
        for bid, flag, (t, term, codomain, forward, inverse) in zip(ids, reconstructed, maps)
    ]


def _total(bid: BijectionId, key: str, shift: Bijection, letters: tuple[ClassSpec, ...],
           exchange: tuple[Callable, Callable]) -> TotalDecomposition:
    """The tagged decomposition of identity key's right-hand term into its left-hand terms, gated at its threshold.

    forward exchanges p when it lies in C union D (p passes through
    otherwise); an image in the shift's codomain goes down the shift's
    inverse into the low bucket, any other image stays in the high one.
    inverse lifts a low-bucket member with the shift's forward, then undoes
    the exchange when the result lies in A union B.  Shift and exchange come
    unguarded: the total's own guard admits only its domain and buckets, so
    one call runs one guard, and as every image then lies in the same
    family, the routing tests skip its distinct-parts scan.
    """
    spec = IDENTITIES[key]
    high, low = spec.lhs[0][1], spec.lhs[1][1]
    c, d, a, b = letters
    exchanged, restored = _union_test((c, d), None, False), _union_test((a, b), None, False)
    lands = _union_test(shift.codomain[0][1], None, False)
    move, back = exchange

    def forward(p: Partition) -> TaggedPreimage:
        q = move(p) if exchanged(p) else p
        return TaggedPreimage(low, shift.inverse(q)) if lands(q) else TaggedPreimage(high, q)

    def inverse(t: TaggedPreimage) -> Partition:
        q = shift.forward(t.partition) if t.offset == low else t.partition
        return back(q) if restored(q) else q

    return TotalDecomposition(bid, (_bucket(spec.rhs),), tuple(map(_bucket, spec.lhs)), spec.threshold, forward,
                              inverse, reconstructed=shift.reconstructed)


def _registry() -> dict[BijectionId, Bijection]:
    B = BijectionId
    c2, d2, a2, b2 = _THM2
    c5, d5, a5, b5 = _THM5
    ex2, ex5 = _exchange(0, 1), _exchange(1, 2)
    raw = {entry.id: entry for entry in [
        *_mirror_family(("T1", "T2", "T3"), (B.B1, B.B2_SHIFT, B.B3_ADD, B.B3_SUB), (False, False, False, False)),
        *_mirror_family(("T4", "T5", "T6"), (B.B4, B.B5_SHIFT, B.B6_ADD, B.B6_SUB), (True, False, True, True)),
        Bijection(B.B2_EXCHANGE_CA, ((0, (c2,)),), ((0, (a2,)),), 0, *ex2, False),
        Bijection(B.B2_EXCHANGE_DB, ((0, (d2,)),), ((0, (b2,)),), 0, *ex2, False),
        Bijection(B.B2_EXCEPTIONAL, ((0, (c2, d2)),), ((0, (a2, b2)),), 0, *ex2, True),
        Bijection(B.B5_EXCHANGE, ((0, (c5, d5)),), ((0, (a5, b5)),), 0, *ex5),
    ]}
    raw[B.B2_TOTAL] = _total(B.B2_TOTAL, "T2", raw[B.B2_SHIFT], _THM2, ex2)
    raw[B.B5_TOTAL] = _total(B.B5_TOTAL, "T5", raw[B.B5_SHIFT], _THM5, ex5)
    return raw


# The unguarded maps, which audits run: an audit passes each direction only members it listed.
_RECIPES: dict[BijectionId, Bijection] = _registry()
REGISTRY: dict[BijectionId, Bijection] = {bid: _guard(_RECIPES[bid]) for bid in BijectionId}


def get_bijection(key: "BijectionId | str") -> Bijection:
    """Look a map up by BijectionId or by its stable dotted name."""
    try:
        return REGISTRY[BijectionId(key)]
    except ValueError:
        known = ", ".join(m.value for m in BijectionId)
        raise ValueError(f"unknown bijection {key!r} (known: {known})") from None


def bijection_names() -> list[str]:
    return sorted(member.value for member in BijectionId)
