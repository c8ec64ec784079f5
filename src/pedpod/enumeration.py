"""Exhaustive generation of partitions and of class member listings.

partitions_of(n) yields every partition of n in lexicographically decreasing
order, starting from (n) and ending at (1,...,1).  It is the ZS1 algorithm
(Zoghbi and Stojmenović, "Fast algorithms for generating integer
partitions", Int. J. Comput. Math. 70, 1998; cf. Knuth, TAOCP 7.2.1.4),
which keeps the index of the last part greater than 1, so a step never
rescans the trailing 1s and the stream runs in constant amortized time per
partition.

Listings are generated per class from its `core.CLASS_SPECS` entry, the one
definition of the classes, or per head pattern: a top-part loop places the
largest part as the spec asks, then one pruned recursion, fill(prefix,
rest, largest), passes the parts placed so far down as a tuple and places
one distinct part size at a time, largest size and most copies first, so
it never builds a partition outside the spec: a gap caps or pins the
second part and `small` the last.  The smallest allowed part can only end
a member, so its copies are appended in one step from a table of the tails
it can make, and a rest that only it can make costs no call.  A listing
costs time in proportion to its members, not to p(n), and comes out in
the same decreasing order as the filtered stream; the `all` listing equals
the stream, which stays as the reference the listings are tested against.
Generation is for small n; counting at larger n belongs to the DP and
series back-ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import CLASS_SPECS, ClassSpec, Partition, PartitionClass, Report, _check_weight, _not_a_class


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, lexicographically decreasing from (n)."""
    _check_weight(n)
    wrap = Partition._unsafe
    if n == 0:
        yield wrap(())
        return
    # ZS1: x[:m] is the current partition, x[h] its last part > 1, and every
    # entry after h is 1, so a step never rescans the trailing 1s.
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    yield wrap(x[:1])
    while x[0] != 1:
        if x[h] == 2:  # (..., 2, 1, ..., 1) -> (..., 1, 1, 1, ..., 1)
            x[h] = 1
            h -= 1
            m += 1
        else:
            # Lower x[h] to r and spread the freed weight t over copies of r.
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1 if t == 0 else h + 2
            if t > 1:
                h += 1
                x[h] = t
        yield wrap(x[:m])


def all_partitions(n: int) -> tuple[Partition, ...]:
    """Materialized form of partitions_of; empty for negative n."""
    if type(n) is int and n < 0:
        return ()
    return tuple(partitions_of(n))  # which refuses an n that is not an int


@dataclass(frozen=True)
class ClassListing(Report):
    """The members of one class at one weight, in enumeration order."""

    n: int
    partition_class: PartitionClass
    members: tuple[Partition, ...]

    def to_csv(self) -> str:  # one formatted line per member: a grid of 200,000 rows is measurably slower
        return "\n".join(["n,partition"] + [f'{self.n},"{p.to_text()}"' for p in self.members])

    def to_table(self) -> str:
        return "\n".join([p.to_text() for p in self.members])


def _generate_members(n: int, spec: ClassSpec) -> tuple[Partition, ...]:
    """The partitions of n meeting the spec, in decreasing lex order; none if n < 0."""
    distinct, lowest, skip_fours, top_parity, (fewest_top, most_top), gap, small = spec
    out: list[Partition] = []
    emit, wrap = out.append, Partition._unsafe
    closes = n if small is None else small  # the largest part that may end a member
    # The smallest allowed part can only finish a member, so it is placed
    # directly: tails maps each weight that copies of it may make to those copies.
    most_lowest = 1 if lowest % 2 == distinct else n // lowest
    tails = {k * lowest: (lowest,) * k for k in range(most_lowest + 1)} if lowest <= closes else {}

    def fill(prefix: tuple[int, ...], rest: int, largest: int, stop: int = lowest, tail: bool = True) -> None:
        # Every completion of prefix making rest from parts <= largest: each
        # part size v above stop, most copies first, then what is left from
        # parts below v; a rest only the lowest part can make is a tail (if tail).
        for v in range(min(largest, rest), stop, -1):
            if skip_fours and v % 4 == 0:
                continue
            for copies in range(1 if v % 2 == distinct else rest // v, 0, -1):
                left = rest - copies * v
                if left and v - 1 > lowest:
                    fill(prefix + (v,) * copies, left, v - 1)
                elif left in tails and (left or v <= closes):
                    emit(wrap(prefix + (v,) * copies + tails[left]))
        if tail and rest in tails:
            emit(wrap(prefix + tails[rest]))

    if n == 0:
        if lowest == 1 and top_parity is None and gap is None and small is None:
            emit(wrap(()))
        return tuple(out)
    # The largest part v, of the top parity if pinned, with fewest_top..most_top copies (one if a
    # gap follows), then the rest from parts up to v - 1 (v - 2 for gap 2; the first is v - 1 for gap 1).
    step = 1 if top_parity is None else 2
    for v in range(n if step == 1 or n % 2 == top_parity else n - 1, lowest - 1, -step):
        if skip_fours and v % 4 == 0:
            continue
        most = 1 if gap or v % 2 == distinct else n // v
        for copies in range(most if most_top is None else min(most, most_top), fewest_top - 1, -1):
            left = n - copies * v
            if not left:
                if gap != 1 and v <= closes:
                    emit(wrap((v,) * copies))
            elif gap == 1:
                if v > lowest:
                    fill((v,), left, v - 1, max(v - 2, lowest), v - 1 == lowest)
            elif v - (gap or 1) >= lowest:
                fill((v,) * copies, left, v - (gap or 1))
    return tuple(out)


def class_members(n: int, partition_class: PartitionClass) -> ClassListing:
    """List the partitions of n lying in a class, in decreasing lex order."""
    _check_weight(n)
    try:
        spec = CLASS_SPECS[partition_class]
    except (KeyError, TypeError):
        raise _not_a_class(partition_class) from None
    return ClassListing(n, partition_class, _generate_members(n, spec))
