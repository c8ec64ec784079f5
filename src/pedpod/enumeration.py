"""Exhaustive generation of partitions and of class member listings.

partitions_of(n) yields every partition of n in lexicographically decreasing
order, starting from (n) and ending at (1,...,1).  Listings are generated per
class from its `core.CLASS_SPECS` entry, the one definition of the classes:
a pruned recursion places one distinct part size at a time, largest size and
most copies first, and never builds a partition outside the class.  So a
listing costs time in proportion to the class, not to p(n), and comes out in
the same decreasing order as the filtered stream; the `all` listing is
generated the same way and equals the stream.  The stream stays as the
reference the listings are tested against.  Generation is for small n;
counting at larger n belongs to the DP and series back-ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import CLASS_SPECS, ClassSpec, Partition, PartitionClass, _not_a_class


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, lexicographically decreasing from (n)."""
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a non-negative int, got {n!r}")
    if n == 0:
        yield Partition._unsafe(())
        return
    parts = [n]
    while True:
        yield Partition._unsafe(tuple(parts))
        # Find the rightmost part greater than 1; everything after it is 1s.
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        parts[i] -= 1
        spare = len(parts) - i  # the dropped 1s plus the decremented unit
        del parts[i + 1:]
        while spare:
            chunk = min(parts[-1], spare)
            parts.append(chunk)
            spare -= chunk


def all_partitions(n: int) -> tuple[Partition, ...]:
    """Materialized form of partitions_of; empty for negative n."""
    if type(n) is int and n < 0:
        return ()
    return tuple(partitions_of(n))  # which refuses an n that is not an int


@dataclass(frozen=True)
class ClassListing:
    """The members of one class at one weight, in enumeration order."""

    n: int
    partition_class: PartitionClass
    members: tuple[Partition, ...]

    def to_csv(self) -> str:
        return "\n".join(["n,partition"] + [f'{self.n},"{p.to_text()}"' for p in self.members])

    def to_table(self) -> str:
        return "\n".join([p.to_text() for p in self.members])

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "class": self.partition_class.value,
            "members": [list(p) for p in self.members],
        }


def _generate_members(n: int, spec: ClassSpec) -> tuple[Partition, ...]:
    """The partitions of n >= 0 meeting the spec, in decreasing lex order."""
    distinct, lowest, skip_fours, top_parity, (fewest_top, most_top) = spec
    out: list[Partition] = []
    parts: list[int] = []
    wrap = Partition._unsafe

    def place(v: int, rest: int, fewest: int, most: int | None) -> None:
        # Copies of v from the most down to the fewest, each followed by every
        # completion of what is left from parts below v.
        top = 1 if v % 2 == distinct else rest // v
        if most is not None:
            top = min(top, most)
        for m in range(top, fewest - 1, -1):
            left = rest - m * v
            parts.extend((v,) * m)
            if not left:
                out.append(wrap(tuple(parts)))
            elif v > lowest:
                fill(left, v - 1)
            del parts[-m:]

    def fill(rest: int, largest: int) -> None:
        # Every way to make rest from parts <= largest; the smallest allowed
        # part can only finish the partition, so it is placed last, directly.
        for v in range(min(largest, rest), lowest, -1):
            if not (skip_fours and v % 4 == 0):
                place(v, rest, 1, None)
        copies, extra = divmod(rest, lowest)
        if not extra and (copies == 1 or lowest % 2 != distinct):
            out.append(wrap(tuple(parts) + (lowest,) * copies))

    if n == 0:
        if top_parity is None and lowest == 1:
            out.append(wrap(()))
    elif top_parity is None:
        fill(n, n)
    else:
        for v in range(n if n % 2 == top_parity else n - 1, 0, -2):
            place(v, n, fewest_top, most_top)
    return tuple(out)


def class_members(n: int, partition_class: PartitionClass) -> ClassListing:
    """List the partitions of n lying in a class, in decreasing lex order."""
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a non-negative int, got {n!r}")
    try:
        spec = CLASS_SPECS[partition_class]
    except (KeyError, TypeError):
        raise _not_a_class(partition_class) from None
    return ClassListing(n, partition_class, _generate_members(n, spec))
