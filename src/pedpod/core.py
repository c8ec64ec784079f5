"""Canonical integer partitions and the restricted classes built on them.

A partition is a non-increasing tuple of positive integers; the empty tuple
is the unique partition of 0.  Twelve classes are recognised:

    all           every partition
    four_regular  no part divisible by 4
    ped           no even part repeated
    ped_gt1       ped, and every part is at least 2
    d1            ped, and the largest part is odd
    d2            d1, and the largest part appears at least twice
    d3            d1, and the largest part appears exactly once
    pod           no odd part repeated
    pod_gt2       pod, and every part is at least 3
    o1            pod, and the largest part is even
    o2            o1, and the largest part appears at least twice
    o3            o1, and the largest part appears exactly once

The empty partition belongs only to the classes whose condition is vacuous
and does not mention a largest part: all, four_regular, ped, pod.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable


class Partition(tuple):
    """A partition as a non-increasing tuple of positive parts."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        ordered = sorted(parts, reverse=True)
        for x in ordered:
            if not isinstance(x, int) or type(x) is bool or x < 1:
                raise ValueError(f"partition parts must be positive integers, got {x!r}")
        return tuple.__new__(cls, ordered)

    @classmethod
    def _unsafe(cls, ordered: tuple[int, ...]) -> "Partition":
        """Wrap a tuple the caller guarantees is already canonical."""
        return tuple.__new__(cls, ordered)

    @property
    def weight(self) -> int:
        return sum(self)

    def multiplicity(self, value: int) -> int:
        """How many times `value` occurs as a part."""
        return self.count(value)

    def to_text(self) -> str:
        """Render in the canonical text form, e.g. (5,5,4,3) or ()."""
        return "(" + ",".join(str(x) for x in self) + ")"

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the canonical text form; whitespace is ignored everywhere."""
        compact = "".join(text.split())
        if not (compact.startswith("(") and compact.endswith(")")):
            raise ValueError(f"malformed partition text: {text!r}")
        inner = compact[1:-1]
        if not inner:
            return cls()
        try:
            return cls(int(tok) for tok in inner.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed partition text: {text!r}") from exc

    def __repr__(self) -> str:
        return f"Partition{self.to_text()}"

    def __str__(self) -> str:
        return self.to_text()


def parse_partition(text: str) -> Partition:
    return Partition.from_text(text)


class PartitionClass(Enum):
    """Stable identifiers for the twelve partition classes."""

    ALL = "all"
    FOUR_REGULAR = "four_regular"
    PED = "ped"
    PED_GT1 = "ped_gt1"
    D1 = "d1"
    D2 = "d2"
    D3 = "d3"
    POD = "pod"
    POD_GT2 = "pod_gt2"
    O1 = "o1"
    O2 = "o2"
    O3 = "o3"

    @classmethod
    def from_name(cls, name: str) -> "PartitionClass":
        try:
            return cls(name.strip().lower())
        except ValueError:
            known = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown partition class {name!r} (known: {known})") from None


def _distinct_in_parity(p: Partition, parity: int) -> bool:
    # Parts are sorted, so a repeat shows up as an adjacent equal pair.
    return all(not (a == b and a % 2 == parity) for a, b in zip(p, p[1:]))


def _is_ped(p: Partition) -> bool:
    return _distinct_in_parity(p, 0)


def _is_pod(p: Partition) -> bool:
    return _distinct_in_parity(p, 1)


def _is_d1(p: Partition) -> bool:
    return bool(p) and p[0] % 2 == 1 and _is_ped(p)


def _is_o1(p: Partition) -> bool:
    return bool(p) and p[0] % 2 == 0 and _is_pod(p)


_PREDICATES = {
    PartitionClass.ALL: lambda p: True,
    PartitionClass.FOUR_REGULAR: lambda p: all(x % 4 for x in p),
    PartitionClass.PED: _is_ped,
    PartitionClass.PED_GT1: lambda p: bool(p) and p[-1] > 1 and _is_ped(p),
    PartitionClass.D1: _is_d1,
    PartitionClass.D2: lambda p: _is_d1(p) and len(p) > 1 and p[1] == p[0],
    PartitionClass.D3: lambda p: _is_d1(p) and (len(p) == 1 or p[1] < p[0]),
    PartitionClass.POD: _is_pod,
    PartitionClass.POD_GT2: lambda p: bool(p) and p[-1] > 2 and _is_pod(p),
    PartitionClass.O1: _is_o1,
    PartitionClass.O2: lambda p: _is_o1(p) and len(p) > 1 and p[1] == p[0],
    PartitionClass.O3: lambda p: _is_o1(p) and (len(p) == 1 or p[1] < p[0]),
}


def is_member(p: Partition, partition_class: PartitionClass) -> bool:
    """Decide membership of `p` in one of the twelve classes."""
    return _PREDICATES[partition_class](p)
