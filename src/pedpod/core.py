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

Each class is defined once, as a `ClassSpec` in `CLASS_SPECS`.  `is_member`,
the listings in `enumeration` and the DP back-end in `counting` all read it;
the enum walk and the series back-end keep their own encodings on purpose,
so that comparing the back-ends checks this table too.

A `ClassSpec` is also a head pattern, so the proof maps' sides are data
too: it may pin the largest part L's parity and copies, ask for a second
part of L-1 or none above L-2, and ask for some part at most `small`.

`IDENTITIES` states the six identities (see `verification`) as terms, each
a class at an offset from the identity weight n, with the least n from
which each holds.  `verification` checks them numerically, and the proof
maps in `bijections` read their sides and gates off them.  `Report`, `_plain`
and `_aligned` are the one output format that every result shares.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, NamedTuple

# The text form: parenthesised, comma-separated positive parts in ASCII digits.
_TEXT_FORM = re.compile(r"\((0*[1-9][0-9]*(?:,0*[1-9][0-9]*)*)?\)")


class Partition(tuple):
    """A partition as a non-increasing tuple of positive parts."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        try:
            ordered = sorted(parts, reverse=True)
        except TypeError:  # not iterable, or parts that do not compare
            raise ValueError(f"partition parts must be positive integers, got {parts!r}") from None
        for x in ordered:
            if not isinstance(x, int) or type(x) is bool or x < 1:
                raise ValueError(f"partition parts must be positive integers, got {x!r}")
        return tuple.__new__(cls, ordered)

    @property
    def weight(self) -> int:
        return sum(self)

    def to_text(self) -> str:
        """Render in the canonical text form, e.g. (5,5,4,3) or ()."""
        return "(" + ",".join(str(x) for x in self) + ")"

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the canonical text form; whitespace is ignored everywhere.

        Each part is a nonzero run of ASCII digits, so signs, underscores and
        other scripts' digits, which `int` would accept, are malformed, and so
        is anything that is not a string.
        """
        match = _TEXT_FORM.fullmatch("".join(text.split())) if isinstance(text, str) else None
        if match is None:
            raise ValueError(f"malformed partition text: {text!r}")
        return cls(map(int, match[1].split(",")) if match[1] else ())

    def __repr__(self) -> str:
        return f"Partition{self.to_text()}"

    def __str__(self) -> str:
        return self.to_text()


# Wrap parts the caller guarantees are already canonical, at C speed: the hot
# generators call this once per partition they yield.
Partition._unsafe = partial(tuple.__new__, Partition)


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
        key = name.strip().lower() if isinstance(name, str) else None
        for member in cls:
            if member.value == key:
                return member
        known = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown partition class {name!r} (known: {known})")


class ClassSpec(NamedTuple):
    """What a class or a head pattern asks of its members; each default asks nothing."""

    distinct: int | None = None  # parity whose parts appear at most once each
    lowest: int = 1  # the smallest allowed part
    skip_fours: bool = False  # no part divisible by 4
    top_parity: int | None = None  # parity the largest part must have
    top_copies: tuple[int, int | None] = (1, None)  # fewest, most copies of the largest
    gap: int | None = None  # 1: the second part is L-1; 2: any second part is at most L-2
    small: int | None = None  # some part must be at most this


CLASS_SPECS = {
    PartitionClass.ALL: ClassSpec(),
    PartitionClass.FOUR_REGULAR: ClassSpec(skip_fours=True),
    PartitionClass.PED: ClassSpec(0),
    PartitionClass.PED_GT1: ClassSpec(0, lowest=2),
    PartitionClass.D1: ClassSpec(0, top_parity=1),
    PartitionClass.D2: ClassSpec(0, top_parity=1, top_copies=(2, None)),
    PartitionClass.D3: ClassSpec(0, top_parity=1, top_copies=(1, 1)),
    PartitionClass.POD: ClassSpec(1),
    PartitionClass.POD_GT2: ClassSpec(1, lowest=3),
    PartitionClass.O1: ClassSpec(1, top_parity=0),
    PartitionClass.O2: ClassSpec(1, top_parity=0, top_copies=(2, None)),
    PartitionClass.O3: ClassSpec(1, top_parity=0, top_copies=(1, 1)),
}


def _predicate(spec: ClassSpec) -> Callable[[Partition], bool]:
    """The membership test of a spec: the O(1) checks on the head first, then the scans."""
    distinct, lowest, skip_fours, top_parity, (fewest, most), gap, small = spec

    def member(p: Partition) -> bool:
        if not p:
            return lowest == 1 and top_parity is None
        top = p[0]
        if (
            p[-1] < lowest
            or (top_parity is not None and top % 2 != top_parity)
            or (fewest > 1 and (len(p) < fewest or p[fewest - 1] != top))
            or (most is not None and len(p) > most and p[most] == top)
            or (skip_fours and not all(x % 4 for x in p))
        ):
            return False
        if distinct is not None:
            # Parts are sorted, so a repeat shows up as an adjacent equal pair.
            for a, b in zip(p, p[1:]):
                if a == b and a % 2 == distinct:
                    return False
        return True

    def pattern(p: Partition) -> bool:  # the head clauses the pattern sets, then the class's test
        second = p[1] if len(p) > 1 else -1  # a lone largest part has no second part
        return (
            bool(p) and (small is None or p[-1] <= small)
            and (gap is None or (second == p[0] - 1 if gap == 1 else second <= p[0] - 2)) and member(p)
        )

    return member if gap is None and small is None else pattern  # a class's test runs no head clause


_PREDICATES = {cls: _predicate(spec) for cls, spec in CLASS_SPECS.items()}


@dataclass(frozen=True)
class IdentitySpec:
    """One two-term counting identity with its validity threshold."""

    identity_id: str
    lhs: tuple[tuple[PartitionClass, int], ...]
    rhs: tuple[PartitionClass, int]
    threshold: int

    def term_labels(self) -> list[str]:
        return [_term_label(cls, off) for cls, off in self.lhs]

    def describe(self) -> str:
        lhs = " + ".join(self.term_labels())
        rhs = _term_label(*self.rhs)
        return f"{lhs} = {rhs} for n >= {self.threshold}"


def _term_label(partition_class: PartitionClass, offset: int) -> str:
    inner = "n" if offset == 0 else f"n{offset:+d}"
    return f"{partition_class.value}({inner})"


IDENTITIES: dict[str, IdentitySpec] = {spec.identity_id: spec for spec in (
    IdentitySpec("T1", ((PartitionClass.D1, 0), (PartitionClass.D1, -1)), (PartitionClass.PED, 0), 1),
    IdentitySpec("T2", ((PartitionClass.D2, 0), (PartitionClass.D2, -3)), (PartitionClass.PED_GT1, 0), 1),
    IdentitySpec("T3", ((PartitionClass.D3, 2), (PartitionClass.D3, -1)), (PartitionClass.PED, 0), 1),
    IdentitySpec("T4", ((PartitionClass.O1, 0), (PartitionClass.O1, -1)), (PartitionClass.POD, 0), 2),
    IdentitySpec("T5", ((PartitionClass.O2, 0), (PartitionClass.O2, -3)), (PartitionClass.POD_GT2, 0), 5),
    IdentitySpec("T6", ((PartitionClass.O3, 2), (PartitionClass.O3, -1)), (PartitionClass.POD, 0), 3),
)}


def _check_weight(n: int, name: str = "n") -> None:
    if type(n) is not int or n < 0:
        raise ValueError(f"{name} must be a non-negative int, got {n!r}")


# The two JSON keys that differ from their field's name, in every record at every depth.
_RENAMED = {"partition_class": "class", "identity_id": "identity"}


def _plain(record) -> dict:
    """A record's JSON object: its dataclass fields in declaration order, each under its name or its `_RENAMED` key.

    A class is written as its name and a tuple as a list, in which a tuple
    (a partition) is a list and a record is its own object.
    """

    def value(x):
        if isinstance(x, PartitionClass):
            return x.value
        if not isinstance(x, tuple):
            return x
        first = x[0] if x else None  # a tuple field holds one kind: partitions, records or scalars
        if isinstance(first, tuple):
            return [list(v) for v in x]
        return [_plain(v) for v in x] if is_dataclass(first) else list(x)

    return {_RENAMED.get(field.name, field.name): value(getattr(record, field.name)) for field in fields(record)}


class Report:
    """The output of a result dataclass: JSON from its fields, csv from the rows of its `_grid`."""

    def to_obj(self) -> dict:
        return _plain(self)

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self._grid())


def _aligned(title: str, grid: list[list[str]]) -> str:
    """A title line over the grid's rows, each column right-justified and two spaces apart."""
    row_format = "  ".join(f"{{:>{max(map(len, column))}}}" for column in zip(*grid))  # "{:>w1}  {:>w2} ..."
    return "\n".join([title] + [row_format.format(*row) for row in grid])


def _not_a_class(selector: object) -> ValueError:
    return ValueError(f"expected a PartitionClass, got {selector!r}")


def is_member(p: Partition, partition_class: PartitionClass) -> bool:
    """Decide membership of `p` in one of the twelve classes; any other iterable is canonicalised first."""
    try:
        member = _PREDICATES[partition_class]
    except (KeyError, TypeError):
        raise _not_a_class(partition_class) from None
    return member(p if type(p) is Partition else Partition(p))
