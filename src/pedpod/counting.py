"""Exact counting back-ends for the partition classes.

Three interchangeable back-ends produce the same tables:

    ENUM    filter the exhaustive stream (small n only),
    DP      part-by-part dynamic programming over exact Python integers,
    SERIES  coefficients of truncated products of (1 +- q^k)^(+-1).

The DP kernel counts partitions with parts confined to [min_part, max_part]
where one parity is forced distinct (even parts for the ped family, odd
parts for the pod family).  Classes with an odd/even largest part are summed
over that largest part on top of the kernel.  All arithmetic is plain
Python int, so counts never overflow.

Tables are cached as one growing table per (back-end, class).  The count at
weight n does not depend on how far a table runs, so a request is served as
a prefix of the longest table built so far, and only a longer request
rebuilds it, to exactly the requested length.  Memory is bounded by the
largest n requested.  Back-ends never read each other's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Partition, PartitionClass
from .enumeration import all_partitions

ENUM_CAP = 50


class Restriction(Enum):
    """Which parity of parts may appear at most once each."""

    DISTINCT_EVEN = "distinct_even"
    DISTINCT_ODD = "distinct_odd"


def _apply_part(row: list[int], part: int, restricted_parity: int) -> None:
    """Extend a weight-indexed count row by allowing one more part size."""
    top = len(row) - 1
    if part % 2 == restricted_parity:
        for w in range(top, part - 1, -1):  # at most one copy
            row[w] += row[w - part]
    else:
        for w in range(part, top + 1):  # any number of copies
            row[w] += row[w - part]


def restricted_count(n: int, max_part: int, min_part: int, restriction: Restriction) -> int:
    """Count partitions of n with parts in [min_part, max_part] under the restriction."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if min_part < 1:
        raise ValueError("min_part must be at least 1")
    if n == 0:
        return 1
    parity = 0 if restriction is Restriction.DISTINCT_EVEN else 1
    row = [1] + [0] * n
    for part in range(min_part, min(max_part, n) + 1):
        _apply_part(row, part, parity)
    return row[n]


_KERNEL_SETUP = {
    PartitionClass.PED: (0, 1),
    PartitionClass.PED_GT1: (0, 2),
    PartitionClass.POD: (1, 1),
    PartitionClass.POD_GT2: (1, 3),
}

# Classes counted by summing over the largest part: (restricted parity,
# parity of the largest part, how the largest is pinned).
_SWEEP_SETUP = {
    PartitionClass.D1: (0, 1, "at_least_once"),
    PartitionClass.D2: (0, 1, "at_least_twice"),
    PartitionClass.D3: (0, 1, "exactly_once"),
    PartitionClass.O1: (1, 0, "at_least_once"),
    PartitionClass.O2: (1, 0, "at_least_twice"),
    PartitionClass.O3: (1, 0, "exactly_once"),
}


def _dp_counts(partition_class: PartitionClass, n_max: int) -> tuple[int, ...]:
    top = n_max
    if partition_class is PartitionClass.ALL:
        row = [1] + [0] * top
        for part in range(1, top + 1):
            for w in range(part, top + 1):
                row[w] += row[w - part]
        return tuple(row)
    if partition_class is PartitionClass.FOUR_REGULAR:
        row = [1] + [0] * top
        for part in range(1, top + 1):
            if part % 4:
                for w in range(part, top + 1):
                    row[w] += row[w - part]
        return tuple(row)
    if partition_class in _KERNEL_SETUP:
        parity, min_part = _KERNEL_SETUP[partition_class]
        row = [1] + [0] * top
        for part in range(min_part, top + 1):
            _apply_part(row, part, parity)
        if min_part > 1:
            row[0] = 0  # the empty partition is not a member of the >1/>2 classes
        return tuple(row)
    parity, largest_parity, pin = _SWEEP_SETUP[partition_class]
    row = [1] + [0] * top  # counts with parts <= current part size
    out = [0] * (top + 1)
    for part in range(1, top + 1):
        if part % 2 != largest_parity:
            _apply_part(row, part, parity)
            continue
        if pin == "exactly_once":
            # row still counts parts <= part - 1: no further copies of the largest
            for n in range(part, top + 1):
                out[n] += row[n - part]
            _apply_part(row, part, parity)
        else:
            _apply_part(row, part, parity)
            copies = 1 if pin == "at_least_once" else 2
            base = part * copies
            for n in range(base, top + 1):
                out[n] += row[n - base]
    return tuple(out)


def _enum_counts(n_max: int) -> dict[PartitionClass, tuple[int, ...]]:
    """Count every class at every weight <= n_max by one classification pass."""
    tables = {cls: [0] * (n_max + 1) for cls in PartitionClass}
    for n in range(n_max + 1):
        for p in all_partitions(n):
            ped = all(not (a == b and a % 2 == 0) for a, b in zip(p, p[1:]))
            pod = all(not (a == b and a % 2 == 1) for a, b in zip(p, p[1:]))
            tables[PartitionClass.ALL][n] += 1
            if all(x % 4 for x in p):
                tables[PartitionClass.FOUR_REGULAR][n] += 1
            if ped:
                tables[PartitionClass.PED][n] += 1
                if p and p[-1] > 1:
                    tables[PartitionClass.PED_GT1][n] += 1
                if p and p[0] % 2 == 1:
                    tables[PartitionClass.D1][n] += 1
                    repeated = len(p) > 1 and p[1] == p[0]
                    tables[PartitionClass.D2 if repeated else PartitionClass.D3][n] += 1
            if pod:
                tables[PartitionClass.POD][n] += 1
                if p and p[-1] > 2:
                    tables[PartitionClass.POD_GT2][n] += 1
                if p and p[0] % 2 == 0:
                    tables[PartitionClass.O1][n] += 1
                    repeated = len(p) > 1 and p[1] == p[0]
                    tables[PartitionClass.O2 if repeated else PartitionClass.O3][n] += 1
    return {cls: tuple(row) for cls, row in tables.items()}


@dataclass(frozen=True)
class ProductFactor:
    """One family (1 + sign*q^k)^(exponent) for k = first, first+step, ...

    exponent is +1 when inverse is False (multiply) and -1 when inverse is
    True (divide).  Every term has constant coefficient 1, so truncated
    division is always well defined.
    """

    first: int
    step: int
    sign: int
    inverse: bool

    def __post_init__(self) -> None:
        if self.first < 1 or self.step < 1:
            raise ValueError("factor progression must have positive first term and step")
        if self.sign not in (1, -1):
            raise ValueError("factor sign must be +1 or -1")


@dataclass(frozen=True)
class SeriesProductSpec:
    """A truncated infinite product; factors with k > n_max are skipped."""

    factors: tuple[ProductFactor, ...]
    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")


def series_coefficients(spec: SeriesProductSpec) -> list[int]:
    """Coefficients [q^0 .. q^n_max] of the product, as exact integers."""
    top = spec.n_max
    coeffs = [1] + [0] * top
    for factor in spec.factors:
        for k in range(factor.first, top + 1, factor.step):
            if factor.inverse:
                for w in range(k, top + 1):
                    coeffs[w] -= factor.sign * coeffs[w - k]
            else:
                for w in range(top, k - 1, -1):
                    coeffs[w] += factor.sign * coeffs[w - k]
    return coeffs


_SERIES_FACTORS = {
    # ped: evens distinct, odds free.
    PartitionClass.PED: ((2, 2, 1, False), (1, 2, -1, True)),
    # ped with parts > 1: evens (>= 2) distinct, odds >= 3 free.
    PartitionClass.PED_GT1: ((2, 2, 1, False), (3, 2, -1, True)),
    # pod: odds distinct, evens free.
    PartitionClass.POD: ((1, 2, 1, False), (2, 2, -1, True)),
    # pod with parts > 2: odds >= 3 distinct, evens >= 4 free.
    PartitionClass.POD_GT2: ((3, 2, 1, False), (4, 2, -1, True)),
    # no part divisible by 4: k = 1, 2, 3 mod 4 free.
    PartitionClass.FOUR_REGULAR: ((1, 4, -1, True), (2, 4, -1, True), (3, 4, -1, True)),
}


def series_spec_for(partition_class: PartitionClass, n_max: int) -> SeriesProductSpec:
    """The standard product form for a class, or ValueError if it has none."""
    try:
        raw = _SERIES_FACTORS[partition_class]
    except KeyError:
        raise ValueError(
            f"class {partition_class.value!r} has no product form; use the dp backend"
        ) from None
    return SeriesProductSpec(tuple(ProductFactor(*f) for f in raw), n_max)


@dataclass(frozen=True)
class CountTable:
    """Counts for one class at weights 0..n_max, tagged with the backend."""

    partition_class: PartitionClass
    n_max: int
    counts: tuple[int, ...]
    backend: str

    def to_csv(self) -> str:
        lines = ["n,count"]
        lines.extend(f"{n},{c}" for n, c in enumerate(self.counts))
        return "\n".join(lines)

    def to_obj(self) -> dict:
        return {
            "class": self.partition_class.value,
            "backend": self.backend,
            "n_max": self.n_max,
            "counts": list(self.counts),
        }


def normalize_backend(backend: str) -> str:
    """The canonical tag (ENUM, DP or SERIES) for a back-end name."""
    tag = backend.strip().upper()
    if tag not in ("ENUM", "DP", "SERIES"):
        raise ValueError(f"unknown backend {backend!r} (known: enum, dp, series)")
    return tag


def _series_counts(partition_class: PartitionClass, n_max: int) -> tuple[int, ...]:
    raw = series_coefficients(series_spec_for(partition_class, n_max))
    if partition_class in (PartitionClass.PED_GT1, PartitionClass.POD_GT2):
        raw[0] = 0  # empty-partition convention, matching the other back-ends
    return tuple(raw)


# The longest table built so far for each (back-end tag, class).
_TABLES: dict[tuple[str, PartitionClass], tuple[int, ...]] = {}


def _stored_counts(partition_class: PartitionClass, n_max: int, tag: str) -> tuple[int, ...]:
    """The stored table for the class, rebuilt to exactly n_max if it is shorter.

    The enum cap is checked before the store is read, so errors do not depend
    on what it holds.  A series request for a class with no product form
    raises in the build, because the store never holds such an entry.
    """
    if tag == "ENUM" and n_max > ENUM_CAP:
        raise ValueError(f"enum backend is capped at n_max <= {ENUM_CAP}; use dp")
    key = (tag, partition_class)
    counts = _TABLES.get(key, ())
    if len(counts) <= n_max:
        if tag == "ENUM":
            _TABLES.update(((tag, cls), row) for cls, row in _enum_counts(n_max).items())
        elif tag == "DP":
            _TABLES[key] = _dp_counts(partition_class, n_max)
        else:
            _TABLES[key] = _series_counts(partition_class, n_max)
        counts = _TABLES[key]
    return counts


def count_table(partition_class: PartitionClass, n_max: int, backend: str = "dp") -> CountTable:
    """The 0..n_max count table for a class with the chosen backend."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    tag = normalize_backend(backend)
    counts = _stored_counts(partition_class, n_max, tag)
    return CountTable(partition_class, n_max, counts[: n_max + 1], tag)


def class_count(partition_class: PartitionClass, n: int, backend: str = "dp") -> int:
    """The number of partitions of n in the class."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _stored_counts(partition_class, n, normalize_backend(backend))[n]


def four_regular_count(n: int) -> int:
    """Partitions of n with no part divisible by 4."""
    return class_count(PartitionClass.FOUR_REGULAR, n)
