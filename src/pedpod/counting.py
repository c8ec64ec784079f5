"""Exact counting back-ends for the partition classes.

Three interchangeable back-ends produce the same tables:

    ENUM    one walk over every partition that counts each run of
            trailing 1s in one step (small n only),
    DP      dynamic programming over exact Python integers,
    SERIES  coefficients of eta quotients, products of E(q^a)^(+-1) with
            E(q) = prod (1 - q^k), from Euler's pentagonal number theorem.

The DP reads each class from `core.CLASS_SPECS`: one parity forced distinct
(even parts for the ped family, odd parts for the pod family) or none (all,
and four_regular, which also skips multiples of 4), and for d1..o3 the parity
and copies of the largest part.  It splits the parts at s = isqrt(2n), or at
the class's lowest part if that is larger, as `_large_parts` describes.  The
enum walk (`_code_members`) and the series factors (`_SERIES_FACTORS`) encode
the classes on their own, on purpose, so comparing the back-ends also checks
`CLASS_SPECS`.  All arithmetic is plain Python int, so counts never overflow.

Tables are cached as one growing table per (back-end, class).  The count at
weight n does not depend on how far a table runs, so a request is served as
a prefix of the longest table built so far, and only a longer request
rebuilds it, to exactly the requested length.  The store keeps every table
a build returns: a dp build fills its own class, an enum build every class,
and a series build every class that shares its eta quotient, so the classes
of one build always have tables of the same length.  Memory is bounded by
the largest n requested.  Back-ends never read each other's tables.  A
`CountTable` renders like every report, through `core.Report` and
`core._aligned`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import isqrt
from operator import add, sub

from .core import CLASS_SPECS, ClassSpec, PartitionClass, Report, _aligned, _check_weight, _not_a_class

BACKENDS = ("enum", "dp", "series")
_TAGS = tuple(name.upper() for name in BACKENDS)  # as normalize_backend returns them
ENUM_CAP = 50


def _apply_part(row: list[int], part: int, restricted_parity: int | None) -> None:
    """Extend a weight-indexed count row by allowing one more part size."""
    if part % 2 == restricted_parity:  # at most one copy; the map is read in full before the slice is written
        row[part:] = map(add, row[part:], row)
    else:  # any number of copies
        _running(row, part)


def _running(row: list[int], stride: int) -> None:
    """Running sums along every residue mod stride: row[w] += row[w - stride] for w ascending.

    One accumulate per residue; a residue at or past the row's end is empty.
    """
    for r in range(stride):
        row[r::stride] = accumulate(row[r::stride])


def _large_parts(spec: ClassSpec, n_max: int, s: int) -> list[int]:
    """Counts by weight of the nonempty partitions into parts >= s that meet the spec.

    The DP counts these here and multiplies in the parts < s in one sweep
    from s - 1 down, which a pinned largest part < s of d1..o3 enters as one
    partition: O(t n^2 / s + n s) additions in O(t n) memory, against n^2 / 2
    for a part-by-part sweep.

    They are counted by their number j of parts: layers[i][w - s*j] counts
    those of weight w with j parts >= s + i, i = 0..t.  Taking t from every
    part maps parts >= s + t onto parts >= s and keeps the spec, as it keeps
    each part's parity (t = 2) or residue mod 4 (t = 4; t = 1 for all), if s
    is at least the spec's lowest part (else pod_gt2's 4 would map to 2).
    Removing one copy of a smallest part c = s + i < s + t leaves j - 1
    parts >= c, or >= c + 1 if c is a distinct part; only a flat c^j thereby
    changes its largest part's copies.
    """
    parity, _, skip_fours, top_parity, (fewest, most) = spec[:5]  # a class sets no head-pattern field
    t = 4 if skip_fours else 1 if parity is None else 2

    def flat(c: int, j: int) -> bool:  # is c repeated j times a member?
        return (top_parity in (None, c % 2) and fewest <= j and (most is None or j <= most)
                and (j == 1 or c % 2 != parity))

    total = [0] * (n_max + 1)
    layers = [[0] * (n_max + 1)] * (t + 1)  # j = 0: the caller counts the empty partition
    for j in range(1, n_max // s + 1):
        m = n_max + 1 - s * j
        steps = []  # steps[i]: the ones whose smallest part is s + i
        for i, c in enumerate(range(s, s + t)):
            step = [0] * m
            if not (skip_fours and c % 4 == 0):
                step = ([0] * i + layers[i + (c % 2 == parity)])[:m]
                if i * j < m:  # count c^j if it is a member, not c^(j-1) plus c
                    step[i * j] += flat(c, j) - (c % 2 != parity and flat(c, j - 1))
            steps.append(step)
        low = list(map(sum, zip(*steps)))
        _running(low, t * j)
        layers = [low]
        for step in steps[:-1]:
            layers.append(list(map(sub, layers[-1], step)))
        layers.append(([0] * t * j + low)[:m])
        total[s * j:] = map(add, total[s * j:], low)
    return total


def _dp_counts(partition_class: PartitionClass, n_max: int) -> dict[PartitionClass, tuple[int, ...]]:
    """The class's table: parts >= s by `_large_parts`, times parts < s in one sweep from s - 1 down."""
    spec = CLASS_SPECS[partition_class]
    parity, lowest, skip_fours, top_parity, (fewest, most) = spec[:5]
    s = max(lowest, isqrt(2 * n_max))
    out = _large_parts(spec, n_max, s)
    out[0] = int(top_parity is None)  # no large part: a member unless the largest part is pinned
    for part in range(s - 1, lowest - 1, -1):
        # A pinned largest part enters the sweep as one partition, which the
        # sizes still to come (its own, for any number of copies, and the
        # smaller ones) multiply.  No pinned class sets lowest or skip_fours.
        top = part % 2 == top_parity and part * fewest <= n_max
        if top and most != 1:
            out[part * fewest] += 1
        if not (skip_fours and part % 4 == 0):
            _apply_part(out, part, parity)
        if top and most == 1:
            out[part] += 1
    if lowest > 1:
        out[0] = 0  # the empty partition is not a member of the >1/>2 classes
    return {partition_class: tuple(out)}


# The enum walk tallies each partition under a node code: three flags (even
# parts distinct, odd parts distinct, no part divisible by 4), the head shape
# (empty, or the parity of the largest part and whether it repeats) and the
# smallest part capped at 3.  Those fields decide membership in every class.
_EVEN_DISTINCT, _ODD_DISTINCT, _NO_FOURS = 4, 2, 1
_ALL_FLAGS = _EVEN_DISTINCT | _ODD_DISTINCT | _NO_FOURS
# Each *_REPEATED head is its *_SINGLE head plus one.
_EMPTY, _ODD_SINGLE, _ODD_REPEATED, _EVEN_SINGLE, _EVEN_REPEATED = range(5)


def _code_members(flags: int, head: int, smallest: int) -> list[PartitionClass]:
    """The classes whose members have this node code."""
    C = PartitionClass
    members = [C.ALL]
    if flags & _NO_FOURS:
        members.append(C.FOUR_REGULAR)
    if flags & _EVEN_DISTINCT:
        members.append(C.PED)
        if head != _EMPTY and smallest > 1:
            members.append(C.PED_GT1)
        if head in (_ODD_SINGLE, _ODD_REPEATED):
            members += [C.D1, C.D2 if head == _ODD_REPEATED else C.D3]
    if flags & _ODD_DISTINCT:
        members.append(C.POD)
        if head != _EMPTY and smallest > 2:
            members.append(C.POD_GT2)
        if head in (_EVEN_SINGLE, _EVEN_REPEATED):
            members += [C.O1, C.O2 if head == _EVEN_REPEATED else C.O3]
    return members


def _enum_counts(n_max: int) -> dict[PartitionClass, tuple[int, ...]]:
    """Count every class at every weight <= n_max by one walk over all partitions.

    The walk runs over the tree of partitions of weight <= n_max depth first;
    a child appends a part no larger than its parent's last, so every
    partition is reached exactly once.  Each visit classifies its partition
    in O(1) from state passed down the walk and adds one to
    hist[flags][head][low][weight], where low = min(smallest part, 3) - 1.
    The walk does not descend into a part 1: appending a 1 below a larger part
    tallies that partition, and every longer tail of 1s has one code, the
    first 1's with odd parts no longer distinct, so one mark in the runs row
    of that code at weight + 1 stands for all of them, and a running sum of
    each runs row adds them to its hist row.
    """
    width = n_max + 1
    hist = [[[[0] * width for low in range(3)] for head in range(5)] for flags in range(_ALL_FLAGS + 1)]
    runs = [[[[0] * width for low in range(3)] for head in range(5)] for flags in range(_ALL_FLAGS + 1)]
    # flags kept when appending part j below a larger part, or next to an equal one
    below = [0] + [_ALL_FLAGS if j % 4 else _ALL_FLAGS & ~_NO_FOURS for j in range(1, width)]
    equal = [0] + [below[j] & ~(_ODD_DISTINCT if j % 2 else _EVEN_DISTINCT) for j in range(1, width)]
    ones = _ALL_FLAGS & ~_ODD_DISTINCT  # the flags a second 1 keeps

    def walk(w: int, k: int, flags: int, equal_head: int, below_head: int) -> None:
        # Children of a node of weight w whose last part is k > 1.  Appending
        # a part equal to k gives head equal_head, a smaller part below_head;
        # they differ only under a one-part node.  A part 2 has low 1, a larger one 2.
        room = n_max - w
        j = k if k < room else room
        if j == k:
            f = flags & equal[j]
            hist[f][equal_head][(j > 2) + 1][w + j] += 1
            if j < room:
                walk(w + j, j, f, equal_head, equal_head)
            j -= 1
        while j > 1:
            f = flags & below[j]
            hist[f][below_head][(j > 2) + 1][w + j] += 1
            if j < room:
                walk(w + j, j, f, below_head, below_head)
            j -= 1
        if j:  # a first 1 keeps every flag; then the run of longer tails of 1s
            hist[flags][below_head][0][w + 1] += 1
            if room > 1:
                runs[flags & ones][below_head][0][w + 2] += 1

    hist[_ALL_FLAGS][_EMPTY][0][0] += 1  # the empty partition
    for a in range(1, width):  # the one-part partitions (a) and their subtrees
        single = _ODD_SINGLE if a % 2 else _EVEN_SINGLE
        hist[below[a]][single][min(a, 3) - 1][a] += 1
        if a == 1:  # below (1) lies only the run (1, 1), (1, 1, 1), ...
            if n_max > 1:
                runs[ones][_ODD_REPEATED][0][2] += 1
        elif a < n_max:
            walk(a, a, below[a], single + 1, single)

    tables = {cls: [0] * width for cls in PartitionClass}
    for flags in range(_ALL_FLAGS + 1):
        for head in range(5):
            for low in range(3):
                row = list(map(add, hist[flags][head][low], accumulate(runs[flags][head][low])))
                if any(row):  # most codes never occur; skip their additions into every member class's row
                    for cls in _code_members(flags, head, low + 1):
                        tables[cls] = [a + b for a, b in zip(tables[cls], row)]
    return {cls: tuple(row) for cls, row in tables.items()}


# Each class's series as a quotient of Euler's function E(q) = prod_k (1 - q^k):
# the pairs (a, power) stand for the factors E(q^a)^power, power = +1 or -1.
# One build expands a quotient once for every class with the same factors.
_SERIES_FACTORS = {
    # ped: prod (1 + q^2k) / prod (1 - q^(2k-1)) = E(q^4) / E(q).
    PartitionClass.PED: ((4, 1), (1, -1)),
    # ped with no part 1: the ped series times (1 - q).
    PartitionClass.PED_GT1: ((4, 1), (1, -1)),
    # pod: prod (1 + q^(2k-1)) / prod (1 - q^2k) = E(q^2) / (E(q) E(q^4)).
    PartitionClass.POD: ((2, 1), (1, -1), (4, -1)),
    # pod with no part 1 or 2: the pod series times (1 + q)^(-1) (1 - q^2) = 1 - q.
    PartitionClass.POD_GT2: ((2, 1), (1, -1), (4, -1)),
    # no part divisible by 4: E(q^4) / E(q), the same series as ped.
    PartitionClass.FOUR_REGULAR: ((4, 1), (1, -1)),
}
# The classes with a product form, which the series back-end can count.
SERIES_CLASSES = tuple(_SERIES_FACTORS)


@dataclass(frozen=True)
class CountTable(Report):
    """Counts for one class at weights 0..n_max, tagged with the backend."""

    partition_class: PartitionClass
    backend: str
    n_max: int
    counts: tuple[int, ...]

    def _grid(self) -> list[list[str]]:
        return [["n", "count"]] + [[str(n), str(c)] for n, c in enumerate(self.counts)]

    def to_table(self) -> str:
        return _aligned(f"{self.partition_class.value} counts, backend={self.backend}", self._grid())


def normalize_backend(backend: str) -> str:
    """The canonical tag (ENUM, DP or SERIES) for a back-end name."""
    tag = backend.strip().upper() if isinstance(backend, str) else None
    if tag not in _TAGS:
        raise ValueError(f"unknown backend {backend!r} (known: {', '.join(BACKENDS)})")
    return tag


def _euler_terms(a: int, n_max: int) -> tuple[list[int], list[int]]:
    """The exponents through n_max of E(q^a)'s nonconstant terms: those of sign +1, those of sign -1.

    By the pentagonal number theorem E(q) = 1 + sum over k >= 1 of
    (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)), so there are O(sqrt(n_max / a))
    terms.  Both lists are ascending.
    """
    plus, minus = [], []
    k = 1
    while a * k * (3 * k - 1) // 2 <= n_max:
        side = minus if k % 2 else plus
        side += [a * g for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if a * g <= n_max]
        k += 1
    return plus, minus


def _series_counts(partition_class: PartitionClass, n_max: int) -> dict[PartitionClass, tuple[int, ...]]:
    """Coefficients q^0..q^n_max of the class's eta quotient, for every class with that quotient.

    Multiplying by a factor runs the weights downwards, so each coefficient
    reads the lower ones before they change; dividing runs them upwards and
    reads the quotient's own lower coefficients, which is exact because every
    factor has constant term 1.
    """
    try:
        factors = _SERIES_FACTORS[partition_class]
    except KeyError:
        raise ValueError(f"class {partition_class.value!r} has no product form; use the dp backend") from None
    coeffs = [1] + [0] * n_max
    for a, power in factors:
        plus, minus = _euler_terms(a, n_max)
        for w in range(n_max, 0, -1) if power == 1 else range(1, n_max + 1):
            acc = 0  # the sum of sign * coeffs[w - d] over the terms sign * q^d
            for d in plus:
                if d > w:
                    break
                acc += coeffs[w - d]
            for d in minus:
                if d > w:
                    break
                acc -= coeffs[w - d]
            coeffs[w] += acc if power == 1 else -acc
    counts = tuple(coeffs)
    gt = (0, *map(sub, counts[1:], counts))  # times 1 - q, with 0 at weight 0 as in the other back-ends
    return {cls: gt if cls in (PartitionClass.PED_GT1, PartitionClass.POD_GT2) else counts
            for cls, quotient in _SERIES_FACTORS.items() if quotient == factors}


# The longest table built so far for each (back-end tag, class).
_TABLES: dict[tuple[str, PartitionClass], tuple[int, ...]] = {}


def _stored_counts(partition_class: PartitionClass, n_max: int, tag: str) -> tuple[int, ...]:
    """The stored table for the class, rebuilt to exactly n_max if it is shorter.

    The enum cap is checked before the store is read, so errors do not depend
    on what it holds.  Neither a non-class selector nor a series class with no
    product form is ever stored, so both are refused on the way to a build.
    """
    if tag == "ENUM" and n_max > ENUM_CAP:
        raise ValueError(f"enum backend is capped at n_max <= {ENUM_CAP}; use dp")
    key = (tag, partition_class)
    try:
        counts = _TABLES[key]
    except (KeyError, TypeError):  # not built yet, or an unhashable selector
        counts = ()
    if len(counts) <= n_max:
        if not isinstance(partition_class, PartitionClass):
            raise _not_a_class(partition_class)
        # A dp build fills its own class, an enum walk every class, a series build every class with its quotient.
        built = _enum_counts(n_max) if tag == "ENUM" else (_dp_counts if tag == "DP" else _series_counts)(
            partition_class, n_max)
        _TABLES.update(((tag, cls), row) for cls, row in built.items())
        counts = _TABLES[key]
    return counts


def count_table(partition_class: PartitionClass, n_max: int, backend: str = "dp") -> CountTable:
    """The 0..n_max count table for a class with the chosen backend."""
    _check_weight(n_max, "n_max")
    tag = normalize_backend(backend)
    counts = _stored_counts(partition_class, n_max, tag)
    return CountTable(partition_class, tag, n_max, counts[: n_max + 1])


def class_count(partition_class: PartitionClass, n: int, backend: str = "dp") -> int:
    """The number of partitions of n in the class."""
    _check_weight(n)
    return _stored_counts(partition_class, n, normalize_backend(backend))[n]

