"""Generation order, totals against the pentagonal recurrence, and listings."""

import pytest

from pedpod import counting
from pedpod.core import CLASS_SPECS, Partition, PartitionClass, _predicate, is_member
from pedpod.enumeration import _generate_members, all_partitions, class_members, partitions_of


def test_partitions_of_five_exact_order():
    got = [tuple(p) for p in partitions_of(5)]
    assert got == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_partitions_of_zero_and_negative():
    assert [tuple(p) for p in partitions_of(0)] == [()]
    with pytest.raises(ValueError):
        list(partitions_of(-1))
    assert all_partitions(-4) == ()


def test_partitions_of_refuses_bad_n_on_first_iteration():
    for bad in (-1, 2.0, "3", True):
        stream = partitions_of(bad)  # a generator: nothing runs until it is iterated
        with pytest.raises(ValueError, match="non-negative int"):
            next(stream)


def _rescanning_stream(n):
    # The stream before ZS1, kept as its oracle: every step rescans the
    # trailing 1s to find the rightmost part greater than 1.
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
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


def test_stream_equals_the_rescanning_oracle():
    for n in range(0, 41):
        stream = list(partitions_of(n))
        assert stream == list(_rescanning_stream(n)), n
        assert all(type(p) is Partition for p in stream), n


def _place_fill_members(n, spec):
    # The listing walk before the prefix-passing fill, kept as its oracle:
    # place/fill on one shared parts list, the lowest part placed last.
    distinct, lowest, skip_fours, top_parity, (fewest_top, most_top) = spec[:5]  # the class fields
    out = []
    parts = []

    def place(v, rest, fewest, most):
        top = 1 if v % 2 == distinct else rest // v
        if most is not None:
            top = min(top, most)
        for m in range(top, fewest - 1, -1):
            left = rest - m * v
            parts.extend((v,) * m)
            if not left:
                out.append(tuple(parts))
            elif v > lowest:
                fill(left, v - 1)
            del parts[-m:]

    def fill(rest, largest):
        for v in range(min(largest, rest), lowest, -1):
            if not (skip_fours and v % 4 == 0):
                place(v, rest, 1, None)
        copies, extra = divmod(rest, lowest)
        if not extra and (copies == 1 or lowest % 2 != distinct):
            out.append(tuple(parts) + (lowest,) * copies)

    if n == 0:
        if top_parity is None and lowest == 1:
            out.append(())
    elif top_parity is None:
        fill(n, n)
    else:
        for v in range(n if n % 2 == top_parity else n - 1, 0, -2):
            place(v, n, fewest_top, most_top)
    return out


def test_listings_equal_the_place_fill_oracle():
    C = PartitionClass
    cases = [(n, cls) for n in range(0, 36) for cls in PartitionClass]
    cases += [(45, cls) for cls in (C.D1, C.O1, C.PED, C.POD)]
    for n, cls in cases:
        members = _generate_members(n, CLASS_SPECS[cls])
        assert list(members) == _place_fill_members(n, CLASS_SPECS[cls]), (n, cls)
        assert all(type(p) is Partition for p in members), (n, cls)



def test_every_head_pattern_lists_what_its_predicate_admits():
    # Every head pattern on every class without a pinned top, including those
    # no map uses: a top pinned below the lowest part, a small bound below it,
    # a gap after repeated tops, skipped fours at an even top.
    C = PartitionClass
    specs = [
        CLASS_SPECS[cls]._replace(top_parity=parity, top_copies=copies, gap=gap, small=small)
        for cls in (C.ALL, C.FOUR_REGULAR, C.PED, C.PED_GT1, C.POD, C.POD_GT2)
        for parity in (None, 0, 1)
        for copies in ((1, None), (2, None), (1, 1))
        for gap in (None, 1, 2)
        for small in (None, 1, 2)
    ]
    for n in range(0, 15):
        stream = list(partitions_of(n))
        for spec in specs:
            member = _predicate(spec)
            assert list(_generate_members(n, spec)) == [p for p in stream if member(p)], (n, spec)
    assert all(_generate_members(-n, spec) == () for n in (1, 2, 5) for spec in specs)  # audits list n - 3 < 0

def _pentagonal_totals(n_max):
    # Euler's recurrence: p(n) = sum_k (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].
    table = [0] * (n_max + 1)
    table[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * table[n - g1]
            if g2 <= n:
                total += sign * table[n - g2]
            k += 1
        table[n] = total
    return table


def test_totals_match_pentagonal_recurrence():
    oracle = _pentagonal_totals(40)
    for n in range(0, 41):
        assert len(all_partitions(n)) == oracle[n]


def test_known_totals():
    assert len(all_partitions(10)) == 42
    assert len(all_partitions(20)) == 627


def test_no_duplicates_and_all_valid():
    for n in range(0, 22):
        seen = all_partitions(n)
        assert len(set(seen)) == len(seen)
        for p in seen:
            assert p.weight == n
            assert all(a >= b for a, b in zip(p, p[1:]))


def test_order_is_strictly_decreasing_lex():
    for n in range(1, 18):
        listing = [tuple(p) for p in all_partitions(n)]
        assert listing == sorted(listing, reverse=True)


def test_class_members_examples():
    d1 = class_members(4, PartitionClass.D1)
    assert [p.to_text() for p in d1.members] == ["(3,1)", "(1,1,1,1)"]
    ped5 = class_members(5, PartitionClass.PED)
    assert len(ped5.members) == 6
    o2 = class_members(5, PartitionClass.O2)
    assert [tuple(p) for p in o2.members] == [(2, 2, 1)]
    empty_class = class_members(3, PartitionClass.O2)
    assert empty_class.members == ()


def test_class_members_rejects_negative():
    with pytest.raises(ValueError):
        class_members(-1, PartitionClass.PED)


def test_listing_serialization():
    listing = class_members(4, PartitionClass.D1)
    assert listing.to_table() == "(3,1)\n(1,1,1,1)"
    assert listing.to_obj() == {
        "n": 4,
        "class": "d1",
        "members": [[3, 1], [1, 1, 1, 1]],
    }


def test_members_preserve_enumeration_order():
    for n in range(0, 16):
        stream = [p for p in all_partitions(n)]
        for cls in (PartitionClass.PED, PartitionClass.POD, PartitionClass.D2, PartitionClass.O3):
            members = class_members(n, cls).members
            filtered = tuple(p for p in stream if p in set(members))
            assert members == filtered


def test_listings_equal_the_filtered_stream():
    for n in range(0, 31):
        for cls in PartitionClass:
            expected = tuple(p for p in all_partitions(n) if is_member(p, cls))
            assert class_members(n, cls).members == expected, (n, cls)


def test_listings_and_enum_counts_never_walk_every_partition(monkeypatch, partition_stream_forbidden):
    monkeypatch.setattr(counting, "_TABLES", {})  # force a fresh enum build
    enum = counting.count_table(PartitionClass.PED, 40, "enum").counts
    assert enum == counting.count_table(PartitionClass.PED, 40, "dp").counts
    for cls in PartitionClass:
        dp = counting.count_table(cls, 45, "dp").counts
        for n in (0, 17, 45):
            assert len(class_members(n, cls).members) == dp[n], (cls, n)
