"""Generation order, totals against the pentagonal recurrence, and listings."""

import pytest

from pedpod import counting
from pedpod.core import Partition, PartitionClass, is_member
from pedpod.enumeration import all_partitions, class_members, partitions_of


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
