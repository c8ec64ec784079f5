"""Partition value semantics and class predicates against an independent oracle."""

from collections import Counter

import pytest

from pedpod.core import (
    Partition,
    PartitionClass,
    is_member,
    parse_partition,
)
from pedpod.enumeration import all_partitions


# The oracle restates every class definition from scratch with Counter and
# max/count, deliberately avoiding the adjacent-pair scan used in core.


def _distinct_in(p, parity):
    counts = Counter(x for x in p if x % 2 == parity)
    return all(v == 1 for v in counts.values())


def _ped(p):
    return _distinct_in(p, 0)


def _pod(p):
    return _distinct_in(p, 1)


ORACLE = {
    PartitionClass.ALL: lambda p: True,
    PartitionClass.FOUR_REGULAR: lambda p: all(x % 4 != 0 for x in p),
    PartitionClass.PED: _ped,
    PartitionClass.PED_GT1: lambda p: _ped(p) and min(p, default=0) > 1,
    PartitionClass.D1: lambda p: bool(p) and _ped(p) and max(p) % 2 == 1,
    PartitionClass.D2: lambda p: bool(p) and _ped(p) and max(p) % 2 == 1 and p.count(max(p)) >= 2,
    PartitionClass.D3: lambda p: bool(p) and _ped(p) and max(p) % 2 == 1 and p.count(max(p)) == 1,
    PartitionClass.POD: _pod,
    PartitionClass.POD_GT2: lambda p: _pod(p) and min(p, default=0) > 2,
    PartitionClass.O1: lambda p: bool(p) and _pod(p) and max(p) % 2 == 0,
    PartitionClass.O2: lambda p: bool(p) and _pod(p) and max(p) % 2 == 0 and p.count(max(p)) >= 2,
    PartitionClass.O3: lambda p: bool(p) and _pod(p) and max(p) % 2 == 0 and p.count(max(p)) == 1,
}


def test_predicates_match_oracle_exhaustively():
    for n in range(0, 26):
        for p in all_partitions(n):
            for cls, oracle in ORACLE.items():
                assert is_member(p, cls) == oracle(p), (p, cls)


def test_class_partitions_are_consistent():
    for n in range(0, 26):
        for p in all_partitions(n):
            d1 = is_member(p, PartitionClass.D1)
            assert d1 == (is_member(p, PartitionClass.D2) ^ is_member(p, PartitionClass.D3)) or not d1
            if d1:
                assert is_member(p, PartitionClass.D2) != is_member(p, PartitionClass.D3)
                assert is_member(p, PartitionClass.PED)
            o1 = is_member(p, PartitionClass.O1)
            if o1:
                assert is_member(p, PartitionClass.O2) != is_member(p, PartitionClass.O3)
                assert is_member(p, PartitionClass.POD)
            if is_member(p, PartitionClass.PED_GT1):
                assert is_member(p, PartitionClass.PED)
            if is_member(p, PartitionClass.POD_GT2):
                assert is_member(p, PartitionClass.POD)


def test_empty_partition_memberships():
    empty = Partition(())
    inside = {PartitionClass.ALL, PartitionClass.FOUR_REGULAR, PartitionClass.PED, PartitionClass.POD}
    for cls in PartitionClass:
        assert is_member(empty, cls) == (cls in inside)


def test_partition_canonicalizes_order():
    assert Partition((2, 5, 3)) == Partition((5, 3, 2))
    assert tuple(Partition((1, 4, 1))) == (4, 1, 1)


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((3, -1))
    with pytest.raises(ValueError):
        Partition((2.5, 1))
    with pytest.raises(ValueError):
        Partition((True, 2))
    with pytest.raises(ValueError):
        Partition((False,))


def test_weight_and_multiplicity():
    p = Partition((5, 5, 4, 1))
    assert p.weight == 15
    assert p.count(5) == 2
    assert p.count(3) == 0
    assert Partition(()).weight == 0


def test_text_round_trip():
    for text in ["(5,5,4,3)", "()", "(1)", "(9,7,2,2,2,1)"]:
        assert Partition.from_text(text).to_text() == text
    assert parse_partition(" ( 3 , 1 ) ") == Partition((3, 1))
    assert str(Partition((4, 1))) == "(4,1)"
    assert repr(Partition((4, 1))) == "Partition(4,1)"


def test_text_round_trip_exhaustive():
    for n in range(0, 13):
        for p in all_partitions(n):
            assert Partition.from_text(p.to_text()) == p


def test_malformed_text_rejected():
    # int() would read the last three; parts are ASCII digits only.
    for bad in ["", "3,1", "(3,1", "3,1)", "(3,,1)", "(a)", "(0)", "(-2)", "(+3)", "(1_000)", "(\u0663,1)"]:
        with pytest.raises(ValueError):
            Partition.from_text(bad)
    # Whitespace is stripped everywhere, even inside a number.
    assert Partition.from_text("(3 1)") == Partition((31,))


def test_text_that_is_not_a_string_is_malformed():
    for bad in (None, 5, b"(3,1)", ["(3,1)"]):
        with pytest.raises(ValueError, match="malformed partition text"):
            parse_partition(bad)


def test_is_member_canonicalises_a_plain_tuple():
    assert not is_member((2, 1, 2), PartitionClass.PED)  # 2 is repeated
    assert not is_member([1, 2], PartitionClass.D1)  # the largest part, 2, is even
    assert is_member((1, 3), PartitionClass.D3)
    # Not an iterable of parts at all, or parts that do not compare, get the same error.
    for bad in ((0,), (2, -1), (1.0,), (True,), 5, None, 2.5, [1, "a"], [None, 1]):
        with pytest.raises(ValueError, match="partition parts must be positive integers"):
            is_member(bad, PartitionClass.PED)
        with pytest.raises(ValueError, match="partition parts must be positive integers"):
            Partition(bad)


def test_class_names_resolve():
    for cls in PartitionClass:
        assert PartitionClass.from_name(cls.value) is cls
    assert PartitionClass.from_name(" PED ") is PartitionClass.PED
    for bad in ("unknown", 5, None, PartitionClass.PED):
        with pytest.raises(ValueError, match="unknown partition class"):
            PartitionClass.from_name(bad)

