"""Frozen input/output pairs, domain gating, and exhaustive round trips."""

import hashlib
import subprocess
import sys
from functools import cache
from itertools import combinations

import pytest

from pedpod.bijections import (
    _RECIPES,
    REGISTRY,
    BijectionId,
    DomainError,
    TaggedPreimage,
    TotalDecomposition,
    _exact,
    _exchange,
    _side_members,
    bijection_names,
    get_bijection,
    thm2_sets,
    thm5_sets,
)
from pedpod.core import CLASS_SPECS, Partition, PartitionClass, is_member
from pedpod.enumeration import all_partitions, class_members, partitions_of
from pedpod.verification import IDENTITIES, audit_bijection_range


# Every map exists only as a registry entry, so these names reach the
# guarded entries.
def _directions(name):
    mapping = get_bijection(name)
    return mapping.forward, mapping.inverse


b1_forward, b1_inverse = _directions("thm1.add")
b2_shift_forward, b2_shift_inverse = _directions("thm2.shift")
b2_exchange_ca_forward, b2_exchange_ca_inverse = _directions("thm2.exchange.CA")
b2_exchange_db_forward, b2_exchange_db_inverse = _directions("thm2.exchange.DB")
b2_exceptional_forward, b2_exceptional_inverse = _directions("thm2.exceptional")
b2_total_forward, b2_total_inverse = _directions("thm2.total")
b3_add_forward, _ = _directions("thm3.add")
b3_sub_forward, _ = _directions("thm3.sub")
b4_forward, b4_inverse = _directions("thm4.add")
b5_shift_forward, _ = _directions("thm5.shift")
b5_exchange_forward, b5_exchange_inverse = _directions("thm5.exchange")
b5_total_forward, b5_total_inverse = _directions("thm5.total")
b6_add_forward, _ = _directions("thm6.add")
b6_sub_forward, _ = _directions("thm6.sub")


def P(*parts):
    return Partition(parts)


def test_b1_examples():
    assert b1_forward(P(3, 3, 2)) == P(4, 3, 2)
    assert b1_forward(P(1)) == P(2)
    assert b1_forward(P(5, 4, 1)) == P(6, 4, 1)
    assert b1_inverse(P(4, 3, 2)) == P(3, 3, 2)


def test_b1_rejects_outside_domain():
    with pytest.raises(DomainError):
        b1_forward(P(2, 2))  # largest part even
    with pytest.raises(DomainError):
        b1_forward(P(3, 2, 2))  # repeated even part
    with pytest.raises(DomainError):
        b1_inverse(P(3, 2))  # largest part odd
    with pytest.raises(DomainError):
        b1_inverse(Partition(()))


def test_b2_shift_examples():
    assert b2_shift_forward(P(3, 3)) == P(5, 4)
    assert b2_shift_forward(P(1, 1, 1)) == P(3, 2, 1)
    assert b2_shift_forward(P(5, 5, 4, 1)) == P(7, 6, 4, 1)
    assert b2_shift_inverse(P(5, 4)) == P(3, 3)
    assert b2_shift_inverse(P(3, 2, 1)) == P(1, 1, 1)


def test_b2_exchange_ca_examples():
    assert b2_exchange_ca_forward(P(6, 5)) == P(5, 5, 1)
    assert b2_exchange_ca_forward(P(6, 4)) == P(3, 3, 1, 1, 1, 1)
    assert b2_exchange_ca_forward(P(8, 3, 2)) == P(3, 3, 2, 1, 1, 1, 1, 1)
    assert b2_exchange_ca_inverse(P(5, 5, 1)) == P(6, 5)
    assert b2_exchange_ca_inverse(P(3, 3, 1, 1, 1, 1)) == P(6, 4)


def test_b2_exchange_db_examples():
    assert b2_exchange_db_forward(P(7, 3)) == P(5, 4, 1)
    assert b2_exchange_db_forward(P(7, 4)) == P(5, 4, 1, 1)
    assert b2_exchange_db_forward(P(9, 5, 3)) == P(7, 6, 3, 1)
    assert b2_exchange_db_inverse(P(5, 4, 1)) == P(7, 3)
    assert b2_exchange_db_inverse(P(7, 6, 3, 1)) == P(9, 5, 3)


def test_b2_exceptional_examples():
    assert b2_exceptional_forward(P(7)) == P(1, 1, 1, 1, 1, 1, 1)
    assert b2_exceptional_forward(P(7, 5)) == P(5, 5, 1, 1)
    assert b2_exceptional_forward(P(10, 2)) == Partition((3, 2) + (1,) * 7)
    assert b2_exceptional_inverse(P(1, 1, 1, 1, 1, 1, 1)) == P(7)
    assert b2_exceptional_inverse(P(5, 5, 1, 1)) == P(7, 5)
    assert b2_exceptional_inverse(Partition((3, 2) + (1,) * 7)) == P(10, 2)


def test_b2_total_examples():
    t = b2_total_forward(P(3, 2))
    assert (t.offset, t.partition) == (-3, P(1, 1))
    assert t.tag_text() == "n-3"
    t = b2_total_forward(P(5, 5, 3))
    assert (t.offset, t.partition) == (0, P(5, 5, 3))
    t = b2_total_forward(P(6, 5))
    assert (t.offset, t.partition) == (0, P(5, 5, 1))
    assert b2_total_inverse(TaggedPreimage(-3, P(1, 1))) == P(3, 2)
    assert b2_total_inverse(TaggedPreimage(0, P(5, 5, 1))) == P(6, 5)


def test_b3_examples():
    assert b3_add_forward(P(5, 3, 2)) == P(6, 3, 2)
    assert b3_add_forward(P(3)) == P(4)
    assert b3_add_forward(P(7, 4, 1)) == P(8, 4, 1)
    assert b3_sub_forward(P(7, 6, 3)) == P(6, 5, 3)
    assert b3_sub_forward(P(7, 5, 2)) == P(5, 5, 2)
    assert b3_sub_forward(P(9, 4, 3)) == P(7, 4, 3)


def test_b4_examples():
    assert b4_forward(P(4, 3)) == P(5, 3)
    assert b4_forward(P(2)) == P(3)
    assert b4_inverse(P(5, 3)) == P(4, 3)
    assert b4_inverse(P(3)) == P(2)


def test_b5_shift_examples():
    assert b5_shift_forward(P(2, 2, 1)) == P(4, 3, 1)
    assert b5_shift_forward(P(4, 4, 3)) == P(6, 5, 3)
    assert b5_shift_forward(P(2, 2)) == P(4, 3)


def test_b5_exchange_examples():
    assert b5_exchange_forward(P(7, 4, 3)) == P(4, 4, 3, 2, 1)
    assert b5_exchange_forward(P(8, 5, 3)) == P(6, 5, 3, 2)
    assert b5_exchange_forward(P(9)) == P(2, 2, 2, 2, 1)
    assert b5_exchange_forward(P(5, 4)) == P(4, 4, 1)
    assert b5_exchange_inverse(P(4, 4, 3, 2, 1)) == P(7, 4, 3)
    assert b5_exchange_inverse(P(2, 2, 2, 2, 1)) == P(9)


def test_b5_total_examples():
    t = b5_total_forward(P(5))
    assert (t.offset, t.partition) == (0, P(2, 2, 1))
    t = b5_total_forward(P(4, 3))
    assert (t.offset, t.partition) == (-3, P(2, 2))
    t = b5_total_forward(P(7))
    assert (t.offset, t.partition) == (0, P(2, 2, 2, 1))
    assert b5_total_inverse(TaggedPreimage(0, P(2, 2, 1))) == P(5)
    assert b5_total_inverse(TaggedPreimage(-3, P(2, 2))) == P(4, 3)


def test_b6_examples():
    assert b6_sub_forward(P(8, 7, 2)) == P(7, 6, 2)
    assert b6_add_forward(P(4, 1)) == P(5, 1)
    assert b6_add_forward(P(2)) == P(3)


def test_total_inverse_needs_valid_tag():
    with pytest.raises(DomainError):
        b2_total_inverse(TaggedPreimage(-1, P(1, 1)))
    with pytest.raises(DomainError):
        b5_total_inverse(TaggedPreimage(2, P(2, 2)))
    assert str(TaggedPreimage(2, P(2, 2))) == "(2,2) @ n+2"


def test_total_forward_rejects_outside_domain():
    with pytest.raises(DomainError):
        b2_total_forward(P(2, 2, 1))  # repeated even part
    with pytest.raises(DomainError):
        b2_total_forward(P(3, 1))  # contains a 1
    with pytest.raises(DomainError):
        b5_total_forward(P(4))  # weight below 5
    with pytest.raises(DomainError):
        b5_total_forward(P(3, 2))  # contains a 2


def test_guards_refuse_the_wrong_input_type():
    cases = [
        (b2_total_inverse, P(3, 3)),
        (b2_total_forward, TaggedPreimage(0, P(3, 3))),
        (b2_total_inverse, TaggedPreimage(0, (3, 3))),  # parts, not a Partition
        (b2_total_inverse, TaggedPreimage(False, P(5, 5, 1))),  # False is not the offset 0
        (b5_total_inverse, TaggedPreimage(0.0, P(2, 2, 1))),
        (b1_forward, TaggedPreimage(0, P(2))),
        (b1_forward, (3, 3, 2)),
        (b1_inverse, [4, 3, 2]),
    ]
    for direction, x in cases:
        with pytest.raises(DomainError, match="is outside the"):
            direction(x)


def test_registry_names_round_trip():
    names = bijection_names()
    assert len(names) == 14
    assert names == sorted(names)
    for name in names:
        mapping = get_bijection(name)
        assert mapping.name == name
    assert get_bijection(BijectionId.B1).name == "thm1.add"
    for bad in ("thm9.nothing", 5, None):
        with pytest.raises(ValueError, match="unknown bijection"):
            get_bijection(bad)


def test_unknown_bijection_keys_are_named_in_the_error():
    known = "(known: thm1.add, thm2.shift, thm2.exchange.CA,"
    for bad, shown in (("thm9.nothing", "'thm9.nothing'"), ([1], "[1]"), ({}, "{}"), ("THM1.ADD", "'THM1.ADD'")):
        with pytest.raises(ValueError) as caught:
            get_bijection(bad)
        assert str(caught.value).startswith(f"unknown bijection {shown} {known}")


def test_reconstructed_flags():
    expected = {
        BijectionId.B4: True,
        BijectionId.B6_ADD: True,
        BijectionId.B6_SUB: True,
    }
    for bid, mapping in REGISTRY.items():
        assert mapping.reconstructed == expected.get(bid, False), bid


def _plain_bijections():
    return [m for m in REGISTRY.values() if not isinstance(m, TotalDecomposition)]


def test_plain_bijections_round_trip_exhaustively():
    for mapping in _plain_bijections():
        for n in range(0, 19):
            for p in all_partitions(n):
                if not mapping.in_domain(p):
                    continue
                q = mapping.forward(p)
                assert q.weight == p.weight + mapping.weight_shift, (mapping.name, p)
                assert mapping.in_codomain(q), (mapping.name, p, q)
                assert mapping.inverse(q) == p, (mapping.name, p, q)


def test_plain_bijections_cover_codomain():
    for mapping in _plain_bijections():
        for n in range(0, 19):
            domain_w = n - mapping.weight_shift
            image = {
                mapping.forward(p)
                for p in all_partitions(domain_w)
                if mapping.in_domain(p)
            }
            codomain = {q for q in all_partitions(n) if mapping.in_codomain(q)}
            assert image == codomain, (mapping.name, n)


# Each total with the identity whose right-hand class it decomposes into
# the two left-hand terms.
TOTAL_IDENTITIES = {"thm2.total": "T2", "thm5.total": "T5"}


def test_total_decompositions_fill_buckets_exactly():
    for name, key in TOTAL_IDENTITIES.items():
        t, spec = get_bijection(name), IDENTITIES[key]
        for n in range(spec.threshold, 19):
            buckets = {off: set() for _, off in spec.lhs}
            for p in class_members(n, spec.rhs[0]).members:
                tagged = t.forward(p)
                buckets[tagged.offset].add(tagged.partition)
                assert t.inverse(tagged) == p
            for cls, off in spec.lhs:
                expected = set(class_members(n + off, cls).members) if n + off >= 0 else set()
                assert buckets[off] == expected, (name, n, off)


def test_total_decompositions_are_the_two_bucket_maps():
    totals = {m.name for m in REGISTRY.values() if isinstance(m, TotalDecomposition)}
    assert totals == {m.name for m in REGISTRY.values() if len(m.codomain) == 2} == set(TOTAL_IDENTITIES)
    assert get_bijection("thm2.total").bucket_class is PartitionClass.D2
    assert get_bijection("thm5.total").bucket_class is PartitionClass.O2


# Each total's shift map and exchange pieces, as the paper assembles them.
TOTAL_PARTS = {
    BijectionId.B2_TOTAL: (
        BijectionId.B2_SHIFT,
        (BijectionId.B2_EXCHANGE_CA, BijectionId.B2_EXCHANGE_DB, BijectionId.B2_EXCEPTIONAL),
    ),
    BijectionId.B5_TOTAL: (BijectionId.B5_SHIFT, (BijectionId.B5_EXCHANGE,)),
}


def test_totals_take_their_fields_from_shift_and_pieces():
    for bid, (shift_id, piece_ids) in TOTAL_PARTS.items():
        t, shift = REGISTRY[bid], REGISTRY[shift_id]
        assert shift.domain[0][1] == (CLASS_SPECS[t.bucket_class],), bid
        assert tuple(off for off, _ in t.codomain) == (0, -shift.weight_shift), bid
        assert t.min_weight == shift.min_weight, bid
        for piece_id in piece_ids:
            piece = REGISTRY[piece_id]
            for n in range(0, 19):
                domain = _side_members(n, piece.domain, piece.primed)
                assert set(domain) <= set(_side_members(n, t.domain)), (bid, piece_id, n)


def test_total_pieces_have_disjoint_shapes():
    # Disjoint pieces, which also tile the letter unions (the test below),
    # put each member a total exchanges in exactly one piece.
    for bid, (shift_id, piece_ids) in TOTAL_PARTS.items():
        t, shift = REGISTRY[bid], REGISTRY[shift_id]
        pieces = [REGISTRY[piece_id] for piece_id in piece_ids]
        for n in range(0, 19):
            domain = _side_members(n, t.domain)
            codomain = class_members(n, t.bucket_class).members + tuple(_side_members(n, shift.codomain))
            for a, b in combinations(pieces, 2):
                assert not any(a.in_domain(p) and b.in_domain(p) for p in domain), (a.name, b.name, n)
                assert not any(a.in_codomain(q) and b.in_codomain(q) for q in codomain), (a.name, b.name, n)


# Each mirror map with its identity and the index of the lhs term it maps
# from.
MIRROR_TERMS = {
    "thm1.add": ("T1", 1), "thm2.shift": ("T2", 1), "thm3.add": ("T3", 1), "thm3.sub": ("T3", 0),
    "thm4.add": ("T4", 1), "thm5.shift": ("T5", 1), "thm6.add": ("T6", 1), "thm6.sub": ("T6", 0),
}


def test_maps_agree_with_the_identities_they_prove():
    # The registry reads each gate and each side's classes and offsets off
    # core.IDENTITIES; this checks that it reads the right terms.
    for name, (key, term) in MIRROR_TERMS.items():
        mapping, spec = get_bijection(name), IDENTITIES[key]
        cls, offset = spec.lhs[term]
        assert mapping.min_weight == spec.threshold, name
        assert mapping.weight_shift == -offset, name
        assert mapping.domain == ((offset, (CLASS_SPECS[cls],)),), name
        assert mapping.codomain[0][0] == spec.rhs[1], name
    for name, key in TOTAL_IDENTITIES.items():
        total, spec = get_bijection(name), IDENTITIES[key]
        assert total.domain == ((spec.rhs[1], (CLASS_SPECS[spec.rhs[0]],)),), name
        assert total.codomain == tuple((offset, (CLASS_SPECS[cls],)) for cls, offset in spec.lhs), name
        assert total.min_weight == spec.threshold, name


# sha256 of every "name p offset image" line of both totals over weights
# 1..18: the exact pairing, not only its bijectivity, is pinned.
TOTAL_PAIRING_SHA256 = "d5cb2390d44b5b23b5096fd7e15338425ee15502a7718270225c415ffce0c337"


def test_total_pairing_is_pinned():
    lines = []
    for bid in TOTAL_PARTS:
        t = REGISTRY[bid]
        for n in range(1, 19):
            for p in _side_members(n, t.domain):
                if t.in_domain(p):
                    tagged = t.forward(p)
                    lines.append(f"{t.name} {p.to_text()} {tagged.offset} {tagged.partition.to_text()}")
    assert len(lines) == 309
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TOTAL_PAIRING_SHA256


# sha256 of every "name p image" line of the four exchange maps over their
# domains at weights 0..30.
EXCHANGE_PAIRING_SHA256 = "2c5cd16c0dc5b6e599709bea82f00e32050f7cc372c07b3a37eb0901d740dd41"


def test_exchange_pairing_is_pinned():
    lines = []
    for name in ("thm2.exchange.CA", "thm2.exchange.DB", "thm2.exceptional", "thm5.exchange"):
        mapping = get_bijection(name)
        for n in range(0, 31):
            for p in _side_members(n, mapping.domain, mapping.primed):
                lines.append(f"{name} {p.to_text()} {mapping.forward(p).to_text()}")
    assert len(lines) == 2704
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXCHANGE_PAIRING_SHA256


def _refused(direction, x):
    try:
        direction(x)
    except DomainError:
        return True
    return False


def test_guards_match_the_registry_predicates():
    for mapping in _plain_bijections():
        for n in range(0, 19):
            for p in all_partitions(n):
                assert _refused(mapping.forward, p) == (not mapping.in_domain(p)), (mapping.name, p)
                assert _refused(mapping.inverse, p) == (not mapping.in_codomain(p)), (mapping.name, p)
    for name, key in TOTAL_IDENTITIES.items():
        t, spec = get_bijection(name), IDENTITIES[key]
        offsets = [off for _, off in spec.lhs]
        for n in range(0, 19):
            for p in all_partitions(n):
                inside = is_member(p, spec.rhs[0]) and n >= spec.threshold
                assert _refused(t.forward, p) == (not inside), (name, p)
                for off in (*offsets, -1):
                    bucketed = off in offsets and is_member(p, spec.lhs[0][0]) and n - off >= spec.threshold
                    assert _refused(t.inverse, TaggedPreimage(off, p)) == (not bucketed), (name, p, off)


# Summed (domain_size, codomain_size) of each map's audit over n = 0..24.  A
# weight gate moved in either direction changes the sums of its map.
AUDIT_SIZES_TO_24 = {
    "thm1.add": (1662, 1662),
    "thm2.exceptional": (89, 89),
    "thm2.exchange.CA": (304, 304),
    "thm2.exchange.DB": (199, 199),
    "thm2.shift": (257, 257),
    "thm2.total": (721, 721),
    "thm3.add": (1280, 1280),
    "thm3.sub": (2440, 2440),
    "thm4.add": (836, 836),
    "thm5.exchange": (287, 287),
    "thm5.shift": (126, 126),
    "thm5.total": (347, 347),
    "thm6.add": (654, 654),
    "thm6.sub": (1209, 1209),
}


def test_audit_sizes_are_pinned():
    assert sorted(AUDIT_SIZES_TO_24) == bijection_names()
    for name, sizes in AUDIT_SIZES_TO_24.items():
        report = audit_bijection_range(name, 0, 24)
        assert report.overall_pass, name
        summed = tuple(sum(getattr(r, f) for r in report.records) for f in ("domain_size", "codomain_size"))
        assert summed == sizes, name

def test_thm2_sets_partition_the_letter_families():
    for n in range(0, 21):
        s = {k: set(v) for k, v in thm2_sets(n).items()}
        assert s["C'"] <= s["C"]
        assert s["D'"] <= s["D"]
        assert s["A'"] <= s["A"]
        assert s["B'"] <= s["B"]
        assert not (s["C"] & s["D"])
        assert not (s["A"] & s["B"])
        assert len(s["C"] | s["D"]) == len(s["A"] | s["B"])
        for p in s["C"] | s["D"] | s["A"] | s["B"]:
            assert is_member(p, PartitionClass.PED)
            assert p.weight == n


@cache  # the definitions below read each partition's family many times
def _ped(p):
    return all(p.count(x) == 1 for x in set(p) if x % 2 == 0)


@cache
def _pod(p):
    return all(p.count(x) == 1 for x in set(p) if x % 2 == 1)


# The letter sets from their definitions, L being the largest part.  thm2, in
# PED: C has L even and no part 1; D has L odd, every other part at most L-2
# and no part 1; A has L odd and repeated and a part 1; B has the shape
# (L, L-1, ...) with L odd and a part 1.  The primed sets are the exceptional
# map's special shapes: C' is (n) and (n-2, 2), D' is (n) and the D members
# whose second part is L-2, A' is all 1s and the A members with exactly two
# 1s, and B' is (3, 2, 1, ..., 1) of even weight.  thm5, in POD, swaps the
# parities and counts parts 1 and 2 as small.
THM2_LETTERS = {
    "C": lambda p: _ped(p) and len(p) > 0 and max(p) % 2 == 0 and 1 not in p,
    "D": lambda p: _ped(p) and len(p) > 0 and max(p) % 2 == 1 and 1 not in p and max(p[1:], default=0) <= max(p) - 2,
    "A": lambda p: _ped(p) and len(p) > 0 and max(p) % 2 == 1 and p.count(max(p)) >= 2 and 1 in p,
    "B": lambda p: _ped(p) and len(p) > 1 and max(p) % 2 == 1 and p[1] == max(p) - 1 and 1 in p,
}
THM2_LETTERS.update({
    "C'": lambda p: THM2_LETTERS["C"](p) and (len(p) == 1 or (len(p) == 2 and p[1] == 2)),
    "D'": lambda p: THM2_LETTERS["D"](p) and (len(p) == 1 or p[1] == max(p) - 2),
    "A'": lambda p: THM2_LETTERS["A"](p) and (set(p) == {1} or p.count(1) == 2),
    "B'": lambda p: THM2_LETTERS["B"](p) and max(p) == 3 and sum(p) % 2 == 0,
})
THM5_LETTERS = {
    "C": lambda p: _pod(p) and len(p) > 0 and max(p) % 2 == 1 and min(p) >= 3,
    "D": lambda p: _pod(p) and len(p) > 0 and max(p) % 2 == 0 and min(p) >= 3 and max(p[1:], default=0) <= max(p) - 2,
    "A": lambda p: _pod(p) and len(p) > 0 and max(p) % 2 == 0 and p.count(max(p)) >= 2 and min(p) <= 2,
    "B": lambda p: _pod(p) and len(p) > 1 and max(p) % 2 == 0 and p[1] == max(p) - 1 and min(p) <= 2,
}


def _family_maps(family, top):
    # The four mirrored maps of one family (PED with top 1, POD with top 0),
    # L being the largest part.  Domains: D1 has L of parity top, D2 also
    # repeats it and D3 has it once.  Codomains: L of the other parity;
    # (L, L-1, ...) with L of parity top; L of the other parity with every
    # other part at most L-2; and the rest of the family beyond that last one.
    def d1(p):
        return family(p) and len(p) > 0 and max(p) % 2 == top

    def gap2(p):
        return family(p) and len(p) > 0 and max(p) % 2 != top and all(x <= max(p) - 2 for x in p[1:])

    return (
        (d1, lambda p: family(p) and len(p) > 0 and max(p) % 2 != top),
        (lambda p: d1(p) and p.count(max(p)) >= 2, lambda p: d1(p) and len(p) > 1 and p[1] == max(p) - 1),
        (lambda p: d1(p) and p.count(max(p)) == 1, gap2),
        (lambda p: d1(p) and p.count(max(p)) == 1, lambda p: family(p) and len(p) > 0 and not gap2(p)),
    )


def _minus(a, b):
    return lambda p: a(p) and not b(p)


def _either(a, b):
    return lambda p: a(p) or b(p)


# Each plain map's (domain, codomain) from the module docstring's table, as
# sets of partitions of any weight.
L2, L5 = THM2_LETTERS, THM5_LETTERS
MAP_SIDES = {
    **dict(zip(("thm1.add", "thm2.shift", "thm3.add", "thm3.sub"), _family_maps(_ped, 1))),
    **dict(zip(("thm4.add", "thm5.shift", "thm6.add", "thm6.sub"), _family_maps(_pod, 0))),
    "thm2.exchange.CA": (_minus(L2["C"], L2["C'"]), _minus(L2["A"], L2["A'"])),
    "thm2.exchange.DB": (_minus(L2["D"], L2["D'"]), _minus(L2["B"], L2["B'"])),
    "thm2.exceptional": (_either(L2["C'"], L2["D'"]), _either(L2["A'"], L2["B'"])),
    "thm5.exchange": (_either(L5["C"], L5["D"]), _either(L5["A"], L5["B"])),
}


def test_letter_sets_match_their_definitions():
    for n in range(36):
        stream = list(partitions_of(n))
        for sets, letters in ((thm2_sets(n), THM2_LETTERS), (thm5_sets(n), THM5_LETTERS)):
            assert list(sets) == list(letters)
            for name, test in letters.items():
                assert sets[name] == tuple(p for p in stream if test(p)), (n, name)


def test_map_sides_are_listed_as_their_definitions():
    # Each side listed straight from its head patterns is exactly its
    # definition, in the order of the stream, at every weight up to 35.
    assert sorted(MAP_SIDES) == sorted(m.name for m in _plain_bijections())
    for n in range(36):
        stream = list(partitions_of(n))
        for mapping in _plain_bijections():
            for side, definition in zip((mapping.domain, mapping.codomain), MAP_SIDES[mapping.name]):
                expected = [p for p in stream if definition(p)]
                (offset, _), = side
                assert _side_members(n - offset, side, mapping.primed) == expected, (mapping.name, n)


def test_total_pieces_tile_the_letter_unions():
    # A total exchanges every member of C union D with one test, and undoes
    # the exchange on every member of A union B, so its pieces' sides must
    # merge to exactly those unions.
    letters = {BijectionId.B2_TOTAL: THM2_LETTERS, BijectionId.B5_TOTAL: THM5_LETTERS}
    for bid, (_, piece_ids) in TOTAL_PARTS.items():
        pieces = [REGISTRY[piece_id] for piece_id in piece_ids]
        unions = (_either(letters[bid]["C"], letters[bid]["D"]), _either(letters[bid]["A"], letters[bid]["B"]))
        for n in range(31):
            stream = list(partitions_of(n))
            for side, union in zip(("domain", "codomain"), unions):
                merged = sorted((p for piece in pieces for p in _side_members(n, getattr(piece, side), piece.primed)),
                                reverse=True)
                assert merged == [p for p in stream if union(p)], (bid, side, n)


def test_guards_admit_every_listed_member():
    # The listings and the guards read the same patterns, so a pattern too
    # narrow in both still fails the definitions above; this ties the two,
    # the tagged listing and the tagged test included.
    for mapping in REGISTRY.values():
        for n in range(mapping.min_weight, 31):
            for p in _side_members(n, mapping.domain, mapping.primed):
                assert mapping.in_domain(p), (mapping.name, p)
            for q in _side_members(n, mapping.codomain, mapping.primed):
                assert mapping.in_codomain(q), (mapping.name, q)


def test_served_maps_are_the_audited_recipes():
    # Audits run the unguarded recipes, so an audit vouches for the public
    # maps only if each serves those recipes on the same sides: the guarded
    # directions must answer as the recipes do on every listed member.
    for bid in BijectionId:
        served, recipes = REGISTRY[bid], _RECIPES[bid]
        assert type(served) is type(recipes), bid
        for field in ("id", "domain", "codomain", "min_weight", "primed", "reconstructed"):
            assert getattr(served, field) == getattr(recipes, field), (bid, field)
        for n in range(served.min_weight, 21):
            for p in _side_members(n, served.domain, served.primed):
                assert served.forward(p) == recipes.forward(p), (bid, p)
            for q in _side_members(n, served.codomain, served.primed):
                assert served.inverse(q) == recipes.inverse(q), (bid, q)


def test_thm5_sets_are_disjoint_and_pod():
    for n in range(0, 21):
        s = {k: set(v) for k, v in thm5_sets(n).items()}
        assert not (s["C"] & s["D"])
        assert not (s["A"] & s["B"])
        for p in s["A"] | s["B"] | s["C"] | s["D"]:
            assert is_member(p, PartitionClass.POD)
            assert p.weight == n


def test_exchange_weight_is_conserved():
    for n in range(5, 21):
        s5 = {k: set(v) for k, v in thm5_sets(n).items()}
        for p in s5["C"] | s5["D"]:
            q = b5_exchange_forward(p)
            assert q.weight == p.weight
            assert b5_exchange_inverse(q) == p
        s2 = {k: set(v) for k, v in thm2_sets(n).items()}
        for p in s2["C"] - s2["C'"]:
            assert b2_exchange_ca_forward(p).weight == p.weight
        for p in s2["D"] - s2["D'"]:
            assert b2_exchange_db_forward(p).weight == p.weight


def test_image_invariants_raise():
    with pytest.raises(RuntimeError, match="out of order"):
        _exact((2, 3))
    with pytest.raises(RuntimeError, match="out of order"):
        _exact((4, 4, 1, 2))
    assert type(_exact((3, 3, 1))) is Partition
    with pytest.raises(RuntimeError, match="non-positive"):
        _exact((2, 0))
    # (3, 3) is no exchange domain member: the guard refuses it, and the raw
    # recipes' pairs (5, 4) and (6, 5) outweigh (3, 3) and (4, 4).
    with pytest.raises(DomainError):
        b2_exchange_db_forward(P(3, 3))
    with pytest.raises(RuntimeError, match=r"negative filler weight -3: \(3,3\)"):
        _exchange(0, 1)[0](P(3, 3))
    with pytest.raises(RuntimeError, match=r"negative filler weight -3: \(4,4\)"):
        _exchange(1, 2)[0](P(4, 4))


def test_image_invariants_survive_optimize(pedpod_env):
    script = (
        "from pedpod.bijections import _exact\n"
        "try:\n"
        "    _exact((2, 3))\n"
        "except RuntimeError:\n"
        "    print('raised')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=pedpod_env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "raised"
