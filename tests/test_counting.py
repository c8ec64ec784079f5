"""Counting back-ends against brute-force oracles and known values."""

import hashlib
import json
import random
import subprocess
import sys

import pytest

from pedpod import counting
from pedpod.core import CLASS_SPECS, Partition, PartitionClass, is_member
from pedpod.counting import (
    _ALL_FLAGS,
    _EMPTY,
    _EVEN_DISTINCT,
    _EVEN_SINGLE,
    _NO_FOURS,
    _ODD_DISTINCT,
    _ODD_SINGLE,
    ENUM_CAP,
    CountTable,
    _code_members,
    class_count,
    count_table,
    normalize_backend,
)
from pedpod.enumeration import all_partitions, class_members

SERIES_CLASSES = (
    PartitionClass.PED,
    PartitionClass.PED_GT1,
    PartitionClass.POD,
    PartitionClass.POD_GT2,
    PartitionClass.FOUR_REGULAR,
)


def test_class_count_known_values():
    assert class_count(PartitionClass.D1, 5) == 4
    assert class_count(PartitionClass.D3, 2) == 0
    assert class_count(PartitionClass.POD, 4) == 3
    assert class_count(PartitionClass.O1, 4) == 2


def test_four_regular_known_values():
    assert class_count(PartitionClass.FOUR_REGULAR, 4) == 4
    assert class_count(PartitionClass.FOUR_REGULAR, 0) == 1
    assert class_count(PartitionClass.FOUR_REGULAR, 5) == 6


def test_small_tables():
    assert count_table(PartitionClass.PED, 5).counts == (1, 1, 2, 3, 4, 6)
    assert count_table(PartitionClass.POD, 5).counts == (1, 1, 1, 2, 3, 4)


def test_total_partition_count_at_100():
    assert class_count(PartitionClass.ALL, 100) == 190569292


def test_backends_agree_on_all_classes():
    for cls in PartitionClass:
        a = count_table(cls, 30, "enum").counts
        b = count_table(cls, 30, "dp").counts
        assert a == b, cls


def test_series_backend_agrees_where_defined():
    for cls in SERIES_CLASSES:
        assert count_table(cls, 60, "series").counts == count_table(cls, 60, "dp").counts


# The dense product expansion the series back-end used before it read the
# pentagonal terms of E(q^a), kept as an oracle: each family (first, step,
# sign, inverse) is (1 + sign*q^k)^(-1 if inverse else +1) for k = first,
# first+step, ...
_DENSE_FACTORS = {
    PartitionClass.PED: ((2, 2, 1, False), (1, 2, -1, True)),
    PartitionClass.PED_GT1: ((2, 2, 1, False), (3, 2, -1, True)),
    PartitionClass.POD: ((1, 2, 1, False), (2, 2, -1, True)),
    PartitionClass.POD_GT2: ((3, 2, 1, False), (4, 2, -1, True)),
    PartitionClass.FOUR_REGULAR: ((1, 4, -1, True), (2, 4, -1, True), (3, 4, -1, True)),
}


def _dense_series(cls, n_max):
    coeffs = [1] + [0] * n_max
    for first, step, sign, inverse in _DENSE_FACTORS[cls]:
        for k in range(first, n_max + 1, step):
            if inverse:
                for w in range(k, n_max + 1):
                    coeffs[w] -= sign * coeffs[w - k]
            else:
                for w in range(n_max, k - 1, -1):
                    coeffs[w] += sign * coeffs[w - k]
    if cls in (PartitionClass.PED_GT1, PartitionClass.POD_GT2):
        coeffs[0] = 0
    return tuple(coeffs)


@pytest.mark.parametrize("n_max", [*range(13), 400])
def test_series_matches_the_dense_product_expansion(n_max):
    for cls in SERIES_CLASSES:
        assert counting._series_counts(cls, n_max)[cls] == _dense_series(cls, n_max), cls


def test_series_matches_dp_at_600(empty_store):
    for cls in SERIES_CLASSES:
        assert count_table(cls, 600, "series").counts == count_table(cls, 600, "dp").counts, cls


# sha256 of one "class:c0,c1,...,c3000" line per series class, in
# SERIES_CLASSES order, taken from the series back-end that expanded each
# class's quotient on its own (before the classes sharing a quotient were
# built together).  The dense oracle above is too slow past 400.
SERIES_3000_SHA256 = "59b08d9b497959c00084355582599ee862eb2b5f09daeea4312debef9319f1df"


def test_series_tables_at_3000_are_pinned(empty_store):
    lines = [f"{cls.value}:{','.join(map(str, count_table(cls, 3000, 'series').counts))}\n" for cls in SERIES_CLASSES]
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == SERIES_3000_SHA256


def test_series_builds_without_the_other_backends(empty_store, monkeypatch):
    def forbidden(*args):
        raise AssertionError("the series back-end called another back-end")

    monkeypatch.setattr(counting, "_dp_counts", forbidden)
    monkeypatch.setattr(counting, "_enum_counts", forbidden)
    for cls in SERIES_CLASSES:
        assert len(count_table(cls, 200, "series").counts) == 201
    assert set(empty_store) == {("SERIES", cls) for cls in SERIES_CLASSES}


def test_series_classes_are_the_product_form_classes():
    assert counting.SERIES_CLASSES == SERIES_CLASSES
    for cls in set(PartitionClass) - set(SERIES_CLASSES):
        with pytest.raises(ValueError):
            count_table(cls, 10, "series")


def test_series_backend_rejects_non_product_classes():
    with pytest.raises(ValueError):
        count_table(PartitionClass.D1, 10, "series")
    with pytest.raises(ValueError):
        count_table(PartitionClass.O3, 10, "series")


# The part-by-part sweep the DP back-end ran before it counted the parts
# >= sqrt(2n) by their number, kept as an oracle.
def _dense_apply_part(row, part, restricted_parity):
    if part % 2 == restricted_parity:
        for w in range(len(row) - 1, part - 1, -1):  # at most one copy
            row[w] += row[w - part]
    else:
        for w in range(part, len(row)):
            row[w] += row[w - part]


def _dense_dp(cls, n_max):
    parity, lowest, skip_fours, top_parity, (fewest, most) = CLASS_SPECS[cls][:5]  # the class fields
    row = [1] + [0] * n_max
    if top_parity is None:
        for part in range(lowest, n_max + 1):
            if not (skip_fours and part % 4 == 0):
                _dense_apply_part(row, part, parity)
        if lowest > 1:
            row[0] = 0
        return tuple(row)
    out = [0] * (n_max + 1)  # summed over the largest part
    for part in range(1, n_max + 1):
        if part % 2 != top_parity:
            _dense_apply_part(row, part, parity)
        elif most == 1:
            for n in range(part, n_max + 1):
                out[n] += row[n - part]
            _dense_apply_part(row, part, parity)
        else:
            _dense_apply_part(row, part, parity)
            for n in range(part * fewest, n_max + 1):
                out[n] += row[n - part * fewest]
    return tuple(out)


def test_kernel_primitives_match_the_per_weight_loops():
    # Every stride 1..len+1 at lengths 0..40 runs both branches of _running
    # (one accumulate per residue when stride^2 <= len, else block by block)
    # and parts >= len, which must leave the row as it is.
    rng = random.Random(23)
    for length in range(41):
        for part in range(1, length + 2):
            row = [rng.randrange(-10**20, 10**20) for _ in range(length)]
            for parity in (0, 1):  # at most one copy when part % 2 == parity, else any number
                got, want = row[:], row[:]
                counting._apply_part(got, part, parity)
                _dense_apply_part(want, part, parity)
                assert got == want, (length, part, parity)
                if part >= length:
                    assert got == row, (length, part, parity)
            got, want = row[:], row[:]
            counting._running(got, part)
            _dense_apply_part(want, part, None)
            assert got == want, (length, part)


@pytest.mark.parametrize("split", [None, 2, 3, 4, 5, 6])
def test_dp_matches_the_dense_sweep_at_every_split_and_size(split):
    # Small splits run every path of the large-part recurrence: t = 1, 2 and
    # 4, a split below the smallest part of ped_gt1 and pod_gt2 (clamped), and
    # flat partitions c^j in and out of each class.  None is the split the
    # back-end picks, s = 1..20 here.
    for cls in PartitionClass:
        dense = _dense_dp(cls, 200)
        for n_max in range(201):
            assert counting._dp_counts(cls, n_max, split) == dense[: n_max + 1], (cls, n_max)


def test_dp_matches_the_dense_sweep_at_1000():
    for cls in PartitionClass:
        assert counting._dp_counts(cls, 1000) == _dense_dp(cls, 1000), cls


# sha256 of one "class:c0,c1,...,c3000" line per class, in PartitionClass
# order, taken from the DP kernel that swept the parts below the split twice
# (before the largest-part sweep was merged into the first).  The dense
# oracle above is too slow past 1000.
DP_3000_SHA256 = "e2df9a152230bf4df00ddb670c0faab27f8d9060a0aecb64083e4e8f42eedfc5"


def test_dp_tables_at_3000_are_pinned():
    lines = [f"{cls.value}:{','.join(map(str, counting._dp_counts(cls, 3000)))}\n" for cls in PartitionClass]
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == DP_3000_SHA256


def test_dp_builds_without_the_other_backends(empty_store, monkeypatch):
    def forbidden(*args):
        raise AssertionError("the dp back-end called another back-end")

    for name in ("_series_counts", "_euler_terms", "_enum_counts"):
        monkeypatch.setattr(counting, name, forbidden)
    for n_max in (30, 300):
        for cls in PartitionClass:
            assert len(count_table(cls, n_max, "dp").counts) == n_max + 1
    assert set(empty_store) == {("DP", cls) for cls in PartitionClass}


def test_dp_matches_direct_enumeration_with_membership():
    for cls in PartitionClass:
        table = count_table(cls, 18, "dp").counts
        for n in range(0, 19):
            direct = sum(1 for p in all_partitions(n) if is_member(p, cls))
            assert table[n] == direct, (cls, n)


def test_enum_walk_matches_direct_enumeration_with_membership(empty_store):
    for cls in PartitionClass:
        table = count_table(cls, 30, "enum").counts
        for n in range(0, 31):
            assert table[n] == sum(1 for p in all_partitions(n) if is_member(p, cls)), (cls, n)


def test_enum_matches_dp_at_the_enum_cap(empty_store):
    for cls in PartitionClass:
        assert count_table(cls, ENUM_CAP, "enum").counts == count_table(cls, ENUM_CAP, "dp").counts, cls


def _one_by_one_enum_counts(n_max):
    """The enum walk before it counted each run of trailing 1s in one step, kept as its oracle.

    It visits every partition of weight <= n_max and tallies each one, so a
    tail of k 1s costs k visits.
    """
    width = n_max + 1
    # hist is flat: (flags * 15 + head * 3 + min(smallest, 3) - 1) * width + weight
    flag_stride = 15 * width
    hist = [0] * ((_ALL_FLAGS + 1) * flag_stride)
    head_at = [head * 3 * width for head in range(5)]
    smallest_at = [0] + [(min(j, 3) - 1) * width + j for j in range(1, width)]
    # flags kept when appending part j below a larger part, or next to an equal one
    below = [0] + [_ALL_FLAGS if j % 4 else _ALL_FLAGS & ~_NO_FOURS for j in range(1, width)]
    equal = [0] + [below[j] & ~(_ODD_DISTINCT if j % 2 else _EVEN_DISTINCT) for j in range(1, width)]

    def walk(w: int, k: int, flags: int, equal_head: int, below_head: int) -> None:
        # Children of a node of weight w whose last part is k.  Appending a
        # part equal to k gives head row offset equal_head, a smaller part
        # below_head; they differ only under a one-part node.
        room = n_max - w
        j = k if k < room else room
        if j == k:
            f = flags & equal[j]
            hist[f * flag_stride + equal_head + smallest_at[j] + w] += 1
            if j < room:
                walk(w + j, j, f, equal_head, equal_head)
            j -= 1
        while j:
            f = flags & below[j]
            hist[f * flag_stride + below_head + smallest_at[j] + w] += 1
            if j < room:
                walk(w + j, j, f, below_head, below_head)
            j -= 1

    hist[_ALL_FLAGS * flag_stride + head_at[_EMPTY]] += 1  # the empty partition
    for a in range(1, width):  # the one-part partitions (a) and their subtrees
        single = _ODD_SINGLE if a % 2 else _EVEN_SINGLE
        hist[below[a] * flag_stride + head_at[single] + smallest_at[a]] += 1
        if a < n_max:
            walk(a, a, below[a], head_at[single + 1], head_at[single])

    tables = {cls: [0] * width for cls in PartitionClass}
    for flags in range(_ALL_FLAGS + 1):
        for head in range(5):
            for smallest in (1, 2, 3):
                start = flags * flag_stride + head_at[head] + (smallest - 1) * width
                row = hist[start:start + width]
                if any(row):
                    for cls in _code_members(flags, head, smallest):
                        tables[cls] = [a + b for a, b in zip(tables[cls], row)]
    return {cls: tuple(row) for cls, row in tables.items()}


def test_enum_walk_equals_the_one_by_one_oracle():
    # Class by class, so a mismatch names its class.
    for n_max in [*range(31), 35, 40, ENUM_CAP]:
        runs, oracle = counting._enum_counts(n_max), _one_by_one_enum_counts(n_max)
        assert list(runs) == list(oracle) == list(PartitionClass), n_max
        for cls in PartitionClass:
            assert runs[cls] == oracle[cls], (n_max, cls)


def test_gt_classes_drop_the_empty_partition_everywhere():
    for cls in (PartitionClass.PED_GT1, PartitionClass.POD_GT2):
        assert count_table(cls, 6, "enum").counts[0] == 0
        assert count_table(cls, 6, "dp").counts[0] == 0
        assert count_table(cls, 6, "series").counts[0] == 0


def test_enum_backend_is_capped():
    with pytest.raises(ValueError):
        count_table(PartitionClass.PED, 51, "enum")


def test_backend_names():
    assert count_table(PartitionClass.PED, 4, "DP").backend == "DP"
    assert count_table(PartitionClass.PED, 4, " Dp ").backend == "DP"
    assert normalize_backend("Series") == "SERIES"
    for bad in ("magic", None, 1, b"dp"):
        with pytest.raises(ValueError, match="unknown backend"):
            count_table(PartitionClass.PED, 4, bad)
        with pytest.raises(ValueError, match="unknown backend"):
            class_count(PartitionClass.PED, 4, bad)


def test_table_serialization():
    table = count_table(PartitionClass.PED, 5, "dp")
    assert isinstance(table, CountTable)
    assert table.to_csv().splitlines() == ["n,count", "0,1", "1,1", "2,2", "3,3", "4,4", "5,6"]
    obj = table.to_obj()
    assert obj["class"] == "ped"
    assert obj["counts"] == [1, 1, 2, 3, 4, 6]
    assert obj["n_max"] == 5


def test_counts_are_exact_big_integers():
    # Sanity check that nothing silently truncates at large weights.
    total = class_count(PartitionClass.ALL, 300)
    assert total == 9253082936723602
    assert class_count(PartitionClass.PED, 300) == class_count(PartitionClass.FOUR_REGULAR, 300)


# ---------------------------------------------------------------------------
# The table store: one growing table per (back-end, class)

BACKEND_CLASSES = {
    "enum": tuple(PartitionClass),
    "dp": tuple(PartitionClass),
    "series": SERIES_CLASSES,
}
# The series classes by eta quotient: E(q^4) / E(q), and E(q^2) / (E(q) E(q^4)).
SERIES_GROUPS = (
    (PartitionClass.PED, PartitionClass.PED_GT1, PartitionClass.FOUR_REGULAR),
    (PartitionClass.POD, PartitionClass.POD_GT2),
)
# (small, large) request sizes per back-end; enum stays cheap well below its cap.
SIZES = {"enum": (12, 26), "dp": (40, 150), "series": (40, 150)}

_FRESH_SCRIPT = """
import json, sys
from pedpod.core import PartitionClass
from pedpod.counting import count_table
backend, n_max, names = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
print(json.dumps({c: list(count_table(PartitionClass(c), n_max, backend).counts) for c in names}))
"""


@pytest.fixture
def empty_store(monkeypatch):
    store = {}
    monkeypatch.setattr(counting, "_TABLES", store)
    return store


def _fresh_tables(backend, n_max, env):
    """Each class's table at n_max, built by a fresh interpreter that builds nothing else."""
    names = [c.value for c in BACKEND_CLASSES[backend]]
    result = subprocess.run(
        [sys.executable, "-c", _FRESH_SCRIPT, backend, str(n_max), *names],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return {PartitionClass(c): tuple(v) for c, v in json.loads(result.stdout).items()}


@pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
def test_tables_match_a_fresh_interpreter_in_either_order(backend, pedpod_env, monkeypatch):
    small, large = SIZES[backend]
    fresh = {n: _fresh_tables(backend, n, pedpod_env) for n in (small, large)}
    for cls in BACKEND_CLASSES[backend]:
        for order in ((large, small), (small, large)):
            monkeypatch.setattr(counting, "_TABLES", {})
            for n in order:
                assert count_table(cls, n, backend).counts == fresh[n][cls], (cls, order, n)


@pytest.mark.parametrize("selector", ["ped", "series", "enum", None, 2])
def test_a_selector_that_is_not_a_class_is_refused_before_any_build(selector, empty_store):
    expected = "expected a PartitionClass"
    with pytest.raises(ValueError, match=expected):
        is_member(Partition((3, 1)), selector)
    with pytest.raises(ValueError, match=expected):
        class_members(3, selector)
    for backend in BACKEND_CLASSES:
        with pytest.raises(ValueError, match=expected):
            count_table(selector, 5, backend)
        with pytest.raises(ValueError, match=expected):
            class_count(selector, 5, backend)
    assert empty_store == {}


@pytest.mark.parametrize("selector", [[1], {}, {PartitionClass.PED}])
def test_an_unhashable_selector_is_refused_the_same_way(selector, empty_store):
    test_a_selector_that_is_not_a_class_is_refused_before_any_build(selector, empty_store)


def test_table_length_matches_the_request(empty_store):
    for backend, classes in BACKEND_CLASSES.items():
        small, large = SIZES[backend]
        for n in (large, small, 0, large + 3, small + 1):
            for cls in classes:
                table = count_table(cls, n, backend)
                assert table.n_max == len(table.counts) - 1 == n, (backend, cls, n)


def test_store_keeps_one_longest_table_per_backend_and_class(empty_store):
    rng = random.Random(20241018)
    keys = [(b, cls) for b, classes in BACKEND_CLASSES.items() for cls in classes]
    calls = []
    for _ in range(50):
        backend, cls = rng.choice(keys)
        n = rng.randint(0, SIZES[backend][1] if backend == "enum" else 300)
        calls.append((backend, cls, n, class_count(cls, n, backend)))
    longest = {}
    for backend, cls, n, _ in calls:
        key = (backend.upper(), cls)
        longest[key] = max(longest.get(key, -1), n)
    # One enum build fills every class, one series build every class of its quotient group.
    for tag, group in [("ENUM", tuple(PartitionClass)), *(("SERIES", group) for group in SERIES_GROUPS)]:
        top = max((n for (t, cls), n in longest.items() if t == tag and cls in group), default=None)
        if top is not None:
            longest.update({(tag, cls): top for cls in group})
    assert {key: len(t) - 1 for key, t in empty_store.items()} == longest
    reference = {cls: count_table(cls, 300, "dp").counts for cls in PartitionClass}
    for backend, cls, n, value in calls:
        assert value == reference[cls][n], (backend, cls, n)


@pytest.mark.parametrize("group", SERIES_GROUPS)
def test_a_series_request_stores_exactly_its_quotient_group(group, empty_store):
    for cls in group:
        empty_store.clear()
        count_table(cls, 50, "series")
        assert {key: len(t) for key, t in empty_store.items()} == {("SERIES", c): 51 for c in group}, cls


def _store_errors():
    return [
        (lambda: count_table(PartitionClass.PED, -1, "dp"), "n_max must be a non-negative int"),
        (lambda: class_count(PartitionClass.POD, -1, "series"), "n must be a non-negative int"),
        (lambda: count_table(PartitionClass.PED, 5, "magic"), "unknown backend"),
        (lambda: class_count(PartitionClass.D1, 5, "magic"), "unknown backend"),
        (lambda: count_table(PartitionClass.PED, ENUM_CAP + 1, "enum"), "capped"),
        (lambda: class_count(PartitionClass.O2, ENUM_CAP + 1, "enum"), "capped"),
        (lambda: count_table(PartitionClass.O3, 5, "series"), "no product form"),
        (lambda: class_count(PartitionClass.D1, 5, "series"), "no product form"),
    ]


def test_errors_do_not_depend_on_the_store(empty_store):
    for call, message in _store_errors():
        with pytest.raises(ValueError, match=message):
            call()
    assert empty_store == {}
    for backend, classes in BACKEND_CLASSES.items():
        for cls in classes:
            count_table(cls, SIZES[backend][1], backend)
    warm = dict(empty_store)
    for call, message in _store_errors():
        with pytest.raises(ValueError, match=message):
            call()
    assert empty_store == warm
