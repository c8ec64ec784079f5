"""Identity reports, audit mechanics (including deliberately broken maps)."""

import dataclasses

import pytest

from pedpod.bijections import (
    Bijection,
    BijectionId,
    TotalDecomposition,
    bijection_names,
    get_bijection,
    thm2_sets,
    thm5_sets,
)
from pedpod.core import CLASS_SPECS, Partition, PartitionClass
from pedpod import bijections, core, counting
from pedpod.counting import ENUM_CAP, class_count, count_table
from pedpod.enumeration import all_partitions, class_members, partitions_of
from pedpod.verification import (
    IDENTITIES,
    AuditRecord,
    IdentityReport,
    IdentityRow,
    _audit_one,
    _cap_failures,
    audit_bijection_range,
    cross_check_counts,
    get_identity,
    identity_ids,
    verify_identity,
)


def test_identity_registry():
    assert identity_ids() == ["T1", "T2", "T3", "T4", "T5", "T6"]
    thresholds = {tid: spec.threshold for tid, spec in IDENTITIES.items()}
    assert thresholds == {"T1": 1, "T2": 1, "T3": 1, "T4": 2, "T5": 5, "T6": 3}
    assert get_identity("t1") is IDENTITIES["T1"]
    for bad in ("T9", 1, None):
        with pytest.raises(ValueError, match="unknown identity"):
            get_identity(bad)


def test_identity_descriptions():
    assert IDENTITIES["T1"].describe() == "d1(n) + d1(n-1) = ped(n) for n >= 1"
    assert IDENTITIES["T3"].describe() == "d3(n+2) + d3(n-1) = ped(n) for n >= 1"
    assert IDENTITIES["T5"].describe() == "o2(n) + o2(n-3) = pod_gt2(n) for n >= 5"


def test_verify_t1_row_at_5():
    report = verify_identity("T1", 5, 5)
    row = report.rows[0]
    assert row.lhs_values == (4, 2)
    assert row.lhs_total == 6
    assert row.rhs_value == 6
    assert row.equal and row.checked
    assert report.overall_pass


def test_verify_t2_row_at_5():
    row = verify_identity("T2", 5, 5).rows[0]
    assert row.lhs_values == (1, 1)
    assert row.rhs_value == 2
    assert row.equal


def test_verify_t5_row_at_7():
    row = verify_identity("T5", 7, 7).rows[0]
    assert row.lhs_values == (1, 1)
    assert row.rhs_value == 2
    assert row.equal


def test_t5_breaks_informationally_at_3():
    report = verify_identity("T5", 0, 10)
    by_n = {row.n: row for row in report.rows}
    assert not by_n[3].equal
    assert not by_n[3].checked
    assert by_n[3].status() == "info-fail"
    assert report.overall_pass  # the failure sits below the threshold


def test_negative_arguments_count_zero():
    report = verify_identity("T1", 0, 0)
    row = report.rows[0]
    assert row.lhs_values == (0, 0)  # d1(0) and d1(-1)
    assert row.rhs_value == 1
    assert not row.checked


def test_all_identities_hold_on_their_ranges():
    for tid in identity_ids():
        assert verify_identity(tid, 0, 60).overall_pass, tid


def test_verify_argument_errors():
    with pytest.raises(ValueError):
        verify_identity("T1", -1, 5)
    with pytest.raises(ValueError):
        verify_identity("T1", 5, 4)
    with pytest.raises(ValueError):
        verify_identity("T1", 0, 10, backend="series")  # d1 has no product form
    for bad in ("magic", None, 1):
        with pytest.raises(ValueError, match="unknown backend"):
            verify_identity("T1", 0, 2, bad)


def test_verify_reports_the_canonical_backend_name():
    for given, name in ((" Dp ", "dp"), ("ENUM", "enum"), ("dp", "dp")):
        report = verify_identity("T1", 0, 2, given)
        assert report.backend == report.to_obj()["backend"] == name
        assert f"[backend={name}, n=0..2]" in report.to_table().splitlines()[0]


def _row_by_row(identity, n_lo, n_hi, backend="dp"):
    """The report verify_identity built one row at a time before it built each term as a column, kept as an oracle."""
    spec = get_identity(identity)
    reach_of = {}
    for cls, off in (*spec.lhs, spec.rhs):
        reach_of[cls] = max(reach_of.get(cls, 0), off)
    tables = {cls: count_table(cls, n_hi + r, backend).counts for cls, r in reach_of.items()}

    def term(cls, n, off):
        idx = n + off
        return tables[cls][idx] if idx >= 0 else 0

    rows = []
    for n in range(n_lo, n_hi + 1):
        lhs_values = tuple(term(cls, n, off) for cls, off in spec.lhs)
        rhs_value = term(spec.rhs[0], n, spec.rhs[1])
        lhs_total = sum(lhs_values)
        rows.append(IdentityRow(n, lhs_values, lhs_total, rhs_value, lhs_total == rhs_value, n >= spec.threshold))
    overall = all(r.equal for r in rows if r.checked)
    return IdentityReport(
        spec.identity_id, spec.describe(), n_lo, n_hi, spec.threshold, backend, overall, tuple(rows)
    )


def _assert_rows_match_the_oracle(identity, n_lo, n_hi, backend="dp"):
    report = verify_identity(identity, n_lo, n_hi, backend)
    assert report == _row_by_row(identity, n_lo, n_hi, backend), (identity, n_lo, n_hi, backend)
    assert len(report.rows) == n_hi - n_lo + 1


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_identity_rows_match_the_row_by_row_oracle(identity):
    # Every window to 8 reads the n-3 and n-1 terms wholly below weight 0 (n_hi + offset < 0).
    for n_hi in range(9):
        for n_lo in range(n_hi + 1):
            _assert_rows_match_the_oracle(identity, n_lo, n_hi)
    for n_lo in (0, 995):
        _assert_rows_match_the_oracle(identity, n_lo, 1000)
    top = ENUM_CAP - max(off for _, off in (*IDENTITIES[identity].lhs, IDENTITIES[identity].rhs))
    for n_lo, n_hi in [(0, top), (1, top), (top - 3, top), (top, top), *((n, n + 4) for n in range(0, top - 3, 5))]:
        _assert_rows_match_the_oracle(identity, n_lo, n_hi, "enum")


def test_identity_rows_match_the_oracle_on_a_wrong_table(monkeypatch):
    wrong = list(count_table(PartitionClass.PED, 12).counts)
    wrong[7] += 1
    monkeypatch.setattr(counting, "_TABLES", {("DP", PartitionClass.PED): tuple(wrong)})
    for n_lo, n_hi in ((0, 10), (7, 7), (0, 6), (8, 12)):
        report = verify_identity("T1", n_lo, n_hi)
        assert report == _row_by_row("T1", n_lo, n_hi)
        assert report.overall_pass == (n_hi < 7 or n_lo > 7)


def test_identity_report_serialization():
    report = verify_identity("T1", 0, 5)
    obj = report.to_obj()
    assert obj["identity"] == "T1"
    assert obj["threshold"] == 1
    assert obj["rows"][5] == {
        "n": 5,
        "lhs_values": [4, 2],
        "lhs_total": 6,
        "rhs_value": 6,
        "equal": True,
        "checked": True,
    }
    csv = report.to_csv().splitlines()
    assert csv[0] == "n,d1(n),d1(n-1),lhs,rhs,status"
    assert csv[6] == "5,4,2,6,6,pass"
    table = report.to_table()
    assert table.splitlines()[0].startswith("identity T1:")
    assert "PASS" in table


def test_audit_b1_at_5():
    report = audit_bijection_range("thm1.add", 5, 5)
    assert report.n_lo == report.n_hi == 5
    assert len(report.records) == 1
    rec = report.records[0]
    assert rec.domain_size == 2  # (3,1) and (1,1,1,1)
    assert rec.codomain_size == 2  # (4,1) and (2,1,1,1)
    assert rec.passed
    assert report.overall_pass
    assert not report.reconstructed


def test_audit_b2_shift_at_6():
    rec = audit_bijection_range("thm2.shift", 6, 6).records[0]
    assert rec.domain_size == 1  # D2(3) = {(1,1,1)}
    assert rec.codomain_size == 1  # {(3,2,1)}
    assert rec.passed


def test_audit_vacuous_at_0():
    for name in ("thm1.add", "thm2.total", "thm5.total", "thm6.sub"):
        report = audit_bijection_range(name, 0, 0)
        assert report.overall_pass
        assert report.records[0].domain_size == 0


def test_audit_range_arguments():
    with pytest.raises(ValueError):
        audit_bijection_range("thm1.add", 0, 51)
    with pytest.raises(ValueError):
        audit_bijection_range("thm1.add", 5, 4)
    with pytest.raises(ValueError):
        audit_bijection_range("no.such.map", 0, 5)


@pytest.mark.parametrize(
    "name, domain_class, weight",
    [("thm4.add", PartitionClass.O1, 49), ("thm6.add", PartitionClass.O3, 49), ("thm6.sub", PartitionClass.O3, 52)],
)
def test_reconstructed_maps_pass_at_the_audit_cap(name, domain_class, weight):
    report = audit_bijection_range(name, 50, 50)
    assert report.overall_pass and report.reconstructed
    rec = report.records[0]
    assert rec.domain_size == rec.codomain_size == count_table(domain_class, weight).counts[weight]


def test_audit_report_serialization():
    report = audit_bijection_range("thm4.add", 0, 8)
    obj = report.to_obj()
    assert obj["subject"] == "thm4.add"
    assert obj["kind"] == "bijection"
    assert obj["reconstructed"] is True
    assert obj["overall_pass"] is True
    assert len(obj["records"]) == 9
    assert report.to_csv().splitlines()[0] == "n,domain_size,codomain_size,passed"
    table = report.to_table()
    assert "[reconstructed]" in table
    assert "PASS" in table


def _broken_bijection():
    return Bijection(
        id=BijectionId.B1,
        domain=((-1, (CLASS_SPECS[PartitionClass.D1],)),),
        codomain=((0, (CLASS_SPECS[PartitionClass.PED]._replace(top_parity=0),)),),
        min_weight=1,
        forward=lambda p: Partition((p.weight + 1,)),  # constant-shape image
        inverse=lambda q: q,
    )


def test_audit_records_failures_without_throwing():
    rec = _audit_one(_broken_bijection(), 5)
    assert not rec.passed
    assert any("collide" in f for f in rec.failures)
    assert any("outside the codomain" in f for f in rec.failures)
    assert any("no preimage" in f for f in rec.failures)


def test_audit_detects_wrong_weight_shift():
    broken = dataclasses.replace(_broken_bijection(), forward=lambda p: p)
    rec = _audit_one(broken, 5)
    assert not rec.passed
    assert any("shifts weight" in f for f in rec.failures)


def test_audit_detects_misrouted_total():
    from pedpod.bijections import REGISTRY

    original = REGISTRY[BijectionId.B2_TOTAL]
    broken = dataclasses.replace(
        original,
        forward=lambda p: dataclasses.replace(original.forward(p), offset=0),
    )
    rec = _audit_one(broken, 5)
    assert not rec.passed
    assert any("bucket" in f for f in rec.failures)


def _failing_audit(monkeypatch, **recipes):
    """The audit of thm1.add at n = 6 with the recipes it audits replaced."""
    broken = dataclasses.replace(bijections._RECIPES[BijectionId.B1], **recipes)
    monkeypatch.setitem(bijections._RECIPES, BijectionId.B1, broken)
    report = audit_bijection_range("thm1.add", 6, 6)
    assert not report.overall_pass
    return report


def test_a_recipe_fault_fails_the_audit_instead_of_raising(monkeypatch):
    report = _failing_audit(monkeypatch, forward=lambda p: bijections._exact((1,) + tuple(p)))
    assert "forward undefined on (5): map produced parts out of order: (1, 5)" in report.records[0].failures


def test_a_failing_audit_in_every_format(monkeypatch):
    # thm4.add's guard refuses every member of thm1.add's codomain: their largest part is even.
    report = _failing_audit(monkeypatch, inverse=get_bijection("thm4.add").inverse)
    failures = report.records[0].failures
    assert failures and all(f.startswith("inverse undefined on (") for f in failures)
    assert "inverse undefined on (6): (6) is outside the codomain of thm4.add" in failures
    lines = report.to_table().splitlines()
    assert lines[0] == "audit thm1.add (bijection) n=6..6  FAIL"
    assert lines[1].endswith(" FAIL")
    assert lines[2:] == [f"    ! {f}" for f in failures]
    assert report.to_csv().splitlines()[1:] == ["6,4,4,false"]
    obj = report.to_obj()
    assert obj["overall_pass"] is False
    assert obj["records"][0]["passed"] is False and obj["records"][0]["failures"] == list(failures)


@pytest.mark.parametrize(
    "name, forward, shown",
    [
        ("thm1.add", lambda p: tuple(p) + (1,), "(5) -> (5, 1) is not a partition"),
        ("thm1.add", lambda p: list(p) + [1], "(5) -> [5, 1] is not a partition"),
        (
            "thm2.total",
            lambda p: bijections.TaggedPreimage(0, tuple(p)),
            "(6) -> TaggedPreimage(offset=0, partition=(6,)) is not a tagged partition",
        ),
        (
            "thm2.total",
            lambda p: bijections.TaggedPreimage(0, list(p)),
            "(6) -> TaggedPreimage(offset=0, partition=[6]) is not a tagged partition",
        ),
        # Each offset equals 0 and hashes like it, but the guard admits only an int tag.
        (
            "thm2.total",
            lambda p: bijections.TaggedPreimage(0.0, p),
            "(6) -> TaggedPreimage(offset=0.0, partition=Partition(6)) is not a tagged partition",
        ),
        (
            "thm2.total",
            lambda p: bijections.TaggedPreimage(False, p),
            "(6) -> TaggedPreimage(offset=False, partition=Partition(6)) is not a tagged partition",
        ),
    ],
)
def test_a_forward_image_that_is_not_a_partition_fails_that_member(name, forward, shown):
    rec = _audit_one(dataclasses.replace(get_bijection(name), forward=forward), 6)
    assert not rec.passed
    assert shown in rec.failures
    assert sum("is not a" in f for f in rec.failures) == rec.domain_size > 0


def _counted(mapping):
    """The map with forward and inverse wrapped by call counters, and the counters."""
    calls = {"forward": 0, "inverse": 0}

    def counter(direction, fn):
        def counted(x):
            calls[direction] += 1
            return fn(x)

        return counted

    wrapped = dataclasses.replace(
        mapping, forward=counter("forward", mapping.forward), inverse=counter("inverse", mapping.inverse)
    )
    return wrapped, calls


@pytest.mark.parametrize("name", ["thm1.add", "thm2.total"])
def test_audit_calls_each_direction_once_per_member(name):
    mapping, calls = _counted(get_bijection(name))
    rec = _audit_one(mapping, 20)
    assert rec.passed and rec.domain_size > 0
    assert calls == {"forward": rec.domain_size, "inverse": rec.codomain_size}


@pytest.mark.parametrize(
    "name, inverse",
    [("thm1.add", lambda q: q), ("thm2.total", lambda tagged: tagged.partition)],
)
def test_audit_reports_a_broken_inverse_as_a_round_trip_failure(name, inverse):
    broken = dataclasses.replace(get_bijection(name), inverse=inverse)
    rec = _audit_one(broken, 12)
    assert not rec.passed
    assert any("round trip" in f for f in rec.failures)


def test_audits_and_letter_sets_never_walk_every_partition(partition_stream_forbidden):
    for name in bijection_names():
        assert audit_bijection_range(name, 0, 12).overall_pass, name
    s2 = {k: set(v) for k, v in thm2_sets(30).items()}
    assert len(s2["C"] - s2["C'"]) == len(s2["A"] - s2["A'"]) > 0
    s5 = thm5_sets(30)
    assert len(s5["C"]) + len(s5["D"]) == len(s5["A"]) + len(s5["B"]) > 0


def test_failure_cap():
    noisy = AuditRecord(3, 1, 1, False, tuple(f"fail {i}" for i in range(150)))
    capped = _cap_failures([noisy])
    assert len(capped[0].failures) == 101
    assert capped[0].failures[-1] == "... 50 more suppressed"
    total = sum(len(r.failures) for r in _cap_failures([noisy, noisy]))
    assert total == 102  # 100 kept, one suppression note per truncated record


def test_all_registered_maps_pass_to_20():
    for name in bijection_names():
        assert audit_bijection_range(name, 0, 20).overall_pass, name


def test_cross_check_small():
    report = cross_check_counts(25)
    assert report.overall_pass
    names = [r.name for r in report.records]
    assert len(names) == 12 + 5 + 1
    assert "enum_vs_dp:ped" in names
    assert "dp_vs_series:pod_gt2" in names
    assert names[-1] == "ped_equals_four_regular"
    assert "PASS" in report.to_table()
    assert report.to_csv().splitlines()[0] == "check,n_hi,passed"
    with pytest.raises(ValueError):
        cross_check_counts(-1)


def test_cross_check_catches_a_wrong_series_table(monkeypatch):
    monkeypatch.setattr(counting, "_TABLES", {})
    monkeypatch.setattr(counting, "_series_counts", lambda cls, n_max: {cls: (1,) * (n_max + 1)})
    report = cross_check_counts(30)
    passed = {r.name: r.passed for r in report.records}
    assert not report.overall_pass
    assert [name for name, ok in passed.items() if not ok] == [
        f"dp_vs_series:{cls.value}" for cls in counting.SERIES_CLASSES
    ]
    assert passed["ped_equals_four_regular"]


def test_cross_check_catches_a_wrong_class_spec(monkeypatch):
    # The enum walk and the series factors do not read core.CLASS_SPECS, so a
    # wrong spec shows up as a disagreement with the DP, which does.
    monkeypatch.setattr(counting, "_TABLES", {})
    cross_check_counts(30)
    expected = {key: t for key, t in counting._TABLES.items() if key[0] != "DP"}
    monkeypatch.setattr(counting, "_TABLES", {})
    monkeypatch.setitem(core.CLASS_SPECS, PartitionClass.D2, core.CLASS_SPECS[PartitionClass.D1])
    report = cross_check_counts(30)
    assert [r.name for r in report.records if not r.passed] == ["enum_vs_dp:d2"]
    assert {key: t for key, t in counting._TABLES.items() if key[0] != "DP"} == expected


@pytest.mark.parametrize("bad", [3.0, True, "3", None])
def test_weight_arguments_must_be_ints(bad):
    calls = [
        lambda: list(partitions_of(bad)),
        lambda: all_partitions(bad),
        lambda: class_members(bad, PartitionClass.PED),
        lambda: count_table(PartitionClass.PED, bad),
        lambda: class_count(PartitionClass.PED, bad),
        lambda: verify_identity("T1", 0, bad),
        lambda: verify_identity("T1", bad, 5),
        lambda: audit_bijection_range("thm1.add", 0, bad),
        lambda: audit_bijection_range("thm1.add", bad, 5),
        lambda: cross_check_counts(bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"\bints?\b"):
            call()


@pytest.mark.parametrize(
    "identity, rhs_class, shifted_class",
    [("T3", PartitionClass.PED, PartitionClass.D3), ("T6", PartitionClass.POD, PartitionClass.O3)],
)
def test_verify_builds_each_table_only_as_far_as_it_reads(identity, rhs_class, shifted_class, monkeypatch):
    store = {}
    monkeypatch.setattr(counting, "_TABLES", store)
    count_table(rhs_class, 100)
    assert verify_identity(identity, 0, 100).overall_pass
    assert len(store[("DP", rhs_class)]) == 101
    assert len(store[("DP", shifted_class)]) == 103


def test_a_failing_cross_check_in_every_format(monkeypatch):
    monkeypatch.setattr(counting, "_TABLES", {})
    monkeypatch.setattr(counting, "_series_counts", lambda cls, n_max: {cls: (1,) * (n_max + 1)})
    report = cross_check_counts(30)
    failed = [r for r in report.records if not r.passed]
    assert failed and all(len(r.mismatches) == 20 for r in failed)  # the first 20 weights that differ
    lines = report.to_table().splitlines()
    assert lines[0] == "crosscheck n_max=30  FAIL"
    ped = lines.index(next(line for line in lines if line.startswith("  dp_vs_series:ped ")))
    assert lines[ped].endswith(" FAIL")
    assert lines[ped + 1:ped + 21] == [f"    ! {m}" for m in failed[0].mismatches]
    assert lines[ped + 1] == "    ! n=2: dp=2 series=1"  # ped(2) counts (2) and (1,1)
    assert {f"{r.name},30,false" for r in failed} <= set(report.to_csv().splitlines())
    obj = report.to_obj()
    assert obj["overall_pass"] is False
    assert [r["mismatches"] for r in obj["records"] if not r["passed"]] == [list(r.mismatches) for r in failed]


def test_cross_check_serialization():
    obj = cross_check_counts(10).to_obj()
    assert obj["overall_pass"] is True
    assert all(r["passed"] for r in obj["records"])
