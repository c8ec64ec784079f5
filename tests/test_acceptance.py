"""Acceptance gate.

Each criterion below runs at its stated tolerance and range and prints one
pass/fail line.  Run `pytest -s tests/test_acceptance.py` to see the lines
on a passing suite.
"""

import time

from pedpod.bijections import bijection_names, get_bijection, thm2_sets
from pedpod.core import PartitionClass
from pedpod.counting import class_count, count_table
from pedpod.enumeration import partitions_of
from pedpod.verification import audit_bijection_range, cross_check_counts, verify_identity


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_t1_exact_to_300():
    start = time.time()
    dp = verify_identity("T1", 1, 300, "dp")
    enum = verify_identity("T1", 1, 35, "enum")
    elapsed = time.time() - start
    ok = dp.overall_pass and enum.overall_pass and elapsed < 30
    ok = ok and all(r.equal for r in dp.rows) and all(r.equal for r in enum.rows)
    _report(1, ok, f"T1 dp n=1..300 and enum n=1..35, zero tolerance, {elapsed:.1f}s")


def test_criterion_2_t2_t3_exact_to_300():
    start = time.time()
    ok = True
    for tid in ("T2", "T3"):
        dp = verify_identity(tid, 1, 300, "dp")
        enum = verify_identity(tid, 1, 35, "enum")
        ok = ok and dp.overall_pass and enum.overall_pass
        ok = ok and all(r.equal for r in dp.rows) and all(r.equal for r in enum.rows)
    elapsed = time.time() - start
    ok = ok and elapsed < 30
    _report(2, ok, f"T2 and T3, dp n=1..300 and enum n=1..35, zero tolerance, {elapsed:.1f}s")


def test_criterion_3_t4_t5_t6_from_thresholds():
    start = time.time()
    ok = True
    for tid, threshold in (("T4", 2), ("T5", 5), ("T6", 3)):
        dp = verify_identity(tid, threshold, 300, "dp")
        enum = verify_identity(tid, threshold, 35, "enum")
        ok = ok and dp.overall_pass and enum.overall_pass
        ok = ok and all(r.equal for r in dp.rows) and all(r.equal for r in enum.rows)
    elapsed = time.time() - start
    _report(3, ok, f"T4 from 2, T5 from 5, T6 from 3, up to 300 dp and 35 enum, {elapsed:.1f}s")


def test_criterion_4_all_bijection_audits_to_30():
    start = time.time()
    names = bijection_names()
    failed = []
    for name in names:
        if not audit_bijection_range(name, 0, 30).overall_pass:
            failed.append(name)
    elapsed = time.time() - start
    ok = not failed and len(names) == 14 and elapsed < 120
    _report(4, ok, f"all {len(names)} maps audited for n<=30, failed={failed or 'none'}, {elapsed:.1f}s")


def test_criterion_5_thm2_structure_to_30():
    b2_exchange_ca_forward = get_bijection("thm2.exchange.CA").forward
    b2_exchange_db_forward = get_bijection("thm2.exchange.DB").forward
    b2_exceptional_forward = get_bijection("thm2.exceptional").forward
    bad = []
    for n in range(0, 31):
        s = {k: set(v) for k, v in thm2_sets(n).items()}
        c, d, a, b = s["C"], s["D"], s["A"], s["B"]
        cp, dp_, ap, bp = s["C'"], s["D'"], s["A'"], s["B'"]
        if len(c | d) != len(a | b):
            bad.append((n, "sizes"))
        img = {b2_exchange_ca_forward(p) for p in c - cp}
        if len(img) != len(c - cp) or img != a - ap:
            bad.append((n, "C-C' -> A-A'"))
        img = {b2_exchange_db_forward(p) for p in d - dp_}
        if len(img) != len(d - dp_) or img != b - bp:
            bad.append((n, "D-D' -> B-B'"))
        img = {b2_exceptional_forward(p) for p in cp | dp_}
        if len(img) != len(cp | dp_) or img != ap | bp:
            bad.append((n, "C'|D' -> A'|B'"))
    _report(5, not bad, f"letter-set sizes and the three piecewise maps for n<=30, bad={bad or 'none'}")


def test_criterion_6_ped_equals_four_regular_to_300():
    ped = count_table(PartitionClass.PED, 300, "dp").counts
    four = count_table(PartitionClass.FOUR_REGULAR, 300, "dp").counts
    mismatches = [n for n in range(301) if ped[n] != four[n]]
    _report(6, not mismatches, f"ped(n) == four_regular(n) for n<=300, mismatches={mismatches or 'none'}")


def test_criterion_7_backend_agreement_and_order():
    report = cross_check_counts(300)
    expected = [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    order_ok = [tuple(p) for p in partitions_of(5)] == expected
    ok = report.overall_pass and order_ok
    _report(7, ok, f"enum=dp (n<=35), dp=series (n<=300), and the fixed order of partitions_of(5)")


def test_criterion_8_reconstructions_flagged():
    reconstructed = ("thm4.add", "thm6.add", "thm6.sub")
    ok = True
    details = []
    for name in reconstructed:
        report = audit_bijection_range(name, 0, 30)
        flagged = (
            report.reconstructed
            and report.to_obj()["reconstructed"] is True
            and "[reconstructed]" in report.to_table()
        )
        ok = ok and report.overall_pass and flagged
        details.append(f"{name}:{'ok' if report.overall_pass and flagged else 'bad'}")
    _report(8, ok, f"audits pass for n<=30 and carry the flag: {', '.join(details)}")
