"""Tests of the benchmark itself: python3 -m pytest -q pedbench"""

import dataclasses
import json

import pytest

import inputs
import oracle
import run
import worker

pp = worker.load_pedpod()
REF = oracle.reference_tables(60)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def session():
    return worker.Session("plain", run_id="test")


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_same_inputs(workload):
    assert inputs.make_inputs(workload, 7) == inputs.make_inputs(workload, 7)
    assert inputs.make_inputs(workload, 7) != inputs.make_inputs(workload, 8)


def test_reference_matches_brute_force():
    assert oracle.reference_tables(30) == oracle.brute_counts(30)


def test_sampled_map_inputs_are_in_their_domains():
    pool = inputs.make_inputs("exhaustive", 3)["round_trips"]
    for name, samples in pool.items():
        mapping = pp.bijections.get_bijection(name)
        in_domain = getattr(mapping, "in_domain", lambda p: pp.is_member(p, mapping.domain_class))
        assert len(samples) == inputs.ROUND_TRIPS_PER_MAP
        assert all(in_domain(pp.Partition(p)) for p in samples), name


def test_wrong_count_is_a_failed_call(monkeypatch):
    job = {"inputs": {"session": [["count", "ped", 10], ["count", "d2", 20], ["verify", "T2", 5, 12]]},
           "reference": REF}
    s = session()
    worker.lookups(s, pp, job)
    assert (s.attempted, s.failures) == (3, [])

    real = pp.counting.class_count
    monkeypatch.setattr(pp.counting, "class_count", lambda c, n: real(c, n) + (n == 20))
    s = session()
    worker.lookups(s, pp, job)
    assert s.attempted == 3
    assert [f["call"] for f in s.failures] == ["counting.class_count"]
    assert s.counters["counting.failed"] == 1


def test_wrong_table_row_and_raising_call_fail():
    table = pp.count_table(pp.PartitionClass.D3, 40)
    assert worker.check_table(table, "d3", 40, "dp", REF) is None
    bad = dataclasses.replace(table, counts=table.counts[:17] + (table.counts[17] + 1,) + table.counts[18:])
    assert "entry 17" in worker.check_table(bad, "d3", 40, "dp", REF)

    def boom():
        raise ValueError("no")

    s = session()
    assert s.call("counting.dp", lambda r: None, boom) is None
    assert s.counters["counting.failed"] == 1


def test_wrong_member_is_caught():
    listing = pp.class_members(12, pp.PartitionClass.D1)
    assert worker.check_listing(listing, "d1", 12, REF) is None
    members = listing.members
    swapped = dataclasses.replace(listing, members=(members[1], members[0]) + members[2:])
    assert "lex order" in worker.check_listing(swapped, "d1", 12, REF)
    outsider = dataclasses.replace(listing, members=members[:-1] + (pp.Partition((6, 6)),))
    assert "not in d1" in worker.check_listing(outsider, "d1", 12, REF)
    short = dataclasses.replace(listing, members=members[:-1])
    assert "expected" in worker.check_listing(short, "d1", 12, REF)


def test_stream_walk_catches_a_bad_stream():
    good = list(pp.enumeration.partitions_of(9))
    assert worker.walk_stream(iter(good), 9) == (len(good), None)
    assert worker._check_walk(worker.walk_stream(iter(good), 9), 9, REF) is None
    assert "lex order" in worker.walk_stream(iter([good[1], good[0]] + good[2:]), 9)[1]
    assert "not a partition" in worker.walk_stream(iter(good[:3] + [(5, 3)]), 9)[1]
    assert "expected" in worker._check_walk(worker.walk_stream(iter(good[:-1]), 9), 9, REF)


def test_broken_round_trip_is_caught(monkeypatch):
    p = (7, 4, 3, 1)
    s = session()
    worker._round_trip(s, pp, "thm1.add", p)
    assert (s.attempted, s.failures, s.counters["bijections.roundtrips"]) == (2, [], 1)

    real = pp.bijections.get_bijection
    broken = dataclasses.replace(real("thm1.add"), inverse=lambda q: q)
    monkeypatch.setattr(pp.bijections, "get_bijection", lambda name: broken)
    s = session()
    worker._round_trip(s, pp, "thm1.add", p)
    assert [f["call"] for f in s.failures] == ["bijections.inverse"]
    assert s.counters["bijections.failed"] == 1


def _small(monkeypatch):
    for name, value in {
        "TABLES_N": 40, "LOOKUP_QUERIES": 12, "LOOKUP_N": 60, "LOOKUP_WINDOWS": 2,
        "AUDIT_TOP": 8, "CACHED_LISTING_N": (10,), "STREAMED_LISTING_N": (41,), "STREAM_N": 12,
        "ENUM_N": 12, "CLI_LIST_N": 9, "CLI_AUDIT_TOP": 6, "ROUND_TRIPS_PER_MAP": 2, "CORE_SAMPLES": 3,
    }.items():
        monkeypatch.setattr(inputs, name, value)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
@pytest.mark.parametrize("trace", (False, True))
def test_every_named_metric_is_emitted_with_its_unit(monkeypatch, workload, trace):
    _small(monkeypatch)
    result = run.run(workload, 1, 0, trace)
    named = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    if workload == "lookups":  # the other two call the CLI, whose digests exist only at full size
        assert result["correct"]
