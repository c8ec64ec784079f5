"""Seeded inputs for the three workloads.

`make_inputs(workload, seed)` returns plain JSON-able data; the same seed
always gives the same inputs.  The seed chooses which classes, weights,
identities and partitions a run uses; the sizes that set how much work a
run does (n_max, query count, weight strata, listing weights) are fixed,
so that runs under different seeds measure the same amount of work.

Map inputs at large n come from `sample_partition`, a random constructor
filtered by each map's declared domain: no partition is enumerated to make
them.
"""

from __future__ import annotations

import random

import oracle

TABLES_N = 1000
LOOKUP_QUERIES = 160
LOOKUP_N = 1000
LOOKUP_WINDOWS = 16
AUDIT_TOP = 30
CACHED_LISTING_N = (34, 37, 40)  # class_members serves these from the partition cache
STREAMED_LISTING_N = (41, 43, 45)  # ... and streams these
STREAM_N = 42
ENUM_N = 40
CLI_LIST_N = 30
CLI_AUDIT_TOP = 20
ROUND_TRIPS_PER_MAP = 40
ROUND_TRIP_N = (100, 500)
CORE_SAMPLES = 200

# Listings above the cache line cost p(n) predicate calls whatever the
# class; drawing them from the d/o classes keeps the per-member cost alike
# across seeds.
_STREAMED_CLASSES = ("d1", "d2", "d3", "o1", "o2", "o3")


def tables_inputs(rng: random.Random) -> dict:
    return {
        "n_max": TABLES_N,
        "dp_classes": rng.sample(oracle.CLASSES, len(oracle.CLASSES)),
        "series_classes": rng.sample(oracle.PRODUCT_CLASSES, len(oracle.PRODUCT_CLASSES)),
        # T1/T3 share ped tables and T4/T6 pod tables, cached by the first
        # that asks; a fixed order keeps each call's latency alike across seeds.
        "identities": sorted(oracle.IDENTITIES),
        "cli_class": rng.choice(oracle.CLASSES),
    }


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """One uniform draw from each of `count` equal slices of [lo, hi], ascending."""
    width = (hi - lo + 1) / count
    return [lo + int(i * width + rng.random() * width) for i in range(count)]


def lookups_inputs(rng: random.Random) -> dict:
    # Each block of neighbouring weight strata asks every class once, so
    # every seed puts each class at the same spread of weights.
    weights = _strata(rng, LOOKUP_QUERIES, 0, LOOKUP_N)
    queries = []
    for i in range(0, LOOKUP_QUERIES, len(oracle.CLASSES)):
        block = weights[i:i + len(oracle.CLASSES)]
        queries += [["count", c, n] for c, n in zip(rng.sample(oracle.CLASSES, len(block)), block)]
    rng.shuffle(queries)
    windows = [["verify", rng.choice(sorted(oracle.IDENTITIES)), lo, lo + rng.randint(4, 48)]
               for lo in _strata(rng, LOOKUP_WINDOWS, 0, LOOKUP_N - 48)]
    rng.shuffle(windows)
    # One verify window after every LOOKUP_QUERIES // LOOKUP_WINDOWS point queries.
    session = []
    stride = LOOKUP_QUERIES // LOOKUP_WINDOWS
    for i, window in enumerate(windows):
        session.extend(queries[i * stride:(i + 1) * stride])
        session.append(window)
    session.extend(queries[LOOKUP_WINDOWS * stride:])
    return {"session": session}


def _fill(rng: random.Random, rest: int, cap: int, lo: int, parity: int, used: set) -> list[int] | None:
    """Random parts in [lo, cap] summing to rest, with no repeated part of `parity`."""
    parts = []
    while rest:
        for _ in range(20):
            s = rng.randint(lo, min(cap, rest))
            left = rest - s
            if (left == 0 or left >= lo) and not (s % 2 == parity and s in used):
                break
        else:
            return None
        if s % 2 == parity:
            used.add(s)
        parts.append(s)
        rest -= s
    return parts


def sample_partition(rng: random.Random, n: int) -> tuple | None:
    """A random partition of n shaped to land in the maps' domains often.

    It picks which parity stays distinct, the largest part and whether it
    repeats, the gap to the next part, and the smallest allowed part, then
    fills the rest at random.  Returns None when the fill gets stuck.
    """
    if n < 8:
        return None
    parity = rng.randint(0, 1)
    lo = rng.randint(1, 3)
    largest = rng.randint(max(lo, 4), n // 2)
    repeat = largest % 2 != parity and rng.random() < 0.5
    lead = [largest] * (2 if repeat else 1)
    gap = rng.choice((1, 2, rng.randint(3, largest)))
    second = largest - gap
    used = {x for x in lead if x % 2 == parity}
    if gap <= 2 and second >= lo and not (second % 2 == parity and second in used):
        lead.append(second)
        if second % 2 == parity:
            used.add(second)
    rest = n - sum(lead)
    if rest < 0 or 0 < rest < lo or (rest and second < lo):
        return None
    tail = _fill(rng, rest, second, lo, parity, used)
    if tail is None:
        return None
    return tuple(sorted(lead + tail, reverse=True))


def exhaustive_inputs(rng: random.Random) -> dict:
    pool: dict[str, list] = {name: [] for name in oracle.MAP_NAMES}
    core = []
    while any(len(v) < ROUND_TRIPS_PER_MAP for v in pool.values()) or len(core) < CORE_SAMPLES:
        p = sample_partition(rng, rng.randint(*ROUND_TRIP_N))
        if p is None:
            continue
        if len(core) < CORE_SAMPLES:
            core.append(list(p))
        for name, members in pool.items():
            if len(members) < ROUND_TRIPS_PER_MAP and oracle.domain_member(name, p):
                members.append(list(p))
    return {
        "audit_top": AUDIT_TOP,  # also the top weight of all_partitions and the letter sets
        "stream_n": STREAM_N,
        "audits": rng.sample(oracle.MAP_NAMES, len(oracle.MAP_NAMES)),
        "listings": [[rng.choice(oracle.CLASSES), n] for n in CACHED_LISTING_N]
        + [[rng.choice(_STREAMED_CLASSES), n] for n in STREAMED_LISTING_N],
        "enum": [rng.choice(oracle.CLASSES), ENUM_N],
        "cli_list": [rng.choice(oracle.CLASSES), CLI_LIST_N],
        "cli_audit": [rng.choice(oracle.MAP_NAMES), CLI_AUDIT_TOP],
        "round_trips": pool,
        "core": core,
    }


WORKLOADS = {
    "tables": tables_inputs,
    "lookups": lookups_inputs,
    "exhaustive": exhaustive_inputs,
}


def make_inputs(workload: str, seed: int) -> dict:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def reference_top(workload: str, inputs: dict) -> int:
    """The largest weight a workload's checks need a reference count for."""
    if workload == "tables":
        return inputs["n_max"] + 2
    if workload == "lookups":
        return max(item[-1] for item in inputs["session"]) + 2
    return max(n for _, n in inputs["listings"]) + 2
