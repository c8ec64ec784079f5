"""pedpod benchmark: one command, one workload, one seed.

    python3 pedbench/run.py --workload tables|lookups|exhaustive \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; pedpod is imported from its `src/`.
The seed makes the inputs (inputs.py) and the reference answers are
computed without pedpod (oracle.py).  For S seconds the command then runs
passes of the workload one after another, each in a fresh single-threaded
interpreter (worker.py), and reports medians over the passes.  Every
answer is checked; a call that raises or answers wrong is counted failed.

Workloads (closed loop, one client, one worker at a time; the sizes are
in inputs.py):
    tables      one count table per class at n_max = 1000 with the dp
                back-end, the product classes with series, T1..T6 over the
                whole range, crosscheck, and `pedpod count` in three formats.
    lookups     160 point queries class_count(cls, n), n <= 1000, with 16
                short verify_identity windows mixed in.
    exhaustive  every map audited over 0..30, the thm2/thm5 letter sets,
                listings on both sides of the n = 40 cache line, the enum
                back-end at 40, `pedpod list` / `pedpod audit`, round trips
                of every map at n in 100..500, and the core predicates.

End-to-end metrics (--trace 0, from untraced passes):
    wall_s       time spent inside the calls into pedpod, from the first
                 call to the last, with the checks between calls left out
    setup_s      start a fresh interpreter and import pedpod (median of
                 several imports made during the run)
    peak_rss_mb  the worker's peak resident set size (VmHWM)
    op_p50_ms    median latency of one call in a pass, median over passes
    op_p90_ms    90th percentile latency of one call in a pass, median over
                 passes (pooling the passes would let a percentile that falls
                 between two clusters of call latencies jump between them)
The fraction of failed calls is `failed` / `attempted` in the result line.

Per-layer metrics (--trace 1) come from traced passes (see worker.py):
busy times, call counts and work counts from passes in which every call
is a span, and memory from passes that also give each call a memory
figure.  A layer's peak_alloc_mb is the largest figure among its calls:
the tracemalloc peak, or for calls that build count tables, how far the
call raised the worker's VmHWM.  counting.hwm_rise_mb sums those rises
over the counting calls, so memory the counting layer keeps shows.
Layers are pedpod's modules, measured at the entry points the benchmark
calls; a layer the workload does not call reports 0.  `trace_overhead_s`
is the time a span pass spends recording its spans, which happens between
the timed calls, timed directly and medianed over the span passes.  (The
difference between a span pass's and an untraced pass's duration would
include the same cost, but the host's drift from pass to pass is far
larger than it.)
The spans are written to pedbench/traces/.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
import oracle
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TRACES = HERE / "traces"

MIN_PASSES = 3  # untraced passes per run; a traced run needs one pass of each kind
WORKER_TIMEOUT_S = 150


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def _layer_metrics(p: dict) -> dict[str, float]:
    busy: Counter = Counter()
    calls: Counter = Counter()
    peak: Counter = Counter()
    rise: Counter = Counter()
    for s in p["spans"]:
        busy[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        peak[s["layer"]] = max(peak[s["layer"]], s.get("alloc_peak", 0), s.get("hwm_rise", 0))
        rise[s["layer"]] += s.get("hwm_rise", 0)
    c = Counter(p["counters"])
    mb = 1 / 2**20
    members = c["enumeration.class_members.members"]
    audited = c["verification.audit.members"]
    round_trip_s = busy["bijections.forward"] + busy["bijections.inverse"]
    return {
        "counting.dp.busy_s": busy["counting.dp"],
        "counting.dp.calls": calls["counting.dp"],
        "counting.dp.ns_per_cell": _ratio(busy["counting.dp"], c["counting.dp.cells"], 1e9),
        "counting.series.busy_s": busy["counting.series"],
        "counting.series.calls": calls["counting.series"],
        "counting.enum.busy_s": busy["counting.enum"],
        "counting.class_count.busy_s": busy["counting.class_count"],
        "counting.class_count.calls": calls["counting.class_count"],
        "counting.peak_alloc_mb": peak["counting"] * mb,
        "counting.hwm_rise_mb": rise["counting"] * mb,
        "counting.failed": c["counting.failed"],
        "enumeration.all_partitions.busy_s": busy["enumeration.all_partitions"],
        "enumeration.partitions_of.busy_s": busy["enumeration.partitions_of"],
        "enumeration.partitions.count": c["enumeration.partitions.count"],
        "enumeration.class_members.busy_s": busy["enumeration.class_members"],
        "enumeration.class_members.members": members,
        "enumeration.class_members.us_per_member": _ratio(busy["enumeration.class_members"], members, 1e6),
        "enumeration.peak_alloc_mb": peak["enumeration"] * mb,
        "enumeration.failed": c["enumeration.failed"],
        "core.is_member.calls": calls["core.is_member"],
        "core.is_member.busy_s": busy["core.is_member"],
        "core.parse.calls": calls["core.parse"],
        "core.parse.busy_s": busy["core.parse"],
        "bijections.forward.calls": calls["bijections.forward"],
        "bijections.forward.busy_s": busy["bijections.forward"],
        "bijections.inverse.calls": calls["bijections.inverse"],
        "bijections.inverse.busy_s": busy["bijections.inverse"],
        "bijections.us_per_roundtrip": _ratio(round_trip_s, c["bijections.roundtrips"], 1e6),
        "bijections.sets.busy_s": busy["bijections.sets"],
        "bijections.failed": c["bijections.failed"],
        "verification.verify_identity.busy_s": busy["verification.verify_identity"],
        "verification.verify_identity.rows": c["verification.verify_identity.rows"],
        "verification.audit.busy_s": busy["verification.audit"],
        "verification.audit.members": audited,
        "verification.audit.us_per_member": _ratio(busy["verification.audit"], audited, 1e6),
        "verification.cross_check.busy_s": busy["verification.cross_check"],
        "verification.peak_alloc_mb": peak["verification"] * mb,
        "verification.failed": c["verification.failed"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.busy_s": busy["cli.main"],
        "cli.main.bytes_out": c["cli.main.bytes_out"],
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_cell"):
        return "ns/cell"
    if name.endswith("us_per_member"):
        return "us/member"
    if name.endswith("us_per_roundtrip"):
        return "us/roundtrip"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def _job(workload: str, seed: int) -> dict:
    made = inputs.make_inputs(workload, seed)
    ref = oracle.reference_tables(inputs.reference_top(workload, made))
    expected = {}
    if workload == "exhaustive":
        top = made["audit_top"]
        sets = {}
        for theorem in oracle.LETTER_SETS:
            per_n = [oracle.letter_sets(theorem, n) for n in range(top + 1)]
            sets[theorem] = {name: [len(s[name]) for s in per_n] for name in oracle.LETTER_SETS[theorem]}
        expected = {
            "sets": sets,
            "audit_sizes": {
                name: [oracle.audit_sizes(name, n, ref) for n in range(top + 1)] for name in oracle.MAP_NAMES
            },
        }
    return {
        "workload": workload,
        "run_id": f"{workload}-seed{seed}",
        "inputs": made,
        "reference": ref,
        "expected": expected,
        "digests": json.loads(worker.DIGESTS.read_text()),
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every pass
    return env


def _time_import(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pedpod"], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


def _run_worker(job_text: str, mode: str, env: dict) -> dict:
    done = subprocess.run([sys.executable, str(WORKER), "--mode", mode], input=job_text,
                          capture_output=True, text=True, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = _env()
    job_text = json.dumps(_job(workload, seed))
    _time_import(env)  # the first import writes pedpod's bytecode cache
    cycle = worker.MODES if trace else ("plain",)
    need = 1 if trace else MIN_PASSES
    passes: dict[str, list[dict]] = {mode: [] for mode in cycle}
    setup = []
    start = time.perf_counter()
    for i in itertools.count():
        mode = cycle[i % len(cycle)]
        setup.append(_time_import(env))
        began = time.perf_counter()
        result = _run_worker(job_text, mode, env)
        result["pass_s"] = time.perf_counter() - began
        result["load1"] = os.getloadavg()[0]
        passes[mode].append(result)
        print(f"pass {i + 1} ({mode}): wall_s={result['wall_s']:.4f} cpu_s={result['cpu_s']:.4f} "
              f"span_s={result['span_s']:.4f} load1={result['load1']:.2f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f} failed={result['failed']}/{result['attempted']}")
        for failure in result["failures"]:
            print(f"  failed: {failure['call']} {failure['args']}: {failure['problem']}")
        done = [p for kind in passes.values() for p in kind]
        slowest = max(p["pass_s"] for p in done)
        if min(map(len, passes.values())) >= need and time.perf_counter() - start + slowest > seconds:
            break
    plain = passes["plain"]
    if trace:
        timing = [_layer_metrics(p) for p in passes["spans"]]
        memory = [_layer_metrics(p) for p in passes["memory"]]
        metrics = {
            name: statistics.median(m[name] for m in (memory if name.endswith("_mb") else timing))
            for name in timing[0]
        }
        metrics["trace_overhead_s"] = statistics.median(p["trace_s"] for p in passes["spans"])
        TRACES.mkdir(exist_ok=True)
        spans = {mode: [s for p in passes[mode] for s in p["spans"]] for mode in ("spans", "memory")}
        (TRACES / f"{workload}-seed{seed}.json").write_text(json.dumps(spans))
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "op_p50_ms": statistics.median(statistics.median(p["latencies"]) for p in plain) * 1e3,
            "op_p90_ms": statistics.median(_quantile(p["latencies"], 90) for p in plain) * 1e3,
        }
    attempted = sum(p["attempted"] for p in done)
    failed = sum(p["failed"] for p in done)
    counts = ", ".join(f"{len(v)} {k}" for k, v in passes.items())
    calls = sum(len(p["latencies"]) for p in plain)
    print(f"{workload} seed={seed}: passes {counts}; {calls} timed calls, {len(setup)} imports; "
          f"failed_ratio={failed / attempted:.6f} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {_unit(name)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="pedpod benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pedpod" / "__init__.py").is_file():
        print(f"error: no pedpod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
