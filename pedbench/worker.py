"""One pass of one workload, run in a fresh interpreter.

run.py starts `python3 pedbench/worker.py --mode plain|spans|memory` with
a job on standard input: the workload name, its seeded inputs, the
reference answers and a run id.  The worker imports pedpod from the
checkout's `src/`, makes every call of the workload in order (closed
loop, one client: each call starts when the previous one has returned and
been checked), and prints one JSON object with what it measured.

Only the calls into pedpod are timed; building arguments and checking
answers happen between them.  The pass kinds:

    plain   timing only; the end-to-end metrics come from these passes
    spans   every call is also a span (name, layer, start, end, parent =
            run id); layers are pedpod's modules, measured at the entry
            points the benchmark calls
    memory  spans plus a memory figure for each call, its tracemalloc
            peak.  tracemalloc hooks every allocation, which makes its
            spans slow, so their times are not used.  Calls in BIGINT_CALLS
            are not allocation-traced: each of their big-integer additions
            allocates, and tracing them costs 20-45 times their run time.
            Their figure is instead how far the call raised the process's
            peak resident set size (VmHWM), read before and after the call:
            the memory it kept plus any transient peak above the previous
            high-water mark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Maps whose audit reports must carry the `reconstructed` flag.
RECONSTRUCTED = {"thm4.add", "thm6.add", "thm6.sub"}

# Calls that build count tables by exact big-integer arithmetic.
BIGINT_CALLS = {
    "counting.dp", "counting.series", "counting.class_count",
    "verification.verify_identity", "verification.cross_check",
}
MODES = ("plain", "spans", "memory")


def load_pedpod():
    """Import pedpod from the checkout's src/ directory."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import pedpod
    import pedpod.cli

    return pedpod


class Session:
    """Times each call into pedpod, checks its answer, and counts failures.

    A call fails when it raises or when its check returns a problem.
    """

    def __init__(self, mode: str, run_id: str) -> None:
        self.mode = mode
        self.run_id = run_id
        self.latencies: list[float] = []
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.failures: list[dict] = []
        self.attempted = 0
        self.trace_s = 0.0  # time spent recording spans, outside the timed calls
        self.origin = time.perf_counter()

    def call(self, name: str, check, fn, *args):
        """Time fn(*args) as one call named `layer.entry`; return its result or None."""
        layer = name.split(".")[0]
        self.attempted += 1
        traced = self.mode == "memory" and name not in BIGINT_CALLS
        if traced:
            tracemalloc.start()
        elif self.mode == "memory":
            hwm = vm_hwm_kb()
        start = time.perf_counter()
        try:
            result = fn(*args)
            problem = None
        except Exception as exc:  # a raising call is a failed call, not a crash
            result, problem = None, f"raised {exc!r}"
        end = time.perf_counter()
        self.latencies.append(end - start)
        if self.mode != "plain":
            span = {"name": name, "layer": layer, "start": start - self.origin, "end": end - self.origin,
                    "parent": self.run_id}
            if traced:
                span["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            elif self.mode == "memory":
                span["hwm_rise"] = (vm_hwm_kb() - hwm) * 1024
            self.spans.append(span)
            self.trace_s += time.perf_counter() - end
        if problem is None:
            try:
                problem = check(result)
            except Exception as exc:  # a malformed answer can break the checker
                problem = f"check raised {exc!r}"
        if problem:
            self.counters[f"{layer}.failed"] += 1
            self.failures.append({"call": name, "args": repr(args)[:200], "problem": problem})
            return None
        return result


# ---------------------------------------------------------------------------
# Checks: each returns None when the answer is right, else a short problem.


def first_difference(got, want, label: str):
    got, want = list(got), list(want)
    if got == want:
        return None
    if len(got) != len(want):
        return f"{label}: {len(got)} entries, expected {len(want)}"
    i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return f"{label}: entry {i} is {got[i]!r}, expected {want[i]!r}"


def check_table(table, cls: str, n_max: int, backend: str, ref) -> str | None:
    if (table.partition_class.value, table.n_max, table.backend) != (cls, n_max, backend.upper()):
        return f"table is {table.partition_class.value}/{table.n_max}/{table.backend}"
    return first_difference(table.counts, ref[cls][: n_max + 1], f"{cls} counts")


def check_identity(report, ident: str, lo: int, hi: int, ref) -> str | None:
    lhs, offsets, rhs, threshold = oracle.IDENTITIES[ident]
    want = []
    for n in range(lo, hi + 1):
        values = tuple(oracle.count_at(ref, lhs, n + off) for off in offsets)
        total, right = sum(values), ref[rhs][n]
        if n >= threshold and total != right:
            raise AssertionError(f"reference breaks {ident} at n={n}")
        want.append((n, values, total, right, total == right, n >= threshold))
    got = [(r.n, tuple(r.lhs_values), r.lhs_total, r.rhs_value, r.equal, r.checked) for r in report.rows]
    if not report.overall_pass:
        return f"{ident} reported a failure on {lo}..{hi}"
    return first_difference(got, want, f"{ident} rows")


def check_members(members, n: int, test, count: int, label: str) -> str | None:
    """Members are partitions of n passing `test`, strictly decreasing, and all of them."""
    prev = None
    for p in members:
        p = tuple(p)
        if not oracle.is_partition_of(p, n) or not test(p):
            return f"{p} is not in {label} at weight {n}"
        if prev is not None and not p < prev:
            return f"{p} follows {prev} in {label}: not in decreasing lex order"
        prev = p
    if len(members) != count:
        return f"{len(members)} members of {label} at weight {n}, expected {count}"
    return None


def check_listing(listing, cls: str, n: int, ref) -> str | None:
    if (listing.n, listing.partition_class.value) != (n, cls):
        return f"listing is {listing.partition_class.value}({listing.n})"
    return check_members(listing.members, n, lambda p: oracle.member(p, cls), ref[cls][n], cls)


def check_audit_obj(obj: dict, name: str, lo: int, hi: int, sizes) -> str | None:
    if obj["subject"] != name or not obj["overall_pass"]:
        return f"audit of {obj['subject']} passed={obj['overall_pass']}"
    if obj["reconstructed"] != (name in RECONSTRUCTED):
        return f"{name} reconstructed flag is {obj['reconstructed']}"
    got = [(r["n"], r["domain_size"], r["codomain_size"], r["passed"]) for r in obj["records"]]
    want = [(n, *sizes[n], True) for n in range(lo, hi + 1)]
    return first_difference(got, want, f"{name} records")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_cli(out, argv: list[str], digests: dict, content) -> str | None:
    """Exit 0; table and csv bytes match the pinned digest; json by content."""
    code, text = out
    if code != 0:
        return f"exit {code}"
    fmt = argv[argv.index("--format") + 1]
    if fmt == "json":
        return content(json.loads(text))
    key = " ".join(argv)
    if key not in digests:
        return f"no pinned digest for {key!r}"
    if digest(text) != digests[key]:
        return f"output of {key!r} differs from the pinned bytes"
    return None


# ---------------------------------------------------------------------------
# Workloads


def run_cli(pp, argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pp.cli.main(argv)
    return code, out.getvalue()


def tables(s: Session, pp, job: dict) -> None:
    inp, ref = job["inputs"], job["reference"]
    n_max = inp["n_max"]
    PC = pp.PartitionClass
    for cls in inp["dp_classes"]:
        s.call("counting.dp", lambda t: check_table(t, cls, n_max, "dp", ref),
               pp.counting.count_table, PC(cls), n_max, "dp")
        # The (part, weight) pairs of one table, computed from n_max, not counted.
        s.counters["counting.dp.cells"] += n_max * (n_max + 1) // 2
    for cls in inp["series_classes"]:
        s.call("counting.series", lambda t: check_table(t, cls, n_max, "series", ref),
               pp.counting.count_table, PC(cls), n_max, "series")
    for ident in inp["identities"]:
        report = s.call("verification.verify_identity", lambda r: check_identity(r, ident, 0, n_max, ref),
                        pp.verification.verify_identity, ident, 0, n_max, "dp")
        s.counters["verification.verify_identity.rows"] += len(report.rows) if report else 0
    want_records = {f"enum_vs_dp:{c}" for c in oracle.CLASSES}
    want_records |= {f"dp_vs_series:{c}" for c in oracle.PRODUCT_CLASSES} | {"ped_equals_four_regular"}

    def check_cross(r):
        if r.n_max != n_max or not r.overall_pass:
            return f"crosscheck n_max={r.n_max} passed={r.overall_pass}"
        names = {rec.name for rec in r.records}
        return None if names == want_records else f"crosscheck records {sorted(names ^ want_records)}"

    s.call("verification.cross_check", check_cross, pp.verification.cross_check_counts, n_max)
    cls = inp["cli_class"]

    def count_content(obj):
        head = (obj["class"], obj["backend"], obj["n_max"])
        if head != (cls, "DP", n_max):
            return f"json header {head}"
        return first_difference(obj["counts"], ref[cls][: n_max + 1], "json counts")

    for fmt in ("table", "csv", "json"):
        argv = ["count", "--class", cls, "--to", str(n_max), "--format", fmt]
        out = s.call("cli.main", lambda o: check_cli(o, argv, job["digests"], count_content),
                     run_cli, pp, argv)
        s.counters["cli.main.bytes_out"] += len(out[1].encode()) if out else 0


def lookups(s: Session, pp, job: dict) -> None:
    ref = job["reference"]
    PC = pp.PartitionClass
    for item in job["inputs"]["session"]:
        if item[0] == "count":
            _, cls, n = item
            s.call("counting.class_count",
                   lambda v: None if v == ref[cls][n] else f"{cls}({n}) = {v}, expected {ref[cls][n]}",
                   pp.counting.class_count, PC(cls), n)
        else:
            _, ident, lo, hi = item
            report = s.call("verification.verify_identity",
                            lambda r: check_identity(r, ident, lo, hi, ref),
                            pp.verification.verify_identity, ident, lo, hi, "dp")
            s.counters["verification.verify_identity.rows"] += len(report.rows) if report else 0


def _check_stream(parts, n: int, ref) -> str | None:
    return check_members(parts, n, lambda p: True, ref["all"][n], "all")


def walk_stream(stream, n: int) -> tuple[int, str | None]:
    """Consume a stream of partitions of n without keeping it.

    Returns how many members it yielded and the first problem found, if
    any.  The checks are C-level builtins, so that the walk costs little
    next to the stream itself: whole parts, positive, non-increasing,
    weight n, and each member below the one before in lex order.
    """
    count, prev = 0, None
    for p in stream:
        p = tuple(p)
        if not (set(map(type, p)) <= {int} and sum(p) == n and list(p) == sorted(p, reverse=True)
                and (not p or p[-1] >= 1)):
            return count, f"{p} is not a partition of {n}"
        if prev is not None and not p < prev:
            return count, f"{p} follows {prev}: not in decreasing lex order"
        prev = p
        count += 1
    return count, None


def _check_walk(walk, n: int, ref) -> str | None:
    count, problem = walk
    if problem is None and count != ref["all"][n]:
        problem = f"{count} partitions of {n}, expected {ref['all'][n]}"
    return problem


def _check_sets(theorem: str, n: int, sizes: dict):
    tests = oracle.LETTER_SETS[theorem]

    def check(sets):
        if set(sets) != set(tests):
            return f"{theorem} sets are named {sorted(sets)}"
        problems = (check_members(members, n, tests[name], sizes[name][n], f"{theorem} set {name}")
                    for name, members in sets.items())
        return next((p for p in problems if p), None)

    return check


def _round_trip(s: Session, pp, name: str, p: tuple) -> None:
    mapping = pp.bijections.get_bijection(name)
    part = pp.Partition(p)
    n = sum(p)
    if isinstance(mapping, pp.bijections.TotalDecomposition):
        bucket = mapping.bucket_class.value

        def check_forward(t):
            if t.offset not in (0, -3) or not oracle.is_partition_of(tuple(t.partition), n + t.offset):
                return f"{name}: {p} -> {t.partition} @ {t.offset}"
            return None if oracle.member(tuple(t.partition), bucket) else f"{name}: image not in {bucket}"
    else:
        shift = oracle.weight_shift(name)

        def check_forward(q):
            return None if oracle.is_partition_of(tuple(q), n + shift) else f"{name}: {p} -> {q}"

    image = s.call("bijections.forward", check_forward, mapping.forward, part)
    if image is None:
        return
    s.call("bijections.inverse", lambda r: None if tuple(r) == p else f"{name}: {p} came back as {r}",
           mapping.inverse, image)
    s.counters["bijections.roundtrips"] += 1


def exhaustive(s: Session, pp, job: dict) -> None:
    inp, ref, exp = job["inputs"], job["reference"], job["expected"]
    en, PC = pp.enumeration, pp.PartitionClass
    top = inp["audit_top"]
    for n in range(top + 1):
        parts = s.call("enumeration.all_partitions", lambda r: _check_stream(r, n, ref), en.all_partitions, n)
        s.counters["enumeration.partitions.count"] += len(parts) if parts else 0
    n = inp["stream_n"]
    walk = s.call("enumeration.partitions_of", lambda w: _check_walk(w, n, ref),
                  lambda k: walk_stream(en.partitions_of(k), k), n)
    s.counters["enumeration.partitions.count"] += walk[0] if walk else 0
    for n in range(top + 1):
        s.call("bijections.sets", _check_sets("thm2", n, exp["sets"]["thm2"]), pp.bijections.thm2_sets, n)
        s.call("bijections.sets", _check_sets("thm5", n, exp["sets"]["thm5"]), pp.bijections.thm5_sets, n)
    for name in inp["audits"]:
        sizes = exp["audit_sizes"][name]
        report = s.call("verification.audit", lambda r: check_audit_obj(r.to_obj(), name, 0, top, sizes),
                        pp.verification.audit_bijection_range, name, 0, top)
        if report:
            s.counters["verification.audit.members"] += sum(r.domain_size + r.codomain_size for r in report.records)
    for cls, n in inp["listings"]:
        listing = s.call("enumeration.class_members", lambda r: check_listing(r, cls, n, ref),
                         en.class_members, n, PC(cls))
        s.counters["enumeration.class_members.members"] += len(listing.members) if listing else 0
        del listing
    cls, n = inp["enum"]
    s.call("counting.enum", lambda t: check_table(t, cls, n, "enum", ref), pp.counting.count_table, PC(cls), n, "enum")

    cls, n = inp["cli_list"]

    def list_content(obj):
        if (obj["n"], obj["class"]) != (n, cls):
            return f"json header {(obj['n'], obj['class'])}"
        return check_members(obj["members"], n, lambda p: oracle.member(p, cls), ref[cls][n], cls)

    for fmt in ("table", "csv", "json"):
        argv = ["list", "--class", cls, "--n", str(n), "--format", fmt]
        out = s.call("cli.main", lambda o: check_cli(o, argv, job["digests"], list_content), run_cli, pp, argv)
        s.counters["cli.main.bytes_out"] += len(out[1].encode()) if out else 0
    name, top = inp["cli_audit"]
    argv = ["audit", "--bijection", name, "--to", str(top), "--format", "json"]

    def audit_content(obj):
        return check_audit_obj(obj, name, 0, top, exp["audit_sizes"][name])

    out = s.call("cli.main", lambda o: check_cli(o, argv, {}, audit_content), run_cli, pp, argv)
    s.counters["cli.main.bytes_out"] += len(out[1].encode()) if out else 0

    for name, samples in inp["round_trips"].items():
        for p in samples:
            _round_trip(s, pp, name, tuple(p))
    for p in inp["core"]:
        p = tuple(p)
        part = pp.Partition(p)
        for cls in oracle.CLASSES:
            want = oracle.member(p, cls)
            s.call("core.is_member", lambda v: None if v == want else f"is_member({p}, {cls}) = {v}",
                   pp.core.is_member, part, PC(cls))
        text = "(" + ", ".join(str(x) for x in reversed(p)) + ")"
        s.call("core.parse", lambda v: None if isinstance(v, pp.Partition) and tuple(v) == p else f"parsed {v}",
               pp.core.parse_partition, text)


WORKLOADS = {"tables": tables, "lookups": lookups, "exhaustive": exhaustive}


def vm_hwm_kb() -> int:
    """This process's peak resident set size so far, VmHWM, in KiB.

    Not ru_maxrss: Linux carries the parent's high-water mark over to a
    child that is forked and then execs, so ru_maxrss would report the
    larger of run.py's memory and the worker's.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_pass(job: dict, mode: str) -> dict:
    """Run one workload pass in this process and return its measurements."""
    pp = load_pedpod()
    session = Session(mode, job["run_id"])
    cpu = time.process_time()
    first = time.perf_counter()
    WORKLOADS[job["workload"]](session, pp, job)
    span = time.perf_counter() - first
    cpu = time.process_time() - cpu
    return {
        "mode": mode,
        "wall_s": sum(session.latencies),
        "span_s": span,
        "trace_s": session.trace_s,
        "cpu_s": cpu,
        "peak_rss_mb": vm_hwm_kb() / 1024,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "failures": session.failures[:20],
        "latencies": session.latencies,
        "counters": dict(session.counters),
        "spans": session.spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=MODES, default="plain")
    args = parser.parse_args()
    job = json.load(sys.stdin)
    json.dump(run_pass(job, args.mode), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
