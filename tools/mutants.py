"""Run a fixed catalogue of source mutants against the Tier-1 suite.

Each mutant is one named edit of one file under src/pedpod: its `old` text,
which must occur exactly once, replaced by `new`.  The script copies src/,
tests/ and pyproject.toml into a fresh directory under build/mutants/
(git-ignored), applies the edit there, and runs `python -m pytest -x -q` on
the copy with a timeout, after checking that the unmutated copy passes.  A
mutant is killed if the suite fails or times out, and survived if it
passes.  A survivor is a gap in the suite, unless the catalogue lists it as
equivalent, with the reason it cannot change behaviour; such a mutant is
expected to survive.

Stdlib only.  Run it by hand from the root of a checkout; it is not part of
Tier-1.  Any arguments name the mutants to run (all by default):

    python tools/mutants.py
    python tools/mutants.py gap1-pinned-at-l-minus-2

It writes tools/mutants.json (one record per mutant: name, file, status,
seconds, the first failing test of a killed mutant, and the equivalence
reason if any) when it runs the whole catalogue, prints one line per
mutant, and exits 1 if a mutant not listed as equivalent survived or a
catalogue edit no longer applies.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / "build" / "mutants"
TIMEOUT_S = 300

CORE, ENUM, BIJ = "src/pedpod/core.py", "src/pedpod/enumeration.py", "src/pedpod/bijections.py"
COUNT, VER, CLI = "src/pedpod/counting.py", "src/pedpod/verification.py", "src/pedpod/cli.py"

# (name, file, old, new, equivalence reason or None)
CATALOGUE = [
    # The second-part relations and the small bound, as the predicate reads them.
    ("gap1-pinned-at-l-minus-2", CORE, "second == p[0] - 1 if gap == 1", "second == p[0] - 2 if gap == 1", None),
    ("gap2-allows-l-minus-1", CORE, "else second <= p[0] - 2)", "else second <= p[0] - 1)", None),
    ("gap2-asks-l-minus-3", CORE, "else second <= p[0] - 2)", "else second <= p[0] - 3)", None),
    ("lone-top-has-second-part-0", CORE, "if len(p) > 1 else -1", "if len(p) > 1 else 0", None),
    ("small-bound-strict", CORE, "p[-1] <= small", "p[-1] < small", None),
    ("small-bound-ignored", CORE, "(small is None or p[-1] <= small)", "True", None),
    # The listing's top-part loop: its second-part branch and its lowest stop.
    ("listing-gap1-not-pinned", ENUM, "max(v - 2, lowest), v - 1 == lowest)", "lowest)", None),
    ("listing-gap1-tail-always", ENUM, "max(v - 2, lowest), v - 1 == lowest)", "max(v - 2, lowest), True)", None),
    ("listing-gap2-not-capped", ENUM, "fill((v,) * copies, left, v - (gap or 1))", "fill((v,) * copies, left, v - 1)",
     None),
    ("listing-gap-repeats-top", ENUM, "most = 1 if gap or v % 2 == distinct", "most = 1 if v % 2 == distinct", None),
    ("listing-lone-top-gap1", ENUM, "if gap != 1 and v <= closes:", "if v <= closes:", None),
    ("listing-below-lowest", ENUM, "lowest - 1, -step)", "0, -step)", None),
    ("listing-ends-above-small", ENUM, "elif left in tails and (left or v <= closes):", "elif left in tails:", None),
    ("listing-tails-above-small", ENUM, " if lowest <= closes else {}", "", None),
    # The shape table: letters, map sides, unions and primes.
    ("letter-c-d-keep-small-parts", BIJ, "_replace(lowest=small + 1)", "_replace(lowest=small)", None),
    ("letter-b-no-small-part", BIJ, "whole._replace(top_parity=top, gap=1, small=small)",
     "whole._replace(top_parity=top, gap=1)", None),
    ("letter-d-gap-1", BIJ, "big._replace(top_parity=top, gap=2)", "big._replace(top_parity=top, gap=1)", None),
    ("shift-codomain-gap-2", BIJ, "(d3._replace(gap=1),)", "(d3._replace(gap=2),)", None),
    ("add-codomain-no-gap", BIJ, "(other._replace(gap=2),)", "(other,)", None),
    ("sub-codomain-drops-union-member", BIJ, "(d1, other._replace(gap=1))", "(d1,)", None),
    ("exceptional-domain-drops-d-prime", BIJ, "((0, (c2, d2)),), ((0, (a2, b2)),)", "((0, (c2,)),), ((0, (a2, b2)),)",
     None),
    ("thm5-codomain-drops-b", BIJ, "((0, (c5, d5)),), ((0, (a5, b5)),)", "((0, (c5, d5)),), ((0, (a5,)),)", None),
    ("side-test-ignores-primes", BIJ, "return prime is None or prime(p) == primed", "return True", None),
    ("side-listing-flips-primes", BIJ, "_PRIMES[spec](p) == primed]", "_PRIMES[spec](p) != primed]", None),
    ("side-listing-merge-ascending", BIJ, "merge(*listings, reverse=True)", "merge(*listings)", None),
    ("c-prime-last-part-2", BIJ, "lambda p: len(p) == 1 or p[1] == 2,", "lambda p: len(p) == 1 or p[-1] == 2,", None),
    ("a-prime-loses-all-ones", BIJ, "p.count(1) in (2, len(p))", "p.count(1) == 2", None),
    ("b-prime-odd-weight", BIJ, "p[0] == 3 and p.weight % 2 == 0", "p[0] == 3 and p.weight % 2 == 1", None),
    ("total-routes-by-codomain", BIJ, "exchanged, restored = _union_test((c, d)",
     "exchanged, restored = _union_test((a, b)", None),
    ("guards-skip-the-family-scan", BIJ, "_predicate(spec if scan else spec._replace(distinct=None))",
     "_predicate(spec._replace(distinct=None))", None),
    ("routing-keeps-the-family-scan", BIJ, "_predicate(spec if scan else spec._replace(distinct=None))",
     "_predicate(spec)", "the routing only reads members and images of the total's family, so the scan always passes"),
    # The sides and gates read off core.IDENTITIES, and the tests compiled from them.
    ("thm3-sub-reads-lhs-1", BIJ, "(t3, t3.lhs[0], (d1,", "(t3, t3.lhs[1], (d1,", None),
    ("total-low-bucket-reads-lhs-0", BIJ, "spec.lhs[0][1], spec.lhs[1][1]", "spec.lhs[0][1], spec.lhs[0][1]", None),
    ("t4-threshold-3", CORE, "(PartitionClass.POD, 0), 2)", "(PartitionClass.POD, 0), 3)", None),
    ("mirror-top-flipped", BIJ, "top = d1.top_parity", "top = 1 - d1.top_parity", None),
    ("weight-shift-reversed", BIJ, "self.codomain[0][0] - self.domain[0][0]", "self.domain[0][0] - self.codomain[0][0]",
     None),
    ("side-gate-ignores-offset", BIJ, "p.weight - offset >= gate", "p.weight >= gate", None),
    ("tagged-side-test-takes-any-offset", BIJ, "type(t.offset) is int and t.offset in tests", "t.offset in tests",
     None),
    ("audit-takes-any-offset", VER, "isinstance(q, TaggedPreimage) and type(q.offset) is int and",
     "isinstance(q, TaggedPreimage) and", None),
    # The exchange case table: each pair, the C edge, the inverse's cases, the filler and _sub's swap.
    ("exchange-singleton-keeps-top", BIJ, "pair = ()", "pair = (top,)", None),
    ("exchange-c-edge-pair", BIJ, "pair = (second + 1, second)\n            elif second % 2 != distinct:",
     "pair = (second, second)\n            elif second % 2 != distinct:", None),
    ("exchange-c-repeatable-pair", BIJ, "elif second % 2 != distinct:\n                pair = (second, second)",
     "elif second % 2 != distinct:\n                pair = (second - 1, second - 1)", None),
    ("exchange-c-distinct-pair", BIJ, "pair = (second - 1, second - 1)\n        elif",
     "pair = (second, second)\n        elif", None),
    ("exchange-d-distinct-pair", BIJ, "# D\n            pair = (second + 1, second)",
     "# D\n            pair = (second + 2, second + 1)", None),
    ("exchange-d-gap-2-pair", BIJ, "top - second == 2:\n            pair = (second, second)",
     "top - second == 2:\n            pair = (second + 1, second)", None),
    ("exchange-d-other-pair", BIJ, "else:\n            pair = (second + 2, second + 1)",
     "else:\n            pair = (second + 1, second)", None),
    ("exchange-c-edge-at-small", BIJ, "if second == lowest:", "if second == small:", None),
    ("exchange-negative-filler-unchecked", BIJ, "if filler < 0:", "if False:", None),
    ("exchange-no-odd-1", BIJ, " + (1,) * (filler % small))", ")", None),
    ("exchange-body-cut-keeps-1s", BIJ, "fillers = range(1, lowest)", "fillers = range(1, small)", None),
    ("exchange-a-drops-filler-2", BIJ, "if filler % 2 or filler == 2:", "if filler % 2:", None),
    ("exchange-b-prime-at-lowest", BIJ, "a != lowest + 1:", "a != lowest:", None),
    ("sub-swaps-below-l-minus-2", BIJ, "p[1] == p[0] - 1:", "p[1] == p[0] - 2:", None),
    # The enum walk's runs of 1s: the run's code, its first weight, the all-ones run's head, the first 1's flags.
    ("enum-run-keeps-odd-distinct", COUNT, "runs[(flags & ones) * flag_stride", "runs[flags * flag_stride", None),
    ("enum-run-starts-at-first-1", COUNT, "below_head + w + 2] += 1", "below_head + w + 1] += 1", None),
    ("enum-all-ones-run-single-head", COUNT, "head_at[_ODD_REPEATED] + 2]", "head_at[_ODD_SINGLE] + 2]", None),
    ("enum-first-1-equal-flags", COUNT, "hist[flags * flag_stride + below_head + w + 1]",
     "hist[(flags & ones) * flag_stride + below_head + w + 1]", None),
    # The enum codes' classes: a size bound and a head split of _code_members.
    ("code-members-ped-gt1-keeps-1s", COUNT, "if head != _EMPTY and smallest > 1:",
     "if head != _EMPTY and smallest > 0:", None),
    ("code-members-o2-o3-swapped", COUNT, "C.O2 if head == _EVEN_REPEATED else C.O3",
     "C.O3 if head == _EVEN_REPEATED else C.O2", None),
    # The DP kernel: the split's clamp, the large-part layers' bounds, shifts and flat partitions, where a
    # pinned largest part enters the descending sweep, and the slice primitives.
    ("dp-split-below-lowest", COUNT, "s = max(lowest, isqrt(2 * n_max))", "s = isqrt(2 * n_max)", None),
    ("large-flat-guard-inclusive", COUNT, "if i * j < m:", "if i * j <= m:", None),
    ("large-flat-guard-dropped", COUNT, "if i * j < m:", "if True:", None),
    ("large-layer-ignores-distinct", COUNT, "layers[i + (c % 2 == parity)]", "layers[i]", None),
    ("large-last-layer-shift-short", COUNT, "layers.append(([0] * t * j + low)[:m])",
     "layers.append(([0] * (t * j - 1) + low)[:m])", None),
    ("large-running-stride-t", COUNT, "_running(low, t * j)", "_running(low, t)", None),
    ("large-skip-fours-step-2", COUNT, "t = 4 if skip_fours else", "t = 2 if skip_fours else", None),
    ("large-flat-repeats-any-part", COUNT, "and (j == 1 or c % 2 != parity))", "and True)", None),
    ("large-flat-ignores-most", COUNT, "fewest <= j and (most is None or j <= most)", "fewest <= j", None),
    ("large-layers-drop-one-step", COUNT, "for step in steps[:-1]:", "for step in steps[:-2]:", None),
    ("large-keeps-fours", COUNT, "if not (skip_fours and c % 4 == 0):", "if True:", None),
    ("large-total-one-late", COUNT, "total[s * j:] = map(add, total[s * j:], low)",
     "total[s * j + 1:] = map(add, total[s * j + 1:], low)", None),
    ("large-j-range-short", COUNT, "for j in range(1, n_max // s + 1):", "for j in range(1, n_max // s):", None),
    ("large-layer-length-short", COUNT, "m = n_max + 1 - s * j", "m = n_max - s * j", None),
    ("dp-flat-keeps-c-j-minus-1", COUNT, "step[i * j] += flat(c, j) - (c % 2 != parity and flat(c, j - 1))",
     "step[i * j] += flat(c, j)", None),
    ("dp-repeatable-top-after-its-size", COUNT,
     "if top and most != 1:\n            out[part * fewest] += 1\n"
     "        if not (skip_fours and part % 4 == 0):\n            _apply_part(out, part, parity)\n",
     "if not (skip_fours and part % 4 == 0):\n            _apply_part(out, part, parity)\n"
     "        if top and most != 1:\n            out[part * fewest] += 1\n", None),
    ("dp-single-top-before-its-size", COUNT,
     "if not (skip_fours and part % 4 == 0):\n            _apply_part(out, part, parity)\n"
     "        if top and most == 1:\n            out[part] += 1\n",
     "if top and most == 1:\n            out[part] += 1\n"
     "        if not (skip_fours and part % 4 == 0):\n            _apply_part(out, part, parity)\n", None),
    ("dp-top-ignores-fewest", COUNT, "out[part * fewest] += 1", "out[part] += 1", None),
    ("dp-top-bound-strict", COUNT, "part * fewest <= n_max", "part * fewest < n_max", None),
    ("apply-part-copies-swapped", COUNT, "if part % 2 == restricted_parity:", "if part % 2 != restricted_parity:",
     None),
    ("running-skips-last-residue", COUNT, "for r in range(stride):", "for r in range(stride - 1):", None),
    # The series back-end: one factor's power or base, the pentagonal terms, the quotient groups one build
    # fills, the (1 - q) step.
    ("series-ped-power-flipped", COUNT, "PartitionClass.PED: ((4, 1), (1, -1))",
     "PartitionClass.PED: ((4, -1), (1, -1))", None),
    ("series-pod-power-flipped", COUNT, "PartitionClass.POD: ((2, 1), (1, -1), (4, -1))",
     "PartitionClass.POD: ((2, 1), (1, -1), (4, 1))", None),
    ("series-four-regular-base-2", COUNT, "PartitionClass.FOUR_REGULAR: ((4, 1), (1, -1))",
     "PartitionClass.FOUR_REGULAR: ((2, 1), (1, -1))", None),
    ("series-pod-gt2-base-2", COUNT, "PartitionClass.POD_GT2: ((2, 1), (1, -1), (4, -1))",
     "PartitionClass.POD_GT2: ((2, 1), (1, -1), (2, -1))", None),
    ("euler-drops-second-pentagonal", COUNT, "for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)",
     "for g in (k * (3 * k - 1) // 2,)", None),
    ("euler-signs-swapped", COUNT, "side = minus if k % 2 else plus", "side = plus if k % 2 else minus", None),
    ("series-fills-every-class", COUNT, "for cls, quotient in _SERIES_FACTORS.items() if quotient == factors}",
     "for cls in _SERIES_FACTORS}", None),
    ("series-drops-one-minus-q", COUNT, "gt = (0, *map(sub, counts[1:], counts))", "gt = counts", None),
    ("series-one-minus-q-on-ped", COUNT, "cls in (PartitionClass.PED_GT1, PartitionClass.POD_GT2)",
     "cls in (PartitionClass.PED, PartitionClass.PED_GT1, PartitionClass.POD_GT2)", None),
    # Identity rows by columns: the zeros below weight 0, both slice ends' clamps, the verdict.
    ("column-end-unclamped", VER, ":max(n_hi + off + 1, 0)]", ":n_hi + off + 1]", None),
    ("column-start-unclamped", VER, "tables[cls][max(lo, 0):", "tables[cls][lo:", None),
    ("column-zeros-unclamped", VER, "(0,) * min(-lo, n_hi - n_lo + 1)", "(0,) * -lo", None),
    ("verdict-reads-info-rows", VER, "all(r.equal or not r.checked for r in rows)", "all(r.equal for r in rows)",
     None),
    # The guard and single CLASS_SPECS fields.
    ("guard-disabled", BIJ, "if not check(x):", "if False:", None),
    ("spec-d2-three-copies", CORE, "ClassSpec(0, top_parity=1, top_copies=(2, None))",
     "ClassSpec(0, top_parity=1, top_copies=(3, None))", None),
    ("spec-o3-two-copies", CORE, "ClassSpec(1, top_parity=0, top_copies=(1, 1))",
     "ClassSpec(1, top_parity=0, top_copies=(1, 2))", None),
    ("spec-pod-gt2-lowest-2", CORE, "ClassSpec(1, lowest=3)", "ClassSpec(1, lowest=2)", None),
    ("spec-four-regular-keeps-fours", CORE, "ClassSpec(skip_fours=True)", "ClassSpec()", None),
    ("spec-d1-even-top", CORE, "PartitionClass.D1: ClassSpec(0, top_parity=1)",
     "PartitionClass.D1: ClassSpec(0, top_parity=0)", None),
    # The argument checks: a cap's bound, and bools refused as weights.
    ("cap-inclusive", CLI, "if value > cap:", "if value >= cap:", None),
    ("check-weight-admits-bool", CORE, "if type(n) is not int or n < 0:", "if not isinstance(n, int) or n < 0:", None),
    # The one report path: _plain's rename table and lists, the field order it reads, the csv grids, the
    # apply payload's tag keys, main's exit code.
    ("plain-ignores-renames", CORE, "_RENAMED.get(field.name, field.name)", "field.name", None),
    ("renames-drop-class", CORE, '{"partition_class": "class", "identity_id"', '{"identity_id"', None),
    ("renames-drop-identity", CORE, ', "identity_id": "identity"}', "}", None),
    ("plain-keeps-inner-tuples", CORE, "return [list(v) for v in x]", "return list(x)", None),
    ("plain-keeps-outer-tuples", CORE, "if is_dataclass(first) else list(x)", "if is_dataclass(first) else x", None),
    ("audit-report-swaps-pass-and-reconstructed", VER, "    reconstructed: bool\n    overall_pass: bool\n",
     "    overall_pass: bool\n    reconstructed: bool\n", None),
    ("audit-csv-passed-capitalised", VER, "str(r.codomain_size), str(r.passed).lower()]",
     "str(r.codomain_size), str(r.passed)]", None),
    ("crosscheck-csv-header-name", VER, '[["check", "n_hi", "passed"]]', '[["name", "n_hi", "passed"]]', None),
    ("apply-tags-swapped", CLI, '**x_tag, "output": list(y.partition if y_tag else y), **y_tag',
     '**y_tag, "output": list(y.partition if y_tag else y), **x_tag', None),
    ("main-ignores-overall-pass", CLI, 'return 0 if getattr(report, "overall_pass", True) else 1', "return 0", None),
]


def _copy(target: Path) -> None:
    if target.exists():
        shutil.rmtree(target)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", target / "pyproject.toml")


def _run(name: str, path: str = "", old: str = "", new: str = "") -> dict:
    """Copy the checkout, apply one edit (none for the baseline), and run the suite on the copy."""
    target = WORK / name
    _copy(target)
    if path:
        source = (target / path).read_text()
        if source.count(old) != 1:
            shutil.rmtree(target)
            return {"status": "not-applied", "seconds": 0.0, "failed": None}
        (target / path).write_text(source.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(target / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=target, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        status = "survived" if done.returncode == 0 else "killed"
        failed = next((line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))), None)
    except subprocess.TimeoutExpired:
        status, failed = "killed", f"timed out after {TIMEOUT_S} s"  # a suite that cannot finish does not pass
    shutil.rmtree(target)
    return {"status": status, "seconds": round(time.perf_counter() - start, 1), "failed": failed}


def main(argv: list[str]) -> int:
    known = {entry[0] for entry in CATALOGUE}
    unknown = sorted(set(argv) - known)
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    baseline = _run("baseline")
    if baseline["status"] != "survived":
        print(f"the unmutated suite fails ({baseline['failed']}); no mutant can be judged", file=sys.stderr)
        return 2
    records = []
    for name, path, old, new, equivalent in CATALOGUE:
        if argv and name not in argv:
            continue
        record = {"name": name, "file": path, **_run(name, path, old, new), "equivalent": equivalent}
        records.append(record)
        note = f"  (equivalent: {equivalent})" if equivalent else f"  <- {record['failed']}" if record["failed"] else ""
        print(f"{record['status']:12s} {record['seconds']:6.1f}s  {name}{note}", flush=True)
    gaps = [r["name"] for r in records
            if r["status"] == "not-applied" or (r["status"] == "survived" and not r["equivalent"])]
    counts = {status: sum(r["status"] == status for r in records) for status in ("killed", "survived", "not-applied")}
    print(f"{counts['killed']} killed, {counts['survived']} survived, {counts['not-applied']} not applied")
    if not argv:
        report = {"command": "python -m pytest -x -q", "timeout_s": TIMEOUT_S, **counts, "mutants": records}
        (ROOT / "tools" / "mutants.json").write_text(json.dumps(report, indent=2) + "\n")
    if gaps:
        print(f"gaps: {', '.join(gaps)}", file=sys.stderr)
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
