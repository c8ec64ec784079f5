"""Run the benchmark over ten seeds and summarise each metric.

    python3 pedbench/trend.py [--record LABEL]

For every workload in BENCHMARK.json it runs `run.py --trace 0` once per
seed (1..10) for the run_seconds that BENCHMARK.json sets, then prints
each end-to-end metric's median and its quartile spread, (q3 - q1) /
median, as `statistics.quantiles(values, n=4)` gives the quartiles.  It
measures only the checkout it sits in.  When pedbench/trend.json holds an
earlier entry, it also prints each median's change from that entry's, as
a share of it, beside the metric's bound.  With --record the summary is
appended to pedbench/trend.json under LABEL (say, the commit measured).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TREND = HERE / "trend.json"
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    trend = json.loads(TREND.read_text()) if TREND.exists() else []
    last = trend[-1] if trend else None
    entry = {
        "label": args.record,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}",
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, seed, bench["run_seconds"]) for seed in SEEDS]
        summary = summarise(results)
        failed = sum(r["failed"] for r in results)
        entry["workloads"][workload] = {"correct": all(r["correct"] for r in results), "failed": failed,
                                        "metrics": summary}
        print(f"{workload}: failed {failed}, correct {entry['workloads'][workload]['correct']}")
        before = last["workloads"].get(workload, {}).get("metrics", {}) if last else {}
        for name, s in summary.items():
            line = (f"  {name:12s} median {s['median']:.6g} {s['unit']:3s} spread {s['spread']:.3f}"
                    f" (bound {bounds[name]})")
            if name in before:
                line += f", change {s['median'] / before[name]['median'] - 1:+.3f} from {last['label']!r}"
            print(line)
    if args.record:
        trend.append(entry)
        TREND.write_text(json.dumps(trend, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
