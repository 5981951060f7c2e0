"""Run-to-run spread: one benchmark run per seed, then quartiles per metric.

    python3 perfbench/spread.py --workloads verify-cold gamma-session \
        --seeds 0 1 2 3 4 5 6 7 8 9 --seconds 25 --out perfbench/out/spread.json

For every end-to-end metric it reports the median over the runs and the
spread, (Q3 - Q1) / median with the quartiles of statistics.quantiles(n=4),
and compares the spread with a third of the metric's bound in
BENCHMARK.json.  Runs are made one at a time, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values):
    """(q1, median, q3, spread) with spread = (q3 - q1) / median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append(result)
            print(workload, seed, json.dumps(
                {k: round(m["value"], 4) for k, m in result["metrics"].items()}),
                f"correct={result['correct']}", flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, sp = quartiles(values)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                          "bound": bound,
                          "within_third_of_bound": sp < bound / 3,
                          "values": values}
            ok &= sp <= bound
            print(f"  {workload:16s} {name:14s} median {med:10.4f} "
                  f"spread {sp:.4f} (bound {bound}, third {bound / 3:.4f})")
        summary["workloads"][workload] = {
            "metrics": rows, "all_correct": all(r["correct"] for r in runs)}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
