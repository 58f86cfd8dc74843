#!/usr/bin/env python3
"""Repeats the benchmark over ten seeds and reports its spread.

    python3 perfbench/steadiness.py [--out perfbench/steadiness.json]

Every workload of BENCHMARK.json runs once per seed 1-10 for run_seconds.
For every end-to-end metric this prints the median, the first and third
quartile (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json; a spread
above a third of the bound is flagged. With --out the per-run values and
the summary are written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    steady = True
    for w in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        stamps = []
        for seed in SEEDS:
            r = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                sys.stderr.write(r.stderr)
                sys.exit("run failed: %s seed %d" % (w, seed))
            res = json.loads(lines[-1])
            if not res["correct"]:
                sys.stderr.write(r.stderr)
                sys.exit("incorrect result: %s seed %d" % (w, seed))
            stamps.extend(l[len("# stamp "):] for l in lines
                          if l.startswith("# stamp "))
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread <= bounds[name] / 3
            steady = steady and ok
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[name],
                             "values": vals}
            print("%-12s %-12s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f (bound %.2f)%s" % (
                      w, name, med, q1, q3, spread, bounds[name],
                      "" if ok else "  <-- above bound/3"))
        report["workloads"][w] = {
            "metrics": summary,
            "stamps": [json.loads(s) for s in stamps]}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
