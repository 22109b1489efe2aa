#!/usr/bin/env python3
"""Check how steady the benchmark is.

Usage, from the repository root:

    python3 e2ebench/spread.py [workload,...] [first_seed] [runs]

For each workload (default: all in BENCHMARK.json) it runs the benchmark
command `runs` times (default 10) with seeds first_seed, first_seed+1, ...
(default 1) and prints, for every end-to-end metric, the median and the
distance between the first and third quartile of the runs as a share of
the median (statistics.quantiles(values, n=4)) next to the metric's bound.
"""

import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if len(sys.argv) > 1:
        names = sys.argv[1].split(",")
    first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    runs = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    over = False
    for wl in names:
        values = {}
        for seed in range(first, first + runs):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                over = True
                continue
            result = json.loads(lines[-1])
            print(f"{wl} seed {seed}: correct {result['correct']} attempted {result['attempted']} "
                  f"failed {result['failed']} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
                  flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for m in bench["end_to_end"]:
            vs = values.get(m["name"], [])
            if len(vs) < 2:
                continue
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q[2] - q[0]) / med if med else float("inf")
            mark = "ok" if spread <= m["bound"] else "OVER"
            over = over or mark == "OVER"
            print(f"  {wl:13s} {m['name']:20s} median {med:12.4f} spread {spread:.4f} "
                  f"bound {m['bound']} {mark}", flush=True)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
