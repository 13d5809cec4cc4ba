#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs the command in BENCHMARK.json once per seed on each workload and
reports, for every end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
inter-quartile distance as a share of the median.

A metric passes when its spread is within its bound and, with
``--sets 2`` or more, no later set's median is worse than the first
set's by more than the bound. ``setup_s`` is held to the median rule
only; its spread is reported but not checked. The script exits 1 when
any metric fails. A spread above a third of its bound passes but is
flagged ``thin``: the margin wanted against a slower or busier host.

Run from the repository root; these are the commands that made the two
records kept next to this script:

    python3 perfbench/steadiness.py --seeds 10 --sets 2 --first-seed 5001 --out perfbench/steadiness.json
    python3 perfbench/steadiness.py --seeds 10 --sets 2 --first-seed 6001 --out perfbench/steadiness-seed6001.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    elapsed = time.monotonic() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed: {result}")
    with open(f".bench_out/{workload}-seed{seed}-trace0.json") as f:
        detail = {m["name"]: m["value"] for m in json.load(f)["detail"]}
    return result, {name: detail[name] for name in HOST}, elapsed


# Detail metrics recorded next to the gated ones: the time metrics before
# rescaling to reference host speed, and the host's kernel time.
HOST = ["host.calib_ms", "raw.setup_s", "raw.throughput_per_s", "raw.mix_p50_ms"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "values": values}


def worse(metric, first, second):
    """Relative change of ``second`` against ``first``, positive = worse."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=5001)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", help="write the record here as JSON")
    opts = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    record = {"seeds_per_set": opts.seeds, "sets": opts.sets,
              "first_seed": opts.first_seed,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in workloads:
        sets = []
        for s in range(opts.sets):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            walls = []
            for i in range(opts.seeds):
                seed = opts.first_seed + s * opts.seeds + i
                result, elapsed = run_once(bench["command"], workload, seed,
                                           bench["run_seconds"])
                walls.append(elapsed)
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append((values, walls))
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = []
            for values, _ in sets:
                v = values[name]
                q1, q2, q3 = statistics.quantiles(v, n=4)
                per_set.append({"median": q2, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / q2, "values": v})
            spread = max(p["spread"] for p in per_set)
            drift = max((worse(metric, per_set[0]["median"], p["median"])
                         for p in per_set[1:]), default=0.0)
            passed = (name == "setup_s" or spread <= bound) and drift <= bound
            thin = name != "setup_s" and spread >= bound / 3
            ok &= passed
            rows[name] = {"bound": bound, "spread": spread, "drift": drift,
                          "passed": passed, "thin": thin, "sets": per_set}
            verdict = "FAIL" if not passed else "thin" if thin else "ok"
            print(f"{workload:<15} {name:<18} median {per_set[0]['median']:>14.4f}"
                  f"  spread {spread:7.2%} (bound {bound:5.2f})"
                  f"  drift {drift:+7.2%}  {verdict}")
        wall = [w for _, walls in sets for w in walls]
        print(f"{workload:<15} run wall max {max(wall):.1f} s, median {statistics.median(wall):.1f} s")
        record["workloads"][workload] = {"metrics": rows, "run_wall_s_max": max(wall)}
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
