#!/usr/bin/env bash
# Run the headline benchmarks (e1 large-scale, e3 speedup and trial
# diff, e7 SQL aggregates, e8 telemetry overhead, e9 recovery,
# e10 columnar, e11 server) and
# snapshot every result into one dated JSON file, so runs can be diffed
# across commits or archived as CI artifacts.
#
# Usage: scripts/bench_snapshot.sh [output.json]
#
# Defaults to bench_snapshot_YYYY-MM-DD.json in the repo root. Honors
# PERFDMF_BENCH_QUICK=1 (shrinks every size sweep to its smallest
# point — what CI uses); leave it unset for real measurements.
#
# Archival workflow (documented in EXPERIMENTS.md): after a perf-relevant
# change, run this on a quiet machine and commit the output as
# BENCH_YYYY-MM-DD.json, so the history of measured numbers travels with
# the code that produced them:
#
#     scripts/bench_snapshot.sh BENCH_$(date +%Y-%m-%d).json
#     git add BENCH_*.json
set -eu
set -o pipefail

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

out=${1:-bench_snapshot_$(date +%Y-%m-%d).json}
log=$(mktemp)
trap 'rm -f "$log"' EXIT

benches="e1_large_scale e3_speedup e7_sql_aggregates e8_telemetry_overhead e9_recovery e10_columnar e11_server"
# PERFDMF_BENCH_QUICK also shrinks the e11 swarm unless the caller
# already pinned a size.
if [ "${PERFDMF_BENCH_QUICK:-}" = "1" ] && [ -z "${PERFDMF_E11_CLIENTS:-}" ]; then
    export PERFDMF_E11_CLIENTS=50
fi
for bench in $benches; do
    cargo bench -p perfdmf-bench --bench "$bench" 2>&1 | tee -a "$log"
done

git_rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_SNAPSHOT_OUT="$out" BENCH_SNAPSHOT_GIT="$git_rev" BENCH_SNAPSHOT_LOG="$log"

# The vendored criterion shim prints one line per result:
#   bench: <group/name>  <median>/iter  [<rate> elem/s|MiB/s]  (mad <mad>, <n> samples)
# Parse those into a sorted JSON document; times are nanoseconds.
python3 - <<'EOF'
import json, os, re, datetime, sys

UNIT_NS = {"ns": 1.0, "µs": 1e3, "us": 1e3, "ms": 1e6, "s": 1e9}
TIME = r"[0-9.]+(?:ns|µs|us|ms|s)"
line_re = re.compile(
    r"^bench:\s+(?P<id>\S+)\s+(?P<val>[0-9.]+)(?P<unit>ns|µs|us|ms|s)/iter"
    r"(?:\s+(?P<rate>[0-9.]+)\s+(?P<rate_unit>elem/s|MiB/s))?"
    rf"(?:\s+\(mad (?P<mad>{TIME}), (?P<samples>[0-9]+) samples\))?"
)

def ns(text):
    num = re.match(r"[0-9.]+", text).group(0)
    return float(num) * UNIT_NS[text[len(num):]]

results = {}
for line in open(os.environ["BENCH_SNAPSHOT_LOG"]):
    m = line_re.match(line.strip())
    if not m:
        continue
    entry = {
        "id": m.group("id"),
        "median_ns": float(m.group("val")) * UNIT_NS[m.group("unit")],
    }
    if m.group("mad"):
        entry["mad_ns"] = ns(m.group("mad"))
        entry["samples"] = int(m.group("samples"))
    if m.group("rate"):
        key = "elems_per_s" if m.group("rate_unit") == "elem/s" else "mib_per_s"
        entry[key] = float(m.group("rate"))
    results[entry["id"]] = entry  # last run wins if an id repeats

if not results:
    sys.exit("no 'bench:' lines found in the bench output")

doc = {
    "date": datetime.date.today().isoformat(),
    "git": os.environ["BENCH_SNAPSHOT_GIT"],
    "quick": os.environ.get("PERFDMF_BENCH_QUICK") == "1",
    "results": sorted(results.values(), key=lambda r: r["id"]),
}
out = os.environ["BENCH_SNAPSHOT_OUT"]
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"{len(results)} results -> {out}")
EOF
