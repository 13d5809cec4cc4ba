#!/usr/bin/env bash
# Paired parent/change perfbench runs, with a verdict per end-to-end
# metric of BENCHMARK.json.
#
# Usage: scripts/perfpair.sh PARENT CHANGE --workload W
#
# PARENT and CHANGE are git revisions (to measure uncommitted work,
# stage it and pass `$(git stash create)` as CHANGE). Each revision's
# committed files are exported with `git archive` into a temp dir and
# perfbench is built there offline with `--locked`, into a target dir of
# its own. An export leaves nothing in the repository's `.git`, so a
# killed run leaves no stale worktree behind.
#
# The protocol is fixed: 10 pairs, seed 7, 15 s per run. Pair i runs
# both binaries once, each in a fresh working directory (perfbench
# writes `.bench_out/` to its current directory); odd pairs run the
# parent first and even pairs the change. Every run uses `--trace 0`,
# so its last stdout line holds the end-to-end metrics.
#
# The metrics, their direction and their bounds are read from the
# PARENT's BENCHMARK.json, so a change cannot loosen the gate it is
# judged by; a change whose end-to-end list differs is reported and
# fails. For each metric the report gives both sides' median and
# quartiles, the change's wins out of 10 (ties count for neither side)
# and a verdict:
#   gain        the change wins >= 9/10 of the pairs and the medians
#               differ by more than the parent's interquartile range
#   worse       the change's median is worse than the parent's by more
#               than the metric's bound (a fraction of the parent median)
#   unresolved  the parent's own IQR is wider than that bound, and not
#               every change run beats every parent run
#   same        none of the above
# It also prints each side's failed/attempted operation counts, and after
# the verdict table each detail metric of the runs' reports
# (`.bench_out/<workload>-seed7-trace0.json`) with both sides' median and
# quartiles, so a moved end-to-end metric can be traced to its layer; the
# detail metrics get no verdict. Exits 1
# if any run reports `"correct": false` or prints no result line, or the
# two sides' end-to-end lists differ; 2 on bad arguments.
set -eu
set -o pipefail

[ $# -eq 4 ] && [ "$3" = --workload ] && [ -n "$4" ] || {
    echo "usage: $0 PARENT CHANGE --workload W" >&2
    exit 2
}
parent_rev=$1
change_rev=$2
workload=$4
pairs=10
seed=7
seconds=15

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for side in parent change; do
    if [ "$side" = parent ]; then rev=$parent_rev; else rev=$change_rev; fi
    commit=$(git -C "$repo_root" rev-parse --verify --quiet "$rev^{commit}") ||
        { echo "perfpair: unknown revision $rev" >&2; exit 2; }
    mkdir -p "$tmp/$side/src"
    git -C "$repo_root" archive "$commit" | tar -x -C "$tmp/$side/src"
    echo "perfpair: building $side ($rev = ${commit:0:12})" >&2
    CARGO_TARGET_DIR="$tmp/$side/target" cargo build --release --offline --locked --quiet \
        --manifest-path "$tmp/$side/src/perfbench/Cargo.toml"
done

status=0
run_side() {
    local side=$1 pair=$2
    local dir="$tmp/run-$pair-$side"
    mkdir -p "$dir"
    # perfbench exits 1 when an output check failed; the result line
    # still carries `"correct": false`, which the summary reports.
    (cd "$dir" && "$tmp/$side/target/release/perfbench" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 >stdout 2>stderr) || true
    local line
    line=$(tail -n 1 "$dir/stdout")
    case $line in
        "{"*) printf '%s\n' "$line" >>"$tmp/$side.jsonl" ;;
        *)
            echo "perfpair: $side run $pair printed no result line:" >&2
            tail -n 5 "$dir/stderr" >&2
            status=1
            printf '{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}\n' >>"$tmp/$side.jsonl"
            ;;
    esac
    # Keep the run's detail metrics (one JSON list per line, empty when
    # the report is missing) before its directory goes.
    python3 -c 'import json, sys
try:
    detail = json.load(open(sys.argv[1]))["detail"]
except (OSError, ValueError, KeyError):
    detail = []
print(json.dumps(detail))' "$dir/.bench_out/$workload-seed$seed-trace0.json" >>"$tmp/$side.detail.jsonl"
    rm -rf "$dir"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$pair"
        run_side change "$pair"
    else
        run_side change "$pair"
        run_side parent "$pair"
    fi
    echo "perfpair: pair $pair/$pairs done" >&2
done

PERFPAIR_TMP=$tmp PERFPAIR_WORKLOAD=$workload PERFPAIR_SEED=$seed PERFPAIR_SECONDS=$seconds \
    PERFPAIR_PARENT=$parent_rev PERFPAIR_CHANGE=$change_rev python3 - <<'EOF' || status=1
import json, os, statistics, sys

tmp = os.environ["PERFPAIR_TMP"]
runs = {
    side: [json.loads(l) for l in open(f"{tmp}/{side}.jsonl")]
    for side in ("parent", "change")
}
bench = json.load(open(f"{tmp}/parent/src/BENCHMARK.json"))
changed = json.load(open(f"{tmp}/change/src/BENCHMARK.json"))
n = len(runs["parent"])


def num(v):
    return f"{v:.4g}" if abs(v) < 1e4 else f"{v:.0f}"


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(
    f"workload {os.environ['PERFPAIR_WORKLOAD']}: {n} pairs, seed {os.environ['PERFPAIR_SEED']}, "
    f"{os.environ['PERFPAIR_SECONDS']} s; parent {os.environ['PERFPAIR_PARENT']}, "
    f"change {os.environ['PERFPAIR_CHANGE']}"
)
for side in ("parent", "change"):
    failed = sum(r["failed"] for r in runs[side])
    attempted = sum(r["attempted"] for r in runs[side])
    wrong = sum(1 for r in runs[side] if not r["correct"])
    print(f"  {side}: {failed}/{attempted} ops failed, {wrong}/{n} runs incorrect")
print(f"  {'metric':<18}{'parent median [q1, q3]':<32}{'change median [q1, q3]':<32}{'wins':<8}verdict")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"].get(name, {}).get("value") for r in runs["parent"]]
    c = [r["metrics"].get(name, {}).get("value") for r in runs["change"]]
    if None in p or None in c:
        print(f"  {name:<18}missing from a run")
        continue
    pq, cq = quartiles(p), quartiles(c)
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(1 for a, b in zip(p, c) if better(b, a))
    iqr = pq[2] - pq[0]
    slack = m["bound"] * abs(pq[1])
    diff = cq[1] - pq[1]
    worse_by = diff if lower else -diff
    if 10 * wins >= 9 * n and abs(diff) > iqr and worse_by < 0:
        verdict = "gain"
    elif worse_by > slack:
        verdict = "worse"
    elif iqr > slack and not all(better(b, a) for a in p for b in c):
        verdict = "unresolved"
    else:
        verdict = "same"
    quart = lambda q: f"{num(q[1])} [{num(q[0])}, {num(q[2])}]"
    print(f"  {name:<18}{quart(pq):<32}{quart(cq):<32}{f'{wins}/{n}':<8}{verdict}")
    print(f"    parent {', '.join(num(v) for v in p)}")
    print(f"    change {', '.join(num(v) for v in c)}")
details = {
    side: [json.loads(l) for l in open(f"{tmp}/{side}.detail.jsonl")]
    for side in ("parent", "change")
}
names = []
for side in details.values():
    for run in side:
        names += [m["name"] for m in run if m["name"] not in names]
width = max([len(name) for name in names] + [len("detail metric")]) + 2
if names:
    print(f"  {'detail metric':<{width}}{'parent median [q1, q3]':<32}change median [q1, q3]")
for name in names:
    cols = []
    for side in ("parent", "change"):
        xs = [m["value"] for run in details[side] for m in run if m["name"] == name]
        q = quartiles(xs) if xs else None
        cols.append(f"{num(q[1])} [{num(q[0])}, {num(q[2])}]" if q else "missing")
    print(f"  {name:<{width}}{cols[0]:<32}{cols[1]}")
if changed["end_to_end"] != bench["end_to_end"]:
    print("  the change's BENCHMARK.json end_to_end list differs from the parent's; judged by the parent's")
    sys.exit(1)
sys.exit(1 if any(not r["correct"] for side in runs.values() for r in side) else 0)
EOF
exit "$status"
