#!/usr/bin/env sh
# bench_oversub.sh — run the oversubscription and UVM residency benchmarks
# and emit/check a machine-readable baseline. BenchmarkContextCycle (one
# fresh context through a vector_seq run) is gated alongside the eviction
# churn because it pays the residency arenas' first-call growth.
#
#   scripts/bench_oversub.sh write [out.json]
#       Run the benchmarks and write the JSON baseline (default
#       BENCH_oversub.json). Commit the result to refresh the baseline.
#
#   scripts/bench_oversub.sh check [baseline.json]
#       Run the benchmarks, write BENCH_oversub_current.json next to the
#       baseline for artifact upload, and fail if any benchmark's ns/op
#       exceeds 3x its committed baseline — a smoke test that the O(1)
#       eviction path has not regressed toward the old full scan.
#
# BENCHTIME overrides the per-benchmark iteration count (default 1x;
# simulation benchmarks are deterministic, so one iteration measures the
# workload, not noise).
set -eu

mode="${1:-write}"
baseline="${2:-BENCH_oversub.json}"
benchtime="${BENCHTIME:-1x}"

cd "$(dirname "$0")/.."

run_bench() {
    go test -run '^$' -bench 'BenchmarkOversubscription$|BenchmarkUVMEvictionMega|BenchmarkContextCycle$' \
        -benchtime "$benchtime" -benchmem . |
        awk '
            /^Benchmark/ {
                name = $1
                sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix
                ns = ""; allocs = ""
                for (i = 2; i <= NF; i++) {
                    if ($i == "ns/op") ns = $(i-1)
                    if ($i == "allocs/op") allocs = $(i-1)
                }
                if (ns == "") next
                if (out != "") out = out ","
                out = out sprintf("\n    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, allocs == "" ? 0 : allocs)
            }
            END { printf "{\n  \"benchmarks\": [%s\n  ]\n}\n", out }
        '
}

case "$mode" in
write)
    run_bench > "$baseline"
    echo "wrote $baseline:"
    cat "$baseline"
    ;;
check)
    current="${baseline%.json}_current.json"
    run_bench > "$current"
    echo "current results ($current):"
    cat "$current"
    python3 - "$baseline" "$current" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    base = {b["name"]: b for b in json.load(f)["benchmarks"]}
with open(sys.argv[2]) as f:
    cur = {b["name"]: b for b in json.load(f)["benchmarks"]}

LIMIT = 3.0
failed = False
for name, b in base.items():
    c = cur.get(name)
    if c is None:
        print(f"FAIL {name}: benchmark missing from current run")
        failed = True
        continue
    ratio = c["ns_per_op"] / b["ns_per_op"]
    status = "ok  "
    if ratio > LIMIT:
        status, failed = "FAIL", True
    print(f"{status} {name}: {c['ns_per_op']:.0f} ns/op vs baseline "
          f"{b['ns_per_op']:.0f} ({ratio:.2f}x, limit {LIMIT}x)")
sys.exit(1 if failed else 0)
EOF
    ;;
*)
    echo "usage: $0 write|check [baseline.json]" >&2
    exit 2
    ;;
esac
