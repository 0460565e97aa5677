#!/usr/bin/env sh
# bench_suite.sh — run the figure-suite benchmark, the cold-latency
# benchmarks at one core and at every core, the layer rows of the cold
# path (one warm managed iteration, one fresh seed and math/rand's
# reference expansion), plus a timed 1-core `uvmbench all`, and
# emit/check a machine-readable baseline.
#
#   scripts/bench_suite.sh write [out.json]
#       Run the measurements and write the JSON baseline (default
#       BENCH_suite.json). Commit the result to refresh the baseline.
#
#   scripts/bench_suite.sh check [baseline.json]
#       Run the measurements, write BENCH_suite_current.json next to the
#       baseline for artifact upload, and fail if any benchmark's ns/op
#       exceeds 3x its committed baseline, its allocs/op exceeds 2x (the
#       GC-free iteration path has started allocating again), or the
#       1-core `uvmbench all` wall time exceeds 2x.
#
# The cold-latency benchmarks (BenchmarkColdCellMegaUVM,
# BenchmarkServeColdFig7) run twice: pinned to one core ("/1core") as
# the serial reference, and with every core available ("/multicore"),
# which is where the intra-cell iteration fan-out shows up — a lone cold
# cell spreads its iterations across the executor pool instead of
# leaving width-1 workers idle. On a single-core machine the two rows
# are expected to match.
#
# BENCHTIME overrides the per-benchmark iteration count (default 1x;
# simulation benchmarks are deterministic, so one iteration measures the
# workload, not noise). The layer rows time steady-state operations of
# tens of microseconds or less, where one iteration would measure timer
# and cache noise, so they run fixed counts: 200 managed iterations and
# 20000 seeds.
set -eu

mode="${1:-write}"
baseline="${2:-BENCH_suite.json}"
benchtime="${BENCHTIME:-1x}"

cd "$(dirname "$0")/.."

# parse_bench reads `go test -bench` output on stdin and emits one JSON
# array element per benchmark, name-suffixed by $1 to keep the 1-core
# and multi-core rows distinct in the baseline.
parse_bench() {
    awk -v suffix="$1" '
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
            out = out sprintf("\n    {\"name\": \"%s%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", name, suffix, ns, allocs == "" ? 0 : allocs)
        }
        END { printf "%s", out }
    '
}

run_bench() {
    bin="$(mktemp -d)/uvmbench"
    go build -o "$bin" ./cmd/uvmbench
    start=$(date +%s.%N)
    GOMAXPROCS=1 "$bin" all > /dev/null
    end=$(date +%s.%N)
    wall=$(awk "BEGIN { printf \"%.3f\", $end - $start }")
    rm -f "$bin"

    rows_suite=$(go test -run '^$' -bench 'BenchmarkFigureSuite$' \
        -benchtime "$benchtime" -benchmem . | parse_bench "")
    rows_1core=$(GOMAXPROCS=1 go test -run '^$' \
        -bench 'BenchmarkColdCellMegaUVM$|BenchmarkServeColdFig7$' \
        -benchtime "$benchtime" -benchmem . | parse_bench "/1core")
    rows_multi=$(go test -run '^$' \
        -bench 'BenchmarkColdCellMegaUVM$|BenchmarkServeColdFig7$' \
        -benchtime "$benchtime" -benchmem . | parse_bench "/multicore")
    rows_iter=$(go test -run '^$' -bench 'BenchmarkManagedIteration$' \
        -benchtime 200x -benchmem . | parse_bench "")
    rows_seed=$(go test -run '^$' -bench 'BenchmarkSeedFresh$|BenchmarkSeedMathRand$' \
        -benchtime 20000x -benchmem ./internal/seedrng | parse_bench "")

    printf '{\n  "benchmarks": [%s,%s,%s,%s,%s\n  ],\n' \
        "$rows_suite" "$rows_1core" "$rows_multi" "$rows_iter" "$rows_seed"
    printf '  "uvmbench_all_1core_wall_seconds": %s\n}\n' "$wall"
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
    base = json.load(f)
with open(sys.argv[2]) as f:
    cur = json.load(f)

NS_LIMIT = 3.0
ALLOC_LIMIT = 2.0
WALL_LIMIT = 2.0
failed = False

base_b = {b["name"]: b for b in base["benchmarks"]}
cur_b = {b["name"]: b for b in cur["benchmarks"]}
for name, b in base_b.items():
    c = cur_b.get(name)
    if c is None:
        print(f"FAIL {name}: benchmark missing from current run")
        failed = True
        continue
    ratio = c["ns_per_op"] / b["ns_per_op"]
    status = "ok  "
    if ratio > NS_LIMIT:
        status, failed = "FAIL", True
    print(f"{status} {name}: {c['ns_per_op']:.0f} ns/op vs baseline "
          f"{b['ns_per_op']:.0f} ({ratio:.2f}x, limit {NS_LIMIT}x)")
    if b.get("allocs_per_op"):
        aratio = c["allocs_per_op"] / b["allocs_per_op"]
        status = "ok  "
        if aratio > ALLOC_LIMIT:
            status, failed = "FAIL", True
        print(f"{status} {name}: {c['allocs_per_op']} allocs/op vs baseline "
              f"{b['allocs_per_op']} ({aratio:.2f}x, limit {ALLOC_LIMIT}x)")

wratio = cur["uvmbench_all_1core_wall_seconds"] / base["uvmbench_all_1core_wall_seconds"]
status = "ok  "
if wratio > WALL_LIMIT:
    status, failed = "FAIL", True
print(f"{status} uvmbench all (1 core): {cur['uvmbench_all_1core_wall_seconds']:.2f}s vs baseline "
      f"{base['uvmbench_all_1core_wall_seconds']:.2f}s ({wratio:.2f}x, limit {WALL_LIMIT}x)")
sys.exit(1 if failed else 0)
EOF
    ;;
*)
    echo "usage: $0 write|check [baseline.json]" >&2
    exit 2
    ;;
esac
