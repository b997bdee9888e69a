#!/usr/bin/env bash
# bench.sh — regenerate the BENCH_*.json files reproducibly on the
# current host:
#
#   BENCH_ingest.json    ingest throughput (serial vs sharded vs coalesced)
#   BENCH_update.json    digest update kernel (direct vs replay vs batch)
#   BENCH_estimate.json  query kernel (interpreted vs compiled vs parallel)
#   BENCH_wal.json       durability (WAL append, recovery)
#   BENCH_e2e.json       end-to-end: sketchbench sessions over TCP into sketchd
#
# Usage:
#   scripts/bench.sh                  # regenerate everything
#   scripts/bench.sh update e2e       # only the named sections
#   scripts/bench.sh compare OLD NEW  # diff two BENCH files (cmd/benchdiff),
#                                     # non-zero exit on >10% ns/op regressions
#
# Run from anywhere: each suite runs once, the output is parsed, and
# the JSON is rewritten in place with the current host's numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "compare" ]; then
    shift
    exec go run ./cmd/benchdiff "$@"
fi

GOOS=$(go env GOOS)
GOARCH=$(go env GOARCH)
CORES=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

# run_bench <regex> — runs the suite, echoes raw `go test` output.
run_bench() {
    go test -run xxx -bench "$1" -benchtime 1s .
}

# parse_results <raw> <name-regex> — benchmark lines to JSON objects.
parse_results() {
    printf '%s\n' "$1" | awk -v pat="$2" '
$1 ~ pat {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; ups = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "updates/s") ups = $(i - 1)
    }
    if (ns == "") next
    if (ups != "")
        printf "%s    {\"name\": \"%s\", \"ns_per_op\": %.0f, \"updates_per_s\": %.0f}", sep, name, ns, ups
    else
        printf "%s    {\"name\": \"%s\", \"ns_per_op\": %.0f}", sep, name, ns
    sep = ",\n"
}
END { print "" }'
}

# host_block <raw> — shared host JSON: cpu string and the GOMAXPROCS the
# benchmarks actually ran at (the -N suffix of the benchmark names),
# alongside the machine's online core count, so trajectory comparisons
# across hosts stay honest.
host_block() {
    local cpu maxprocs
    cpu=$(printf '%s\n' "$1" | awk -F': ' '/^cpu:/{sub(/^[ \t]+/, "", $2); print $2; exit}')
    [ -n "$cpu" ] || cpu=unknown
    maxprocs=$(printf '%s\n' "$1" | awk '/^Benchmark/{n=$1; if (match(n, /-[0-9]+$/)) {print substr(n, RSTART+1); exit}}')
    [ -n "$maxprocs" ] || maxprocs=1
    cat <<EOF
  "host": {
    "goos": "$GOOS",
    "goarch": "$GOARCH",
    "cpu": "$cpu",
    "cores": $CORES,
    "gomaxprocs": $maxprocs
  },
EOF
}

# --- BENCH_ingest.json ------------------------------------------------

bench_ingest() {
    local OUT=BENCH_ingest.json
    local CMD="go test -run xxx -bench BenchmarkIngest -benchtime 1s ."
    echo "== $CMD" >&2
    local RAW RESULTS
    RAW="$(run_bench BenchmarkIngest)"
    echo "$RAW" >&2
    RESULTS=$(parse_results "$RAW" "^BenchmarkIngest")
    if [ -z "${RESULTS// /}" ]; then
        echo "bench.sh: no BenchmarkIngest results parsed" >&2
        exit 1
    fi

    # config mirrors the constants in bench_test.go (benchCfg, copies,
    # streams, batch size, digest-cache default) and the ingest defaults;
    # update both together.
    cat > "$OUT" <<EOF
{
  "benchmark": "ingest throughput: serial family updates vs sharded copy-range workers vs digest-cached coalesced batches",
  "command": "$CMD",
$(host_block "$RAW")
  "config": {
    "copies": 128,
    "second_level": 32,
    "first_wise": 8,
    "streams": 3,
    "batch_size": 256,
    "digest_cache_entries": 8192,
    "coalesced_workload": "Zipf(1.0) over 16384 distinct elements, 10% deletions (datagen.LoadGen seed 2026)"
  },
  "results": [
$RESULTS
  ],
  "notes": [
    "Regenerate with 'make bench' (scripts/bench.sh); results vary with host core count.",
    "IngestSerial/IngestSharded draw near-uniform elements; IngestCoalesced draws the shared benchmark workload (datagen.LoadGen: Zipf(1.0) with a 10% delete ratio), the skewed regime the digest cache and per-batch coalescing target.",
    "Cache misses inside a coalesced batch are resolved through the batch digest kernel (core.Family.DigestBatch), so the residual hash bill is amortized across the whole miss set.",
    "A direct-path update costs r*(s+1) counter additions plus the full limited-independence hash bill; a digest-cache hit replays r*(s+1) plain additions with zero field arithmetic.",
    "updates_per_s is reported by the benchmark itself via b.ReportMetric."
  ]
}
EOF
    echo "bench.sh: wrote $OUT" >&2
}

# --- BENCH_update.json ------------------------------------------------

bench_update() {
    local OUT=BENCH_update.json
    local PAT='^(BenchmarkUpdate|BenchmarkUpdateDigest|BenchmarkUpdateDigestCompute|BenchmarkUpdateDigestComputeBatch|BenchmarkMergeFlat)$'
    local CMD="go test -run xxx -bench '$PAT' -benchtime 1s ."
    echo "== $CMD" >&2
    local RAW RESULTS
    RAW="$(run_bench "$PAT")"
    echo "$RAW" >&2
    RESULTS=$(parse_results "$RAW" "^(BenchmarkUpdate|BenchmarkMergeFlat)")
    if [ -z "${RESULTS// /}" ]; then
        echo "bench.sh: no update-kernel results parsed" >&2
        exit 1
    fi

    cat > "$OUT" <<EOF
{
  "benchmark": "digest update kernel at the paper shape: direct hashing path vs packed-digest replay vs batch digest kernel, plus flat-layout family merge",
  "command": "$CMD",
$(host_block "$RAW")
  "config": {
    "copies": 128,
    "second_level": 32,
    "first_wise": 8,
    "distinct_elements": 1024,
    "digest_cache_entries": 8192,
    "batch_elements": 256
  },
  "results": [
$RESULTS
  ],
  "notes": [
    "Regenerate with 'make bench' (scripts/bench.sh).",
    "Update: direct path — per item, r Horner evaluations (degree t-1) plus r*s pairwise hashes over GF(2^61-1), then r*(s+1) counter additions.",
    "UpdateDigest: cache-hit path — digests precomputed, each update replays r*(s+1) additions; the acceptance bar is >= 3x fewer ns/op than Update.",
    "UpdateDigestCompute: cache-miss bound, one element at a time — one full digest computation plus one replay.",
    "UpdateDigestComputeBatch: the batch digest kernel (DigestBatch + UpdateBatchDigest) amortizing hash setup copy-major over 256-element batches; bit-identical to the per-element path (differential + fuzz tested) and the acceptance bar is >= 2x fewer ns/op than UpdateDigestCompute. Uses AVX-512 column packing when the host has it.",
    "MergeFlat: one 128-copy synopsis merged into another over the family-owned flat counter arenas (two linear slice additions)."
  ]
}
EOF
    echo "bench.sh: wrote $OUT" >&2
}

# --- BENCH_estimate.json ----------------------------------------------

bench_estimate() {
    local OUT=BENCH_estimate.json
    local PAT='^(BenchmarkEstimateExpression|BenchmarkEstimateCompiled|BenchmarkEstimateParallel)$'
    local CMD="go test -run xxx -bench '$PAT' -benchtime 1s ."
    echo "== $CMD" >&2
    local RAW RESULTS
    RAW="$(run_bench "$PAT")"
    echo "$RAW" >&2
    RESULTS=$(parse_results "$RAW" "^BenchmarkEstimate")
    if [ -z "${RESULTS// /}" ]; then
        echo "bench.sh: no query-kernel results parsed" >&2
        exit 1
    fi

    cat > "$OUT" <<EOF
{
  "benchmark": "query kernel at the paper shape: interpreted reference estimator vs compiled occupancy-word program over packed bitmaps, serial and parallel witness scan",
  "command": "$CMD",
$(host_block "$RAW")
  "config": {
    "copies": 128,
    "second_level": 32,
    "first_wise": 8,
    "expression": "(A - B) & C",
    "union": 4096,
    "target_ratio": 16,
    "multi_level": true
  },
  "results": [
$RESULTS
  ],
  "notes": [
    "Regenerate with 'make bench' (scripts/bench.sh).",
    "EstimateExpression: pre-kernel reference — raw counter scans with a map[string]bool and recursive EvalBool per witness candidate.",
    "EstimateCompiled: compiled kernel, serial — truth-table/postfix program over a packed occupancy word, version-cached per-family occupancy and signature bitmaps, zero allocations per call; the acceptance bar is >= 3x fewer ns/op than EstimateExpression.",
    "EstimateParallel: compiled kernel with the default worker pool (one worker per CPU); identical to EstimateCompiled when gomaxprocs is 1. All three paths return bit-identical estimates.",
    "The ML union epilogue is shared by all paths, so the ratio isolates the witness-scan and Boolean-evaluation cost."
  ]
}
EOF
    echo "bench.sh: wrote $OUT" >&2
}

# --- BENCH_wal.json ---------------------------------------------------

bench_wal() {
    local OUT=BENCH_wal.json
    local PAT='^(BenchmarkWALAppend|BenchmarkRecovery)$'
    local CMD="go test -run xxx -bench '$PAT' -benchtime 1s ."
    echo "== $CMD" >&2
    local RAW RESULTS
    RAW="$(run_bench "$PAT")"
    echo "$RAW" >&2
    RESULTS=$(parse_results "$RAW" "^(BenchmarkWALAppend|BenchmarkRecovery)")
    if [ -z "${RESULTS// /}" ]; then
        echo "bench.sh: no durability results parsed" >&2
        exit 1
    fi

    cat > "$OUT" <<EOF
{
  "benchmark": "durability layer: WAL append throughput per fsync policy, and coordinator recovery (open + truncate-scan + replay) vs WAL length",
  "command": "$CMD",
$(host_block "$RAW")
  "config": {
    "copies": 128,
    "second_level": 32,
    "first_wise": 8,
    "batch_updates": 64,
    "record_encoding": "digest-packed (s = 32 <= 58)",
    "segment_size_bytes": 16777216,
    "recovery_snapshot": "none (worst-case full-suffix replay)"
  },
  "results": [
$RESULTS
  ],
  "notes": [
    "Regenerate with 'make bench-wal' or 'make bench' (scripts/bench.sh).",
    "WALAppend: one digest-packed 64-update record per op. fsync=always is the durability ceiling (one fsync per acked batch) and is bounded by device sync latency, not CPU; interval amortizes the sync over a 100ms window; never is the framing+buffered-write floor.",
    "Appends are serialized under the log mutex by design (log order must equal apply order), so WALAppend does not scale with cores; on a 1-core host the numbers are representative of any host with the same storage device.",
    "Recovery: each op is a full restart — wal.Open's tail truncate-scan plus replaying every record into a fresh coordinator via the hash-free digest path. updates_per_s is the replay rate; time grows linearly with WAL length, which is what the snapshot interval bounds in production.",
    "WAL digests are computed through the batch kernel (BuildUpdates batches each record's elements through one DigestBatch call).",
    "fsync behavior depends on the filesystem and device; on CI-grade virtual disks fsync=always can appear unrealistically fast (write cache not flushed to stable media)."
  ]
}
EOF
    echo "bench.sh: wrote $OUT" >&2
}

# --- BENCH_e2e.json ---------------------------------------------------
#
# End-to-end proof: build sketchd + sketchbench, start a real server,
# and sweep concurrent sessions × server GOMAXPROCS. Each cell is one
# sketchbench run over TCP; its mean round trip lands in ns_per_op so
# `bench.sh compare` gates e2e files too.

E2E_DURATION=${E2E_DURATION:-5s}
E2E_WARMUP=${E2E_WARMUP:-1s}
E2E_SESSIONS=${E2E_SESSIONS:-"1 2 4"}

# jnum <file> <key> — first numeric value of "key": N in a JSON file.
jnum() {
    awk -v k="\"$2\"" '
index($0, k ":") {
    s = substr($0, index($0, k ":") + length(k) + 1)
    gsub(/[ \t,]/, "", s)
    print s
    exit
}' "$1"
}

bench_e2e() {
    local OUT=BENCH_e2e.json
    local bin tmp
    bin=$(mktemp -d)
    tmp=$(mktemp -d)
    trap 'rm -rf "$bin" "$tmp"' RETURN
    echo "== building sketchd + sketchbench" >&2
    go build -o "$bin/sketchd" ./cmd/sketchd
    go build -o "$bin/sketchbench" ./cmd/sketchbench

    # GOMAXPROCS sweep for the server: 1 and every power of two up to
    # the core count (deduplicated, so a 1-core host runs just [1]).
    local procs_list p=1
    procs_list="1"
    while [ $((p * 2)) -le "$CORES" ]; do
        p=$((p * 2))
        procs_list="$procs_list $p"
    done

    local results="" sep="" cpu=unknown
    if [ -r /proc/cpuinfo ]; then
        cpu=$(awk -F': ' '/^model name/{print $2; exit}' /proc/cpuinfo)
    fi
    for procs in $procs_list; do
        # One server per GOMAXPROCS cell.
        local log="$tmp/sketchd-$procs.log"
        GOMAXPROCS=$procs "$bin/sketchd" serve -listen 127.0.0.1:0 -copies 128 -s 32 >"$log" 2>&1 &
        local srv_pid=$!
        local addr="" i
        for i in $(seq 1 100); do
            addr=$(sed -n 's/.*msg="coordinator listening" addr=//p' "$log" | head -1)
            [ -n "$addr" ] && break
            kill -0 "$srv_pid" 2>/dev/null || { cat "$log" >&2; echo "bench.sh: sketchd died" >&2; exit 1; }
            sleep 0.1
        done
        if [ -z "$addr" ]; then
            echo "bench.sh: sketchd did not report a listen address" >&2
            exit 1
        fi
        for sessions in $E2E_SESSIONS; do
            echo "== sketchbench -sessions $sessions (server GOMAXPROCS=$procs, $E2E_DURATION)" >&2
            local rep="$tmp/run-$procs-$sessions.json"
            "$bin/sketchbench" -addr "$addr" -sessions "$sessions" \
                -duration "$E2E_DURATION" -warmup "$E2E_WARMUP" \
                -batch 256 -zipf 1.0 -deletes 0.1 -support 16384 \
                -copies 128 -s 32 -hist=false -out "$rep"
            local ups p50 p99 p999 mean
            ups=$(jnum "$rep" updates_per_s)
            p50=$(jnum "$rep" p50)
            p99=$(jnum "$rep" p99)
            p999=$(jnum "$rep" p999)
            mean=$(jnum "$rep" mean)
            results="$results$sep    {\"name\": \"e2e/sessions=$sessions/gomaxprocs=$procs\", \"sessions\": $sessions, \"server_gomaxprocs\": $procs, \"ns_per_op\": $(awk -v m="$mean" 'BEGIN{printf "%.0f", m*1000}'), \"updates_per_s\": $(awk -v u="$ups" 'BEGIN{printf "%.0f", u}'), \"round_trip_us\": {\"p50\": $p50, \"p99\": $p99, \"p999\": $p999, \"mean\": $mean}}"
            sep=",\n"
        done
        kill "$srv_pid" 2>/dev/null || true
        wait "$srv_pid" 2>/dev/null || true
    done

    cat > "$OUT" <<EOF
{
  "benchmark": "end-to-end over TCP: sketchbench forwards raw update batches through concurrent streaming sessions into a live sketchd coordinator",
  "command": "scripts/bench.sh e2e  (sketchbench -batch 256 -zipf 1.0 -deletes 0.1 -support 16384 -duration $E2E_DURATION per cell)",
  "host": {
    "goos": "$GOOS",
    "goarch": "$GOARCH",
    "cpu": "$cpu",
    "cores": $CORES,
    "gomaxprocs": "swept (see results)"
  },
  "config": {
    "copies": 128,
    "second_level": 32,
    "first_wise": 8,
    "batch": 256,
    "streams": 3,
    "support": 16384,
    "zipf": 1.0,
    "deletes": 0.1,
    "warmup": "$E2E_WARMUP",
    "duration": "$E2E_DURATION"
  },
  "results": [
$(printf "$results")
  ],
  "notes": [
    "Regenerate with 'make bench-e2e' (scripts/bench.sh e2e); sweep bounds come from the host core count (E2E_SESSIONS overrides).",
    "Each cell: N sketchbench sessions (one TCP connection + site each) forward 256-update binary frames and wait for the ack; the server sketches centrally via ApplyUpdates. ns_per_op is the mean send-to-ack round trip in ns; updates_per_s sums all sessions.",
    "Sessions are synchronous request/reply, so per-session throughput is latency-bound; added sessions raise aggregate throughput until the server side saturates its cores.",
    "Client and server share the host's cores, so session scaling measures overlap of client generation with server work as much as server capacity. Batches apply under the coordinator's one state lock; the hash bill is paid outside it.",
    "The wire hot path is allocation-free at steady state on both ends (pinned by TestSessionFrameCodecAllocFree / TestServerFramePathAllocFree)."
  ]
}
EOF
    echo "bench.sh: wrote $OUT" >&2
}

# --- dispatch ---------------------------------------------------------

if [ $# -eq 0 ]; then
    set -- ingest update estimate wal e2e
fi
for section in "$@"; do
    case "$section" in
        ingest)   bench_ingest ;;
        update)   bench_update ;;
        estimate) bench_estimate ;;
        wal)      bench_wal ;;
        e2e)      bench_e2e ;;
        *)
            echo "bench.sh: unknown section '$section' (ingest|update|estimate|wal|e2e|compare)" >&2
            exit 2
            ;;
    esac
done
