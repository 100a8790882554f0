#!/bin/sh
# CI gate: formatting, vet, build, the full test suite (which holds the
# byte-identity contracts: cmd/rtec and internal/rtec contract_test.go,
# DESIGN.md §9), race-enabled tests for the concurrency-sensitive packages,
# the kb index fuzz, and the two gates that need real processes: the rtecd
# daemon's drain and resume, and the benchmark smoke.
set -eu
cd "$(dirname "$0")"

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...
# The gates below run these binaries; the daemon is race-instrumented.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/bin"
mkdir "$bin"
go build -o "$bin/" ./cmd/aisgen ./cmd/disorder ./cmd/rtec ./cmd/rtectop ./cmd/vet-rtec
go build -race -o "$bin/rtecd-race" ./cmd/rtecd

echo "== vet-rtec (no wall clock or unseeded rand outside internal/clock; no metric name without a reader)"
"$bin/vet-rtec" .

echo "== go test"
go test ./...

echo "== go test -race (concurrency-sensitive packages)"
# internal/rtec's two contract tests run at Workers 1 bar one row, so the
# detector has little to watch for their ≈ 100 s (2-core x86-64); the pool's
# sliding and streaming paths are raced by concurrency_test.go and
# delta_test.go, and the sharded runs by cmd/rtec's TestContractGates.
# cmd/experiments' TestRunAllWorkersIdentical drives the one pool that runs
# Figures 2b, 2c and the refine chains at -workers 8.
go test -race -skip '^TestContract(DeltaEqualsFull|DefectiveDefinition)$' \
    ./cmd/rtec ./cmd/experiments ./internal/rtec/... ./internal/fleet/... ./internal/stream/... ./internal/telemetry/... \
    ./internal/eval/... ./internal/similarity/... ./internal/shard/... ./internal/serve/... \
    ./internal/llm/... ./internal/prompt/... ./internal/correct/...

echo "== kb index fuzz (Match and a compiled Lookup answer exactly as Unify over every fact)"
go test ./internal/kb -run '^$' -fuzz '^FuzzMatchEqualsScan$' -fuzztime 10s

echo "== rtecd gate (daemon drain, resume byte-identity, strict admission)"
# Serve the maritime event description through the rtecd daemon: POST half
# the NDJSON stream, SIGTERM mid-run (graceful drain into suspend
# checkpoints), restart with -resume, re-POST the full stream and finish. The
# final CSV and every per-shard journal must be byte-identical to a one-shot
# sharded cmd/rtec run (same geometry, same arrival order: disorder emits the
# same seeded permutation in either serialisation). The daemon binary is
# race-instrumented.
"$bin/aisgen" -vessels 14 -seed 7 -background "$tmp/bg.rtec" -gold "$tmp/gold.rtec" > "$tmp/events.csv"
cat "$tmp/gold.rtec" "$tmp/bg.rtec" > "$tmp/ed.rtec"
for fmt in csv ndjson; do
    "$bin/disorder" -in "$tmp/events.csv" -out "$tmp/shuffled.$fmt" -out-format $fmt \
        -max-delay 900 -seed 13 -dup-every 50 2>/dev/null
done
"$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -csv \
    -max-delay 900 -shards 4 -shard-seed 7 \
    -checkpoint "$tmp/clean.ckpt" -journal "$tmp/clean.jsonl" \
    > "$tmp/sharded-clean.csv" 2> /dev/null
first=$(awk -F, 'NR==1{m=$1} $1<m{m=$1} END{print m}' "$tmp/events.csv")
last=$(awk -F, 'NR==1{M=$1} $1>M{M=$1} END{print M}' "$tmp/events.csv")
rtecd_flags="-ed $tmp/ed.rtec -listen 127.0.0.1:0 -window 3600 -max-delay 900
    -start $first -end $((last + 1)) -shards 4 -shard-seed 7 -shard-overflow block
    -checkpoint $tmp/d.ckpt -journal $tmp/d.jsonl"
start_rtecd() {
    # $1: extra flags; sets $rtecd_pid and $rtecd_addr.
    : > "$tmp/rtecd-err.txt"
    # shellcheck disable=SC2086
    "$bin/rtecd-race" $1 2> "$tmp/rtecd-err.txt" &
    rtecd_pid=$!
    rtecd_addr=""
    i=0
    while [ $i -lt 300 ]; do
        rtecd_addr=$(sed -n 's/^rtecd: listening on //p' "$tmp/rtecd-err.txt")
        [ -n "$rtecd_addr" ] && break
        i=$((i + 1))
        sleep 0.1
    done
    if [ -z "$rtecd_addr" ]; then
        echo "rtecd gate: daemon never bound:" >&2
        cat "$tmp/rtecd-err.txt" >&2
        kill "$rtecd_pid" 2>/dev/null || true
        exit 1
    fi
}
post_ok() {
    # $1: NDJSON file to POST; fails the gate on any non-200.
    code=$(curl -s -o "$tmp/ingest-resp.txt" -w '%{http_code}' \
        --data-binary @"$1" "http://$rtecd_addr/ingest")
    if [ "$code" != 200 ]; then
        echo "rtecd gate: POST /ingest of $1 answered $code:" >&2
        cat "$tmp/ingest-resp.txt" >&2
        exit 1
    fi
}
half=$(($(wc -l < "$tmp/shuffled.ndjson") / 2))
head -n "$half" "$tmp/shuffled.ndjson" > "$tmp/firsthalf.ndjson"
start_rtecd "$rtecd_flags"
post_ok "$tmp/firsthalf.ndjson"
kill -TERM "$rtecd_pid"
if ! wait "$rtecd_pid"; then
    echo "rtecd gate: SIGTERM drain exited non-zero:" >&2
    cat "$tmp/rtecd-err.txt" >&2
    exit 1
fi
if ! grep -q '^rtecd: drained (suspended)$' "$tmp/rtecd-err.txt"; then
    echo "rtecd gate: drain did not park into the suspended state:" >&2
    cat "$tmp/rtecd-err.txt" >&2
    exit 1
fi
start_rtecd "$rtecd_flags -resume"
post_ok "$tmp/shuffled.ndjson"
# The live scrape must drive rtectop's DAEMON board and carry the engine's
# streaming instruments.
"$bin/rtectop" -once -metrics "http://$rtecd_addr/metrics" \
    -require 'serve_state,serve_ingest_requests_total>0,serve_windows_published_total>0,rtec_windows_evaluated_total>0,rtec_events_ingested_total>0,rtec_stream_watermark_age,rtec_window_emit_lag>0,rtec_window_e2e_micros>0' \
    > "$tmp/rtectop-daemon.txt"
curl -s -X POST "http://$rtecd_addr/finish" > "$tmp/rtecd.csv"
kill -TERM "$rtecd_pid"
wait "$rtecd_pid" || true
if ! cmp -s "$tmp/sharded-clean.csv" "$tmp/rtecd.csv"; then
    echo "rtecd gate: drained-and-resumed daemon CSV diverged from one-shot cmd/rtec:" >&2
    diff "$tmp/sharded-clean.csv" "$tmp/rtecd.csv" >&2 || true
    exit 1
fi
for k in 0 1 2 3; do
    if ! cmp -s "$tmp/clean.jsonl.s$k" "$tmp/d.jsonl.s$k"; then
        echo "rtecd gate: shard $k journal diverged across drain-and-resume" >&2
        exit 1
    fi
done
# Strict admission must not livelock: -shard-overflow error answers 429 only
# while a shard's consumer is really -shard-queue arrivals behind, so a
# client that re-POSTs a rejected chunk (the applied prefix comes back as
# duplicates, which the engine drops) gets the whole stream in and lands on
# the blocking leg's CSV. When 429 meant "64 arrivals retained", the retries
# below never succeeded. Chunks are half the queue bound, so a chunk fits
# whole once the consumer has caught up, however its lines hash.
start_rtecd "$rtecd_flags -shard-overflow error -shard-queue 64
    -checkpoint $tmp/strict.ckpt -journal $tmp/strict.jsonl"
split -l 32 "$tmp/shuffled.ndjson" "$tmp/chunk-"
for chunk in "$tmp"/chunk-*; do
    code=$(curl -s -o "$tmp/ingest-resp.txt" -w '%{http_code}' --retry 30 --retry-max-time 120 \
        --data-binary @"$chunk" "http://$rtecd_addr/ingest")
    if [ "$code" != 200 ]; then
        echo "rtecd gate: strict-admission POST of $chunk still answered $code after retries:" >&2
        cat "$tmp/ingest-resp.txt" >&2
        kill "$rtecd_pid" 2>/dev/null || true
        wait "$rtecd_pid" 2>/dev/null || true
        exit 1
    fi
done
curl -s -X POST "http://$rtecd_addr/finish" > "$tmp/rtecd-strict.csv"
kill -TERM "$rtecd_pid"
wait "$rtecd_pid" || true
if ! cmp -s "$tmp/rtecd.csv" "$tmp/rtecd-strict.csv"; then
    echo "rtecd gate: -shard-overflow error CSV diverged from the blocking leg's:" >&2
    diff "$tmp/rtecd.csv" "$tmp/rtecd-strict.csv" >&2 || true
    exit 1
fi

echo "== benchmark smoke (benchmark/ must drive rtecd end to end)"
# A 2-second run of the repository's one benchmark harness: a real rtecd over
# loopback, closed-loop replay. Exits non-zero on any failed request or a
# recognition CSV that differs from the batch oracle.
sh benchmark/run.sh --workload daemon_replay --seed 7 --seconds 2 --trace 0 > /dev/null

echo "CI OK"
