#!/bin/sh
# CI gate: formatting, vet, build, the full test suite (which holds the
# byte-identity contracts: cmd/rtec and internal/rtec contract_test.go,
# DESIGN.md §9), race-enabled tests for the concurrency-sensitive packages,
# the kb index, delta, NDJSON recogniser, reorder and shard fault-schedule
# fuzzes, and the two gates that need real processes: the rtecd daemon's
# drain and resume, and the benchmark smoke.
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
go build -o "$bin/" ./cmd/aisgen ./cmd/disorder ./cmd/rtectop ./cmd/vet-rtec
go build -race -o "$bin/rtecd-race" ./cmd/rtecd

echo "== vet-rtec (no wall clock or unseeded rand outside internal/clock; no metric name without a reader; no documented flag a binary lacks; no documented metric the code lacks; no CHANGES.md line over 300 characters)"
"$bin/vet-rtec" .

echo "== go test"
go test ./...

echo "== go test -race (concurrency-sensitive packages)"
# internal/rtec's two contract tests run at Workers 1 bar one row, so the
# detector has little to watch for their ≈ 100 s (2-core x86-64); the pool's
# sliding and streaming paths are raced by concurrency_test.go and
# delta_test.go. cmd/rtec runs one goroutine over one engine, so it is not
# listed: the sharded runs are internal/shard's and internal/serve's tests
# (the shard-chaos contract on the maritime input included).
# cmd/experiments' TestRunAllWorkersIdentical drives the one pool that runs
# Figures 2b, 2c and the refine chains at -workers 8.
go test -race -skip '^TestContract(DeltaEqualsFull|DefectiveDefinition)$' \
    ./cmd/experiments ./internal/rtec/... ./internal/fleet/... ./internal/stream/... ./internal/telemetry/... \
    ./internal/eval/... ./internal/similarity/... ./internal/shard/... ./internal/serve/... \
    ./internal/llm/... ./internal/prompt/... ./internal/correct/...

echo "== shard hand-off stress (admission, restart and degradation wake-ups, -race -count=20)"
# Every wait in the shard runtime (a producer on a full backlog, a drain on
# a shard's done) is woken only by a Broadcast from the consumer or the run
# loop; nothing polls, so a missed signal is a hang. Repeat the tests that
# exercise each hand-off under the race detector.
go test -race -count=20 -run 'TestShard(PanicUnblocksProducer|DegradationAndHealth|OverflowOnDegraded)|TestAdmission' ./internal/shard

# fuzz runs one fuzz target for $3 and fails unless the engine reported
# executions. Before the first mutated input the engine runs the seed corpus
# once as its coverage baseline; an input that runs longer than its 10 s hang
# limit, or a baseline longer than the budget, ends the run there, and go
# test still prints PASS. Only the "execs:" status line shows that fuzzing
# started.
fuzz() {
    # $1: package, $2: fuzz target, $3: -fuzztime.
    if ! go test "$1" -run '^$' -fuzz "^$2\$" -fuzztime "$3" > "$tmp/fuzz.txt" 2>&1; then
        cat "$tmp/fuzz.txt" >&2
        exit 1
    fi
    cat "$tmp/fuzz.txt"
    if ! grep -q 'execs: ' "$tmp/fuzz.txt"; then
        echo "$2: no execs: line, so no mutated input ran" >&2
        exit 1
    fi
}
# The engine adds every input it finds interesting to a cache it replays as
# part of the baseline on the next run, so the baseline grows with each run
# on one machine. Each run starts from the committed seeds.
go clean -fuzzcache

echo "== kb index fuzz (Match and a compiled Lookup answer exactly as Unify over every fact)"
fuzz ./internal/kb FuzzMatchEqualsScan 10s

# The delta target's seed baseline alone takes about 6 s instrumented on two
# cores (its four maritime seeds about a second each), hence the longer budget.
echo "== delta fuzz (delta == full re-evaluation, retained event indexes == a rebuild, and a stream's final recognition == the batch Run's)"
fuzz ./internal/rtec FuzzDeltaEquivalence 30s

echo "== NDJSON recogniser fuzz (every canonical line it accepts, encoding/json decodes to the same event)"
fuzz ./internal/stream FuzzNDJSONCanonicalLine 10s

echo "== reorder fuzz (what the buffer releases == Stream.Sort + Dedup over the admitted arrivals)"
fuzz ./internal/stream FuzzReorderMatchesSort 10s

echo "== shard fault-schedule fuzz (a run that survives any schedule of observer panics and torn checkpoints == the fault-free run, byte for byte)"
fuzz ./internal/shard FuzzShardFaultSchedule 10s

echo "== rtecd gate (daemon drain, resume byte-identity)"
# Serve the maritime event description through the rtecd daemon, sharded
# four ways. The reference is one uninterrupted run: POST the whole NDJSON
# stream, then /finish. The run under test POSTs half the stream, is
# SIGTERMed mid-run (graceful drain into suspend checkpoints), restarts with
# -resume, gets the full stream re-POSTed and finishes. Its CSV and every
# per-shard journal must be byte-identical to the reference's (same flags,
# same arrival order). The daemon binary is race-instrumented.
"$bin/aisgen" -vessels 14 -seed 7 -background "$tmp/bg.rtec" -gold "$tmp/gold.rtec" > "$tmp/events.csv"
cat "$tmp/gold.rtec" "$tmp/bg.rtec" > "$tmp/ed.rtec"
"$bin/disorder" -in "$tmp/events.csv" -out "$tmp/shuffled.ndjson" -out-format ndjson \
    -max-delay 900 -seed 13 -dup-every 50 2>/dev/null
first=$(awk -F, 'NR==1{m=$1} $1<m{m=$1} END{print m}' "$tmp/events.csv")
last=$(awk -F, 'NR==1{M=$1} $1>M{M=$1} END{print M}' "$tmp/events.csv")
rtecd_flags="-ed $tmp/ed.rtec -listen 127.0.0.1:0 -window 3600 -max-delay 900
    -start $first -end $((last + 1)) -shards 4
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
start_rtecd "$rtecd_flags -checkpoint $tmp/clean.ckpt -journal $tmp/clean.jsonl"
post_ok "$tmp/shuffled.ndjson"
curl -s -X POST "http://$rtecd_addr/finish" > "$tmp/rtecd-clean.csv"
kill -TERM "$rtecd_pid"
wait "$rtecd_pid" || true
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
if ! cmp -s "$tmp/rtecd-clean.csv" "$tmp/rtecd.csv"; then
    echo "rtecd gate: drained-and-resumed daemon CSV diverged from the uninterrupted run:" >&2
    diff "$tmp/rtecd-clean.csv" "$tmp/rtecd.csv" >&2 || true
    exit 1
fi
for k in 0 1 2 3; do
    if ! cmp -s "$tmp/clean.jsonl.s$k" "$tmp/d.jsonl.s$k"; then
        echo "rtecd gate: shard $k journal diverged across drain-and-resume" >&2
        exit 1
    fi
done

echo "== benchmark smoke (benchmark/ must drive rtecd end to end)"
# A 2-second run of the repository's one benchmark harness: a real rtecd over
# loopback, closed-loop replay. Exits non-zero on any failed request or a
# recognition CSV that differs from the batch oracle.
sh benchmark/run.sh --workload daemon_replay --seed 7 --seconds 2 --trace 0 > /dev/null

echo "CI OK"
