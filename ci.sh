#!/bin/sh
# CI gate: formatting, vet, build, the full test suite (which holds the
# byte-identity contracts: cmd/rtec and internal/rtec contract_test.go,
# DESIGN.md §9), race-enabled tests for the concurrency-sensitive packages,
# the kb index, delta, NDJSON recogniser, reorder and shard fault-schedule
# fuzzes, and the two gates that need real processes: the rtecd daemon's
# answer against the batch oracle, its drain and resume (tumbling and at
# slide 300), and the benchmark smoke.
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

echo "== vet-rtec (no wall clock or unseeded rand outside internal/clock; no metric name without a reader; no documented flag a binary lacks; no documented metric the code lacks; no CHANGES.md line over 300 characters; only rtecd links net/http, expvar or pprof, and rtectop net/http)"
"$bin/vet-rtec" .

echo "== go test"
go test ./...

echo "== go test -race (concurrency-sensitive packages)"
# internal/rtec's two contract tests evaluate every window on one goroutine,
# so the detector has little to watch for their ≈ 100 s (2-core x86-64); runs
# sharing one engine on concurrent goroutines, and the checkpoint writes
# behind them, are raced by concurrency_test.go and checkpoint_test.go.
# cmd/rtec runs one goroutine over one engine, so it is not
# listed: the supervised runs are internal/shard's and internal/serve's tests
# (the chaos contract on the maritime input included).
# cmd/experiments' TestRunAllWorkersIdentical drives the one pool that runs
# Figures 2b, 2c and the refine chains at -workers 8.
go test -race -skip '^TestContract(DeltaEqualsFull|DefectiveDefinition)$' \
    ./cmd/experiments ./internal/rtec/... ./internal/fleet/... ./internal/stream/... ./internal/telemetry/... \
    ./internal/eval/... ./internal/similarity/... ./internal/shard/... ./internal/serve/... \
    ./internal/llm/... ./internal/prompt/... ./internal/correct/...

echo "== shard hand-off stress (admission, restart and degradation wake-ups, -race -count=20)"
# Every wait in the supervised runtime (a producer on a full backlog, a drain
# on the engine's done) is woken only by a Broadcast from the consumer or the
# run loop; nothing polls, so a missed signal is a hang. Repeat the tests that
# exercise each hand-off under the race detector.
go test -race -count=20 -run 'TestShard(PanicUnblocksProducer|DegradationAndHealth|OverflowOnDegraded)|TestAdmission' ./internal/shard

# fuzz runs one fuzz target for $3 and fails unless the engine reported
# executions. Before the first mutated input the engine runs the seed corpus
# once as its coverage baseline; an input that runs longer than its 10 s hang
# limit, or a baseline longer than the budget, ends the run there, and go
# test still prints PASS. Only the "execs:" status line shows that fuzzing
# started.
# A status line reading "(0/sec)" with execs frozen for several seconds is
# not a hang. The engine sends each input that widens coverage back to a
# worker to minimise, and counts that worker's execs only when the call
# returns (GODEBUG=fuzzdebug=1 logs "minimizing took: 6.26s" for one reorder
# input); with both workers minimising, the count stands still, and a call
# cut off by -fuzztime is never counted.
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

echo "== rtecd gate (exact against the batch oracle, daemon drain, resume byte-identity, tumbling and -slide 300, -shards refusal)"
# Serve the maritime event description through the rtecd daemon. The
# uninterrupted run POSTs the whole shuffled NDJSON stream, then /finish; its
# CSV must be the batch rtec's over the in-order CSV stream, byte for byte
# (the relational fluents tugging and pilotBoarding included). The run under
# test POSTs half the stream, is SIGTERMed mid-run (graceful drain into a
# suspend checkpoint), restarts with -resume, gets the full stream
# re-POSTed and finishes. Its CSV and engine journal must be byte-identical
# to the uninterrupted run's (same flags, same arrival order). The daemon
# binary is race-instrumented.
"$bin/aisgen" -vessels 14 -seed 7 -background "$tmp/bg.rtec" -gold "$tmp/gold.rtec" > "$tmp/events.csv"
cat "$tmp/gold.rtec" "$tmp/bg.rtec" > "$tmp/ed.rtec"
"$bin/disorder" -in "$tmp/events.csv" -out "$tmp/shuffled.ndjson" -out-format ndjson \
    -max-delay 900 -seed 13 -dup-every 50 2>/dev/null
first=$(awk -F, 'NR==1{m=$1} $1<m{m=$1} END{print m}' "$tmp/events.csv")
last=$(awk -F, 'NR==1{M=$1} $1>M{M=$1} END{print M}' "$tmp/events.csv")
rtecd_flags="-ed $tmp/ed.rtec -listen 127.0.0.1:0 -window 3600 -max-delay 900
    -start $first -end $((last + 1)) -shards 1
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
"$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/events.csv" -window 3600 -csv > "$tmp/batch.csv"
if ! cmp -s "$tmp/batch.csv" "$tmp/rtecd-clean.csv"; then
    echo "rtecd gate: daemon CSV differs from the batch rtec oracle:" >&2
    diff "$tmp/batch.csv" "$tmp/rtecd-clean.csv" >&2 || true
    exit 1
fi
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
if ! cmp -s "$tmp/clean.jsonl.s0" "$tmp/d.jsonl.s0"; then
    echo "rtecd gate: engine journal diverged across drain-and-resume" >&2
    exit 1
fi
# The sliding leg: the same drill at -slide 300, where the revision cursor
# folds twelve windows per window length into the run's amalgamation. The
# uninterrupted CSV must be the batch rtec's at -slide 300; across the drain
# and -resume, the CSV, the engine journal and the last checkpoint generation
# must be the uninterrupted run's, byte for byte.
slide_flags="$rtecd_flags -slide 300"
start_rtecd "$slide_flags -checkpoint $tmp/sclean.ckpt -journal $tmp/sclean.jsonl"
post_ok "$tmp/shuffled.ndjson"
curl -s -X POST "http://$rtecd_addr/finish" > "$tmp/rtecd-sclean.csv"
kill -TERM "$rtecd_pid"
wait "$rtecd_pid" || true
"$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/events.csv" -window 3600 -slide 300 -csv > "$tmp/sbatch.csv"
if ! cmp -s "$tmp/sbatch.csv" "$tmp/rtecd-sclean.csv"; then
    echo "rtecd gate: daemon CSV at -slide 300 differs from the batch rtec oracle:" >&2
    diff "$tmp/sbatch.csv" "$tmp/rtecd-sclean.csv" >&2 || true
    exit 1
fi
start_rtecd "$slide_flags -checkpoint $tmp/s.ckpt -journal $tmp/s.jsonl"
post_ok "$tmp/firsthalf.ndjson"
kill -TERM "$rtecd_pid"
if ! wait "$rtecd_pid" || ! grep -q '^rtecd: drained (suspended)$' "$tmp/rtecd-err.txt"; then
    echo "rtecd gate: SIGTERM drain at -slide 300 did not park into the suspended state:" >&2
    cat "$tmp/rtecd-err.txt" >&2
    exit 1
fi
start_rtecd "$slide_flags -checkpoint $tmp/s.ckpt -journal $tmp/s.jsonl -resume"
post_ok "$tmp/shuffled.ndjson"
curl -s -X POST "http://$rtecd_addr/finish" > "$tmp/rtecd-s.csv"
kill -TERM "$rtecd_pid"
wait "$rtecd_pid" || true
for f in rtecd-s.csv:rtecd-sclean.csv s.jsonl.s0:sclean.jsonl.s0 s.ckpt.s0:sclean.ckpt.s0; do
    if ! cmp -s "$tmp/${f%%:*}" "$tmp/${f#*:}"; then
        echo "rtecd gate: ${f%%:*} diverged from the uninterrupted run's ${f#*:} across drain-and-resume at -slide 300" >&2
        exit 1
    fi
done
# -shards is kept only for the benchmark, which passes 1: any other value
# must fail the start before the port is bound or a journal is created. A
# daemon that started would wait for a signal; timeout ends it, and the
# listening line fails the leg.
if timeout 30 "$bin/rtecd-race" -ed "$tmp/ed.rtec" -listen 127.0.0.1:0 -window 3600 \
    -start "$first" -end $((last + 1)) -shards 4 \
    -checkpoint "$tmp/refused.ckpt" -journal "$tmp/refused.jsonl" 2> "$tmp/rtecd-err.txt"; then
    echo "rtecd gate: -shards 4 started" >&2
    exit 1
fi
if grep -q 'listening on' "$tmp/rtecd-err.txt" || [ -e "$tmp/refused.jsonl" ]; then
    echo "rtecd gate: -shards 4 was refused only after binding or opening its journal:" >&2
    cat "$tmp/rtecd-err.txt" >&2
    exit 1
fi

echo "== benchmark smoke (benchmark/ must drive rtecd end to end)"
# A 2-second run of the repository's one benchmark harness: a real rtecd over
# loopback, closed-loop replay. Exits non-zero on any failed request or a
# recognition CSV that differs from the batch oracle.
sh benchmark/run.sh --workload daemon_replay --seed 7 --seconds 2 --trace 0 > /dev/null

echo "CI OK"
