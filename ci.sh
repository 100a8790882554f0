#!/bin/sh
# CI gate: formatting, vet, build, the full test suite, and race-enabled
# tests for the concurrency-sensitive packages (the RTEC engine, the fleet
# scenario generator and the event stream plumbing).
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
# Every gate below runs these binaries: each command built once, cmd/rtec and
# cmd/rtecd a second time under the race detector.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/bin"
mkdir "$bin"
go build -o "$bin/" ./cmd/...
go build -race -o "$bin/rtec-race" ./cmd/rtec
go build -race -o "$bin/rtecd-race" ./cmd/rtecd

echo "== vet-rtec (no wall clock or unseeded rand outside internal/clock; no metric name without a reader)"
"$bin/vet-rtec" .

echo "== go test"
go test ./...

echo "== go test -race (concurrency-sensitive packages)"
go test -race ./internal/rtec/... ./internal/fleet/... ./internal/stream/... ./internal/telemetry/... \
    ./internal/eval/... ./internal/similarity/... ./internal/shard/... ./internal/serve/... \
    ./internal/llm/... ./internal/prompt/... ./internal/correct/...

echo "== kb index fuzz (Match and a compiled Lookup answer exactly as Unify over every fact)"
go test ./internal/kb -run '^$' -fuzz '^FuzzMatchEqualsScan$' -fuzztime 10s

echo "== rteclint"
# The worked example must produce diagnostics (exit 1 under -fail-on error).
if "$bin/rteclint" -domain maritime examples/lint/withinarea_bad.prolog >/dev/null; then
    echo "rteclint: expected diagnostics for examples/lint/withinarea_bad.prolog" >&2
    exit 1
fi
# The embedded gold standards must lint diagnostic-free at the strictest
# threshold.
"$bin/rteclint" -gold -domain maritime -max-severity info > /dev/null
"$bin/rteclint" -gold -domain fleet -max-severity info > /dev/null

echo "== autofix golden gate (rteclint -fix reaches the committed fixpoints)"
# The corrupted examples must fail as-is, and -fix must repair each one to a
# lint-clean fixpoint that is byte-identical to the committed golden output.
for domain in maritime fleet; do
    corrupted="examples/lint/corrupted_$domain.prolog"
    if "$bin/rteclint" -domain "$domain" "$corrupted" >/dev/null; then
        echo "autofix gate: expected diagnostics for $corrupted" >&2
        exit 1
    fi
    "$bin/rteclint" -fix -max-severity info -domain "$domain" "$corrupted" > "$tmp/fixed.prolog" 2>/dev/null
    if ! cmp -s "$corrupted.golden" "$tmp/fixed.prolog"; then
        echo "autofix gate: -fix output deviates from $corrupted.golden:" >&2
        diff "$corrupted.golden" "$tmp/fixed.prolog" >&2 || true
        exit 1
    fi
done

echo "== telemetry smoke (instrumented engine run on the maritime example)"
# Compose a runnable maritime event description (gold standard + scenario
# background knowledge) and stream, run the engine with tracing and metrics
# enabled, and fail on a malformed trace or an empty registry dump.
"$bin/aisgen" -vessels 14 -seed 7 -background "$tmp/bg.rtec" -gold "$tmp/gold.rtec" > "$tmp/events.csv"
cat "$tmp/gold.rtec" "$tmp/bg.rtec" > "$tmp/ed.rtec"
"$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/events.csv" -window 3600 \
    -trace "$tmp/trace.json" -metrics > "$tmp/out.txt" 2> "$tmp/metrics.txt"
"$bin/tracecheck" -require rtec.run,rtec.window,rtec.fluent "$tmp/trace.json"
if ! grep -q '^counter rtec.windows.evaluated_total' "$tmp/metrics.txt"; then
    echo "telemetry smoke: metrics dump is missing engine counters:" >&2
    cat "$tmp/metrics.txt" >&2
    exit 1
fi

echo "== simeval smoke (the similarity CLI on the gold standard the telemetry smoke wrote)"
# The gold standard against itself is at distance 0, headline and rule by
# rule; against a file with no temporal rule, -rules has nothing to match and
# must say so rather than print a distance outside [0, 1].
"$bin/simeval" -rules "$tmp/gold.rtec" "$tmp/gold.rtec" > "$tmp/simeval.txt"
if ! grep -qx 'distance   = 0.0000' "$tmp/simeval.txt" ||
    ! grep -q 'closest gold rule' "$tmp/simeval.txt" ||
    grep 'closest gold rule' "$tmp/simeval.txt" | grep -qv '(distance 0\.0000)$'; then
    echo "simeval smoke: the gold standard is not at distance 0 from itself:" >&2
    cat "$tmp/simeval.txt" >&2
    exit 1
fi
printf 'areaType(a1, fishing).\n' > "$tmp/facts.rtec"
printf 'initiatedAt(f(X)=true, T) :- happensAt(e(X), T).\n' > "$tmp/one.rtec"
"$bin/simeval" -rules "$tmp/one.rtec" "$tmp/facts.rtec" > "$tmp/simeval.txt"
if ! grep -q '^distance' "$tmp/simeval.txt" ||
    ! sed -n 's/.*distance[ =]*\(-\{0,1\}[0-9.]*\).*/\1/p' "$tmp/simeval.txt" |
        awk '$1 < 0 || $1 > 1 { bad = 1 } END { exit bad }'; then
    echo "simeval smoke: a distance outside [0, 1] against a facts-only file:" >&2
    cat "$tmp/simeval.txt" >&2
    exit 1
fi

echo "== shared evaluation gate (the paper job's recognitions share one evaluation table)"
"$bin/experiments" -fig all -csv -vessels 14 -seed 7 -workers 1 -metrics > /dev/null 2> "$tmp/all-metrics.txt"
# The pipeline's event descriptions are near-copies of each other over one
# stream: run one job at a time (so no two jobs race to publish a fluent and
# the counts repeat), most fluent × window results must be installed from the
# testbed's shared table rather than evaluated (DESIGN.md §13).
hits=$(sed -n 's/^counter rtec\.shared\.hits_total //p' "$tmp/all-metrics.txt")
misses=$(sed -n 's/^counter rtec\.shared\.misses_total //p' "$tmp/all-metrics.txt")
if [ "${misses:-0}" -le 0 ] || [ "${hits:-0}" -le "$misses" ]; then
    echo "shared evaluation gate: not sharing: rtec.shared.hits=${hits:-none} rtec.shared.misses=${misses:-none}, want hits > misses > 0" >&2
    grep '^counter rtec\.shared' "$tmp/all-metrics.txt" >&2 || true
    exit 1
fi

echo "== streaming robustness gate (disorder replay + kill-and-resume)"
# Shuffle the maritime stream within a delay bound (with injected
# duplicates), replay it through the out-of-order streaming path, and
# require the final recognition CSV to be byte-identical to the in-order
# batch run. The streaming run also exposes its disorder counters in the
# metrics dump.
"$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/events.csv" -window 3600 -csv > "$tmp/baseline.csv"
"$bin/disorder" -in "$tmp/events.csv" -out "$tmp/shuffled.csv" -max-delay 900 -seed 13 -dup-every 50 2>/dev/null
"$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -csv \
    -max-delay 900 -journal "$tmp/streamed.jsonl" -checkpoint "$tmp/streamed.ckpt" \
    -metrics > "$tmp/streamed.csv" 2> "$tmp/stream-metrics.txt"
if ! cmp -s "$tmp/baseline.csv" "$tmp/streamed.csv"; then
    echo "streaming gate: delayed+shuffled replay diverged from the in-order baseline:" >&2
    diff "$tmp/baseline.csv" "$tmp/streamed.csv" >&2 || true
    exit 1
fi
# The same command from scratch: on tumbling windows every use of the delta
# layer is a revision (installed fluents, the inline dirty time-point), and
# what it journals and checkpoints must be what full re-evaluation does, byte
# for byte.
"$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -csv \
    -max-delay 900 -journal "$tmp/streamed-full.jsonl" -checkpoint "$tmp/streamed-full.ckpt" \
    -no-delta > "$tmp/streamed-full.csv" 2> /dev/null
if ! cmp -s "$tmp/streamed.csv" "$tmp/streamed-full.csv"; then
    echo "streaming gate: revised recognition diverged from full re-evaluation:" >&2
    diff "$tmp/streamed.csv" "$tmp/streamed-full.csv" >&2 || true
    exit 1
fi
if ! cmp -s "$tmp/streamed.jsonl" "$tmp/streamed-full.jsonl"; then
    echo "streaming gate: the revisions' audit journal diverged from full re-evaluation:" >&2
    diff "$tmp/streamed.jsonl" "$tmp/streamed-full.jsonl" >&2 || true
    exit 1
fi
if ! cmp -s "$tmp/streamed.ckpt" "$tmp/streamed-full.ckpt"; then
    echo "streaming gate: final checkpoint envelope differs between delta and full modes" >&2
    exit 1
fi
if ! grep -q '^counter rtec.duplicate_events_total [1-9]' "$tmp/stream-metrics.txt"; then
    echo "streaming gate: metrics dump is missing a nonzero rtec.duplicate_events counter:" >&2
    grep '^counter rtec\.' "$tmp/stream-metrics.txt" >&2 || cat "$tmp/stream-metrics.txt" >&2
    exit 1
fi
# Tumbling windows share no events, so every replayed anchor event of this
# run is a revision's: late arrivals must replay the revised window's own
# carried state and re-derive one time-point, not the window (a count, so
# host-independent; from-scratch revisions give reused ≈ 0).
reused=$(sed -n 's/^counter rtec\.delta\.reused_total //p' "$tmp/stream-metrics.txt")
dirty=$(sed -n 's/^counter rtec\.delta\.dirty_total //p' "$tmp/stream-metrics.txt")
if [ "${reused:-0}" -le "${dirty:-0}" ]; then
    echo "streaming gate: rtec.delta.reused_total (${reused:-0}) is not above rtec.delta.dirty_total (${dirty:-0}): revisions re-derive whole windows" >&2
    grep '^counter rtec\.delta' "$tmp/stream-metrics.txt" >&2 || cat "$tmp/stream-metrics.txt" >&2
    exit 1
fi
# A revision evaluates only the fluents the late event reached: the others
# are answered from the window's own carried lists (again a count).
if ! grep -q '^counter rtec.delta.installed_total [1-9]' "$tmp/stream-metrics.txt"; then
    echo "streaming gate: rtec.delta.installed_total is not above 0: revisions evaluate every fluent" >&2
    grep '^counter rtec\.delta' "$tmp/stream-metrics.txt" >&2 || cat "$tmp/stream-metrics.txt" >&2
    exit 1
fi
# Kill-and-resume smoke: crash the streaming run mid-way, then resume from
# the crash-safe checkpoint; the resumed output must be byte-identical to
# the uninterrupted run, and the restore must show up in the metrics.
if "$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -csv \
    -max-delay 900 -checkpoint "$tmp/run.ckpt" -crash-after 3 > /dev/null 2>&1; then
    echo "streaming gate: -crash-after 3 did not abort the run" >&2
    exit 1
fi
if [ ! -f "$tmp/run.ckpt" ]; then
    echo "streaming gate: crashed run left no checkpoint" >&2
    exit 1
fi
"$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -csv \
    -max-delay 900 -checkpoint "$tmp/run.ckpt" -resume -metrics > "$tmp/resumed.csv" 2> "$tmp/resume-metrics.txt"
if ! cmp -s "$tmp/baseline.csv" "$tmp/resumed.csv"; then
    echo "streaming gate: kill-and-resume output diverged from the baseline:" >&2
    diff "$tmp/baseline.csv" "$tmp/resumed.csv" >&2 || true
    exit 1
fi
if ! grep -q '^counter rtec.checkpoint.restores_total 1' "$tmp/resume-metrics.txt"; then
    echo "streaming gate: metrics dump is missing the rtec.checkpoint.restores counter:" >&2
    grep '^counter rtec\.checkpoint' "$tmp/resume-metrics.txt" >&2 || cat "$tmp/resume-metrics.txt" >&2
    exit 1
fi

echo "== parallel recognition gate (worker sharding must not change output)"
# Re-run the batch recognition with an explicit worker pool; the CSV must be
# byte-identical to the sequential baseline produced above.
"$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/events.csv" -window 3600 -csv -workers 8 > "$tmp/parallel.csv"
if ! cmp -s "$tmp/baseline.csv" "$tmp/parallel.csv"; then
    echo "parallel gate: -workers 8 recognition diverged from the sequential baseline:" >&2
    diff "$tmp/baseline.csv" "$tmp/parallel.csv" >&2 || true
    exit 1
fi

echo "== delta gate (incremental sliding windows must match full re-evaluation byte-for-byte)"
# Slide-heavy streaming run (ω=3600, slide=900: 4x overlap) over the
# disordered stream, race-instrumented. The incremental delta layer must
# produce the same CSV, the same audit journal bytes and the same final
# checkpoint envelope as the -no-delta full re-evaluation oracle, while
# actually reusing carried state (nonzero rtec.delta.reused counter). A kill
# mid-slide plus -resume (every slot restarts cold, then re-warms) must still
# converge to the identical CSV.
"$bin/rtec-race" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -slide 900 -csv \
    -max-delay 900 -journal "$tmp/delta.jsonl" -checkpoint "$tmp/delta.ckpt" -metrics \
    > "$tmp/delta.csv" 2> "$tmp/delta-metrics.txt"
"$bin/rtec-race" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -slide 900 -csv \
    -max-delay 900 -journal "$tmp/full.jsonl" -checkpoint "$tmp/full.ckpt" -no-delta \
    > "$tmp/full.csv" 2> /dev/null
if ! cmp -s "$tmp/delta.csv" "$tmp/full.csv"; then
    echo "delta gate: incremental recognition diverged from full re-evaluation:" >&2
    diff "$tmp/delta.csv" "$tmp/full.csv" >&2 || true
    exit 1
fi
if ! cmp -s "$tmp/delta.jsonl" "$tmp/full.jsonl"; then
    echo "delta gate: incremental audit journal diverged from full re-evaluation:" >&2
    diff "$tmp/delta.jsonl" "$tmp/full.jsonl" >&2 || true
    exit 1
fi
if ! cmp -s "$tmp/delta.ckpt" "$tmp/full.ckpt"; then
    echo "delta gate: final checkpoint envelope differs between delta and full modes" >&2
    exit 1
fi
if ! grep -q '^counter rtec.delta.reused_total [1-9]' "$tmp/delta-metrics.txt"; then
    echo "delta gate: metrics dump is missing a nonzero rtec.delta.reused counter:" >&2
    grep '^counter rtec\.delta' "$tmp/delta-metrics.txt" >&2 || cat "$tmp/delta-metrics.txt" >&2
    exit 1
fi
# A worker pool must not change the incremental output either.
"$bin/rtec-race" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -slide 900 -csv \
    -max-delay 900 -workers 8 > "$tmp/delta-par.csv" 2> /dev/null
if ! cmp -s "$tmp/delta.csv" "$tmp/delta-par.csv"; then
    echo "delta gate: -workers 8 incremental recognition diverged:" >&2
    diff "$tmp/delta.csv" "$tmp/delta-par.csv" >&2 || true
    exit 1
fi
# Kill mid-slide, resume: the resumed run must still match byte-for-byte.
if "$bin/rtec-race" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -slide 900 -csv \
    -max-delay 900 -checkpoint "$tmp/delta-crash.ckpt" -crash-after 3 > /dev/null 2>&1; then
    echo "delta gate: -crash-after 3 did not abort the slide-heavy run" >&2
    exit 1
fi
"$bin/rtec-race" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -slide 900 -csv \
    -max-delay 900 -checkpoint "$tmp/delta-crash.ckpt" -resume \
    > "$tmp/delta-resumed.csv" 2> /dev/null
if ! cmp -s "$tmp/delta.csv" "$tmp/delta-resumed.csv"; then
    echo "delta gate: kill-and-resume mid-slide diverged from the uninterrupted run:" >&2
    diff "$tmp/delta.csv" "$tmp/delta-resumed.csv" >&2 || true
    exit 1
fi
# The resumed run re-encodes its frozen windows from the restored slots: the
# last two checkpoint generations must be the uninterrupted run's.
for gen in "" .prev; do
    if ! cmp -s "$tmp/delta.ckpt$gen" "$tmp/delta-crash.ckpt$gen"; then
        echo "delta gate: checkpoint generation '$gen' of the resumed run differs from the uninterrupted run's" >&2
        exit 1
    fi
done

echo "== defective-definition gate (runtime warnings must come through streaming, delta replay and revisions unchanged)"
# Every gate above runs the gold event description, which raises no runtime
# warning, so none of them exercises the delta layer's cached warn acts or
# the evaluator's memory of the warnings it rendered. This one runs the
# paper's "missing condition" error: gold movingSpeed with a threshold lookup
# dropped, whose comparison then warns at every velocity report. Batch,
# streaming over the shuffled stream and streaming from scratch (-no-delta),
# all on sliding windows, must recognise the same intervals and log the same
# warnings — the two streaming runs line for line (every revision logs
# again), the batch run the same set — and rteclint must name the unbound
# operand statically: both diagnoses of one defect.
cat examples/lint/doomed_threshold.prolog "$tmp/bg.rtec" > "$tmp/doomed.rtec"
warn_lines() {
    # The WARN records of a run's stderr without their timestamps, sorted.
    sed -n 's/^time=[^ ]* \(level=WARN .*\)$/\1/p' "$1" | sort
}
"$bin/rtec" -ed "$tmp/doomed.rtec" -stream "$tmp/events.csv" -window 3600 -slide 900 -csv \
    > "$tmp/doomed-batch.csv" 2> "$tmp/doomed-batch.err"
"$bin/rtec-race" -ed "$tmp/doomed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -slide 900 -csv \
    -max-delay 900 > "$tmp/doomed-stream.csv" 2> "$tmp/doomed-stream.err"
"$bin/rtec-race" -ed "$tmp/doomed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -slide 900 -csv \
    -max-delay 900 -no-delta > "$tmp/doomed-full.csv" 2> "$tmp/doomed-full.err"
for run in stream full; do
    if ! cmp -s "$tmp/doomed-batch.csv" "$tmp/doomed-$run.csv"; then
        echo "defective-definition gate: the $run run's recognition diverged from the batch run's:" >&2
        diff "$tmp/doomed-batch.csv" "$tmp/doomed-$run.csv" >&2 || true
        exit 1
    fi
    warn_lines "$tmp/doomed-$run.err" > "$tmp/doomed-$run.warn"
done
warn_lines "$tmp/doomed-batch.err" > "$tmp/doomed-batch.warn"
if ! grep -q 'msg="condition Speed_r =< MovingMin_r: kb: =<: kb: MovingMin_r is not an arithmetic expression".* fluent=movingSpeed/1 window_start=' "$tmp/doomed-batch.warn"; then
    echo "defective-definition gate: the batch run did not warn about the doomed comparison:" >&2
    cat "$tmp/doomed-batch.err" >&2
    exit 1
fi
if ! cmp -s "$tmp/doomed-stream.warn" "$tmp/doomed-full.warn"; then
    echo "defective-definition gate: incremental and from-scratch streaming log different warnings:" >&2
    diff "$tmp/doomed-stream.warn" "$tmp/doomed-full.warn" >&2 || true
    exit 1
fi
uniq "$tmp/doomed-stream.warn" > "$tmp/doomed-stream.set"
if ! cmp -s "$tmp/doomed-batch.warn" "$tmp/doomed-stream.set"; then
    echo "defective-definition gate: the streaming run warns about other (message, fluent, window) triples than the batch run:" >&2
    diff "$tmp/doomed-batch.warn" "$tmp/doomed-stream.set" >&2 || true
    exit 1
fi
if "$bin/rteclint" -domain maritime examples/lint/doomed_threshold.prolog > "$tmp/doomed-lint.txt"; then
    echo "defective-definition gate: rteclint found nothing in examples/lint/doomed_threshold.prolog" >&2
    exit 1
fi
if ! grep -q "R007: variable 'MovingMin' appears only in a comparison and is never bound" "$tmp/doomed-lint.txt"; then
    echo "defective-definition gate: rteclint did not report the unbound operand (R007):" >&2
    cat "$tmp/doomed-lint.txt" >&2
    exit 1
fi

echo "== shard chaos gate (supervised shards must recover byte-identically)"
# Run the supervised shard runtime over the shuffled stream twice with the
# same seed: once fault-free and once with a deterministic fault schedule
# (a torn checkpoint at window 2 plus a panic at window 3 in every shard).
# The faulted run must restart from checkpoints and still produce the same
# recognition CSV and the same per-shard journal bytes as the fault-free
# run, with a nonzero restart counter. The binary is race-instrumented so
# the supervisor, watchdog and queue paths run under the race detector.
# Note: both sides are sharded — entity-hash partitioning is only exact for
# entity-local fluents, so the sharded output is compared against itself,
# not against the unsharded baseline.
"$bin/rtec-race" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -csv \
    -max-delay 900 -shards 4 -shard-seed 7 \
    -checkpoint "$tmp/clean.ckpt" -journal "$tmp/clean.jsonl" \
    > "$tmp/sharded-clean.csv" 2> /dev/null
"$bin/rtec-race" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -csv \
    -max-delay 900 -shards 4 -shard-seed 7 \
    -checkpoint "$tmp/chaos.ckpt" -journal "$tmp/chaos.jsonl" \
    -shard-faults 'ckpt-truncate@w2,panic@w3' -metrics \
    > "$tmp/sharded-chaos.csv" 2> "$tmp/shard-metrics.txt"
if ! cmp -s "$tmp/sharded-clean.csv" "$tmp/sharded-chaos.csv"; then
    echo "shard chaos gate: faulted run diverged from the fault-free run:" >&2
    diff "$tmp/sharded-clean.csv" "$tmp/sharded-chaos.csv" >&2 || true
    exit 1
fi
for k in 0 1 2 3; do
    if ! cmp -s "$tmp/clean.jsonl.s$k" "$tmp/chaos.jsonl.s$k"; then
        echo "shard chaos gate: shard $k journal diverged under faults" >&2
        exit 1
    fi
done
if ! grep -q '^counter rtec.shard.restarts_total [1-9]' "$tmp/shard-metrics.txt"; then
    echo "shard chaos gate: metrics dump is missing a nonzero rtec.shard.restarts counter:" >&2
    grep '^counter rtec\.shard' "$tmp/shard-metrics.txt" >&2 || cat "$tmp/shard-metrics.txt" >&2
    exit 1
fi
# The supervisor events in the main journal must drive rtectop's shard board.
"$bin/rtectop" -journal "$tmp/chaos.jsonl" -require 'rtec_shard_restarts_total>0' > /dev/null

echo "== live observability gate (journal, replay)"
# Run the streaming recognition with the audit journal on. The recognition
# must not change; the journal must pass tracecheck, replay in rtectop, and
# be byte-identical across same-seed runs. (The live /metrics scrape is
# asserted against rtecd, the one binary that serves it, in the gate below.)
"$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -csv \
    -max-delay 900 -journal "$tmp/run1.jsonl" > "$tmp/live.csv"
if ! cmp -s "$tmp/baseline.csv" "$tmp/live.csv"; then
    echo "live gate: recognition output changed under -journal:" >&2
    diff "$tmp/baseline.csv" "$tmp/live.csv" >&2 || true
    exit 1
fi
"$bin/tracecheck" -journal -require run_start,window,run_end "$tmp/run1.jsonl"
"$bin/rtectop" -journal "$tmp/run1.jsonl" \
    -require 'rtec_windows_evaluated_total>0,rtec_window_emit_lag>0' > "$tmp/rtectop-replay.txt"
# Same-seed determinism: a second run with identical flags must journal
# byte-identically.
"$bin/rtec" -ed "$tmp/ed.rtec" -stream "$tmp/shuffled.csv" -window 3600 -csv \
    -max-delay 900 -journal "$tmp/run2.jsonl" > /dev/null 2>&1
if ! cmp -s "$tmp/run1.jsonl" "$tmp/run2.jsonl"; then
    echo "live gate: same-seed journals differ:" >&2
    diff "$tmp/run1.jsonl" "$tmp/run2.jsonl" >&2 || true
    exit 1
fi

echo "== rtecd gate (daemon drain, resume byte-identity, strict admission, overload throttling)"
# Serve the same event description through the rtecd daemon: POST half the
# NDJSON stream, SIGTERM mid-run (graceful drain into suspend checkpoints),
# restart with -resume, re-POST the full stream and finish. The final CSV
# and every per-shard journal must be byte-identical to the one-shot
# sharded cmd/rtec run above (same geometry, same arrival order: disorder
# emits the same seeded permutation in either serialisation). The daemon
# binary is race-instrumented.
"$bin/disorder" -in "$tmp/events.csv" -out "$tmp/shuffled.ndjson" -out-format ndjson \
    -max-delay 900 -seed 13 -dup-every 50 2>/dev/null
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
# Overload: a one-slot ingest queue with a throttled pump must answer 429
# (with Retry-After) to a burst of concurrent POSTs, visibly in the metrics.
head -n 5 "$tmp/shuffled.ndjson" > "$tmp/burst.ndjson"
start_rtecd "-ed $tmp/ed.rtec -listen 127.0.0.1:0 -window 3600 -max-delay 900
    -start $first -end $((last + 1)) -checkpoint $tmp/burst.ckpt
    -ingest-queue 1 -ingest-delay 100ms"
burst_pids=""
for i in 1 2 3 4 5 6 7 8; do
    curl -s -o /dev/null --data-binary @"$tmp/burst.ndjson" "http://$rtecd_addr/ingest" &
    burst_pids="$burst_pids $!"
done
for p in $burst_pids; do
    wait "$p" || true
done
"$bin/rtectop" -once -metrics "http://$rtecd_addr/metrics" \
    -require 'serve_ingest_throttled_total>0' > /dev/null
kill -TERM "$rtecd_pid"
wait "$rtecd_pid" || true

echo "== benchmark smoke (benchmark/ must drive rtecd end to end)"
# A 2-second run of the repository's one benchmark harness: a real rtecd over
# loopback, closed-loop replay. Exits non-zero on any failed request or a
# recognition CSV that differs from the batch oracle.
sh benchmark/run.sh --workload daemon_replay --seed 7 --seconds 2 --trace 0 > /dev/null

echo "CI OK"
