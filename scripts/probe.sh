#!/bin/sh
# The length probe: the 60-vessel seed-7 scenario repeated K times in time
# (`aisgen -repeat K`; one copy is 20 914 events over 48 840 s), POSTed in
# arrival order to one rtecd in 4 000-line batches, then /finish. It measures
# how the daemon's memory and wall grow with the length of the stream at a
# fixed window (3 600 s, tumbling, a checkpoint per window).
#
# Usage: sh scripts/probe.sh BIN K DIR
#   BIN  a directory holding aisgen, disorder and rtecd binaries
#   K    the number of copies
#   DIR  a work directory; the generated input is kept there per K and
#        reused, the last run's CSV, checkpoint and journal are in DIR/run
#
# Prints one JSON line shaped like benchmark/run.sh's result: "correct" is
# true when every POST and /finish answered 200, "attempted" counts the
# arrivals POSTed; wall_s runs from the first POST to the /finish answer and
# peak_rss_mb is rtecd's VmHWM at that point.
set -eu
bin=$(cd "$1" && pwd) k=$2 dir=$3
mkdir -p "$dir/k$k"
cd "$dir/k$k"
if [ ! -f part.aa ]; then
    "$bin/aisgen" -vessels 60 -seed 7 -repeat "$k" -background bg.rtec -gold gold.rtec > events.csv
    cat gold.rtec bg.rtec > ed.rtec
    "$bin/disorder" -in events.csv -out events.ndjson -out-format ndjson -max-delay 0 2>/dev/null
    split -l 4000 events.ndjson part.
fi
first=$(awk -F, 'NR==1{m=$1} $1<m{m=$1} END{print m}' events.csv)
last=$(awk -F, 'NR==1{M=$1} $1>M{M=$1} END{print M}' events.csv)
rm -rf run && mkdir run
"$bin/rtecd" -ed ed.rtec -listen 127.0.0.1:0 -window 3600 -start "$first" -end $((last + 1)) \
    -shards 1 -checkpoint-every 1 -checkpoint run/ck -journal run/journal.jsonl 2> run/err.txt &
pid=$!
trap 'kill -TERM "$pid" 2>/dev/null || true' EXIT
addr=""
i=0
while [ -z "$addr" ]; do
    i=$((i + 1))
    if [ $i -gt 300 ]; then
        echo "probe: rtecd never bound:" >&2
        cat run/err.txt >&2
        exit 1
    fi
    sleep 0.1
    addr=$(sed -n 's/^rtecd: listening on //p' run/err.txt)
done
correct=true
t0=$(date +%s.%N)
for p in part.*; do
    code=$(curl -s -o /dev/null -w '%{http_code}' --data-binary @"$p" "http://$addr/ingest")
    [ "$code" = 200 ] || correct=false
done
code=$(curl -s -o run/out.csv -w '%{http_code}' -X POST "http://$addr/finish")
[ "$code" = 200 ] || correct=false
t1=$(date +%s.%N)
hwm=$(awk '/^VmHWM/ { print $2 }' "/proc/$pid/status")
kill -TERM "$pid"
wait "$pid" || true
trap - EXIT
awk -v ok="$correct" -v n="$(wc -l < events.ndjson)" -v a="$t0" -v b="$t1" -v hwm="$hwm" 'BEGIN {
    printf "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {\"peak_rss_mb\": {\"value\": %.4f, \"unit\": \"MB\"}, \"wall_s\": {\"value\": %.3f, \"unit\": \"s\"}}}\n",
        ok, n, ok == "true" ? 0 : 1, hwm / 1024, b - a
}'
