#!/bin/sh
# End-to-end CLI contract test, registered as the `cli_usage` ctest.
#   1. Strict flags: unknown --flags, a dangling --flag, an unknown
#      failpoint site and an unknown --read-policy exit 2 with a
#      diagnostic, never run the command.
#   2. Observability: a generate + motifs run with --trace-out/--metrics-out
#      writes a Chrome trace and a metrics JSON whose per-stage counters
#      (pairs computed, KS rejections, values zeroed) are nonzero.
#   3. Columnar storage: convert round-trips CSV through .homets without
#      changing a byte, and the motifs output is byte-identical whichever
#      format feeds it.
#   4. Telemetry at exit only: the removed flusher and progress flags exit 2,
#      and stream stdout is byte-identical with and without --metrics-out.
#   5. No execution profiler: --prof and --prof-out are unknown flags, and a
#      metrics export carries no homets.prof.* key.
#   6. Checkpoint-dir lock: while a flock(1) holder has DIR/LOCK, analyze
#      --checkpoint-dir DIR exits 15 and writes no checkpoint; once the
#      holder is SIGKILLed the same run succeeds with the stdout of a run
#      without checkpoints. The removed --shard-backoff-ms exits 2.
#
# Usage: cli_usage_test.sh /path/to/homets_cli
set -eu

cli="${1:?usage: cli_usage_test.sh /path/to/homets_cli}"
workdir=$(mktemp -d)
holder=
trap '[ -z "$holder" ] || kill -KILL "$holder" 2>/dev/null; rm -rf "$workdir"' EXIT
fail=0

check() {
    desc="$1"
    shift
    if "$@"; then
        echo "ok: $desc"
    else
        echo "FAIL: $desc" >&2
        fail=1
    fi
}

not_grep() {
    ! grep -qF "$1" "$2"
}

# --- strict flag handling -------------------------------------------------
rc=0
"$cli" generate --out "$workdir" --bogus 3 >"$workdir/out" 2>"$workdir/err" || rc=$?
check "unknown flag exits 2" test "$rc" -eq 2
check "unknown flag is diagnosed" grep -q 'unknown flag --bogus' "$workdir/err"

rc=0
"$cli" generate --out "$workdir" --seed >"$workdir/out" 2>"$workdir/err" || rc=$?
check "dangling flag exits 2" test "$rc" -eq 2
check "dangling flag is diagnosed" grep -q 'flag --seed expects a value' "$workdir/err"

rc=0
"$cli" frobnicate >"$workdir/out" 2>"$workdir/err" || rc=$?
check "unknown command exits 2" test "$rc" -eq 2

# A failpoint site outside the catalogue would arm nothing; it is refused.
rc=0
"$cli" motifs --failpoints 'threadpool.task=fail' "$workdir/none.csv" \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "unknown failpoint site exits 2" test "$rc" -eq 2
check "unknown failpoint site is diagnosed" \
    grep -q "unknown site 'threadpool.task'" "$workdir/err"

# Two read policies: a third name (the retired `repair`) is a usage error.
rc=0
"$cli" profile --read-policy repair "$workdir/none.csv" \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "--read-policy repair exits 2" test "$rc" -eq 2
check "--read-policy error lists the policies" \
    grep -qF 'strict|skip' "$workdir/err"

# --- observability outputs ------------------------------------------------
"$cli" generate --out "$workdir" --gateways 3 --weeks 3 --seed 7 \
    >"$workdir/gen.log" 2>"$workdir/gen.err"
check "generate produced traces" test -f "$workdir/gateway_002.csv"

"$cli" motifs --trace-out "$workdir/trace.json" \
    --metrics-out "$workdir/metrics.json" \
    "$workdir"/gateway_*.csv >"$workdir/motifs.log" 2>"$workdir/motifs.err"

check "trace file written" test -s "$workdir/trace.json"
check "trace is Chrome trace_event JSON" \
    grep -q '"traceEvents"' "$workdir/trace.json"
check "trace contains complete events" grep -q '"ph": "X"' "$workdir/trace.json"
check "trace records the mining span" \
    grep -q '"mine_motifs"' "$workdir/trace.json"

check "metrics file written" test -s "$workdir/metrics.json"
check "metrics summary on stderr" grep -q 'metrics summary:' "$workdir/motifs.err"

# A named counter must be present with a nonzero value.
nonzero() {
    grep -q "\"$1\": [1-9]" "$workdir/metrics.json"
}
check "engine pairs computed" nonzero homets.engine.pairs_computed
check "stationarity KS rejections" nonzero homets.stationarity.ks_rejections
check "background values zeroed" nonzero homets.background.values_zeroed
check "io rows parsed" nonzero homets.io.rows_parsed
check "motif windows mined" nonzero homets.motif.windows_mined
check "metrics carry no profiler counters" \
    not_grep '"homets.prof.' "$workdir/metrics.json"

# --- columnar convert + byte-identical analysis ---------------------------
mkdir -p "$workdir/col" "$workdir/back"
"$cli" convert --to homets --out "$workdir/col" "$workdir"/gateway_*.csv \
    >"$workdir/convert.log" 2>"$workdir/convert.err"
check "convert wrote columnar traces" test -s "$workdir/col/gateway_002.homets"
check "convert narrates row counts" grep -q ' rows, ' "$workdir/convert.log"

"$cli" convert --to csv --out "$workdir/back" "$workdir/col"/*.homets \
    >"$workdir/back.log" 2>"$workdir/back.err"
for csv in "$workdir"/gateway_*.csv; do
    check "round trip is byte-identical: $(basename "$csv")" \
        cmp -s "$csv" "$workdir/back/$(basename "$csv")"
done

"$cli" motifs "$workdir/col"/*.homets \
    >"$workdir/motifs_col.log" 2>"$workdir/motifs_col.err"
check "motifs output identical across input formats" \
    cmp -s "$workdir/motifs.log" "$workdir/motifs_col.log"

# Forcing the wrong format is a clean failure, not a crash.
rc=0
"$cli" motifs --input-format csv "$workdir/col/gateway_000.homets" \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "forced csv on a binary file fails cleanly" test "$rc" -eq 1

rc=0
"$cli" convert --to parquet "$workdir/gateway_000.csv" \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "unknown convert target exits 2" test "$rc" -eq 2

# --- stream subcommand, telemetry at exit only ---------------------------
"$cli" stream "$workdir"/gateway_*.csv \
    >"$workdir/stream_plain.out" 2>"$workdir/stream_plain.err"
check "stream prints a summary" \
    grep -q 'streamed .* minutes of .* gateways into' "$workdir/stream_plain.out"

# Telemetry is written at exit only; the interval-flusher, heartbeat and
# execution-profiler flags are unknown flags.
for flag in --metrics-flush-out --metrics-flush-interval-sec \
        --progress --progress-interval-sec --prof --prof-out; do
    rc=0
    "$cli" stream "$flag" 1 "$workdir"/gateway_*.csv \
        >"$workdir/out" 2>"$workdir/err" || rc=$?
    check "removed flag $flag exits 2" test "$rc" -eq 2
    check "removed flag $flag is unknown" \
        grep -q "unknown flag $flag\$" "$workdir/err"
done

"$cli" stream --metrics-out "$workdir/stream_metrics.json" \
    "$workdir"/gateway_*.csv \
    >"$workdir/stream_metrics.out" 2>"$workdir/stream_metrics.err"
check "stream metrics carry streaming counters" \
    grep -q '"homets.streaming.observations_ingested": [1-9]' \
    "$workdir/stream_metrics.json"
check "stdout identical with and without telemetry" \
    cmp -s "$workdir/stream_plain.out" "$workdir/stream_metrics.out"

# --- checkpoint-dir lock ----------------------------------------------------
"$cli" analyze --shards 2 "$workdir"/gateway_*.csv \
    >"$workdir/analyze_plain.out" 2>"$workdir/analyze_plain.err"
check "analyze prints a fleet report" \
    grep -q '^fleet report: 3 gateways in 2 shards' "$workdir/analyze_plain.out"

no_checkpoints() {
    for f in "$1"/shard-*.ckpt; do
        if [ -e "$f" ]; then return 1; fi
    done
}

# The subshell takes the lock on fd 9 with flock(1), then becomes `sleep`:
# one process holds the lock, so one SIGKILL frees it.
ckpt="$workdir/ckpt"
mkdir -p "$ckpt"
(flock 9 && exec sleep 30) 9>"$ckpt/LOCK" >/dev/null 2>&1 &
holder=$!
tries=0
while flock -n "$ckpt/LOCK" true && [ "$tries" -lt 100 ]; do
    sleep 0.1
    tries=$((tries + 1))
done
rc=0
"$cli" analyze --shards 2 --checkpoint-dir "$ckpt" "$workdir"/gateway_*.csv \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "analyze under a flock(1) holder exits 15" test "$rc" -eq 15
check "analyze under a flock(1) holder names the held dir" \
    grep -q 'is held by another run' "$workdir/err"
check "analyze under a flock(1) holder writes no checkpoint" \
    no_checkpoints "$ckpt"

kill -KILL "$holder"
wait "$holder" 2>/dev/null || true
holder=
rc=0
"$cli" analyze --shards 2 --checkpoint-dir "$ckpt" "$workdir"/gateway_*.csv \
    >"$workdir/analyze_ckpt.out" 2>"$workdir/err" || rc=$?
check "analyze after the holder's SIGKILL exits 0" test "$rc" -eq 0
check "analyze stdout identical with and without --checkpoint-dir" \
    cmp -s "$workdir/analyze_plain.out" "$workdir/analyze_ckpt.out"

rc=0
"$cli" analyze --shard-backoff-ms 5 "$workdir"/gateway_*.csv \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "removed flag --shard-backoff-ms exits 2" test "$rc" -eq 2

exit "$fail"
