#!/bin/sh
# Run-telemetry contract test, registered as the `cli_telemetry` ctest
# (label `telemetry`). Asserts the PR-7 acceptance bar end to end:
#   1. A motifs run with the telemetry flags writes valid JSON-lines whose
#      span ids all resolve to spans in the Chrome trace.
#   2. The run manifest is schema-versioned and its stage entries carry the
#      BENCH_pipeline.json shape (stage, seconds, units, metrics).
#   3. A failpoint-killed run still writes a manifest, with the failure
#      outcome, the armed spec, and the process exit code.
#   4. stdout is byte-identical with the telemetry flags off — observability
#      must never leak into the analysis output contract.
#   5. The manifest's threads.used is the thread count that ran: 1 for
#      generate, min(--threads, --shards) for analyze; the analyze stage's
#      units are the report's "gateways analyzed", not the shard count.
#   6. A lenient read cut short by a truncating failpoint is counted as
#      ingest.files_truncated, not as a quarantined file.
#
# Usage: cli_telemetry_test.sh /path/to/homets_cli
set -eu

cli="${1:?usage: cli_telemetry_test.sh /path/to/homets_cli}"
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
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

"$cli" generate --out "$workdir" --gateways 3 --weeks 2 --seed 7 \
    --run-manifest-out "$workdir/gen_manifest.json" \
    >"$workdir/gen.log" 2>"$workdir/gen.err"

# --- baseline: no telemetry flags ----------------------------------------
"$cli" motifs "$workdir"/gateway_*.csv \
    >"$workdir/plain.out" 2>"$workdir/plain.err"

# --- full telemetry run ---------------------------------------------------
"$cli" motifs \
    --log-out "$workdir/run.jsonl" --log-level debug \
    --run-manifest-out "$workdir/manifest.json" \
    --trace-out "$workdir/trace.json" \
    "$workdir"/gateway_*.csv >"$workdir/telem.out" 2>"$workdir/telem.err"

check "stdout byte-identical with telemetry on" \
    cmp -s "$workdir/plain.out" "$workdir/telem.out"
check "structured log written" test -s "$workdir/run.jsonl"
check "run manifest written" test -s "$workdir/manifest.json"

# Every log line must parse as a JSON object, and every span id referenced
# by a log record must name a span the Chrome trace also recorded.
check "log lines parse and spans match the trace" \
    python3 - "$workdir/run.jsonl" "$workdir/trace.json" <<'EOF'
import json, sys
log_path, trace_path = sys.argv[1], sys.argv[2]
log_spans = set()
with open(log_path) as log:
    for n, line in enumerate(log, 1):
        record = json.loads(line)
        for key in ("ts_us", "level", "component", "msg"):
            assert key in record, f"line {n} missing {key!r}"
        if record.get("span", 0):
            log_spans.add(record["span"])
assert log_spans, "no log record carried a span id"
trace_spans = {
    event["args"]["span_id"]
    for event in json.load(open(trace_path))["traceEvents"]
    if "span_id" in event.get("args", {})
}
missing = log_spans - trace_spans
assert not missing, f"log spans absent from trace: {sorted(missing)}"
EOF

# Manifest schema: versioned, success outcome, and stage entries in the
# BENCH_pipeline.json shape so bench_compare-style tooling can diff them.
check "manifest carries the versioned schema" \
    python3 - "$workdir/manifest.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("schema_version", "tool", "command", "config", "inputs",
            "threads", "stages", "outcome", "status", "exit_code",
            "wall_seconds"):
    assert key in doc, f"missing {key!r}"
assert doc["schema_version"] == 5
assert doc["tool"] == "homets_cli"
assert doc["outcome"] == "success" and doc["exit_code"] == 0
assert doc["inputs"] and all(
    i["format"] == "csv" and i["bytes"] > 0 for i in doc["inputs"])
assert doc["stages"], "no stages recorded"
for stage in doc["stages"]:
    for key in ("stage", "seconds", "units", "metrics"):
        assert key in stage, f"stage missing {key!r}"
    # Every StageTimer-recorded stage carries resource accounting.
    res = stage["resources"]
    for key in ("cpu_user_seconds", "cpu_sys_seconds", "cpu_seconds",
                "max_rss_bytes", "minor_faults", "major_faults"):
        assert key in res, f"resources missing {key!r}"
names = [s["stage"] for s in doc["stages"]]
assert "mine_motifs" in names, names
# The library's own stages, summed by name, each row with exactly these keys.
sums = {s["stage"]: s for s in doc["stage_sums"]}
assert sums["motif.discover"]["calls"] == 1, sums.keys()
row_keys = {"stage", "calls", "seconds", "self_seconds", "self_cpu_seconds",
            "self_minor_faults"}
for row in doc["stage_sums"]:
    assert set(row) == row_keys, (row["stage"], sorted(row))
assert "histograms" not in doc
EOF

# --- manifest on failure --------------------------------------------------
rc=0
"$cli" motifs --failpoints 'io.csv.open=error*99' \
    --run-manifest-out "$workdir/fail_manifest.json" \
    "$workdir"/gateway_*.csv >"$workdir/out" 2>"$workdir/err" || rc=$?
check "failpoint run fails" test "$rc" -ne 0
check "failed run still writes a manifest" \
    test -s "$workdir/fail_manifest.json"
check "failure manifest records outcome, spec, and exit code" \
    python3 - "$workdir/fail_manifest.json" "$rc" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["outcome"] == "failure", doc["outcome"]
assert "failed_stage" in doc
assert doc["failpoints"]["spec"] == "io.csv.open=error*99"
assert doc["status"]["code"] != "OK"
assert doc["exit_code"] == int(sys.argv[2])
EOF

# --- threads.used and analyze units -----------------------------------------
"$cli" analyze --threads 3 --shards 2 \
    --run-manifest-out "$workdir/analyze_manifest.json" \
    "$workdir"/gateway_*.csv >"$workdir/out" 2>"$workdir/err"
check "threads.used is the count that ran" \
    python3 - "$workdir"/gen_manifest.json "$workdir"/analyze_manifest.json \
    <<'EOF'
import json, sys
generate = json.load(open(sys.argv[1]))["threads"]
assert generate["used"] == 1, generate
analyze = json.load(open(sys.argv[2]))["threads"]
assert analyze["used"] == 2, analyze
EOF
# gateway_001 of this fleet has no rows, so its shard is quarantined and one
# gateway is analyzed: neither the 2 shards nor the 3 inputs.
check "analyze units are the gateways analyzed" \
    python3 - "$workdir"/analyze_manifest.json "$workdir/out" <<'EOF'
import json, re, sys
stages = json.load(open(sys.argv[1]))["stages"]
units = [s["units"] for s in stages if s["stage"] == "analyze"]
analyzed = int(re.search(r"^gateways analyzed: (\d+)", open(sys.argv[2]).read(),
                         re.M).group(1))
assert analyzed == 1, analyzed
assert units == [analyzed], units
EOF

# --- truncated files ------------------------------------------------------
# The failpoint cuts gateway_000's stream at its 5th row; the skip policy
# keeps the 4 rows before it. The file is truncated, not quarantined: the
# counter of that name counts lenient reads that failed.
"$cli" profile --read-policy skip --failpoints 'io.csv.row=truncate@5' \
    --run-manifest-out "$workdir/trunc_manifest.json" \
    --metrics-out "$workdir/trunc_metrics.json" \
    "$workdir/gateway_000.csv" >"$workdir/out" 2>"$workdir/err"
check "a truncated file is ingest.files_truncated" \
    python3 - "$workdir/trunc_manifest.json" "$workdir/trunc_metrics.json" \
    <<'EOF'
import json, sys
ingest = json.load(open(sys.argv[1]))["ingest"]
assert ingest["files_truncated"] == 1, ingest
assert ingest["rows_parsed"] == 4, ingest
assert "files_quarantined" not in ingest, ingest
metrics = json.load(open(sys.argv[2]))
assert metrics["homets.ingest.files_quarantined"] == 0, metrics
EOF

# --log-level validation stays a strict-flag error.
rc=0
"$cli" motifs --log-level loud "$workdir"/gateway_*.csv \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "bad log level exits 2" test "$rc" -eq 2
check "bad log level is diagnosed" grep -q 'log-level' "$workdir/err"

exit "$fail"
