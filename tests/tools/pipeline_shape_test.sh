#!/bin/sh
# Shape guard for perf_pipeline's artifact, registered as the
# `smoke_perf_pipeline_shape` ctest right after `smoke_perf_pipeline`
# (which writes the file): bench_compare accepts the artifact against itself
# (schema v3, zero regressions), and every entry carries the fields the
# bench gate and its readers rely on. A wrong entry shape then fails the
# ordinary test run, not only the opt-in bench gate.
#
# Usage: pipeline_shape_test.sh /path/to/bench_compare /path/to/pipeline.json
set -eu

cmp_bin="${1:?usage: pipeline_shape_test.sh bench_compare pipeline.json}"
json="${2:?usage: pipeline_shape_test.sh bench_compare pipeline.json}"

out=$("$cmp_bin" "$json" "$json")
echo "$out"
echo "$out" | grep -q '^0 regression'

python3 - "$json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "homets.bench_pipeline", doc["schema"]
assert doc["schema_version"] == 3, doc["schema_version"]
assert doc["entries"], "no entries"
for entry in doc["entries"]:
    for key in ("stage", "size", "seconds", "unit", "units", "cpu_seconds",
                "peak_rss_bytes", "metrics"):
        assert key in entry, f"{entry.get('stage')!r} missing {key!r}"
    assert isinstance(entry["metrics"], dict), entry["stage"]
print(f"ok: {len(doc['entries'])} entries carry the v3 fields")
EOF
