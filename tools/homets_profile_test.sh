#!/bin/sh
# homets_profile contract test, registered as the `homets_profile` ctest
# (label `telemetry`):
#   1. A generate + motifs run's manifest renders with exit 0 and one table
#      row per manifest stage.
#   2. Each stage's efficiency is the manifest's parallel_efficiency, read
#      back, not recomputed; a stage without one reads "n/a" and too-short.
#   3. A manifest without a "stages" array and the removed --min-wall-sec
#      flag both exit 2.
#
# Usage: homets_profile_test.sh /path/to/homets_cli /path/to/homets_profile
set -eu

cli="${1:?usage: homets_profile_test.sh HOMETS_CLI HOMETS_PROFILE}"
profile="${2:?usage: homets_profile_test.sh HOMETS_CLI HOMETS_PROFILE}"
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

# --- a real manifest ------------------------------------------------------
"$cli" generate --out "$workdir" --gateways 2 --weeks 2 --seed 7 \
    >"$workdir/gen.log" 2>"$workdir/gen.err"
"$cli" motifs --run-manifest-out "$workdir/manifest.json" \
    "$workdir"/gateway_*.csv >"$workdir/motifs.out" 2>"$workdir/motifs.err"
rc=0
"$profile" "$workdir/manifest.json" >"$workdir/report" 2>"$workdir/err" \
    || rc=$?
check "motifs manifest renders" test "$rc" -eq 0
check "one row per manifest stage" \
    python3 - "$workdir/manifest.json" "$workdir/report" <<'PY'
import json, sys
stages = [s["stage"] for s in json.load(open(sys.argv[1]))["stages"]]
lines = open(sys.argv[2]).read().splitlines()
head = next(i for i, l in enumerate(lines) if l.startswith("stage "))
tail = next(i for i, l in enumerate(lines) if l.startswith("totals:"))
rows = [l.split()[0] for l in lines[head + 1:tail]]
assert rows == stages, (rows, stages)
PY

# --- efficiency comes from the manifest -----------------------------------
# "long" carries an efficiency its cpu/wall would not give (0.4 / (1 * 4) is
# 0.10); "short" has none, as the manifest omits it under 10 ms.
cat >"$workdir/handmade.json" <<'JSON'
{"schema_version": 3, "tool": "handmade",
 "threads": {"hardware": 4, "used": 4},
 "stages": [
  {"stage": "long", "seconds": 1.0, "units": 1, "metrics": {},
   "resources": {"cpu_seconds": 0.4, "max_rss_bytes": 1048576,
                 "parallel_efficiency": 0.9}},
  {"stage": "short", "seconds": 0.002, "units": 1, "metrics": {},
   "resources": {"cpu_seconds": 0.001, "max_rss_bytes": 1048576}}]}
JSON
rc=0
"$profile" "$workdir/handmade.json" >"$workdir/report" 2>"$workdir/err" \
    || rc=$?
check "handmade manifest renders" test "$rc" -eq 0
check "efficiency is read back from the manifest" \
    grep -Eq '^long +1\.000 +0\.400 +0\.90 .* scales$' "$workdir/report"
check "a stage without parallel_efficiency reads n/a and too-short" \
    grep -Eq '^short +0\.002 +0\.001 +n/a .* too-short$' "$workdir/report"

# --- errors ---------------------------------------------------------------
echo '{"schema_version": 3, "tool": "handmade"}' >"$workdir/nostages.json"
rc=0
"$profile" "$workdir/nostages.json" >"$workdir/out" 2>"$workdir/err" \
    || rc=$?
check "manifest without stages exits 2" test "$rc" -eq 2
check "missing stages is diagnosed" grep -q 'stages' "$workdir/err"

rc=0
"$profile" "$workdir/manifest.json" --min-wall-sec 0.5 \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "removed flag --min-wall-sec exits 2" test "$rc" -eq 2

exit "$fail"
