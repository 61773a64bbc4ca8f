#!/bin/sh
# homets_profile contract test, registered as the `homets_profile` ctest
# (label `telemetry`):
#   1. A generate + motifs run's manifest renders with exit 0 and one table
#      row per manifest stage.
#   2. Each stage's efficiency is the manifest's parallel_efficiency, read
#      back, not recomputed; a stage without one reads "n/a" and too-short.
#   3. On a 4-thread analyze manifest the stage_sums table has one row per
#      manifest stage_sums entry, in order, and the diagnosis names the stage
#      with the largest self CPU; a hand-made manifest pins the share column.
#   4. A manifest without a "stages" array and the removed --min-wall-sec
#      and --metrics flags all exit 2.
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

# --- stage_sums of a 4-thread analyze run ----------------------------------
mkdir "$workdir/fleet"
"$cli" generate --out "$workdir/fleet" --gateways 6 --weeks 2 --seed 7 \
    --format homets >"$workdir/gen.log" 2>"$workdir/gen.err"
"$cli" analyze --shards 4 --threads 4 \
    --run-manifest-out "$workdir/analyze.json" "$workdir/fleet/fleet.homets" \
    >"$workdir/analyze.out" 2>"$workdir/analyze.err"
rc=0
"$profile" "$workdir/analyze.json" >"$workdir/report" 2>"$workdir/err" \
    || rc=$?
check "analyze manifest renders" test "$rc" -eq 0
check "one row per stage_sums entry; diagnosis names the top self CPU" \
    python3 - "$workdir/analyze.json" "$workdir/report" <<'PY'
import json, sys
sums = json.load(open(sys.argv[1]))["stage_sums"]
lines = open(sys.argv[2]).read().splitlines()
head = next(i for i, l in enumerate(lines) if l.startswith("library_stage "))
tail = next(i for i, l in enumerate(lines) if l.startswith("library totals:"))
rows = [l.split()[0] for l in lines[head + 1:tail]]
assert rows == [s["stage"] for s in sums], (rows, sums)
top = max(sums, key=lambda s: s["self_cpu_seconds"])["stage"]
prefix = f"diagnosis: {top} has the largest self CPU,"
assert any(l.startswith(prefix) for l in lines), (top, lines)
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

# --- stage_sums shares and the top stage -----------------------------------
# Self CPU 0.1 + 0.3 + 0.6 = 1.0 s, so the shares are the figures; "b" has
# the largest wall but not the largest CPU.
cat >"$workdir/sums.json" <<'JSON'
{"schema_version": 5, "tool": "handmade",
 "threads": {"hardware": 4, "used": 1},
 "stages": [{"stage": "analyze", "seconds": 1.0, "units": 1, "metrics": {}}],
 "stage_sums": [
  {"stage": "a", "calls": 2, "seconds": 0.1, "self_seconds": 0.1,
   "self_cpu_seconds": 0.1, "self_minor_faults": 7},
  {"stage": "b", "calls": 1, "seconds": 0.9, "self_seconds": 0.9,
   "self_cpu_seconds": 0.3, "self_minor_faults": 0},
  {"stage": "c", "calls": 3, "seconds": 0.6, "self_seconds": 0.6,
   "self_cpu_seconds": 0.6, "self_minor_faults": 12}]}
JSON
rc=0
"$profile" "$workdir/sums.json" >"$workdir/report" 2>"$workdir/err" \
    || rc=$?
check "handmade stage_sums renders" test "$rc" -eq 0
check "stage_sums rows carry calls, self wall, self CPU, share, faults" \
    sh -c "grep -Eq '^a +2 +0\.100 +0\.100 +10\.0% +7$' '$workdir/report' &&
           grep -Eq '^b +1 +0\.900 +0\.300 +30\.0% +0$' '$workdir/report' &&
           grep -Eq '^c +3 +0\.600 +0\.600 +60\.0% +12$' '$workdir/report'"
check "the diagnosis names the stage with the largest self CPU" \
    grep -q '^diagnosis: c has the largest self CPU, 0\.600s over 3 calls$' \
    "$workdir/report"

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

rc=0
"$profile" "$workdir/manifest.json" --metrics "$workdir/manifest.json" \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "removed flag --metrics exits 2" test "$rc" -eq 2

exit "$fail"
