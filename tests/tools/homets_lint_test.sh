#!/bin/sh
# Tests homets_lint against the deliberately-violating fixture trees in
# lint_fixtures/: each case is a miniature repo root holding a bad file (every
# line a known violation), a suppressed variant (same code, allow() comments,
# zero findings expected), and for path-scoped rules a file proving the scope
# (bench/ may write to stdout). Registered as the `homets_lint_fixtures`
# ctest under the `lint` label.
#
# Usage: homets_lint_test.sh /path/to/homets_lint /path/to/lint_fixtures
set -u

lint="${1:?usage: homets_lint_test.sh homets_lint_binary fixtures_dir}"
fixtures="${2:?usage: homets_lint_test.sh homets_lint_binary fixtures_dir}"
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

# Runs the linter on a fixture root, captures stdout and the exit code.
run_case() {
    rc=0
    "$lint" --root "$fixtures/$1" >"$workdir/out" 2>"$workdir/err" || rc=$?
}

# Number of reported violations for a given rule id.
hits() {
    grep -c ": $1: " "$workdir/out"
}

# --- no-raw-random --------------------------------------------------------
run_case raw_random
check "raw_random exits 1" test "$rc" -eq 1
check "raw_random: 4 no-raw-random hits" test "$(hits no-raw-random)" -eq 4
check "raw_random flags srand line" grep -q 'bad.cc:7: no-raw-random' "$workdir/out"
check "raw_random flags the wall clock" grep -q "time(nullptr)" "$workdir/out"
check "raw_random: suppressed variant is silent" \
    sh -c "! grep -q suppressed.cc '$workdir/out'"

# --- float-equality -------------------------------------------------------
run_case float_equality
check "float_equality exits 1" test "$rc" -eq 1
check "float_equality: 3 hits" test "$(hits float-equality)" -eq 3
check "float_equality: zero guard allowed" \
    sh -c "! grep -q 'bad.cc:6:' '$workdir/out'"
check "float_equality: suppressed variant is silent" \
    sh -c "! grep -q suppressed.cc '$workdir/out'"

# --- no-stdout-in-lib -----------------------------------------------------
run_case stdout_in_lib
check "stdout_in_lib exits 1" test "$rc" -eq 1
check "stdout_in_lib: 3 hits" test "$(hits no-stdout-in-lib)" -eq 3
check "stdout_in_lib: bench/ is out of scope" \
    sh -c "! grep -q 'bench/ok.cc' '$workdir/out'"
check "stdout_in_lib: suppressed variant is silent" \
    sh -c "! grep -q suppressed.cc '$workdir/out'"

# --- no-raw-stderr-in-lib -------------------------------------------------
run_case raw_stderr
check "raw_stderr exits 1" test "$rc" -eq 1
check "raw_stderr: 2 no-raw-stderr-in-lib hits" \
    test "$(hits no-raw-stderr-in-lib)" -eq 2
check "raw_stderr flags the cerr line" \
    grep -q 'src/bad.cc:6: no-raw-stderr-in-lib' "$workdir/out"
check "raw_stderr: identifiers containing stderr do not match" \
    sh -c "! grep -q 'bad.cc:8:' '$workdir/out'"
check "raw_stderr: tools/ is out of scope" \
    sh -c "! grep -q 'tools/ok.cc' '$workdir/out'"
check "raw_stderr: suppressed variant is silent" \
    sh -c "! grep -q suppressed.cc '$workdir/out'"

# --- no-cc-include --------------------------------------------------------
run_case cc_include
check "cc_include exits 1" test "$rc" -eq 1
check "cc_include: 1 hit" test "$(hits no-cc-include)" -eq 1
check "cc_include: header include allowed" \
    sh -c "! grep -q 'bad.cc:3:' '$workdir/out'"
check "cc_include: suppressed variant is silent" \
    sh -c "! grep -q suppressed.cc '$workdir/out'"

# --- csv-include ----------------------------------------------------------
run_case csv_include
check "csv_include exits 1" test "$rc" -eq 1
check "csv_include: 1 hit" test "$(hits csv-include)" -eq 1
check "csv_include flags src/core" \
    grep -q 'src/core/bad.cc:2: csv-include' "$workdir/out"
check "csv_include: src/io is in scope for the CSV edge" \
    sh -c "! grep -q 'src/io/ok.cc' '$workdir/out'"
check "csv_include: tests/ may use the edge directly" \
    sh -c "! grep -q 'tests/ok.cc' '$workdir/out'"
check "csv_include: suppressed variant is silent" \
    sh -c "! grep -q suppressed.cc '$workdir/out'"

# --- unsafe-call ----------------------------------------------------------
run_case unsafe_call
check "unsafe_call exits 1" test "$rc" -eq 1
check "unsafe_call: 2 hits" test "$(hits unsafe-call)" -eq 2
check "unsafe_call flags sprintf" grep -q "banned call 'sprintf('" "$workdir/out"
check "unsafe_call flags strtok" grep -q "banned call 'strtok('" "$workdir/out"
check "unsafe_call: suppressed variant is silent" \
    sh -c "! grep -q suppressed.cc '$workdir/out'"

# --- metric catalog rules (absorbed from check_metrics_names.sh) ----------
run_case metrics
check "metrics exits 1" test "$rc" -eq 1
check "metrics: 2 metric-name-format hits" \
    test "$(hits metric-name-format)" -eq 2
check "metrics: 1 metric-name-duplicate hit" \
    test "$(hits metric-name-duplicate)" -eq 1
check "metrics: 1 metric-raw-literal hit" \
    test "$(hits metric-raw-literal)" -eq 1
check "metrics: 1 metric-dead-constant hit" \
    test "$(hits metric-dead-constant)" -eq 1
check "metrics: dead constant named" grep -q kFixtureDead "$workdir/out"

# --- clock-discipline -----------------------------------------------------
run_case clock_discipline
check "clock_discipline exits 1" test "$rc" -eq 1
check "clock_discipline: 2 hits" test "$(hits clock-discipline)" -eq 2
check "clock_discipline flags system_clock" \
    grep -q 'src/core/bad.cc:7: clock-discipline' "$workdir/out"
check "clock_discipline flags clock_gettime" \
    grep -q 'src/core/bad.cc:9: clock-discipline' "$workdir/out"
check "clock_discipline: steady_clock durations are fine" \
    sh -c "! grep -q 'bad.cc:10:' '$workdir/out'"
check "clock_discipline: src/obs owns the wall clock" \
    sh -c "! grep -q 'src/obs/ok.cc' '$workdir/out'"
check "clock_discipline: src/common hosts the timing substrate" \
    sh -c "! grep -q 'src/common/ok.cc' '$workdir/out'"
check "clock_discipline: suppressed variant is silent" \
    sh -c "! grep -q suppressed.cc '$workdir/out'"

# --- clean tree and rule filtering ----------------------------------------
run_case clean
check "clean tree exits 0" test "$rc" -eq 0
check "clean tree prints OK" grep -q '^OK:' "$workdir/out"

rc=0
"$lint" --root "$fixtures/raw_random" --rules float-equality \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "--rules filter: raw_random clean under float-equality only" \
    test "$rc" -eq 0

rc=0
"$lint" --root "$fixtures/does_not_exist" >"$workdir/out" 2>"$workdir/err" || rc=$?
check "missing root exits 2" test "$rc" -eq 2

rc=0
"$lint" --rules not-a-rule --root "$fixtures/clean" \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "unknown rule id exits 2" test "$rc" -eq 2

check "--list-rules names every rule" \
    test "$("$lint" --list-rules | wc -l)" -eq 20

# Flags removed with the baseline ratchet, the JSON report and --timing are
# unknown flags now; --format json is an unknown format.
for removed in "--baseline $workdir/bl.json" "--baseline-check $workdir/bl.json" \
    "--timing" "--config $workdir/c.json" "--layers $workdir/l.json" \
    "--format json"; do
    rc=0
    # shellcheck disable=SC2086  # split "--flag value" into two words
    "$lint" --root "$fixtures/clean" $removed \
        >"$workdir/out" 2>"$workdir/err" || rc=$?
    check "removed '$removed' exits 2" test "$rc" -eq 2
done

# --- comment-only suppressions reach past blank lines ---------------------
run_case suppression_gap
check "suppression_gap exits 0" test "$rc" -eq 0
check "suppression_gap prints OK" grep -q '^OK:' "$workdir/out"

exit "$fail"
