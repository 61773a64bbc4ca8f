#!/bin/sh
# Tests the architectural lint passes (layer-dag, include-cycle, header
# hygiene, determinism) against the fixture trees in lint_fixtures/, plus the
# --format dot golden. Each fixture is a miniature repo root that must
# produce exactly its expected `file:line: rule-id:` diagnostics. Registered
# as the `lint_arch_fixtures` ctest under the `lint-arch` label.
#
# Usage: homets_lint_arch_test.sh /path/to/homets_lint /path/to/lint_fixtures
set -u

lint="${1:?usage: homets_lint_arch_test.sh homets_lint_binary fixtures_dir}"
fixtures="${2:?usage: homets_lint_arch_test.sh homets_lint_binary fixtures_dir}"
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
    root="$1"
    shift
    rc=0
    "$lint" --root "$fixtures/$root" "$@" >"$workdir/out" 2>"$workdir/err" || rc=$?
}

# Number of reported violations for a given rule id.
hits() {
    grep -c ": $1: " "$workdir/out"
}

# --- layer-dag ------------------------------------------------------------
run_case layer_violation
check "layer_violation exits 1" test "$rc" -eq 1
check "layer_violation: 1 layer-dag hit" test "$(hits layer-dag)" -eq 1
check "layer_violation flags the upward include line" \
    grep -q 'src/common/bad.cc:2: layer-dag: upward include chain common -> core' \
    "$workdir/out"
check "layer_violation names the resolved header" \
    grep -q "resolves to src/core/engine.h" "$workdir/out"
check "layer_violation: waived edge is silent" \
    sh -c "! grep -q waived.cc '$workdir/out'"

# --- stale edge waivers --------------------------------------------------
run_case stale_waiver
check "stale_waiver exits 1" test "$rc" -eq 1
check "stale_waiver: 2 layer-dag hits" test "$(hits layer-dag)" -eq 2
check "stale_waiver flags the waiver no include uses" \
    grep -q 'src/common/unused.cc:1: layer-dag: edge_waivers grants common -> core' \
    "$workdir/out"
check "stale_waiver flags the waiver of a missing file" \
    grep -q "tools/lint/layers.json:1: layer-dag: edge_waivers names 'src/common/gone.cc'" \
    "$workdir/out"
check "stale_waiver: a used waiver is silent" \
    sh -c "! grep -q src/common/used.cc '$workdir/out'"

# --- include-cycle --------------------------------------------------------
run_case include_cycle
check "include_cycle exits 1" test "$rc" -eq 1
check "include_cycle: 1 hit" test "$(hits include-cycle)" -eq 1
check "include_cycle reports one canonical cycle" \
    grep -q 'src/a/x.h:5: include-cycle: include cycle src/a/x.h -> src/a/y.h -> src/a/x.h' \
    "$workdir/out"
check "include_cycle: the mirror edge is not double-reported" \
    sh -c "! grep -q 'y.h:[0-9]*: include-cycle' '$workdir/out'"

# --- unused-include -------------------------------------------------------
run_case unused_include
check "unused_include exits 1" test "$rc" -eq 1
check "unused_include: 1 hit" test "$(hits unused-include)" -eq 1
check "unused_include flags the dead include" \
    grep -q "src/core/bad.cc:3: unused-include: no symbol from 'core/unused.h'" \
    "$workdir/out"
check "unused_include: the used header is fine" \
    sh -c "! grep -q \"'core/used.h'\" '$workdir/out'"
check "unused_include: suppressed variant is silent" \
    sh -c "! grep -q suppressed.cc '$workdir/out'"

# --- transitive-include ---------------------------------------------------
run_case transitive_include
check "transitive_include exits 1" test "$rc" -eq 1
check "transitive_include: 1 hit" test "$(hits transitive-include)" -eq 1
check "transitive_include names the hidden dependency and the symbol" \
    grep -q 'src/core/bad.cc:2: transitive-include: relies on src/core/deep.h only transitively for DeepExtra' \
    "$workdir/out"
check "transitive_include suggests the include to add" \
    grep -q '#include "deep.h" directly' "$workdir/out"
check "transitive_include: a .cc is covered by its own header closure" \
    sh -c "! grep -q good.cc '$workdir/out'"

# --- unordered-iteration --------------------------------------------------
run_case unordered_iteration
check "unordered_iteration exits 1" test "$rc" -eq 1
check "unordered_iteration: 2 hits" test "$(hits unordered-iteration)" -eq 2
check "unordered_iteration flags the range-for" \
    grep -q "src/core/bad.cc:7: unordered-iteration: iteration over unordered container 'counts'" \
    "$workdir/out"
check "unordered_iteration flags .begin()" \
    grep -q 'src/core/bad.cc:14: unordered-iteration' "$workdir/out"
check "unordered_iteration: find/end lookups are fine" \
    sh -c "! grep -q ok.cc '$workdir/out'"
check "unordered_iteration: suppressed variant is silent" \
    sh -c "! grep -q suppressed.cc '$workdir/out'"

# --- bad-suppression ------------------------------------------------------
run_case bad_suppression
check "bad_suppression exits 1" test "$rc" -eq 1
check "bad_suppression: 1 hit" test "$(hits bad-suppression)" -eq 1
check "bad_suppression names the typoed rule id" \
    grep -q "src/core/bad.cc:4: bad-suppression: suppression names unknown rule id 'no-raw-randomness'" \
    "$workdir/out"

# --- header hygiene on the metrics fixture --------------------------------
run_case metrics --rules self-include-first,include-guard
check "metrics hygiene exits 0" test "$rc" -eq 0

# --- --format dot golden --------------------------------------------------
run_case dot_layers --format dot
check "dot format exits 0" test "$rc" -eq 0
check "dot output matches the golden byte-for-byte" \
    cmp -s "$fixtures/dot_layers/expected.dot" "$workdir/out"

# --- usage and config errors ----------------------------------------------
rc=0
"$lint" --root "$fixtures/layer_violation" --format yaml \
    >"$workdir/out" 2>"$workdir/err" || rc=$?
check "unknown --format exits 2" test "$rc" -eq 2

mkdir -p "$workdir/cyclic/tools/lint" "$workdir/cyclic/src/common"
cat >"$workdir/cyclic/tools/lint/layers.json" <<'EOF'
{
  "layers": {
    "common": ["core"],
    "core": ["common"]
  }
}
EOF
printf 'namespace fixture { inline int One() { return 1; } }\n' \
    >"$workdir/cyclic/src/common/one.cc"
rc=0
"$lint" --root "$workdir/cyclic" >"$workdir/out" 2>"$workdir/err" || rc=$?
check "cyclic declared layer graph exits 2" test "$rc" -eq 2
check "cyclic graph error names the cycle" \
    grep -q 'declared layer graph is cyclic' "$workdir/err"

exit "$fail"
