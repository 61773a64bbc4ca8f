#!/bin/sh
# One-command CI gate: configure with -Werror, build, then run the whole
# ctest suite (every labelled tier and every unlabelled module suite), then
# rerun the concurrency tiers under ThreadSanitizer — the exact sequence a
# pre-merge check should run. The suite includes the linter over the tree
# (homets_lint_tree) and the run-manifest schema check (cli_telemetry), so a
# lint finding or a manifest field drift fails the gate.
# Smoke-tested by the `run_all_gates_smoke` ctest via --dry-run, which prints
# the commands without executing them.
#
# Usage: run_all_gates.sh [--dry-run] [--preset NAME] [REPO_ROOT]
#
#   --dry-run       print each command instead of running it
#   --preset NAME   configure with a CMakePresets.json preset (default: a
#                   plain configure into build-gates/ with HOMETS_WERROR=ON)
#
# Exits nonzero as soon as any stage fails.
set -eu

dry_run=0
preset=""
root=""
while [ "$#" -gt 0 ]; do
    case "$1" in
        --dry-run) dry_run=1 ;;
        --preset)
            shift
            preset="${1:?--preset expects a name}"
            ;;
        -*)
            echo "usage: run_all_gates.sh [--dry-run] [--preset NAME] [REPO_ROOT]" >&2
            exit 2
            ;;
        *) root="$1" ;;
    esac
    shift
done
root="${root:-$(cd "$(dirname "$0")/.." && pwd)}"

run() {
    echo "+ $*"
    if [ "$dry_run" -eq 0 ]; then
        "$@"
    fi
}

if [ -n "$preset" ]; then
    build="$root/build-$preset"
    run cmake -S "$root" --preset "$preset"
else
    build="$root/build-gates"
    run cmake -S "$root" -B "$build" -DHOMETS_WERROR=ON
fi

jobs=$( (nproc || sysctl -n hw.ncpu || echo 2) 2>/dev/null | head -n1 )
run cmake --build "$build" -j "$jobs"
run ctest --test-dir "$build" --output-on-failure -j "$jobs"

# Concurrency under TSan: the `threads` label (thread pool, similarity
# engine, and the obs registry, trace and logger tests) and the
# `chaos-fleet` label (the orchestrator's threaded shard loop, with retries,
# checkpoints and quarantine) get their own ThreadSanitizer pass (the
# inactive-span allocation test self-skips there — its operator-new counter
# is compiled out under sanitizers).
tsan_build="$root/build-gates-tsan"
run cmake -S "$root" -B "$tsan_build" -DHOMETS_SANITIZE=thread
run cmake --build "$tsan_build" -j "$jobs" \
    --target obs_test threading_test fleet_chaos_test
run ctest --test-dir "$tsan_build" --output-on-failure \
    -L "threads|chaos-fleet"

if [ "$dry_run" -eq 1 ]; then
    echo "DRY RUN: no commands executed"
else
    echo "OK: all gates passed (build: $build)"
fi
