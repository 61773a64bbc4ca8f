#!/bin/sh
# Proves that a dropped Status or Result<T> fails the build. Compiles
# nodiscard_status.cc with -Werror=unused-result, as the top-level
# CMakeLists.txt does, and passes only when the compiler rejects the TU
# with an unused-result error on exactly the lines marked
# `expect-unused-result`: a dropped Status from a free function and a
# dropped Result<int> from a member call. The `(void)` discard and the
# checked calls in the same TU must stay silent. Registered as the
# `nodiscard_status` ctest under the `lint` label.
#
# Usage: nodiscard_status_test.sh CXX SRC_DIR
set -u

cxx="${1:?usage: nodiscard_status_test.sh CXX SRC_DIR}"
src="${2:?usage: nodiscard_status_test.sh CXX SRC_DIR}"
tu="$(dirname "$0")/nodiscard_status.cc"
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

rc=0
"$cxx" -std=c++20 -fsyntax-only -Werror=unused-result -I "$src" "$tu" \
    >"$workdir/out" 2>&1 || rc=$?

grep -n 'expect-unused-result$' "$tu" | cut -d: -f1 >"$workdir/want"
grep -E 'nodiscard_status\.cc:[0-9]+:([0-9]+:)? error: .*unused-result' \
    "$workdir/out" | sed -E 's/^.*nodiscard_status\.cc:([0-9]+):.*$/\1/' |
    sort -un >"$workdir/got"

fail=0
if [ "$rc" -eq 0 ]; then
    echo "FAIL: the TU compiled; a dropped Status/Result is not an error" >&2
    fail=1
fi
if [ "$(wc -l <"$workdir/want")" -ne 2 ]; then
    echo "FAIL: expected 2 marked lines in $tu" >&2
    fail=1
fi
if ! cmp -s "$workdir/want" "$workdir/got"; then
    echo "FAIL: unused-result errors on lines $(tr '\n' ' ' <"$workdir/got")" \
        "but expected lines $(tr '\n' ' ' <"$workdir/want")" >&2
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    cat "$workdir/out" >&2
    exit 1
fi
echo "ok: unused-result errors on lines $(tr '\n' ' ' <"$workdir/got")"
