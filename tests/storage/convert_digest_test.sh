#!/bin/sh
# Byte-identical CSV → .homets conversion: generates a fixed simgen fleet
# (8 gateways × 3 weeks, seed 7), converts every gateway CSV to .homets, and
# compares each output's sha256 with the committed digests. A change to the
# CSV reader, the simulator or the columnar writer that moves a single byte
# fails here. Registered as the `convert_digest` ctest under the `storage`
# label.
#
# Usage: convert_digest_test.sh /path/to/homets_cli /path/to/digests.sha256
set -eu

cli="${1:?usage: convert_digest_test.sh homets_cli digests.sha256}"
digests="${2:?usage: convert_digest_test.sh homets_cli digests.sha256}"

digests=$(cd "$(dirname "$digests")" && pwd)/$(basename "$digests")
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
mkdir "$workdir/csv" "$workdir/homets"

"$cli" generate --out "$workdir/csv" --gateways 8 --weeks 3 --seed 7 \
    >/dev/null 2>&1
"$cli" convert --to homets --out "$workdir/homets" "$workdir"/csv/*.csv \
    >/dev/null 2>&1
cd "$workdir/homets"
ls > "$workdir/names"
awk '{print $2}' "$digests" | sort | diff - "$workdir/names"
sha256sum -c "$digests"
echo "ok: $(wc -l < "$digests") .homets files byte-identical"
