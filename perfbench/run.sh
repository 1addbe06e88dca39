#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given flags:
#
#   bash perfbench/run.sh --workload sweep-fig3 --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes (Go build cache, binary, traces) stays
# under .bench_build/ in the checkout. Outside a full checkout (no
# go.mod next to perfbench/) the build fails and no result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
# The checkout may not be a git repository, so the sources are also
# stamped by content.
source_digest=$(find . \( -path ./.bench_build -o -path ./.git \) -prune -o -type f \
	\( -name '*.go' -o -name go.mod \) -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_COMMIT="$commit" PERFBENCH_SOURCE="$source_digest"

go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
