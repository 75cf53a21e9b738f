#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload fischer-lp --seed 1 --seconds 20 --trace 0
# Build products, the Go build cache and Go's config directory all live
# under .bench_build in the checkout, so nothing is written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
