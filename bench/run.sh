#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through, e.g.
#
#   bash bench/run.sh --workload trap-storm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache,
# temporary files, the binary, traced-run output) stays under
# .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$out/fpbench" .)
cd "$root"
exec "$out/fpbench" "$@"
