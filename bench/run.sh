#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash bench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go build cache, module cache,
# toolchain config and telemetry, temporary files, the binary, the trace
# spans — stays under .bench_build/ at the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The commit, or outside a git checkout a digest of the Go sources, so
# that two result sets can be matched to the code they measured.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null) ||
	commit=src-$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
go -C "$root/bench" build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
