#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Invoke from
# the repository root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload twodc-hadoop-dcqcn --seed 1 --seconds 35 --trace 0
#
# The Go build cache, module path, temporary files and the binary all stay
# under .bench_build; GOPROXY=off and GOTOOLCHAIN=local keep the build
# offline (the module has no dependencies beyond the repository itself).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
