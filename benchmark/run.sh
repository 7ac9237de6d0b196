#!/usr/bin/env bash
# Builds and runs seerd's benchmark. Run it from the repository root:
#
#   bash benchmark/run.sh --workload plan-read --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/:
# the Go build cache, the binaries and trace.json.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/bin/seerbench" ./seerbench)
exec "$out/bin/seerbench" -root "$root" "$@"
