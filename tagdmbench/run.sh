#!/usr/bin/env bash
# Builds tagdm-serve and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash tagdmbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/tagdm-serve || ! -f tagdmbench/go.mod ]]; then
	echo "tagdmbench: run from the root of a tagdm checkout (go.mod, cmd/tagdm-serve not found)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false
go build -o "$build/bin/tagdm-serve" ./cmd/tagdm-serve
(cd tagdmbench && go build -o "$build/bin/tagdmbench" .)
exec "$build/bin/tagdmbench" -serve "$build/bin/tagdm-serve" -work "$build/work" "$@"
