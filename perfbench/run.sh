#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload live --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The build keeps everything it
# writes — build cache, module cache, the go command's own settings — and
# the binary under .bench_build/ there, so a run writes nothing outside the
# checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
(
	cd perfbench
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
