#!/usr/bin/env bash
# Builds cmd/slperf from the sources of the checkout it is run in and runs it
# with the given arguments, e.g.
#
#   bash cmd/slperf/run.sh --workload lib-census-l2 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced run's span dumps stay under .bench_build/ in the checkout; nothing is
# downloaded. Outside a Go module the build fails and the script exits
# non-zero without printing a result.
#
# Go telemetry is switched off in the local config dir: in its default "local"
# mode every go command forks a detached telemetry sidecar that outlives the
# script. The script starts no other process that could outlive it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/home/.config/go/telemetry"
printf 'off\n' >"$out/home/.config/go/telemetry/mode"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/slperf" ./cmd/slperf
exec "$out/slperf" -span-dir "$out/spans" "$@"
