#!/usr/bin/env bash
# Builds objallocd and the benchmark from this checkout, then runs one
# benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload wire-volatile --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the checkout, in
# ${CARGO_TARGET_DIR:-.bench_build}: the Go build cache, the binaries,
# and the scratch directories of each run (journals, stats and trace
# files, removed when the run ends). The last line of standard output
# is the run's JSON result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gocache" "$out/tmp" "$out/work" "$out/config"
out=$(cd "$out" && pwd)

# The Go tool's caches, and the user config directory where it keeps its
# telemetry counters, move under the checkout too. Telemetry is turned
# off there: in its default mode the go command forks a detached
# telemetry process that can outlive the build and this run.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local
mkdir -p "$out/config/go/telemetry"
printf 'off\n' > "$out/config/go/telemetry/mode"

go build -o "$out/objallocd" ./cmd/objallocd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --objallocd "$out/objallocd" --workdir "$out/work" "$@"
