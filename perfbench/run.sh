#!/usr/bin/env bash
# Builds opsched-serve and the benchmark program from the checkout this is
# run in, then hands every argument to the benchmark program:
#
#   bash perfbench/run.sh --workload replay-fleet --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build products, the Go build cache and
# the generated inputs all live under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/opsched-serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/opsched-serve and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/opsched-serve" ./cmd/opsched-serve >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -serve "$out/opsched-serve" -work "$out/work" -root "$root" "$@"
