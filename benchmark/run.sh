#!/usr/bin/env bash
# Builds the benchmark and vcseld from this checkout, then runs the
# benchmark from the checkout root with the given arguments, e.g.
#
#   bash benchmark/run.sh -workload query_unique -seed 3 -seconds 15 -trace 0
#
# Binaries, the Go build cache and trace files all stay under
# .bench_build in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/bin/vcselbench" .)
(cd "$root" && go build -o "$out/bin/vcseld" ./cmd/vcseld)

cd "$root"
exec "$out/bin/vcselbench" -vcseld "$out/bin/vcseld" "$@"
