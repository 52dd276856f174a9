#!/usr/bin/env bash
# End-to-end benchmark of xbarserve. Run from the root of a checkout:
#
#   bash xbarbench/run.sh --workload query-batch --seed 1 --seconds 20 --trace 0
#
# Builds the checkout's cmd/xbarserve and the load generator in this
# directory, then hands every argument to the load generator. Binaries,
# Go's build cache, server state and span files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/xbarserve ] || [ ! -d internal ]; then
	echo "xbarbench: run from the root of an xbarsec checkout (cmd/xbarserve not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/xbarserve" ./cmd/xbarserve
(cd xbarbench && go build -o "$out/bin/xbarbench" .)

exec "$out/bin/xbarbench" "$@"
