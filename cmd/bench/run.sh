#!/usr/bin/env bash
# Builds and runs cmd/bench with every build artefact inside the checkout:
# the benchmark may write nowhere else, and go's default caches are in $HOME.
set -euo pipefail
cd "$(dirname "$0")/../.."
# Without the module there is nothing to measure; do not let go find some
# other module further up.
[ -f go.mod ] || { echo "cmd/bench/run.sh: no go.mod in $PWD" >&2; exit 1; }
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
mkdir -p .bench_build/bin
go build -o .bench_build/bin/bench ./cmd/bench
exec .bench_build/bin/bench "$@"
