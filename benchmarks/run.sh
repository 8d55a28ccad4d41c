#!/usr/bin/env bash
# Entry point for the benchmark driver (the "command" of BENCHMARK.json).
# Everything the Go toolchain writes — build cache, temporary files, the
# binaries — stays inside the checkout under .bench_build, then svqbench runs
# with the arguments given. By hand, `go run ./benchmarks/svqbench` does the
# same with your usual caches.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/serve ]; then
  echo "svqbench: $root is not a checkout of the repository (no go.mod, no cmd/serve)" >&2
  exit 1
fi
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomod"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR" .bench_build/bin
go build -o .bench_build/bin/svqbench ./benchmarks/svqbench
exec .bench_build/bin/svqbench "$@"
