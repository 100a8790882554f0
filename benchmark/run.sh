#!/bin/sh
# The benchmark's one command (BENCHMARK.json): `go run ./benchmark "$@"` with
# every cache the Go toolchain writes pinned under .bench_build, so a run
# reads and writes nothing outside the checkout and needs no $HOME. It execs
# the built binary rather than `go run`, so a signal from the caller reaches
# the benchmark (and through it the rtecd child), not a go tool in between.
set -eu
if [ ! -f go.mod ] || [ ! -d cmd/rtecd ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (no go.mod or cmd/rtecd here)" >&2
	exit 2
fi
b="$PWD/.bench_build"
mkdir -p "$b"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOMODCACHE="$b/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$b/config"
go build -o "$b/bin/benchmark" ./benchmark
exec "$b/bin/benchmark" "$@"
