#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash bench/run.sh --workload <name|all> --seed N --seconds S --trace 0|1
#
# Every build product and cache lives under .bench_build/ at the root of the
# checkout, so the run reads and writes nothing outside it and needs no
# network. The build fails, and so does this script, when the repository
# sources next to bench/ are missing.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/gofmm-bench" .) >&2
cd "$root"
exec "$build/gofmm-bench" "$@"
