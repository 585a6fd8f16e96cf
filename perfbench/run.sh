#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Everything the build writes (Go build cache, temp
# files, the binary) goes under .bench_build in the checkout root, so a
# run touches nothing outside the checkout. Run it from the root:
#
#   bash perfbench/run.sh --workload converge --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp" "${out}/gomod"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp" GOMODCACHE="${out}/gomod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
