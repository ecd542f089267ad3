#!/usr/bin/env bash
# Builds chats-benchmark from source and runs it with the given flags:
#
#   bash cmd/chats-benchmark/run.sh --workload stamp-grid --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ there: the Go build cache, temporary
# files and the binary. The build uses the local toolchain only and
# never downloads anything.
set -euo pipefail

out="$PWD/.bench_build/chats-benchmark"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
# The commit stamp comes from git only when the root itself is a work
# tree; never from a repository enclosing it.
export GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"

go -C cmd/chats-benchmark build -o "$out/chats-benchmark" .
exec "$out/chats-benchmark" "$@"
