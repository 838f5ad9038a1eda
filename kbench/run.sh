#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash kbench/run.sh --workload analyze-30k --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout. Without the repository's Go
# sources next to kbench/ the build fails and no result is printed.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/kbench" && go build -o "$out/kbench" .)
exec "$out/kbench" --workdir "$out/work" "$@"
