#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#   bash benchmark/run.sh --workload crawl --seed 1 --seconds 15 --trace 0
# Everything it builds or writes stays under .bench_build/ in the current
# directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark: run from the repository root (needs go.mod, internal/ and benchmark/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the toolchain's caches and scratch files inside the checkout, and
# never let it reach for the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

BENCH_COMMIT=unknown
BENCH_DIRTY=0
if [[ -d "$root/.git" ]] && command -v git >/dev/null; then
	export GIT_CEILING_DIRECTORIES="$(dirname "$root")" GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null
	BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]]; then
		BENCH_DIRTY=1
	fi
fi
export BENCH_COMMIT BENCH_DIRTY

(cd "$root/benchmark" && go build -o "$out/portalbench" .)
exec "$out/portalbench" --out "$out" "$@"
