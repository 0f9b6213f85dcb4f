#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload small-cold --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch stores and
# trace files all live under $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

# The build must not touch the user's Go caches or telemetry directory.
(
	cd perfbench
	GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp \
		XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off GOPROXY=off \
		GOTOOLCHAIN=local GOFLAGS= go build -o "$out/perfbench" .
)

commit=unknown
if [[ -e .git ]]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --workdir "$out/perfbench-work" --commit "$commit" "$@"
