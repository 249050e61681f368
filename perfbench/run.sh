#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-matrix --seed 1 --seconds 25 --trace 0
#
# Every build product and Go cache stays under .bench_build in the checkout.
# In a git checkout the result is stamped with the commit; elsewhere the
# program's source_sha256 stamp identifies the code.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
  PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
  export PERFBENCH_COMMIT
fi
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
